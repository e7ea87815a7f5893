//! The traced run: each sampled request replayed one at a time through
//! the public functions of every layer, with a span around each call,
//! and then sent once through an idle [`Service`] for its roundtrip.
//!
//! The spans are taken from outside the layers, by the ledger itself,
//! so the program under test carries no tracing code and the untraced
//! run is unaffected by it.

use crate::gate::Request;
use crate::load::Lines;
use crate::stats::median;
use igen_batch::{BatchConfig, BatchProgram};
use igen_core::{compile_to_program_raw, verify_bit_identity, verify_bit_identity_dd, Compiler};
use igen_interval::{DdI, F64I};
use igen_session::{workload_dd, workload_f64, CompiledUnit, Service, Session};
use igen_telemetry::json;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The replayed request it belongs to.
    pub req: u64,
    /// Its index in the recorder.
    pub id: usize,
    /// The span that made the call, if any.
    pub parent: Option<usize>,
    /// Layer and call, e.g. `vm.lower`.
    pub name: &'static str,
    /// Start, ns since the recorder began.
    pub start_ns: u64,
    /// End, ns since the recorder began.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Recorder::close`] and as a
    /// parent.
    pub fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { req, id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as span `name`.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    fn ms(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"workload\":{},\"req\":{},\"span\":{},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json::escape(workload),
                s.req,
                s.id,
                json::escape(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The traced run's per-layer numbers, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Raw per-request observations of one replay.
#[derive(Default)]
struct Tally {
    roundtrip: Vec<f64>,
    residual: Vec<f64>,
    response_bytes: Vec<f64>,
    decode: Vec<f64>,
    lookup: Vec<f64>,
    inputs: Vec<f64>,
    run: Vec<f64>,
    ns_per_insn_item: Vec<f64>,
    scalar_ns_per_insn_item: Vec<f64>,
    thread_speedup: Vec<f64>,
    nonfinite: (u64, u64),
    compile_miss: Vec<f64>,
    phases: BTreeMap<&'static str, Vec<f64>>,
    pipeline_other: Vec<f64>,
    insns_raw: Vec<f64>,
    insns: Vec<f64>,
    rewrites: Vec<f64>,
    /// Summed over requests: roundtrip, compiles on misses, runs, and
    /// session overhead (decode + hit lookups + residual), ms.
    sum_roundtrip: f64,
    sum_pipeline: f64,
    sum_run: f64,
    sum_session: f64,
    disagreements: u64,
}

/// The layer names of the compile pipeline, in pipeline order.
pub const PHASES: [&str; 6] = [
    "cfront.parse",
    "core.compile_unit",
    "vm.lower",
    "vm.peephole",
    "verify.self_check",
    "batch.prepare",
];

/// Seed and size of the session's insert-time self-check workload.
const SELF_CHECK: (usize, u64) = (8, 0x5e55);

/// Items `run_scalar` evaluates per request for the unpacked baseline.
const SCALAR_ITEMS: usize = 64;

/// Replays lines `0..n` of `lines` in passes until `secs` have passed
/// (at least one pass), against a session and an idle service both
/// primed with `prime` in the same order, so their LRU caches make the
/// same hit/miss decisions.
pub fn replay(
    lines: &impl Lines,
    n: u64,
    prime: &[String],
    service: igen_session::ServiceConfig,
    secs: f64,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let svc = Service::start(service);
    let session = Session::new(service.cache_cap);
    crate::load::drain(&svc, prime.iter().cloned(), 1)?;
    for line in prime {
        session.compile(&Request::parse(line)?.compile).map_err(|e| e.to_string())?;
    }
    let mut t = Tally::default();
    let t0 = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || t0.elapsed().as_secs_f64() < secs {
        let mut keys_seen = HashSet::new();
        for i in 0..n {
            let req = pass * n + i;
            replay_one(&lines.line(i), req, &svc, &session, &mut keys_seen, rec, &mut t)?;
        }
        pass += 1;
    }
    let mut l = Layers::new();
    l.insert("service.roundtrip_ms", median(&t.roundtrip));
    l.insert("service.residual_ms", median(&t.residual));
    l.insert("service.response_kb", mean(&t.response_bytes) / 1024.0);
    l.insert("json.decode_ms", median(&t.decode));
    l.insert("session.lookup_ms", median(&t.lookup));
    l.insert("session.inputs_ms", median(&t.inputs));
    l.insert("session.compile_miss_ms", median(&t.compile_miss));
    l.insert("session.pipeline_other_ms", median(&t.pipeline_other));
    for name in PHASES {
        l.insert(metric_ms(name), median(t.phases.get(name).map_or(&[][..], Vec::as_slice)));
    }
    l.insert("vm.insns_raw", mean(&t.insns_raw));
    l.insert("vm.insns", mean(&t.insns));
    l.insert("vm.peephole_rewrites", mean(&t.rewrites));
    l.insert("batch.run_ms", median(&t.run));
    l.insert("batch.ns_per_insn_item", median(&t.ns_per_insn_item));
    l.insert("batch.thread_speedup", median(&t.thread_speedup));
    l.insert("batch.nonfinite_share", t.nonfinite.0 as f64 / t.nonfinite.1.max(1) as f64);
    l.insert("vm.scalar_ns_per_insn_item", median(&t.scalar_ns_per_insn_item));
    let share = |x: f64| 100.0 * x / t.sum_roundtrip;
    l.insert("share.pipeline_pct", share(t.sum_pipeline));
    l.insert("share.run_pct", share(t.sum_run));
    l.insert("share.session_pct", share(t.sum_session));
    l.insert("trace.cache_disagreements", t.disagreements as f64);
    l.insert("trace.requests", t.roundtrip.len() as f64);
    Ok(l)
}

/// `cfront.parse` → `cfront.parse_ms`.
fn metric_ms(phase: &str) -> &'static str {
    match phase {
        "cfront.parse" => "cfront.parse_ms",
        "core.compile_unit" => "core.compile_unit_ms",
        "vm.lower" => "vm.lower_ms",
        "vm.peephole" => "vm.peephole_ms",
        "verify.self_check" => "verify.self_check_ms",
        _ => "batch.prepare_ms",
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn replay_one(
    line: &str,
    req: u64,
    svc: &Service,
    session: &Session,
    keys_seen: &mut HashSet<String>,
    rec: &mut Recorder,
    t: &mut Tally,
) -> Result<(), String> {
    let root_id = rec.open(req, None, "request");
    let root = Some(root_id);
    let (r, decode) = rec.time(req, root, "json.decode", || Request::decode(&json::parse(line)?));
    let r = r?;
    let misses = session.cache_stats().misses;
    let (unit, compile) = rec.time(req, root, "session.compile", || session.compile(&r.compile));
    let unit = unit.map_err(|e| e.to_string())?;
    let missed = session.cache_stats().misses > misses;
    let bcfg = BatchConfig::new().with_threads(r.threads).with_seq_threshold(0);
    let insns = unit.batch.program().insns.len() as f64;
    let (run, inputs, finite) = if r.is_dd() {
        let (soa, inputs) =
            rec.time(req, root, "session.inputs", || workload_dd(&unit, r.batch, r.seed));
        let (out, run) = rec.time(req, root, "batch.run", || unit.batch.run_dd(&bcfg, &soa));
        let ends =
            out.to_intervals().iter().flat_map(|d| [d.lo().hi(), d.hi().hi()]).collect::<Vec<_>>();
        (run, inputs, ends)
    } else {
        let (soa, inputs) =
            rec.time(req, root, "session.inputs", || workload_f64(&unit, r.batch, r.seed));
        let (out, run) = rec.time(req, root, "batch.run", || unit.batch.run(&bcfg, &soa));
        (run, inputs, out.to_intervals().iter().flat_map(|x| [x.lo(), x.hi()]).collect())
    };
    rec.close(root_id);

    // The same line once through the idle service.
    let hits = svc.cache_stats().hits;
    let (resp, roundtrip) = rec.time(req, None, "service.roundtrip", || svc.submit(line).wait());
    if !crate::load::is_ok(&resp) {
        return Err(format!("replayed request failed: {resp}"));
    }
    t.disagreements += u64::from((svc.cache_stats().hits == hits) != missed);

    let [decode, compile, inputs, run, roundtrip] =
        [decode, compile, inputs, run, roundtrip].map(|id| rec.ms(id));
    let residual = roundtrip - (decode + compile + inputs + run);
    t.roundtrip.push(roundtrip);
    t.residual.push(residual);
    t.response_bytes.push(resp.len() as f64);
    t.decode.push(decode);
    t.inputs.push(inputs);
    t.run.push(run);
    t.ns_per_insn_item.push(run * 1e6 / (insns * r.batch as f64));
    t.nonfinite.0 += finite.iter().filter(|x| !x.is_finite()).count() as u64;
    t.nonfinite.1 += finite.len() as u64;
    t.sum_roundtrip += roundtrip;
    t.sum_run += run;
    if missed {
        t.sum_pipeline += compile;
        t.sum_session += decode + residual;
    } else {
        t.sum_session += decode + compile + residual;
    }

    // Off the request path: the hit cost against the same cache (the
    // key is now at the front of its LRU order, so a second lookup
    // leaves the order unchanged), and the engine's layers in isolation.
    let (_, lookup) = rec.time(req, None, "session.lookup", || session.compile(&r.compile));
    t.lookup.push(rec.ms(lookup));
    layer_runs(&unit, &r, rec, req, t);
    if keys_seen.insert(r.key()) {
        pipeline(&r, rec, req, t)?;
    }
    Ok(())
}

/// Thread scaling and the unpacked scalar baseline, on the request's own
/// program and inputs.
fn layer_runs(unit: &CompiledUnit, r: &Request, rec: &mut Recorder, req: u64, t: &mut Tally) {
    let insns = unit.batch.program().insns.len() as f64;
    let one = BatchConfig::new().with_threads(1).with_seq_threshold(0);
    let two = BatchConfig::new().with_threads(2).with_seq_threshold(0);
    let nin = unit.n_inputs();
    let scalar_items = r.batch.min(SCALAR_ITEMS);
    let prog = unit.batch.program();
    let (t1, t2, scalar) = if r.is_dd() {
        let soa = workload_dd(unit, r.batch, r.seed);
        let (_, t1) = rec.time(req, None, "batch.run_1thread", || unit.batch.run_dd(&one, &soa));
        let (_, t2) = rec.time(req, None, "batch.run_2threads", || unit.batch.run_dd(&two, &soa));
        let items: Vec<DdI> = soa.to_intervals();
        let (_, s) = rec.time(req, None, "vm.run_scalar", || {
            for i in 0..scalar_items {
                std::hint::black_box(igen_vm::run_scalar::<DdI>(prog, &items[i * nin..][..nin]));
            }
        });
        (t1, t2, s)
    } else {
        let soa = workload_f64(unit, r.batch, r.seed);
        let (_, t1) = rec.time(req, None, "batch.run_1thread", || unit.batch.run(&one, &soa));
        let (_, t2) = rec.time(req, None, "batch.run_2threads", || unit.batch.run(&two, &soa));
        let items: Vec<F64I> = soa.to_intervals();
        let (_, s) = rec.time(req, None, "vm.run_scalar", || {
            for i in 0..scalar_items {
                std::hint::black_box(igen_vm::run_scalar::<F64I>(prog, &items[i * nin..][..nin]));
            }
        });
        (t1, t2, s)
    };
    t.thread_speedup.push(rec.ms(t1) / rec.ms(t2));
    t.scalar_ns_per_insn_item.push(rec.ms(scalar) * 1e6 / (insns * scalar_items as f64));
}

/// The pipeline rebuilt phase by phase from each layer's public
/// functions, then one compile through a fresh session. An untimed
/// compile first resolves the function and binding and warms both
/// measurements alike, so their difference is the session's own work.
fn pipeline(r: &Request, rec: &mut Recorder, req: u64, t: &mut Tally) -> Result<(), String> {
    let unit = Session::new(1).compile(&r.compile).map_err(|e| e.to_string())?;
    let root_id = rec.open(req, None, "pipeline");
    let root = Some(root_id);
    let (tu, parse) = rec.time(req, root, "cfront.parse", || igen_cfront::parse(&r.compile.source));
    let tu = tu.map_err(|e| e.to_string())?;
    let compiler = Compiler::new(r.compile.cfg);
    let (out, cu) = rec.time(req, root, "core.compile_unit", || compiler.compile_unit(&tu));
    let out = out.map_err(|e| e.to_string())?;
    let (raw, lower) =
        rec.time(req, root, "vm.lower", || compile_to_program_raw(&out, &unit.fn_name, &unit.bind));
    let raw = raw.map_err(|e| e.to_string())?;
    let ((prog, stats), peep) = rec.time(req, root, "vm.peephole", || igen_vm::peephole(&raw));
    let (items, seed) = SELF_CHECK;
    let (checked, check) = rec.time(req, root, "verify.self_check", || {
        if r.is_dd() {
            let ivals = workload_dd(&unit, items, seed).to_intervals();
            verify_bit_identity_dd(&out, &prog, &unit.bind, &ivals)
        } else {
            let ivals = workload_f64(&unit, items, seed).to_intervals();
            verify_bit_identity(&out, &prog, &unit.bind, &ivals)
        }
    });
    checked.map_err(|e| e.to_string())?;
    let insns = prog.insns.len() as f64;
    let (_, prepare) = rec.time(req, root, "batch.prepare", || BatchProgram::new(prog));
    rec.close(root_id);
    let fresh = Session::new(1);
    let (_, miss) = rec.time(req, None, "session.compile_miss", || fresh.compile(&r.compile));
    let phases = [parse, cu, lower, peep, check, prepare];
    let mut sum = 0.0;
    for (name, id) in PHASES.into_iter().zip(phases) {
        t.phases.entry(name).or_default().push(rec.ms(id));
        sum += rec.ms(id);
    }
    t.compile_miss.push(rec.ms(miss));
    t.pipeline_other.push(rec.ms(miss) - sum);
    t.insns_raw.push(raw.insns.len() as f64);
    t.insns.push(insns);
    t.rewrites.push(stats.rewrites() as f64);
    Ok(())
}

/// Per span name: whether it lies on the request path (under a
/// `request` or `service.roundtrip` root) rather than being a
/// measurement taken beside it, its p50 self time (ms), and the share of
/// the summed service roundtrip its summed self time makes up.
pub fn self_time_table(rec: &Recorder) -> Vec<(&'static str, bool, f64, f64)> {
    let selfs = self_times(&rec.spans);
    let root = |mut id: usize| {
        while let Some(p) = rec.spans[id].parent {
            id = p;
        }
        rec.spans[id].name
    };
    let mut by_name: BTreeMap<&'static str, (bool, Vec<f64>)> = BTreeMap::new();
    for (s, st) in rec.spans.iter().zip(&selfs) {
        let on_path = matches!(root(s.id), "request" | "service.roundtrip");
        by_name.entry(s.name).or_insert((on_path, Vec::new())).1.push(*st as f64 / 1e6);
    }
    let roundtrip: f64 = by_name.get("service.roundtrip").map_or(0.0, |v| v.1.iter().sum());
    by_name
        .into_iter()
        .map(|(name, (on_path, v))| {
            let share = 100.0 * v.iter().sum::<f64>() / roundtrip;
            (name, on_path, median(&v), share)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { req: 0, id, parent, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps child 1 by 10 ns
            span(3, Some(0), 90, 120), // runs past the parent's end
            span(4, Some(1), 12, 14),
        ];
        // Parent: covered 10..50 (40) + 90..100 (10) = 50 of 100.
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn recorder_nests_child_spans() {
        let mut r = Recorder::new();
        let root = r.open(7, None, "request");
        let ((), child) = r.time(7, Some(root), "json.decode", || std::hint::black_box(()));
        r.close(root);
        assert_eq!(r.spans[child].parent, Some(root));
        assert!(r.spans[root].start_ns <= r.spans[child].start_ns);
        assert!(r.spans[child].end_ns <= r.spans[root].end_ns);
        let st = self_times(&r.spans);
        assert_eq!(st[root], r.spans[root].dur_ns() - r.spans[child].dur_ns());
    }
}
