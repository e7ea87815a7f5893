//! `igen-ledger` — one `serve` request measured end to end and layer by
//! layer, over four workloads that each load one layer.
//!
//! ```text
//! igen-ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--trace-out spans.jsonl]
//! ```
//!
//! With `--workload`, the ledger generates that workload's request lines
//! from the seed, drives an in-process `igen_session::Service` (the
//! engine of `igen-cli serve`) with them for `--seconds`, checks the
//! responses against the reference interpreter, and prints every metric
//! by name and unit; the last line is one JSON object. `--trace 1`
//! reports the per-layer metrics instead, from a traced load phase and a
//! replay of the workload's first request lines through each layer's
//! public functions; `--trace-out` also writes its spans as JSON lines.
//! A build with the `telemetry` feature compiled in refuses to measure,
//! since its timings would carry the instrumentation's cost. Without
//! `--workload`, the ledger re-executes itself once per workload, so no
//! registry, allocator state or peak RSS carries over between them.
//!
//! See README.md beside this file for the workloads, the metrics and
//! how their bounds were set.

mod gate;
mod gen;
mod load;
mod stats;
mod trace;

use gen::{Gen, Workload};
use igen_session::{Flags, Service, ServiceConfig};
use load::{Observed, ROUNDS};
use std::process::ExitCode;
use std::time::Instant;

/// The service under test: `igen-cli serve --workers 2` with the
/// default 64-entry cache and 64-deep queue.
const SERVICE: ServiceConfig =
    ServiceConfig { workers: 2, deadline_ms: 0, cache_cap: 0, queue_cap: 0 };

/// Set-ups per run; `setup_s` is their median and the last one serves
/// the timed phase.
const SETUPS: usize = 15;

/// Priming requests kept outstanding during a set-up: enough that the
/// workers never idle between compiles, well inside the 64-deep queue.
const PRIME_WINDOW: usize = 32;

/// Share of a traced run's time spent in its load phase; the rest
/// replays requests layer by layer.
const TRACE_LOAD_SHARE: f64 = 0.4;

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 27] = [
    ("service.roundtrip_ms", "ms"),
    ("service.residual_ms", "ms"),
    ("service.response_kb", "KiB"),
    ("service.queue_depth_p99", "count"),
    ("service.queue_depth_max", "count"),
    ("json.decode_ms", "ms"),
    ("session.lookup_ms", "ms"),
    ("session.inputs_ms", "ms"),
    ("session.compile_miss_ms", "ms"),
    ("session.pipeline_other_ms", "ms"),
    ("session.hit_ratio", "ratio"),
    ("session.evictions", "count"),
    ("cfront.parse_ms", "ms"),
    ("core.compile_unit_ms", "ms"),
    ("vm.lower_ms", "ms"),
    ("vm.peephole_ms", "ms"),
    ("vm.insns_raw", "count"),
    ("vm.insns", "count"),
    ("vm.peephole_rewrites", "count"),
    ("verify.self_check_ms", "ms"),
    ("batch.prepare_ms", "ms"),
    ("batch.run_ms", "ms"),
    ("batch.ns_per_insn_item", "ns"),
    ("batch.thread_speedup", "ratio"),
    ("batch.nonfinite_share", "ratio"),
    ("vm.scalar_ns_per_insn_item", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Requests a workload's client keeps outstanding, and the percentile
/// its tail is read at: the highest with at least ten samples beyond it
/// in every round of a 20-second run on the calibration host.
///
/// `warm-mixed` and `cold-compile` keep one request per worker;
/// `bulk-eval` sends one at a time because each already runs on two
/// threads. `open-mix` keeps eight outstanding, so the queue is never
/// empty. That shape was chosen because it repeats, not because it
/// matches measured `serve` traffic: on the 2-vCPU calibration host a
/// fixed-rate open loop's p50 swung by 25–35% between identical runs.
fn shape(w: Workload) -> (usize, f64) {
    match w {
        Workload::WarmMixed | Workload::ColdCompile => (2, 99.0),
        Workload::BulkEval => (1, 90.0),
        Workload::OpenMix => (8, 99.0),
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> &'static str {
    "usage: igen-ledger [--workload warm-mixed|cold-compile|bulk-eval|open-mix] [--seed N]\n\
     \x20                  [--seconds S] [--trace 0|1] [--trace-out <spans.jsonl>]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 1, seconds: 20.0, trace: false, trace_out: None };
    let mut f = Flags::new(argv);
    while let Some(arg) = f.next() {
        match arg {
            "--workload" => {
                let name = f.value("--workload", "a workload name")?;
                a.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => a.seed = f.parse("--seed", "an unsigned integer")?,
            "--seconds" => a.seconds = f.parse("--seconds", "a number of seconds")?,
            "--trace" => {
                a.trace = match f.value("--trace", "0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1 (got '{v}')")),
                }
            }
            "--trace-out" => a.trace_out = Some(f.value("--trace-out", "a path")?.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("igen-ledger: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload {
        None => run_all(&argv),
        Some(w) => match run(w, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("igen-ledger: {}: {msg}", w.name());
                ExitCode::FAILURE
            }
        },
    }
}

/// Runs every workload in a child process of its own.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("igen-ledger: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        let status =
            std::process::Command::new(&exe).args(argv).args(["--workload", w.name()]).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("igen-ledger: workload {} exited with {s}", w.name());
                all_ok = false;
            }
            Err(e) => {
                eprintln!("igen-ledger: cannot start workload {}: {e}", w.name());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (`VmHWM`), MB; `None` where
/// `/proc/self/status` does not exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Starts the service and primes its cache; returns it with the
/// request stream.
fn set_up(w: Workload, seed: u64) -> Result<(Gen, Service), String> {
    let gen = Gen::new(w, seed);
    let svc = Service::start(SERVICE);
    load::drain(&svc, gen.prime.iter().map(gen::Entry::compile_line), PRIME_WINDOW)
        .map_err(|resp| format!("priming failed: {resp}"))?;
    Ok((gen, svc))
}

/// One workload: set up, timed phase, correctness gate, report. Returns
/// whether every checked response was correct.
fn run(w: Workload, args: &Args) -> Result<bool, String> {
    let (window, tail_p) = shape(w);
    println!(
        "igen-ledger: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}; telemetry compiled in: {}",
        igen_bench::host_line(igen_batch::available_threads()),
        igen_telemetry::COMPILED_IN
    );
    if igen_telemetry::COMPILED_IN {
        return Err("the `telemetry` feature is compiled in, so timings would carry its \
                    instrumentation; rebuild without it to measure"
            .to_string());
    }
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (gen, svc) = set_up(w, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((gen, svc)); // the previous service shuts down here
    }
    let (gen, svc) = kept.expect("at least one set-up");
    println!(
        "requests: fnv64 of the first 256 lines {:#018x}; {} catalogue programs, {} primed",
        gen.lines_hash(256),
        gen.catalogue.len(),
        gen.prime.len()
    );

    // A traced run interleaves ROUNDS untraced rounds with ROUNDS traced
    // ones, so trace.overhead_pct compares like with like.
    let (load_s, rounds) = if args.trace {
        (args.seconds * TRACE_LOAD_SHARE, 2 * ROUNDS)
    } else {
        (args.seconds, ROUNDS)
    };
    let mut rec = trace::Recorder::new();
    let before = svc.cache_stats();
    println!(
        "loop: closed, window {window}, {rounds} rounds of {:.2} s{}",
        load_s / rounds as f64,
        if args.trace { ", odd rounds traced" } else { "" }
    );
    let obs =
        load::closed(&svc, &gen, args.seed, window, load_s, rounds, args.trace.then_some(&mut rec));
    let after = svc.cache_stats();
    let rss = peak_rss_mb();
    let depth_max = svc
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("igen_session_queue_depth_max "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);

    report_rounds(&obs, tail_p);
    // The sampled lines are sent again: a response is a pure function of
    // its line, so the bytes must hash as they did under load.
    let mut changed = 0u64;
    let resent = obs.responses.sample().map(|(line, first)| {
        let resp = svc.submit(line).wait();
        changed += u64::from(gen::hash(resp.as_bytes()) != first);
        (line.to_string(), resp)
    });
    let verdict = gate::check(resent, args.seed);
    drop(svc);
    let repeat_mismatches = obs.responses.repeat_mismatches + changed;
    let mismatches = verdict.mismatches as u64 + repeat_mismatches;
    println!(
        "gate: {} of {} distinct lines re-sent and checked against the reference interpreter, \
         {} items, {} mismatches; {} repeated lines, {repeat_mismatches} with different bytes",
        verdict.lines,
        obs.responses.distinct(),
        verdict.items,
        verdict.mismatches,
        obs.responses.repeats + verdict.lines as u64,
    );
    for note in &verdict.notes {
        println!("gate: MISMATCH {note}");
    }
    println!(
        "errors: {} failed of {} attempted (error_rate {:.6}); mismatches {mismatches}",
        obs.failed,
        obs.attempted,
        obs.failed as f64 / obs.attempted.max(1) as f64
    );
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    println!(
        "cache: {hits} hits, {misses} misses, {} evictions during the timed phase",
        after.evictions - before.evictions
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let prime: Vec<String> = gen.prime.iter().map(gen::Entry::compile_line).collect();
        let replay_s = args.seconds - load_s;
        let mut layers =
            trace::replay(&gen, w.replay_lines(), &prime, SERVICE, replay_s, &mut rec)?;
        let mut depths = obs.queue_depths.clone();
        depths.sort_by(f64::total_cmp);
        layers.insert("service.queue_depth_p99", stats::percentile(&depths, 99.0));
        layers.insert("service.queue_depth_max", depth_max);
        layers.insert("session.hit_ratio", hits / (hits + misses).max(1.0));
        layers.insert("session.evictions", (after.evictions - before.evictions) as f64);
        let of = |parity: usize| -> Vec<stats::Round> {
            obs.rounds.iter().skip(parity).step_by(2).cloned().collect()
        };
        let untraced = stats::summarize(&of(0), tail_p).p50_ms;
        let traced = stats::summarize(&of(1), tail_p).p50_ms;
        println!(
            "trace overhead: load p50 {traced:.4} ms in traced rounds, {untraced:.4} ms in untraced ones"
        );
        layers.insert("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
        println!(
            "trace: {} requests replayed in {:.1} s, {} spans; {} hit/miss disagreements between replay and service",
            layers["trace.requests"],
            replay_s,
            rec.spans.len(),
            layers["trace.cache_disagreements"]
        );
        println!(
            "isolation: compile pipeline {:.1}%, batch.run {:.1}%, decode + hit lookup + residual \
             {:.1}% of the summed roundtrip; pipeline_other is {:.1}% of compile_miss",
            layers["share.pipeline_pct"],
            layers["share.run_pct"],
            layers["share.session_pct"],
            100.0 * layers["session.pipeline_other_ms"] / layers["session.compile_miss_ms"]
        );
        println!("{:<24} {:>8} {:>12} {:>12}", "span", "on path", "p50 self ms", "% roundtrip");
        for (name, on_path, p50, share) in trace::self_time_table(&rec) {
            let on_path = if on_path { "yes" } else { "no" };
            println!("{name:<24} {on_path:>8} {p50:>12.4} {share:>12.2}");
        }
        if igen_batch::available_threads() < 2 {
            println!("note: nproc < 2, so batch.thread_speedup cannot show parallel speed-up here");
        }
        if let Some(path) = &args.trace_out {
            rec.write_jsonl(path, w.name()).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace: wrote {} spans to {path}", rec.spans.len());
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layers[name]));
        }
    } else {
        let summary = stats::summarize(&obs.rounds, tail_p);
        metrics.extend([
            ("setup_s", "s", stats::median(&setup_s)),
            ("latency_p50_ms", "ms", summary.p50_ms),
            ("latency_tail_ms", "ms", summary.tail_ms),
            ("throughput_rps", "req/s", summary.throughput_rps),
            ("items_per_s", "items/s", summary.items_per_s),
        ]);
        match rss {
            Some(mb) => metrics.push(("peak_rss_mb", "MB", mb)),
            None => {
                println!("peak_rss_mb: unavailable (no /proc/self/status); left out of the result")
            }
        }
    }
    println!("setup_s runs: {setup_s:?}");
    for (name, unit, v) in &metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v))
        })
        .collect();
    let correct = mismatches == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        obs.attempted,
        obs.failed,
        body.join(",")
    );
    Ok(correct)
}

/// A metric value as a JSON number (non-finite values, which only a
/// broken run produces, become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Prints the per-round table.
fn report_rounds(obs: &Observed, tail_p: f64) {
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "round",
        "answered",
        "req/s",
        "items/s",
        "p50 ms",
        format!("p{tail_p} ms")
    );
    for (i, r) in obs.rounds.iter().enumerate() {
        let s = stats::summarize(std::slice::from_ref(r), tail_p);
        println!(
            "{:>6} {:>8} {:>10.2} {:>12.1} {:>10.4} {:>10.4}",
            i,
            r.latencies_ms.len(),
            s.throughput_rps,
            s.items_per_s,
            s.p50_ms,
            s.tail_ms
        );
        let fit = stats::tail_percentile(r.latencies_ms.len());
        if fit < tail_p {
            println!(
                "       round {i}: fewer than 10 samples beyond p{tail_p} (p{fit} has at least 10)"
            );
        }
    }
}
