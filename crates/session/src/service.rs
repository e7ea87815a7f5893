//! The always-on interval service behind `igen-cli serve`: a
//! persistent worker pool draining a bounded queue of JSON-lines
//! requests against a shared [`Session`] compile cache.
//!
//! # Protocol
//!
//! One request per line, one response per line. Every request is an
//! object with a `"kind"` and an optional `"id"` (string or integer,
//! echoed back verbatim):
//!
//! ```text
//! {"id":1,"kind":"compile","source":"double sq(double x){return x*x;}"}
//! {"id":1,"ok":true,"kind":"compile","fn":"sq","insns":1,"inputs":1,"outputs":1}
//! ```
//!
//! Kinds: `compile` (compile + cache, report the program shape), `run`
//! (compile + execute over a seeded or explicit input batch), `profile`
//! (compile + profiled run over the same `"batch"`/`"seed"` or explicit
//! `"inputs"` as `run`, report per-site counts and width
//! amplification), `metrics` (Prometheus-style text: the telemetry
//! snapshot plus session cache/queue counters), `ping` (liveness, with
//! an optional `sleep_ms` for queue tests) and `shutdown`. Failures are
//! one-line structured errors — `{"id":…,"ok":false,"error":"…"}` —
//! mirroring the CLI's one-line exit-2 convention; the server never
//! dies on a bad request.
//!
//! An interval endpoint travels as the shortest decimal that parses back
//! to the same `f64`, laid out as Rust's `{:?}` would; NaN and the
//! infinities travel as the strings `"NaN"`, `"inf"` and `"-inf"`
//! (DESIGN.md §17).
//!
//! # Determinism
//!
//! A `compile`/`run`/`profile` response is a **pure function of its
//! request line** (and of the build): no timings, no cache-state flags,
//! no worker identity. Combined with the batch engine's bit-identity
//! invariant this makes response lines byte-identical whether the pool
//! runs 1 worker or 16 and whether the cache is cold or warm — pinned
//! by the service determinism tests. `metrics` is the deliberate
//! exception (it reports live counters) and is excluded from
//! byte-identity goldens. A `profile` records into its own profiler
//! rows and never turns the process-wide telemetry recording on, so it
//! neither reads nor leaves anything in the global trace.
//!
//! `run` and `profile` are each written once, generic over the
//! interval element: the request's `"precision"` only picks `F64I` or
//! `DdI`.
//!
//! # Deadlines and backpressure
//!
//! The queue is bounded (`queue_cap`); a submit against a full queue
//! fails immediately with `queue full (N queued): retry later` instead
//! of stalling the reader. A request carrying `"deadline_ms"` (or a
//! server-wide `--deadline-ms` default) that waits in the queue past
//! its deadline is answered with `deadline expired after Nms in queue`
//! instead of being executed late. Both are ordinary error responses:
//! the connection and the server stay up.
//!
//! A handler that panics is contained the same way: its request is
//! answered with `internal error: <panic message>`, the
//! `session.worker.panics` counter is bumped, and the worker goes on
//! serving.

use crate::pipeline::{workload, BindRequest, CompileRequest, CompiledUnit, SessionElem};
use crate::{shortest, Session};
use igen_batch::{BatchConfig, SoaBatch};
use igen_core::{Config, OptLevel, Precision};
use igen_interval::{DdI, F64I};
use igen_telemetry::json::{self, Json};
use igen_telemetry::{Counter, UnitProfiler};
use igen_vm::VmElem;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

static QUEUE_DEPTH_MAX: Counter = Counter::new("session.queue.depth_max");
static WORKER_PANICS: Counter = Counter::new("session.worker.panics");

/// Hard ceiling on per-request batch sizes (a service must not let one
/// request allocate unbounded memory).
const MAX_BATCH: u64 = 1 << 20;

/// Hard ceiling on the interval values of one run or profile, batch ×
/// (inputs + outputs): those grow with a program's array lengths, so
/// [`MAX_BATCH`] alone does not bound a request's memory.
const MAX_VALUES: u64 = 1 << 22;

/// Hard ceiling on `ping` `sleep_ms` (tests use sleeps to fill the
/// queue deterministically; nothing should park a worker for minutes).
const MAX_SLEEP_MS: u64 = 10_000;

const KINDS: &str = "compile, run, profile, metrics, ping or shutdown";

/// Configuration for [`Service::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (0 = one per core).
    pub workers: usize,
    /// Default per-request queue deadline in milliseconds (0 = none;
    /// a request's own `"deadline_ms"` overrides).
    pub deadline_ms: u64,
    /// Compile-cache capacity (0 = [`crate::CompileCache::DEFAULT_CAP`]).
    pub cache_cap: usize,
    /// Bounded-queue capacity (0 = [`ServiceConfig::DEFAULT_QUEUE_CAP`]).
    pub queue_cap: usize,
}

impl ServiceConfig {
    /// Default queue bound: deep enough for bursts, shallow enough
    /// that a stuck pool surfaces as backpressure, not memory growth.
    pub const DEFAULT_QUEUE_CAP: usize = 64;
}

/// A handle to one submitted request's eventual response line.
pub struct Ticket {
    slot: Arc<Slot>,
    shutdown: bool,
}

impl Ticket {
    /// Blocks until the response line is ready and returns it.
    pub fn wait(self) -> String {
        let mut out = self.slot.out.lock().expect("response slot poisoned");
        loop {
            if let Some(line) = out.take() {
                return line;
            }
            out = self.slot.ready.wait(out).expect("response slot poisoned");
        }
    }

    /// True when this ticket answers a `shutdown` request — the caller
    /// should stop reading after writing the response.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }
}

struct Slot {
    out: Mutex<Option<String>>,
    ready: Condvar,
}

impl Slot {
    fn empty() -> Arc<Slot> {
        Arc::new(Slot { out: Mutex::new(None), ready: Condvar::new() })
    }

    fn ready(line: String) -> Arc<Slot> {
        Arc::new(Slot { out: Mutex::new(Some(line)), ready: Condvar::new() })
    }

    fn fill(&self, line: String) {
        *self.out.lock().expect("response slot poisoned") = Some(line);
        self.ready.notify_all();
    }
}

/// The kinds a worker executes (metrics and shutdown are answered
/// inline by `submit`, so they keep working when the queue is full).
enum Work {
    Compile,
    Run,
    Profile,
    Ping,
}

struct Job {
    id: Option<String>,
    work: Work,
    body: Json,
    /// `(expiry instant, configured ms)` — the message reports the
    /// configured value, not a measured one, so it stays deterministic.
    deadline: Option<(Instant, u64)>,
    slot: Arc<Slot>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    stop: bool,
}

struct Shared {
    session: Session,
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    depth_max: AtomicU64,
}

/// The long-running interval service (see module docs).
pub struct Service {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    queue_cap: usize,
    deadline_ms: u64,
}

impl Service {
    /// Starts the worker pool.
    pub fn start(cfg: ServiceConfig) -> Service {
        Service::start_with(cfg, handle)
    }

    /// [`Service::start`] with the request handler as a parameter.
    fn start_with(cfg: ServiceConfig, handler: Handler) -> Service {
        let workers = if cfg.workers == 0 { igen_batch::available_threads() } else { cfg.workers };
        let queue_cap =
            if cfg.queue_cap == 0 { ServiceConfig::DEFAULT_QUEUE_CAP } else { cfg.queue_cap };
        let shared = Arc::new(Shared {
            session: Session::new(cfg.cache_cap),
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), stop: false }),
            job_ready: Condvar::new(),
            depth_max: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker(&shared, handler))
            })
            .collect();
        Service { shared, handles, queue_cap, deadline_ms: cfg.deadline_ms }
    }

    /// Submits one request line. Always returns a ticket; protocol
    /// errors, full-queue rejections, `metrics` and `shutdown` come
    /// back pre-answered.
    pub fn submit(&self, line: &str) -> Ticket {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return Ticket {
                    slot: Slot::ready(error_line(&None, &format!("bad request: {e}"))),
                    shutdown: false,
                }
            }
        };
        let id = match request_id(&parsed) {
            Ok(id) => id,
            Err(e) => return Ticket { slot: Slot::ready(error_line(&None, &e)), shutdown: false },
        };
        let fail = |msg: &str| Ticket { slot: Slot::ready(error_line(&id, msg)), shutdown: false };
        let Some(kind) = parsed.get("kind").and_then(Json::as_str) else {
            return fail(&format!("request needs a \"kind\" (expected {KINDS})"));
        };
        let work = match kind {
            "compile" => Work::Compile,
            "run" => Work::Run,
            "profile" => Work::Profile,
            "ping" => Work::Ping,
            "metrics" => {
                let mut line = ok_head(&id);
                line.push_str("\"kind\":\"metrics\",\"text\":");
                line.push_str(&json::escape(&self.metrics_text()));
                line.push('}');
                return Ticket { slot: Slot::ready(line), shutdown: false };
            }
            "shutdown" => {
                {
                    let mut q = self.shared.queue.lock().expect("service queue poisoned");
                    q.stop = true;
                }
                self.shared.job_ready.notify_all();
                let mut line = ok_head(&id);
                line.push_str("\"kind\":\"shutdown\"}");
                return Ticket { slot: Slot::ready(line), shutdown: true };
            }
            k => return fail(&format!("unknown kind '{k}' (expected {KINDS})")),
        };
        let deadline = match parsed.get("deadline_ms") {
            Some(v) => match v.as_u64() {
                Some(ms) => Some((Instant::now() + Duration::from_millis(ms), ms)),
                None => return fail("\"deadline_ms\" must be an unsigned integer"),
            },
            None if self.deadline_ms > 0 => {
                Some((Instant::now() + Duration::from_millis(self.deadline_ms), self.deadline_ms))
            }
            None => None,
        };
        let slot = Slot::empty();
        let job = Job { id, work, body: parsed, deadline, slot: Arc::clone(&slot) };
        {
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            if q.stop {
                return Ticket {
                    slot: Slot::ready(error_line(&job.id, "service is shutting down")),
                    shutdown: false,
                };
            }
            if q.jobs.len() >= self.queue_cap {
                return Ticket {
                    slot: Slot::ready(error_line(
                        &job.id,
                        &format!("queue full ({} queued): retry later", self.queue_cap),
                    )),
                    shutdown: false,
                };
            }
            q.jobs.push_back(job);
            let depth = q.jobs.len() as u64;
            self.shared.depth_max.fetch_max(depth, Ordering::Relaxed);
            QUEUE_DEPTH_MAX.record_max(depth);
        }
        self.shared.job_ready.notify_one();
        Ticket { slot, shutdown: false }
    }

    /// The `metrics` payload: the telemetry snapshot in Prometheus
    /// text format plus the session cache/queue counters (the latter
    /// are tracked directly, so they report even in builds without the
    /// `telemetry` feature).
    pub fn metrics_text(&self) -> String {
        let mut text = igen_telemetry::snapshot().to_metrics_text();
        let cs = self.shared.session.cache_stats();
        text.push_str(&format!("igen_session_cache_hits {}\n", cs.hits));
        text.push_str(&format!("igen_session_cache_misses {}\n", cs.misses));
        text.push_str(&format!("igen_session_cache_evictions {}\n", cs.evictions));
        text.push_str(&format!("igen_session_cache_len {}\n", cs.len));
        text.push_str(&format!(
            "igen_session_queue_depth_max {}\n",
            self.shared.depth_max.load(Ordering::Relaxed)
        ));
        text
    }

    /// Cache statistics of the underlying [`Session`].
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.shared.session.cache_stats()
    }

    /// Requests currently waiting in the queue (tests use this to
    /// sequence backpressure scenarios deterministically).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("service queue poisoned").jobs.len()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            q.stop = true;
        }
        self.shared.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker loop: drain jobs until the queue is empty *and* the service
/// is stopping — queued requests submitted before a shutdown still get
/// answered.
fn worker(shared: &Shared, handler: Handler) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("service queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.stop {
                    return;
                }
                q = shared.job_ready.wait(q).expect("service queue poisoned");
            }
        };
        let line = match job.deadline {
            Some((expiry, ms)) if Instant::now() >= expiry => {
                error_line(&job.id, &format!("deadline expired after {ms}ms in queue"))
            }
            _ => answer(&shared.session, &job, handler),
        };
        job.slot.fill(line);
    }
}

/// Computes a job's response line.
type Handler = fn(&Session, &Job) -> String;

/// Runs `handler` on `job`, turning a panic into an error line: the
/// slot is always filled, so the request's ticket never waits forever.
fn answer(session: &Session, job: &Job, handler: Handler) -> String {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(session, job))).unwrap_or_else(
        |payload| {
            WORKER_PANICS.inc();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            error_line(&job.id, &format!("internal error: {msg}"))
        },
    )
}

/// Answers one job. An ok line is written in one pass: the head once,
/// then the handler appends its body to the same buffer.
fn handle(session: &Session, job: &Job) -> String {
    let mut line = ok_head(&job.id);
    let result = match job.work {
        Work::Ping => handle_ping(&job.body, &mut line),
        Work::Compile => handle_compile(session, &job.body, &mut line),
        Work::Run => handle_run(session, &job.body, &mut line),
        Work::Profile => handle_profile(session, &job.body, &mut line),
    };
    match result {
        Ok(()) => {
            line.push('}');
            line
        }
        Err(msg) => error_line(&job.id, &msg),
    }
}

fn handle_ping(body: &Json, out: &mut String) -> Result<(), String> {
    let sleep_ms = get_u64(body, "sleep_ms", 0)?.min(MAX_SLEEP_MS);
    if sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
    out.push_str("\"kind\":\"pong\"");
    Ok(())
}

fn handle_compile(session: &Session, body: &Json, out: &mut String) -> Result<(), String> {
    let req = compile_request("compile", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    let _ = write!(
        out,
        "\"kind\":\"compile\",\"fn\":{},\"insns\":{},\"inputs\":{},\"outputs\":{}",
        json::escape(&unit.fn_name),
        unit.batch.program().insns.len(),
        unit.n_inputs(),
        unit.n_outputs(),
    );
    if get_bool(body, "emit_bytecode", false)? {
        let _ = write!(out, ",\"bytecode\":{}", json::escape(&unit.batch.program().dump()));
    }
    Ok(())
}

fn handle_run(session: &Session, body: &Json, out: &mut String) -> Result<(), String> {
    let req = compile_request("run", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    // No result bit depends on the thread count; the clamp keeps a
    // request from asking for one OS thread per tile.
    let threads = (get_u64(body, "threads", 1)? as usize).min(igen_batch::available_threads());
    let tile = get_u64(body, "tile", 0)? as usize;
    // seq_threshold 0 + the engine's bit-identity invariant: the same
    // request yields the same output bits at any thread/tile setting.
    let bcfg =
        BatchConfig::new().with_threads(threads).with_seq_threshold(0).with_tile_groups(tile);
    let inputs = Inputs::parse(&unit, body)?;
    let _ = write!(
        out,
        "\"kind\":\"run\",\"fn\":{},\"items\":{},\"outputs\":",
        json::escape(&unit.fn_name),
        inputs.items
    );
    match req.cfg.precision {
        Precision::Dd => push_intervals(out, &unit.batch.run(&bcfg, &inputs.batch::<DdI>(&unit))),
        _ => push_intervals(out, &unit.batch.run(&bcfg, &inputs.batch::<F64I>(&unit))),
    }
    Ok(())
}

fn handle_profile(session: &Session, body: &Json, out: &mut String) -> Result<(), String> {
    let req = compile_request("profile", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    let inputs = Inputs::parse(&unit, body)?;
    let n_insns = unit.batch.program().insns.len();
    let bcfg = BatchConfig::new().with_threads(1).with_seq_threshold(0);

    // The profiler records into its own rows, not the process-wide
    // registry, so concurrent requests cannot blur each other's counts
    // and the response stays a pure function of the request.
    let mut prof = UnitProfiler::start(&unit.fn_name, n_insns);
    match req.cfg.precision {
        Precision::Dd => {
            unit.batch.run_profiled(&bcfg, &inputs.batch::<DdI>(&unit), &mut prof);
        }
        _ => {
            unit.batch.run_profiled(&bcfg, &inputs.batch::<F64I>(&unit), &mut prof);
        }
    }
    let _ = write!(
        out,
        "\"kind\":\"profile\",\"fn\":{},\"insns\":{n_insns},\"telemetry\":{},\"sites\":[",
        json::escape(&unit.fn_name),
        igen_telemetry::COMPILED_IN,
    );
    for rec in prof.finish().iter().filter(|r| r.count > 0) {
        if !out.ends_with('[') {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"site\":{},\"op\":{},\"line\":{},\"col\":{},\"count\":{},\"amp\":",
            rec.site,
            json::escape(&rec.op),
            rec.line,
            rec.col,
            rec.count,
        );
        match rec.mean_amp_log2() {
            Some(a) => push_endpoint(out, a),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    Ok(())
}

/// Builds the cache-keyed [`CompileRequest`] shared by the compile,
/// run and profile kinds.
fn compile_request(kind: &str, body: &Json) -> Result<CompileRequest, String> {
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return Err(format!("{kind} needs a \"source\" string"));
    };
    let fn_name = match body.get("fn") {
        Some(v) => Some(v.as_str().ok_or("\"fn\" must be a string")?.to_string()),
        None => None,
    };
    let mut cfg = Config { opt_level: OptLevel::O2, ..Config::default() };
    cfg.opt_level = match get_u64(body, "opt_level", 2)? {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        _ => return Err("\"opt_level\" must be 0, 1 or 2".to_string()),
    };
    cfg.precision = match body.get("precision").map(|v| v.as_str()) {
        None => Precision::F64,
        Some(Some("f64")) => Precision::F64,
        Some(Some("dd")) => Precision::Dd,
        _ => return Err("\"precision\" must be \"f64\" or \"dd\"".to_string()),
    };
    let peephole = get_bool(body, "peephole", true)?;
    let size = get_u64(body, "size", 8)? as usize;
    let int_args = named_values(body, "args", "integers", Json::as_i64)?;
    let lens = named_values(body, "lens", "counts", |v| v.as_u64().map(|n| n as usize))?;
    Ok(CompileRequest {
        source: source.into(),
        origin: "request".to_string(),
        fn_name,
        cfg,
        bind: BindRequest::FromParams { int_args, lens, size },
        peephole,
    })
}

/// `"args"`/`"lens"`-style objects mapping parameter names to numbers.
/// BTreeMap iteration sorts keys, so two spellings of the same mapping
/// produce the same cache key.
fn named_values<T>(
    body: &Json,
    key: &str,
    what: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    match body.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(name, v)| {
                conv(v)
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| format!("\"{key}\" must map parameter names to {what}"))
            })
            .collect(),
        Some(_) => Err(format!("\"{key}\" must map parameter names to {what}")),
    }
}

/// The input batch of a run or profile: the explicit `"inputs"` pairs
/// when given, else `"batch"` items generated from `"seed"`.
struct Inputs {
    items: usize,
    explicit: Option<Vec<F64I>>,
    seed: u64,
}

impl Inputs {
    /// Parses the request's inputs and refuses them over the value cap,
    /// before any batch is built.
    fn parse(unit: &CompiledUnit, body: &Json) -> Result<Inputs, String> {
        let batch = get_u64(body, "batch", 8)?;
        if batch == 0 || batch > MAX_BATCH {
            return Err(format!("\"batch\" must be between 1 and {MAX_BATCH}"));
        }
        let seed = get_u64(body, "seed", 0x16e0)?;
        let nin = unit.n_inputs();
        let explicit = body.get("inputs").map(|v| parse_input_pairs(v, nin)).transpose()?;
        let items = explicit.as_ref().map_or(batch as usize, |pairs| pairs.len() / nin);
        check_values(unit, items)?;
        Ok(Inputs { items, explicit, seed })
    }

    /// The input batch at element `T`: the explicit pairs promoted
    /// exactly, or the seeded workload.
    fn batch<T: SessionElem>(&self, unit: &CompiledUnit) -> SoaBatch<T> {
        match &self.explicit {
            Some(pairs) => pairs.iter().map(|&x| T::from_f64i(x)).collect(),
            None => workload(unit, self.items, self.seed),
        }
    }
}

/// Refuses a run or profile of `items` items that would hold more than
/// [`MAX_VALUES`] interval values, before any input is built.
fn check_values(unit: &CompiledUnit, items: usize) -> Result<(), String> {
    let (nin, nout) = (unit.n_inputs(), unit.n_outputs());
    if (items as u64).saturating_mul((nin + nout) as u64) > MAX_VALUES {
        return Err(format!(
            "{items} items of {nin} inputs and {nout} outputs each exceed the limit of \
             {MAX_VALUES} interval values"
        ));
    }
    Ok(())
}

/// Parses an explicit `"inputs"` array of `[lo, hi]` pairs.
fn parse_input_pairs(v: &Json, nin: usize) -> Result<Vec<F64I>, String> {
    let arr = v.as_arr().ok_or("\"inputs\" must be an array of [lo,hi] pairs")?;
    if arr.is_empty() || arr.len() % nin != 0 {
        return Err(format!(
            "\"inputs\" needs a positive multiple of {nin} [lo,hi] pairs (got {})",
            arr.len()
        ));
    }
    arr.iter()
        .map(|pair| {
            let p = pair.as_arr().filter(|p| p.len() == 2);
            let (lo, hi) = match p.map(|p| (p[0].as_f64(), p[1].as_f64())) {
                Some((Some(lo), Some(hi))) => (lo, hi),
                _ => return Err("\"inputs\" entries must be [lo,hi] number pairs".to_string()),
            };
            F64I::new(lo, hi).map_err(|e| format!("bad input interval [{lo:?}, {hi:?}]: {e}"))
        })
        .collect()
}

/// Appends `[[e,…],…]`: one array per interval of its endpoint words,
/// `[lo, hi]` at f64 and each endpoint as its exact `[hi, lo]` component
/// pair at dd. The reservation is an upper bound, so the line never
/// grows mid-write.
fn push_intervals<T: VmElem>(out: &mut String, batch: &SoaBatch<T>) {
    let words = T::Words::default().as_ref().len();
    out.reserve(2 + batch.len() * (words * (shortest::MAX_LEN + 1) + 2));
    out.push('[');
    for i in 0..batch.len() {
        if i > 0 {
            out.push(',');
        }
        for (k, &v) in batch.get(i).endpoint_words().as_ref().iter().enumerate() {
            out.push(if k == 0 { '[' } else { ',' });
            push_endpoint(out, v);
        }
        out.push(']');
    }
    out.push(']');
}

/// One endpoint as JSON: the shortest round-trip decimal for a finite
/// value; NaN and the infinities (legal interval endpoints, illegal
/// JSON numbers) as the strings `"NaN"`, `"inf"` and `"-inf"`.
fn push_endpoint(out: &mut String, v: f64) {
    if v.is_finite() {
        shortest::push_f64(out, v);
    } else {
        out.push('"');
        shortest::push_f64(out, v);
        out.push('"');
    }
}

fn get_u64(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("\"{key}\" must be an unsigned integer")),
    }
}

fn get_bool(body: &Json, key: &str, default: bool) -> Result<bool, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

/// The request's `"id"`, re-serialized for the echo (string or
/// integer; anything else is a protocol error).
fn request_id(req: &Json) -> Result<Option<String>, String> {
    match req.get("id") {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(json::escape(s))),
        Some(v) => match v.as_i64() {
            Some(n) => Ok(Some(n.to_string())),
            None => Err("\"id\" must be a string or an integer".to_string()),
        },
    }
}

/// Starts an ok response line, `{"id":…,"ok":true,`. The caller
/// appends the body and the closing `}`.
fn ok_head(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":true,"),
        None => "{\"ok\":true,".to_string(),
    }
}

fn error_line(id: &Option<String>, msg: &str) -> String {
    let msg = json::escape(msg);
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":false,\"error\":{msg}}}"),
        None => format!("{{\"ok\":false,\"error\":{msg}}}"),
    }
}

/// Drives the service over a line stream (stdio transport): requests
/// are answered **in submission order** — a writer thread waits on the
/// tickets in sequence while the workers process them in parallel.
/// Returns `Ok(true)` when a `shutdown` request ended the stream,
/// `Ok(false)` on EOF.
pub fn serve_lines<R, W>(svc: &Service, reader: R, writer: W) -> io::Result<bool>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel::<Ticket>();
    let writer_thread = std::thread::spawn(move || -> io::Result<bool> {
        let mut w = writer;
        let mut shut = false;
        for ticket in rx {
            shut |= ticket.is_shutdown();
            writeln!(w, "{}", ticket.wait())?;
            w.flush()?;
        }
        Ok(shut)
    });
    let mut read_err = None;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                read_err = Some(e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let ticket = svc.submit(&line);
        let shutdown = ticket.is_shutdown();
        if tx.send(ticket).is_err() {
            break; // writer failed; its error surfaces below
        }
        if shutdown {
            break;
        }
    }
    drop(tx);
    let shut =
        writer_thread.join().map_err(|_| io::Error::other("serve writer thread panicked"))??;
    match read_err {
        Some(e) => Err(e),
        None => Ok(shut),
    }
}

/// Drives the service over a Unix socket at `path`: one thread per
/// connection, each running the same line protocol (pipelining across
/// connections; in-order responses within one). Returns when any
/// connection submits `shutdown`.
#[cfg(unix)]
pub fn serve_unix(svc: &Service, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::AtomicBool;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shut = AtomicBool::new(false);
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if shut.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let (svc, shut) = (&*svc, &shut);
                    scope.spawn(move || serve_connection(svc, stream, shut));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// One socket connection: read a line, submit, wait, write. Read
/// timeouts let the loop notice a shutdown issued on another
/// connection instead of blocking forever on an idle client.
#[cfg(unix)]
fn serve_connection(
    svc: &Service,
    stream: std::os::unix::net::UnixStream,
    shut: &std::sync::atomic::AtomicBool,
) {
    use std::io::BufReader;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        if shut.load(Ordering::Relaxed) {
            return;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                if line.trim().is_empty() {
                    continue;
                }
                let ticket = svc.submit(&line);
                let shutdown = ticket.is_shutdown();
                let resp = ticket.wait();
                if writeln!(write_half, "{resp}").and_then(|()| write_half.flush()).is_err() {
                    return;
                }
                if shutdown {
                    shut.store(true, Ordering::Relaxed);
                    return;
                }
            }
            // Timeout mid-wait (or mid-line: read_line keeps the
            // partial text in `buf` and the next call appends).
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` end the test can read back after the writer thread is
    /// done with it.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("buffer poisoned").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The normal handler, except that a request carrying `"boom"` panics.
    fn explosive(session: &Session, job: &Job) -> String {
        if job.body.get("boom").is_some() {
            panic!("boom");
        }
        handle(session, job)
    }

    #[test]
    fn a_handler_panic_is_answered_once_and_the_worker_keeps_serving() {
        let cfg = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let svc = Service::start_with(cfg, explosive);
        let out = Captured::default();
        let input = "{\"id\":1,\"kind\":\"ping\",\"boom\":true}\n{\"id\":2,\"kind\":\"ping\"}\n";
        let shut = serve_lines(&svc, input.as_bytes(), out.clone()).expect("stream served");
        assert!(!shut, "the stream ends at EOF, not at a shutdown");
        let text =
            String::from_utf8(out.0.lock().expect("buffer poisoned").clone()).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"id":1,"ok":false,"error":"internal error: boom"}"#,
                r#"{"id":2,"ok":true,"kind":"pong"}"#,
            ]
        );
        // The same worker answers after the panic.
        assert_eq!(
            svc.submit(r#"{"id":3,"kind":"ping"}"#).wait(),
            r#"{"id":3,"ok":true,"kind":"pong"}"#
        );
    }

    /// Seven inputs and one output: 8 interval values per item.
    const WIDE: &str = "double f(double a, double b, double c, double d, double e, double g, \
                        double h) { return a + b + c + d + e + g + h; }";

    #[test]
    fn a_run_or_profile_over_the_value_cap_is_refused() {
        let svc = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        // 2^19 + 1 items of 8 values each: within MAX_BATCH, just over
        // MAX_VALUES.
        for kind in ["run", "profile"] {
            let line = format!(r#"{{"id":1,"kind":"{kind}","source":"{WIDE}","batch":524289}}"#);
            assert_eq!(
                svc.submit(&line).wait(),
                r#"{"id":1,"ok":false,"error":"524289 items of 7 inputs and 1 outputs each exceed the limit of 4194304 interval values"}"#
            );
        }
    }

    #[test]
    fn the_value_cap_admits_every_batch_of_a_one_in_one_out_program() {
        let session = Session::new(0);
        let compile =
            |src: &str| session.compile(&CompileRequest::new(src, "test")).expect("compiles");
        let sq = compile("double sq(double x) { return x * x; }");
        assert_eq!(check_values(&sq, MAX_BATCH as usize), Ok(()));
        let wide = compile(WIDE);
        assert_eq!(check_values(&wide, 1 << 19), Ok(()));
        assert!(check_values(&wide, (1 << 19) + 1).is_err());
    }
}
