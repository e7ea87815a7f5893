//! `igen-cli` — the command-line front of the IGen compiler (Fig. 1):
//! reads a C file with floating-point computations, writes the equivalent
//! sound interval C.
//!
//! ```text
//! igen-cli compile input.c [-o igen_input.c] [--precision f32|f64|dd]
//!                  [--opt-level 0|1|2] [--emit-ir] [--dump-passes]
//!                  [--verify-passes] [--reductions] [--join-branches]
//!                  [--intrinsics] [--metrics] [--trace-out <path>]
//! igen-cli run <input.c> [--fn NAME] [--batch N] [--threads N]
//!              [--opt-level 0|1|2] [--precision f64|dd] [--arg name=INT]
//!              [--len name=N] [--size N] [--seed N] [--emit-bytecode]
//!              [--no-peephole] [--metrics] [--trace-out <path>]
//! igen-cli profile <input.c> [--fn NAME] [--batch N] [--opt-level 0|1|2]
//!                  [--precision f64|dd] [--top N] [--trace-out <path>] ...
//! igen-cli serve [--socket <path>] [--workers N] [--deadline-ms N]
//!                [--cache-cap N] [--queue-cap N] [--record]
//! igen-cli report <trace.jsonl>...
//! ```
//!
//! `run` compiles a C function once into register bytecode and executes
//! it over a generated input batch on the multi-threaded packed path,
//! verifying bit identity against the single-thread run and against the
//! differential interpreter before reporting throughput. The
//! source→bytecode pipeline itself lives in `igen-session`
//! ([`igen::session::compile_uncached`]); `run` and `profile` are thin
//! clients over it, and `serve` keeps it resident behind a compile
//! cache for request/response use.
//!
//! The `compile` subcommand name is optional for backward compatibility:
//! `igen-cli input.c` behaves identically.
//!
//! `--metrics` prints the human telemetry summary to stderr after the
//! run; `--trace-out` writes the raw JSON-lines trace. Both need a build
//! with the `telemetry` feature to record anything (a disabled build
//! notes this and produces an empty trace). `report` re-renders one or
//! more trace files — concatenated traces merge, so a compile trace and
//! a run trace can be reported together.

use igen::batch::BatchConfig;
use igen::compiler::{
    verify_bit_identity, BranchPolicy, Config, OptLevel, OutputVec, Precision, VmBridgeError,
};
use igen::interval::{DdI, F64I};
use igen::session::{
    compile_uncached, workload, BindRequest, CompileRequest, CompiledUnit, Flags, SessionElem,
};
use igen::telemetry::{ProfileRec, UnitProfiler};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `--metrics` / `--trace-out` state shared by the compile and run
/// modes: turns recording on up front, then writes/prints on `finish`.
struct Telemetry {
    metrics: bool,
    trace_out: Option<String>,
}

impl Telemetry {
    fn start(metrics: bool, trace_out: Option<String>) -> Telemetry {
        if metrics || trace_out.is_some() {
            if !igen::telemetry::COMPILED_IN {
                eprintln!(
                    "igen-cli: note: built without the `telemetry` feature — \
                     the trace will be empty (rebuild with `--features telemetry`)"
                );
            }
            igen::telemetry::set_recording(true);
        }
        Telemetry { metrics, trace_out }
    }

    /// Stops recording and emits the trace/summary. Fails only on an
    /// unwritable `--trace-out` path.
    fn finish(self) -> Result<(), ExitCode> {
        if !self.metrics && self.trace_out.is_none() {
            return Ok(());
        }
        igen::telemetry::set_recording(false);
        let snap = igen::telemetry::snapshot();
        if let Some(path) = &self.trace_out {
            if let Err(e) = std::fs::write(path, snap.to_jsonl()) {
                eprintln!("igen-cli: cannot write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            eprintln!("wrote {path}");
        }
        if self.metrics {
            eprint!("{}", igen::telemetry::render_report(&snap));
        }
        Ok(())
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: igen-cli [compile] <input.c> [options]\n\
         \n\
         options:\n\
           -o <file>           output path (default: igen_<input>.c)\n\
           --precision <p>     target endpoint precision: f32 | f64 (default) | dd\n\
           --opt-level <n>     IR optimization level 0 | 1 | 2 (default: 0;\n\
                               0 is byte-identical to the unoptimized output)\n\
           --emit-ir           print the optimized interval IR to stdout\n\
           --dump-passes       print the per-pass op-count/cost report to stdout\n\
           --verify-passes     differentially re-execute each pass's before/after\n\
                               IR under the reference interpreter\n\
           --reductions        enable the reduction accuracy transformation\n\
                               (requires `#pragma igen reduce` annotations)\n\
           --join-branches     compute both branches of undecidable ifs and\n\
                               join the results (default: signal exception)\n\
           --sqr-rewrite       lower `v * v` to the dependency-aware square\n\
                               (tighter enclosures when v straddles zero)\n\
           --vectorize <c>     ss (default) | sv | vv: the Fig. 8 register-\n\
                               packing configuration recorded in the output\n\
           --intrinsics        also emit igen_simd.c (interval implementations\n\
                               of the SIMD intrinsics corpus)\n\
           --report            print detected reductions (Polly-style) and\n\
                               warnings to stderr\n\
           --metrics           print the telemetry summary to stderr after the\n\
                               run (needs a `--features telemetry` build)\n\
           --trace-out <file>  write the telemetry trace as JSON lines\n\
         \n\
         run mode (compile once to bytecode, execute over an input batch):\n\
           igen-cli run <input.c> [options]\n\
           --fn <name>         function to compile (default: the only function)\n\
           --batch <n>         batch items (default: 64)\n\
           --threads <n>       worker threads (default: all cores; 0 = all)\n\
           --opt-level <n>     IR optimization level (default: 2)\n\
           --precision <p>     f64 (default) | dd\n\
           --arg <name=INT>    fix an integer parameter (loop bounds, sizes)\n\
           --len <name=N>      elements behind a pointer parameter\n\
           --size <n>          default pointer-parameter length (default: 8)\n\
           --seed <n>          input generator seed\n\
           --emit-bytecode     print the executed instruction dump to stdout\n\
           --no-peephole       skip the bytecode peephole pass (run the raw\n\
                               SSA lowering; same bits, more instructions)\n\
           --metrics, --trace-out as above\n\
         \n\
         profile mode (width-provenance blame report):\n\
           igen-cli profile <input.c> [options]\n\
           --fn, --batch, --threads, --opt-level, --precision, --arg,\n\
           --len, --size, --seed, --no-peephole as in run mode\n\
           --top <n>           sites per blame table (default: 8)\n\
           --trace-out <file>  write the full telemetry trace (profile\n\
                               records included) as JSON lines\n\
           Runs the function over a generated batch with per-instruction\n\
           profiling (needs a `--features telemetry` build), verifies the\n\
           profiled outputs are bit-identical to the unprofiled run, and\n\
           ranks source sites by time share and by width amplification.\n\
         \n\
         serve mode (always-on JSON-lines interval service):\n\
           igen-cli serve [options]\n\
           --socket <path>     serve a Unix socket instead of stdio\n\
           --workers <n>       worker threads (default: all cores; 0 = all)\n\
           --deadline-ms <n>   default per-request queue deadline (0 = none;\n\
                               a request's own deadline_ms overrides)\n\
           --cache-cap <n>     compiled-program cache capacity (default: 64)\n\
           --queue-cap <n>     pending-request bound (default: 64); a full\n\
                               queue answers 'queue full' instead of stalling\n\
           --record            record telemetry spans while serving (trace\n\
                               memory grows unboundedly; prefer the metrics\n\
                               request kind for steady-state observability)\n\
           One JSON request per line on stdin (or per connection on the\n\
           socket), one JSON response per line: kinds compile, run,\n\
           profile, metrics, ping, shutdown. Compiled programs are\n\
           verified once, cached, and shared across requests.\n\
         \n\
         report mode (render recorded traces):\n\
           igen-cli report <trace.jsonl>...   merge + summarize trace files"
    );
    std::process::exit(2)
}

/// `igen-cli report`: parses one or more JSON-lines traces (merging
/// duplicate counters/histograms) and prints the human summary.
fn run_report(args: &[String]) -> ExitCode {
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: igen-cli report <trace.jsonl>...");
        return ExitCode::from(2);
    }
    let mut all = String::new();
    for path in args {
        match std::fs::read_to_string(path) {
            Ok(s) => {
                all.push_str(&s);
                if !s.ends_with('\n') {
                    all.push('\n');
                }
            }
            Err(e) => {
                eprintln!("igen-cli: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match igen::telemetry::Snapshot::from_jsonl(&all) {
        Ok(snap) => {
            print!("{}", igen::telemetry::render_report(&snap));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("igen-cli: bad trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a one-line usage error and exits 2 — the shape every
/// subcommand's diagnostics share.
fn fail2(msg: String) -> ExitCode {
    eprintln!("igen-cli: {msg}");
    ExitCode::from(2)
}

/// Unwraps a flag-parse result, exiting 2 with the one-line message on
/// failure (keeps the `while let` loops below readable).
macro_rules! flag {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => return fail2(msg),
        }
    };
}

/// Compiles `req` through the shared session pipeline, mapping
/// [`igen::session::SessionError`] onto the CLI's historical exit
/// codes: usage errors (bad `--fn`, missing `--arg`) exit 2,
/// compile/lowering failures exit 1 — with byte-identical messages.
fn compile_unit(req: &CompileRequest) -> Result<igen::session::CompiledUnit, ExitCode> {
    match compile_uncached(req, false) {
        Ok(unit) => Ok(unit),
        Err(e) if e.is_usage() => Err(fail2(e.to_string())),
        Err(e) => {
            eprintln!("igen-cli: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The options of `run` and `profile`: the flags both share, plus each
/// mode's own (`run`: `--emit-bytecode`, `--metrics`; `profile`:
/// `--top`), which the other mode rejects as unknown.
struct RunOpts {
    /// Everything but the source text, which [`RunOpts::compile`] reads
    /// from the input path held in `origin`.
    req: CompileRequest,
    batch: usize,
    threads: usize,
    seed: u64,
    trace_out: Option<String>,
    emit_bytecode: bool,
    metrics: bool,
    top: usize,
}

impl RunOpts {
    /// Parses the arguments of `mode` (`"run"` or `"profile"`). An error
    /// is the one-line message for [`fail2`].
    fn parse(mode: &str, args: &[String]) -> Result<RunOpts, String> {
        let run = mode == "run";
        let mut input: Option<String> = None;
        let (mut int_args, mut lens, mut size) = (Vec::new(), Vec::new(), 8);
        let mut o = RunOpts {
            req: CompileRequest::new("", ""),
            batch: 64,
            threads: if run { 0 } else { 4 }, // 0 = all cores
            seed: 0x16e0,
            trace_out: None,
            emit_bytecode: false,
            metrics: false,
            top: 8,
        };
        let mut f = Flags::new(args);
        while let Some(a) = f.next() {
            match a {
                "--fn" => o.req.fn_name = Some(f.value("--fn", "a function name")?.to_string()),
                "--batch" => o.batch = f.parse("--batch", "a count")?,
                "--threads" => o.threads = f.parse("--threads", "a count")?,
                "--size" => size = f.parse("--size", "a count")?,
                "--seed" => o.seed = f.parse("--seed", "an integer")?,
                "--opt-level" => {
                    o.req.cfg.opt_level = match f.next() {
                        Some("0") => OptLevel::O0,
                        Some("1") => OptLevel::O1,
                        Some("2") => OptLevel::O2,
                        _ => return Err("--opt-level needs 0, 1 or 2".into()),
                    };
                }
                "--precision" => {
                    o.req.cfg.precision = match f.next() {
                        Some("f64") => Precision::F64,
                        Some("dd") => Precision::Dd,
                        _ => return Err(format!("{mode} supports --precision f64 or dd")),
                    };
                }
                "--arg" => int_args.push(f.pair("--arg", "name=integer")?),
                "--len" => lens.push(f.pair("--len", "name=count")?),
                "--no-peephole" => o.req.peephole = false,
                "--trace-out" => o.trace_out = Some(f.value("--trace-out", "a path")?.to_string()),
                "--emit-bytecode" if run => o.emit_bytecode = true,
                "--metrics" if run => o.metrics = true,
                "--top" if !run => o.top = f.parse("--top", "a count")?,
                "-h" | "--help" => usage(),
                a if a.starts_with('-') => {
                    return Err(format!("unknown {mode} option '{a}' (see igen-cli --help)"));
                }
                a => {
                    if input.replace(a.to_string()).is_some() {
                        return Err(format!("{mode} takes one input file"));
                    }
                }
            }
        }
        let Some(input) = input else {
            return Err(format!("{mode} needs an input file (see igen-cli --help)"));
        };
        if o.batch == 0 {
            return Err("--batch must be at least 1".into());
        }
        o.req.origin = input;
        o.req.bind = BindRequest::FromParams { int_args, lens, size };
        Ok(o)
    }

    /// Reads the input file and compiles the chosen function through the
    /// shared session pipeline. Returns the source with the unit.
    fn compile(&self) -> Result<(String, igen::session::CompiledUnit), ExitCode> {
        let input = &self.req.origin;
        let src = std::fs::read_to_string(input)
            .map_err(|e| fail2(format!("cannot read {input}: {e}")))?;
        let unit =
            compile_unit(&CompileRequest { source: src.as_str().into(), ..self.req.clone() })?;
        Ok((src, unit))
    }

    /// The one-thread reference configuration and the `--threads` one.
    fn configs(&self) -> (BatchConfig, BatchConfig) {
        let cfg = |threads| BatchConfig::new().with_threads(threads).with_seq_threshold(0);
        (cfg(1), cfg(self.threads))
    }
}

/// `igen-cli run <input.c>`: compiles one function into register
/// bytecode via the `igen-session` pipeline and executes it over a
/// generated input batch on the packed multi-threaded path, pinning the
/// result against both the single-thread run and the differential
/// interpreter before reporting throughput.
fn run_run(args: &[String]) -> ExitCode {
    let o = match RunOpts::parse("run", args) {
        Ok(o) => o,
        Err(msg) => return fail2(msg),
    };
    let tel = Telemetry::start(o.metrics, o.trace_out.clone());
    let unit = match o.compile() {
        Ok((_, unit)) => unit,
        Err(code) => return code,
    };
    // Either lowering path feeds --emit-bytecode the program that
    // actually executes below.
    if o.emit_bytecode {
        print!("{}", unit.batch.program().dump());
    }
    let fn_name = &unit.fn_name;
    let nin = unit.n_inputs();
    let nout = unit.n_outputs();
    let n_insns = unit.batch.program().insns.len();
    let check_items = o.batch.min(8);

    // Execute: differential interpreter check on a prefix, then the
    // 1-thread vs N-thread bit-identity run over the full batch.
    let (seq, par) = o.configs();
    let runs = match o.req.cfg.precision {
        Precision::Dd => checked_runs::<DdI>,
        _ => checked_runs::<F64I>,
    };
    let (t1, tn, same) = match runs(&o, &unit, check_items, &seq, &par) {
        Ok(timed) => timed,
        Err(e) => {
            eprintln!("igen-cli: {fn_name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !same {
        eprintln!("igen-cli: batched result diverged from the single-thread path");
        return ExitCode::FAILURE;
    }
    let eff_threads = par.threads();
    println!(
        "{fn_name}: {n_insns} insns, {nin} inputs -> {nout} outputs per item\n\
         batch={} threads={eff_threads}\n\
         1 thread : {t1:>12.3?}\n\
         {eff_threads} threads: {tn:>12.3?}  ({:.2}x)\n\
         differential interpreter check: ok ({check_items} items)\n\
         results bit-identical across thread counts: yes",
        o.batch,
        t1.as_secs_f64() / tn.as_secs_f64(),
    );
    if let Err(code) = tel.finish() {
        return code;
    }
    ExitCode::SUCCESS
}

/// `igen-cli profile <input.c>`: compiles one function (again via the
/// shared `igen-session` pipeline), runs it over a generated input
/// batch with per-instruction width-provenance profiling, verifies the
/// profiled outputs are bit-identical to the unprofiled run (at 1
/// thread and at `--threads`), and prints a blame report — the source
/// sites costing the most time and amplifying enclosure width the most.
fn run_profile(args: &[String]) -> ExitCode {
    let o = match RunOpts::parse("profile", args) {
        Ok(o) => o,
        Err(msg) => return fail2(msg),
    };
    if !igen::telemetry::COMPILED_IN {
        eprintln!(
            "igen-cli: note: built without the `telemetry` feature — \
             the run is verified but no profile can be recorded \
             (rebuild with `--features telemetry`)"
        );
    }
    let (src, unit) = match o.compile() {
        Ok(compiled) => compiled,
        Err(code) => return code,
    };
    let fn_name = &unit.fn_name;
    let prog = unit.batch.program();
    let known_sites = prog.debug.sites.iter().filter(|s| s.is_known()).count();
    let n_insns = prog.insns.len();

    let (seq, par) = o.configs();
    let runs = match o.req.cfg.precision {
        Precision::Dd => profiled_runs::<DdI>,
        _ => profiled_runs::<F64I>,
    };
    let (same, rows) = runs(&o, &unit, &seq, &par);
    igen::telemetry::set_recording(false);
    if !same {
        eprintln!("igen-cli: profiled run diverged from the unprofiled run");
        return ExitCode::FAILURE;
    }

    if let Some(path) = &o.trace_out {
        if let Err(e) = std::fs::write(path, igen::telemetry::snapshot().to_jsonl()) {
            eprintln!("igen-cli: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    println!(
        "{fn_name}: {n_insns} insns ({known_sites} with source locations), \
         batch={}, profiled outputs bit-identical to unprofiled: yes",
        o.batch
    );
    if rows.is_empty() {
        println!("no profile recorded (telemetry not compiled in)");
        return ExitCode::SUCCESS;
    }
    print!("{}", render_blame(&rows, &src, &o.req.origin, o.top));
    ExitCode::SUCCESS
}

/// `run` at element `T`: the differential interpreter check on the
/// first `check_items` items, then the timed 1-thread and `--threads`
/// runs over the whole batch. Returns both times and whether the two
/// results are bit-identical.
fn checked_runs<T: SessionElem>(
    o: &RunOpts,
    unit: &CompiledUnit,
    check_items: usize,
    seq: &BatchConfig,
    par: &BatchConfig,
) -> Result<(Duration, Duration, bool), VmBridgeError> {
    let soa = workload::<T>(unit, o.batch, o.seed);
    let prefix: Vec<T> = (0..check_items * unit.n_inputs()).map(|i| soa.get(i)).collect();
    verify_bit_identity(&unit.out, unit.batch.program(), &unit.bind, &prefix)?;
    let t = Instant::now();
    let a = unit.batch.run(seq, &soa);
    let t1 = t.elapsed();
    let t = Instant::now();
    let b = unit.batch.run(par, &soa);
    Ok((t1, t.elapsed(), a.bits_eq(&b)))
}

/// `profile` at element `T`: the reference runs first (unprofiled,
/// recording off) at 1 thread and `--threads`, then the profiled
/// sequential run with recording on, which must match both bit for
/// bit. Returns whether all three agree, and the profile rows.
fn profiled_runs<T: SessionElem>(
    o: &RunOpts,
    unit: &CompiledUnit,
    seq: &BatchConfig,
    par: &BatchConfig,
) -> (bool, Vec<ProfileRec>) {
    let soa = workload::<T>(unit, o.batch, o.seed);
    let a = unit.batch.run(seq, &soa);
    let b = unit.batch.run(par, &soa);
    igen::telemetry::set_recording(true);
    let mut prof = UnitProfiler::start(&unit.fn_name, unit.batch.program().insns.len());
    let c = unit.batch.run_profiled(seq, &soa, &mut prof);
    (a.bits_eq(&b) && a.bits_eq(&c), prof.finish())
}

/// `igen-cli serve`: the always-on interval service — a persistent
/// worker pool over the `igen-session` compile cache, speaking the
/// JSON-lines protocol on stdio or a Unix socket (see
/// `igen::session::service`).
fn run_serve(args: &[String]) -> ExitCode {
    use igen::session::{serve_lines, Service, ServiceConfig};

    let mut cfg = ServiceConfig::default();
    let mut socket: Option<String> = None;
    let mut record = false;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a {
            "--socket" => socket = Some(flag!(f.value("--socket", "a path")).to_string()),
            "--workers" => cfg.workers = flag!(f.parse("--workers", "a count")),
            "--deadline-ms" => {
                cfg.deadline_ms = flag!(f.parse("--deadline-ms", "a count in milliseconds"));
            }
            "--cache-cap" => cfg.cache_cap = flag!(f.parse("--cache-cap", "a count")),
            "--queue-cap" => cfg.queue_cap = flag!(f.parse("--queue-cap", "a count")),
            "--record" => record = true,
            "-h" | "--help" => usage(),
            a => return fail2(format!("unknown serve option '{a}' (see igen-cli --help)")),
        }
    }
    if record {
        if !igen::telemetry::COMPILED_IN {
            eprintln!(
                "igen-cli: note: built without the `telemetry` feature — \
                 --record will trace nothing (rebuild with `--features telemetry`)"
            );
        }
        igen::telemetry::set_recording(true);
    }
    let svc = Service::start(cfg);
    let served = match socket {
        #[cfg(unix)]
        Some(path) => igen::session::serve_unix(&svc, std::path::Path::new(&path)),
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("igen-cli: --socket needs a unix platform (use stdio)");
            return ExitCode::from(2);
        }
        None => serve_lines(&svc, std::io::stdin().lock(), std::io::stdout()).map(|_| ()),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("igen-cli: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the ranked blame tables: top sites by execution-time share
/// and by mean width amplification, each naming (and excerpting) the
/// source line it came from.
fn render_blame(rows: &[ProfileRec], src: &str, input: &str, top: usize) -> String {
    use std::fmt::Write as _;
    let lines: Vec<&str> = src.lines().collect();
    let file = std::path::Path::new(input)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.to_string());
    let excerpt = |line: u32| -> String {
        let text =
            if line > 0 { lines.get(line as usize - 1).map_or("", |l| l.trim()) } else { "" };
        let mut t = text.to_string();
        if t.len() > 48 {
            t.truncate(47);
            t.push('…');
        }
        t
    };
    let source = |r: &ProfileRec| -> String {
        if r.line > 0 {
            format!("{file}:{}:{}  {}", r.line, r.col, excerpt(r.line))
        } else {
            "(no source site)".to_string()
        }
    };
    let total_ns: u64 = rows.iter().map(|r| r.total_ns).sum();
    let mut out = String::new();

    let mut by_time: Vec<&ProfileRec> = rows.iter().collect();
    by_time.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(&b.site)));
    let _ = writeln!(out, "hot sites by time:");
    let _ = writeln!(out, "  rank  time%      time  op       count  source");
    for (i, r) in by_time.iter().take(top).enumerate() {
        let share = if total_ns > 0 { 100.0 * r.total_ns as f64 / total_ns as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  {:>4}  {:>4.1}%  {:>7}  {:<7}  {:>5}  {}",
            i + 1,
            share,
            format_ns(r.total_ns),
            r.op,
            r.count,
            source(r),
        );
    }

    let mut by_amp: Vec<&ProfileRec> =
        rows.iter().filter(|r| r.mean_amp_log2().is_some()).collect();
    by_amp.sort_by(|a, b| {
        let (wa, wb) = (a.mean_amp_log2().unwrap_or(0.0), b.mean_amp_log2().unwrap_or(0.0));
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal).then(a.site.cmp(&b.site))
    });
    let _ = writeln!(out, "width amplification (log2 out/in per sample):");
    let _ = writeln!(out, "  rank     amp  op       count  source");
    for (i, r) in by_amp.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "  {:>4}  2^{:+.1}  {:<7}  {:>5}  {}",
            i + 1,
            r.mean_amp_log2().unwrap_or(0.0),
            r.op,
            r.count,
            source(r),
        );
    }
    out
}

/// Compact duration rendering for the blame table (ns → µs → ms).
fn format_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => return run_run(&args[1..]),
        Some("profile") => return run_profile(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("report") => return run_report(&args[1..]),
        // `compile` is the canonical subcommand; the bare form stays accepted.
        Some("compile") => {
            args.remove(0);
        }
        // A bare first argument that cannot be a C input file (no extension,
        // no path separator) is a misspelled subcommand, not an input.
        Some(a) if !a.starts_with('-') && !a.contains('.') && !a.contains('/') => {
            eprintln!(
                "igen-cli: unknown subcommand '{a}' \
                 (expected compile, run, profile, serve or report)"
            );
            return ExitCode::from(2);
        }
        _ => {}
    }
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut cfg = Config::default();
    let mut emit_intrinsics = false;
    let mut report = false;
    let mut emit_ir = false;
    let mut dump_passes = false;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;

    let mut f = Flags::new(&args);
    while let Some(a) = f.next() {
        match a {
            "-o" => output = Some(f.next().unwrap_or_else(|| usage()).to_string()),
            "--precision" => {
                cfg.precision = match f.next() {
                    Some("f32") => Precision::F32,
                    Some("f64") => Precision::F64,
                    Some("dd") => Precision::Dd,
                    _ => usage(),
                };
            }
            "--opt-level" => {
                cfg.opt_level = match f.next() {
                    Some("0") => OptLevel::O0,
                    Some("1") => OptLevel::O1,
                    Some("2") => OptLevel::O2,
                    _ => usage(),
                };
            }
            "--emit-ir" => emit_ir = true,
            "--dump-passes" => dump_passes = true,
            "--verify-passes" => cfg.verify_passes = true,
            "--reductions" => cfg.reductions = true,
            "--sqr-rewrite" => cfg.sqr_rewrite = true,
            "--vectorize" => {
                cfg.vectorize = match f.next() {
                    Some("ss") => OutputVec::Scalar,
                    Some("sv") => OutputVec::Sse,
                    Some("vv") => OutputVec::Avx,
                    _ => usage(),
                };
            }
            "--join-branches" => cfg.branch_policy = BranchPolicy::JoinBranches,
            "--intrinsics" => emit_intrinsics = true,
            "--report" => report = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(f.next().unwrap_or_else(|| usage()).to_string()),
            "-h" | "--help" => usage(),
            a if a.starts_with('-') => {
                eprintln!("igen-cli: unknown option '{a}' (see igen-cli --help)");
                return ExitCode::from(2);
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    usage()
                }
            }
        }
    }
    let Some(input) = input else { usage() };
    let tel = Telemetry::start(metrics, trace_out);

    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("igen-cli: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match igen::compiler::Compiler::new(cfg).compile_str(&src) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("igen-cli: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report {
        for w in &out.warnings {
            eprintln!("warning: {w}");
        }
        for r in &out.reductions {
            eprintln!("{}", r.polly_style_report());
        }
        if !out.intrinsics_used.is_empty() {
            eprintln!("intrinsics used: {}", out.intrinsics_used.join(", "));
        }
    }
    if emit_ir {
        print!("{}", igen::ir::dump_unit(&out.ir));
    }
    if dump_passes {
        print!("{}", out.opt_report.render());
    }
    let out_path = output.unwrap_or_else(|| {
        let stem = std::path::Path::new(&input)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.clone());
        format!("igen_{stem}")
    });
    if let Err(e) = std::fs::write(&out_path, &out.c_source) {
        eprintln!("igen-cli: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");
    // Ship the runtime interface alongside (Fig. 2 line 1 includes it).
    std::fs::write("igen_lib.h", igen::compiler::runtime_header(&cfg)).expect("write igen_lib.h");
    eprintln!("wrote igen_lib.h");

    if emit_intrinsics {
        match igen::compiler::compile_intrinsics(&cfg) {
            Ok(intr) => {
                std::fs::write("igen_simd.c", &intr.c_source).expect("write igen_simd.c");
                eprintln!(
                    "wrote igen_simd.c ({} skipped: {})",
                    intr.skipped.len(),
                    intr.skipped.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
                );
            }
            Err(e) => {
                eprintln!("igen-cli: intrinsics generation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(code) = tel.finish() {
        return code;
    }
    ExitCode::SUCCESS
}
