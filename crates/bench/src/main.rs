//! `igen-bench` — the benchmark-suite front door. Today it hosts the
//! cross-library gauntlet; the paper's per-figure binaries remain
//! separate (`cargo run -p igen-bench --bin fig8_scalar_perf`, …).
//!
//! ```text
//! igen-bench gauntlet [--full] [--backends a,b,...] [--out <path>]
//!                     [--pr N] [--check <baseline.json>] [--tol F]
//!                     [--tol-width F] [--tol-backend NAME=F]...
//! igen-bench trajectory [--dir <results>] [--out <TRAJECTORY.md>]
//!                       [--csv <TRAJECTORY.csv>]
//! ```
//!
//! `gauntlet` runs every registered interval backend through the shared
//! dot/mvm/gemm/henon/ffnn kernel set and writes the machine-readable
//! trajectory JSON (schema `igen-bench-gauntlet/v1`). `--tol-backend`
//! (repeatable) pins a named backend to its own speed tolerance,
//! tighter or looser than the global `--tol`.
//!
//! `trajectory` merges every committed `results/BENCH_<pr>.json` into
//! the reviewable `results/TRAJECTORY.md` pivot (speedup-vs-naive per
//! backend × kernel × PR) plus the flat `results/TRAJECTORY.csv`.
//!
//! Output-path policy: with an explicit `--out` the file goes exactly
//! there. Otherwise the default is `results/BENCH_<pr>.json` only for a
//! full-mode run from a telemetry-free build
//! (`igen_bench::perf_recording_allowed`); smoke runs default to
//! `./BENCH_<pr>.json` in the working directory, so a CI smoke job can
//! never overwrite a committed full-mode baseline.
//!
//! `--check <baseline.json>` additionally compares the fresh run against
//! a recorded baseline and exits nonzero on regression: packed-path
//! speedup-vs-naive ratios (host-independent) within `--tol` (default
//! 0.5 = 50% slack) and deterministic mean relative widths within
//! `--tol-width` (default 1e-6).

use igen_bench::gauntlet;
use igen_session::Flags;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: igen-bench gauntlet [--full] [--backends a,b,...] [--out <path>]\n\
     \x20                          [--pr N] [--check <baseline.json>] [--tol F] [--tol-width F]\n\
     \x20                          [--tol-backend NAME=F]...\n\
     \x20      igen-bench trajectory [--dir <results>] [--out <TRAJECTORY.md>] [--csv <TRAJECTORY.csv>]"
}

/// Prints the one-line usage error every subcommand shares and exits 2.
fn fail2(msg: String) -> ExitCode {
    eprintln!("igen-bench: {msg}");
    ExitCode::from(2)
}

/// Unwraps a flag-parse result, exiting 2 with the one-line message on
/// failure.
macro_rules! flag {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => return fail2(msg),
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gauntlet") => run_gauntlet(&args[1..]),
        Some("trajectory") => run_trajectory(&args[1..]),
        Some(cmd) => {
            eprintln!("igen-bench: unknown subcommand '{cmd}' (expected gauntlet or trajectory)");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run_trajectory(args: &[String]) -> ExitCode {
    let mut dir = "results".to_string();
    let mut out = "results/TRAJECTORY.md".to_string();
    let mut csv = "results/TRAJECTORY.csv".to_string();
    let mut f = Flags::new(args);
    while let Some(arg) = f.next() {
        match arg {
            "--dir" => dir = flag!(f.value("--dir", "a value")).to_string(),
            "--out" => out = flag!(f.value("--out", "a value")).to_string(),
            "--csv" => csv = flag!(f.value("--csv", "a value")).to_string(),
            other => {
                eprintln!("igen-bench: unknown option '{other}' for trajectory");
                eprintln!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let reports = match igen_bench::trajectory::collect(std::path::Path::new(&dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("igen-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reports.is_empty() {
        eprintln!("igen-bench: no BENCH_<pr>.json reports under {dir}");
        return ExitCode::FAILURE;
    }
    let md = igen_bench::trajectory::render_markdown(&reports);
    let flat = igen_bench::trajectory::render_csv(&reports);
    for (path, body) in [(&out, &md), (&csv, &flat)] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("igen-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    println!("merged {} reports (PRs: {})", reports.len(), {
        let prs: Vec<String> = reports.iter().map(|r| r.pr.to_string()).collect();
        prs.join(", ")
    });
    ExitCode::SUCCESS
}

fn run_gauntlet(args: &[String]) -> ExitCode {
    let mut backends: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut pr = gauntlet::CURRENT_PR;
    let mut check: Option<String> = None;
    let mut tol = gauntlet::DEFAULT_SPEED_TOL;
    let mut tol_width = gauntlet::DEFAULT_WIDTH_TOL;
    let mut tol_backends: Vec<(String, f64)> = Vec::new();

    let mut f = Flags::new(args);
    while let Some(arg) = f.next() {
        match arg {
            "--full" => {} // read by igen_bench::full_mode()
            "--backends" => {
                let v = flag!(f.value("--backends", "a value"));
                backends.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--out" => out = Some(flag!(f.value("--out", "a value")).to_string()),
            "--pr" => match flag!(f.value("--pr", "a value")).parse::<u32>() {
                Ok(v) => pr = v,
                Err(_) => return fail2("--pr needs an unsigned integer".into()),
            },
            "--check" => check = Some(flag!(f.value("--check", "a value")).to_string()),
            "--tol" => match flag!(f.value("--tol", "a value")).parse::<f64>() {
                Ok(v) => tol = v,
                Err(_) => return fail2("--tol needs a number".into()),
            },
            "--tol-width" => match flag!(f.value("--tol-width", "a value")).parse::<f64>() {
                Ok(v) => tol_width = v,
                Err(_) => return fail2("--tol-width needs a number".into()),
            },
            "--tol-backend" => {
                let v = flag!(f.value("--tol-backend", "a value"));
                match v.split_once('=').map(|(n, t)| (n.to_string(), t.parse::<f64>())) {
                    Some((name, Ok(t))) if !name.is_empty() => tol_backends.push((name, t)),
                    _ => {
                        return fail2("--tol-backend needs NAME=F (e.g. compiled-vm=0.25)".into());
                    }
                }
            }
            other => {
                eprintln!("igen-bench: unknown option '{other}' for gauntlet");
                eprintln!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let known = gauntlet::backend_names();
    for b in &backends {
        if !known.contains(&b.as_str()) {
            eprintln!("igen-bench: unknown backend '{b}' (expected one of: {})", known.join(", "));
            return ExitCode::from(2);
        }
    }

    let full = igen_bench::full_mode();
    let mode = if full { "full" } else { "smoke" };
    // The CI gate consumes smoke numbers, so smoke gets a wider median
    // window than the figure-regenerating binaries' quick mode.
    let reps = igen_bench::reps().max(9);
    let mut report = gauntlet::run(&backends, reps, mode);
    report.pr = pr;
    print!("{}", report.render());

    let default_name = format!("BENCH_{pr}.json");
    let path = match out {
        Some(p) => p,
        // Only a full-mode, telemetry-free run may write the committed
        // trajectory under results/; smoke timings land in the cwd.
        None if full && igen_bench::perf_recording_allowed() => {
            format!("results/{default_name}")
        }
        None => default_name,
    };
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("igen-bench: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("igen-bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {path}");

    if let Some(baseline_path) = check {
        let src = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("igen-bench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match gauntlet::Report::from_json(&src) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("igen-bench: bad baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations =
            gauntlet::check_regression_with(&report, &baseline, tol, tol_width, &tol_backends);
        if violations.is_empty() {
            let overrides = if tol_backends.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> =
                    tol_backends.iter().map(|(n, t)| format!("{n}={t}")).collect();
                format!(", overrides {}", parts.join(","))
            };
            println!(
                "check vs {baseline_path}: OK ({} baseline rows, tol {tol}, tol-width {tol_width}{overrides})",
                baseline.rows.len()
            );
        } else {
            eprintln!("igen-bench: regression vs {baseline_path}:");
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
