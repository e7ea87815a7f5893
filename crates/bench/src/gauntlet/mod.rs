//! The cross-library benchmark gauntlet (arXiv 2110.06215 methodology):
//! every interval implementation in the workspace runs through one
//! harness over one shared kernel set, producing a machine-readable
//! `BENCH_<pr>.json` perf/accuracy trajectory that CI gates on.
//!
//! # Architecture
//!
//! * The [`IntervalBackend`] trait lives in `igen_baselines::backend`
//!   and speaks plain f64 endpoint buffers ([`IvalVec`]).
//! * Each backend adapter is a **one-file plug-in** in this module tree
//!   ([`numeric`] covers every `igen_kernels::Numeric` type in one
//!   generic file; [`vm`] runs the kernels' C sources compiled onto the
//!   packed batch engine; [`mpf`] is the 256-bit oracle), registered in
//!   the single [`registry`] table below.
//! * [`run`] times every backend over every [`Kernel`] on identical
//!   inputs and returns a [`Report`]; [`check_regression`] compares two
//!   reports for the CI gate.
//!
//! # Methodology notes
//!
//! Speed is recorded as median ns per interval operation; the headline
//! comparison column is **speedup versus the `naive` baseline on the
//! same run**, which is host-independent and therefore comparable
//! between the committed full-mode baseline and a CI smoke run.
//! Accuracy is the mean relative output width, which is deterministic
//! for fixed inputs: smoke and full mode share sizes and seeds (only the
//! repetition count differs), so the width columns must reproduce
//! exactly across hosts and modes.

pub mod mpf;
pub mod numeric;
pub mod vm;

pub use igen_baselines::backend::{IntervalBackend, IvalVec, Kernel, KernelCase};

use igen_baselines::{BoostI, FilibI, GaolI, NaiveI};
use igen_interval::{DdI, F64I};
use igen_kernels::ffnn::Ffnn;
use igen_kernels::{henon_iops, linalg, workload};
use igen_telemetry::json::{self, Json};

/// The PR index stamped into the default trajectory file name
/// (`results/BENCH_<pr>.json`). Bump when recording a new PR's baseline.
pub const CURRENT_PR: u32 = 26;

/// JSON schema tag; bump on incompatible report changes.
pub const SCHEMA: &str = "igen-bench-gauntlet/v1";

/// Default relative speed-regression tolerance for [`check_regression`]:
/// a packed-path kernel fails when its speedup over `naive` drops below
/// `(1 - tol)` of the baseline's. Generous because the committed
/// baseline and the CI runner are different machines.
pub const DEFAULT_SPEED_TOL: f64 = 0.5;

/// Default relative width-regression tolerance: widths are deterministic
/// for the fixed gauntlet inputs, so any growth is a real accuracy
/// regression; the epsilon only absorbs formatting round-trips.
pub const DEFAULT_WIDTH_TOL: f64 = 1e-6;

/// The single backend table. Adding a library to the gauntlet is one
/// adapter file plus one line here (see README "Benchmark gauntlet").
/// `naive` must stay first: it is the speedup denominator and is always
/// run.
pub fn registry() -> Vec<Box<dyn IntervalBackend>> {
    vec![
        Box::new(numeric::NumericBackend::<NaiveI>::new(
            "naive",
            "switched-rounding-mode emulation, 1-ulp defensive widening",
        )),
        Box::new(numeric::NumericBackend::<BoostI>::new(
            "boost",
            "Boost.Interval-style (lo,hi) pair, nine-case sign-split ops",
        )),
        Box::new(numeric::NumericBackend::<FilibI>::new(
            "filib",
            "Filib++-style containment sets, special-value screening",
        )),
        Box::new(numeric::NumericBackend::<GaolI>::new(
            "gaol",
            "Gaol-style negated-lower pairs behind a precompiled call boundary",
        )),
        Box::new(mpf::MpfBackend),
        Box::new(numeric::NumericBackend::<F64I>::new(
            "igen-f64",
            "IGen production F64I: branch-free negated-lower scalar ops",
        )),
        Box::new(numeric::NumericBackend::<DdI>::new(
            "igen-dd",
            "IGen production DdI: double-double endpoints, ~2^-106 widths",
        )),
        Box::new(vm::VmBackend),
    ]
}

/// Names in [`registry`] order (for CLI help and error messages).
pub fn backend_names() -> Vec<&'static str> {
    registry().iter().map(|b| b.name()).collect()
}

// Shared kernel sizes. Deliberately identical in smoke and full mode so
// the (deterministic) width columns are comparable across runs — the
// modes differ only in repetition count. Sized so the slowest contender
// (the 256-bit mpf oracle) finishes a full run in seconds.
const DOT_N: usize = 64;
const DOT_BATCH: usize = 16;
const MVM_N: usize = 24;
const MVM_BATCH: usize = 8;
const GEMM_N: usize = 16;
const HENON_ITERS: usize = 20;
const HENON_BATCH: usize = 16;
const FFNN_WIDTH: usize = 8;
const FFNN_BATCH: usize = 4;
const FFNN_SEED: u64 = 7;

fn ivals(seed: u64, len: usize, lo: f64, hi: f64) -> IvalVec {
    let mut rng = workload::rng(seed);
    let pts = workload::random_points(&mut rng, len, lo, hi);
    let xs = workload::intervals_1ulp(&pts);
    let mut v = IvalVec::with_capacity(len);
    for x in &xs {
        v.push(x.lo(), x.hi());
    }
    v
}

/// Inner repetition count per timed sample: each median_time sample
/// executes the kernel this many times so a sample lasts long enough
/// (roughly half a millisecond for the fast backends) that scheduler
/// preemptions amortize instead of doubling a sample. Fixed per kernel
/// (not adaptive) so every backend and every run times the same work.
fn inner_iters(kernel: Kernel) -> usize {
    match kernel {
        Kernel::Dot => 64,
        Kernel::Mvm => 8,
        Kernel::Gemm => 8,
        Kernel::Henon => 96,
        Kernel::Ffnn => 1,
    }
}

/// The five shared kernel cases, with deterministic inputs.
pub fn cases() -> Vec<KernelCase> {
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        let (mut n, mut batch, mut iters) = (0, 0, 0);
        let (x, y, w);
        match kernel {
            Kernel::Dot => {
                (n, batch) = (DOT_N, DOT_BATCH);
                x = ivals(0x601, batch * n, -2.0, 2.0);
                y = ivals(0x602, batch * n, -2.0, 2.0);
                w = IvalVec::new();
            }
            Kernel::Mvm => {
                (n, batch) = (MVM_N, MVM_BATCH);
                x = ivals(0x611, batch * n, -2.0, 2.0);
                y = ivals(0x612, batch * n, -2.0, 2.0);
                w = ivals(0x613, n * n, -2.0, 2.0);
            }
            Kernel::Gemm => {
                n = GEMM_N;
                x = ivals(0x621, n * n, -2.0, 2.0);
                y = ivals(0x622, n * n, -2.0, 2.0);
                w = ivals(0x623, n * n, -2.0, 2.0);
            }
            Kernel::Henon => {
                (batch, iters) = (HENON_BATCH, HENON_ITERS);
                // The Hénon attractor basin: orbits from outside diverge.
                x = ivals(0x631, batch, -0.5, 0.5);
                y = ivals(0x632, batch, -0.5, 0.5);
                w = IvalVec::new();
            }
            Kernel::Ffnn => {
                (n, batch) = (FFNN_WIDTH, FFNN_BATCH);
                // Point inputs: the synthetic digits, one per item.
                let mut v = IvalVec::new();
                for b in 0..batch as u64 {
                    for p in Ffnn::synthetic_input(b) {
                        v.push(p, p);
                    }
                }
                x = v;
                y = IvalVec::new();
                w = IvalVec::new();
            }
        }
        out.push(KernelCase { kernel, n, batch, iters, ffnn_seed: FFNN_SEED, x, y, w });
    }
    out
}

/// Interval operations executed by one run of `case` (denominator of the
/// ns/op column).
pub fn case_iops(case: &KernelCase) -> u64 {
    match case.kernel {
        Kernel::Dot => case.batch as u64 * linalg::dot_iops(case.n),
        Kernel::Mvm => case.batch as u64 * 2 * (case.n * case.n) as u64,
        Kernel::Gemm => linalg::gemm_iops(case.n),
        Kernel::Henon => case.batch as u64 * henon_iops(case.iters),
        Kernel::Ffnn => case.batch as u64 * Ffnn::synthetic(case.n, case.ffnn_seed).iops(),
    }
}

/// One backend × kernel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Backend registry name.
    pub backend: String,
    /// Kernel name.
    pub kernel: String,
    /// Whether the backend routes through the packed SIMD path.
    pub packed_path: bool,
    /// Median wall-clock nanoseconds of one kernel run.
    pub median_ns: f64,
    /// `median_ns / case_iops`: nanoseconds per interval operation.
    pub ns_per_op: f64,
    /// `naive_ns_per_op / ns_per_op` on the same run (host-independent).
    pub speedup_vs_naive: f64,
    /// Mean relative width of the output intervals (deterministic).
    pub mean_rel_width: f64,
}

/// A full gauntlet run: the machine-readable `BENCH_<pr>.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// PR index of the trajectory entry.
    pub pr: u32,
    /// `"smoke"` or `"full"` (repetition count only; sizes are shared).
    pub mode: String,
    /// Recording host provenance (`igen_bench::host_line`).
    pub host: String,
    /// Detected SIMD dispatch backend on the recording host.
    pub simd_backend: String,
    /// Whether the recording binary had telemetry/profiling compiled
    /// in. Instrumented timings are tainted — `--check` refuses them as
    /// baselines (absent in pre-flag reports, parsed as `false`).
    pub instrumented: bool,
    /// Median-of-`reps` timing.
    pub reps: usize,
    /// All backend × kernel measurements.
    pub rows: Vec<Row>,
}

/// Runs the gauntlet: `filter` selects backends by registry name (empty
/// = all); the `naive` baseline always runs (it is the speedup
/// denominator). `reps` is the median-of repetition count.
///
/// For every backend×kernel pair, naive and backend samples are
/// *interleaved* (naive, backend, naive, backend, …) and the speedup is
/// the ratio of the two sample medians. Host frequency drift and
/// scheduler noise then hit numerator and denominator alike instead of
/// skewing whichever side happened to run during the bad window — the
/// property the `--check` gate's host-independence rests on.
pub fn run(filter: &[String], reps: usize, mode: &str) -> Report {
    let backends = registry();
    let selected: Vec<&Box<dyn IntervalBackend>> = backends
        .iter()
        .filter(|b| {
            b.name() == "naive" || filter.is_empty() || filter.iter().any(|f| f == b.name())
        })
        .collect();
    let naive = backends.iter().find(|b| b.name() == "naive").expect("naive registered");
    let all_cases = cases();
    let mut rows = Vec::new();
    for case in &all_cases {
        let iops = case_iops(case) as f64;
        let inner = inner_iters(case.kernel);
        let sample = |r: &mut dyn FnMut() -> IvalVec| {
            let t = std::time::Instant::now();
            for _ in 0..inner {
                crate::sink(r());
            }
            t.elapsed().as_secs_f64() * 1e9 / inner as f64
        };
        let median = |mut v: Vec<f64>| -> f64 {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for b in &selected {
            let mut runner = b.instantiate(case);
            let mut naive_runner = naive.instantiate(case);
            // Warm caches on both sides before sampling.
            sample(&mut *naive_runner);
            sample(&mut *runner);
            let mut naive_samples = Vec::with_capacity(reps);
            let mut own_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                naive_samples.push(sample(&mut *naive_runner));
                own_samples.push(sample(&mut *runner));
            }
            let out = runner();
            let median_ns = median(own_samples.clone());
            // The gated ratio uses the sample minima: scheduler noise is
            // strictly additive, so min-of-samples estimates the true
            // cost far more stably than the median on a busy host — and
            // the `--check` gate needs that stability.
            let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            let speedup = if b.name() == "naive" {
                1.0 // the denominator, by definition
            } else {
                min(&naive_samples) / min(&own_samples)
            };
            rows.push(Row {
                backend: b.name().to_string(),
                kernel: case.kernel.name().to_string(),
                packed_path: b.packed_path(),
                median_ns,
                ns_per_op: median_ns / iops,
                speedup_vs_naive: speedup,
                mean_rel_width: out.mean_rel_width(),
            });
        }
    }
    Report {
        pr: CURRENT_PR,
        mode: mode.to_string(),
        host: crate::host_line(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        simd_backend: igen_round::simd::detected_backend().to_string(),
        instrumented: igen_telemetry::COMPILED_IN,
        reps,
        rows,
    }
}

impl Report {
    /// Serializes to the committed `BENCH_<pr>.json` format: one row per
    /// line for reviewable diffs.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", json::escape(SCHEMA)));
        s.push_str(&format!("  \"pr\": {},\n", self.pr));
        s.push_str(&format!("  \"mode\": {},\n", json::escape(&self.mode)));
        s.push_str(&format!("  \"host\": {},\n", json::escape(&self.host)));
        s.push_str(&format!("  \"simd_backend\": {},\n", json::escape(&self.simd_backend)));
        s.push_str(&format!("  \"instrumented\": {},\n", self.instrumented));
        s.push_str(&format!("  \"reps\": {},\n", self.reps));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"backend\": {}, \"kernel\": {}, \"packed_path\": {}, \
                 \"median_ns\": {:.1}, \"ns_per_op\": {:.4}, \"speedup_vs_naive\": {:.4}, \
                 \"mean_rel_width\": {:e}}}{}\n",
                json::escape(&r.backend),
                json::escape(&r.kernel),
                r.packed_path,
                r.median_ns,
                r.ns_per_op,
                r.speedup_vs_naive,
                r.mean_rel_width,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a report written by [`Report::to_json`] (schema-checked).
    pub fn from_json(src: &str) -> Result<Report, String> {
        let v = json::parse(src)?;
        let schema = v.get("schema").and_then(Json::as_str).ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (expected '{SCHEMA}')"));
        }
        let field_str = |k: &str| -> Result<String, String> {
            Ok(v.get(k).and_then(Json::as_str).ok_or_else(|| format!("missing {k}"))?.to_string())
        };
        let rows_json = v.get("rows").and_then(Json::as_arr).ok_or("missing rows")?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, r) in rows_json.iter().enumerate() {
            let str_of = |k: &str| -> Result<String, String> {
                Ok(r.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("row {i}: missing {k}"))?
                    .to_string())
            };
            let num_of = |k: &str| -> Result<f64, String> {
                r.get(k).and_then(Json::as_f64).ok_or_else(|| format!("row {i}: missing {k}"))
            };
            rows.push(Row {
                backend: str_of("backend")?,
                kernel: str_of("kernel")?,
                packed_path: r
                    .get("packed_path")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("row {i}: missing packed_path"))?,
                median_ns: num_of("median_ns")?,
                ns_per_op: num_of("ns_per_op")?,
                speedup_vs_naive: num_of("speedup_vs_naive")?,
                mean_rel_width: num_of("mean_rel_width")?,
            });
        }
        Ok(Report {
            pr: v.get("pr").and_then(Json::as_u64).ok_or("missing pr")? as u32,
            mode: field_str("mode")?,
            host: field_str("host")?,
            simd_backend: field_str("simd_backend")?,
            // Absent before the flag existed: old baselines keep parsing
            // and count as uninstrumented.
            instrumented: v.get("instrumented").and_then(Json::as_bool).unwrap_or(false),
            reps: v.get("reps").and_then(Json::as_u64).ok_or("missing reps")? as usize,
            rows,
        })
    }

    /// Renders the human table (stdout companion of the JSON).
    pub fn render(&self) -> String {
        let mut s = format!(
            "benchmark gauntlet — PR {}, {} mode, {} reps\nhost: {} (simd: {}){}\n\n",
            self.pr,
            self.mode,
            self.reps,
            self.host,
            self.simd_backend,
            if self.instrumented { "\nWARNING: instrumented build — not a baseline" } else { "" },
        );
        s.push_str(&format!(
            "{:<12} {:<7} {:>6} {:>12} {:>10} {:>9}  {}\n",
            "backend", "kernel", "packed", "median_ns", "ns/op", "vs_naive", "mean_rel_width"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<12} {:<7} {:>6} {:>12.0} {:>10.2} {:>8.2}x  {:.3e}\n",
                r.backend,
                r.kernel,
                if r.packed_path { "yes" } else { "no" },
                r.median_ns,
                r.ns_per_op,
                r.speedup_vs_naive,
                r.mean_rel_width,
            ));
        }
        s
    }
}

/// The CI regression gate. Compares `current` against `baseline`:
///
/// * **speed** — every packed-path row of the baseline must exist in
///   `current` with `speedup_vs_naive >= baseline * (1 - speed_tol)`
///   (speedups are same-run ratios, so the check is host-independent);
/// * **accuracy** — every row present in both must satisfy
///   `mean_rel_width <= baseline * (1 + width_tol)` (widths are
///   deterministic for the fixed gauntlet inputs).
///
/// Returns the violations (empty = pass).
pub fn check_regression(
    current: &Report,
    baseline: &Report,
    speed_tol: f64,
    width_tol: f64,
) -> Vec<String> {
    check_regression_with(current, baseline, speed_tol, width_tol, &[])
}

/// [`check_regression`] with per-backend speed-tolerance overrides
/// (`--tol-backend NAME=F`): a backend named in `speed_tol_overrides`
/// is gated at its own tolerance instead of `speed_tol`, so a
/// newly-optimized backend can be pinned tighter than the generous
/// default without squeezing every other contender.
pub fn check_regression_with(
    current: &Report,
    baseline: &Report,
    speed_tol: f64,
    width_tol: f64,
    speed_tol_overrides: &[(String, f64)],
) -> Vec<String> {
    let mut violations = Vec::new();
    // The schema-level form of `perf_recording_allowed`: a baseline
    // recorded by an instrumented binary never gates anything.
    if baseline.instrumented {
        violations.push(
            "baseline was recorded with telemetry/profiling compiled in; \
             re-record it with an uninstrumented build"
                .to_string(),
        );
        return violations;
    }
    let find = |rows: &[Row], backend: &str, kernel: &str| -> Option<Row> {
        rows.iter().find(|r| r.backend == backend && r.kernel == kernel).cloned()
    };
    for base in &baseline.rows {
        let Some(cur) = find(&current.rows, &base.backend, &base.kernel) else {
            if base.packed_path {
                violations.push(format!(
                    "{}/{}: packed-path row missing from the current run",
                    base.backend, base.kernel
                ));
            }
            continue;
        };
        let tol = speed_tol_overrides
            .iter()
            .find(|(name, _)| *name == base.backend)
            .map_or(speed_tol, |(_, t)| *t);
        if base.packed_path && cur.speedup_vs_naive < base.speedup_vs_naive * (1.0 - tol) {
            violations.push(format!(
                "{}/{}: speedup vs naive regressed {:.2}x -> {:.2}x (tolerance {:.0}%)",
                base.backend,
                base.kernel,
                base.speedup_vs_naive,
                cur.speedup_vs_naive,
                tol * 100.0
            ));
        }
        let width_ok = cur.mean_rel_width <= base.mean_rel_width * (1.0 + width_tol)
            || (cur.mean_rel_width.is_nan() && base.mean_rel_width.is_nan());
        if !width_ok {
            violations.push(format!(
                "{}/{}: mean relative width regressed {:e} -> {:e}",
                base.backend, base.kernel, base.mean_rel_width, cur.mean_rel_width
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_required_contenders() {
        let names = backend_names();
        for required in ["naive", "boost", "mpf", "igen-f64", "igen-dd", "compiled-vm"] {
            assert!(names.contains(&required), "missing backend {required}");
        }
        assert_eq!(names[0], "naive", "naive must stay the denominator");
        // One packed-path backend: the kernels' C sources compiled onto
        // the batch engine's SoA lanes.
        let packed: Vec<&str> =
            registry().iter().filter(|b| b.packed_path()).map(|b| b.name()).collect();
        assert_eq!(packed, ["compiled-vm"]);
    }

    #[test]
    fn cases_cover_every_kernel() {
        let cs = cases();
        assert_eq!(cs.len(), Kernel::ALL.len());
        for (c, k) in cs.iter().zip(Kernel::ALL) {
            assert_eq!(c.kernel, k);
            assert!(case_iops(c) > 0);
        }
    }

    fn tiny_report() -> Report {
        Report {
            pr: 6,
            mode: "full".into(),
            host: "host: 1 cores, x86_64, linux".into(),
            simd_backend: "avx2_fma".into(),
            instrumented: false,
            reps: 30,
            rows: vec![
                Row {
                    backend: "naive".into(),
                    kernel: "dot".into(),
                    packed_path: false,
                    median_ns: 1000.0,
                    ns_per_op: 10.0,
                    speedup_vs_naive: 1.0,
                    mean_rel_width: 1.5e-15,
                },
                Row {
                    backend: "compiled-vm".into(),
                    kernel: "dot".into(),
                    packed_path: true,
                    median_ns: 100.0,
                    ns_per_op: 1.0,
                    speedup_vs_naive: 10.0,
                    mean_rel_width: 2.5e-16,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless_enough() {
        let r = tiny_report();
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.pr, r.pr);
        assert_eq!(parsed.rows.len(), r.rows.len());
        assert_eq!(parsed.rows[1].backend, "compiled-vm");
        assert!(parsed.rows[1].packed_path);
        assert!((parsed.rows[1].speedup_vs_naive - 10.0).abs() < 1e-9);
        assert!((parsed.rows[1].mean_rel_width - 2.5e-16).abs() < 1e-22);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        assert!(Report::from_json("{\"schema\": \"something-else\"}").is_err());
        assert!(Report::from_json("not json").is_err());
    }

    #[test]
    fn check_passes_on_identical_reports() {
        let r = tiny_report();
        assert!(check_regression(&r, &r, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL).is_empty());
    }

    #[test]
    fn check_fails_on_synthetically_slowed_packed_backend() {
        let base = tiny_report();
        let mut slow = base.clone();
        // The packed backend lost most of its speedup (e.g. SIMD path
        // silently fell back to scalar): 10x -> 3x.
        slow.rows[1].speedup_vs_naive = 3.0;
        let v = check_regression(&slow, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("compiled-vm/dot"), "{v:?}");
        assert!(v[0].contains("speedup"), "{v:?}");
    }

    #[test]
    fn check_tolerates_noise_within_tolerance() {
        let base = tiny_report();
        let mut noisy = base.clone();
        noisy.rows[1].speedup_vs_naive = 6.0; // 40% drop < 50% tolerance
        assert!(check_regression(&noisy, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL).is_empty());
    }

    #[test]
    fn per_backend_tolerance_overrides_the_default() {
        let base = tiny_report();
        let mut drift = base.clone();
        drift.rows[1].speedup_vs_naive = 8.5; // 15% drop
                                              // Default 50% tolerance passes; a 10% override on the backend fails.
        assert!(check_regression(&drift, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL).is_empty());
        let overrides = vec![("compiled-vm".to_string(), 0.10)];
        let v =
            check_regression_with(&drift, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL, &overrides);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("tolerance 10%"), "{v:?}");
        // An override for a different backend leaves the row at the default.
        let other = vec![("igen-f64".to_string(), 0.10)];
        assert!(check_regression_with(&drift, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL, &other)
            .is_empty());
    }

    #[test]
    fn check_fails_on_width_regression_and_missing_packed_row() {
        let base = tiny_report();
        let mut wide = base.clone();
        wide.rows[0].mean_rel_width *= 2.0; // accuracy regression on any row
        let v = check_regression(&wide, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("width"), "{v:?}");

        let mut missing = base.clone();
        missing.rows.remove(1);
        let v = check_regression(&missing, &base, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing"), "{v:?}");
    }

    #[test]
    fn instrumented_flag_roundtrips_and_defaults_to_false() {
        let mut r = tiny_report();
        r.instrumented = true;
        let json = r.to_json();
        assert!(json.contains("\"instrumented\": true"), "{json}");
        assert!(Report::from_json(&json).unwrap().instrumented);
        // A pre-flag baseline (field absent) still parses, as clean.
        let legacy = json.replace("  \"instrumented\": true,\n", "");
        assert!(!legacy.contains("instrumented"));
        assert!(!Report::from_json(&legacy).unwrap().instrumented);
    }

    #[test]
    fn check_refuses_instrumented_baselines() {
        let current = tiny_report();
        let mut tainted = tiny_report();
        tainted.instrumented = true;
        let v = check_regression(&current, &tainted, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("instrumented"), "{v:?}");
        // An instrumented *current* run can still be gated — only the
        // baseline side is a recording.
        assert!(
            check_regression(&tainted, &current, DEFAULT_SPEED_TOL, DEFAULT_WIDTH_TOL).is_empty()
        );
    }
}
