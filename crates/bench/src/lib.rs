//! `igen-bench`: the experiment harness regenerating every table and
//! figure of the paper's evaluation (Section VII). See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! Each binary prints the same rows/series the paper reports and writes
//! CSV files under `results/`, mirroring the artifact's
//! `run_benchmarks.py` outputs. Absolute numbers differ from the paper's
//! Xeon E-2176M (the rounding substrate here is software EFTs); the
//! comparisons reproduce the paper's *shapes*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod gauntlet;
pub mod trajectory;

use std::time::{Duration, Instant};

/// Nominal clock of the paper's machine (2.7 GHz Xeon E-2176M), used to
/// convert measured nanoseconds into "per cycle" figures comparable to
/// Fig. 8/9.
pub const NOMINAL_GHZ: f64 = 2.7;

/// Median-of-`reps` wall-clock timing of `f` (the paper: "every
/// measurement was repeated 30 times … and the median of the runtime is
/// taken"; the default here is smaller to keep the harness fast — pass
/// `--full` to the binaries for 30).
pub fn median_time<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    assert!(reps >= 1);
    // Warm cache (the paper: "all tests are run with warm cache").
    f();
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Interval-ops-per-cycle estimate at the nominal clock.
pub fn iops_per_cycle(iops: u64, t: Duration) -> f64 {
    let cycles = t.as_secs_f64() * NOMINAL_GHZ * 1e9;
    iops as f64 / cycles
}

/// Writes a CSV file under `results/` (created on demand).
///
/// # Panics
///
/// Panics on I/O failure (harness context).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    write_csv_with_comments(name, &[], header, rows);
}

/// [`write_csv`] with leading `# `-prefixed comment lines (provenance
/// notes such as the recording host) above the column header.
///
/// # Panics
///
/// Panics on I/O failure (harness context).
pub fn write_csv_with_comments(name: &str, comments: &[String], header: &str, rows: &[String]) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(name);
    let mut out = String::new();
    for c in comments {
        out.push_str("# ");
        out.push_str(c);
        out.push('\n');
    }
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(&path, out).expect("write csv");
    eprintln!("wrote {}", path.display());
}

/// One-line description of the recording host for CSV provenance
/// comments: core count, architecture and OS.
pub fn host_line(cores: usize) -> String {
    format!("host: {cores} cores, {}, {}", std::env::consts::ARCH, std::env::consts::OS)
}

/// Whether recording performance CSVs is meaningful in this build.
///
/// The committed `results/*.csv` numbers measure the *uninstrumented*
/// hot paths; a build with the `telemetry` feature unified in carries
/// live counters/histograms in the kernels, so recording from it would
/// silently mix that tax into the perf record. The benches still *run*
/// (timings print either way) — only the CSV write is skipped, with an
/// explanation.
pub fn perf_recording_allowed() -> bool {
    if igen_telemetry::COMPILED_IN {
        eprintln!(
            "igen-bench: the `telemetry` feature is compiled in; skipping CSV \
             recording so instrumented timings never land in results/ \
             (re-run from a default-features build to record)"
        );
        return false;
    }
    true
}

/// True when `--full` was passed: paper-size sweeps and 30 repetitions.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Repetition count for the current mode.
pub fn reps() -> usize {
    if full_mode() {
        30
    } else {
        5
    }
}

/// A black-box sink preventing the optimizer from discarding results.
pub fn sink<T>(v: T) -> T {
    std::hint::black_box(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_positive_and_bounded() {
        let t = median_time(5, || {
            let mut s = 0u64;
            for i in 0..1000u64 {
                s = s.wrapping_add(std::hint::black_box(i));
            }
            let _ = std::hint::black_box(s);
        });
        assert!(t.as_nanos() > 0);
        assert!(t.as_secs() < 1);
    }

    #[test]
    fn iops_per_cycle_math() {
        // 2.7e9 ops in one second at 2.7 GHz = 1 op/cycle.
        let ipc = iops_per_cycle(2_700_000_000, Duration::from_secs(1));
        assert!((ipc - 1.0).abs() < 1e-12);
        let ipc = iops_per_cycle(2_700_000_000, Duration::from_millis(500));
        assert!((ipc - 2.0).abs() < 1e-12);
    }

    /// The CSV tests switch the process-wide working directory, so they
    /// must not interleave.
    static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn csv_written_under_results() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("igen_bench_test_csv");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        write_csv("unit_test.csv", "a,b", &["1,2".into(), "3,4".into()]);
        let body = std::fs::read_to_string("results/unit_test.csv").unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        std::env::set_current_dir(old).unwrap();
    }

    #[test]
    fn csv_comments_precede_header() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("igen_bench_test_csv_comments");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        write_csv_with_comments("unit_test2.csv", &[host_line(4)], "a,b", &["1,2".into()]);
        let body = std::fs::read_to_string("results/unit_test2.csv").unwrap();
        std::env::set_current_dir(old).unwrap();
        assert!(body.starts_with("# host: 4 cores, "), "{body}");
        assert!(body.ends_with("a,b\n1,2\n"), "{body}");
    }

    #[test]
    fn perf_recording_tracks_telemetry_feature() {
        // Default builds record; builds with telemetry unified in don't.
        assert_eq!(perf_recording_allowed(), !igen_telemetry::COMPILED_IN);
    }

    #[test]
    fn sink_is_identity() {
        assert_eq!(sink(42), 42);
        assert_eq!(sink("x"), "x");
    }
}
