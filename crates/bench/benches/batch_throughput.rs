//! Thread-scaling of the `igen-batch` evaluation engine: the dot, mvm
//! and Hénon kernels' C sources compiled into `BatchProgram`
//! (`igen_bench::compiled`) at 1 → N worker threads.
//!
//! Besides the criterion groups, a plain run (without `--test`) records
//! `results/batch_throughput.csv` with the median time, throughput and
//! speedup-vs-1-thread per kernel and thread count, plus the host's core
//! count — on a single-core host (such as the container this repo is
//! developed in) the speedup column is honestly ~1.0; the batch path's
//! scaling claim is only observable on multi-core hosts.

use criterion::{black_box, Criterion};
use igen_batch::{available_threads, BatchConfig, BatchF64I};
use igen_bench::{compiled, median_time};
use igen_core::Precision;
use igen_interval::F64I;
use igen_kernels::workload;
use igen_session::CompiledUnit;
use std::sync::Arc;

/// Batched problem shapes kept small enough that the full sweep stays in
/// CI-smoke territory.
const DOT_BATCH: usize = 512;
const DOT_N: usize = 256;
const MVM_BATCH: usize = 64;
const MVM_N: usize = 96;
const HENON_BATCH: usize = 4096;
const HENON_ITERS: usize = 50;

fn thread_counts() -> Vec<usize> {
    let max = available_threads();
    let mut ts = vec![1, 2, 4, max];
    ts.sort_unstable();
    ts.dedup();
    ts.retain(|&t| t <= max.max(4)); // keep 2 and 4 even on small hosts: oversubscription is part of the record
    ts
}

fn cfg(threads: usize) -> BatchConfig {
    BatchConfig::new().with_threads(threads).with_seq_threshold(0)
}

fn sample(seed: u64, len: usize) -> Vec<F64I> {
    let mut rng = workload::rng(seed);
    workload::intervals_1ulp(&workload::random_points(&mut rng, len, -2.0, 2.0))
}

/// The dot, mvm and Hénon input batch of `x` and `y` at `n` per item.
fn pairs(n: usize, x: &[F64I], y: &[F64I]) -> BatchF64I {
    BatchF64I::from_intervals(&compiled::zip_items(n, x, y))
}

/// The three swept kernels: name, batch items, interval ops per run,
/// compiled program and its input batch.
fn kernels() -> Vec<(&'static str, usize, u64, Arc<CompiledUnit>, BatchF64I)> {
    let f64 = Precision::F64;
    vec![
        (
            "dot",
            DOT_BATCH,
            DOT_BATCH as u64 * igen_kernels::linalg::dot_iops(DOT_N),
            compiled::dot(DOT_N, f64),
            pairs(DOT_N, &sample(1, DOT_BATCH * DOT_N), &sample(2, DOT_BATCH * DOT_N)),
        ),
        (
            "mvm",
            MVM_BATCH,
            MVM_BATCH as u64 * 2 * (MVM_N * MVM_N) as u64,
            compiled::mvm(&sample(3, MVM_N * MVM_N), MVM_N, f64),
            pairs(MVM_N, &sample(4, MVM_BATCH * MVM_N), &sample(5, MVM_BATCH * MVM_N)),
        ),
        (
            "henon",
            HENON_BATCH,
            HENON_BATCH as u64 * igen_kernels::henon_iops(HENON_ITERS),
            compiled::henon(HENON_ITERS, f64),
            pairs(1, &sample(6, HENON_BATCH), &sample(7, HENON_BATCH)),
        ),
    ]
}

fn bench_scaling(c: &mut Criterion) {
    for (name, _, _, unit, inputs) in kernels() {
        let mut g = c.benchmark_group(&format!("batch_{name}"));
        for t in thread_counts() {
            let cfg = cfg(t);
            g.bench_function(&format!("threads/{t}"), |b| {
                b.iter(|| unit.batch.run(black_box(&cfg), black_box(&inputs)))
            });
        }
        g.finish();
    }
}

/// Records the scaling sweep to `results/batch_throughput.csv` at the
/// workspace root (cargo runs benches from the package directory, so
/// re-anchor first to match where the harness binaries write).
fn record_csv() {
    if let Some(root) = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        let _ = std::env::set_current_dir(root);
    }
    let mut rows = Vec::new();
    let cores = available_threads();
    for (name, batch, iops, unit, inputs) in kernels() {
        let mut t1 = None;
        for t in thread_counts() {
            let cfg = cfg(t);
            let med = median_time(igen_bench::reps(), || {
                black_box(unit.batch.run(&cfg, &inputs));
            });
            let secs = med.as_secs_f64();
            let t1s = *t1.get_or_insert(secs);
            rows.push(format!(
                "{name},{t},{cores},{batch},{:.0},{:.3e},{:.3}",
                secs * 1e9,
                iops as f64 / secs,
                t1s / secs
            ));
        }
    }
    igen_bench::write_csv_with_comments(
        "batch_throughput.csv",
        &[igen_bench::host_line(cores)],
        "kernel,threads,host_cores,batch,median_ns,iops_per_sec,speedup_vs_1thread",
        &rows,
    );
}

fn main() {
    let mut c = Criterion::default().sample_size(10);
    bench_scaling(&mut c);
    // CI smoke (`--test`) only checks the benches run; skip the sweep.
    // Telemetry-instrumented builds never record (zero-tax guard).
    if !std::env::args().any(|a| a == "--test") && igen_bench::perf_recording_allowed() {
        record_csv();
    }
}
