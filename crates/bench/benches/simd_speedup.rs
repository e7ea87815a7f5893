//! Scalar vs. lane-portable vs. explicit-SIMD comparison for the
//! interval runtime.
//!
//! Three variants per measurement:
//!
//! - `scalar`: the scalar `F64I`/`DdI` elements (the bit-identity
//!   reference);
//! - `lane_portable`: the `F64Ix4`/`DdIx4` lane types with the backend
//!   forced to `Portable`;
//! - `simd`: the same lane types on the host's detected backend (the
//!   packed `igen_round::simd` kernels on AVX2+FMA).
//!
//! An op row times what the VM runs for one instruction over a bank:
//! one `LaneOps::sweep` call of the op over `OP_N` intervals per source
//! (`OP_N` slots at the scalar element, `OP_N / 4` groups at the lane
//! type), one row per `SweepOp`, at f64 and at dd (`dd_` rows, 1-ulp dd
//! inputs with nonzero low words). The first two sources are 1-ulp
//! intervals on [0.5, 2], so the unary ops and the divisor stay on the
//! packed hot paths; the accumulator is on [-2, 2]. The `_diverged`
//! rows time add and mul again with lane 0 of every group of both
//! sources diverged, as a Hénon batch is once some orbits leave the
//! finite range: `[-inf, -MAX]` at f64 and `(NaN, NaN)` at dd.
//!
//! A plain run (without `--test`) records `results/simd_speedup.csv`
//! with per-op and per-paper-kernel rows: every timing is the median of
//! `reps` runs, with its first and third quartile beside it. Each kernel
//! row times the scalar `F64I` loop against the kernel's C source
//! compiled into `BatchProgram` (`igen_bench::compiled`), which runs
//! four items per packed register — `gemm` batches the mvm program over
//! the columns of `C` — so the `packed_path` column is `true` across
//! the board.

use criterion::{black_box, Criterion};
use igen_batch::{available_threads, BatchConfig, BatchF64I};
use igen_bench::{compiled, host_line, quartile_times, write_csv_with_comments};
use igen_core::Precision;
use igen_interval::{DdI, DdIx4, F64Ix4, LaneOps, SweepOp, F64I};
use igen_kernels::ffnn::Ffnn;
use igen_kernels::{henon_from, linalg, workload};
use igen_round::simd::{self, Backend};
use std::time::Duration;

/// Intervals per source of an op measurement (multiple of 4).
const OP_N: usize = 4096;
const DOT_BATCH: usize = 256;
const DOT_N: usize = 256;
const MVM_BATCH: usize = 32;
const MVM_N: usize = 64;
const GEMM_N: usize = 48;
const HENON_BATCH: usize = 2048;
const HENON_ITERS: usize = 50;
const FFNN_WIDTH: usize = 32;
const FFNN_INPUTS: usize = 64;

fn cfg() -> BatchConfig {
    // Single worker: this bench isolates SIMD speedup, not thread scaling.
    BatchConfig::new().with_threads(1)
}

fn sample(seed: u64, len: usize) -> Vec<F64I> {
    let mut rng = workload::rng(seed);
    workload::intervals_1ulp(&workload::random_points(&mut rng, len, -2.0, 2.0))
}

/// Zero-free positive intervals: square roots and divisors that stay on
/// the packed path rather than the per-lane fallbacks.
fn sample_positive(seed: u64, len: usize) -> Vec<F64I> {
    let mut rng = workload::rng(seed);
    workload::intervals_1ulp(&workload::random_points(&mut rng, len, 0.5, 2.0))
}

/// Double-double intervals of width `ulp(x_lo)` on `[lo, hi)` (the
/// paper's dd inputs).
fn dd_sample(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<DdI> {
    workload::dd_intervals_1ulp(&mut workload::rng(seed), len, lo, hi)
}

/// A bank of four registers of `OP_N / L::LANES` groups: the sources
/// `srcs` packed `L::LANES` to a group, then the destination. Returns
/// the bank and its groups per register.
fn bank<L: LaneOps>(srcs: [&[L::Elem]; 3]) -> (Vec<L>, usize) {
    let n = OP_N / L::LANES;
    let mut bank: Vec<L> = srcs
        .iter()
        .flat_map(|s| s.chunks_exact(L::LANES).map(|c| L::from_lanes_fn(|l| c[l])))
        .collect();
    bank.resize(4 * n, L::default());
    (bank, n)
}

/// One `L::sweep` of `op` from the three source registers into the
/// fourth.
fn sweep<L: LaneOps>(op: SweepOp, bank: &mut [L], n: usize) {
    L::sweep(op, black_box(bank), n, 3 * n, [0, n, 2 * n]);
}

/// Quartiles of `f` with the dispatch pinned to `bk` (clamped to the
/// host).
fn timed_with_backend(bk: Backend, reps: usize, f: impl FnMut()) -> [Duration; 3] {
    simd::force_backend(Some(bk));
    let t = quartile_times(reps, f);
    simd::force_backend(None);
    t
}

/// One measurement's three variants, each as first quartile, median
/// and third quartile.
struct Row {
    name: String,
    packed_path: bool,
    scalar: [Duration; 3],
    lane_portable: [Duration; 3],
    simd: [Duration; 3],
}

/// The op row of `op` at lane type `L` over the sources `srcs`.
fn op_row<L: LaneOps>(name: String, op: SweepOp, reps: usize, srcs: [&[L::Elem]; 3]) -> Row
where
    L::Elem: LaneOps<Elem = L::Elem>,
{
    let (mut scalar, n1) = bank::<L::Elem>(srcs);
    let (mut lanes, n) = bank::<L>(srcs);
    Row {
        name,
        packed_path: true,
        scalar: quartile_times(reps, || sweep(op, &mut scalar, n1)),
        lane_portable: timed_with_backend(Backend::Portable, reps, || sweep(op, &mut lanes, n)),
        simd: timed_with_backend(simd::detected_backend(), reps, || sweep(op, &mut lanes, n)),
    }
}

/// `src` with lane 0 of every group replaced by `bad`.
fn diverged<T: Copy>(src: &[T], bad: T) -> Vec<T> {
    src.iter().enumerate().map(|(i, &x)| if i % 4 == 0 { bad } else { x }).collect()
}

fn op_rows(reps: usize) -> Vec<Row> {
    let (a, b, c) = (sample_positive(11, OP_N), sample_positive(12, OP_N), sample(13, OP_N));
    let (da, db) = (dd_sample(14, OP_N, 0.5, 2.0), dd_sample(15, OP_N, 0.5, 2.0));
    let dc = dd_sample(16, OP_N, -2.0, 2.0);
    // Rows are named by the op in lower case: `add`, `pow(3)`, `dd_muladd`.
    let name = |op: SweepOp| format!("{op:?}").to_lowercase();
    let f64_rows = SweepOp::ALL.map(|op| op_row::<F64Ix4>(name(op), op, reps, [&a, &b, &c]));
    let dd_rows = SweepOp::ALL
        .map(|op| op_row::<DdIx4>(format!("dd_{}", name(op)), op, reps, [&da, &db, &dc]));
    let orbit_end = F64I::new(f64::NEG_INFINITY, -f64::MAX).expect("ordered");
    let (xa, xb) = (diverged(&a, orbit_end), diverged(&b, orbit_end));
    let (dxa, dxb) = (diverged(&da, DdI::nai()), diverged(&db, DdI::nai()));
    let diverged_rows = [SweepOp::Add, SweepOp::Mul].into_iter().flat_map(|op| {
        [
            op_row::<F64Ix4>(format!("{}_diverged", name(op)), op, reps, [&xa, &xb, &c]),
            op_row::<DdIx4>(format!("dd_{}_diverged", name(op)), op, reps, [&dxa, &dxb, &dc]),
        ]
    });
    f64_rows.into_iter().chain(dd_rows).chain(diverged_rows).collect()
}

/// A kernel row: `scalar` is the plain `F64I` loop, `lane` the compiled
/// kernel through `BatchProgram`, timed under Portable and under the
/// detected backend.
fn kernel_row(name: &str, reps: usize, scalar: impl FnMut(), mut lane: impl FnMut()) -> Row {
    Row {
        name: name.into(),
        packed_path: true,
        scalar: quartile_times(reps, scalar),
        lane_portable: timed_with_backend(Backend::Portable, reps, &mut lane),
        simd: timed_with_backend(simd::detected_backend(), reps, &mut lane),
    }
}

fn kernel_rows(reps: usize) -> Vec<Row> {
    let cfg = cfg();
    let f64 = Precision::F64;

    let xs = sample(21, DOT_BATCH * DOT_N);
    let ys = sample(22, DOT_BATCH * DOT_N);
    let unit = compiled::dot(DOT_N, f64);
    let inputs = BatchF64I::from_intervals(&compiled::zip_items(DOT_N, &xs, &ys));
    let dot = kernel_row(
        "dot",
        reps,
        || {
            for i in 0..DOT_BATCH {
                let r = i * DOT_N..(i + 1) * DOT_N;
                black_box(linalg::dot(&xs[r.clone()], &ys[r]));
            }
        },
        || {
            black_box(unit.batch.run(&cfg, &inputs));
        },
    );

    let a = sample(23, MVM_N * MVM_N);
    let mx = sample(24, MVM_BATCH * MVM_N);
    let my = sample(25, MVM_BATCH * MVM_N);
    let unit = compiled::mvm(&a, MVM_N, f64);
    let inputs = BatchF64I::from_intervals(&compiled::zip_items(MVM_N, &mx, &my));
    let mvm = kernel_row(
        "mvm",
        reps,
        || {
            for i in 0..MVM_BATCH {
                let r = i * MVM_N..(i + 1) * MVM_N;
                let mut y = my[r.clone()].to_vec();
                linalg::mvm(MVM_N, MVM_N, &a, &mx[r], &mut y);
                black_box(&y);
            }
        },
        || {
            black_box(unit.batch.run(&cfg, &inputs));
        },
    );

    let hx = sample(26, HENON_BATCH);
    let hy = sample(27, HENON_BATCH);
    let unit = compiled::henon(HENON_ITERS, f64);
    let inputs = BatchF64I::from_intervals(&compiled::zip_items(1, &hx, &hy));
    let henon = kernel_row(
        "henon",
        reps,
        || {
            for i in 0..HENON_BATCH {
                black_box(henon_from::<F64I>(hx[i], hy[i], HENON_ITERS));
            }
        },
        || {
            black_box(unit.batch.run(&cfg, &inputs));
        },
    );

    // gemm — the mvm program batched over the columns of B and C.
    let ga = sample(28, GEMM_N * GEMM_N);
    let gb = sample(29, GEMM_N * GEMM_N);
    let zeros = vec![F64I::point(0.0); GEMM_N * GEMM_N];
    let unit = compiled::mvm(&ga, GEMM_N, f64);
    let inputs = BatchF64I::from_intervals(&compiled::gemm_items(GEMM_N, &gb, &zeros));
    let gemm = kernel_row(
        "gemm",
        reps,
        || {
            let mut gc = zeros.clone();
            linalg::gemm(GEMM_N, GEMM_N, GEMM_N, &ga, &gb, &mut gc);
            black_box(&gc);
        },
        || {
            let columns = unit.batch.run(&cfg, &inputs).to_intervals();
            black_box(compiled::gemm_result(GEMM_N, &columns));
        },
    );

    let net = Ffnn::synthetic(FFNN_WIDTH, 7);
    let digits: Vec<Vec<f64>> = (0..FFNN_INPUTS as u64).map(Ffnn::synthetic_input).collect();
    let unit = compiled::ffnn(&net, f64);
    let inputs: BatchF64I = digits.iter().flatten().map(|&v| F64I::point(v)).collect();
    let ffnn = kernel_row(
        "ffnn",
        reps,
        || {
            for input in &digits {
                black_box(net.forward::<F64I>(input));
            }
        },
        || {
            black_box(unit.batch.run(&cfg, &inputs));
        },
    );

    vec![dot, mvm, henon, gemm, ffnn]
}

/// Records `results/simd_speedup.csv` at the workspace root.
fn record_csv() {
    if let Some(root) = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        let _ = std::env::set_current_dir(root);
    }
    let reps = igen_bench::reps();
    let detected = simd::detected_backend();
    let ns = |t: &[Duration; 3]| t.map(|d| d.as_secs_f64() * 1e9);
    let (ops, kernels) = (op_rows(reps), kernel_rows(reps));
    let rows: Vec<String> = (ops.iter().map(|r| ("op", r)))
        .chain(kernels.iter().map(|r| ("kernel", r)))
        .map(|(kind, r)| {
            let (s, p, v) = (ns(&r.scalar), ns(&r.lane_portable), ns(&r.simd));
            format!(
                "{},{kind},{detected},{},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.3},{:.3}",
                r.name,
                r.packed_path,
                s[1],
                s[0],
                s[2],
                p[1],
                p[0],
                p[2],
                v[1],
                v[0],
                v[2],
                s[1] / p[1],
                s[1] / v[1],
            )
        })
        .collect();
    write_csv_with_comments(
        "simd_speedup.csv",
        &[host_line(available_threads()), format!("medians of {reps} runs, with quartiles")],
        "name,kind,detected_backend,packed_path,scalar_ns,scalar_q1_ns,scalar_q3_ns,\
         lane_portable_ns,lane_portable_q1_ns,lane_portable_q3_ns,simd_ns,simd_q1_ns,simd_q3_ns,\
         speedup_lane_vs_scalar,speedup_simd_vs_scalar",
        &rows,
    );
}

/// The multiply-accumulate sweep at f64 and at dd as criterion
/// benchmarks: the CI smoke (`--test`) runs each variant once, so the
/// packed kernels of the host's backend run on every push.
fn bench_ops(c: &mut Criterion) {
    let (a, b, acc) = (sample_positive(11, OP_N), sample_positive(12, OP_N), sample(13, OP_N));
    bench_mul_add::<F64Ix4>(c, "simd_speedup_mul_add", [&a, &b, &acc]);
    let (da, db) = (dd_sample(14, OP_N, 0.5, 2.0), dd_sample(15, OP_N, 0.5, 2.0));
    let dacc = dd_sample(16, OP_N, -2.0, 2.0);
    bench_mul_add::<DdIx4>(c, "simd_speedup_dd_mul_add", [&da, &db, &dacc]);
}

fn bench_mul_add<L: LaneOps>(c: &mut Criterion, group: &str, srcs: [&[L::Elem]; 3])
where
    L::Elem: LaneOps<Elem = L::Elem>,
{
    let mut g = c.benchmark_group(group);
    let (mut scalar, n1) = bank::<L::Elem>(srcs);
    g.bench_function("scalar", |bch| bch.iter(|| sweep(SweepOp::MulAdd, &mut scalar, n1)));
    let (mut lanes, n) = bank::<L>(srcs);
    for (tag, bk) in [("lane_portable", Backend::Portable), ("simd", simd::detected_backend())] {
        g.bench_function(tag, |bch| {
            simd::force_backend(Some(bk));
            bch.iter(|| sweep(SweepOp::MulAdd, &mut lanes, n));
            simd::force_backend(None);
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default().sample_size(10);
    bench_ops(&mut c);
    // CI smoke (`--test`) only checks the benches run; skip the sweep.
    // Telemetry-instrumented builds never record (zero-tax guard).
    if !std::env::args().any(|a| a == "--test") && igen_bench::perf_recording_allowed() {
        record_csv();
    }
}
