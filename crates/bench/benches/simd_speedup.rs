//! Scalar vs. lane-portable vs. explicit-SIMD comparison for the
//! interval runtime.
//!
//! Three variants per measurement:
//!
//! - `scalar`: plain `F64I` element loops (the bit-identity reference);
//! - `lane_portable`: the `F64Ix4` lane types with the backend forced to
//!   `Portable`, i.e. the compiler-autovectorized lane loops;
//! - `simd`: the same lane types dispatching to the packed
//!   `igen_round::simd` kernels on the host's detected backend.
//!
//! The `dd_add`/`dd_mul` op rows measure the same three variants for
//! double-double intervals: scalar `DdI` loops, `DdIx4` lane loops
//! (forced `Portable`) and `DdIx4` on the detected backend (the packed
//! double-double kernels on AVX2+FMA), on 1-ulp dd inputs with nonzero
//! low words.
//!
//! A plain run (without `--test`) records `results/simd_speedup.csv`
//! with per-op and per-paper-kernel rows. Each kernel row times the
//! scalar `F64I` loop against the kernel's C source compiled into
//! `BatchProgram` (`igen_bench::compiled`), which runs four items per
//! packed register — `gemm` batches the mvm program over the columns of
//! `C` — so the `packed_path` column is `true` across the board.

use criterion::{black_box, Criterion};
use igen_batch::{available_threads, BatchConfig, BatchF64I};
use igen_bench::{compiled, host_line, median_time, write_csv_with_comments};
use igen_core::Precision;
use igen_interval::{DdI, DdIx4, F64Ix4, LaneOps, F64I};
use igen_kernels::ffnn::Ffnn;
use igen_kernels::{henon_from, linalg, workload};
use igen_round::simd::{self, Backend};
use std::time::Duration;

/// Lanes per element-wise op measurement (multiple of 4).
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

/// Zero-free intervals (for division benchmarks that should stay on the
/// packed path rather than the per-lane screening fallback).
fn sample_positive(seed: u64, len: usize) -> Vec<F64I> {
    let mut rng = workload::rng(seed);
    workload::intervals_1ulp(&workload::random_points(&mut rng, len, 0.5, 2.0))
}

fn to_lanes(xs: &[F64I]) -> Vec<F64Ix4> {
    xs.chunks_exact(4).map(|c| F64Ix4::from_lanes([c[0], c[1], c[2], c[3]])).collect()
}

/// Double-double intervals of width `ulp(x_lo)` (the paper's dd inputs).
fn dd_sample(seed: u64, len: usize) -> Vec<DdI> {
    workload::dd_intervals_1ulp(&mut workload::rng(seed), len, -2.0, 2.0)
}

fn to_dd_lanes(xs: &[DdI]) -> Vec<DdIx4> {
    xs.chunks_exact(4).map(|c| DdIx4::from_lanes([c[0], c[1], c[2], c[3]])).collect()
}

/// Runs `f` with the dispatch pinned to `bk` (clamped to the host).
fn timed_with_backend(bk: Backend, reps: usize, mut f: impl FnMut()) -> Duration {
    simd::force_backend(Some(bk));
    let t = median_time(reps, &mut f);
    simd::force_backend(None);
    t
}

struct Row {
    name: &'static str,
    packed_path: bool,
    scalar: Duration,
    lane_portable: Duration,
    simd: Duration,
}

fn op_rows(reps: usize) -> Vec<Row> {
    let a = sample(11, OP_N);
    let b = sample_positive(12, OP_N);
    let c = sample(13, OP_N);
    let (va, vb, vc) = (to_lanes(&a), to_lanes(&b), to_lanes(&c));
    let (da, db) = (dd_sample(14, OP_N), dd_sample(15, OP_N));
    let (vda, vdb) = (to_dd_lanes(&da), to_dd_lanes(&db));

    type OpSpec<'a> = (&'static str, Box<dyn FnMut() + 'a>, Box<dyn FnMut() + 'a>);
    let specs: Vec<OpSpec> = {
        // Each op gets a scalar closure and a lane closure (each owning
        // its output buffer); the lane one is timed twice, under
        // Portable and under the native backend.
        macro_rules! op {
            ($name:literal, $scalar:expr, $lane:expr) => {
                ($name, Box::new($scalar) as Box<dyn FnMut()>, Box::new($lane) as Box<dyn FnMut()>)
            };
        }
        vec![
            op!(
                "add",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let (a, b) = (&a, &b);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] + b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let (va, vb) = (&va, &vb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] + vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "sub",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let (a, b) = (&a, &b);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] - b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let (va, vb) = (&va, &vb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] - vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "mul",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let (a, b) = (&a, &b);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] * b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let (va, vb) = (&va, &vb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] * vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "div",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let (a, b) = (&a, &b);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] / b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let (va, vb) = (&va, &vb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] / vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "mul_add",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let (a, b, c) = (&a, &b, &c);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] * b[i] + c[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let (va, vb, vc) = (&va, &vb, &vc);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i].mul_add(vb[i], vc[i]);
                        }
                        black_box(&out);
                    }
                }
            ),
            // sqrt over positive intervals (the guarded packed path; a
            // negative radicand would patch the lane scalar-side).
            op!(
                "sqrt",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let b = &b;
                    move || {
                        for i in 0..OP_N {
                            out[i] = b[i].sqrt();
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let vb = &vb;
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = vb[i].sqrt();
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "sqr",
                {
                    let mut out = vec![F64I::point(0.0); OP_N];
                    let a = &a;
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i].sqr();
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![F64Ix4::default(); OP_N / 4];
                    let va = &va;
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i].sqr();
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "dd_add",
                {
                    let mut out = vec![DdI::ZERO; OP_N];
                    let (a, b) = (&da, &db);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] + b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![DdIx4::default(); OP_N / 4];
                    let (va, vb) = (&vda, &vdb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] + vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
            op!(
                "dd_mul",
                {
                    let mut out = vec![DdI::ZERO; OP_N];
                    let (a, b) = (&da, &db);
                    move || {
                        for i in 0..OP_N {
                            out[i] = a[i] * b[i];
                        }
                        black_box(&out);
                    }
                },
                {
                    let mut out = vec![DdIx4::default(); OP_N / 4];
                    let (va, vb) = (&vda, &vdb);
                    move || {
                        for i in 0..OP_N / 4 {
                            out[i] = va[i] * vb[i];
                        }
                        black_box(&out);
                    }
                }
            ),
        ]
    };

    specs
        .into_iter()
        .map(|(name, mut scalar, mut lane)| Row {
            name,
            packed_path: true,
            scalar: median_time(reps, &mut scalar),
            lane_portable: timed_with_backend(Backend::Portable, reps, &mut lane),
            simd: timed_with_backend(simd::detected_backend(), reps, &mut lane),
        })
        .collect()
}

/// A kernel row: `scalar` is the plain `F64I` loop, `lane` the compiled
/// kernel through `BatchProgram`, timed under Portable and under the
/// detected backend.
fn kernel_row(
    name: &'static str,
    reps: usize,
    scalar: impl FnMut(),
    mut lane: impl FnMut(),
) -> Row {
    Row {
        name,
        packed_path: true,
        scalar: median_time(reps, scalar),
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
    let mut rows = Vec::new();
    let mut emit = |kind: &str, r: &Row| {
        let s = r.scalar.as_secs_f64();
        rows.push(format!(
            "{},{kind},{detected},{},{:.0},{:.0},{:.0},{:.3},{:.3}",
            r.name,
            r.packed_path,
            s * 1e9,
            r.lane_portable.as_secs_f64() * 1e9,
            r.simd.as_secs_f64() * 1e9,
            s / r.lane_portable.as_secs_f64(),
            s / r.simd.as_secs_f64(),
        ));
    };
    for r in &op_rows(reps) {
        emit("op", r);
    }
    for r in &kernel_rows(reps) {
        emit("kernel", r);
    }
    write_csv_with_comments(
        "simd_speedup.csv",
        &[host_line(available_threads())],
        "name,kind,detected_backend,packed_path,scalar_ns,lane_portable_ns,simd_ns,\
         speedup_lane_vs_scalar,speedup_simd_vs_scalar",
        &rows,
    );
}

fn bench_ops(c: &mut Criterion) {
    let a = sample(11, OP_N);
    let b = sample_positive(12, OP_N);
    let (va, vb) = (to_lanes(&a), to_lanes(&b));
    let mut g = c.benchmark_group("simd_speedup_mul");
    g.bench_function("scalar", |bch| {
        bch.iter(|| {
            let mut acc = F64I::point(0.0);
            for i in 0..OP_N {
                acc = acc + black_box(a[i]) * black_box(b[i]);
            }
            black_box(acc)
        })
    });
    for (tag, bk) in [("lane_portable", Backend::Portable), ("simd", simd::detected_backend())] {
        g.bench_function(tag, |bch| {
            simd::force_backend(Some(bk));
            bch.iter(|| {
                let mut acc = F64Ix4::default();
                for i in 0..OP_N / 4 {
                    acc = acc + black_box(va[i]) * black_box(vb[i]);
                }
                black_box(acc)
            });
            simd::force_backend(None);
        });
    }
    g.finish();

    // The double-double counterpart: the `simd` variant runs the packed
    // dd kernels on AVX2+FMA hosts (so the CI smoke exercises them).
    let (da, db) = (dd_sample(14, OP_N), dd_sample(15, OP_N));
    let (vda, vdb) = (to_dd_lanes(&da), to_dd_lanes(&db));
    let mut g = c.benchmark_group("simd_speedup_dd_mul");
    g.bench_function("scalar", |bch| {
        bch.iter(|| {
            let mut acc = DdI::ZERO;
            for i in 0..OP_N {
                acc = acc + black_box(da[i]) * black_box(db[i]);
            }
            black_box(acc)
        })
    });
    for (tag, bk) in [("lane_portable", Backend::Portable), ("simd", simd::detected_backend())] {
        g.bench_function(tag, |bch| {
            simd::force_backend(Some(bk));
            bch.iter(|| {
                let mut acc = DdIx4::default();
                for i in 0..OP_N / 4 {
                    acc = acc + black_box(vda[i]) * black_box(vdb[i]);
                }
                black_box(acc)
            });
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
