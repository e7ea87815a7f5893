//! Bit-identity of the compiled paper kernels against the scalar
//! `igen-kernels` loops, across precisions, thread counts and SIMD
//! backends, plus the batch-shape contracts of `BatchProgram`.
//!
//! Every kernel comes from `igen_bench::compiled`: its C source compiled
//! at `-O2`, peepholed, and run by `BatchProgram` four items per packed
//! register, the last group padded. Each output must equal the scalar
//! kernel's — `linalg::dot`, `linalg::mvm`, `linalg::gemm`, `henon_from`
//! and `Ffnn::forward`, at `F64I` and at `DdI` — bit for bit, at 1–4
//! threads and on every backend the host supports: AVX2+FMA where
//! detected, and the portable fallback forced on every host.
//!
//! The backend override is process-global, so every section that runs
//! the lane types takes one mutex.

use igen_batch::{BatchConfig, BatchDdI, BatchF64I, SoaBatch};
use igen_bench::compiled;
use igen_core::Precision;
use igen_interval::{DdI, F64I};
use igen_kernels::ffnn::Ffnn;
use igen_kernels::linalg::{dot, gemm, mvm};
use igen_kernels::{henon_from, workload, Numeric};
use igen_round::simd::{self, Backend};
use igen_session::CompiledUnit;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Serializes every section that runs the lane types (the backend
/// override is process-global).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(bk: Backend, f: impl FnOnce() -> T) -> T {
    let _guard = BACKEND_LOCK.lock().unwrap();
    simd::force_backend(Some(bk));
    let out = f();
    simd::force_backend(None);
    out
}

fn backends() -> Vec<Backend> {
    [Backend::Portable, Backend::Avx2Fma]
        .into_iter()
        .filter(|&bk| bk <= simd::detected_backend())
        .collect()
}

fn cfg(threads: usize) -> BatchConfig {
    BatchConfig::new().with_threads(threads).with_seq_threshold(0)
}

/// 1-ulp-wide `F64I` boxes around seeded points in `[lo, hi]`.
fn sample(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<F64I> {
    let mut rng = workload::rng(seed);
    workload::intervals_1ulp(&workload::random_points(&mut rng, len, lo, hi))
}

/// One endpoint precision: its interval type, SoA batch and entry point.
trait Prec: Numeric {
    type Batch: SoaBatch<Elem = Self> + FromIterator<Self>;
    const PRECISION: Precision;
    /// Seeded 1-ulp inputs (double-double ones with nonzero low words).
    fn sample(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<Self>;
    fn widen(v: F64I) -> Self;
    fn run(unit: &CompiledUnit, cfg: &BatchConfig, inputs: &Self::Batch) -> Self::Batch;
}

impl Prec for F64I {
    type Batch = BatchF64I;
    const PRECISION: Precision = Precision::F64;
    fn sample(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<F64I> {
        sample(seed, len, lo, hi)
    }
    fn widen(v: F64I) -> F64I {
        v
    }
    fn run(unit: &CompiledUnit, cfg: &BatchConfig, inputs: &BatchF64I) -> BatchF64I {
        unit.batch.run(cfg, inputs)
    }
}

impl Prec for DdI {
    type Batch = BatchDdI;
    const PRECISION: Precision = Precision::Dd;
    fn sample(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<DdI> {
        workload::dd_intervals_1ulp(&mut workload::rng(seed), len, lo, hi)
    }
    fn widen(v: F64I) -> DdI {
        DdI::from_f64i(&v)
    }
    fn run(unit: &CompiledUnit, cfg: &BatchConfig, inputs: &BatchDdI) -> BatchDdI {
        unit.batch.run_dd(cfg, inputs)
    }
}

fn items<B: SoaBatch>(b: &B) -> Vec<B::Elem> {
    (0..b.len()).map(|i| b.get(i)).collect()
}

/// One compiled kernel instance with its scalar reference outputs.
struct Case<T: Prec> {
    kernel: &'static str,
    unit: Arc<CompiledUnit>,
    inputs: T::Batch,
    want: T::Batch,
    /// GEMM's order: its items are columns, so results come back
    /// row-major through `compiled::gemm_result`.
    gemm_n: Option<usize>,
}

impl<T: Prec> Case<T> {
    fn run(&self, cfg: &BatchConfig) -> T::Batch {
        let out = T::run(&self.unit, cfg, &self.inputs);
        match self.gemm_n {
            Some(n) => compiled::gemm_result(n, &items(&out)).into_iter().collect(),
            None => out,
        }
    }

    fn plain(kernel: &'static str, unit: Arc<CompiledUnit>, inputs: Vec<T>, want: Vec<T>) -> Self {
        let (inputs, want) = (inputs.into_iter().collect(), want.into_iter().collect());
        Case { kernel, unit, inputs, want, gemm_n: None }
    }
}

/// All five kernels at shapes that end in a padded group after the full
/// ones; GEMM has n = 11 ≡ 3 (mod 4) columns.
fn cases<T: Prec>() -> Vec<Case<T>> {
    let p = T::PRECISION;
    let mut out = Vec::new();

    let (batch, n) = (7, 9);
    let (x, y) = (T::sample(1, batch * n, -2.0, 2.0), T::sample(2, batch * n, -2.0, 2.0));
    let want = (0..batch).map(|b| dot(&x[b * n..(b + 1) * n], &y[b * n..(b + 1) * n])).collect();
    out.push(Case::plain("dot", compiled::dot(n, p), compiled::zip_items(n, &x, &y), want));

    let (batch, n) = (6, 5);
    let a = sample(3, n * n, -2.0, 2.0);
    let wide: Vec<T> = a.iter().map(|&v| T::widen(v)).collect();
    let (x, y) = (T::sample(4, batch * n, -2.0, 2.0), T::sample(5, batch * n, -2.0, 2.0));
    let mut want = y.clone();
    for b in 0..batch {
        mvm(n, n, &wide, &x[b * n..(b + 1) * n], &mut want[b * n..(b + 1) * n]);
    }
    let inputs = compiled::zip_items(n, &x, &y);
    out.push(Case::plain("mvm", compiled::mvm(&a, n, p), inputs, want));

    let n = 11;
    let a = sample(6, n * n, -2.0, 2.0);
    let wide: Vec<T> = a.iter().map(|&v| T::widen(v)).collect();
    let (b, c) = (T::sample(7, n * n, -2.0, 2.0), T::sample(8, n * n, -2.0, 2.0));
    let mut want = c.clone();
    gemm(n, n, n, &wide, &b, &mut want);
    out.push(Case {
        kernel: "gemm",
        unit: compiled::mvm(&a, n, p),
        inputs: compiled::gemm_items(n, &b, &c).into_iter().collect(),
        want: want.into_iter().collect(),
        gemm_n: Some(n),
    });

    // Initial points in the attractor basin keep every orbit finite.
    let (batch, iters) = (9, 20);
    let (x0, y0) = (T::sample(9, batch, -0.5, 0.5), T::sample(10, batch, -0.5, 0.5));
    let want = (0..batch).map(|b| henon_from(x0[b], y0[b], iters)).collect();
    let inputs = compiled::zip_items(1, &x0, &y0);
    out.push(Case::plain("henon", compiled::henon(iters, p), inputs, want));

    let net = Ffnn::synthetic(6, 3);
    let digits: Vec<Vec<f64>> = (0..5).map(Ffnn::synthetic_input).collect();
    let want = digits.iter().flat_map(|d| net.forward::<T>(d)).collect();
    let inputs = digits.iter().flatten().map(|&v| T::from_f64(v)).collect();
    out.push(Case::plain("ffnn", compiled::ffnn(&net, p), inputs, want));
    out
}

/// Every kernel under each of `backends` at each of `threads`.
fn check<T: Prec>(backends: &[Backend], threads: &[usize]) {
    let cases = cases::<T>();
    for &bk in backends {
        for &t in threads {
            with_backend(bk, || {
                for case in &cases {
                    assert!(
                        case.run(&cfg(t)).bits_eq(&case.want),
                        "{:?} {} at {t} threads on {bk:?} diverged from the scalar kernel",
                        T::PRECISION,
                        case.kernel
                    );
                }
            });
        }
    }
}

#[test]
fn compiled_f64_kernels_bit_identical_all_backends_and_threads() {
    check::<F64I>(&backends(), &[1, 2, 3, 4]);
}

#[test]
fn compiled_dd_kernels_bit_identical_all_backends_and_threads() {
    check::<DdI>(&backends(), &[1, 2, 3, 4]);
}

#[test]
fn seq_threshold_does_not_change_results() {
    let (batch, n) = (12, 8);
    let unit = compiled::dot(n, Precision::F64);
    let inputs = BatchF64I::from_intervals(&sample(17, 2 * batch * n, -3.0, 3.0));
    with_backend(simd::detected_backend(), || {
        let base = unit.batch.run(&cfg(1), &inputs);
        for threshold in [0, 1, batch, 10 * batch] {
            let c = BatchConfig::new().with_threads(3).with_seq_threshold(threshold);
            assert!(unit.batch.run(&c, &inputs).bits_eq(&base), "threshold = {threshold}");
        }
    });
}

#[test]
fn empty_batches_stay_empty_at_every_thread_count() {
    let (f64s, dds) = (cases::<F64I>(), cases::<DdI>());
    with_backend(simd::detected_backend(), || {
        for threads in [1, 2, igen_batch::available_threads()] {
            for case in &f64s {
                assert!(case.unit.batch.run(&cfg(threads), &BatchF64I::new()).is_empty());
            }
            for case in &dds {
                assert!(case.unit.batch.run_dd(&cfg(threads), &BatchDdI::new()).is_empty());
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random item counts cross the empty batch and every lane tail:
    /// each dot and Hénon item still equals its scalar kernel.
    #[test]
    fn random_batch_sizes_match_scalar(
        batch in 0usize..14,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = 5;
        let (x, y) = (sample(seed, batch * n, -2.0, 2.0), sample(seed + 1, batch * n, -2.0, 2.0));
        let want_dot: BatchF64I =
            (0..batch).map(|b| dot(&x[b * n..(b + 1) * n], &y[b * n..(b + 1) * n])).collect();
        let dots = BatchF64I::from_intervals(&compiled::zip_items(n, &x, &y));
        let (x0, y0) = (&x[..batch], &y[..batch]);
        let want_henon: BatchF64I = (0..batch).map(|b| henon_from(x0[b], y0[b], 7)).collect();
        let orbits = BatchF64I::from_intervals(&compiled::zip_items(1, x0, y0));
        let (dot_unit, henon_unit) = (compiled::dot(n, Precision::F64), compiled::henon(7, Precision::F64));
        let (got_dot, got_henon) = with_backend(simd::detected_backend(), || {
            (dot_unit.batch.run(&cfg(threads), &dots), henon_unit.batch.run(&cfg(threads), &orbits))
        });
        prop_assert!(got_dot.bits_eq(&want_dot), "dot, batch = {batch}, threads = {threads}");
        prop_assert!(got_henon.bits_eq(&want_henon), "henon, batch = {batch}, threads = {threads}");
    }
}
