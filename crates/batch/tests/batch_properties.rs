//! The batch engine's contract, pinned by property tests: batched
//! evaluation is **bit-identical** to the scalar kernels at every thread
//! count (software directed rounding is deterministic, and each batch
//! item executes the scalar operation sequence). Sizes are drawn to
//! cover the empty batch, lane-width tails (batch not a multiple of 4),
//! and length-1 vectors.

use igen_batch::{
    dot_batch, ffnn_batch, gemm_row_blocks, henon_ensemble, mvm_batch, BatchConfig, BatchF64I,
};
use igen_interval::F64I;
use igen_kernels::ffnn::Ffnn;
use igen_kernels::linalg::{dot, gemm, mvm};
use igen_kernels::{henon_from, workload};
use proptest::prelude::*;

/// The thread counts every property is checked at: sequential, the
/// smallest parallel count, and everything the host offers.
fn thread_counts() -> Vec<usize> {
    let mut ts = vec![1, 2, igen_batch::available_threads()];
    ts.sort_unstable();
    ts.dedup();
    ts
}

fn cfg(threads: usize) -> BatchConfig {
    // seq_threshold 0: force the parallel path even for tiny batches.
    BatchConfig::new().with_threads(threads).with_seq_threshold(0)
}

/// Seeded 1-ulp-wide interval batch (the paper's input distribution).
fn batch_1ulp(seed: u64, len: usize) -> BatchF64I {
    let mut rng = workload::rng(seed);
    BatchF64I::from_intervals(&workload::intervals_1ulp(&workload::random_points(
        &mut rng, len, -3.0, 3.0,
    )))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // dot: every batch item bitwise equals the scalar fold, at 1 / 2 /
    // max threads. `batch in 0..11` crosses the empty batch and both
    // lane tails (1..3 and 5..7 mod 4).
    #[test]
    fn dot_batch_bit_identical_to_scalar(
        n in 1usize..24,
        batch in 0usize..11,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let xs = batch_1ulp(seed, batch * n);
        let ys = batch_1ulp(seed ^ 0xdead_beef, batch * n);
        let xv = xs.to_intervals();
        let yv = ys.to_intervals();
        let want: Vec<F64I> =
            (0..batch).map(|b| dot(&xv[b * n..(b + 1) * n], &yv[b * n..(b + 1) * n])).collect();
        for t in thread_counts() {
            let got = dot_batch(&cfg(t), n, &xs, &ys);
            prop_assert_eq!(got.to_intervals(), want.clone(), "threads = {}", t);
        }
    }

    // mvm: shared matrix, batched vectors; per item bitwise equal to the
    // scalar mvm.
    #[test]
    fn mvm_batch_bit_identical_to_scalar(
        m in 1usize..10,
        n in 1usize..10,
        batch in 0usize..9,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let a = batch_1ulp(seed, m * n).to_intervals();
        let xs = batch_1ulp(seed ^ 1, batch * n);
        let ys = batch_1ulp(seed ^ 2, batch * m);
        let xv = xs.to_intervals();
        let mut want = ys.to_intervals();
        for b in 0..batch {
            let mut y = want[b * m..(b + 1) * m].to_vec();
            mvm(m, n, &a, &xv[b * n..(b + 1) * n], &mut y);
            want[b * m..(b + 1) * m].copy_from_slice(&y);
        }
        for t in thread_counts() {
            let got = mvm_batch(&cfg(t), m, n, &a, &xs, &ys);
            prop_assert_eq!(got.to_intervals(), want.clone(), "threads = {}", t);
        }
    }

    // Hénon ensembles: each orbit bitwise equals the scalar iteration
    // from its initial point.
    #[test]
    fn henon_ensemble_bit_identical_to_scalar(
        batch in 0usize..13,
        iters in 0usize..40,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let x0s = batch_1ulp(seed, batch);
        let y0s = batch_1ulp(seed ^ 3, batch);
        let want: Vec<F64I> =
            (0..batch).map(|b| henon_from(x0s.get(b), y0s.get(b), iters)).collect();
        for t in thread_counts() {
            let got = henon_ensemble(&cfg(t), iters, &x0s, &y0s);
            prop_assert_eq!(got.to_intervals(), want.clone(), "threads = {}", t);
        }
    }

    // GEMM parallelized over row blocks bitwise equals the scalar triple
    // loop, for any block size (including blocks larger than the matrix).
    #[test]
    fn gemm_row_blocks_bit_identical_to_scalar(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        row_block in 1usize..10,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let a = batch_1ulp(seed, m * k).to_intervals();
        let b = batch_1ulp(seed ^ 4, k * n).to_intervals();
        let c0 = batch_1ulp(seed ^ 5, m * n).to_intervals();
        let mut want = c0.clone();
        gemm(m, k, n, &a, &b, &mut want);
        for t in thread_counts() {
            let mut got = c0.clone();
            gemm_row_blocks(&cfg(t), m, k, n, &a, &b, &mut got, row_block);
            prop_assert_eq!(&got, &want, "threads = {}", t);
        }
    }
}

proptest! {
    // FFNN forward passes are slow; fewer cases suffice for an
    // embarrassingly-parallel map.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ffnn_batch_bit_identical_to_scalar(
        width in 4usize..12,
        batch in 0usize..6,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let net = Ffnn::synthetic(width, seed);
        let inputs: Vec<Vec<f64>> =
            (0..batch as u64).map(|i| Ffnn::synthetic_input(seed.wrapping_add(i))).collect();
        let want: Vec<Vec<F64I>> = inputs.iter().map(|x| net.forward::<F64I>(x)).collect();
        for t in thread_counts() {
            let got: Vec<Vec<F64I>> = ffnn_batch(&cfg(t), &net, &inputs);
            prop_assert_eq!(&got, &want, "threads = {}", t);
        }
    }
}

/// Deterministic edge cases the strategies above only hit by chance.
#[test]
fn lane_tail_edges_exact() {
    for batch in [1usize, 2, 3, 4, 5, 7, 8, 9] {
        let n = 5;
        let xs = batch_1ulp(11, batch * n);
        let ys = batch_1ulp(13, batch * n);
        let got = dot_batch(&cfg(2), n, &xs, &ys);
        assert_eq!(got.len(), batch);
        let xv = xs.to_intervals();
        let yv = ys.to_intervals();
        for b in 0..batch {
            assert_eq!(
                got.get(b),
                dot(&xv[b * n..(b + 1) * n], &yv[b * n..(b + 1) * n]),
                "batch = {batch}, item = {b}"
            );
        }
    }
}

#[test]
fn empty_batch_is_empty_everywhere() {
    let e = BatchF64I::new();
    for t in thread_counts() {
        assert!(dot_batch(&cfg(t), 7, &e, &e).is_empty());
        assert!(henon_ensemble(&cfg(t), 25, &e, &e).is_empty());
        let a = batch_1ulp(1, 6).to_intervals();
        assert!(mvm_batch(&cfg(t), 2, 3, &a, &e, &e).is_empty());
        let got: Vec<Vec<F64I>> = ffnn_batch(&cfg(t), &Ffnn::synthetic(6, 1), &[]);
        assert!(got.is_empty());
    }
}

#[test]
fn seq_threshold_does_not_change_results() {
    let n = 8;
    let batch = 12;
    let xs = batch_1ulp(17, batch * n);
    let ys = batch_1ulp(19, batch * n);
    let base = dot_batch(&cfg(1), n, &xs, &ys);
    for threshold in [0, 1, batch, 10 * batch] {
        let c = BatchConfig::new().with_threads(3).with_seq_threshold(threshold);
        assert_eq!(dot_batch(&c, n, &xs, &ys), base, "threshold = {threshold}");
    }
}
