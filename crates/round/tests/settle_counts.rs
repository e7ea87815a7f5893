//! With the `telemetry` feature on, `simd.mul.lanes_patched` counts
//! only the lanes the scalar op recomputes. A packed f64 mul settles in
//! registers the flagged lanes whose scalar result its registers hold:
//! products that overflow, infinite, zero or NaN operands. Only a
//! product below `2.5e-291` from nonzero operands is patched. (Every
//! lane's bits are pinned against the scalar op in `simd_kernels.rs`;
//! this file pins which lanes take the scalar path.)
//!
//! The counters are process-global, so this file holds one test.
#![cfg(feature = "telemetry")]

use igen_round::simd::{self, Backend, F64iCols4, SweepOp};
use igen_telemetry::counters_snapshot;

fn counter(name: &str) -> u64 {
    counters_snapshot().iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
}

/// The `simd.mul.lanes_patched` ticks of one `Mul` sweep over groups
/// whose lane 0 multiplies the intervals `x` and `y` (each `[lo, hi]`)
/// and whose other lanes multiply `[1, 2]` by `[0.5, 3]`.
fn patched_lanes(x: (f64, f64), y: (f64, f64)) -> u64 {
    let group = |(lo, hi): (f64, f64), benign: (f64, f64)| {
        let mut c = F64iCols4 { neg_lo: [-benign.0; 4], hi: [benign.1; 4] };
        (c.neg_lo[0], c.hi[0]) = (-lo, hi);
        c
    };
    let mut bank = [group(x, (1.0, 2.0)), group(y, (0.5, 3.0)), F64iCols4::default()];
    let before = counter("simd.mul.lanes_patched");
    assert!(simd::f64i_sweep_4(Backend::Avx2Fma, SweepOp::Mul, &mut bank, 1, 2, [0, 1, 0]));
    counter("simd.mul.lanes_patched") - before
}

#[test]
fn only_unsettled_mul_lanes_are_patched() {
    if simd::detected_backend() != Backend::Avx2Fma {
        return; // no packed f64 mul on this host
    }
    let max = f64::MAX;
    let settled = [
        ("a zero operand", (0.0, 0.0), (1.0, 2.0)),
        ("a zero endpoint", (-1.0, 0.0), (-0.0, 3.0)),
        ("a diverged Hénon item squared", (f64::NEG_INFINITY, -max), (f64::NEG_INFINITY, -max)),
        ("products that overflow", (1e300, max), (-max, -1e300)),
        ("infinite operands", (f64::NEG_INFINITY, f64::INFINITY), (1.0, 2.0)),
        ("a NaN endpoint", (f64::NAN, f64::NAN), (1.0, 2.0)),
        ("a NaN beside a tiny product", (f64::NAN, 1e-150), (1e-150, 2e-150)),
    ];
    for (what, x, y) in settled {
        assert_eq!(patched_lanes(x, y), 0, "{what}: {x:?} * {y:?}");
    }
    assert_eq!(patched_lanes((1e-150, 1e-150), (1e-150, 2e-150)), 1, "a product below 2.5e-291");
    assert_eq!(counter("simd.add.lanes_patched"), 0, "the f64 add never patches");
}
