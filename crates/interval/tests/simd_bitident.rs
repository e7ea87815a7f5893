//! Bit-identity of the packed lane types against the scalar interval
//! operations, across every backend the host supports.
//!
//! `F64Ix4` dispatches to the packed kernels of
//! `igen_round::simd`; this suite forces each backend in turn (portable,
//! and AVX2+FMA where detected) and checks that every lane of every
//! vector operation equals the scalar `F64I` result bit for bit —
//! including NaN, infinite, subnormal and signed-zero endpoints, which
//! the random generator produces and the deterministic grid guarantees.
//! `DdIx4` add, sub, mul and `mul_add` get the same treatment
//! against scalar `DdI`: on AVX2+FMA they run the packed double-double
//! kernels, elsewhere lane loops.
//!
//! The VM's sweep hook, `LaneOps::sweep`, gets a proptest of its own:
//! on AVX2+FMA `F64Ix4` runs a whole bank sweep in one
//! `simd::f64i_sweep_4` call, and forced portable takes the
//! group-by-group loop; every path must equal scalar `F64I` op by op.
//!
//! The backend override is process-global, so every forced section takes
//! a mutex; no other test in this binary touches the lane types outside
//! of it.

use igen_dd::Dd;
use igen_interval::{DdI, DdIx4, F64Ix4, LaneOps, SweepOp, F64I};
use igen_round::simd::{self, Backend};
use igen_round::Ru;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes `force_backend` sections (the override is process-global).
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

/// Intervals over the full double range: ordered endpoints from
/// arbitrary doubles, keeping NaN endpoints (unknown bounds) when the
/// generator produces them.
fn iv_any() -> impl Strategy<Value = F64I> {
    (any::<f64>(), any::<f64>()).prop_map(|(x, y)| {
        if x.is_nan() || y.is_nan() {
            F64I::from_neg_lo_hi(x, y)
        } else {
            F64I::new(x.min(y), x.max(y)).expect("ordered")
        }
    })
}

fn same(got: F64I, want: F64I) -> bool {
    got.neg_lo().to_bits() == want.neg_lo().to_bits() && got.hi().to_bits() == want.hi().to_bits()
}

/// Checks every `F64Ix4` operation lane-wise against the
/// scalar ops, under the given backend.
fn check_lanes(bk: Backend, a: [F64I; 4], b: [F64I; 4]) -> Result<(), TestCaseError> {
    // Scalar references, computed outside the forced section (scalar ops
    // never dispatch).
    let want_add: Vec<F64I> = (0..4).map(|i| a[i] + b[i]).collect();
    let want_sub: Vec<F64I> = (0..4).map(|i| a[i] - b[i]).collect();
    let want_mul: Vec<F64I> = (0..4).map(|i| a[i] * b[i]).collect();
    let want_div: Vec<F64I> = (0..4).map(|i| a[i] / b[i]).collect();
    let want_fma: Vec<F64I> = (0..4).map(|i| a[i] * b[i] + a[i]).collect();
    let want_sqrt: Vec<F64I> = (0..4).map(|i| a[i].sqrt()).collect();
    let want_abs: Vec<F64I> = (0..4).map(|i| a[i].abs()).collect();
    let want_sqr: Vec<F64I> = (0..4).map(|i| a[i].sqr()).collect();
    let (got4, gotu4) = with_backend(bk, || {
        let va = F64Ix4::from_lanes(a);
        let vb = F64Ix4::from_lanes(b);
        ((va + vb, va - vb, va * vb, va / vb, va.mul_add(vb, va)), (va.sqrt(), va.abs(), va.sqr()))
    });
    for i in 0..4 {
        let ctx = format!("{bk:?} lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got4.0.lane(i), want_add[i]), "x4 add {ctx}");
        prop_assert!(same(got4.1.lane(i), want_sub[i]), "x4 sub {ctx}");
        prop_assert!(same(got4.2.lane(i), want_mul[i]), "x4 mul {ctx}");
        prop_assert!(same(got4.3.lane(i), want_div[i]), "x4 div {ctx}");
        prop_assert!(same(got4.4.lane(i), want_fma[i]), "x4 mul_add {ctx}");
        prop_assert!(same(gotu4.0.lane(i), want_sqrt[i]), "x4 sqrt {ctx}");
        prop_assert!(same(gotu4.1.lane(i), want_abs[i]), "x4 abs {ctx}");
        prop_assert!(same(gotu4.2.lane(i), want_sqr[i]), "x4 sqr {ctx}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(800))]

    #[test]
    fn vector_ops_bit_identical_all_backends(
        a0 in iv_any(), a1 in iv_any(), a2 in iv_any(), a3 in iv_any(),
        b0 in iv_any(), b1 in iv_any(), b2 in iv_any(), b3 in iv_any(),
    ) {
        for bk in backends() {
            check_lanes(bk, [a0, a1, a2, a3], [b0, b1, b2, b3])?;
        }
    }
}

/// Registers in the sweep banks below, and groups per register.
const SWEEP_REGS: usize = 4;
const SWEEP_TILE: usize = 3;

/// One sweep of `op` over a bank of `SWEEP_REGS` registers of
/// `SWEEP_TILE` groups, through `F64Ix4`'s `sweep` under backend `bk`,
/// against scalar `F64I` ops on the bank as it was: the `n` written
/// groups of `dst` lane by lane, every other slot unchanged.
fn check_sweep(
    bk: Backend,
    items: &[F64I],
    op: usize,
    regs: [usize; 4],
    n: usize,
) -> Result<(), TestCaseError> {
    let [dst, a, b, acc] = regs.map(|r| r * SWEEP_TILE);
    let op = match op {
        0 => SweepOp::Add,
        1 => SweepOp::Sub,
        2 => SweepOp::Mul,
        3 => SweepOp::MulAdd { acc },
        _ => SweepOp::MulSub { acc },
    };
    let bank: Vec<F64Ix4> = (0..SWEEP_REGS * SWEEP_TILE)
        .map(|k| F64Ix4::from_lanes_fn(|l| items[(4 * k + l) % items.len()]))
        .collect();
    let mut got = bank.clone();
    let kernel = with_backend(bk, || {
        let mut probe = bank.clone();
        let kernel = simd::f64i_sweep_4(bk, op, &mut probe, n, dst, a, b);
        F64Ix4::sweep(op, &mut got, n, dst, a, b);
        kernel
    });
    // Only AVX2+FMA has the one-call kernel; forced portable must take
    // the group loop.
    prop_assert_eq!(kernel, bk == Backend::Avx2Fma, "{:?} under {:?}", op, bk);
    for (k, v) in got.iter().enumerate() {
        for l in 0..4 {
            let want = if (dst..dst + n).contains(&k) {
                let g = k - dst;
                let (x, y, z) = (bank[a + g].lane(l), bank[b + g].lane(l), bank[acc + g].lane(l));
                match op {
                    SweepOp::Add => x + y,
                    SweepOp::Sub => x - y,
                    SweepOp::Mul => x * y,
                    SweepOp::MulAdd { .. } => z + x * y,
                    SweepOp::MulSub { .. } => z - x * y,
                }
            } else {
                bank[k].lane(l)
            };
            prop_assert!(
                same(v.lane(l), want),
                "{op:?} regs {regs:?} n {n} under {bk:?}: slot {k} lane {l}: got {}, want {want}",
                v.lane(l)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `LaneOps::sweep` on `F64Ix4` equals scalar `F64I`, for
    /// every arithmetic op, any register aliasing and every backend.
    #[test]
    fn sweep_hook_bit_identical_all_backends(
        items in prop::collection::vec(iv_any(), 4..64),
        op in 0usize..5,
        dst in 0usize..SWEEP_REGS,
        a in 0usize..SWEEP_REGS,
        b in 0usize..SWEEP_REGS,
        acc in 0usize..SWEEP_REGS,
        n in 0usize..SWEEP_TILE + 1,
    ) {
        for bk in backends() {
            check_sweep(bk, &items, op, [dst, a, b, acc], n)?;
        }
    }
}

/// Deterministic special-endpoint grid, each pair rotated through every
/// lane position on every backend.
#[test]
fn vector_ops_bit_identical_special_grid() {
    let specials = [
        F64I::point(0.0),
        F64I::new(-0.0, 0.0).unwrap(),
        F64I::point(1.0),
        F64I::point(-1.0),
        F64I::point(0.1),
        F64I::new(-2.0, 3.0).unwrap(),
        F64I::new(f64::MIN_POSITIVE, 2.0 * f64::MIN_POSITIVE).unwrap(),
        F64I::new(-f64::from_bits(1), f64::from_bits(1)).unwrap(),
        F64I::new(1e300, f64::MAX).unwrap(),
        F64I::new(-f64::MAX, -1e300).unwrap(),
        F64I::new(f64::NEG_INFINITY, f64::INFINITY).unwrap(),
        F64I::new(1.0, f64::INFINITY).unwrap(),
        F64I::NAI,
        F64I::from_neg_lo_hi(f64::NAN, 1.0),
        F64I::ENTIRE,
    ];
    let benign = F64I::new(1.0, 2.0).unwrap();
    for bk in backends() {
        for &x in &specials {
            for &y in &specials {
                for pos in 0..4 {
                    let mut a = [benign; 4];
                    let mut b = [benign; 4];
                    a[pos] = x;
                    b[pos] = y;
                    if let Err(e) = check_lanes(bk, a, b) {
                        panic!("special grid ({x}, {y}) pos {pos}: {e:?}");
                    }
                }
            }
        }
    }
}

/// A random double-double with a nonzero low word, over binades wide
/// enough that products leave the FMA-residual range and overflow.
fn dd_value() -> impl Strategy<Value = Dd> {
    let binade = prop_oneof![3 => -40i32..40, 1 => -700i32..700];
    (1.0f64..2.0, binade, -0.49f64..0.49, any::<bool>()).prop_map(|(m, e, l, neg)| {
        let xh = if neg { -m } else { m } * 2f64.powi(e);
        Dd::new(xh, l * igen_round::ulp(xh))
    })
}

/// Double-double intervals: 1-ulp intervals around random
/// double-doubles (the paper's dd workload recipe), wide intervals
/// between two of them, points, and promoted `F64I` intervals with the
/// full range of special endpoints (zero low words, NaN, ±inf, ±0).
fn dd_iv() -> impl Strategy<Value = DdI> {
    prop_oneof![
        3 => dd_value().prop_map(|x| {
            let w = igen_round::ulp(x.lo().abs().max(f64::MIN_POSITIVE));
            DdI::new(x, igen_dd::add_dir::<Ru>(x, Dd::from(w))).expect("ordered")
        }),
        2 => (dd_value(), dd_value()).prop_map(|(x, y)| {
            let (lo, hi) = if x.le(&y) { (x, y) } else { (y, x) };
            DdI::new(lo, hi).expect("ordered")
        }),
        1 => dd_value().prop_map(DdI::point),
        2 => iv_any().prop_map(|x| DdI::from_f64i(&x)),
    ]
}

fn dd_same(got: DdI, want: DdI) -> bool {
    let bits =
        |x: DdI| [x.neg_lo().hi(), x.neg_lo().lo(), x.hi().hi(), x.hi().lo()].map(f64::to_bits);
    bits(got) == bits(want)
}

/// Checks `DdIx4` add, sub, mul and `mul_add` lane-wise against
/// the scalar `DdI` ops, under the given backend.
fn check_dd_lanes(bk: Backend, a: [DdI; 4], b: [DdI; 4]) -> Result<(), TestCaseError> {
    let want: Vec<[DdI; 4]> =
        (0..4).map(|i| [a[i] + b[i], a[i] - b[i], a[i] * b[i], a[i] * b[i] + a[i]]).collect();
    let got4 = with_backend(bk, || {
        let (va, vb) = (DdIx4::from_lanes(a), DdIx4::from_lanes(b));
        [va + vb, va - vb, va * vb, va.mul_add(vb, va)]
    });
    for (k, op) in ["add", "sub", "mul", "mul_add"].iter().enumerate() {
        for i in 0..4 {
            let ctx = format!("{bk:?} lane {i}: a={} b={}", a[i], b[i]);
            prop_assert!(dd_same(got4[k].lane(i), want[i][k]), "ddx4 {op} {ctx}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn dd_vector_ops_bit_identical_all_backends(
        a0 in dd_iv(), a1 in dd_iv(), a2 in dd_iv(), a3 in dd_iv(),
        b0 in dd_iv(), b1 in dd_iv(), b2 in dd_iv(), b3 in dd_iv(),
    ) {
        for bk in backends() {
            check_dd_lanes(bk, [a0, a1, a2, a3], [b0, b1, b2, b3])?;
        }
    }
}
