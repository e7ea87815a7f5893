//! Bit-identity of the packed lane types against the scalar interval
//! operations, across every backend the host supports.
//!
//! Every check runs each `SweepOp` through `LaneOps::sweep`, the one
//! hook the VM calls, and compares every lane with the scalar op bit for
//! bit — including NaN, infinite, subnormal and signed-zero endpoints,
//! which the random generators produce and the deterministic grid
//! guarantees. This suite forces each backend in turn (portable, and
//! AVX2+FMA where detected): on AVX2+FMA `F64Ix4` runs add, sub, mul and
//! the fused forms as one `simd::f64i_sweep_4` call per sweep and
//! `DdIx4` its packed double-double kernels; forced portable takes the
//! group-by-group loop over `LaneOps::apply`.
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

/// The ops every check runs: each `SweepOp`, and `Pow` at more
/// exponents.
fn ops() -> Vec<SweepOp> {
    let pows = [-3, 0, 1, 2].map(SweepOp::Pow);
    SweepOp::ALL.into_iter().chain(pows).collect()
}

fn f64_bits(x: F64I) -> Vec<u64> {
    vec![x.neg_lo().to_bits(), x.hi().to_bits()]
}

/// One sweep of `op` through `L::sweep` under backend `bk`: `n` groups
/// from the sources at bank offsets `[a, b, acc]` into offset `dst`,
/// against the scalar op on the bank as it was: the written groups lane
/// by lane, every other slot unchanged. `bits` names an element's words.
fn check_sweep<L: LaneOps>(
    bk: Backend,
    bank: &[L],
    op: SweepOp,
    [dst, a, b, acc]: [usize; 4],
    n: usize,
    bits: fn(L::Elem) -> Vec<u64>,
) -> Result<(), TestCaseError>
where
    L::Elem: LaneOps<Elem = L::Elem> + core::fmt::Display,
{
    let mut got = bank.to_vec();
    with_backend(bk, || L::sweep(op, &mut got, n, dst, [a, b, acc]));
    for (k, v) in got.iter().enumerate() {
        for l in 0..L::LANES {
            let want = if (dst..dst + n).contains(&k) {
                let g = k - dst;
                let src = [bank[a + g].lane(l), bank[b + g].lane(l), bank[acc + g].lane(l)];
                <L::Elem as LaneOps>::apply(op, src)
            } else {
                bank[k].lane(l)
            };
            prop_assert!(
                bits(v.lane(l)) == bits(want),
                "{op:?} into {dst} from {:?} n {n} under {bk:?}: slot {k} lane {l}: \
                 got {}, want {want}",
                [a, b, acc],
                v.lane(l)
            );
        }
    }
    Ok(())
}

/// Every op on one group, `a` and `b` the operands and `a` the
/// accumulator.
fn check_group<L: LaneOps>(
    bk: Backend,
    [a, b]: [L; 2],
    bits: fn(L::Elem) -> Vec<u64>,
) -> Result<(), TestCaseError>
where
    L::Elem: LaneOps<Elem = L::Elem> + core::fmt::Display,
{
    for op in ops() {
        check_sweep(bk, &[a, b, a, L::default()], op, [3, 0, 1, 2], 1, bits)?;
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
        let group = [[a0, a1, a2, a3], [b0, b1, b2, b3]].map(F64Ix4::from_lanes);
        for bk in backends() {
            check_group(bk, group, f64_bits)?;
        }
    }
}

/// Registers in the sweep banks below, and groups per register.
const SWEEP_REGS: usize = 4;
const SWEEP_TILE: usize = 3;

/// A bank of `SWEEP_REGS` registers of `SWEEP_TILE` groups, its lanes
/// drawn from `items` in turn.
fn bank_of<L: LaneOps>(items: &[L::Elem]) -> Vec<L> {
    (0..SWEEP_REGS * SWEEP_TILE)
        .map(|k| L::from_lanes_fn(|l| items[(L::LANES * k + l) % items.len()]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `LaneOps::sweep` equals the scalar op for every op, any register
    /// aliasing and every backend, at `F64Ix4` and at `DdIx4`.
    #[test]
    fn sweep_hook_bit_identical_all_backends(
        items in prop::collection::vec(iv_any(), 4..64),
        dd_items in prop::collection::vec(dd_iv(), 4..32),
        op in 0..ops().len(),
        dst in 0usize..SWEEP_REGS,
        a in 0usize..SWEEP_REGS,
        b in 0usize..SWEEP_REGS,
        acc in 0usize..SWEEP_REGS,
        n in 0usize..SWEEP_TILE + 1,
    ) {
        let regs = [dst, a, b, acc].map(|r| r * SWEEP_TILE);
        let (f64_bank, dd_bank) = (bank_of::<F64Ix4>(&items), bank_of::<DdIx4>(&dd_items));
        for bk in backends() {
            check_sweep(bk, &f64_bank, ops()[op], regs, n, f64_bits)?;
            check_sweep(bk, &dd_bank, ops()[op], regs, n, dd_bits)?;
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
                    if let Err(e) = check_group(bk, [a, b].map(F64Ix4::from_lanes), f64_bits) {
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

fn dd_bits(x: DdI) -> Vec<u64> {
    let (nl, h) = (x.neg_lo(), x.hi());
    [nl.hi(), nl.lo(), h.hi(), h.lo()].map(f64::to_bits).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn dd_vector_ops_bit_identical_all_backends(
        a0 in dd_iv(), a1 in dd_iv(), a2 in dd_iv(), a3 in dd_iv(),
        b0 in dd_iv(), b1 in dd_iv(), b2 in dd_iv(), b3 in dd_iv(),
    ) {
        let group = [[a0, a1, a2, a3], [b0, b1, b2, b3]].map(DdIx4::from_lanes);
        for bk in backends() {
            check_group(bk, group, dd_bits)?;
        }
    }
}
