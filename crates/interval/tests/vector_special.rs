//! Special-value lane coverage for the vector types with the portable
//! fallback pinned.
//!
//! This suite is deliberately independent of the SIMD bit-identity
//! tests: it forces `Backend::Portable` for every check, so the
//! lane-loop fallback's handling of NaN, infinite, subnormal and
//! signed-zero endpoints is pinned on every host — including ones where
//! no packed backend exists and `simd_bitident` would only ever see the
//! portable path incidentally. It also covers the `DdIx4` lane type on
//! every backend: its add, sub and mul run the packed
//! double-double kernels on AVX2+FMA (with scalar patches for flagged
//! lanes) and lane loops on forced portable.
//!
//! The backend override is process-global, so every pinned section takes
//! a mutex; no other test in this binary touches the lane types outside
//! of it.

use igen_dd::Dd;
use igen_interval::{DdI, DdIx4, F64Ix4, LaneOps, F64I};
use igen_round::simd::{self, Backend};
use igen_round::Ru;
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// Serializes `force_backend` sections (the override is process-global).
static PIN_LOCK: Mutex<()> = Mutex::new(());

fn pinned<T>(bk: Backend, f: impl FnOnce() -> T) -> T {
    let _guard = PIN_LOCK.lock().unwrap();
    simd::force_backend(Some(bk));
    let out = f();
    simd::force_backend(None);
    out
}

fn pinned_portable<T>(f: impl FnOnce() -> T) -> T {
    pinned(Backend::Portable, f)
}

/// Every backend the host supports, widest last.
fn backends() -> Vec<Backend> {
    [Backend::Portable, Backend::Avx2Fma]
        .into_iter()
        .filter(|&bk| bk <= simd::detected_backend())
        .collect()
}

fn same(got: F64I, want: F64I) -> bool {
    got.neg_lo().to_bits() == want.neg_lo().to_bits() && got.hi().to_bits() == want.hi().to_bits()
}

/// Endpoint catalogue skewed towards IEEE edge cases.
fn special_endpoint() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(-1.5),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::MIN_POSITIVE),
        Just(-f64::MIN_POSITIVE),
        Just(f64::from_bits(1)),
        Just(-f64::from_bits(1)),
        Just(f64::from_bits(0x000f_ffff_ffff_ffff)),
        Just(f64::MAX),
        Just(-f64::MAX),
        any::<f64>(),
    ]
}

/// Intervals whose endpoints come from the special catalogue.
fn iv_special() -> impl Strategy<Value = F64I> {
    (special_endpoint(), special_endpoint()).prop_map(|(x, y)| {
        if x.is_nan() || y.is_nan() {
            F64I::from_neg_lo_hi(x, y)
        } else {
            F64I::new(x.min(y), x.max(y)).expect("ordered")
        }
    })
}

fn check_portable(a: [F64I; 4], b: [F64I; 4]) -> Result<(), TestCaseError> {
    let got = pinned_portable(|| {
        let va = F64Ix4::from_lanes(a);
        let vb = F64Ix4::from_lanes(b);
        (
            (va + vb, va - vb, va * vb, va / vb, va.mul_add(vb, va), -va),
            (va.sqrt(), va.abs(), va.sqr()),
        )
    });
    for i in 0..4 {
        let ctx = format!("portable lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got.0 .0.lane(i), a[i] + b[i]), "x4 add {ctx}");
        prop_assert!(same(got.0 .1.lane(i), a[i] - b[i]), "x4 sub {ctx}");
        prop_assert!(same(got.0 .2.lane(i), a[i] * b[i]), "x4 mul {ctx}");
        prop_assert!(same(got.0 .3.lane(i), a[i] / b[i]), "x4 div {ctx}");
        prop_assert!(same(got.0 .4.lane(i), a[i] * b[i] + a[i]), "x4 mul_add {ctx}");
        prop_assert!(same(got.0 .5.lane(i), -a[i]), "x4 neg {ctx}");
        prop_assert!(same(got.1 .0.lane(i), a[i].sqrt()), "x4 sqrt {ctx}");
        prop_assert!(same(got.1 .1.lane(i), a[i].abs()), "x4 abs {ctx}");
        prop_assert!(same(got.1 .2.lane(i), a[i].sqr()), "x4 sqr {ctx}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn portable_lane_ops_match_scalar_on_special_lanes(
        a0 in iv_special(), a1 in iv_special(), a2 in iv_special(), a3 in iv_special(),
        b0 in iv_special(), b1 in iv_special(), b2 in iv_special(), b3 in iv_special(),
    ) {
        check_portable([a0, a1, a2, a3], [b0, b1, b2, b3])?;
    }
}

/// Soundness shape checks the portable path must preserve on special
/// lanes: NaN endpoints poison only their own lane, and an interval
/// straddling zero makes only its own division lane unbounded/NaN.
#[test]
fn portable_special_lanes_stay_isolated() {
    let benign = F64I::new(2.0, 3.0).unwrap();
    for pos in 0..4 {
        let mut a = [benign; 4];
        a[pos] = F64I::NAI;
        let (sum, quot) = pinned_portable(|| {
            let va = F64Ix4::from_lanes(a);
            let vb = F64Ix4::splat(benign);
            (va + vb, vb / va)
        });
        for i in 0..4 {
            assert_eq!(sum.lane(i).has_nan(), i == pos, "add lane {i}, NaN at {pos}");
            assert_eq!(quot.lane(i).has_nan(), i == pos, "div lane {i}, NaN at {pos}");
        }

        let mut d = [benign; 4];
        d[pos] = F64I::new(-1.0, 1.0).unwrap();
        let quot = pinned_portable(|| F64Ix4::splat(benign) / F64Ix4::from_lanes(d));
        for i in 0..4 {
            let q = quot.lane(i);
            if i == pos {
                assert!(
                    q.hi().is_infinite() || q.has_nan(),
                    "zero-straddling divisor lane must be unbounded, got {q}"
                );
            } else {
                assert!(same(q, benign / benign), "lane {i} contaminated: {q}");
            }
        }
    }
}

/// Double-double intervals of width `ulp(x_lo)` around random
/// double-doubles in `[lo, hi)` — the paper's dd workload recipe (the
/// same as `igen_kernels::workload::dd_intervals_1ulp`), so every low
/// word is nonzero.
fn dd_intervals_1ulp(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<DdI> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let xh = rng.random_range(lo..hi);
            let xl = rng.random_range(-0.49..0.49) * igen_round::ulp(xh);
            let x = Dd::new(xh, xl);
            let w = igen_round::ulp(x.lo().abs().max(f64::MIN_POSITIVE));
            DdI::new(x, igen_dd::add_dir::<Ru>(x, Dd::from(w))).expect("ordered")
        })
        .collect()
}

/// The double-double special catalogue: every endpoint class the scalar
/// `DdI` ops branch on, plus the inputs that drive the packed kernels
/// off their hot path.
fn dd_special_values() -> Vec<DdI> {
    let raw = |nlh: f64, nll: f64, hh: f64, hl: f64| {
        DdI::from_neg_lo_hi(Dd::from_parts_unchecked(nlh, nll), Dd::from_parts_unchecked(hh, hl))
    };
    let mut vals = vec![
        DdI::point_f64(0.0),
        DdI::point_f64(-0.0),
        DdI::point_f64(1.0),
        DdI::point_f64(0.1),
        DdI::point_f64(f64::MIN_POSITIVE),
        DdI::point_f64(f64::from_bits(1)),
        DdI::point_f64(1e300),
        DdI::point_f64(f64::INFINITY),
        DdI::point_f64(f64::NAN),
        // Products below the 2.5e-291 FMA-residual guard (1e-150 ·
        // 1e-146, and the low words of the 1e-140 value), and products
        // near overflow (1.3e154² stays finite, 1.3e154 · 1.4e154 does
        // not), including a renormalization that overflows in `finish`.
        DdI::point_f64(1e-150),
        DdI::point_f64(-1e-146),
        DdI::point(Dd::new(1e-140, 3e-157)),
        DdI::point_f64(1.3e154),
        DdI::point_f64(-1.4e154),
        DdI::point(Dd::new(f64::MAX, 2f64.powi(968))),
        // `-0.0` low words.
        raw(-1.0, -0.0, 1.5, -0.0),
        raw(-0.0, -0.0, 0.0, -0.0),
        // (1 + 2^-52) · (1 - 2^-52) · 2^-1000: the rounded-up product is
        // 2^-1000, so the FMA residual of `two_prod_dir` is RN(-2^-1104)
        // = -0.0, and `fma_ru`'s guarded fallback steps it with
        // `next_up` to the smallest subnormal.
        DdI::point_f64(1.0 + f64::EPSILON),
        DdI::point_f64((1.0 - f64::EPSILON) * 2f64.powi(-1000)),
    ];
    // Non-point intervals with nonzero low words.
    vals.extend(dd_intervals_1ulp(5, 4, -2.0, 2.0));
    vals.extend(dd_intervals_1ulp(6, 2, 1e150, 1e152));
    vals
}

/// Double-double lane types: lane ops match scalar `DdI` ops bit for bit
/// on special values, on the detected backend (the packed add/sub/mul
/// kernels on AVX2+FMA) and on the portable lane loops.
#[test]
fn dd_lane_ops_match_scalar_on_special_values() {
    for bk in backends() {
        check_dd_specials(bk);
    }
}

/// Every pair of the dd special catalogue, rotated through every lane
/// position, under backend `bk`.
fn check_dd_specials(bk: Backend) {
    fn dd_bits(x: &DdI) -> [u64; 4] {
        [
            x.neg_lo().hi().to_bits(),
            x.neg_lo().lo().to_bits(),
            x.hi().hi().to_bits(),
            x.hi().lo().to_bits(),
        ]
    }
    let vals = dd_special_values();
    let benign = DdI::point_f64(2.0);
    for &x in &vals {
        for &y in &vals {
            for pos in 0..4 {
                let mut a = [benign; 4];
                let mut b = [benign; 4];
                a[pos] = x;
                b[pos] = y;
                let got = pinned(bk, || {
                    let va = DdIx4::from_lanes(a);
                    let vb = DdIx4::from_lanes(b);
                    (
                        (va + vb, va - vb, va * vb, va.mul_add(vb, va), -va),
                        (va.sqrt(), va.abs(), va.sqr()),
                    )
                });
                let ((s4, d4, p4, f4, n4), (q4, m4, r4)) = got;
                for i in 0..4 {
                    let ctx = format!("{bk} lane {i}: a={} b={}", a[i], b[i]);
                    let (ai, bi) = (a[i], b[i]);
                    assert_eq!(dd_bits(&s4.lane(i)), dd_bits(&(ai + bi)), "x4 add {ctx}");
                    assert_eq!(dd_bits(&d4.lane(i)), dd_bits(&(ai - bi)), "x4 sub {ctx}");
                    assert_eq!(dd_bits(&p4.lane(i)), dd_bits(&(ai * bi)), "x4 mul {ctx}");
                    let fma = ai * bi + ai;
                    assert_eq!(dd_bits(&f4.lane(i)), dd_bits(&fma), "x4 mul_add {ctx}");
                    assert_eq!(dd_bits(&n4.lane(i)), dd_bits(&-ai), "x4 neg {ctx}");
                    assert_eq!(dd_bits(&q4.lane(i)), dd_bits(&ai.sqrt()), "x4 sqrt {ctx}");
                    assert_eq!(dd_bits(&m4.lane(i)), dd_bits(&ai.abs()), "x4 abs {ctx}");
                    assert_eq!(dd_bits(&r4.lane(i)), dd_bits(&ai.sqr()), "x4 sqr {ctx}");
                }
            }
        }
    }
}
