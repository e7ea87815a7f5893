//! Directed-rounding kernels for the binary64 basic operations.
//!
//! Each upward kernel computes the round-to-nearest result, determines the
//! exact sign of the rounding error through an error-free transformation,
//! and corrects by one ulp when the nearest result fell below the exact
//! value. Downward kernels use `RD(x ∘ y) = -RU((-x) ∘ (-y))` (Section II
//! of the paper). Square root, which has no negation identity, implements
//! both directions directly.
//!
//! # Exactness contract
//!
//! * Results are bit-exact IEEE directed rounding whenever the operation's
//!   EFT is valid (finite inputs, result magnitude above the documented
//!   thresholds).
//! * In the deep-subnormal range (thresholds noted per function) a
//!   conservative one-quantum widening is applied instead: the result is
//!   still a *sound* bound, at most 2^-1074 away from the exact directed
//!   rounding.
//! * NaNs propagate; IEEE special values follow the interval conventions of
//!   Section IV-A of the paper.

use crate::eft::{two_prod, two_sum};
use crate::ulp::{exponent, next_down, next_up};

/// Telemetry counters for the scalar rounding kernels (zero-sized no-ops
/// unless the `telemetry` feature is enabled):
///
/// * `round.ulp_bumps` — directed one-ulp corrections applied on the
///   scalar hot path (the packed kernels bump in-register and are
///   counted separately via `simd.*`);
/// * `round.specials` — slow-path NaN/±∞/exact-special returns;
/// * `round.widenings` — conservative sound widenings: overflow
///   saturation to ±MAX, underflow to one quantum, `next_up` fallbacks.
pub(crate) mod tel {
    use igen_telemetry::Counter;

    pub static ULP_BUMPS: Counter = Counter::new("round.ulp_bumps");
    pub static SPECIALS: Counter = Counter::new("round.specials");
    pub static WIDENINGS: Counter = Counter::new("round.widenings");
}

/// `2^n` for |n| <= 1023, constructed exactly from bits.
#[inline]
fn pow2(n: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&n));
    f64::from_bits(((1023 + n) as u64) << 52)
}

/// Exact scaling `x * 2^n`, valid when the result stays finite and the
/// scaling path does not pass through underflow (our callers scale
/// monotonically toward magnitude ~1).
fn scale2(mut x: f64, mut n: i64) -> f64 {
    while n > 1000 {
        x *= pow2(1000);
        n -= 1000;
    }
    while n < -1000 {
        x *= pow2(-1000);
        n += 1000;
    }
    if n != 0 {
        x *= pow2(n);
    }
    x
}

/// Branch-free directed bump: steps `s` one value toward +∞ when `up`
/// holds, using the monotone signed-integer encoding of the float order.
/// Valid for every finite `s` (stepping past ±MAX yields ±∞, which is the
/// correct directed rounding there); `up` must be false for NaN `s`.
#[inline(always)]
fn bump_up(s: f64, up: bool) -> f64 {
    if up {
        tel::ULP_BUMPS.inc();
    }
    let bits = s.to_bits() as i64;
    let mask = (((bits >> 63) as u64) >> 1) as i64;
    let key = (bits ^ mask).wrapping_add(up as i64);
    let mask2 = (((key >> 63) as u64) >> 1) as i64;
    f64::from_bits((key ^ mask2) as u64)
}

/// Sign of `a*b - p` for finite nonzero `a`, `b` and `p = RN(a*b)`, robust
/// to underflow of the product. Scales both operands into `[1, 2)`, where
/// the FMA residual is exact, and compares in the scaled domain.
fn mul_residual_sign(a: f64, b: f64, p: f64) -> i32 {
    let k1 = -(exponent(a) as i64);
    let k2 = -(exponent(b) as i64);
    let a_s = scale2(a, k1);
    let b_s = scale2(b, k2);
    let p_s = a_s * b_s; // in ±[1, 4), exact EFT applies
    let e = a_s.mul_add(b_s, -p_s);
    // p scaled back into the same domain; exact because |p * 2^(k1+k2)|
    // lands in ±[0, 8] and p's significand is preserved by 2^k scaling.
    let p2 = scale2(p, k1 + k2);
    let t = p2 - p_s; // exact: p2 and p_s agree to within one ulp
    let d = e - t; // sign-exact in the normal range
    if d > 0.0 {
        1
    } else if d < 0.0 {
        -1
    } else {
        0
    }
}

/// Upward-rounded addition: returns `RU(a + b)` exactly for all finite
/// inputs (the TwoSum EFT is valid across the whole range, including
/// subnormals).
///
/// # Example
///
/// ```
/// use igen_round::add_ru;
/// assert!(add_ru(0.1, 0.2) > 0.1 + 0.2 - f64::EPSILON);
/// assert_eq!(add_ru(1.0, 1.0), 2.0); // exact sums are untouched
/// ```
#[inline]
pub fn add_ru(a: f64, b: f64) -> f64 {
    // Hot path: branch-free TwoSum + branch-free bump. The single guard
    // branch below is all-but-never taken on real data, so it predicts
    // perfectly — this is what preserves the paper's "branch-free
    // interval arithmetic" performance property on the software-rounding
    // substrate.
    let (s, e) = two_sum(a, b);
    if s.is_finite() && e.is_finite() {
        return bump_up(s, e > 0.0);
    }
    add_ru_slow(a, b, s)
}

#[cold]
fn add_ru_slow(a: f64, b: f64, s: f64) -> f64 {
    if !s.is_finite() {
        if s.is_nan() {
            // Invalid or NaN operand. The canonical NaN, not `s`: which
            // operand's payload `a + b` keeps depends on whether LLVM
            // commuted the add at this inlining site. Any NaN is an
            // unknown bound, so the choice is sound.
            tel::SPECIALS.inc();
            return f64::NAN;
        }
        if a.is_infinite() || b.is_infinite() {
            tel::SPECIALS.inc();
            return s; // exact infinity
        }
        // Finite operands overflowed under RN.
        tel::WIDENINGS.inc();
        return if s == f64::INFINITY { f64::INFINITY } else { -f64::MAX };
    }
    // Intermediate overflow inside TwoSum (|s| close to MAX): widen.
    tel::WIDENINGS.inc();
    next_up(s)
}

/// Downward-rounded addition: `RD(a + b)`, exact for all finite inputs.
///
/// Note the IEEE sign-of-zero rule: `add_rd(1.0, -1.0)` is `-0.0`.
#[inline]
pub fn add_rd(a: f64, b: f64) -> f64 {
    -add_ru(-a, -b)
}

/// Upward-rounded subtraction: `RU(a - b)`.
#[inline]
pub fn sub_ru(a: f64, b: f64) -> f64 {
    add_ru(a, -b)
}

/// Downward-rounded subtraction: `RD(a - b)`.
#[inline]
pub fn sub_rd(a: f64, b: f64) -> f64 {
    -add_ru(-a, b)
}

/// Upward-rounded multiplication: returns `RU(a * b)`.
///
/// Bit-exact everywhere, including products that underflow to the
/// subnormal range (handled by exact rescaling).
///
/// # Example
///
/// ```
/// use igen_round::{mul_ru, mul_rd};
/// let lo = mul_rd(0.1, 0.1);
/// let hi = mul_ru(0.1, 0.1);
/// assert!(lo < hi); // 0.01 is not exactly representable
/// assert_eq!(mul_ru(0.5, 8.0), 4.0); // exact products are untouched
/// ```
pub fn mul_ru(a: f64, b: f64) -> f64 {
    // Hot path: the FMA residual is exact whenever |p| is comfortably
    // normal; one predictable guard branch.
    let p = a * b;
    let e = a.mul_add(b, -p);
    if p.abs() >= FMA_RESIDUAL_EXACT_MIN && p.abs() <= f64::MAX && e.is_finite() {
        return bump_up(p, e > 0.0);
    }
    mul_ru_slow(a, b, p)
}

#[cold]
fn mul_ru_slow(a: f64, b: f64, p: f64) -> f64 {
    if p.is_nan() {
        tel::SPECIALS.inc();
        return p;
    }
    if p.is_infinite() {
        if a.is_infinite() || b.is_infinite() {
            tel::SPECIALS.inc();
            return p; // exact infinity
        }
        tel::WIDENINGS.inc();
        return if p == f64::INFINITY { f64::INFINITY } else { -f64::MAX };
    }
    if p == 0.0 {
        if a == 0.0 || b == 0.0 {
            return p; // exact zero, RN sign convention matches RU
        }
        // Underflow to zero from nonzero operands.
        tel::WIDENINGS.inc();
        return if (a > 0.0) == (b > 0.0) { f64::from_bits(1) } else { -0.0 };
    }
    // Tiny or subnormal product: exact scaled residual test.
    match mul_residual_sign(a, b, p) {
        1 => next_up(p),
        _ => p,
    }
}

/// The FMA residual `a*b - p` is exactly representable only when its
/// quantum `2^(ea+eb-104)` stays in range, i.e. for `|p| >= 2^-967`;
/// below that the residual can round to zero and lose its sign.
pub(crate) const FMA_RESIDUAL_EXACT_MIN: f64 = 2.5e-291; // > 2^-966

/// Downward-rounded multiplication: `RD(a * b)`, bit-exact (see
/// [`mul_ru`]).
#[inline]
pub fn mul_rd(a: f64, b: f64) -> f64 {
    -mul_ru(-a, b)
}

/// Paired upward products: returns `(RU(a*b), RU(-(a*b)))` with a single
/// product and residual — the workhorse of the branch-free interval
/// multiplication (all eight directed products of Section II cost four
/// multiplications and four FMAs this way).
#[inline]
pub fn mul_ru_both(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    if p.abs() >= FMA_RESIDUAL_EXACT_MIN && p.abs() <= f64::MAX && e.is_finite() {
        return (bump_up(p, e > 0.0), bump_up(-p, e < 0.0));
    }
    (mul_ru(a, b), mul_ru(-a, b))
}

/// Paired upward quotients: returns `(RU(a/b), RU(-(a/b)))` with a single
/// division and residual.
#[inline]
pub fn div_ru_both(a: f64, b: f64) -> (f64, f64) {
    let q = a / b;
    if q.abs() >= f64::MIN_POSITIVE
        && q.abs() <= f64::MAX
        && a.abs() >= DIV_EXACT_MIN_A
        && a.abs() <= f64::MAX
    {
        let (h, l) = two_prod(q, b);
        if h.abs() >= f64::MIN_POSITIVE && h.abs() <= f64::MAX {
            let r = (a - h) - l;
            let up = if b > 0.0 { r > 0.0 } else { r < 0.0 };
            let dn = if b > 0.0 { r < 0.0 } else { r > 0.0 };
            return (bump_up(q, up), bump_up(-q, dn));
        }
    }
    (div_ru(a, b), div_ru(-a, b))
}

/// Threshold below which the division EFT may lose the residual sign;
/// dividends smaller than this use the conservative path.
pub(crate) const DIV_EXACT_MIN_A: f64 = 1e-270;

/// Upward-rounded division: returns `RU(a / b)`.
///
/// Bit-exact when `|a| >= 1e-270` and the quotient is normal; otherwise a
/// sound one-quantum-widened bound is returned. Division by zero follows
/// IEEE (`±∞` by sign); the interval layer gives these the Section IV-A
/// semantics.
pub fn div_ru(a: f64, b: f64) -> f64 {
    // Hot path: quotient and dividend comfortably normal.
    let q = a / b;
    if q.abs() >= f64::MIN_POSITIVE
        && q.abs() <= f64::MAX
        && a.abs() >= DIV_EXACT_MIN_A
        && a.abs() <= f64::MAX
    {
        let (h, l) = two_prod(q, b);
        if h.abs() >= f64::MIN_POSITIVE && h.abs() <= f64::MAX {
            let r = (a - h) - l;
            let up = if b > 0.0 { r > 0.0 } else { r < 0.0 };
            return bump_up(q, up);
        }
    }
    div_ru_slow(a, b, q)
}

#[cold]
fn div_ru_slow(a: f64, b: f64, q: f64) -> f64 {
    if q.is_nan() || b == 0.0 {
        tel::SPECIALS.inc();
        return q;
    }
    if q.is_infinite() {
        if a.is_infinite() {
            tel::SPECIALS.inc();
            return q; // exact
        }
        tel::WIDENINGS.inc();
        return if q == f64::INFINITY { f64::INFINITY } else { -f64::MAX };
    }
    if q == 0.0 {
        if a == 0.0 || b.is_infinite() {
            // a == 0: exact. b infinite with finite a: exact limit? No —
            // finite/∞ is exactly 0 only in the limit; as an interval bound
            // the true quotient of any finite a by ∞-bounded b is 0 only
            // when reached; IEEE defines finite/∞ = 0 exactly, keep it.
            return q;
        }
        // Underflow toward zero from nonzero finite operands.
        tel::WIDENINGS.inc();
        return if (a > 0.0) == (b > 0.0) { f64::from_bits(1) } else { -0.0 };
    }
    if b.is_infinite() {
        // Finite nonzero a: IEEE quotient is ±0 handled above; q nonzero
        // cannot happen. Defensive:
        return q;
    }
    let exact_ok = q.abs() >= f64::MIN_POSITIVE && a.abs() >= DIV_EXACT_MIN_A;
    if exact_ok {
        // r = a - q*b computed exactly: a - h is exact by Sterbenz (h is
        // within one rounding of a), then the l correction keeps the sign
        // (the quantum stays normal thanks to the |a| threshold). When q*b
        // overflows (|a| near MAX), evaluate at half scale — exact because
        // both a and b here are normal.
        let r = {
            let (h, l) = two_prod(q, b);
            if h.is_finite() && h.abs() >= f64::MIN_POSITIVE {
                (a - h) - l
            } else {
                let (h2, l2) = two_prod(q, b * 0.5);
                (a * 0.5 - h2) - l2
            }
        };
        // exact quotient = q + r/b  =>  direction depends on sign(r/b).
        let up = if b > 0.0 { r > 0.0 } else { r < 0.0 };
        return if up { next_up(q) } else { q };
    }
    // Conservative sound fallback.
    next_up(q)
}

/// Downward-rounded division: `RD(a / b)`; see [`div_ru`] for exactness.
#[inline]
pub fn div_rd(a: f64, b: f64) -> f64 {
    -div_ru(-a, b)
}

/// Threshold below which the square-root EFT may lose exactness.
pub(crate) const SQRT_EXACT_MIN_A: f64 = 1e-290;

/// Upward-rounded square root: returns `RU(sqrt(a))`.
///
/// Bit-exact for `a >= 1e-290`; smaller positive values get a sound
/// one-quantum widening. `sqrt` of a negative value returns NaN (the
/// interval layer interprets this per Section IV-A, e.g.
/// `sqrt([-1, 1]) = [NaN, 1]`).
pub fn sqrt_ru(a: f64) -> f64 {
    let s = a.sqrt();
    if a >= SQRT_EXACT_MIN_A && s <= f64::MAX {
        let r = s.mul_add(s, -a);
        return bump_up(s, r < 0.0);
    }
    if !s.is_finite() || s == 0.0 {
        return s; // NaN, +inf, ±0 are all exact
    }
    next_up(s)
}

/// Downward-rounded square root: returns `RD(sqrt(a))`; see [`sqrt_ru`].
pub fn sqrt_rd(a: f64) -> f64 {
    let s = a.sqrt();
    if a >= SQRT_EXACT_MIN_A && s <= f64::MAX {
        let r = s.mul_add(s, -a);
        // Downward bump: mirror through negation.
        return -bump_up(-s, r > 0.0);
    }
    if !s.is_finite() || s == 0.0 {
        return s;
    }
    next_down(s).max(0.0)
}

/// Upward-rounded fused multiply-add: returns `RU(a * b + c)`.
///
/// Uses the Boldo–Muller `ErrFma` error decomposition; bit-exact when all
/// EFT intermediates stay normal, conservatively widened by one quantum
/// otherwise.
pub fn fma_ru(a: f64, b: f64, c: f64) -> f64 {
    let r = a.mul_add(b, c);
    if !r.is_finite() {
        if r.is_nan() || a.is_infinite() || b.is_infinite() || c.is_infinite() {
            return r;
        }
        return if r == f64::INFINITY { f64::INFINITY } else { -f64::MAX };
    }
    let (u1, u2) = two_prod(a, b);
    // Guard against underflow invalidating the product EFT: a zero product
    // is only exact when one operand is zero, and the residual quantum
    // must stay representable (see mul_ru's threshold).
    let prod_ok = (u1 == 0.0 && (a == 0.0 || b == 0.0)) || u1.abs() >= 2.5e-291;
    if prod_ok && u1.is_finite() {
        let (a1, a2) = two_sum(c, u2);
        let (b1, b2) = two_sum(u1, a1);
        let g = (b1 - r) + b2;
        let (e1, e2) = crate::eft::fast_two_sum(g, a2);
        if e1.is_finite() && e2.is_finite() {
            let sign = if e1 != 0.0 { e1 } else { e2 };
            return if sign > 0.0 { next_up(r) } else { r };
        }
    }
    next_up(r)
}

/// Downward-rounded fused multiply-add: `RD(a * b + c)`.
#[inline]
pub fn fma_rd(a: f64, b: f64, c: f64) -> f64 {
    -fma_ru(-a, b, -c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_directed_brackets_exact_sum() {
        let cases =
            [(0.1, 0.2), (1.0, f64::EPSILON / 4.0), (1e16, 1.0), (-1e16, 3.0), (1e-300, -1e-320)];
        for (a, b) in cases {
            let lo = add_rd(a, b);
            let hi = add_ru(a, b);
            let (s, e) = two_sum(a, b);
            assert!(lo <= s && s <= hi, "({a}, {b})");
            // Width is at most one ulp and the exact sum s+e is inside.
            if e > 0.0 {
                assert_eq!(hi, next_up(s), "({a}, {b})");
                assert_eq!(lo, s);
            } else if e < 0.0 {
                assert_eq!(lo, next_down(s), "({a}, {b})");
                assert_eq!(hi, s);
            } else {
                assert_eq!(lo, hi);
            }
        }
    }

    /// `a + b` keeps one NaN operand's payload, and which one depends on
    /// the operand order LLVM picks at each inlining site; a NaN sum is
    /// the canonical NaN whatever the order. The pair (NaN payload, the
    /// canonical NaN) is the hi column of an `[inf, NaN]` lane under
    /// `x * y + x`, which once made the packed and scalar `mul_add`
    /// differ in release builds.
    #[test]
    fn nan_sums_are_canonical_in_either_operand_order() {
        let p = f64::from_bits(0x7ff8_0000_dead_beef);
        let q = f64::from_bits(0xfff8_0000_0000_0002);
        let cases = [
            (p, f64::NAN),
            (p, q),
            (p, 1.0),
            (p, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
        ];
        for (a, b) in cases {
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(add_ru(x, y).to_bits(), f64::NAN.to_bits(), "add_ru({x:?}, {y:?})");
                assert_eq!(add_rd(x, y).to_bits(), (-f64::NAN).to_bits(), "add_rd({x:?}, {y:?})");
            }
        }
        // Infinite sums stay exact.
        assert_eq!(add_ru(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(add_ru(-1.0, f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn add_exact_cases_stay_points() {
        for (a, b) in [(1.0, 2.0), (0.5, 0.25), (-3.0, 3.0), (1e300, 1e300)] {
            assert_eq!(add_ru(a, b), a + b);
            assert_eq!(add_rd(a, b), a + b);
        }
    }

    #[test]
    fn add_signed_zero_convention() {
        // Exact zero sum: +0 under RU/RN, -0 under RD.
        let ru = add_ru(1.0, -1.0);
        let rd = add_rd(1.0, -1.0);
        assert_eq!(ru, 0.0);
        assert!(ru.is_sign_positive());
        assert_eq!(rd, 0.0);
        assert!(rd.is_sign_negative());
    }

    #[test]
    fn add_overflow() {
        assert_eq!(add_ru(f64::MAX, f64::MAX), f64::INFINITY);
        assert_eq!(add_rd(f64::MAX, f64::MAX), f64::MAX);
        assert_eq!(add_rd(-f64::MAX, -f64::MAX), f64::NEG_INFINITY);
        assert_eq!(add_ru(-f64::MAX, -f64::MAX), -f64::MAX);
        assert_eq!(add_ru(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(add_rd(f64::NEG_INFINITY, 1.0), f64::NEG_INFINITY);
        assert!(add_ru(f64::INFINITY, f64::NEG_INFINITY).is_nan());
    }

    #[test]
    fn add_two_sum_intermediate_overflow() {
        // RN(MAX - 3·2^970) rounds a tie up to the finite MAX - 2^971,
        // but TwoSum's `s - b` is then MAX + 2^970, a tie that rounds to
        // +inf: the error is NaN and `add_ru` widens to `next_up(s)`.
        let b = -3.0 * pow2(970);
        let s = f64::MAX + b;
        assert_eq!(s, next_down(f64::MAX));
        assert!(two_sum(f64::MAX, b).1.is_nan());
        assert_eq!(add_ru(f64::MAX, b), f64::MAX);
        assert_eq!(add_rd(-f64::MAX, -b), -f64::MAX);
        // In the other operand order TwoSum stays exact (error -2^970).
        assert_eq!(two_sum(b, f64::MAX), (s, -pow2(970)));
        assert_eq!(add_ru(b, f64::MAX), s);
    }

    #[test]
    fn mul_directed_one_third_squared() {
        let x = 1.0 / 3.0;
        let lo = mul_rd(x, x);
        let hi = mul_ru(x, x);
        assert!(lo < hi);
        assert_eq!(next_up(lo), hi); // exactly one ulp apart
        let p = x * x;
        assert!(lo == p || hi == p);
    }

    #[test]
    fn mul_exact_cases_stay_points() {
        for (a, b) in [(2.0, 4.0), (0.5, -0.125), (1.5, 3.0), (0.0, 5.0)] {
            assert_eq!(mul_ru(a, b), a * b);
            assert_eq!(mul_rd(a, b), a * b);
        }
    }

    #[test]
    fn mul_underflow_is_sound_and_tight() {
        let tiny = f64::MIN_POSITIVE; // 2^-1022
                                      // tiny * 2^-53: exact value 2^-1075, below half quantum: RN -> 0.
        let p_ru = mul_ru(tiny, pow2(-53));
        let p_rd = mul_rd(tiny, pow2(-53));
        assert_eq!(p_ru, f64::from_bits(1));
        assert_eq!(p_rd, 0.0);
        // Negative mirror.
        let n_ru = mul_ru(-tiny, pow2(-53));
        let n_rd = mul_rd(-tiny, pow2(-53));
        assert_eq!(n_rd, -f64::from_bits(1));
        assert_eq!(n_ru, 0.0);
        assert!(n_ru.is_sign_negative());
        // Exact subnormal product stays a point.
        let sub = f64::from_bits(1 << 10);
        assert_eq!(mul_ru(sub, 2.0), mul_rd(sub, 2.0));
        assert_eq!(mul_ru(sub, 2.0), sub * 2.0);
    }

    #[test]
    fn mul_overflow() {
        assert_eq!(mul_ru(1e300, 1e300), f64::INFINITY);
        assert_eq!(mul_rd(1e300, 1e300), f64::MAX);
        assert_eq!(mul_ru(-1e300, 1e300), -f64::MAX);
        assert_eq!(mul_rd(-1e300, 1e300), f64::NEG_INFINITY);
        assert_eq!(mul_ru(f64::INFINITY, 2.0), f64::INFINITY);
        assert!(mul_ru(f64::INFINITY, 0.0).is_nan());
    }

    #[test]
    fn div_directed_brackets() {
        let lo = div_rd(1.0, 3.0);
        let hi = div_ru(1.0, 3.0);
        assert!(lo < hi);
        assert_eq!(next_up(lo), hi);
        // lo * 3 <= 1 <= hi * 3 in exact arithmetic:
        assert!(mul_rd(lo, 3.0) <= 1.0);
        assert!(mul_ru(hi, 3.0) >= 1.0);
        assert_eq!(div_ru(1.0, 4.0), 0.25);
        assert_eq!(div_rd(1.0, 4.0), 0.25);
        assert_eq!(div_ru(-1.0, 3.0), -div_rd(1.0, 3.0));
    }

    #[test]
    fn div_by_zero_and_infinity() {
        assert_eq!(div_ru(1.0, 0.0), f64::INFINITY);
        assert_eq!(div_ru(-1.0, 0.0), f64::NEG_INFINITY);
        assert!(div_ru(0.0, 0.0).is_nan());
        assert_eq!(div_ru(1.0, f64::INFINITY), 0.0);
        assert_eq!(div_rd(1.0, f64::INFINITY), -0.0_f64.abs()); // = 0.0 value-wise
        assert_eq!(div_ru(f64::INFINITY, 2.0), f64::INFINITY);
    }

    #[test]
    fn sqrt_directed() {
        let lo = sqrt_rd(2.0);
        let hi = sqrt_ru(2.0);
        assert!(lo < hi);
        assert_eq!(next_up(lo), hi);
        assert!(mul_rd(lo, lo) <= 2.0 && 2.0 <= mul_ru(hi, hi));
        assert_eq!(sqrt_ru(4.0), 2.0);
        assert_eq!(sqrt_rd(4.0), 2.0);
        assert_eq!(sqrt_ru(0.0), 0.0);
        assert!(sqrt_ru(-1.0).is_nan());
        assert_eq!(sqrt_ru(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn fma_directed() {
        // 0.1 * 0.1 - 0.01: tiny nonzero exact value.
        let r_ru = fma_ru(0.1, 0.1, -0.01);
        let r_rd = fma_rd(0.1, 0.1, -0.01);
        assert!(r_rd <= r_ru);
        let rn = 0.1f64.mul_add(0.1, -0.01);
        assert!(r_rd <= rn && rn <= r_ru);
        // Exact case.
        assert_eq!(fma_ru(2.0, 3.0, 4.0), 10.0);
        assert_eq!(fma_rd(2.0, 3.0, 4.0), 10.0);
    }

    #[test]
    fn directed_monotonicity_small_grid() {
        // RU >= RN >= RD on a deterministic grid of awkward values.
        let vals = [
            0.1,
            -0.1,
            1.0 / 3.0,
            -1.0 / 7.0,
            1e-5,
            1e5,
            3.25,
            -2.75,
            1e-160,
            -1e160,
            f64::MIN_POSITIVE,
            6.02e23,
        ];
        for &a in &vals {
            for &b in &vals {
                let (rn_add, rn_mul, rn_div) = (a + b, a * b, a / b);
                assert!(add_rd(a, b) <= rn_add && rn_add <= add_ru(a, b), "add {a} {b}");
                assert!(mul_rd(a, b) <= rn_mul && rn_mul <= mul_ru(a, b), "mul {a} {b}");
                if b != 0.0 {
                    assert!(div_rd(a, b) <= rn_div && rn_div <= div_ru(a, b), "div {a} {b}");
                }
            }
        }
    }
}
