//! The double-precision interval type `f64i` (Section IV-A).
//!
//! An interval is stored as the pair `(-lo, hi)` — the lower endpoint is
//! kept negated so that *both* endpoints round upward, which lets every
//! operation use a single rounding direction (Section II of the paper and
//! the classical trick of Goualard [23]). Addition costs two
//! upward-rounded additions; multiplication eight multiplications and six
//! comparisons, branch-free.

use crate::tbool::TBool;
use igen_round as r;

/// Error returned by [`F64I::new`] for invalid bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidInterval;

impl core::fmt::Display for InvalidInterval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid interval: lower endpoint exceeds upper endpoint")
    }
}

impl std::error::Error for InvalidInterval {}

/// A sound double-precision interval (`f64i` in the generated C).
///
/// NaN endpoints are legal and mean the bound is unknown (Section IV-A):
/// `sqrt([-1, 1]) = [NaN, 1]`. `[-∞, +∞]` means "any floating-point value
/// except NaN".
///
/// # Example
///
/// ```
/// use igen_interval::F64I;
/// let x = F64I::point(0.1);
/// let y = (x + x) + x;              // encloses the real 0.1(f64) * 3
/// assert!(y.contains(0.1 + 0.1 + 0.1));
/// assert!(y.width() > 0.0);         // rounding made it a true interval
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64I {
    /// The *negated* lower endpoint.
    neg_lo: f64,
    /// The upper endpoint.
    hi: f64,
}

// NaN-propagating maximum (unlike `f64::max`, which ignores NaN — that
// would silently drop invalid-operation information). The div formula
// selects its endpoints with it, and so does the mul formula, which
// lives beside the packed mul as `simd::mul_cols`.
use igen_round::simd::{self, max_nan};

/// `x^n` rounded down, for `x >= 0`: square-and-multiply where every
/// multiplication rounds down — all factors are nonnegative lower bounds
/// of the true intermediates, so the product chain stays a lower bound.
fn pow_abs_rd(x: f64, mut n: u32) -> f64 {
    debug_assert!(x >= 0.0);
    let mut base = x;
    let mut acc = 1.0f64;
    while n > 0 {
        if n & 1 == 1 {
            acc = r::mul_rd(acc, base);
        }
        n >>= 1;
        if n > 0 {
            base = r::mul_rd(base, base);
        }
    }
    acc
}

/// `x^n` rounded up, for `x >= 0` (see [`pow_abs_rd`]).
fn pow_abs_ru(x: f64, mut n: u32) -> f64 {
    debug_assert!(x >= 0.0);
    let mut base = x;
    let mut acc = 1.0f64;
    while n > 0 {
        if n & 1 == 1 {
            acc = r::mul_ru(acc, base);
        }
        n >>= 1;
        if n > 0 {
            base = r::mul_ru(base, base);
        }
    }
    acc
}

impl F64I {
    /// The interval `[0, 0]`.
    pub const ZERO: F64I = F64I { neg_lo: -0.0, hi: 0.0 };
    /// The interval `[1, 1]`.
    pub const ONE: F64I = F64I { neg_lo: -1.0, hi: 1.0 };
    /// The whole real line `[-∞, +∞]`.
    pub const ENTIRE: F64I = F64I { neg_lo: f64::INFINITY, hi: f64::INFINITY };
    /// The fully-unknown interval `[NaN, NaN]`.
    pub const NAI: F64I = F64I { neg_lo: f64::NAN, hi: f64::NAN };

    /// Creates `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidInterval`] if `lo > hi`. NaN bounds are accepted
    /// (unknown endpoints).
    pub fn new(lo: f64, hi: f64) -> Result<F64I, InvalidInterval> {
        if lo > hi {
            return Err(InvalidInterval);
        }
        Ok(F64I { neg_lo: -lo, hi })
    }

    /// The point interval `[x, x]` (`ia_set_f64(x, x)` in the runtime).
    pub fn point(x: f64) -> F64I {
        F64I { neg_lo: -x, hi: x }
    }

    /// Builds from the internal negated-low representation (used by the
    /// vector kernels; the caller asserts `-neg_lo <= hi`).
    #[inline]
    pub fn from_neg_lo_hi(neg_lo: f64, hi: f64) -> F64I {
        debug_assert!(
            neg_lo.is_nan() || hi.is_nan() || -neg_lo <= hi,
            "inverted interval: [{}, {hi}]",
            -neg_lo
        );
        F64I { neg_lo, hi }
    }

    /// The tightest interval around a value known with absolute tolerance
    /// `tol` — the `ia_set_tol_f64` runtime call backing the paper's
    /// `double:0.125` language extension (Fig. 3).
    pub fn with_tol(x: f64, tol: f64) -> F64I {
        let t = tol.abs();
        F64I { neg_lo: r::add_ru(-x, t), hi: r::add_ru(x, t) }
    }

    /// Sound enclosure `[next_down(v), next_up(v)]` of a decimal constant
    /// whose parsed binary64 value is `v` (Section IV-B): for a constant
    /// that is not exactly representable this contains its two
    /// neighbouring floats; for a representable non-integer constant it is
    /// the paper's 2-ulp enclosure centered at the value. The compiler
    /// uses [`F64I::point`] instead for integer-valued constants, which
    /// are exact.
    pub fn enclose_decimal(v: f64) -> F64I {
        F64I { neg_lo: -r::next_down(v), hi: r::next_up(v) }
    }

    /// An integer as an interval (`ia_set_int_f64`): the point `[x, x]`
    /// within the 53-bit significand, beyond it the two doubles around
    /// `x as f64`.
    pub fn from_i64(x: i64) -> F64I {
        let v = x as f64;
        if x.unsigned_abs() <= 1 << 53 {
            F64I::point(v)
        } else {
            F64I::enclose_decimal(v)
        }
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(&self) -> f64 {
        -self.neg_lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The negated lower endpoint — the raw representation (useful to the
    /// vector kernels and the benchmark harness).
    #[inline]
    pub fn neg_lo(&self) -> f64 {
        self.neg_lo
    }

    /// True if either endpoint is NaN (invalid operation happened).
    #[inline]
    #[must_use]
    pub fn has_nan(&self) -> bool {
        self.neg_lo.is_nan() || self.hi.is_nan()
    }

    /// True if the interval is a single point.
    #[inline]
    #[must_use]
    pub fn is_point(&self) -> bool {
        !self.has_nan() && -self.neg_lo == self.hi
    }

    /// Width `hi - lo`, rounded up. NaN if an endpoint is NaN.
    #[inline]
    #[must_use]
    pub fn width(&self) -> f64 {
        r::add_ru(self.hi, self.neg_lo)
    }

    /// Relative width `width() / max(|lo|, |hi|)` — the precision measure
    /// the telemetry width histograms bucket by. Point intervals report 0,
    /// intervals containing only zero report the absolute width, NaN
    /// endpoints report NaN.
    #[inline]
    #[must_use]
    pub fn rel_width(&self) -> f64 {
        let w = self.width();
        let mag = self.neg_lo.abs().max(self.hi.abs());
        if mag > 0.0 {
            w / mag
        } else {
            w
        }
    }

    /// Midpoint (approximate, round-to-nearest).
    pub fn mid(&self) -> f64 {
        if self.hi == -self.neg_lo {
            return self.hi;
        }
        0.5 * (self.hi - self.neg_lo)
    }

    /// True if `x` is inside the interval; NaN endpoints absorb their side
    /// (an unknown bound could be anything).
    pub fn contains(&self, x: f64) -> bool {
        if x.is_nan() {
            return self.has_nan();
        }
        let lo_ok = self.neg_lo.is_nan() || -self.neg_lo <= x;
        let hi_ok = self.hi.is_nan() || x <= self.hi;
        lo_ok && hi_ok
    }

    /// True if `other` is entirely inside `self`.
    pub fn encloses(&self, other: &F64I) -> bool {
        self.contains(other.lo()) && self.contains(other.hi())
    }

    /// Interval hull (join): the smallest interval containing both.
    #[must_use]
    pub fn join(&self, other: &F64I) -> F64I {
        F64I { neg_lo: max_nan(self.neg_lo, other.neg_lo), hi: max_nan(self.hi, other.hi) }
    }

    /// Intersection; `None` if provably disjoint.
    pub fn meet(&self, other: &F64I) -> Option<F64I> {
        let neg_lo = {
            // max of lower endpoints = min of negated ones.
            if self.neg_lo.is_nan() || other.neg_lo.is_nan() {
                f64::NAN
            } else {
                self.neg_lo.min(other.neg_lo)
            }
        };
        let hi =
            if self.hi.is_nan() || other.hi.is_nan() { f64::NAN } else { self.hi.min(other.hi) };
        if !neg_lo.is_nan() && !hi.is_nan() && -neg_lo > hi {
            return None;
        }
        Some(F64I { neg_lo, hi })
    }

    /// Negation (exact, endpoint swap — free in the `(-lo, hi)` layout).
    #[must_use]
    #[inline]
    pub fn neg(&self) -> F64I {
        F64I { neg_lo: self.hi, hi: self.neg_lo }
    }

    /// Interval absolute value.
    #[must_use]
    #[inline]
    pub fn abs(&self) -> F64I {
        if self.has_nan() {
            return F64I::NAI;
        }
        let lo = -self.neg_lo;
        if lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            F64I { neg_lo: -0.0, hi: max_nan(self.neg_lo, self.hi) }
        }
    }

    /// Interval square root: `[RD(sqrt(lo)), RU(sqrt(hi))]`; a negative
    /// lower endpoint yields a NaN lower bound (`sqrt([-1,1]) = [NaN,1]`,
    /// Section IV-A).
    #[must_use]
    #[inline]
    pub fn sqrt(&self) -> F64I {
        F64I { neg_lo: -r::sqrt_rd(-self.neg_lo), hi: r::sqrt_ru(self.hi) }
    }

    /// Endpoint-wise floor (exact operation on both bounds).
    #[must_use]
    pub fn floor(&self) -> F64I {
        F64I { neg_lo: -(-self.neg_lo).floor(), hi: self.hi.floor() }
    }

    /// Endpoint-wise ceil.
    #[must_use]
    pub fn ceil(&self) -> F64I {
        F64I { neg_lo: -(-self.neg_lo).ceil(), hi: self.hi.ceil() }
    }

    /// Interval minimum.
    #[must_use]
    #[inline]
    pub fn min_i(&self, other: &F64I) -> F64I {
        if self.has_nan() || other.has_nan() {
            return F64I::NAI;
        }
        F64I { neg_lo: max_nan(self.neg_lo, other.neg_lo), hi: self.hi.min(other.hi) }
    }

    /// Interval maximum.
    #[must_use]
    #[inline]
    pub fn max_i(&self, other: &F64I) -> F64I {
        if self.has_nan() || other.has_nan() {
            return F64I::NAI;
        }
        F64I { neg_lo: self.neg_lo.min(other.neg_lo), hi: max_nan(self.hi, other.hi) }
    }

    /// Addition: two upward-rounded additions, thanks to the negated-low
    /// representation (Section II).
    #[inline]
    #[must_use]
    pub fn add(&self, other: &F64I) -> F64I {
        F64I { neg_lo: r::add_ru(self.neg_lo, other.neg_lo), hi: r::add_ru(self.hi, other.hi) }
    }

    /// Subtraction: `a - b = a + (-b)`, endpoint swap plus two additions.
    #[inline]
    #[must_use]
    pub fn sub(&self, other: &F64I) -> F64I {
        F64I { neg_lo: r::add_ru(self.neg_lo, other.hi), hi: r::add_ru(self.hi, other.neg_lo) }
    }

    /// Multiplication: eight upward-rounded multiplications and six
    /// comparisons, branch-free (no sign-case specialization — this is the
    /// property that makes IGen faster than the library baselines on
    /// branch-unfriendly data, Section VII-A).
    #[inline]
    #[must_use]
    pub fn mul(&self, other: &F64I) -> F64I {
        let (neg_lo, hi) = simd::mul_cols(self.neg_lo, self.hi, other.neg_lo, other.hi);
        F64I { neg_lo, hi }
    }

    /// Interval square: the dependency-aware `x·x`. Unlike `self.mul(self)`
    /// the result is never negative — `[-1, 2]² = [0, 4]`, not `[-2, 4]`
    /// (the single-variable case of the dependency problem, Section VII-C).
    #[must_use]
    #[inline]
    pub fn sqr(&self) -> F64I {
        if self.has_nan() {
            return F64I::NAI;
        }
        let (lo, hi) = (-self.neg_lo, self.hi);
        let (alo, ahi) = (lo.abs(), hi.abs());
        let m = alo.max(ahi);
        let upper = r::mul_ru(m, m);
        if lo <= 0.0 && hi >= 0.0 {
            return F64I { neg_lo: 0.0, hi: upper };
        }
        let n = alo.min(ahi);
        F64I { neg_lo: -r::mul_rd(n, n), hi: upper }
    }

    /// Dependency-aware integer power.
    ///
    /// Even exponents decompose through `|x|` (so results never dip below
    /// zero), odd exponents use the monotonicity of `x^n`; both evaluate
    /// endpoint powers with consistently directed rounding. Negative
    /// exponents are `1 / x^(-n)` (so a base containing zero yields the
    /// entire line, matching [`F64I::div`]); `n == 0` returns `[1, 1]`
    /// (the C `pow(x, 0) == 1` convention, including `pow(0, 0)`).
    #[must_use]
    #[inline]
    pub fn powi(&self, n: i32) -> F64I {
        if self.has_nan() {
            return F64I::NAI;
        }
        if n == 0 {
            return F64I::point(1.0);
        }
        if n < 0 {
            // i32::MIN would overflow `-n`; saturate to MAX (results at
            // such exponents are saturated to {0, ±∞} anyway).
            return F64I::point(1.0).div(&self.powi(n.checked_neg().unwrap_or(i32::MAX)));
        }
        let (lo, hi) = (-self.neg_lo, self.hi);
        if n % 2 == 0 {
            let (alo, ahi) = (lo.abs(), hi.abs());
            let m = alo.max(ahi);
            let upper = pow_abs_ru(m, n as u32);
            if lo <= 0.0 && hi >= 0.0 {
                return F64I { neg_lo: 0.0, hi: upper };
            }
            return F64I { neg_lo: -pow_abs_rd(alo.min(ahi), n as u32), hi: upper };
        }
        // Odd: x^n is monotone increasing over the whole line.
        let plo = if lo >= 0.0 { pow_abs_rd(lo, n as u32) } else { -pow_abs_ru(-lo, n as u32) };
        let phi = if hi >= 0.0 { pow_abs_ru(hi, n as u32) } else { -pow_abs_rd(-hi, n as u32) };
        F64I { neg_lo: -plo, hi: phi }
    }

    /// Division. A divisor interval containing zero yields `[-∞, +∞]`
    /// (the paper's semantics for lost information); otherwise four
    /// upward-rounded divisions and endpoint selection.
    #[inline]
    #[must_use]
    pub fn div(&self, other: &F64I) -> F64I {
        if self.has_nan() || other.has_nan() {
            return F64I::NAI;
        }
        let (bl, bh) = (-other.neg_lo, other.hi);
        if bl <= 0.0 && bh >= 0.0 {
            return F64I::ENTIRE;
        }
        let (na, ah) = (self.neg_lo, self.hi);
        // Four shared quotient pairs give all eight directed endpoints.
        let (l1, u1) = r::div_ru_both(na, bl); // RU(al/bl) = RU(-(na/bl))
        let (l2, u2) = r::div_ru_both(na, bh);
        let (u3, l3) = r::div_ru_both(ah, bl);
        let (u4, l4) = r::div_ru_both(ah, bh);
        F64I {
            neg_lo: max_nan(max_nan(l1, l2), max_nan(l3, l4)),
            hi: max_nan(max_nan(u1, u2), max_nan(u3, u4)),
        }
    }

    /// Bitwise AND of both endpoints. Only sound when one operand is an
    /// all-ones or all-zeros mask — the common SIMD masking idiom the
    /// generated intrinsics use (Section V).
    #[must_use]
    pub fn bitand_mask(&self, other: &F64I) -> F64I {
        F64I {
            neg_lo: f64::from_bits(self.neg_lo.to_bits() & other.neg_lo.to_bits()),
            hi: f64::from_bits(self.hi.to_bits() & other.hi.to_bits()),
        }
    }

    /// Bitwise OR of both endpoints (mask idiom; see [`F64I::bitand_mask`]).
    #[must_use]
    pub fn bitor_mask(&self, other: &F64I) -> F64I {
        F64I {
            neg_lo: f64::from_bits(self.neg_lo.to_bits() | other.neg_lo.to_bits()),
            hi: f64::from_bits(self.hi.to_bits() | other.hi.to_bits()),
        }
    }

    /// Bitwise NOT of both endpoints (mask idiom: complement of an
    /// all-ones/all-zeros mask, Section V).
    #[must_use]
    pub fn bitnot_mask(&self) -> F64I {
        F64I {
            neg_lo: f64::from_bits(!self.neg_lo.to_bits()),
            hi: f64::from_bits(!self.hi.to_bits()),
        }
    }

    /// Bitwise XOR of both endpoints (mask idiom).
    #[must_use]
    pub fn bitxor_mask(&self, other: &F64I) -> F64I {
        F64I {
            neg_lo: f64::from_bits(self.neg_lo.to_bits() ^ other.neg_lo.to_bits()),
            hi: f64::from_bits(self.hi.to_bits() ^ other.hi.to_bits()),
        }
    }

    /// `self < other` as a three-valued boolean.
    #[must_use]
    pub fn cmp_lt(&self, other: &F64I) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        if self.hi < other.lo() {
            TBool::True
        } else if self.lo() >= other.hi {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// `self <= other`.
    #[must_use]
    pub fn cmp_le(&self, other: &F64I) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        if self.hi <= other.lo() {
            TBool::True
        } else if self.lo() > other.hi {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// `self > other`.
    #[must_use]
    pub fn cmp_gt(&self, other: &F64I) -> TBool {
        other.cmp_lt(self)
    }

    /// `self >= other`.
    #[must_use]
    pub fn cmp_ge(&self, other: &F64I) -> TBool {
        other.cmp_le(self)
    }

    /// `self == other` (point equality).
    #[must_use]
    pub fn cmp_eq(&self, other: &F64I) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        if self.is_point() && other.is_point() && self.hi == other.hi {
            TBool::True
        } else if self.hi < other.lo() || other.hi < self.lo() {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// `self != other`.
    #[must_use]
    pub fn cmp_ne(&self, other: &F64I) -> TBool {
        self.cmp_eq(other).not()
    }

    /// The certified accuracy of the interval in bits, as defined in
    /// Section VII: 53 minus the base-2 log of the number of double
    /// values contained. A point interval certifies the full 53 bits; a
    /// NaN or infinite endpoint certifies none.
    #[must_use]
    pub fn certified_bits(&self) -> f64 {
        if self.has_nan() || !self.lo().is_finite() || !self.hi.is_finite() {
            return 0.0;
        }
        let steps = r::ulps_between(self.lo(), self.hi);
        let loss = ((steps + 1) as f64).log2();
        (53.0 - loss).max(0.0)
    }
}

impl core::ops::Add for F64I {
    type Output = F64I;
    #[inline]
    fn add(self, rhs: F64I) -> F64I {
        F64I::add(&self, &rhs)
    }
}

impl core::ops::Sub for F64I {
    type Output = F64I;
    #[inline]
    fn sub(self, rhs: F64I) -> F64I {
        F64I::sub(&self, &rhs)
    }
}

impl core::ops::Mul for F64I {
    type Output = F64I;
    #[inline]
    fn mul(self, rhs: F64I) -> F64I {
        F64I::mul(&self, &rhs)
    }
}

impl core::ops::Div for F64I {
    type Output = F64I;
    #[inline]
    fn div(self, rhs: F64I) -> F64I {
        F64I::div(&self, &rhs)
    }
}

impl core::ops::Neg for F64I {
    type Output = F64I;
    #[inline]
    fn neg(self) -> F64I {
        F64I::neg(&self)
    }
}

impl Default for F64I {
    #[inline]
    fn default() -> F64I {
        F64I::ZERO
    }
}

impl core::fmt::Display for F64I {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:e}, {:e}]", self.lo(), self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = F64I::new(1.0, 2.0).unwrap();
        assert_eq!(i.lo(), 1.0);
        assert_eq!(i.hi(), 2.0);
        assert!(F64I::new(2.0, 1.0).is_err());
        assert!(F64I::point(5.0).is_point());
        assert!(F64I::NAI.has_nan());
    }

    #[test]
    fn addition_rounds_outward() {
        let x = F64I::point(0.1);
        let s = x + x + x; // 0.1+0.1 doubles exactly; the third add rounds
        assert!(s.lo() <= 0.1 + 0.1 + 0.1 && 0.1 + 0.1 + 0.1 <= s.hi());
        assert!(s.width() > 0.0);
        // Exact addition stays a point.
        let e = F64I::point(1.0) + F64I::point(2.0);
        assert!(e.is_point());
        assert_eq!(e.hi(), 3.0);
    }

    #[test]
    fn subtraction_dependency_widens() {
        // x - x with the interval x = [1,2]: sound result is [-1, 1]
        // (the dependency problem: interval arithmetic cannot know the
        // two x's are the same variable).
        let x = F64I::new(1.0, 2.0).unwrap();
        let d = x - x;
        assert_eq!(d.lo(), -1.0);
        assert_eq!(d.hi(), 1.0);
    }

    #[test]
    fn multiplication_sign_cases() {
        let cases = [
            ((2.0, 3.0), (4.0, 5.0), (8.0, 15.0)),
            ((-3.0, -2.0), (4.0, 5.0), (-15.0, -8.0)),
            ((-2.0, 3.0), (4.0, 5.0), (-10.0, 15.0)),
            ((-2.0, 3.0), (-5.0, 4.0), (-15.0, 12.0)),
            ((-3.0, -2.0), (-5.0, -4.0), (8.0, 15.0)),
            ((0.0, 2.0), (-1.0, 1.0), (-2.0, 2.0)),
        ];
        for ((al, ah), (bl, bh), (rl, rh)) in cases {
            let a = F64I::new(al, ah).unwrap();
            let b = F64I::new(bl, bh).unwrap();
            let p = a * b;
            assert_eq!(p.lo(), rl, "[{al},{ah}]*[{bl},{bh}]");
            assert_eq!(p.hi(), rh, "[{al},{ah}]*[{bl},{bh}]");
        }
    }

    #[test]
    fn multiplication_commutes() {
        let a = F64I::new(-0.3, 0.7).unwrap();
        let b = F64I::new(0.11, 5.3).unwrap();
        assert_eq!(a * b, b * a);
    }

    #[test]
    fn division_basic_and_by_zero() {
        let a = F64I::new(1.0, 2.0).unwrap();
        let b = F64I::new(4.0, 8.0).unwrap();
        let q = a / b;
        assert_eq!(q.lo(), 0.125);
        assert_eq!(q.hi(), 0.5);
        let z = F64I::new(-1.0, 1.0).unwrap();
        let e = a / z;
        assert_eq!(e.lo(), f64::NEG_INFINITY);
        assert_eq!(e.hi(), f64::INFINITY);
        // Negative divisor flips.
        let n = F64I::new(-8.0, -4.0).unwrap();
        let qn = a / n;
        assert_eq!(qn.lo(), -0.5);
        assert_eq!(qn.hi(), -0.125);
    }

    #[test]
    fn sqr_is_dependency_aware() {
        // The defining case: x*x on a straddling interval.
        let x = F64I::new(-1.0, 2.0).unwrap();
        assert_eq!((x.sqr().lo(), x.sqr().hi()), (0.0, 4.0));
        assert_eq!((x.mul(&x).lo(), x.mul(&x).hi()), (-2.0, 4.0)); // naive
                                                                   // Strictly positive and strictly negative bases.
        let p = F64I::new(2.0, 3.0).unwrap().sqr();
        assert_eq!((p.lo(), p.hi()), (4.0, 9.0));
        let n = F64I::new(-3.0, -2.0).unwrap().sqr();
        assert_eq!((n.lo(), n.hi()), (4.0, 9.0));
        assert!(F64I::NAI.sqr().has_nan());
        // sqr == powi(2) on a sample.
        let w = F64I::new(-0.7, 1.3).unwrap();
        assert_eq!((w.sqr().lo(), w.sqr().hi()), (w.powi(2).lo(), w.powi(2).hi()));
    }

    #[test]
    fn powi_cases() {
        let x = F64I::new(-2.0, 3.0).unwrap();
        // Even: through |x|.
        assert_eq!((x.powi(4).lo(), x.powi(4).hi()), (0.0, 81.0));
        // Odd: monotone.
        assert_eq!((x.powi(3).lo(), x.powi(3).hi()), (-8.0, 27.0));
        assert_eq!((x.powi(1).lo(), x.powi(1).hi()), (-2.0, 3.0));
        // Zero exponent.
        assert!(x.powi(0).is_point());
        assert_eq!(x.powi(0).hi(), 1.0);
        // Negative exponent on a zero-free base.
        let p = F64I::new(2.0, 4.0).unwrap().powi(-2);
        assert!(p.contains(1.0 / 16.0) && p.contains(1.0 / 4.0));
        assert!(p.lo() <= 0.0625 && p.hi() >= 0.25);
        // Negative exponent with zero in the base: entire line.
        let e = x.powi(-1);
        assert_eq!((e.lo(), e.hi()), (f64::NEG_INFINITY, f64::INFINITY));
        // Containment & directed rounding on an irrational-ish base.
        let b = F64I::point(1.1);
        for n in [2, 3, 5, 8, 17] {
            let r = b.powi(n);
            let truth = 1.1f64.powi(n);
            assert!(r.lo() <= truth && truth <= r.hi(), "n={n}");
            assert!(r.width() < truth * 1e-14, "n={n} too wide");
        }
        // i32::MIN exponent does not overflow.
        let s = F64I::new(2.0, 2.0).unwrap().powi(i32::MIN);
        assert!(s.contains(0.0));
    }

    #[test]
    fn powi_tighter_than_repeated_mul() {
        // x^4 through powi vs ((x*x)*x)*x on a straddling interval.
        let x = F64I::new(-1.5, 1.0).unwrap();
        let naive = x.mul(&x).mul(&x).mul(&x);
        let tight = x.powi(4);
        assert!(naive.encloses(&tight));
        assert_eq!(tight.lo(), 0.0);
        assert!(naive.lo() < 0.0, "naive keeps the spurious negative range");
    }

    #[test]
    fn sqrt_nan_semantics() {
        let m = F64I::new(-1.0, 1.0).unwrap();
        let s = m.sqrt();
        assert!(s.lo().is_nan());
        assert_eq!(s.hi(), 1.0);
        let p = F64I::new(4.0, 9.0).unwrap().sqrt();
        assert_eq!(p.lo(), 2.0);
        assert_eq!(p.hi(), 3.0);
    }

    #[test]
    fn nan_infinity_semantics() {
        // inf * 0 inside intervals -> NaN propagates as unknown.
        let zero = F64I::ZERO;
        let inf = F64I::new(f64::INFINITY, f64::INFINITY).unwrap();
        let p = zero * inf;
        assert!(p.has_nan());
        // [1, inf] means "any value >= 1".
        let ge1 = F64I::new(1.0, f64::INFINITY).unwrap();
        assert!(ge1.contains(1e308));
        assert!(!ge1.contains(0.5));
        // NaN endpoints absorb containment on their side.
        assert!(F64I::NAI.contains(42.0));
    }

    #[test]
    fn abs_and_minmax() {
        let m = F64I::new(-3.0, 2.0).unwrap();
        let a = m.abs();
        assert_eq!(a.lo(), 0.0);
        assert_eq!(a.hi(), 3.0);
        let x = F64I::new(1.0, 5.0).unwrap();
        let y = F64I::new(2.0, 3.0).unwrap();
        assert_eq!(x.min_i(&y).lo(), 1.0);
        assert_eq!(x.min_i(&y).hi(), 3.0);
        assert_eq!(x.max_i(&y).lo(), 2.0);
        assert_eq!(x.max_i(&y).hi(), 5.0);
    }

    #[test]
    fn comparisons_three_valued() {
        let a = F64I::new(0.0, 1.0).unwrap();
        let b = F64I::new(2.0, 3.0).unwrap();
        let c = F64I::new(0.5, 2.5).unwrap();
        assert!(a.cmp_lt(&b).is_true());
        assert!(b.cmp_lt(&a).is_false());
        assert!(a.cmp_lt(&c).is_unknown());
        assert!(a.cmp_le(&b).is_true());
        assert!(b.cmp_gt(&a).is_true());
        assert!(a.cmp_eq(&a).is_unknown()); // [0,1] == [0,1] is not certain
        assert!(F64I::point(1.0).cmp_eq(&F64I::point(1.0)).is_true());
        assert!(a.cmp_eq(&b).is_false());
        assert!(a.cmp_ne(&b).is_true());
    }

    #[test]
    fn join_meet() {
        let a = F64I::new(0.0, 1.0).unwrap();
        let b = F64I::new(2.0, 3.0).unwrap();
        let j = a.join(&b);
        assert_eq!((j.lo(), j.hi()), (0.0, 3.0));
        assert!(a.meet(&b).is_none());
        let c = F64I::new(0.5, 2.5).unwrap();
        let m = a.meet(&c).unwrap();
        assert_eq!((m.lo(), m.hi()), (0.5, 1.0));
    }

    #[test]
    fn certified_bits_metric() {
        assert_eq!(F64I::point(1.0).certified_bits(), 53.0);
        // One-ulp interval: contains 2 doubles -> loses 1 bit.
        let one_ulp = F64I::new(1.0, 1.0 + f64::EPSILON).unwrap();
        assert_eq!(one_ulp.certified_bits(), 52.0);
        assert_eq!(F64I::ENTIRE.certified_bits(), 0.0);
        assert_eq!(F64I::NAI.certified_bits(), 0.0);
        // 2^k ulps -> 53 - log2(2^k + 1).
        let mut hi = 1.0f64;
        for _ in 0..16 {
            hi = r::next_up(hi);
        }
        let bits = F64I::new(1.0, hi).unwrap().certified_bits();
        assert!((bits - (53.0 - 17f64.log2())).abs() < 1e-12);
    }

    #[test]
    fn from_i64_is_exact_within_the_significand() {
        assert!(F64I::from_i64(42).is_point());
        assert!(F64I::from_i64(1 << 53).is_point());
        assert!(F64I::from_i64(-(1 << 53)).is_point());
        let big = F64I::from_i64((1 << 53) + 1);
        assert!(!big.is_point());
        assert!(big.contains(((1i64 << 53) + 1) as f64));
        for x in [i64::MIN, i64::MAX] {
            let i = F64I::from_i64(x);
            assert!(!i.is_point() && i.contains(x as f64), "{x}: {i}");
        }
    }

    #[test]
    fn fig2_pipeline() {
        // The computation of Fig. 2: c = a + b + 0.1; if (c > a) c = a*c.
        let a = F64I::point(1.0);
        let b = F64I::point(2.0);
        #[allow(clippy::excessive_precision)] // the exact 1-ulp pair around 0.1
        let tenth = F64I::new(0.099999999999999992, 0.100000000000000006).unwrap();
        let c = a + b + tenth;
        assert!(c.cmp_gt(&a).to_bool().expect("decidable"));
        assert!((a * c).contains(3.1));
    }

    #[test]
    fn with_tol_covers_radius() {
        let i = F64I::with_tol(5.0, 0.25);
        assert!(i.lo() <= 4.75 && 5.25 <= i.hi());
        assert!(i.contains(5.2));
        assert!(!i.contains(5.3));
    }

    #[test]
    fn mask_bit_operations() {
        let ones = F64I::from_neg_lo_hi(f64::from_bits(u64::MAX), f64::from_bits(u64::MAX));
        let x = F64I::new(1.0, 2.0).unwrap();
        let a = x.bitand_mask(&ones);
        assert_eq!((a.lo(), a.hi()), (1.0, 2.0));
        let z = x.bitand_mask(&F64I::from_neg_lo_hi(0.0, 0.0));
        assert_eq!((z.lo(), z.hi()), (0.0, 0.0));
        let o = F64I::from_neg_lo_hi(0.0, 0.0).bitor_mask(&x);
        assert_eq!((o.lo(), o.hi()), (1.0, 2.0));
        let xo = x.bitxor_mask(&F64I::from_neg_lo_hi(0.0, 0.0));
        assert_eq!((xo.lo(), xo.hi()), (1.0, 2.0));
    }

    #[test]
    fn floor_ceil() {
        let x = F64I::new(1.2, 2.7).unwrap();
        assert_eq!((x.floor().lo(), x.floor().hi()), (1.0, 2.0));
        assert_eq!((x.ceil().lo(), x.ceil().hi()), (2.0, 3.0));
        let n = F64I::new(-1.5, -0.5).unwrap();
        assert_eq!((n.floor().lo(), n.floor().hi()), (-2.0, -1.0));
    }
}
