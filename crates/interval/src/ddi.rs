//! The double-double interval type `ddi` (Section VI-A).
//!
//! Endpoints are double-double numbers, giving ≥106 bits of precision —
//! enough to keep error accumulation small and certify *double precision*
//! results (at most one bit of error) for the paper's benchmarks. Like
//! [`crate::F64I`], the lower endpoint is stored negated so every kernel
//! runs with upward rounding only; per Lemma 1 the upward-rounded
//! double-double algorithms produce upper bounds, which is exactly what
//! both (negated-low and high) endpoints need.

use crate::f64i::F64I;
use crate::tbool::TBool;
use igen_dd::{add_dir, div_bounds, mul_dir, sqrt_bounds, Dd};
use igen_round::{next_up, Rd, Rounded, Ru};

/// A sound interval with double-double endpoints (`ddi` in the generated
/// C; maps onto one `__m256d` per Table II).
///
/// # Example
///
/// ```
/// use igen_interval::{DdI, F64I};
/// let x = DdI::point_f64(0.1);
/// let mut acc = DdI::ZERO;
/// for _ in 0..1000 {
///     acc = acc + x;
/// }
/// // After 1000 accumulations the result still certifies a unique double:
/// assert_eq!(acc.certified_f64(), Some(0.1 * 1000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdI {
    /// Negated lower endpoint.
    neg_lo: Dd,
    /// Upper endpoint.
    hi: Dd,
}

fn dd_max(a: Dd, b: Dd) -> Dd {
    if a.is_nan() || b.is_nan() {
        return Dd::from_parts_unchecked(f64::NAN, f64::NAN);
    }
    a.max(b)
}

/// Directed `x^n` for `x >= 0`: square-and-multiply where every dd
/// multiplication rounds in the direction `R` — all factors nonnegative,
/// so the chain stays one-sided.
fn dd_pow_dir<R: Rounded>(x: Dd, mut n: u32) -> Dd {
    let mut base = x;
    let mut acc = Dd::ONE;
    while n > 0 {
        if n & 1 == 1 {
            acc = mul_dir::<R>(acc, base);
        }
        n >>= 1;
        if n > 0 {
            base = mul_dir::<R>(base, base);
        }
    }
    acc
}

fn dd_min(a: Dd, b: Dd) -> Dd {
    if a.is_nan() || b.is_nan() {
        return Dd::from_parts_unchecked(f64::NAN, f64::NAN);
    }
    a.min(b)
}

impl DdI {
    /// `[0, 0]`.
    pub const ZERO: DdI = DdI { neg_lo: Dd::ZERO, hi: Dd::ZERO };
    /// `[1, 1]`.
    pub const ONE: DdI = DdI { neg_lo: Dd::NEG_ONE, hi: Dd::ONE };
    /// The whole line.
    pub const ENTIRE: DdI = DdI { neg_lo: Dd::INFINITY, hi: Dd::INFINITY };

    /// The fully-unknown interval.
    pub fn nai() -> DdI {
        DdI { neg_lo: Dd::NAN, hi: Dd::NAN }
    }

    /// Point interval from an f64 (exact).
    pub fn point_f64(x: f64) -> DdI {
        DdI { neg_lo: Dd::from(-x), hi: Dd::from(x) }
    }

    /// Point interval from a double-double value (exact).
    pub fn point(x: Dd) -> DdI {
        DdI { neg_lo: x.neg(), hi: x }
    }

    /// Interval `[lo, hi]` from double-double endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`crate::InvalidInterval`] if `lo > hi`.
    pub fn new(lo: Dd, hi: Dd) -> Result<DdI, crate::InvalidInterval> {
        if lo.cmp_num(&hi) == Some(core::cmp::Ordering::Greater) {
            return Err(crate::InvalidInterval);
        }
        Ok(DdI { neg_lo: lo.neg(), hi })
    }

    /// Promotion of a double-precision interval (exact).
    pub fn from_f64i(x: &F64I) -> DdI {
        DdI { neg_lo: Dd::from(x.neg_lo()), hi: Dd::from(x.hi()) }
    }

    /// Demotion to a double-precision interval (outward rounded).
    pub fn to_f64i(&self) -> F64I {
        F64I::from_neg_lo_hi(f64_upper(self.neg_lo), f64_upper(self.hi))
    }

    /// Raw constructor from the internal representation: the *negated*
    /// lower endpoint and the upper endpoint. The structure-of-arrays
    /// batch buffers (`igen-batch`) store exactly these components so
    /// intervals can be reassembled with two loads and no negation.
    pub fn from_neg_lo_hi(neg_lo: Dd, hi: Dd) -> DdI {
        DdI { neg_lo, hi }
    }

    /// The negated lower endpoint (the stored representation).
    #[inline]
    #[must_use]
    pub fn neg_lo(&self) -> Dd {
        self.neg_lo
    }

    /// Lower endpoint.
    #[inline]
    #[must_use]
    pub fn lo(&self) -> Dd {
        self.neg_lo.neg()
    }

    /// Upper endpoint.
    #[inline]
    #[must_use]
    pub fn hi(&self) -> Dd {
        self.hi
    }

    /// True if any endpoint component is NaN.
    #[inline]
    #[must_use]
    pub fn has_nan(&self) -> bool {
        self.neg_lo.is_nan() || self.hi.is_nan()
    }

    /// Upper bound of the interval width `hi - lo`.
    pub fn width(&self) -> Dd {
        add_dir::<Ru>(self.hi, self.neg_lo)
    }

    /// True if the double-double value `x` lies inside.
    pub fn contains(&self, x: Dd) -> bool {
        if x.is_nan() {
            return self.has_nan();
        }
        let lo_ok = self.neg_lo.is_nan() || self.lo().le(&x);
        let hi_ok = self.hi.is_nan() || x.le(&self.hi);
        lo_ok && hi_ok
    }

    /// True if the f64 value lies inside.
    pub fn contains_f64(&self, x: f64) -> bool {
        self.contains(Dd::from(x))
    }

    /// Negation (endpoint swap, exact).
    #[must_use]
    #[inline]
    pub fn neg(&self) -> DdI {
        DdI { neg_lo: self.hi, hi: self.neg_lo }
    }

    /// Interval hull.
    #[must_use]
    pub fn join(&self, other: &DdI) -> DdI {
        DdI { neg_lo: dd_max(self.neg_lo, other.neg_lo), hi: dd_max(self.hi, other.hi) }
    }

    /// Absolute value.
    #[must_use]
    #[inline]
    pub fn abs(&self) -> DdI {
        if self.has_nan() {
            return DdI::nai();
        }
        if !self.lo().is_sign_negative() {
            *self
        } else if self.hi.is_sign_negative() || self.hi.is_zero() {
            self.neg()
        } else {
            DdI { neg_lo: Dd::ZERO, hi: dd_max(self.neg_lo, self.hi) }
        }
    }

    /// Addition: two upward-rounded double-double additions (40 flops
    /// each, Table III).
    #[inline]
    #[must_use]
    pub fn add(&self, other: &DdI) -> DdI {
        DdI {
            neg_lo: add_dir::<Ru>(self.neg_lo, other.neg_lo),
            hi: add_dir::<Ru>(self.hi, other.hi),
        }
    }

    /// Subtraction.
    #[inline]
    #[must_use]
    pub fn sub(&self, other: &DdI) -> DdI {
        DdI {
            neg_lo: add_dir::<Ru>(self.neg_lo, other.hi),
            hi: add_dir::<Ru>(self.hi, other.neg_lo),
        }
    }

    /// Multiplication: eight upward-rounded double-double products and six
    /// max selections (114 flops per product pair, Table III).
    #[inline]
    #[must_use]
    pub fn mul(&self, other: &DdI) -> DdI {
        let (na, ah) = (self.neg_lo, self.hi);
        let (nb, bh) = (other.neg_lo, other.hi);
        let u1 = mul_dir::<Ru>(na, nb);
        let u2 = mul_dir::<Ru>(na.neg(), bh);
        let u3 = mul_dir::<Ru>(ah, nb.neg());
        let u4 = mul_dir::<Ru>(ah, bh);
        let l1 = mul_dir::<Ru>(na.neg(), nb);
        let l2 = mul_dir::<Ru>(na, bh);
        let l3 = mul_dir::<Ru>(ah, nb);
        let l4 = mul_dir::<Ru>(ah.neg(), bh);
        DdI {
            neg_lo: dd_max(dd_max(l1, l2), dd_max(l3, l4)),
            hi: dd_max(dd_max(u1, u2), dd_max(u3, u4)),
        }
    }

    /// Interval square: the dependency-aware `x·x` (see [`F64I::sqr`];
    /// `[-1, 2]² = [0, 4]`).
    ///
    /// [`F64I::sqr`]: crate::F64I::sqr
    #[must_use]
    #[inline]
    pub fn sqr(&self) -> DdI {
        if self.has_nan() {
            return DdI::nai();
        }
        let a = self.abs();
        let (alo, ahi) = (a.lo(), a.hi);
        DdI { neg_lo: mul_dir::<Rd>(alo, alo).neg(), hi: mul_dir::<Ru>(ahi, ahi) }
    }

    /// Dependency-aware integer power (see [`F64I::powi`] for the
    /// conventions: `n == 0` gives `[1, 1]`, negative exponents divide,
    /// even powers decompose through `|x|`).
    ///
    /// [`F64I::powi`]: crate::F64I::powi
    #[must_use]
    #[inline]
    pub fn powi(&self, n: i32) -> DdI {
        if self.has_nan() {
            return DdI::nai();
        }
        if n == 0 {
            return DdI::point_f64(1.0);
        }
        if n < 0 {
            return DdI::point_f64(1.0).div(&self.powi(n.checked_neg().unwrap_or(i32::MAX)));
        }
        if n % 2 == 0 {
            let a = self.abs();
            return DdI {
                neg_lo: dd_pow_dir::<Rd>(a.lo(), n as u32).neg(),
                hi: dd_pow_dir::<Ru>(a.hi, n as u32),
            };
        }
        // Odd: monotone; signed endpoint powers with outward rounding.
        let (lo, hi) = (self.lo(), self.hi);
        let plo = if lo.is_sign_negative() {
            dd_pow_dir::<Ru>(lo.neg(), n as u32).neg()
        } else {
            dd_pow_dir::<Rd>(lo, n as u32)
        };
        let phi = if hi.is_sign_negative() {
            dd_pow_dir::<Rd>(hi.neg(), n as u32).neg()
        } else {
            dd_pow_dir::<Ru>(hi, n as u32)
        };
        DdI { neg_lo: plo.neg(), hi: phi }
    }

    /// Division; divisor intervals containing zero give the entire line.
    #[must_use]
    #[inline]
    pub fn div(&self, other: &DdI) -> DdI {
        if self.has_nan() || other.has_nan() {
            return DdI::nai();
        }
        let bl = other.lo();
        let bh = other.hi;
        let zero = Dd::ZERO;
        if bl.le(&zero) && zero.le(&bh) {
            return DdI::ENTIRE;
        }
        let al = self.lo();
        let ah = self.hi;
        let mut lo = Dd::from(f64::INFINITY);
        let mut hi = Dd::from(f64::NEG_INFINITY);
        for (x, y) in [(al, bl), (al, bh), (ah, bl), (ah, bh)] {
            let (l, h) = div_bounds(x, y);
            lo = dd_min(lo, l);
            hi = dd_max(hi, h);
        }
        DdI { neg_lo: lo.neg(), hi }
    }

    /// Square root; a negative lower endpoint yields a NaN lower bound.
    #[must_use]
    #[inline]
    pub fn sqrt(&self) -> DdI {
        let lo_in = self.lo();
        let hi_in = self.hi;
        let lo_out = if lo_in.is_sign_negative() && !lo_in.is_zero() {
            Dd::from_parts_unchecked(f64::NAN, f64::NAN)
        } else {
            sqrt_bounds(lo_in).0
        };
        let hi_out = sqrt_bounds(hi_in).1;
        DdI { neg_lo: lo_out.neg(), hi: hi_out }
    }

    /// Interval minimum.
    #[must_use]
    #[inline]
    pub fn min_i(&self, other: &DdI) -> DdI {
        if self.has_nan() || other.has_nan() {
            return DdI::nai();
        }
        DdI { neg_lo: dd_max(self.neg_lo, other.neg_lo), hi: dd_min(self.hi, other.hi) }
    }

    /// Interval maximum.
    #[must_use]
    #[inline]
    pub fn max_i(&self, other: &DdI) -> DdI {
        if self.has_nan() || other.has_nan() {
            return DdI::nai();
        }
        DdI { neg_lo: dd_min(self.neg_lo, other.neg_lo), hi: dd_max(self.hi, other.hi) }
    }

    /// `self < other` three-valued.
    #[must_use]
    pub fn cmp_lt(&self, other: &DdI) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        if self.hi.lt(&other.lo()) {
            TBool::True
        } else if other.hi.le(&self.lo()) {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// `self > other` three-valued.
    #[must_use]
    pub fn cmp_gt(&self, other: &DdI) -> TBool {
        other.cmp_lt(self)
    }

    /// `self <= other` three-valued.
    #[must_use]
    pub fn cmp_le(&self, other: &DdI) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        if self.hi.le(&other.lo()) {
            TBool::True
        } else if other.hi.lt(&self.lo()) {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// `self >= other` three-valued.
    #[must_use]
    pub fn cmp_ge(&self, other: &DdI) -> TBool {
        other.cmp_le(self)
    }

    /// `self == other` three-valued (point equality, as in
    /// `F64I::cmp_eq`: certainly true only when both intervals are the
    /// same single point, certainly false when they are disjoint).
    #[must_use]
    pub fn cmp_eq(&self, other: &DdI) -> TBool {
        if self.has_nan() || other.has_nan() {
            return TBool::Unknown;
        }
        let point = |i: &DdI| i.lo().le(&i.hi) && i.hi.le(&i.lo());
        if point(self) && point(other) && self.hi.le(&other.hi) && other.hi.le(&self.hi) {
            TBool::True
        } else if self.hi.lt(&other.lo()) || other.hi.lt(&self.lo()) {
            TBool::False
        } else {
            TBool::Unknown
        }
    }

    /// If the interval is narrow enough that both endpoints round to the
    /// same binary64, returns that *certified double precision result*
    /// (Section VII-A: "at most one bit of error in double precision").
    #[must_use]
    pub fn certified_f64(&self) -> Option<f64> {
        if self.has_nan() {
            return None;
        }
        let lo = self.lo();
        // Round-to-nearest of a dd value is its high word after
        // renormalization; include the low word's pull via two_sum.
        let rn = |x: Dd| -> f64 {
            let (h, _) = igen_round::two_sum(x.hi(), x.lo());
            h
        };
        let (a, b) = (rn(lo), rn(self.hi));
        // Accept equality or adjacency (at most one bit of error).
        if a == b || next_up(a) == b {
            Some(a)
        } else {
            None
        }
    }

    /// Certified accuracy in bits out of the 106 the format carries
    /// (Section VII's metric, generalized: 106 minus log2 of the interval
    /// width measured in double-double quanta of the midpoint).
    #[must_use]
    pub fn certified_bits(&self) -> f64 {
        crate::accuracy::certified_bits_dd(self.lo(), self.hi)
    }
}

/// Smallest f64 `>=` the double-double value.
fn f64_upper(x: Dd) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let (h, l) = igen_round::two_sum(x.hi(), x.lo());
    if l > 0.0 {
        next_up(h)
    } else {
        h
    }
}

impl core::ops::Add for DdI {
    type Output = DdI;
    #[inline]
    fn add(self, rhs: DdI) -> DdI {
        DdI::add(&self, &rhs)
    }
}

impl core::ops::Sub for DdI {
    type Output = DdI;
    #[inline]
    fn sub(self, rhs: DdI) -> DdI {
        DdI::sub(&self, &rhs)
    }
}

impl core::ops::Mul for DdI {
    type Output = DdI;
    #[inline]
    fn mul(self, rhs: DdI) -> DdI {
        DdI::mul(&self, &rhs)
    }
}

impl core::ops::Div for DdI {
    type Output = DdI;
    #[inline]
    fn div(self, rhs: DdI) -> DdI {
        DdI::div(&self, &rhs)
    }
}

impl core::ops::Neg for DdI {
    type Output = DdI;
    #[inline]
    fn neg(self) -> DdI {
        DdI::neg(&self)
    }
}

impl Default for DdI {
    fn default() -> DdI {
        DdI::ZERO
    }
}

impl core::fmt::Display for DdI {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {}]", self.lo(), self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_the_point_one_at_both_precisions() {
        let bits = |d: Dd| (d.hi().to_bits(), d.lo().to_bits());
        let (one, point) = (DdI::ONE, DdI::point_f64(1.0));
        assert_eq!(bits(one.lo()), bits(point.lo()));
        assert_eq!(bits(one.hi()), bits(point.hi()));
        let (one, point) = (F64I::ONE, F64I::point(1.0));
        assert_eq!(one.lo().to_bits(), point.lo().to_bits());
        assert_eq!(one.hi().to_bits(), point.hi().to_bits());
    }

    #[test]
    fn sqr_and_powi_dependency_aware() {
        let x = DdI::new(Dd::from(-1.0), Dd::from(2.0)).unwrap();
        let s = x.sqr();
        assert!(s.lo().is_zero(), "sqr never negative: {:?}", s.lo());
        assert!(s.contains_f64(4.0) && s.contains_f64(0.0));
        assert!(!s.contains_f64(-0.5));
        // Naive mul dips negative.
        assert!(x.mul(&x).contains_f64(-1.9));
        // Odd power monotone.
        let c = x.powi(3);
        assert!(c.contains_f64(-1.0) && c.contains_f64(8.0));
        assert!(!c.contains_f64(-1.5) && !c.contains_f64(8.5));
        // Even power through |x|.
        let q = x.powi(4);
        assert!(q.lo().is_zero() && q.contains_f64(16.0));
        // n = 0 and negative exponents.
        assert!(x.powi(0).contains_f64(1.0) && x.powi(0).width().is_zero());
        let r = DdI::new(Dd::from(2.0), Dd::from(4.0)).unwrap().powi(-2);
        assert!(r.contains_f64(1.0 / 16.0) && r.contains_f64(1.0 / 4.0));
        // Zero-containing base with negative exponent: entire.
        assert!(x.powi(-1).contains_f64(1e300) && x.powi(-1).contains_f64(-1e300));
        // Tightness: dd powers certify far beyond f64 on a point base.
        // 1.5^13 = 3^13 / 2^13 is exactly representable, so the float
        // reference is the true value.
        let b = DdI::point_f64(1.5).powi(13);
        assert!(b.certified_f64().is_some(), "width {:?}", b.width());
        assert!(b.contains_f64(1594323.0 / 8192.0));
    }

    #[test]
    fn point_roundtrip() {
        let x = DdI::point_f64(0.1);
        assert!(x.contains_f64(0.1));
        assert!(x.width().is_zero());
        assert_eq!(x.certified_f64(), Some(0.1));
    }

    #[test]
    fn add_keeps_far_more_accuracy_than_f64i() {
        let x = DdI::point_f64(0.1);
        let f = F64I::point(0.1);
        let mut dd_acc = DdI::ZERO;
        let mut f_acc = F64I::ZERO;
        for _ in 0..10_000 {
            dd_acc = dd_acc + x;
            f_acc = f_acc + f;
        }
        assert!(dd_acc.certified_bits() > 80.0, "dd bits = {}", dd_acc.certified_bits());
        assert!(f_acc.certified_bits() < dd_acc.certified_bits());
        // And it still certifies the correctly rounded double.
        assert!(dd_acc.certified_f64().is_some());
    }

    #[test]
    fn mul_sign_cases_match_f64i() {
        let cases = [
            ((2.0, 3.0), (4.0, 5.0)),
            ((-3.0, -2.0), (4.0, 5.0)),
            ((-2.0, 3.0), (4.0, 5.0)),
            ((-2.0, 3.0), (-5.0, 4.0)),
            ((-3.0, -2.0), (-5.0, -4.0)),
        ];
        for ((al, ah), (bl, bh)) in cases {
            let a = DdI::new(Dd::from(al), Dd::from(ah)).unwrap();
            let b = DdI::new(Dd::from(bl), Dd::from(bh)).unwrap();
            let p = a * b;
            let fa = F64I::new(al, ah).unwrap();
            let fb = F64I::new(bl, bh).unwrap();
            let fp = fa * fb;
            assert_eq!(p.lo().to_f64(), fp.lo(), "[{al},{ah}]*[{bl},{bh}]");
            assert_eq!(p.hi().to_f64(), fp.hi());
        }
    }

    #[test]
    fn division_semantics() {
        let a = DdI::point_f64(1.0);
        let b = DdI::point_f64(3.0);
        let q = a / b;
        assert!(q.contains(Dd::from(1.0) / Dd::from(3.0)));
        assert!(!q.width().is_zero());
        assert!(q.certified_bits() > 99.0, "bits = {}", q.certified_bits());
        let z = DdI::new(Dd::from(-1.0), Dd::from(1.0)).unwrap();
        let e = a / z;
        assert!(e.hi().to_f64().is_infinite());
    }

    #[test]
    fn sqrt_and_nan_lower() {
        let m = DdI::new(Dd::from(-1.0), Dd::from(1.0)).unwrap();
        let s = m.sqrt();
        assert!(s.lo().is_nan());
        assert_eq!(s.hi().to_f64(), 1.0);
        let p = DdI::point_f64(2.0).sqrt();
        assert!(p.contains(igen_dd::DD_SQRT2));
    }

    #[test]
    fn f64i_roundtrip_through_dd() {
        let d = DdI::from_f64i(&F64I::point(0.1));
        let q = d / DdI::new(Dd::from(3.0), Dd::from(3.0)).unwrap();
        assert!(q.to_f64i().contains(0.1 / 3.0));
    }

    #[test]
    fn demotion_to_f64i_is_outward() {
        let x = DdI::point_f64(1.0) / DdI::point_f64(3.0);
        let f = x.to_f64i();
        assert!(f.lo() <= 1.0 / 3.0 && 1.0 / 3.0 <= f.hi());
    }

    #[test]
    fn comparisons() {
        let a = DdI::new(Dd::from(0.0), Dd::from(1.0)).unwrap();
        let b = DdI::new(Dd::from(2.0), Dd::from(3.0)).unwrap();
        assert!(a.cmp_lt(&b).is_true());
        assert!(b.cmp_gt(&a).is_true());
        let c = DdI::new(Dd::from(0.5), Dd::from(2.5)).unwrap();
        assert!(a.cmp_lt(&c).is_unknown());
    }

    #[test]
    fn certified_f64_rejects_wide() {
        let w = DdI::new(Dd::from(1.0), Dd::from(2.0)).unwrap();
        assert_eq!(w.certified_f64(), None);
    }
}
