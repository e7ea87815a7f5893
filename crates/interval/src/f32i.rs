//! The single-precision interval type `f32i` (Table I; the paper's
//! compiler accepts "single or double (the default) or … double-double"
//! as target precision, Section III).
//!
//! Endpoints are binary32; arithmetic is computed with the binary64
//! directed kernels and rounded outward to f32. This is *exact* directed
//! f32 rounding: the f32 grid is a subset of the f64 grid, so
//! `RU32(x) = RU32(RU64(x))` — no double-rounding anomaly is possible
//! for directed modes.

use crate::tbool::TBool;
use igen_round as r;

/// A sound single-precision interval (`f32i` in the generated C). Stored
/// like [`crate::F64I`] with the lower endpoint negated.
///
/// # Example
///
/// ```
/// use igen_interval::F32I;
/// let x = F32I::point(0.1f32);
/// let y = (x + x) + x;
/// assert!(y.contains(0.1f32 + 0.1f32 + 0.1f32));
/// assert!(y.certified_bits() > 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32I {
    neg_lo: f32,
    hi: f32,
}

/// Largest f32 `<=` the f64 value (exact directed demotion).
fn f32_below(x: f64) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    let c = x as f32;
    if (c as f64) <= x {
        c
    } else {
        next_down32(c)
    }
}

/// Smallest f32 `>=` the f64 value.
fn f32_above(x: f64) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    let c = x as f32;
    if (c as f64) >= x {
        c
    } else {
        next_up32(c)
    }
}

fn next_up32(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let b = x.to_bits();
    if x > 0.0 {
        f32::from_bits(b + 1)
    } else {
        f32::from_bits(b - 1)
    }
}

fn next_down32(x: f32) -> f32 {
    -next_up32(-x)
}

fn max_nan32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a >= b {
        a
    } else {
        b
    }
}

impl F32I {
    /// `[0, 0]`.
    pub const ZERO: F32I = F32I { neg_lo: -0.0, hi: 0.0 };
    /// `[1, 1]`.
    pub const ONE: F32I = F32I { neg_lo: -1.0, hi: 1.0 };
    /// The whole line.
    pub const ENTIRE: F32I = F32I { neg_lo: f32::INFINITY, hi: f32::INFINITY };
    /// Fully unknown.
    pub const NAI: F32I = F32I { neg_lo: f32::NAN, hi: f32::NAN };

    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// [`crate::InvalidInterval`] if `lo > hi`.
    pub fn new(lo: f32, hi: f32) -> Result<F32I, crate::InvalidInterval> {
        if lo > hi {
            return Err(crate::InvalidInterval);
        }
        Ok(F32I { neg_lo: -lo, hi })
    }

    /// Point interval.
    pub fn point(x: f32) -> F32I {
        F32I { neg_lo: -x, hi: x }
    }

    /// Sound enclosure of an f64 value (outward f32 rounding) — the
    /// conversion used when lowering `double` constants to the f32
    /// target.
    pub fn enclose_f64(v: f64) -> F32I {
        F32I { neg_lo: -f32_below(v), hi: f32_above(v) }
    }

    /// Value with absolute tolerance (`ia_set_tol_f32`).
    pub fn with_tol(x: f32, tol: f32) -> F32I {
        let t = tol.abs() as f64;
        let x = x as f64;
        F32I { neg_lo: f32_above(-x + t), hi: f32_above(x + t) }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f32 {
        -self.neg_lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f32 {
        self.hi
    }

    /// NaN endpoint present.
    pub fn has_nan(&self) -> bool {
        self.neg_lo.is_nan() || self.hi.is_nan()
    }

    /// Point test.
    pub fn is_point(&self) -> bool {
        !self.has_nan() && -self.neg_lo == self.hi
    }

    /// Containment.
    pub fn contains(&self, x: f32) -> bool {
        if x.is_nan() {
            return self.has_nan();
        }
        (self.neg_lo.is_nan() || -self.neg_lo <= x) && (self.hi.is_nan() || x <= self.hi)
    }

    /// Width, rounded up.
    pub fn width(&self) -> f32 {
        f32_above(self.hi as f64 + self.neg_lo as f64)
    }

    /// Certified bits out of 24.
    pub fn certified_bits(&self) -> f64 {
        if self.has_nan() || !self.lo().is_finite() || !self.hi.is_finite() {
            return 0.0;
        }
        let steps = ulps_between32(self.lo(), self.hi);
        (24.0 - ((steps + 1) as f64).log2()).max(0.0)
    }

    /// Negation (endpoint swap).
    #[must_use]
    pub fn neg(&self) -> F32I {
        F32I { neg_lo: self.hi, hi: self.neg_lo }
    }

    /// Square root (NaN lower for negative lower endpoints, §IV-A).
    #[must_use]
    pub fn sqrt(&self) -> F32I {
        F32I {
            neg_lo: -f32_below(r::sqrt_rd(-self.neg_lo as f64)),
            hi: f32_above(r::sqrt_ru(self.hi as f64)),
        }
    }

    /// Promotion to a double-precision interval (exact).
    pub fn to_f64i(&self) -> crate::F64I {
        crate::F64I::from_neg_lo_hi(self.neg_lo as f64, self.hi as f64)
    }

    /// Demotion from a double-precision interval (outward).
    pub fn from_f64i(x: &crate::F64I) -> F32I {
        F32I { neg_lo: f32_above(x.neg_lo()), hi: f32_above(x.hi()) }
    }

    /// Interval minimum.
    #[must_use]
    pub fn min_i(&self, other: &F32I) -> F32I {
        if self.has_nan() || other.has_nan() {
            return F32I::NAI;
        }
        F32I { neg_lo: max_nan32(self.neg_lo, other.neg_lo), hi: self.hi.min(other.hi) }
    }

    /// Interval maximum.
    #[must_use]
    pub fn max_i(&self, other: &F32I) -> F32I {
        if self.has_nan() || other.has_nan() {
            return F32I::NAI;
        }
        F32I { neg_lo: self.neg_lo.min(other.neg_lo), hi: max_nan32(self.hi, other.hi) }
    }

    /// `self < other` three-valued.
    pub fn cmp_lt(&self, other: &F32I) -> TBool {
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

    /// `self > other` three-valued.
    pub fn cmp_gt(&self, other: &F32I) -> TBool {
        other.cmp_lt(self)
    }
}

fn ulps_between32(a: f32, b: f32) -> u64 {
    fn okey(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits >> 31 == 0 {
            bits as i64
        } else {
            -((bits & 0x7fff_ffff) as i64)
        }
    }
    (okey(b) - okey(a)).max(0) as u64
}

impl core::ops::Add for F32I {
    type Output = F32I;
    fn add(self, rhs: F32I) -> F32I {
        // f64 addition of f32 operands is exact; round outward to f32.
        F32I {
            neg_lo: f32_above(self.neg_lo as f64 + rhs.neg_lo as f64),
            hi: f32_above(self.hi as f64 + rhs.hi as f64),
        }
    }
}

impl core::ops::Sub for F32I {
    type Output = F32I;
    fn sub(self, rhs: F32I) -> F32I {
        F32I {
            neg_lo: f32_above(self.neg_lo as f64 + rhs.hi as f64),
            hi: f32_above(self.hi as f64 + rhs.neg_lo as f64),
        }
    }
}

impl core::ops::Mul for F32I {
    type Output = F32I;
    fn mul(self, rhs: F32I) -> F32I {
        // f64 products of f32 operands are exact (24+24 < 53 bits).
        let (na, ah) = (self.neg_lo as f64, self.hi as f64);
        let (nb, bh) = (rhs.neg_lo as f64, rhs.hi as f64);
        let (u1, l1) = (na * nb, -(na * nb));
        let (u2, l2) = (-(na * bh), na * bh);
        let (u3, l3) = (-(ah * nb), ah * nb);
        let (u4, l4) = (ah * bh, -(ah * bh));
        fn m(a: f64, b: f64) -> f64 {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        }
        F32I { neg_lo: f32_above(m(m(l1, l2), m(l3, l4))), hi: f32_above(m(m(u1, u2), m(u3, u4))) }
    }
}

impl core::ops::Div for F32I {
    type Output = F32I;
    fn div(self, rhs: F32I) -> F32I {
        if self.has_nan() || rhs.has_nan() {
            return F32I::NAI;
        }
        let (bl, bh) = (-rhs.neg_lo, rhs.hi);
        if bl <= 0.0 && bh >= 0.0 {
            return F32I::ENTIRE;
        }
        // f64 quotients are not exact, but the f64 *directed* quotient
        // composed with outward f32 rounding is the exact f32 directed
        // quotient (nested grids).
        let (na, ah) = (self.neg_lo as f64, self.hi as f64);
        let (nb, bh) = (rhs.neg_lo as f64, rhs.hi as f64);
        let (bl, bh_) = (-nb, bh);
        let (l1, u1) = r::div_ru_both(na, bl);
        let (l2, u2) = r::div_ru_both(na, bh_);
        let (u3, l3) = r::div_ru_both(ah, bl);
        let (u4, l4) = r::div_ru_both(ah, bh_);
        fn m(a: f64, b: f64) -> f64 {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        }
        F32I { neg_lo: f32_above(m(m(l1, l2), m(l3, l4))), hi: f32_above(m(m(u1, u2), m(u3, u4))) }
    }
}

impl core::ops::Neg for F32I {
    type Output = F32I;
    fn neg(self) -> F32I {
        F32I::neg(&self)
    }
}

impl Default for F32I {
    fn default() -> F32I {
        F32I::ZERO
    }
}

impl core::fmt::Display for F32I {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:e}, {:e}]", self.lo(), self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic_encloses() {
        let x = F32I::point(0.1);
        let s = x + x + x;
        assert!(s.contains(0.1f32 + 0.1 + 0.1));
        assert!(s.width() > 0.0);
        let p = x * F32I::point(3.0);
        assert!(p.contains(0.1f32 * 3.0));
    }

    #[test]
    fn division_composes_exact_directed_rounding() {
        let one = F32I::point(1.0);
        let three = F32I::point(3.0);
        let q = one / three;
        // The f32 directed quotients of 1/3.
        let t = 1.0f32 / 3.0f32;
        assert!(q.lo() <= t && t <= q.hi());
        assert!(ulps_between32(q.lo(), q.hi()) <= 1, "{q}");
        let z = F32I::new(-1.0, 1.0).unwrap();
        assert_eq!((one / z).hi(), f32::INFINITY);
    }

    #[test]
    fn mul_matches_f64i_mul_outward() {
        let a = F32I::new(-1.5, 2.5).unwrap();
        let b = F32I::new(0.25, 4.0).unwrap();
        let p32 = a * b;
        let p64 = a.to_f64i() * b.to_f64i();
        // The f32 product encloses the f64 product.
        assert!(p32.lo() as f64 <= p64.lo() && p64.hi() <= p32.hi() as f64);
        assert_eq!(p32.lo(), -6.0);
        assert_eq!(p32.hi(), 10.0);
    }

    #[test]
    fn sqrt_and_nan_semantics() {
        let s = F32I::new(-1.0, 4.0).unwrap().sqrt();
        assert!(s.lo().is_nan());
        assert_eq!(s.hi(), 2.0);
        let t = F32I::new(2.0, 2.0).unwrap().sqrt();
        assert!(t.contains(2.0f32.sqrt()));
        assert!(ulps_between32(t.lo(), t.hi()) <= 1);
    }

    #[test]
    fn enclose_f64_constants() {
        // 0.1 (f64) is not an f32 value: 1-ulp f32 enclosure.
        let e = F32I::enclose_f64(0.1);
        assert!((e.lo() as f64) < 0.1 && 0.1 < (e.hi() as f64));
        assert_eq!(ulps_between32(e.lo(), e.hi()), 1);
        // 0.5 is exact.
        assert!(F32I::enclose_f64(0.5).is_point());
    }

    #[test]
    fn demotion_from_f64i_is_outward() {
        // 0.1 is not an f32: demotion brackets it by two f32s.
        let d = F32I::from_f64i(&crate::F64I::point(0.1));
        assert!((d.lo() as f64) <= 0.1 && 0.1 <= (d.hi() as f64));
        assert!(d.lo() < d.hi());
        // Exact f32 values stay points, and promotion is exact.
        let half = F32I::from_f64i(&crate::F64I::point(0.5));
        assert_eq!((half.lo(), half.hi()), (0.5, 0.5));
        let p = F32I::point(0.1).to_f64i();
        assert!(p.is_point() && p.hi() == 0.1f32 as f64);
        assert!(F32I::from_f64i(&p).is_point());
        // Beyond the f32 range, the outer side overflows to infinity.
        let big = F32I::from_f64i(&crate::F64I::point(1e300));
        assert!(big.lo().is_finite() && big.hi() == f32::INFINITY);
        let neg = F32I::from_f64i(&crate::F64I::point(-1e300));
        assert!(neg.lo() == f32::NEG_INFINITY && neg.hi().is_finite());
    }

    #[test]
    fn comparisons_and_bits() {
        let a = F32I::new(0.0, 1.0).unwrap();
        let b = F32I::new(2.0, 3.0).unwrap();
        assert!(a.cmp_lt(&b).is_true());
        assert!(b.cmp_gt(&a).is_true());
        assert_eq!(F32I::point(1.0).certified_bits(), 24.0);
        let one_ulp = F32I::new(1.0, next_up32(1.0)).unwrap();
        assert_eq!(one_ulp.certified_bits(), 23.0);
    }

    #[test]
    fn tolerance() {
        let t = F32I::with_tol(5.0, 0.25);
        assert!(t.contains(4.75) && t.contains(5.25));
        assert!(!t.contains(5.3));
    }
}
