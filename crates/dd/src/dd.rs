//! The [`Dd`] type: constructors, accessors, comparisons and the
//! round-to-nearest operator impls.

use crate::arith;
use igen_round::Rn;

/// A double-double number: the unevaluated sum of two binary64 values with
/// non-overlapping significands (`hi = RN(hi + lo)`).
///
/// Provides ~106 bits of precision in the binary64 exponent range. The
/// arithmetic operator impls use round-to-nearest; the directed-rounding
/// kernels used for sound intervals live in the crate root
/// ([`crate::add_dir`] and friends).
///
/// # Example
///
/// ```
/// use igen_dd::Dd;
/// let a = Dd::from(1.0) / Dd::from(3.0);
/// let b = a * Dd::from(3.0);
/// // The error of 1/3 * 3 in double-double is below 2^-105:
/// assert!((b - Dd::from(1.0)).abs().to_f64() < 1e-31);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// One.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };
    /// Minus one.
    pub const NEG_ONE: Dd = Dd { hi: -1.0, lo: 0.0 };
    /// Positive infinity.
    pub const INFINITY: Dd = Dd { hi: f64::INFINITY, lo: 0.0 };
    /// Negative infinity.
    pub const NEG_INFINITY: Dd = Dd { hi: f64::NEG_INFINITY, lo: 0.0 };
    /// Not-a-number.
    pub const NAN: Dd = Dd { hi: f64::NAN, lo: f64::NAN };

    /// Builds a double-double from raw components, renormalizing so that
    /// `hi = RN(hi + lo)`.
    pub fn new(hi: f64, lo: f64) -> Dd {
        let (h, l) = igen_round::two_sum(hi, lo);
        Dd { hi: h, lo: l }
    }

    /// Const constructor for table-verified constant pairs (used by
    /// [`crate::consts`]; not part of the public API surface).
    #[doc(hidden)]
    pub(crate) const fn const_from_verified_parts(hi: f64, lo: f64) -> Dd {
        Dd { hi, lo }
    }

    /// Builds from components already known to be (pseudo-)normalized:
    /// `|lo|` no larger than one ulp of `hi`. This is the invariant the
    /// error-free transformations guarantee in round-to-nearest, and that
    /// the directed-rounding kernels of Graillat–Jézéquel guarantee up to
    /// one ulp (directed FastTwoSum outputs need not be RN-canonical).
    #[inline]
    pub fn from_parts_unchecked(hi: f64, lo: f64) -> Dd {
        debug_assert!(
            hi.is_nan()
                || !hi.is_finite()
                || hi == 0.0
                || lo == 0.0
                || lo.abs() <= igen_round::ulp(hi) * 4.0
                || hi.abs() < 1e-290, // deep-subnormal tails are only bounds
            "overlapping components: ({hi}, {lo})"
        );
        Dd { hi, lo }
    }

    /// The high (leading) component, `RN(self)` as an f64.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The low (trailing) component.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Rounds to a single binary64 (the high component, by the invariant).
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.hi
    }

    /// True if either component is NaN.
    pub fn is_nan(&self) -> bool {
        self.hi.is_nan() || self.lo.is_nan()
    }

    /// True if the value is finite.
    pub fn is_finite(&self) -> bool {
        self.hi.is_finite() && self.lo.is_finite()
    }

    /// True for exact (double-double) zero.
    pub fn is_zero(&self) -> bool {
        self.hi == 0.0 && self.lo == 0.0
    }

    /// Sign predicate: negative iff the leading component is negative
    /// (the invariant makes `hi` carry the sign except at zero).
    pub fn is_sign_negative(&self) -> bool {
        if self.hi == 0.0 {
            self.hi.is_sign_negative()
        } else {
            self.hi < 0.0
        }
    }

    /// Negation (exact).
    #[must_use]
    pub fn neg(&self) -> Dd {
        Dd { hi: -self.hi, lo: -self.lo }
    }

    /// Absolute value (exact).
    #[must_use]
    pub fn abs(&self) -> Dd {
        if self.is_sign_negative() {
            self.neg()
        } else {
            *self
        }
    }

    /// Exact scaling by a power of two (no rounding unless over/underflow).
    #[must_use]
    pub fn scale2(&self, n: i32) -> Dd {
        let f = pow2(n);
        Dd { hi: self.hi * f, lo: self.lo * f }
    }

    /// Square root in round-to-nearest (see [`crate::sqrt_rn`]).
    #[must_use]
    pub fn sqrt(&self) -> Dd {
        arith::sqrt_rn(*self)
    }

    /// Numeric comparison (NaN compares as `None`).
    ///
    /// Both operands are first renormalized with an (exact) TwoSum so the
    /// comparison is also reliable for the pseudo-normalized outputs of
    /// the directed-rounding kernels; at worst an exact tie between values
    /// in adjacent binades is reported as an inequality, which is harmless
    /// for min/max selection.
    pub fn cmp_num(&self, other: &Dd) -> Option<core::cmp::Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        let (ah, al) = igen_round::two_sum(self.hi, self.lo);
        let (bh, bl) = igen_round::two_sum(other.hi, other.lo);
        match ah.partial_cmp(&bh) {
            Some(core::cmp::Ordering::Equal) => al.partial_cmp(&bl),
            o => o,
        }
    }

    /// `self < other` (false on NaN).
    pub fn lt(&self, other: &Dd) -> bool {
        self.cmp_num(other) == Some(core::cmp::Ordering::Less)
    }

    /// `self <= other` (false on NaN).
    pub fn le(&self, other: &Dd) -> bool {
        matches!(
            self.cmp_num(other),
            Some(core::cmp::Ordering::Less) | Some(core::cmp::Ordering::Equal)
        )
    }

    /// Componentwise minimum by value (NaN-propagating on the left).
    #[must_use]
    pub fn min(self, other: Dd) -> Dd {
        if self.le(&other) {
            self
        } else {
            other
        }
    }

    /// Componentwise maximum by value.
    #[must_use]
    pub fn max(self, other: Dd) -> Dd {
        if other.le(&self) {
            self
        } else {
            other
        }
    }
}

/// `2^n` as f64 (clamped to the finite range).
fn pow2(n: i32) -> f64 {
    if n >= 1024 {
        f64::INFINITY
    } else if n >= -1022 {
        f64::from_bits(((1023 + n) as u64) << 52)
    } else if n >= -1074 {
        f64::from_bits(1u64 << (n + 1074))
    } else {
        0.0
    }
}

impl From<f64> for Dd {
    /// Exact injection of a binary64 value.
    fn from(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }
}

impl From<i32> for Dd {
    /// Exact injection of a 32-bit integer.
    fn from(x: i32) -> Dd {
        Dd { hi: x as f64, lo: 0.0 }
    }
}

impl core::ops::Add for Dd {
    type Output = Dd;
    fn add(self, rhs: Dd) -> Dd {
        arith::add_dir::<Rn>(self, rhs)
    }
}

impl core::ops::Sub for Dd {
    type Output = Dd;
    fn sub(self, rhs: Dd) -> Dd {
        arith::sub_dir::<Rn>(self, rhs)
    }
}

impl core::ops::Mul for Dd {
    type Output = Dd;
    fn mul(self, rhs: Dd) -> Dd {
        arith::mul_dir::<Rn>(self, rhs)
    }
}

impl core::ops::Div for Dd {
    type Output = Dd;
    fn div(self, rhs: Dd) -> Dd {
        arith::div_rn(self, rhs)
    }
}

impl core::ops::Neg for Dd {
    type Output = Dd;
    fn neg(self) -> Dd {
        Dd::neg(&self)
    }
}

impl core::fmt::Display for Dd {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:e}{:+e}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let d = Dd::new(1.0, 1.0);
        assert_eq!(d.hi(), 2.0);
        assert_eq!(d.lo(), 0.0);
        let d = Dd::new(1e16, 1.0);
        assert_eq!(d.hi(), 1e16);
        assert_eq!(d.lo(), 1.0);
    }

    #[test]
    fn sign_and_abs() {
        assert!(Dd::from(-2.0).is_sign_negative());
        assert!(!Dd::from(2.0).is_sign_negative());
        assert_eq!(Dd::from(-2.0).abs().to_f64(), 2.0);
        // Negative-zero dd.
        assert!(Dd::from(-0.0).is_sign_negative());
    }

    #[test]
    fn comparisons_use_both_components() {
        let a = Dd::new(1.0, 1e-20);
        let b = Dd::new(1.0, 2e-20);
        assert!(a.lt(&b));
        assert!(a.le(&a));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scale2_exact() {
        let x = Dd::new(3.0, 1e-20);
        let y = x.scale2(-4);
        assert_eq!(y.hi(), 3.0 / 16.0);
        assert_eq!(y.lo(), 1e-20 / 16.0);
    }

    #[test]
    fn display_roundtrips_visually() {
        let s = format!("{}", Dd::new(1.0, f64::EPSILON / 4.0));
        assert!(s.contains("1e0"), "{s}");
    }
}
