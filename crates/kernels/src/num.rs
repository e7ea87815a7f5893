//! The numeric abstraction the benchmark kernels are written against.
//!
//! Each kernel (FFT, GEMM, Cholesky, FFNN, MVM, Hénon) is written once,
//! generically, and instantiated at:
//!
//! * `f64` — the paper's non-interval baseline;
//! * [`igen_interval::F64I`] — IGen double-precision intervals;
//! * [`igen_interval::DdI`] — IGen double-double intervals;
//! * `igen_baselines::{BoostI, FilibI, GaolI}` — the library baselines.
//!
//! This models exactly what the paper does: the same source computation
//! compiled against different arithmetic back ends. [`Numeric`] is
//! scalar only: the packed lane types and their one lane trait,
//! `igen_interval::LaneOps`, live in `igen-interval`, and compiled
//! programs reach them through `igen-vm`.

use igen_baselines::{BoostI, FilibI, GaolI, NaiveI};
use igen_interval::{DdI, F32I, F64I};

/// A sound (or plain) numeric type usable by the kernels.
pub trait Numeric:
    Copy
    + Clone
    + core::fmt::Debug
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Exact injection of a binary64 value (a point, for interval types).
    fn from_f64(v: f64) -> Self;

    /// Sound enclosure of a *real* constant whose nearest double is `v`
    /// (±1 ulp for interval types; plain value for `f64`). Used for
    /// twiddle factors and other transcendental constants.
    fn from_f64_enclose(v: f64) -> Self;

    /// Zero.
    fn zero() -> Self {
        Self::from_f64(0.0)
    }

    /// One.
    fn one() -> Self {
        Self::from_f64(1.0)
    }

    /// Sound enclosure of the exact rational `num/den` at the type's own
    /// precision (double-double types enclose at ~2^-106 relative — this
    /// is how decimal constants like 1.05 stay accurate in the `ddi`
    /// instantiations).
    fn from_rational(num: i64, den: i64) -> Self {
        Self::from_f64_enclose(num as f64 / den as f64)
    }

    /// Sound enclosure of `sin x` at the type's own precision (twiddle
    /// factors).
    fn enclose_sin(x: f64) -> Self {
        Self::from_f64_enclose(x.sin())
    }

    /// Sound enclosure of `cos x` at the type's own precision.
    fn enclose_cos(x: f64) -> Self {
        Self::from_f64_enclose(x.cos())
    }

    /// Square root (sound for interval types).
    fn sqrt_n(self) -> Self;

    /// Absolute value (sound for interval types).
    fn abs_n(self) -> Self;

    /// `x²`. The default multiplies; interval types with a
    /// sign-tracking square override it with the tighter kernel.
    fn sqr_n(self) -> Self {
        self * self
    }

    /// Pointwise minimum (for intervals: `[min lo, min hi]`).
    fn min_n(self, other: Self) -> Self;

    /// Pointwise maximum (for intervals: `[max lo, max hi]`).
    fn max_n(self, other: Self) -> Self;

    /// `max(0, x)` — the ReLU activation of the ffnn benchmark.
    fn relu(self) -> Self;

    /// The midpoint / representative value (for reporting).
    fn mid_f64(&self) -> f64;

    /// Certified accuracy in bits (53 for plain `f64` by convention —
    /// an unsound baseline "certifies" nothing, but the evaluation uses
    /// this accessor only on sound types).
    fn certified_bits_n(&self) -> f64;
}

impl Numeric for f64 {
    fn from_f64(v: f64) -> f64 {
        v
    }
    fn from_f64_enclose(v: f64) -> f64 {
        v
    }
    fn from_rational(num: i64, den: i64) -> f64 {
        num as f64 / den as f64
    }
    fn sqrt_n(self) -> f64 {
        self.sqrt()
    }
    fn abs_n(self) -> f64 {
        self.abs()
    }
    fn min_n(self, other: f64) -> f64 {
        self.min(other)
    }
    fn max_n(self, other: f64) -> f64 {
        self.max(other)
    }
    fn relu(self) -> f64 {
        self.max(0.0)
    }
    fn mid_f64(&self) -> f64 {
        *self
    }
    fn certified_bits_n(&self) -> f64 {
        53.0
    }
}

impl Numeric for F64I {
    fn from_f64(v: f64) -> F64I {
        F64I::point(v)
    }
    fn from_f64_enclose(v: f64) -> F64I {
        F64I::enclose_decimal(v)
    }
    fn from_rational(num: i64, den: i64) -> F64I {
        F64I::point(num as f64) / F64I::point(den as f64)
    }
    fn enclose_sin(x: f64) -> F64I {
        let (lo, hi) = igen_interval::elem::sin_point(x);
        F64I::new(lo, hi).expect("ordered")
    }
    fn enclose_cos(x: f64) -> F64I {
        let (lo, hi) = igen_interval::elem::cos_point(x);
        F64I::new(lo, hi).expect("ordered")
    }
    fn sqrt_n(self) -> F64I {
        self.sqrt()
    }
    fn abs_n(self) -> F64I {
        self.abs()
    }
    fn sqr_n(self) -> F64I {
        self.sqr()
    }
    fn min_n(self, other: F64I) -> F64I {
        self.min_i(&other)
    }
    fn max_n(self, other: F64I) -> F64I {
        self.max_i(&other)
    }
    fn relu(self) -> F64I {
        self.max_i(&F64I::ZERO)
    }
    fn mid_f64(&self) -> f64 {
        self.mid()
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for DdI {
    fn from_f64(v: f64) -> DdI {
        DdI::point_f64(v)
    }
    fn from_f64_enclose(v: f64) -> DdI {
        DdI::from_f64i(&F64I::enclose_decimal(v))
    }
    fn from_rational(num: i64, den: i64) -> DdI {
        DdI::point_f64(num as f64) / DdI::point_f64(den as f64)
    }
    fn enclose_sin(x: f64) -> DdI {
        let (lo, hi) = igen_interval::elem::sin_enclose_dd(x);
        DdI::new(lo, hi).expect("ordered")
    }
    fn enclose_cos(x: f64) -> DdI {
        let (lo, hi) = igen_interval::elem::cos_enclose_dd(x);
        DdI::new(lo, hi).expect("ordered")
    }
    fn sqrt_n(self) -> DdI {
        self.sqrt()
    }
    fn abs_n(self) -> DdI {
        self.abs()
    }
    fn sqr_n(self) -> DdI {
        self.sqr()
    }
    fn min_n(self, other: DdI) -> DdI {
        self.min_i(&other)
    }
    fn max_n(self, other: DdI) -> DdI {
        self.max_i(&other)
    }
    fn relu(self) -> DdI {
        self.max_i(&DdI::ZERO)
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo().to_f64() + self.hi().to_f64())
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for F32I {
    fn from_f64(v: f64) -> F32I {
        F32I::enclose_f64(v)
    }
    fn from_f64_enclose(v: f64) -> F32I {
        F32I::enclose_f64(v)
    }
    fn sqrt_n(self) -> F32I {
        self.sqrt()
    }
    fn abs_n(self) -> F32I {
        // Same roundtrip the interpreter's `ia_abs_f32` builtin uses:
        // the f64 kernel is exact on f32 endpoints.
        F32I::from_f64i(&self.to_f64i().abs())
    }
    fn min_n(self, other: F32I) -> F32I {
        self.min_i(&other)
    }
    fn max_n(self, other: F32I) -> F32I {
        self.max_i(&other)
    }
    fn relu(self) -> F32I {
        self.max_i(&F32I::ZERO)
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo() as f64 + self.hi() as f64)
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for NaiveI {
    fn from_f64(v: f64) -> NaiveI {
        NaiveI::point(v)
    }
    fn from_f64_enclose(v: f64) -> NaiveI {
        NaiveI::new(igen_round::next_down(v), igen_round::next_up(v))
    }
    fn sqrt_n(self) -> NaiveI {
        self.sqrt()
    }
    fn abs_n(self) -> NaiveI {
        let (l, h) = (self.lo(), self.hi());
        if l >= 0.0 {
            self
        } else if h <= 0.0 {
            NaiveI::new(-h, -l)
        } else {
            NaiveI::new(0.0, (-l).max(h))
        }
    }
    fn min_n(self, other: NaiveI) -> NaiveI {
        NaiveI::new(self.lo().min(other.lo()), self.hi().min(other.hi()))
    }
    fn max_n(self, other: NaiveI) -> NaiveI {
        NaiveI::new(self.lo().max(other.lo()), self.hi().max(other.hi()))
    }
    fn relu(self) -> NaiveI {
        self.max_zero()
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo() + self.hi())
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for BoostI {
    fn from_f64(v: f64) -> BoostI {
        BoostI::point(v)
    }
    fn from_f64_enclose(v: f64) -> BoostI {
        BoostI::new(igen_round::next_down(v), igen_round::next_up(v))
    }
    fn sqrt_n(self) -> BoostI {
        self.sqrt()
    }
    fn abs_n(self) -> BoostI {
        let (l, h) = (self.lo(), self.hi());
        if l >= 0.0 {
            self
        } else if h <= 0.0 {
            BoostI::new(-h, -l)
        } else {
            BoostI::new(0.0, (-l).max(h))
        }
    }
    fn min_n(self, other: BoostI) -> BoostI {
        BoostI::new(self.lo().min(other.lo()), self.hi().min(other.hi()))
    }
    fn max_n(self, other: BoostI) -> BoostI {
        BoostI::new(self.lo().max(other.lo()), self.hi().max(other.hi()))
    }
    fn relu(self) -> BoostI {
        self.max_zero()
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo() + self.hi())
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for FilibI {
    fn from_f64(v: f64) -> FilibI {
        FilibI::point(v)
    }
    fn from_f64_enclose(v: f64) -> FilibI {
        FilibI::new(igen_round::next_down(v), igen_round::next_up(v))
    }
    fn sqrt_n(self) -> FilibI {
        self.sqrt()
    }
    fn abs_n(self) -> FilibI {
        let (l, h) = (self.lo(), self.hi());
        if l >= 0.0 {
            self
        } else if h <= 0.0 {
            FilibI::new(-h, -l)
        } else {
            FilibI::new(0.0, (-l).max(h))
        }
    }
    fn min_n(self, other: FilibI) -> FilibI {
        FilibI::new(self.lo().min(other.lo()), self.hi().min(other.hi()))
    }
    fn max_n(self, other: FilibI) -> FilibI {
        FilibI::new(self.lo().max(other.lo()), self.hi().max(other.hi()))
    }
    fn relu(self) -> FilibI {
        self.max_zero()
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo() + self.hi())
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

impl Numeric for GaolI {
    fn from_f64(v: f64) -> GaolI {
        GaolI::point(v)
    }
    fn from_f64_enclose(v: f64) -> GaolI {
        GaolI::new(igen_round::next_down(v), igen_round::next_up(v))
    }
    fn sqrt_n(self) -> GaolI {
        self.sqrt()
    }
    fn abs_n(self) -> GaolI {
        let (l, h) = (self.lo(), self.hi());
        if l >= 0.0 {
            self
        } else if h <= 0.0 {
            GaolI::new(-h, -l)
        } else {
            GaolI::new(0.0, (-l).max(h))
        }
    }
    fn min_n(self, other: GaolI) -> GaolI {
        GaolI::new(self.lo().min(other.lo()), self.hi().min(other.hi()))
    }
    fn max_n(self, other: GaolI) -> GaolI {
        GaolI::new(self.lo().max(other.lo()), self.hi().max(other.hi()))
    }
    fn relu(self) -> GaolI {
        self.max_zero()
    }
    fn mid_f64(&self) -> f64 {
        0.5 * (self.lo() + self.hi())
    }
    fn certified_bits_n(&self) -> f64 {
        self.certified_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_formula<T: Numeric>(a: f64, b: f64, c: f64) -> T {
        // (-b + sqrt(b^2 - 4ac)) / (2a): exercises every trait op.
        let (a, b, c) = (T::from_f64(a), T::from_f64(b), T::from_f64(c));
        let four = T::from_f64(4.0);
        let two = T::from_f64(2.0);
        let disc = (b * b - four * a * c).sqrt_n();
        (-b + disc) / (two * a)
    }

    #[test]
    fn all_impls_agree_on_midpoints() {
        let truth: f64 = quad_formula::<f64>(1.0, -3.0, 2.0); // root 2
        assert_eq!(truth, 2.0);
        assert!((quad_formula::<F64I>(1.0, -3.0, 2.0).mid_f64() - 2.0).abs() < 1e-12);
        assert!((quad_formula::<DdI>(1.0, -3.0, 2.0).mid_f64() - 2.0).abs() < 1e-12);
        assert!((quad_formula::<BoostI>(1.0, -3.0, 2.0).mid_f64() - 2.0).abs() < 1e-12);
        assert!((quad_formula::<FilibI>(1.0, -3.0, 2.0).mid_f64() - 2.0).abs() < 1e-12);
        assert!((quad_formula::<GaolI>(1.0, -3.0, 2.0).mid_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interval_impls_contain_f64_run() {
        let truth: f64 = quad_formula::<f64>(2.0, -7.3, 1.9);
        let iv = quad_formula::<F64I>(2.0, -7.3, 1.9);
        assert!(iv.contains(truth));
        let dd = quad_formula::<DdI>(2.0, -7.3, 1.9);
        assert!(dd.to_f64i().contains(truth));
    }

    #[test]
    fn f32_instantiation_is_sound_but_coarse() {
        let r32: F32I = quad_formula(2.0, -7.3, 1.9);
        let r64: F64I = quad_formula(2.0, -7.3, 1.9);
        // The f32 enclosure covers the f64 one, with far fewer bits.
        assert!((r32.lo() as f64) <= r64.lo() && r64.hi() <= (r32.hi() as f64));
        assert!(r32.certified_bits_n() <= 24.0);
        assert!(r32.certified_bits_n() > 15.0);
    }

    #[test]
    fn relu_and_enclose() {
        assert_eq!((-3.0f64).relu(), 0.0);
        let e = F64I::from_f64_enclose(std::f64::consts::PI);
        assert!(e.contains(std::f64::consts::PI));
        assert!(e.width() > 0.0);
    }
}
