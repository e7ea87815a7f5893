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
//! compiled against different arithmetic back ends.

use igen_baselines::{BoostI, FilibI, GaolI, NaiveI};
use igen_interval::{DdI, DdIx4, F64Ix4, LaneOps, F32I, F64I};
use igen_round::simd::{self, SweepOp};

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
    /// The widest lane vector available for this element type:
    /// [`F64Ix4`]/[`DdIx4`] for the IGen interval types, `Self` (one
    /// lane) for everything without a packed representation. Code
    /// written against [`LaneOrScalar`] instantiates at `T::Lane` to get
    /// the packed path and at `T` itself to get the scalar reference.
    type Lane: LaneOrScalar<Self>;

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

/// One instruction loop, two instantiations: a value that is either a
/// single [`Numeric`] element (`WIDTH == 1`) or a packed lane vector of
/// `WIDTH` elements. The bytecode VM's tile executor (`igen_vm::run_tile`)
/// is written once against this trait; at `L = T` it runs the scalar
/// tail, and at `L = T::Lane` every lane executes exactly that scalar
/// operation sequence on its own item — which, with the packed
/// `igen_round::simd` kernels being lane-wise bit-identical to the
/// scalar ops, makes the two instantiations bit-identical element for
/// element.
pub trait LaneOrScalar<T: Numeric>:
    Copy
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + Send
    + Sync
{
    /// Elements per value (1 for the scalar instantiation).
    const WIDTH: usize;

    /// Broadcasts one element to every lane.
    fn splat_l(v: T) -> Self;

    /// Builds a value lane by lane from `f(0), .., f(WIDTH - 1)`.
    fn from_fn_l(f: impl FnMut(usize) -> T) -> Self;

    /// The `i`-th element (`i < WIDTH`).
    fn lane_l(self, i: usize) -> T;

    /// Per-lane square root.
    #[must_use]
    fn sqrt_l(self) -> Self;

    /// Per-lane absolute value.
    #[must_use]
    fn abs_l(self) -> Self;

    /// Per-lane square (the sign-tracking kernel where one exists).
    #[must_use]
    fn sqr_l(self) -> Self;

    /// Per-lane pointwise minimum.
    #[must_use]
    fn min_l(self, other: Self) -> Self;

    /// Per-lane pointwise maximum.
    #[must_use]
    fn max_l(self, other: Self) -> Self;

    /// Runs the arithmetic `op` over groups `0..n` of a register bank:
    /// group `g` reads `bank[a + g]` and `bank[b + g]` (and the
    /// accumulator's) and writes `bank[dst + g]`, reading its sources
    /// before writing, so a destination may alias any source. Every
    /// group gets exactly the bits of the value ops (`z + x * y` for
    /// `MulAdd`). The default runs the value ops group by group; a lane
    /// type with a whole-sweep kernel overrides it.
    ///
    /// # Panics
    ///
    /// Panics if a range runs past the end of `bank`.
    #[inline(always)]
    fn sweep_l(op: SweepOp, bank: &mut [Self], n: usize, dst: usize, a: usize, b: usize) {
        sweep_groups(op, bank, n, dst, a, b);
    }
}

/// The group-by-group sweep behind [`LaneOrScalar::sweep_l`]: one value
/// op per group, with the op matched once per sweep rather than once
/// per group.
#[inline(always)]
fn sweep_groups<L>(op: SweepOp, bank: &mut [L], n: usize, dst: usize, a: usize, b: usize)
where
    L: Copy + core::ops::Add<Output = L> + core::ops::Sub<Output = L> + core::ops::Mul<Output = L>,
{
    let acc = match op {
        SweepOp::MulAdd { acc } | SweepOp::MulSub { acc } => acc,
        SweepOp::Add | SweepOp::Sub | SweepOp::Mul => dst,
    };
    // One bounds proof up front lets the inner loops run unchecked.
    let len = bank.len();
    assert!(dst + n <= len && a + n <= len && b + n <= len && acc + n <= len);
    match op {
        SweepOp::Add => (0..n).for_each(|g| bank[dst + g] = bank[a + g] + bank[b + g]),
        SweepOp::Sub => (0..n).for_each(|g| bank[dst + g] = bank[a + g] - bank[b + g]),
        SweepOp::Mul => (0..n).for_each(|g| bank[dst + g] = bank[a + g] * bank[b + g]),
        SweepOp::MulAdd { .. } => {
            (0..n).for_each(|g| bank[dst + g] = bank[acc + g] + bank[a + g] * bank[b + g])
        }
        SweepOp::MulSub { .. } => {
            (0..n).for_each(|g| bank[dst + g] = bank[acc + g] - bank[a + g] * bank[b + g])
        }
    }
}

/// Every numeric element is itself a 1-wide "lane vector": the scalar
/// instantiation.
impl<T: Numeric> LaneOrScalar<T> for T {
    const WIDTH: usize = 1;

    fn splat_l(v: T) -> T {
        v
    }
    fn from_fn_l(mut f: impl FnMut(usize) -> T) -> T {
        f(0)
    }
    fn lane_l(self, i: usize) -> T {
        debug_assert!(i == 0, "scalar LaneOrScalar has exactly one lane, got index {i}");
        self
    }
    fn sqrt_l(self) -> T {
        self.sqrt_n()
    }
    fn abs_l(self) -> T {
        self.abs_n()
    }
    fn sqr_l(self) -> T {
        self.sqr_n()
    }
    fn min_l(self, other: T) -> T {
        self.min_n(other)
    }
    fn max_l(self, other: T) -> T {
        self.max_n(other)
    }
}

impl LaneOrScalar<F64I> for F64Ix4 {
    const WIDTH: usize = 4;

    fn splat_l(v: F64I) -> F64Ix4 {
        <F64Ix4 as LaneOps>::splat(v)
    }
    fn from_fn_l(f: impl FnMut(usize) -> F64I) -> F64Ix4 {
        <F64Ix4 as LaneOps>::from_lanes_fn(f)
    }
    fn lane_l(self, i: usize) -> F64I {
        <F64Ix4 as LaneOps>::lane(&self, i)
    }
    fn sqrt_l(self) -> F64Ix4 {
        <F64Ix4 as LaneOps>::sqrt(self)
    }
    fn abs_l(self) -> F64Ix4 {
        <F64Ix4 as LaneOps>::abs(self)
    }
    fn sqr_l(self) -> F64Ix4 {
        <F64Ix4 as LaneOps>::sqr(self)
    }
    // min/max have no packed kernel: the lanes are independent and the
    // endpoint selections exact, so the lane-wise loop is bit-identical
    // to the scalar instantiation.
    fn min_l(self, other: F64Ix4) -> F64Ix4 {
        <F64Ix4 as LaneOps>::from_lanes_fn(|i| self.lane_l(i).min_i(&other.lane_l(i)))
    }
    fn max_l(self, other: F64Ix4) -> F64Ix4 {
        <F64Ix4 as LaneOps>::from_lanes_fn(|i| self.lane_l(i).max_i(&other.lane_l(i)))
    }
    /// One `simd::f64i_sweep_4` call for the whole sweep where the
    /// backend has the kernel (AVX2+FMA), the group-by-group loop
    /// elsewhere.
    #[inline]
    fn sweep_l(op: SweepOp, bank: &mut [F64Ix4], n: usize, dst: usize, a: usize, b: usize) {
        if !simd::f64i_sweep_4(simd::active_backend(), op, bank, n, dst, a, b) {
            sweep_groups(op, bank, n, dst, a, b);
        }
    }
}

impl LaneOrScalar<DdI> for DdIx4 {
    const WIDTH: usize = 4;

    fn splat_l(v: DdI) -> DdIx4 {
        <DdIx4 as LaneOps>::splat(v)
    }
    fn from_fn_l(f: impl FnMut(usize) -> DdI) -> DdIx4 {
        <DdIx4 as LaneOps>::from_lanes_fn(f)
    }
    fn lane_l(self, i: usize) -> DdI {
        <DdIx4 as LaneOps>::lane(&self, i)
    }
    fn sqrt_l(self) -> DdIx4 {
        <DdIx4 as LaneOps>::sqrt(self)
    }
    fn abs_l(self) -> DdIx4 {
        <DdIx4 as LaneOps>::abs(self)
    }
    fn sqr_l(self) -> DdIx4 {
        <DdIx4 as LaneOps>::sqr(self)
    }
    fn min_l(self, other: DdIx4) -> DdIx4 {
        <DdIx4 as LaneOps>::from_lanes_fn(|i| self.lane_l(i).min_i(&other.lane_l(i)))
    }
    fn max_l(self, other: DdIx4) -> DdIx4 {
        <DdIx4 as LaneOps>::from_lanes_fn(|i| self.lane_l(i).max_i(&other.lane_l(i)))
    }
}

impl Numeric for f64 {
    type Lane = f64;

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
    type Lane = F64Ix4;

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
    type Lane = DdIx4;

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
    type Lane = F32I;

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
    type Lane = NaiveI;

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
    type Lane = BoostI;

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
    type Lane = FilibI;

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
    type Lane = GaolI;

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
