//! Vectorized interval types (Section IV-A "Vectorized intervals" and
//! Table II), and [`LaneOps`], the one lane trait every packed kernel
//! and the bytecode VM are written against.
//!
//! In the paper's C runtime a double-precision interval occupies one SSE
//! register (`__m128d`) and the wider types pack 2 or 4 intervals into
//! AVX registers. Every packed kernel here works on 4 intervals, in the
//! same layout transposed into **SoA-in-register** form: [`F64Ix4`] holds a
//! `neg_lo[4]` column and a `hi[4]` column ([`simd::F64iCols4`]), so each
//! column is exactly one AVX register. Add, sub and mul are one interval
//! kernel call each (`simd::f64i_add_4`/`f64i_mul_4`: on AVX2+FMA the
//! whole branch-free Section II recipe in registers, four intervals at a
//! time, with flagged lanes recomputed by the scalar op; on the portable
//! backend the column primitives composed in the scalar order), and the
//! other ops map onto the packed directed-rounding kernels of
//! [`igen_round::simd`]. The kernels are selected once at runtime by CPU
//! feature detection; on hosts without AVX2 and FMA, and under
//! [`igen_round::simd::force_backend`], the same code runs through the
//! portable scalar lane loop. All paths are bit-identical per lane to the
//! scalar [`F64I`] operations — the property tests pin this on random
//! and special-value lanes.
//!
//! [`DdIx4`] applies the same transposition to double-double intervals:
//! four columns (high and low words of `neg_lo` and of `hi`). A `DdI`
//! operation is a chain of about a hundred dependent operations per
//! directed product — longer than the out-of-order window, so
//! independent scalar lanes barely overlap — and the packed kernels run
//! the four chains side by side in one register each: add, sub and mul
//! are one kernel call apiece on the AVX2+FMA backend, with the lanes
//! that leave the scalar hot path recomputed by the scalar op (see
//! DESIGN.md §10).
//!
//! The scalar [`F64I`] and [`DdI`] implement [`LaneOps`] too, at one
//! lane: that is the instantiation `igen_vm::run_scalar` runs.

use crate::ddi::DdI;
use crate::f64i::F64I;
use igen_dd::Dd;
use igen_round::simd::{self, SweepOp};

/// The one operation surface of the interval lane types. The bytecode
/// VM's instruction loop and every vectorized kernel are written once
/// against this trait and instantiated at the packed [`F64Ix4`] and
/// [`DdIx4`] (packed x86 kernels with scalar-patch fallback; the
/// double-double type packs add, sub and mul and runs its other ops lane
/// by lane) and at the scalar [`F64I`] and [`DdI`] (one lane).
///
/// Every method is **bit-identical per lane** to the corresponding scalar
/// [`F64I`]/[`DdI`] operation: a lane of `a.sqrt()` equals
/// `a.lane(i).sqrt()` exactly, for all inputs including NaN, infinities,
/// subnormals and signed zeros (see DESIGN.md §10/§12 for why the packed
/// paths preserve this).
pub trait LaneOps:
    Copy
    + core::fmt::Debug
    + PartialEq
    + Default
    + Send
    + Sync
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
{
    /// The scalar interval element packed in each lane.
    type Elem: Copy + core::fmt::Debug + PartialEq;

    /// Number of packed intervals (1 for the scalar types).
    const LANES: usize;

    /// Broadcasts one interval to all lanes.
    fn splat(v: Self::Elem) -> Self;

    /// Builds a vector by evaluating `f` once per lane index, in order.
    fn from_lanes_fn(f: impl FnMut(usize) -> Self::Elem) -> Self;

    /// Lane accessor.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the type and index if
    /// `i >= LANES`.
    fn lane(&self, i: usize) -> Self::Elem;

    /// Loads the first `LANES` elements of a slice.
    ///
    /// # Panics
    ///
    /// Panics with a message naming both lengths if `s.len() < LANES`.
    fn load(s: &[Self::Elem]) -> Self {
        assert!(
            s.len() >= Self::LANES,
            "LaneOps::load: slice of {} elements cannot fill {} lanes",
            s.len(),
            Self::LANES
        );
        Self::from_lanes_fn(|i| s[i])
    }

    /// Stores the lanes to the first `LANES` slots of a slice.
    ///
    /// # Panics
    ///
    /// Panics with a message naming both lengths if `s.len() < LANES`.
    fn store(&self, s: &mut [Self::Elem]) {
        assert!(
            s.len() >= Self::LANES,
            "LaneOps::store: {} lanes do not fit in a slice of {} elements",
            Self::LANES,
            s.len()
        );
        for (i, out) in s.iter_mut().enumerate().take(Self::LANES) {
            *out = self.lane(i);
        }
    }

    /// Lane-wise multiply-accumulate `self * b + c`: the packed multiply
    /// followed by the packed add — the same operation sequence as the
    /// scalar `x * b + c` per lane.
    #[must_use]
    fn mul_add(self, b: Self, c: Self) -> Self {
        self * b + c
    }

    /// Lane-wise interval square root.
    #[must_use]
    fn sqrt(self) -> Self;

    /// Lane-wise interval absolute value.
    #[must_use]
    fn abs(self) -> Self;

    /// Lane-wise dependency-aware interval square (`sqr`, never
    /// negative — unlike `self * self`).
    #[must_use]
    fn sqr(self) -> Self;

    /// Lane-wise pointwise minimum (`[min lo, min hi]`).
    #[must_use]
    fn min(self, other: Self) -> Self;

    /// Lane-wise pointwise maximum (`[max lo, max hi]`).
    #[must_use]
    fn max(self, other: Self) -> Self;

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
    fn sweep(op: SweepOp, bank: &mut [Self], n: usize, dst: usize, a: usize, b: usize) {
        sweep_groups(op, bank, n, dst, a, b);
    }
}

/// The group-by-group sweep behind [`LaneOps::sweep`]: one value op per
/// group, with the op matched once per sweep rather than once per group.
#[inline(always)]
fn sweep_groups<L: LaneOps>(op: SweepOp, bank: &mut [L], n: usize, dst: usize, a: usize, b: usize) {
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

/// The scalar interval types are one-lane [`LaneOps`]: every method is
/// the type's own scalar operation.
macro_rules! scalar_lane {
    ($t:ident) => {
        impl LaneOps for $t {
            type Elem = $t;
            const LANES: usize = 1;

            #[inline]
            fn splat(v: $t) -> $t {
                v
            }
            #[inline]
            fn from_lanes_fn(mut f: impl FnMut(usize) -> $t) -> $t {
                f(0)
            }
            #[inline]
            fn lane(&self, i: usize) -> $t {
                assert!(i == 0, concat!(stringify!($t), " lane index {} out of range (1 lane)"), i);
                *self
            }
            #[inline]
            fn sqrt(self) -> $t {
                $t::sqrt(&self)
            }
            #[inline]
            fn abs(self) -> $t {
                $t::abs(&self)
            }
            #[inline]
            fn sqr(self) -> $t {
                $t::sqr(&self)
            }
            #[inline]
            fn min(self, other: $t) -> $t {
                self.min_i(&other)
            }
            #[inline]
            fn max(self, other: $t) -> $t {
                self.max_i(&other)
            }
        }
    };
}

scalar_lane!(F64I);
scalar_lane!(DdI);

/// Four packed double-precision intervals — the counterpart of two AVX
/// registers (`m256di_2`), the widest shape the vectorized kernels use —
/// in SoA-in-register layout: one column of negated lower endpoints and
/// one of upper endpoints ([`simd::F64iCols4`]), exactly the scalar
/// [`F64I`] representation transposed across the lanes. Each endpoint
/// column is one 256-bit register on the AVX2 backend.
///
/// Addition, subtraction and multiplication are one call each to
/// `simd::f64i_add_4`/`f64i_mul_4`, which run the whole interval op in
/// registers on AVX2+FMA and recompute the lanes their validity mask
/// flags with the scalar op. [`AsRef`]/[`AsMut`] expose the columns to
/// `simd::f64i_sweep_4`, which runs one op over a bank of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64Ix4 {
    cols: simd::F64iCols4,
}

impl F64Ix4 {
    /// Packs four intervals.
    pub fn from_lanes(xs: [F64I; 4]) -> F64Ix4 {
        F64Ix4 { cols: simd::F64iCols4 { neg_lo: xs.map(|x| x.neg_lo()), hi: xs.map(|x| x.hi()) } }
    }

    /// Builds directly from endpoint columns — the raw representation,
    /// used by the batch engine to feed packed kernels straight from its
    /// SoA buffers. The caller asserts every lane is a valid interval
    /// (`-neg_lo[i] <= hi[i]` or NaN), as with [`F64I::from_neg_lo_hi`].
    #[inline]
    pub fn from_columns(neg_lo: [f64; 4], hi: [f64; 4]) -> F64Ix4 {
        #[cfg(debug_assertions)]
        for i in 0..4 {
            let _ = F64I::from_neg_lo_hi(neg_lo[i], hi[i]);
        }
        F64Ix4 { cols: simd::F64iCols4 { neg_lo, hi } }
    }
}

impl AsRef<simd::F64iCols4> for F64Ix4 {
    #[inline]
    fn as_ref(&self) -> &simd::F64iCols4 {
        &self.cols
    }
}

impl AsMut<simd::F64iCols4> for F64Ix4 {
    /// The raw columns, for kernels that write a result in place; the
    /// caller keeps every lane a valid interval, as with
    /// [`F64Ix4::from_columns`].
    #[inline]
    fn as_mut(&mut self) -> &mut simd::F64iCols4 {
        &mut self.cols
    }
}

impl Default for F64Ix4 {
    fn default() -> Self {
        Self::splat(F64I::default())
    }
}

impl core::ops::Neg for F64Ix4 {
    type Output = F64Ix4;
    /// Exact per-lane endpoint swap — free in the `(-lo, hi)` layout, no
    /// rounding involved.
    #[inline]
    fn neg(self) -> F64Ix4 {
        let c = self.cols;
        F64Ix4 { cols: simd::F64iCols4 { neg_lo: c.hi, hi: c.neg_lo } }
    }
}

impl core::ops::Add for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval addition: one `simd::f64i_add_4` call,
    /// bit-identical per lane to [`F64I::add`].
    #[inline]
    fn add(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4 { cols: simd::f64i_add_4(simd::active_backend(), &self.cols, &rhs.cols) }
    }
}

impl core::ops::Sub for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval subtraction `a + (-b)`: [`F64I::sub`] is exactly
    /// [`F64I::add`] with the second operand's endpoints swapped, and
    /// the swap is exact.
    #[inline]
    fn sub(self, rhs: F64Ix4) -> F64Ix4 {
        self + -rhs
    }
}

impl core::ops::Mul for F64Ix4 {
    type Output = F64Ix4;
    /// Packed branch-free interval multiplication: one
    /// `simd::f64i_mul_4` call, bit-identical per lane to [`F64I::mul`]
    /// (the same four product pairs and NaN-max reductions).
    #[inline]
    fn mul(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4 { cols: simd::f64i_mul_4(simd::active_backend(), &self.cols, &rhs.cols) }
    }
}

impl core::ops::Div for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval division. Lanes are first screened for the scalar
    /// special cases (NaN endpoints → NAI, zero-straddling divisor →
    /// ENTIRE); if any lane is special the whole vector takes the scalar
    /// lane loop (trivially bit-identical), otherwise four packed
    /// quotient-pair calls and NaN-max reductions mirror [`F64I::div`].
    #[inline]
    fn div(self, rhs: F64Ix4) -> F64Ix4 {
        let (a, b) = (&self.cols, &rhs.cols);
        let mut special = false;
        for i in 0..4 {
            special |= a.neg_lo[i].is_nan()
                || a.hi[i].is_nan()
                || b.neg_lo[i].is_nan()
                || b.hi[i].is_nan()
                || (-b.neg_lo[i] <= 0.0 && b.hi[i] >= 0.0);
        }
        if special {
            return Self::from_lanes_fn(|i| self.lane(i) / rhs.lane(i));
        }
        let bk = simd::active_backend();
        // bl = -neg_lo (the positive... sign-flipped low column), exactly
        // as the scalar kernel rebuilds the divisor's lower endpoint.
        let bl = b.neg_lo.map(|x| -x);
        let (l1, u1) = simd::div_ru_both_4(bk, &a.neg_lo, &bl);
        let (l2, u2) = simd::div_ru_both_4(bk, &a.neg_lo, &b.hi);
        let (u3, l3) = simd::div_ru_both_4(bk, &a.hi, &bl);
        let (u4, l4) = simd::div_ru_both_4(bk, &a.hi, &b.hi);
        F64Ix4 {
            cols: simd::F64iCols4 {
                neg_lo: simd::max_nan_4(
                    bk,
                    &simd::max_nan_4(bk, &l1, &l2),
                    &simd::max_nan_4(bk, &l3, &l4),
                ),
                hi: simd::max_nan_4(
                    bk,
                    &simd::max_nan_4(bk, &u1, &u2),
                    &simd::max_nan_4(bk, &u3, &u4),
                ),
            },
        }
    }
}

impl LaneOps for F64Ix4 {
    type Elem = F64I;
    const LANES: usize = 4;

    fn splat(v: F64I) -> Self {
        Self::from_columns([v.neg_lo(); 4], [v.hi(); 4])
    }

    fn from_lanes_fn(f: impl FnMut(usize) -> F64I) -> Self {
        Self::from_lanes(core::array::from_fn(f))
    }

    #[inline]
    fn lane(&self, i: usize) -> F64I {
        assert!(i < 4, "F64Ix4 lane index {i} out of range (4 lanes)");
        F64I::from_neg_lo_hi(self.cols.neg_lo[i], self.cols.hi[i])
    }

    /// Packed interval square root: `[RD(sqrt(lo)), RU(sqrt(hi))]` via
    /// the packed directed-rounding sqrt kernels; the lower endpoint
    /// mirrors through the exact column negation, exactly like the
    /// scalar `F64I::sqrt`. Bit-identical per lane (negative radicands
    /// produce the same NaN lower bounds).
    fn sqrt(self) -> Self {
        let bk = simd::active_backend();
        let c = &self.cols;
        let lo = c.neg_lo.map(|x| -x);
        Self::from_columns(simd::sqrt_rd_4(bk, &lo).map(|x| -x), simd::sqrt_ru_4(bk, &c.hi))
    }

    /// Packed interval absolute value: exact packed selects replicating
    /// `F64I::abs`' decision order per lane (see `igen_round::simd::abs_4`).
    fn abs(self) -> Self {
        let bk = simd::active_backend();
        let (neg_lo, hi) = simd::abs_4(bk, &self.cols.neg_lo, &self.cols.hi);
        Self::from_columns(neg_lo, hi)
    }

    /// Packed dependency-aware square. The magnitude columns `m` (max)
    /// and `n` (min) are formed with exact scalar selects as in
    /// `F64I::sqr`; both directed endpoint squares then come from the
    /// packed square kernel (`RU(m²)` is its first column on `m`,
    /// `-RD(n²)` its second on `n` — scalar identities that hold
    /// bit-for-bit, see `igen_round::simd::sqr_ru_both_4`). Lanes whose
    /// square is discarded (NaN lanes; the lower square of lanes
    /// straddling zero) compute on a guard-friendly stand-in of `1.0`.
    fn sqr(self) -> Self {
        let bk = simd::active_backend();
        let mut m = [0.0; 4];
        let mut n = [0.0; 4];
        let mut nan = [false; 4];
        let mut straddle = [false; 4];
        let c = &self.cols;
        for i in 0..4 {
            let (lo, hi) = (-c.neg_lo[i], c.hi[i]);
            nan[i] = c.neg_lo[i].is_nan() || hi.is_nan();
            straddle[i] = lo <= 0.0 && hi >= 0.0;
            let (alo, ahi) = (lo.abs(), hi.abs());
            m[i] = if nan[i] { 1.0 } else { alo.max(ahi) };
            n[i] = if nan[i] || straddle[i] { 1.0 } else { alo.min(ahi) };
        }
        let (upper, _) = simd::sqr_ru_both_4(bk, &m);
        let (_, lower_neg) = simd::sqr_ru_both_4(bk, &n);
        let mut out = simd::F64iCols4::default();
        for i in 0..4 {
            (out.neg_lo[i], out.hi[i]) = if nan[i] {
                (f64::NAN, f64::NAN)
            } else if straddle[i] {
                (0.0, upper[i])
            } else {
                (lower_neg[i], upper[i])
            };
        }
        F64Ix4 { cols: out }
    }

    // min/max have no packed kernel: the lanes are independent and the
    // endpoint selections exact, so the lane loop is bit-identical to
    // the scalar op.
    fn min(self, other: Self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).min_i(&other.lane(i)))
    }

    fn max(self, other: Self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).max_i(&other.lane(i)))
    }

    /// One `simd::f64i_sweep_4` call for the whole sweep where the
    /// backend has the kernel (AVX2+FMA), the group-by-group loop
    /// elsewhere.
    #[inline]
    fn sweep(op: SweepOp, bank: &mut [F64Ix4], n: usize, dst: usize, a: usize, b: usize) {
        if !simd::f64i_sweep_4(simd::active_backend(), op, bank, n, dst, a, b) {
            sweep_groups(op, bank, n, dst, a, b);
        }
    }
}

/// Four packed double-double intervals (`4 ddi` of Table II) in
/// SoA-in-register layout: four endpoint columns — the high and low
/// words of the negated lower endpoints and of the upper endpoints —
/// exactly the column layout of `igen-batch`'s `BatchDdI`, so each
/// column is one AVX register.
///
/// Addition, subtraction and multiplication run the packed
/// double-double kernels of [`igen_round::simd`] on the AVX2+FMA
/// backend: one kernel call per operation, whose validity mask names
/// the lanes that left the scalar hot path; only those lanes are
/// recomputed with the scalar [`DdI`] operation. On the portable
/// backend (no hardware FMA for the directed products), and for every
/// other operation, the lanes run the scalar `DdI` ops one by one.
/// Every path is bit-identical per lane to the scalar op.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DdIx4 {
    cols: simd::DdiCols4,
}

impl DdIx4 {
    /// Packs four intervals.
    pub fn from_lanes(xs: [DdI; 4]) -> DdIx4 {
        let (nl, h) = (xs.map(|x| x.neg_lo()), xs.map(|x| x.hi()));
        DdIx4 {
            cols: simd::DdiCols4 {
                neg_lo_hi: nl.map(|d| d.hi()),
                neg_lo_lo: nl.map(|d| d.lo()),
                hi_hi: h.map(|d| d.hi()),
                hi_lo: h.map(|d| d.lo()),
            },
        }
    }

    /// Builds directly from the four endpoint columns — the raw
    /// representation, used by the batch engine to fill lane vectors
    /// straight from its SoA buffers. The caller asserts every lane
    /// holds the components of a valid `DdI` (as with
    /// [`DdI::from_neg_lo_hi`]).
    #[inline]
    pub fn from_columns(cols: simd::DdiCols4) -> DdIx4 {
        DdIx4 { cols }
    }

    /// Applies a scalar op to every lane.
    #[inline]
    fn map(self, f: impl Fn(DdI) -> DdI) -> DdIx4 {
        Self::from_lanes_fn(|i| f(self.lane(i)))
    }

    /// Takes a packed kernel's result, recomputing with the scalar op
    /// `f` every lane whose bit is clear in the validity mask `ok`;
    /// `None` (no packed kernel on this backend) computes all lanes
    /// with `f`.
    #[inline]
    fn packed_or_scalar(res: Option<(simd::DdiCols4, u8)>, f: impl Fn(usize) -> DdI) -> DdIx4 {
        match res {
            Some((cols, 0b1111)) => DdIx4 { cols },
            Some((cols, ok)) => DdIx4 { cols }.patch(ok, f),
            None => Self::from_lanes_fn(f),
        }
    }

    /// Lane-by-lane scalar recompute of the lanes a packed kernel
    /// flagged (cold: the guards fail only on special or extreme
    /// operands).
    #[cold]
    fn patch(mut self, ok: u8, f: impl Fn(usize) -> DdI) -> DdIx4 {
        for i in 0..4 {
            if ok & (1 << i) == 0 {
                let x = f(i);
                let (nl, h) = (x.neg_lo(), x.hi());
                let c = &mut self.cols;
                (c.neg_lo_hi[i], c.neg_lo_lo[i], c.hi_hi[i], c.hi_lo[i]) =
                    (nl.hi(), nl.lo(), h.hi(), h.lo());
            }
        }
        self
    }
}

impl LaneOps for DdIx4 {
    type Elem = DdI;
    const LANES: usize = 4;

    fn splat(v: DdI) -> Self {
        Self::from_lanes([v; 4])
    }

    fn from_lanes_fn(f: impl FnMut(usize) -> DdI) -> Self {
        Self::from_lanes(core::array::from_fn(f))
    }

    #[inline]
    fn lane(&self, i: usize) -> DdI {
        assert!(i < 4, "DdIx4 lane index {i} out of range (4 lanes)");
        let c = &self.cols;
        DdI::from_neg_lo_hi(
            Dd::from_parts_unchecked(c.neg_lo_hi[i], c.neg_lo_lo[i]),
            Dd::from_parts_unchecked(c.hi_hi[i], c.hi_lo[i]),
        )
    }

    fn sqrt(self) -> Self {
        self.map(|x| x.sqrt())
    }

    fn abs(self) -> Self {
        self.map(|x| x.abs())
    }

    fn sqr(self) -> Self {
        self.map(|x| x.sqr())
    }

    fn min(self, other: Self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).min_i(&other.lane(i)))
    }

    fn max(self, other: Self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).max_i(&other.lane(i)))
    }
}

impl core::ops::Add for DdIx4 {
    type Output = DdIx4;
    /// Packed interval addition: one `simd::ddi_add_4` call, flagged
    /// lanes patched with [`DdI::add`].
    #[inline]
    fn add(self, rhs: DdIx4) -> DdIx4 {
        let res = simd::ddi_add_4(simd::active_backend(), &self.cols, &rhs.cols);
        Self::packed_or_scalar(res, |i| self.lane(i) + rhs.lane(i))
    }
}

impl core::ops::Sub for DdIx4 {
    type Output = DdIx4;
    /// Packed interval subtraction `a + (-b)`: [`DdI::sub`] is exactly
    /// [`DdI::add`] with the second operand's endpoints swapped, and the
    /// swap (negation) is exact.
    #[inline]
    fn sub(self, rhs: DdIx4) -> DdIx4 {
        self + -rhs
    }
}

impl core::ops::Mul for DdIx4 {
    type Output = DdIx4;
    /// Packed interval multiplication: one `simd::ddi_mul_4` call,
    /// flagged lanes patched with [`DdI::mul`].
    #[inline]
    fn mul(self, rhs: DdIx4) -> DdIx4 {
        let res = simd::ddi_mul_4(simd::active_backend(), &self.cols, &rhs.cols);
        Self::packed_or_scalar(res, |i| self.lane(i) * rhs.lane(i))
    }
}

impl core::ops::Div for DdIx4 {
    type Output = DdIx4;
    #[inline]
    fn div(self, rhs: DdIx4) -> DdIx4 {
        Self::from_lanes_fn(|i| self.lane(i) / rhs.lane(i))
    }
}

impl core::ops::Neg for DdIx4 {
    type Output = DdIx4;
    /// Exact per-lane endpoint swap, as [`DdI::neg`].
    #[inline]
    fn neg(self) -> DdIx4 {
        let c = self.cols;
        DdIx4 {
            cols: simd::DdiCols4 {
                neg_lo_hi: c.hi_hi,
                neg_lo_lo: c.hi_lo,
                hi_hi: c.neg_lo_hi,
                hi_lo: c.neg_lo_lo,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lane index 4 out of range")]
    fn lane_index_out_of_range_panics() {
        let v = F64Ix4::splat(F64I::point(1.0));
        let _ = v.lane(4);
    }

    #[test]
    #[should_panic(expected = "4 lanes do not fit in a slice of 3 elements")]
    fn store_into_short_slice_panics() {
        let v = F64Ix4::splat(F64I::point(1.0));
        let mut out = [F64I::ZERO; 3];
        v.store(&mut out);
    }

    #[test]
    #[should_panic(expected = "slice of 2 elements cannot fill 4 lanes")]
    fn load_from_short_slice_panics() {
        let _ = F64Ix4::load(&[F64I::ZERO; 2]);
    }

    #[test]
    fn lanes_match_scalar() {
        let a = F64I::point(0.1);
        let b = F64I::new(1.0, 2.0).unwrap();
        let va = F64Ix4::splat(a);
        let vb = F64Ix4::splat(b);
        let sum = va + vb;
        let diff = va - vb;
        let prod = va * vb;
        let quot = va / vb;
        for i in 0..4 {
            assert_eq!(sum.lane(i), a + b);
            assert_eq!(diff.lane(i), a - b);
            assert_eq!(prod.lane(i), a * b);
            assert_eq!(quot.lane(i), a / b);
        }
    }

    /// The lane that once made a release build's packed `mul_add`
    /// differ from scalar: `[inf, NaN]` times anything gives the
    /// canonical NaN as the product's upper bound, and adding `x` back
    /// meets a NaN with another payload. The sum is the canonical NaN,
    /// whichever operand order the code generator picks.
    #[test]
    fn nan_payload_lane_of_mul_add_matches_scalar() {
        let x = F64I::from_neg_lo_hi(f64::NEG_INFINITY, f64::from_bits(0x7ff8_0000_dead_beef));
        let y = F64I::new(-2.0, 3.0).unwrap();
        let want = x * y + x;
        assert_eq!(want.hi().to_bits(), f64::NAN.to_bits());
        let got = F64Ix4::splat(x).mul_add(F64Ix4::splat(y), F64Ix4::splat(x));
        for i in 0..4 {
            assert_eq!(got.lane(i).neg_lo().to_bits(), want.neg_lo().to_bits(), "lane {i}");
            assert_eq!(got.lane(i).hi().to_bits(), want.hi().to_bits(), "lane {i}");
        }
    }

    #[test]
    fn div_special_lanes_fall_back() {
        // One straddling divisor lane forces the scalar path for the
        // whole vector; results must still match lane-wise scalar div.
        let nums = [F64I::point(1.0), F64I::new(-2.0, 3.0).unwrap(), F64I::NAI, F64I::point(4.0)];
        let dens =
            [F64I::new(-1.0, 1.0).unwrap(), F64I::point(2.0), F64I::point(1.0), F64I::point(0.5)];
        let q = F64Ix4::from_lanes(nums) / F64Ix4::from_lanes(dens);
        for i in 0..4 {
            let want = nums[i] / dens[i];
            if want.has_nan() {
                assert!(q.lane(i).has_nan(), "lane {i}");
            } else {
                assert_eq!(q.lane(i), want, "lane {i}");
            }
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let xs =
            [F64I::point(1.0), F64I::point(2.0), F64I::new(-1.0, 1.0).unwrap(), F64I::point(4.0)];
        let v = F64Ix4::load(&xs);
        let mut out = [F64I::ZERO; 4];
        v.store(&mut out);
        assert_eq!(xs, out);
    }

    #[test]
    fn columns_hold_raw_representation() {
        // The first column holds the *negated* lower endpoints.
        let v = F64Ix4::from_columns([2.0; 4], [5.0; 4]);
        assert_eq!(v, F64Ix4::splat(F64I::new(-2.0, 5.0).unwrap()));
    }

    #[test]
    fn mul_add_and_reduce() {
        let a = F64Ix4::splat(F64I::point(2.0));
        let b = F64Ix4::splat(F64I::point(3.0));
        let c = F64Ix4::splat(F64I::point(1.0));
        let r = a.mul_add(b, c);
        assert_eq!(r.lane(0).hi(), 7.0);
        let mut out = [F64I::ZERO; 4];
        r.store(&mut out);
        assert_eq!(out.into_iter().fold(F64I::ZERO, |acc, x| acc + x).hi(), 28.0);
    }

    #[test]
    fn neg_is_exact_swap() {
        let v = F64Ix4::splat(F64I::new(-1.5, 2.5).unwrap());
        let n = -v;
        for i in 0..4 {
            assert_eq!(n.lane(i), -v.lane(i));
        }
    }

    #[test]
    fn dd_lanes() {
        let x = DdI::point_f64(0.1);
        let v = DdIx4::splat(x);
        let s = v + v;
        assert!(s.lane(0).contains_f64(0.2));
        let p = v * v;
        // The dd interval is tighter than the f64-rounded product; it
        // contains the exact square of the double 0.1.
        let exact_sq = igen_dd::Dd::from(0.1) * igen_dd::Dd::from(0.1);
        assert!(p.lane(1).contains(exact_sq));
    }
}
