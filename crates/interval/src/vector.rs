//! Vectorized interval types (Section IV-A "Vectorized intervals" and
//! Table II), and [`LaneOps`], the one lane trait every packed kernel
//! and the bytecode VM are written against.
//!
//! In the paper's C runtime a double-precision interval occupies one SSE
//! register (`__m128d`) and the wider types pack 2 or 4 intervals into
//! AVX registers. Every packed kernel here works on 4 intervals, in the
//! same layout transposed into **SoA-in-register** form: [`F64Ix4`] holds a
//! `neg_lo[4]` column and a `hi[4]` column ([`simd::F64iCols4`]), so each
//! column is exactly one AVX register.
//!
//! A lane type has one op surface: [`LaneOps::apply`] runs one
//! [`SweepOp`] on one group, and [`LaneOps::sweep`], the hook the VM
//! calls for every arithmetic instruction, runs it over a register bank.
//! On AVX2+FMA, `F64Ix4` sweeps add, sub, mul and the fused
//! multiply-accumulates in one `simd::f64i_sweep_4` call (the whole
//! branch-free Section II recipe in registers, four intervals at a time,
//! with flagged lanes recomputed by the scalar op); its div, sqrt, abs
//! and sqr map onto the packed directed-rounding kernels of
//! [`igen_round::simd`], its neg is the exact column swap, and every
//! other op is the scalar [`F64I`] op on each lane. The kernels are
//! selected once at runtime by CPU feature detection; on hosts without
//! AVX2 and FMA, and under [`igen_round::simd::force_backend`], the same
//! code runs the portable arms. All paths are bit-identical per lane to
//! the scalar [`F64I`] operations — the property tests pin this on
//! random and special-value lanes, for every op.
//!
//! [`DdIx4`] applies the same transposition to double-double intervals:
//! four columns (high and low words of `neg_lo` and of `hi`). A `DdI`
//! operation is a chain of about a hundred dependent operations per
//! directed product — longer than the out-of-order window, so
//! independent scalar lanes barely overlap — and the packed kernels run
//! the four chains side by side in one register each: add, sub and mul
//! (the fused forms included) are one kernel call per step on the
//! AVX2+FMA backend, with the lanes that leave the scalar hot path
//! recomputed by the scalar op (see DESIGN.md §10).
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
/// [`DdIx4`] (packed x86 kernels with scalar-patch fallback) and at the
/// scalar [`F64I`] and [`DdI`] (one lane).
///
/// Every op is **bit-identical per lane** to the scalar [`F64I`]/[`DdI`]
/// operation: lane `i` of `L::apply(op, [a, b, c])` equals
/// `L::Elem::apply(op, [a.lane(i), b.lane(i), c.lane(i)])` exactly, for
/// all inputs including NaN, infinities, subnormals and signed zeros
/// (see DESIGN.md §10/§12 for why the packed paths preserve this).
pub trait LaneOps: Copy + core::fmt::Debug + PartialEq + Default + Send + Sync {
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

    /// Runs `op` on one group. The sources are `[a, b, acc]`, of which
    /// `op` reads the first [`SweepOp::arity`].
    #[must_use]
    fn apply(op: SweepOp, src: [Self; 3]) -> Self;

    /// Runs `op` over groups `0..n` of a register bank: group `g` reads
    /// `bank[s + g]` for each source `s` of `src = [a, b, acc]` and
    /// writes `bank[dst + g]`, reading its sources before writing, so a
    /// destination may alias any source. Every group gets exactly the
    /// bits of [`LaneOps::apply`]. The default applies the op group by
    /// group; a lane type with a whole-sweep kernel overrides it.
    ///
    /// # Panics
    ///
    /// Panics if a range runs past the end of `bank`.
    #[inline(always)]
    fn sweep(op: SweepOp, bank: &mut [Self], n: usize, dst: usize, src: [usize; 3]) {
        sweep_groups(op, bank, n, dst, src);
    }
}

/// The group-by-group sweep behind [`LaneOps::sweep`]: [`LaneOps::apply`]
/// on each group, with the op matched once per sweep rather than once
/// per group.
#[inline(always)]
fn sweep_groups<L: LaneOps>(op: SweepOp, bank: &mut [L], n: usize, dst: usize, src: [usize; 3]) {
    // Each arm below passes a constant op, so `apply` folds to that op.
    #[inline(always)]
    fn each<L: LaneOps>(op: SweepOp, bank: &mut [L], n: usize, dst: usize, [a, b, c]: [usize; 3]) {
        // One bounds proof up front lets the loop run unchecked.
        let len = bank.len();
        assert!(dst + n <= len && a + n <= len && b + n <= len && c + n <= len);
        for g in 0..n {
            // Only the sources `op` reads are loaded; the rest repeat `a`.
            let x = bank[a + g];
            let y = if op.arity() > 1 { bank[b + g] } else { x };
            let z = if op.arity() > 2 { bank[c + g] } else { x };
            bank[dst + g] = L::apply(op, [x, y, z]);
        }
    }
    match op {
        SweepOp::Add => each(SweepOp::Add, bank, n, dst, src),
        SweepOp::Sub => each(SweepOp::Sub, bank, n, dst, src),
        SweepOp::Mul => each(SweepOp::Mul, bank, n, dst, src),
        SweepOp::Div => each(SweepOp::Div, bank, n, dst, src),
        SweepOp::Min => each(SweepOp::Min, bank, n, dst, src),
        SweepOp::Max => each(SweepOp::Max, bank, n, dst, src),
        SweepOp::Neg => each(SweepOp::Neg, bank, n, dst, src),
        SweepOp::Sqrt => each(SweepOp::Sqrt, bank, n, dst, src),
        SweepOp::Abs => each(SweepOp::Abs, bank, n, dst, src),
        SweepOp::Sqr => each(SweepOp::Sqr, bank, n, dst, src),
        SweepOp::Pow(e) => each(SweepOp::Pow(e), bank, n, dst, src),
        SweepOp::MulAdd => each(SweepOp::MulAdd, bank, n, dst, src),
        SweepOp::MulSub => each(SweepOp::MulSub, bank, n, dst, src),
    }
}

/// `op` as the scalar op on each of four lanes: the packed types' path
/// for the ops they have no packed body for. Each lane is a direct call
/// of the forced-inline scalar `apply`, so the op stays the constant a
/// sweep arm made it; a closure through `from_lanes_fn` is left out of
/// line and matches the op again on every lane.
#[inline(always)]
fn scalar_lanes<L: LaneOps>(op: SweepOp, [a, b, c]: [L; 3]) -> [L::Elem; 4]
where
    L::Elem: LaneOps<Elem = L::Elem>,
{
    let f = <L::Elem as LaneOps>::apply;
    [
        f(op, [a.lane(0), b.lane(0), c.lane(0)]),
        f(op, [a.lane(1), b.lane(1), c.lane(1)]),
        f(op, [a.lane(2), b.lane(2), c.lane(2)]),
        f(op, [a.lane(3), b.lane(3), c.lane(3)]),
    ]
}

/// The scalar interval types are one-lane [`LaneOps`]: `apply` is one
/// match over the type's own operators and methods, the reference every
/// packed op is compared against.
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
            #[inline(always)]
            fn apply(op: SweepOp, [a, b, c]: [$t; 3]) -> $t {
                match op {
                    SweepOp::Add => a + b,
                    SweepOp::Sub => a - b,
                    SweepOp::Mul => a * b,
                    SweepOp::Div => a / b,
                    SweepOp::Min => a.min_i(&b),
                    SweepOp::Max => a.max_i(&b),
                    SweepOp::Neg => -a,
                    SweepOp::Sqrt => a.sqrt(),
                    SweepOp::Abs => a.abs(),
                    SweepOp::Sqr => a.sqr(),
                    SweepOp::Pow(n) => a.powi(n),
                    SweepOp::MulAdd => c + a * b,
                    SweepOp::MulSub => c - a * b,
                }
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
/// [`AsRef`]/[`AsMut`] expose the columns to `simd::f64i_sweep_4`, which
/// runs add, sub, mul and the fused forms over a bank of these in one
/// call, with the whole interval op in registers on AVX2+FMA and the
/// lanes its validity mask flags recomputed with the scalar op.
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

    /// Exact per-lane endpoint swap — free in the `(-lo, hi)` layout, no
    /// rounding involved.
    #[inline]
    fn neg(self) -> F64Ix4 {
        let c = self.cols;
        F64Ix4 { cols: simd::F64iCols4 { neg_lo: c.hi, hi: c.neg_lo } }
    }

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
        // bl = -neg_lo, the divisor's lower endpoint, rebuilt exactly as
        // the scalar kernel does.
        let bl = b.neg_lo.map(|x| -x);
        let (l1, u1) = simd::div_ru_both_4(bk, &a.neg_lo, &bl);
        let (l2, u2) = simd::div_ru_both_4(bk, &a.neg_lo, &b.hi);
        let (u3, l3) = simd::div_ru_both_4(bk, &a.hi, &bl);
        let (u4, l4) = simd::div_ru_both_4(bk, &a.hi, &b.hi);
        let max4 = |w: [f64; 4], x, y, z| {
            simd::max_nan_4(bk, &simd::max_nan_4(bk, &w, &x), &simd::max_nan_4(bk, &y, &z))
        };
        F64Ix4 { cols: simd::F64iCols4 { neg_lo: max4(l1, l2, l3, l4), hi: max4(u1, u2, u3, u4) } }
    }

    /// Packed interval square root: `[RD(sqrt(lo)), RU(sqrt(hi))]` via
    /// the packed directed-rounding sqrt kernels; the lower endpoint
    /// mirrors through the exact column negation, exactly like the
    /// scalar `F64I::sqrt`. Bit-identical per lane (negative radicands
    /// produce the same NaN lower bounds).
    fn sqrt(self) -> F64Ix4 {
        let bk = simd::active_backend();
        let c = &self.cols;
        let lo = c.neg_lo.map(|x| -x);
        Self::from_columns(simd::sqrt_rd_4(bk, &lo).map(|x| -x), simd::sqrt_ru_4(bk, &c.hi))
    }

    /// Packed interval absolute value: exact packed selects replicating
    /// `F64I::abs`' decision order per lane (see `igen_round::simd::abs_4`).
    fn abs(self) -> F64Ix4 {
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
    fn sqr(self) -> F64Ix4 {
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

    /// Div, sqrt, abs and sqr run their packed bodies and neg is the
    /// column swap; every other op is the scalar `F64I` op on each lane.
    /// On AVX2+FMA the sweep runs add, sub, mul and the fused forms
    /// before they get here.
    #[inline(always)]
    fn apply(op: SweepOp, [a, b, c]: [F64Ix4; 3]) -> F64Ix4 {
        match op {
            SweepOp::Div => a.div(b),
            SweepOp::Neg => a.neg(),
            SweepOp::Sqrt => a.sqrt(),
            SweepOp::Abs => a.abs(),
            SweepOp::Sqr => a.sqr(),
            _ => Self::from_lanes(scalar_lanes(op, [a, b, c])),
        }
    }

    /// One `simd::f64i_sweep_4` call for the whole sweep where the
    /// backend has a body for `op`, the group-by-group loop elsewhere.
    /// Inlined into each of the executor's arms, where `op` is a
    /// constant, so the fallback folds to that op's loop.
    #[inline(always)]
    fn sweep(op: SweepOp, bank: &mut [F64Ix4], n: usize, dst: usize, src: [usize; 3]) {
        if !simd::f64i_sweep_4(simd::active_backend(), op, bank, n, dst, src) {
            sweep_groups(op, bank, n, dst, src);
        }
    }
}

/// Four packed double-double intervals (`4 ddi` of Table II) in
/// SoA-in-register layout: four endpoint columns — the high and low
/// words of the negated lower endpoints and of the upper endpoints —
/// exactly the column layout of `igen-batch`'s `BatchDdI`, so each
/// column is one AVX register.
///
/// Addition, subtraction and multiplication, and the fused forms as a
/// multiplication and then an addition or subtraction, run the packed
/// double-double kernels of [`igen_round::simd`] on the AVX2+FMA
/// backend: one kernel call per step, whose validity mask names the
/// lanes that left the scalar hot path; only those lanes are recomputed
/// with the scalar [`DdI`] operation. On the portable backend (no
/// hardware FMA for the directed products), and for every other
/// operation but the exact negation, the lanes run the scalar `DdI` ops
/// one by one. Every path is bit-identical per lane to the scalar op.
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

    /// Packed interval addition: one `simd::ddi_add_4` call, flagged
    /// lanes patched with [`DdI::add`].
    #[inline]
    fn add(self, rhs: DdIx4) -> DdIx4 {
        let res = simd::ddi_add_4(simd::active_backend(), &self.cols, &rhs.cols);
        Self::packed_or_scalar(res, |i| self.lane(i) + rhs.lane(i))
    }

    /// Packed interval multiplication: one `simd::ddi_mul_4` call,
    /// flagged lanes patched with [`DdI::mul`].
    #[inline]
    fn mul(self, rhs: DdIx4) -> DdIx4 {
        let res = simd::ddi_mul_4(simd::active_backend(), &self.cols, &rhs.cols);
        Self::packed_or_scalar(res, |i| self.lane(i) * rhs.lane(i))
    }

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

    /// Add, sub and mul run the packed kernels, the fused forms as a mul
    /// and then an add or sub. Sub is the add on the endpoint-swapped
    /// right operand ([`DdI::sub`] is exactly [`DdI::add`] of the
    /// negation, and the swap is exact). Neg is the column swap; every
    /// other op is the scalar `DdI` op on each lane.
    #[inline(always)]
    fn apply(op: SweepOp, [a, b, c]: [DdIx4; 3]) -> DdIx4 {
        match op {
            SweepOp::Add => a.add(b),
            SweepOp::Sub => a.add(b.neg()),
            SweepOp::Mul => a.mul(b),
            SweepOp::MulAdd => c.add(a.mul(b)),
            SweepOp::MulSub => c.add(a.mul(b).neg()),
            SweepOp::Neg => a.neg(),
            _ => Self::from_lanes(scalar_lanes(op, [a, b, c])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igen_round::simd::Backend;
    use std::sync::Mutex;

    /// Serializes forced-backend sections (the override is
    /// process-global).
    static BACKEND_LOCK: Mutex<()> = Mutex::new(());

    fn backends() -> Vec<Backend> {
        [Backend::Portable, Backend::Avx2Fma]
            .into_iter()
            .filter(|&bk| bk <= simd::detected_backend())
            .collect()
    }

    /// `op` on one group through `L::sweep` under backend `bk`, from a
    /// bank of the three sources, into a fresh slot or over the first
    /// source.
    fn swept<L: LaneOps>(bk: Backend, op: SweepOp, src: [L; 3], alias: bool) -> L {
        let _guard = BACKEND_LOCK.lock().unwrap();
        simd::force_backend(Some(bk));
        let mut bank = [src[0], src[1], src[2], L::default()];
        let dst = if alias { 0 } else { 3 };
        L::sweep(op, &mut bank, 1, dst, [0, 1, 2]);
        simd::force_backend(None);
        bank[dst]
    }

    /// Every op through `L::sweep` on every backend, lane by lane
    /// against the scalar op; `bits` names an element's words.
    fn check_every_op<L: LaneOps>(src: [L; 3], bits: impl Fn(L::Elem) -> Vec<u64>)
    where
        L::Elem: LaneOps<Elem = L::Elem>,
    {
        let ops = SweepOp::ALL.into_iter().chain([SweepOp::Pow(-2), SweepOp::Pow(0)]);
        for bk in backends() {
            for op in ops.clone() {
                for alias in [false, true] {
                    let got = swept(bk, op, src, alias);
                    for i in 0..L::LANES {
                        let want = <L::Elem as LaneOps>::apply(op, src.map(|v| v.lane(i)));
                        assert_eq!(bits(got.lane(i)), bits(want), "{op:?} under {bk} lane {i}");
                    }
                }
            }
        }
    }

    fn f64_bits(x: F64I) -> Vec<u64> {
        vec![x.neg_lo().to_bits(), x.hi().to_bits()]
    }

    fn dd_bits(x: DdI) -> Vec<u64> {
        let (nl, h) = (x.neg_lo(), x.hi());
        [nl.hi(), nl.lo(), h.hi(), h.lo()].map(f64::to_bits).to_vec()
    }

    #[test]
    #[should_panic(expected = "lane index 4 out of range")]
    fn lane_index_out_of_range_panics() {
        let v = F64Ix4::splat(F64I::point(1.0));
        let _ = v.lane(4);
    }

    #[test]
    fn every_op_sweeps_like_the_scalar_op() {
        let iv = |lo: f64, hi: f64| F64I::new(lo, hi).unwrap();
        let a = [F64I::point(0.1), iv(-2.0, 3.0), iv(1e300, f64::MAX), F64I::NAI];
        let b = [iv(1.0, 2.0), iv(-1.0, 1.0), iv(0.5, 4.0), iv(-0.0, 0.0)];
        let c = [iv(-3.0, -2.0), F64I::ENTIRE, iv(f64::MIN_POSITIVE, 1.0), F64I::point(7.0)];
        check_every_op([a, b, c].map(F64Ix4::from_lanes), f64_bits);
        // The same lanes promoted to double-double, with one low word
        // nonzero.
        let dd = |x: F64I| DdI::from_f64i(&x);
        let tenth = DdI::point(Dd::new(0.1, -5.551115123125783e-18));
        let da = [tenth, dd(a[1]), dd(a[2]), dd(a[3])];
        check_every_op([da, b.map(dd), c.map(dd)].map(DdIx4::from_lanes), dd_bits);
    }

    /// The lane that once made a release build's packed multiply-add
    /// differ from scalar: `[inf, NaN]` times anything gives the
    /// canonical NaN as the product's upper bound, and adding `x` back
    /// meets a NaN with another payload. The sum is the canonical NaN,
    /// whichever operand order the code generator picks.
    #[test]
    fn nan_payload_lane_of_mul_add_matches_scalar() {
        let x = F64I::from_neg_lo_hi(f64::NEG_INFINITY, f64::from_bits(0x7ff8_0000_dead_beef));
        let y = F64I::new(-2.0, 3.0).unwrap();
        let want = x + x * y;
        assert_eq!(want.hi().to_bits(), f64::NAN.to_bits());
        for bk in backends() {
            let [vx, vy] = [x, y].map(F64Ix4::splat);
            let got = swept(bk, SweepOp::MulAdd, [vx, vy, vx], false);
            for i in 0..4 {
                assert_eq!(f64_bits(got.lane(i)), f64_bits(want), "{bk} lane {i}");
            }
        }
    }

    #[test]
    fn div_special_lanes_fall_back() {
        // One straddling divisor lane forces the scalar path for the
        // whole vector; results must still match lane-wise scalar div.
        let nums = [F64I::point(1.0), F64I::new(-2.0, 3.0).unwrap(), F64I::NAI, F64I::point(4.0)];
        let dens =
            [F64I::new(-1.0, 1.0).unwrap(), F64I::point(2.0), F64I::point(1.0), F64I::point(0.5)];
        let [n, d] = [nums, dens].map(F64Ix4::from_lanes);
        let q = F64Ix4::apply(SweepOp::Div, [n, d, n]);
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
    fn columns_hold_raw_representation() {
        // The first column holds the *negated* lower endpoints.
        let v = F64Ix4::from_columns([2.0; 4], [5.0; 4]);
        assert_eq!(v, F64Ix4::splat(F64I::new(-2.0, 5.0).unwrap()));
    }

    #[test]
    fn dd_lanes() {
        let x = DdI::point_f64(0.1);
        let v = DdIx4::splat(x);
        let s = DdIx4::apply(SweepOp::Add, [v; 3]);
        assert!(s.lane(0).contains_f64(0.2));
        let p = DdIx4::apply(SweepOp::Mul, [v; 3]);
        // The dd interval is tighter than the f64-rounded product; it
        // contains the exact square of the double 0.1.
        let exact_sq = igen_dd::Dd::from(0.1) * igen_dd::Dd::from(0.1);
        assert!(p.lane(1).contains(exact_sq));
    }
}
