//! Explicit SIMD packed directed-rounding kernels with runtime dispatch.
//!
//! The paper's central performance result (Section IV-A "Vectorized
//! intervals", Table II, Fig. 8) comes from *packed* interval arithmetic:
//! one SSE/AVX register holds 1–4 intervals and every directed-rounding
//! operation is a handful of packed instructions. The scalar kernels in
//! the crate's `ops` module implement directed rounding in software via error-free
//! transformations; this module provides the same functions over four
//! binary64 lanes at a time, written with `core::arch::x86_64`
//! intrinsics, selected once at runtime by CPU-feature detection.
//!
//! # Backends
//!
//! * [`Backend::Avx2Fma`] — one 256-bit register per column, FMA-based
//!   `two_prod` residuals (`vfmsub`), AVX2 integer ops for the
//!   branch-free one-ulp bump.
//! * [`Backend::Portable`] — straight lane loops over the scalar
//!   kernels: the backend of every host without AVX2 and FMA (all
//!   non-x86-64 targets, and x86-64 CPUs before Haswell), and the
//!   reference the property tests pin the packed path against.
//!
//! # Bit-identity contract
//!
//! Every packed function here returns, in each lane, **exactly the bits**
//! the corresponding scalar kernel returns for that lane's operands —
//! for *all* inputs, including NaN, infinities, subnormals and
//! signed zeros. The mechanism (see DESIGN.md §10):
//!
//! 1. the packed hot path performs the *same IEEE operation sequence* as
//!    the scalar hot path, lane-wise (packed and scalar IEEE ops are both
//!    correctly rounded, hence bit-equal);
//! 2. a packed validity mask re-checks the scalar hot path's guard
//!    conditions;
//! 3. lanes whose guard fails — rare by construction — are recomputed by
//!    calling the scalar kernel itself, cold paths included. The f64
//!    interval kernels first settle in registers the slow-path cases
//!    whose scalar result is the canonical NaN or the unbumped IEEE
//!    result (NaN sums and products, infinite or zero operands).
//!
//! Soundness therefore never rests on new reasoning: the packed kernels
//! are the scalar kernels, evaluated four lanes at a time.
//!
//! # Interval kernels and the bank sweep
//!
//! Above the rounding primitives sit whole interval operations:
//! [`ddi_add_4`]/[`ddi_mul_4`] on one group of [`DdiCols4`], and
//! [`f64i_sweep_4`], the one entry into the f64 interval bodies, which
//! runs one VM instruction ([`SweepOp`]) over `n` groups of a register
//! bank of [`F64iCols4`] in one call. On AVX2+FMA each op keeps the
//! whole interval op in registers and folds its guards into one
//! validity mask; the lanes it flags are recomputed with the scalar
//! interval op. The sweep has bodies for add, sub, mul and the fused
//! multiply-accumulates; for any other op, and on the portable backend,
//! it returns `false` and the caller applies the op group by group.

use core::sync::atomic::{AtomicU8, Ordering};

use crate::ops::{DIV_EXACT_MIN_A, FMA_RESIDUAL_EXACT_MIN, SQRT_EXACT_MIN_A};
use igen_telemetry::Counter;

/// Telemetry counters for the packed kernels: per-op packed-call and
/// patched-lane counts plus backend-dispatch outcomes. Zero-sized no-ops
/// unless the `telemetry` feature is enabled; the guard-failure *rate*
/// per op is `lanes_patched / (4 * packed_calls)`.
pub(crate) mod tel {
    use igen_telemetry::Counter;

    pub static DISPATCH_AVX2: Counter = Counter::new("simd.dispatch.avx2_fma");
    pub static DISPATCH_PORTABLE: Counter = Counter::new("simd.dispatch.portable");
    pub static ADD_PACKED: Counter = Counter::new("simd.add.packed_calls");
    pub static ADD_PATCHED: Counter = Counter::new("simd.add.lanes_patched");
    pub static MUL_PACKED: Counter = Counter::new("simd.mul.packed_calls");
    pub static MUL_PATCHED: Counter = Counter::new("simd.mul.lanes_patched");
    pub static DIV_PACKED: Counter = Counter::new("simd.div.packed_calls");
    pub static DIV_PATCHED: Counter = Counter::new("simd.div.lanes_patched");
    pub static MAX_PACKED: Counter = Counter::new("simd.max.packed_calls");
    pub static SQRT_PACKED: Counter = Counter::new("simd.sqrt.packed_calls");
    pub static SQRT_PATCHED: Counter = Counter::new("simd.sqrt.lanes_patched");
    pub static SQR_PACKED: Counter = Counter::new("simd.sqr.packed_calls");
    pub static SQR_PATCHED: Counter = Counter::new("simd.sqr.lanes_patched");
    pub static ABS_PACKED: Counter = Counter::new("simd.abs.packed_calls");
    pub static DD_ADD_PACKED: Counter = Counter::new("simd.dd_add.packed_calls");
    pub static DD_ADD_PATCHED: Counter = Counter::new("simd.dd_add.lanes_patched");
    pub static DD_MUL_PACKED: Counter = Counter::new("simd.dd_mul.packed_calls");
    pub static DD_MUL_PATCHED: Counter = Counter::new("simd.dd_mul.lanes_patched");
}

/// Counts one 4-wide call: which op was invoked and which backend
/// served it (compiles to nothing without the `telemetry` feature).
#[inline(always)]
fn note_dispatch(bk: Backend, op_calls: &'static Counter) {
    op_calls.inc();
    match bk {
        Backend::Avx2Fma => tel::DISPATCH_AVX2.inc(),
        Backend::Portable => tel::DISPATCH_PORTABLE.inc(),
    }
}

/// A packed-kernel implementation level, ordered from narrowest to
/// widest: `Backend::Portable < Backend::Avx2Fma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Scalar lane loops (always available; the only level on hosts
    /// without AVX2 and FMA).
    Portable,
    /// Packed 256-bit kernels using AVX2 integer ops and FMA residuals.
    Avx2Fma,
}

impl Backend {
    fn from_tag(tag: u8) -> Option<Backend> {
        match tag {
            1 => Some(Backend::Portable),
            2 => Some(Backend::Avx2Fma),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Backend::Portable => 1,
            Backend::Avx2Fma => 2,
        }
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Backend::Portable => "portable",
            Backend::Avx2Fma => "avx2+fma",
        })
    }
}

/// Cached CPU detection result (0 = not yet probed).
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// Forced override for benchmarks/tests (0 = none).
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The widest backend this CPU supports, probed once and cached.
pub fn detected_backend() -> Backend {
    if let Some(bk) = Backend::from_tag(DETECTED.load(Ordering::Relaxed)) {
        return bk;
    }
    let bk = probe();
    DETECTED.store(bk.tag(), Ordering::Relaxed);
    bk
}

#[cfg(target_arch = "x86_64")]
fn probe() -> Backend {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        Backend::Avx2Fma
    } else {
        Backend::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Backend {
    Backend::Portable
}

/// Forces the dispatch level used by [`active_backend`] (benchmark and
/// test hook; `None` restores CPU detection). Requests wider than the
/// detected level are clamped — forcing can only *downgrade*, so it can
/// never select instructions the host lacks. Returns the level actually
/// in effect.
pub fn force_backend(bk: Option<Backend>) -> Backend {
    match bk {
        Some(b) => {
            let eff = b.min(detected_backend());
            FORCED.store(eff.tag(), Ordering::Relaxed);
            eff
        }
        None => {
            FORCED.store(0, Ordering::Relaxed);
            detected_backend()
        }
    }
}

/// The backend the packed interval operations currently dispatch to: the
/// forced level if one is set, the detected level otherwise.
#[inline]
pub fn active_backend() -> Backend {
    match Backend::from_tag(FORCED.load(Ordering::Relaxed)) {
        Some(bk) => bk,
        None => detected_backend(),
    }
}

/// Clamp a requested level to what the CPU supports, so a stale or
/// wrong caller-provided level can never reach unsupported instructions.
#[inline]
fn clamp(bk: Backend) -> Backend {
    bk.min(detected_backend())
}

/// NaN-propagating maximum: NaN if either operand is NaN, otherwise the
/// larger operand (`a` on ties, including `max_nan(+0.0, -0.0) == +0.0`).
/// This is the endpoint-selection primitive of the branch-free interval
/// multiplication and division; [`max_nan_4`] is its packed form.
#[inline(always)]
pub fn max_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a >= b {
        a
    } else {
        b
    }
}

/// Packed paired upward quotients: lane-wise [`crate::div_ru_both`]
/// (returns `(RU(a/b), RU(-(a/b)))` per lane), bit-identical in every
/// lane.
pub fn div_ru_both_4(bk: Backend, a: &[f64; 4], b: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::DIV_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::div_ru_both_4_avx2(a, b) },
        _ => {
            let mut hi = [0.0; 4];
            let mut lo = [0.0; 4];
            for i in 0..4 {
                (hi[i], lo[i]) = crate::div_ru_both(a[i], b[i]);
            }
            (hi, lo)
        }
    }
}

/// Packed NaN-propagating maximum: lane-wise [`max_nan`], bit-identical
/// in every lane (ties select the first operand; NaN results are the
/// canonical quiet NaN).
pub fn max_nan_4(bk: Backend, a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::MAX_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::max_nan_4_avx2(a, b) },
        _ => core::array::from_fn(|i| max_nan(a[i], b[i])),
    }
}

/// Packed upward-rounded square root: lane-wise [`crate::sqrt_ru`],
/// bit-identical in every lane (negative radicands yield NaN lanes, as in
/// the scalar kernel). Shares the `simd.sqrt.*` telemetry counters with
/// [`sqrt_rd_4`].
pub fn sqrt_ru_4(bk: Backend, a: &[f64; 4]) -> [f64; 4] {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::SQRT_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::sqrt_ru_4_avx2(a) },
        _ => core::array::from_fn(|i| crate::sqrt_ru(a[i])),
    }
}

/// Packed downward-rounded square root: lane-wise [`crate::sqrt_rd`],
/// bit-identical in every lane.
pub fn sqrt_rd_4(bk: Backend, a: &[f64; 4]) -> [f64; 4] {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::SQRT_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::sqrt_rd_4_avx2(a) },
        _ => core::array::from_fn(|i| crate::sqrt_rd(a[i])),
    }
}

/// Packed paired upward squares: lane-wise `mul_ru_both(a, a)`, i.e.
/// `(RU(a²), RU(-(a²)))` per lane, bit-identical in every lane. The
/// interval square builds both directed endpoint squares from this:
/// `RU(m²)` directly and `RD(n²) = -RU(-(n²))` through the pair (the
/// scalar identities `mul_ru(m,m) == mul_ru_both(m,m).0` and
/// `-mul_rd(n,n) == mul_ru_both(n,n).1` hold bit-for-bit on all inputs —
/// the hot paths run the same IEEE sequence and the slow paths delegate
/// to the same scalar kernels).
pub fn sqr_ru_both_4(bk: Backend, a: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::SQR_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::sqr_ru_both_4_avx2(a) },
        _ => {
            let mut hi = [0.0; 4];
            let mut lo = [0.0; 4];
            for i in 0..4 {
                (hi[i], lo[i]) = crate::mul_ru_both(a[i], a[i]);
            }
            (hi, lo)
        }
    }
}

/// Four double-double intervals in structure-of-arrays form: the high
/// and low words of the negated lower endpoints and of the upper
/// endpoints, one `[f64; 4]` column each. This is the register layout
/// of `igen_interval::DdIx4` and the column layout of `igen-batch`'s
/// `BatchDdI`; lane `i` is the interval whose negated lower endpoint is
/// the double-double `neg_lo_hi[i] + neg_lo_lo[i]` and whose upper
/// endpoint is `hi_hi[i] + hi_lo[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DdiCols4 {
    /// High words of the negated lower endpoints.
    pub neg_lo_hi: [f64; 4],
    /// Low words of the negated lower endpoints.
    pub neg_lo_lo: [f64; 4],
    /// High words of the upper endpoints.
    pub hi_hi: [f64; 4],
    /// Low words of the upper endpoints.
    pub hi_lo: [f64; 4],
}

/// Packed double-double interval addition: lane-wise `DdI::add`, i.e.
/// `igen_dd::add_dir::<Ru>` on the negated-lower and on the upper
/// endpoint columns, run in AVX2+FMA registers with the scalar code's
/// IEEE operation sequence.
///
/// Returns `None` when `bk` has no packed double-double kernel
/// (`Portable` has no hardware FMA for the directed products; the
/// caller evaluates its lanes with the scalar op). Otherwise
/// returns the result columns and a validity mask: bit `i` set means
/// lane `i` passed every guard of the scalar hot path, so its bits are
/// the scalar op's; a clear bit means the lane left the hot path
/// (non-finite sums, overflow in the final renormalization) and its
/// columns are meaningless — the caller must recompute that lane with
/// the scalar `DdI` operation.
pub fn ddi_add_4(bk: Backend, a: &DdiCols4, b: &DdiCols4) -> Option<(DdiCols4, u8)> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            note_dispatch(Backend::Avx2Fma, &tel::DD_ADD_PACKED);
            // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
            Some(unsafe { x86::ddi_add_4_avx2(a, b) })
        }
        _ => None,
    }
}

/// Packed double-double interval multiplication: lane-wise `DdI::mul` —
/// eight `igen_dd::mul_dir::<Ru>` products and the NaN-aware
/// double-double maximum reductions, run in AVX2+FMA registers with the
/// scalar code's IEEE operation sequence.
///
/// Same contract as [`ddi_add_4`]: `None` on backends without a packed
/// double-double kernel, otherwise the result columns plus a validity
/// mask whose clear bits name the lanes that left the scalar hot path
/// (products below the FMA-residual range or underflowing to zero,
/// non-finite residuals or ErrFma terms, a `-0.0` FMA result that
/// `next_up` would step, non-finite results) and must be recomputed
/// with the scalar `DdI` operation.
pub fn ddi_mul_4(bk: Backend, a: &DdiCols4, b: &DdiCols4) -> Option<(DdiCols4, u8)> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            note_dispatch(Backend::Avx2Fma, &tel::DD_MUL_PACKED);
            // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
            Some(unsafe { x86::ddi_mul_4_avx2(a, b) })
        }
        _ => None,
    }
}

/// Four binary64 intervals in structure-of-arrays form: the negated
/// lower endpoints and the upper endpoints, one `[f64; 4]` column each.
/// This is the register layout of `igen_interval::F64Ix4`; lane `i` is
/// the interval `[-neg_lo[i], hi[i]]`. Aligned to 32 bytes so each
/// column is one aligned 256-bit load.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(32))]
pub struct F64iCols4 {
    /// Negated lower endpoints.
    pub neg_lo: [f64; 4],
    /// Upper endpoints.
    pub hi: [f64; 4],
}

/// A bank of bare column groups is a valid [`f64i_sweep_4`] operand.
impl AsRef<F64iCols4> for F64iCols4 {
    fn as_ref(&self) -> &F64iCols4 {
        self
    }
}

impl AsMut<F64iCols4> for F64iCols4 {
    fn as_mut(&mut self) -> &mut F64iCols4 {
        self
    }
}

/// Scalar reference for the f64 interval add on one raw `(neg_lo, hi)`
/// endpoint pair per operand: `F64I::add`, one upward addition per
/// column, exactly as the negated-low representation defines it. The
/// sweep recomputes the lanes it flags with this.
#[inline]
pub fn add_cols(a_neg_lo: f64, a_hi: f64, b_neg_lo: f64, b_hi: f64) -> (f64, f64) {
    (crate::add_ru(a_neg_lo, b_neg_lo), crate::add_ru(a_hi, b_hi))
}

/// Scalar reference for the f64 interval mul on raw endpoint pairs:
/// `F64I::mul`, the four paired products [`crate::mul_ru_both`] and the
/// six [`max_nan`] selections, in the scalar order.
#[inline]
pub fn mul_cols(a_neg_lo: f64, a_hi: f64, b_neg_lo: f64, b_hi: f64) -> (f64, f64) {
    let (u1, l1) = crate::mul_ru_both(a_neg_lo, b_neg_lo);
    let (l2, u2) = crate::mul_ru_both(a_neg_lo, b_hi);
    let (l3, u3) = crate::mul_ru_both(a_hi, b_neg_lo);
    let (u4, l4) = crate::mul_ru_both(a_hi, b_hi);
    (max_nan(max_nan(l1, l2), max_nan(l3, l4)), max_nan(max_nan(u1, u2), max_nan(u3, u4)))
}

/// One arithmetic VM instruction: the interval op a sweep applies to
/// each group of a register bank (see [`f64i_sweep_4`] and
/// `igen_interval::LaneOps::sweep`). A sweep takes its sources as one
/// array `[a, b, acc]`, of which the op reads the first
/// [`SweepOp::arity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// Pointwise `min(a, b)`.
    Min,
    /// Pointwise `max(a, b)`.
    Max,
    /// `-a`.
    Neg,
    /// `sqrt(a)`.
    Sqrt,
    /// `|a|`.
    Abs,
    /// `a²`, the dependency-aware square.
    Sqr,
    /// `aⁿ` for the integer exponent `n`.
    Pow(i32),
    /// `acc + a * b`: the product rounded as a `Mul`, then added as an
    /// `Add` with the product on the right.
    MulAdd,
    /// `acc - a * b`, rounded as a `Mul` and then a `Sub`.
    MulSub,
}

impl SweepOp {
    /// Every op once, `Pow` at exponent 3.
    pub const ALL: [SweepOp; 13] = [
        SweepOp::Add,
        SweepOp::Sub,
        SweepOp::Mul,
        SweepOp::Div,
        SweepOp::Min,
        SweepOp::Max,
        SweepOp::Neg,
        SweepOp::Sqrt,
        SweepOp::Abs,
        SweepOp::Sqr,
        SweepOp::Pow(3),
        SweepOp::MulAdd,
        SweepOp::MulSub,
    ];

    /// How many of the sources `[a, b, acc]` the op reads.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            SweepOp::Neg | SweepOp::Sqrt | SweepOp::Abs | SweepOp::Sqr | SweepOp::Pow(_) => 1,
            SweepOp::Add
            | SweepOp::Sub
            | SweepOp::Mul
            | SweepOp::Div
            | SweepOp::Min
            | SweepOp::Max => 2,
            SweepOp::MulAdd | SweepOp::MulSub => 3,
        }
    }
}

/// Runs `op` over groups `0..n` of a bank of packed f64 intervals in
/// one call: group `g` reads `bank[s + g]` for each source `s` of
/// `src = [a, b, acc]` and writes `bank[dst + g]`. Each group's sources
/// are read before its destination is written, so a destination that
/// aliases a source is exact, and every lane's bits are those of the
/// scalar `F64I` op — flagged lanes included, which are recomputed with
/// [`add_cols`] or [`mul_cols`].
///
/// Telemetry counts per group: one `simd.mul` call per `Mul`, `MulAdd`
/// or `MulSub` group, one `simd.add` call per `Add`, `Sub`, `MulAdd` or
/// `MulSub` group.
///
/// Returns `false`, touching nothing, when the sweep has no body for
/// `op` on `bk`: only AVX2+FMA has bodies, for add, sub, mul and the
/// fused forms. The caller then applies the op group by group.
///
/// # Panics
///
/// Panics if a source or destination range runs past the end of
/// `bank`.
pub fn f64i_sweep_4<C: AsRef<F64iCols4> + AsMut<F64iCols4>>(
    bk: Backend,
    op: SweepOp,
    bank: &mut [C],
    n: usize,
    dst: usize,
    src: [usize; 3],
) -> bool {
    let fits = |base: usize| base.checked_add(n).is_some_and(|end| end <= bank.len());
    let [a, b, acc] = src;
    assert!(
        fits(dst) && fits(a) && fits(b) && fits(acc),
        "sweep of {n} groups runs past a bank of {}",
        bank.len()
    );
    match (clamp(bk), op) {
        #[cfg(target_arch = "x86_64")]
        (
            Backend::Avx2Fma,
            SweepOp::Add | SweepOp::Sub | SweepOp::Mul | SweepOp::MulAdd | SweepOp::MulSub,
        ) => {
            let groups = n as u64;
            let muls = if matches!(op, SweepOp::Add | SweepOp::Sub) { 0 } else { groups };
            let adds = if op == SweepOp::Mul { 0 } else { groups };
            tel::MUL_PACKED.add(muls);
            tel::ADD_PACKED.add(adds);
            tel::DISPATCH_AVX2.add(muls + adds);
            // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
            unsafe { x86::f64i_sweep_4_avx2(op, bank, n, dst, src) };
            true
        }
        _ => false,
    }
}

/// Scalar reference for [`abs_4`]: the interval absolute value on one raw
/// `(neg_lo, hi)` endpoint pair (the `(-lo, hi)` column layout the packed
/// kernels operate on). NaN endpoints yield `(NaN, NaN)`; a nonnegative
/// interval is returned unchanged, a nonpositive one endpoint-swapped
/// (exact negation in this layout), and a zero-straddling one maps to
/// `[ -(-0.0), max(|lo|, |hi|) ]`.
pub fn abs_cols(neg_lo: f64, hi: f64) -> (f64, f64) {
    if neg_lo.is_nan() || hi.is_nan() {
        (f64::NAN, f64::NAN)
    } else if -neg_lo >= 0.0 {
        (neg_lo, hi)
    } else if hi <= 0.0 {
        (hi, neg_lo)
    } else {
        (-0.0, max_nan(neg_lo, hi))
    }
}

/// Packed interval absolute value on raw endpoint columns: lane-wise
/// [`abs_cols`], bit-identical in every lane. Pure selects on exact
/// comparisons — no rounding, hence no guard and no patch path.
pub fn abs_4(bk: Backend, neg_lo: &[f64; 4], hi: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
    let bk = clamp(bk);
    note_dispatch(bk, &tel::ABS_PACKED);
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => unsafe { x86::abs_4_avx2(neg_lo, hi) },
        _ => {
            let mut out_n = [0.0; 4];
            let mut out_h = [0.0; 4];
            for i in 0..4 {
                (out_n[i], out_h[i]) = abs_cols(neg_lo[i], hi[i]);
            }
            (out_n, out_h)
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The packed x86-64 kernel bodies. Everything here is `unsafe fn`:
    //! they require AVX2 and FMA, which the dispatchers enforce via
    //! `clamp`.

    use super::{
        DdiCols4, F64iCols4, SweepOp, DIV_EXACT_MIN_A, FMA_RESIDUAL_EXACT_MIN, SQRT_EXACT_MIN_A,
    };
    use core::arch::x86_64::*;

    /// All-lanes-valid movemask value for one 256-bit column.
    const ALL4: i32 = 0b1111;

    /// Counts the lanes whose validity bit is clear in `ok` (the lanes
    /// about to be recomputed by a scalar patch).
    #[inline]
    fn note_patched(c: &'static igen_telemetry::Counter, ok: i32) {
        c.add((!ok & ALL4).count_ones() as u64);
    }

    // ------------------------------------------------------------------
    // AVX2 + FMA: one 256-bit register per column.
    // ------------------------------------------------------------------

    /// `|x|` (clears the sign bit).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs_256(x: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
    }

    /// `-x` (flips the sign bit; exact, matches scalar `-x`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn neg_256(x: __m256d) -> __m256d {
        _mm256_xor_pd(_mm256_set1_pd(-0.0), x)
    }

    /// Lane mask: `x` is finite (strictly below +∞ in magnitude; NaN
    /// lanes report false, exactly like `f64::is_finite`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn is_finite_256(x: __m256d) -> __m256d {
        _mm256_cmp_pd::<_CMP_LT_OQ>(abs_256(x), _mm256_set1_pd(f64::INFINITY))
    }

    /// Lane mask: `lo <= |x| <= hi` (false for NaN `x`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs_in_range_256(x: __m256d, lo: f64, hi: f64) -> __m256d {
        let ax = abs_256(x);
        _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(lo)),
            _mm256_cmp_pd::<_CMP_LE_OQ>(ax, _mm256_set1_pd(hi)),
        )
    }

    /// Packed branch-free directed bump: lane-wise `ops::bump_up` — steps
    /// each lane one value toward +∞ where the `up` mask is set: one up
    /// from the bits of a nonnegative value, one down from those of a
    /// negative one.
    ///
    /// Exact on every lane but one: `-0.0` stepped up gives a NaN here
    /// and `+0.0` in `ops::bump_up`. No lane a kernel accepts asks for
    /// that step. A sum or product that rounds to zero is exact, so its
    /// residual never sets `up`; a zero quotient or square root fails its
    /// kernel's range guard; and `fma_ru` flags a `-0.0` result stepped
    /// up. The rare paths keep only lanes whose `up` is clear.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn bump_up_256(s: __m256d, up: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(s);
        let sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), bits);
        let up = _mm256_castpd_si256(up);
        // -1 (a step up) for a nonnegative s, +1 for a negative one.
        let step = _mm256_sub_epi64(_mm256_xor_si256(up, sign), sign);
        _mm256_castsi256_pd(_mm256_sub_epi64(bits, step))
    }

    /// The scalar hot-path guards of one or more directed operations, per
    /// lane. `sum` adds up every value whose finiteness a scalar guard
    /// tests (TwoSum errors, FMA residuals, ErrFma terms, `finish`'s
    /// renormalization error): a non-finite term makes the sum
    /// non-finite, so a finite sum proves each term finite (a sum of
    /// finite terms that overflows only costs a needless patch). `ok`
    /// collects the comparison guards as a lane mask.
    #[derive(Clone, Copy)]
    struct Guard {
        sum: __m256d,
        ok: __m256d,
    }

    impl Guard {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn new() -> Guard {
            Guard { sum: _mm256_setzero_pd(), ok: _mm256_castsi256_pd(_mm256_set1_epi64x(-1)) }
        }

        /// Folds another operation's guards in (kept separate while the
        /// operations run so the `sum` chains stay short and parallel).
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn merge(self, other: Guard) -> Guard {
            Guard { sum: _mm256_add_pd(self.sum, other.sum), ok: _mm256_and_pd(self.ok, other.ok) }
        }

        /// Lane mask of the lanes that passed every guard.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn lanes(self) -> __m256d {
            _mm256_and_pd(self.ok, is_finite_256(self.sum))
        }

        /// The 4-bit lane validity mask.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn mask(self) -> i32 {
            _mm256_movemask_pd(self.lanes())
        }
    }

    /// Knuth TwoSum on four lanes: the six IEEE additions of the scalar
    /// `two_sum`, in the same order.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn two_sum_256(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let s = _mm256_add_pd(a, b);
        let a1 = _mm256_sub_pd(s, b);
        let b1 = _mm256_sub_pd(s, a1);
        let da = _mm256_sub_pd(a, a1);
        let db = _mm256_sub_pd(b, b1);
        (s, _mm256_add_pd(da, db))
    }

    /// `add_ru` hot path: TwoSum + bump. The scalar guard is
    /// `s.is_finite() && e.is_finite()`; a non-finite `s` always makes
    /// the TwoSum error NaN, so `e` alone goes into the guard sum.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_ru_256(a: __m256d, b: __m256d, g: &mut Guard) -> __m256d {
        let (s, e) = two_sum_256(a, b);
        g.sum = _mm256_add_pd(g.sum, e);
        bump_up_256(s, _mm256_cmp_pd::<_CMP_GT_OQ>(e, _mm256_setzero_pd()))
    }

    /// `mul_ru_both` hot path: `(RU(x*y), RU(-(x*y)))` from the product,
    /// its FMA residual and two directed bumps. The scalar guard is
    /// `|p| >= 2.5e-291` and a finite residual, which already implies
    /// `|p| <= MAX`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_ru_both_256(x: __m256d, y: __m256d, g: &mut Guard) -> (__m256d, __m256d) {
        let p = _mm256_mul_pd(x, y);
        let e = _mm256_fmsub_pd(x, y, p);
        let zero = _mm256_setzero_pd();
        g.sum = _mm256_add_pd(g.sum, e);
        let big = _mm256_cmp_pd::<_CMP_GE_OQ>(abs_256(p), _mm256_set1_pd(FMA_RESIDUAL_EXACT_MIN));
        g.ok = _mm256_and_pd(g.ok, big);
        let hi = bump_up_256(p, _mm256_cmp_pd::<_CMP_GT_OQ>(e, zero));
        (hi, bump_up_256(neg_256(p), _mm256_cmp_pd::<_CMP_LT_OQ>(e, zero)))
    }

    /// Packed `mul_ru_both(a, a)`: the multiply hot path with both
    /// operands the same column; failing lanes patch with the scalar
    /// square (`mul_ru_both(a, a)`) under the square's own counter.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sqr_ru_both_4_avx2(a: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
        let va = _mm256_loadu_pd(a.as_ptr());
        let mut g = Guard::new();
        let (hi, lo) = mul_ru_both_256(va, va, &mut g);
        let ok = g.mask();
        let mut out_hi = [0.0; 4];
        let mut out_lo = [0.0; 4];
        _mm256_storeu_pd(out_hi.as_mut_ptr(), hi);
        _mm256_storeu_pd(out_lo.as_mut_ptr(), lo);
        if ok != ALL4 {
            note_patched(&super::tel::SQR_PATCHED, ok);
            patch_pair(ok, &mut out_hi, &mut out_lo, |i| crate::mul_ru_both(a[i], a[i]));
        }
        (out_hi, out_lo)
    }

    /// The packed sqrt hot path on one 256-bit column: `s = sqrt(a)`, the
    /// FMA residual `r = RN(s*s - a)` whose sign directs the bump, and
    /// the scalar guard mask (`a >= SQRT_EXACT_MIN_A && s <= MAX`; the
    /// `>=` compare is ordered, so NaN and negative radicands fail it and
    /// take the scalar patch, which reproduces their NaN handling).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn sqrt_sr_4_avx2(va: __m256d) -> (__m256d, __m256d, i32) {
        let s = _mm256_sqrt_pd(va);
        let r = _mm256_fmsub_pd(s, s, va);
        let ok = _mm256_movemask_pd(_mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(va, _mm256_set1_pd(SQRT_EXACT_MIN_A)),
            _mm256_cmp_pd::<_CMP_LE_OQ>(s, _mm256_set1_pd(f64::MAX)),
        ));
        (s, r, ok)
    }

    /// Packed `sqrt_ru`: correctly-rounded packed sqrt + FMA residual +
    /// directed bump, exactly the scalar hot path lane-wise.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sqrt_ru_4_avx2(a: &[f64; 4]) -> [f64; 4] {
        let va = _mm256_loadu_pd(a.as_ptr());
        let (s, r, ok) = sqrt_sr_4_avx2(va);
        let up = _mm256_cmp_pd::<_CMP_LT_OQ>(r, _mm256_setzero_pd());
        let bumped = bump_up_256(s, up);
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), bumped);
        if ok != ALL4 {
            note_patched(&super::tel::SQRT_PATCHED, ok);
            patch(ok, &mut out, |i| crate::sqrt_ru(a[i]));
        }
        out
    }

    /// Packed `sqrt_rd`: the downward bump mirrors through negation, as
    /// in the scalar kernel (`-bump_up(-s, r > 0)`).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sqrt_rd_4_avx2(a: &[f64; 4]) -> [f64; 4] {
        let va = _mm256_loadu_pd(a.as_ptr());
        let (s, r, ok) = sqrt_sr_4_avx2(va);
        let up = _mm256_cmp_pd::<_CMP_GT_OQ>(r, _mm256_setzero_pd());
        let bumped = neg_256(bump_up_256(neg_256(s), up));
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), bumped);
        if ok != ALL4 {
            note_patched(&super::tel::SQRT_PATCHED, ok);
            patch(ok, &mut out, |i| crate::sqrt_rd(a[i]));
        }
        out
    }

    /// Packed interval absolute value on raw `(neg_lo, hi)` columns:
    /// nested selects replicating `abs_cols`' decision order (NaN screen,
    /// then nonnegative, then nonpositive, then the straddle case). All
    /// comparisons exact — no patch path.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn abs_4_avx2(neg_lo: &[f64; 4], hi: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
        let vn = _mm256_loadu_pd(neg_lo.as_ptr());
        let vh = _mm256_loadu_pd(hi.as_ptr());
        let zero = _mm256_setzero_pd();
        let nonneg = _mm256_cmp_pd::<_CMP_GE_OQ>(neg_256(vn), zero); // lo >= 0
        let nonpos = _mm256_cmp_pd::<_CMP_LE_OQ>(vh, zero); // hi <= 0
        let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(vn, vh);
        // Straddle lanes: max_nan(neg_lo, hi) with the a-on-ties select
        // (operands there are never NaN — the screen overrides).
        let mx = _mm256_blendv_pd(vh, vn, _mm256_cmp_pd::<_CMP_GE_OQ>(vn, vh));
        let nanv = _mm256_set1_pd(f64::NAN);
        let out_n =
            _mm256_blendv_pd(_mm256_blendv_pd(_mm256_set1_pd(-0.0), vh, nonpos), vn, nonneg);
        let out_h = _mm256_blendv_pd(_mm256_blendv_pd(mx, vn, nonpos), vh, nonneg);
        let mut res_n = [0.0; 4];
        let mut res_h = [0.0; 4];
        _mm256_storeu_pd(res_n.as_mut_ptr(), _mm256_blendv_pd(out_n, nanv, unord));
        _mm256_storeu_pd(res_h.as_mut_ptr(), _mm256_blendv_pd(out_h, nanv, unord));
        (res_n, res_h)
    }

    /// Packed `div_ru_both`: quotient + `two_prod` residual check + two
    /// directed bumps; lanes outside the exactness range fall back to the
    /// scalar kernel.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn div_ru_both_4_avx2(a: &[f64; 4], b: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
        let va = _mm256_loadu_pd(a.as_ptr());
        let vb = _mm256_loadu_pd(b.as_ptr());
        let q = _mm256_div_pd(va, vb);
        // two_prod(q, b) via FMA.
        let h = _mm256_mul_pd(q, vb);
        let l = _mm256_fmsub_pd(q, vb, h);
        let r = _mm256_sub_pd(_mm256_sub_pd(va, h), l);
        let zero = _mm256_setzero_pd();
        let b_pos = _mm256_cmp_pd::<_CMP_GT_OQ>(vb, zero);
        let b_neg = _mm256_cmp_pd::<_CMP_LT_OQ>(vb, zero);
        let r_pos = _mm256_cmp_pd::<_CMP_GT_OQ>(r, zero);
        let r_neg = _mm256_cmp_pd::<_CMP_LT_OQ>(r, zero);
        let up = _mm256_or_pd(_mm256_and_pd(b_pos, r_pos), _mm256_and_pd(b_neg, r_neg));
        let dn = _mm256_or_pd(_mm256_and_pd(b_pos, r_neg), _mm256_and_pd(b_neg, r_pos));
        let hi = bump_up_256(q, up);
        let lo = bump_up_256(neg_256(q), dn);
        let ok1 = _mm256_and_pd(
            abs_in_range_256(q, f64::MIN_POSITIVE, f64::MAX),
            abs_in_range_256(va, DIV_EXACT_MIN_A, f64::MAX),
        );
        let ok2 = abs_in_range_256(h, f64::MIN_POSITIVE, f64::MAX);
        let ok = _mm256_movemask_pd(_mm256_and_pd(ok1, ok2));
        let mut out_hi = [0.0; 4];
        let mut out_lo = [0.0; 4];
        _mm256_storeu_pd(out_hi.as_mut_ptr(), hi);
        _mm256_storeu_pd(out_lo.as_mut_ptr(), lo);
        if ok != ALL4 {
            note_patched(&super::tel::DIV_PATCHED, ok);
            patch_pair(ok, &mut out_hi, &mut out_lo, |i| crate::div_ru_both(a[i], b[i]));
        }
        (out_hi, out_lo)
    }

    /// Packed `max_nan`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_nan_4_avx2(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
        let va = _mm256_loadu_pd(a.as_ptr());
        let vb = _mm256_loadu_pd(b.as_ptr());
        // a >= b selects a (ties keep a, matching the scalar kernel);
        // unordered lanes are overwritten with the canonical quiet NaN.
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(va, vb);
        let sel = _mm256_blendv_pd(vb, va, ge);
        let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(va, vb);
        let res = _mm256_blendv_pd(sel, _mm256_set1_pd(f64::NAN), unord);
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), res);
        out
    }

    // ------------------------------------------------------------------
    // AVX2 + FMA double-double intervals: `igen_dd::add_dir::<Ru>` and
    // `mul_dir::<Ru>` transliterated onto 256-bit columns. Each scalar
    // `add_ru`/`mul_ru`/`fma_ru` call becomes its hot path on four lanes;
    // its guard is folded into a `Guard` instead of branching.
    // ------------------------------------------------------------------

    /// Four double-double values: one register of high words, one of
    /// low words.
    #[derive(Clone, Copy)]
    struct Dd256 {
        hi: __m256d,
        lo: __m256d,
    }

    impl Dd256 {
        /// Exact negation of both words (`Dd::neg`).
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn neg(self) -> Dd256 {
            Dd256 { hi: neg_256(self.hi), lo: neg_256(self.lo) }
        }
    }

    /// `sub_ru(a, b) = add_ru(a, -b)`, as the scalar kernel defines it.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sub_ru_256(a: __m256d, b: __m256d, g: &mut Guard) -> __m256d {
        add_ru_256(a, neg_256(b), g)
    }

    /// Lane mask of the product guard shared by `mul_ru` and `fma_ru`:
    /// the rounded product `p` is either at least `2.5e-291` in
    /// magnitude (FMA residual exact) or an exact zero from a zero
    /// operand.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn product_ok_256(a: __m256d, b: __m256d, p: __m256d) -> __m256d {
        let zero = _mm256_setzero_pd();
        let operand_zero = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_EQ_OQ>(a, zero),
            _mm256_cmp_pd::<_CMP_EQ_OQ>(b, zero),
        );
        _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(abs_256(p), _mm256_set1_pd(FMA_RESIDUAL_EXACT_MIN)),
            _mm256_and_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(p, zero), operand_zero),
        )
    }

    /// `mul_ru` on four lanes. Its hot path is `|p|` in
    /// `[2.5e-291, MAX]` with a finite residual; the exact-zero-product
    /// return of its slow path (hot here: every f64-promoted operand has
    /// a zero low word) is also taken in-register, where the residual is
    /// an exact zero and the bump leaves `p` unchanged. A finite
    /// residual already implies `|p| <= MAX`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_ru_256(a: __m256d, b: __m256d, g: &mut Guard) -> __m256d {
        let p = _mm256_mul_pd(a, b);
        let e = _mm256_fmsub_pd(a, b, p);
        g.sum = _mm256_add_pd(g.sum, e);
        g.ok = _mm256_and_pd(g.ok, product_ok_256(a, b, p));
        bump_up_256(p, _mm256_cmp_pd::<_CMP_GT_OQ>(e, _mm256_setzero_pd()))
    }

    /// `fma_ru` on four lanes: the Boldo–Muller ErrFma sign test of the
    /// scalar kernel, operation for operation. Its guards: `r`, the
    /// product `u1` and both ErrFma terms finite (a non-finite `r` or
    /// `u1` makes `e1` non-finite, so `e1` and `e2` go into the guard
    /// sum), the product guard on `u1`, and one lane the integer bump
    /// gets wrong — `r == -0.0` stepped up, where `next_up` yields the
    /// smallest subnormal but [`bump_up_256`] a NaN.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fma_ru_256(a: __m256d, b: __m256d, c: __m256d, g: &mut Guard) -> __m256d {
        let zero = _mm256_setzero_pd();
        let r = _mm256_fmadd_pd(a, b, c);
        let u1 = _mm256_mul_pd(a, b);
        let u2 = _mm256_fmsub_pd(a, b, u1);
        let (a1, a2) = two_sum_256(c, u2);
        let (b1, b2) = two_sum_256(u1, a1);
        let gg = _mm256_add_pd(_mm256_sub_pd(b1, r), b2);
        // fast_two_sum(gg, a2)
        let e1 = _mm256_add_pd(gg, a2);
        let e2 = _mm256_sub_pd(a2, _mm256_sub_pd(e1, gg));
        g.sum = _mm256_add_pd(_mm256_add_pd(g.sum, e1), e2);
        let sign = _mm256_blendv_pd(e2, e1, _mm256_cmp_pd::<_CMP_NEQ_UQ>(e1, zero));
        let up = _mm256_cmp_pd::<_CMP_GT_OQ>(sign, zero);
        let neg_zero = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_castpd_si256(r),
            _mm256_set1_epi64x(i64::MIN),
        ));
        g.ok = _mm256_andnot_pd(
            _mm256_and_pd(neg_zero, up),
            _mm256_and_pd(g.ok, product_ok_256(a, b, u1)),
        );
        bump_up_256(r, up)
    }

    /// `igen_dd::arith::two_sum_dir::<Ru>`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn two_sum_dir_256(a: __m256d, b: __m256d, g: &mut Guard) -> (__m256d, __m256d) {
        let s = add_ru_256(a, b, g);
        let a1 = sub_ru_256(s, b, g);
        let b1 = sub_ru_256(s, a1, g);
        let da = sub_ru_256(a, a1, g);
        let db = sub_ru_256(b, b1, g);
        (s, add_ru_256(da, db, g))
    }

    /// `igen_dd::arith::fast_two_sum_dir::<Ru>`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fast_two_sum_dir_256(a: __m256d, b: __m256d, g: &mut Guard) -> (__m256d, __m256d) {
        let s = add_ru_256(a, b, g);
        let z = sub_ru_256(s, a, g);
        (s, sub_ru_256(b, z, g))
    }

    /// `igen_dd::arith::finish`: its hot path is the exact TwoSum
    /// renormalization with a finite result. Its NaN, infinity and
    /// overflow branches all make the TwoSum error non-finite, so that
    /// error goes into the guard sum.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn finish_256(zh: __m256d, zl: __m256d, g: &mut Guard) -> Dd256 {
        let (h, l) = two_sum_256(zh, zl);
        g.sum = _mm256_add_pd(g.sum, l);
        Dd256 { hi: h, lo: l }
    }

    /// `igen_dd::add_dir::<Ru>` (AccurateDWPlusDW) on four lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_dir_256(x: Dd256, y: Dd256) -> (Dd256, Guard) {
        let mut g = Guard::new();
        let (sh, sl) = two_sum_dir_256(x.hi, y.hi, &mut g);
        let (th, tl) = two_sum_dir_256(x.lo, y.lo, &mut g);
        let c = add_ru_256(sl, th, &mut g);
        let (vh, vl) = fast_two_sum_dir_256(sh, c, &mut g);
        let w = add_ru_256(tl, vl, &mut g);
        let (zh, zl) = fast_two_sum_dir_256(vh, w, &mut g);
        (finish_256(zh, zl, &mut g), g)
    }

    /// `igen_dd::mul_dir::<Ru>` (DWTimesDW3) on four lanes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_dir_256(x: Dd256, y: Dd256) -> (Dd256, Guard) {
        let mut g = Guard::new();
        // two_prod_dir::<Ru>(x.hi, y.hi)
        let ch = mul_ru_256(x.hi, y.hi, &mut g);
        let cl1 = fma_ru_256(x.hi, y.hi, neg_256(ch), &mut g);
        let tl0 = mul_ru_256(x.lo, y.lo, &mut g);
        let tl1 = fma_ru_256(x.hi, y.lo, tl0, &mut g);
        let cl2 = fma_ru_256(x.lo, y.hi, tl1, &mut g);
        let cl3 = add_ru_256(cl1, cl2, &mut g);
        let (zh, zl) = fast_two_sum_dir_256(ch, cl3, &mut g);
        (finish_256(zh, zl, &mut g), g)
    }

    /// `DdI`'s NaN-aware `dd_max` for lanes whose operands are both
    /// finite `finish` outputs (the only lanes the validity mask
    /// accepts): no NaN screen is needed, and the TwoSum renormalization
    /// `Dd::cmp_num` applies is the identity on values already
    /// renormalized by `finish`, so `b <= a` is a plain lexicographic
    /// compare. Ties keep `a`, as `Dd::max` does.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dd_max_256(a: Dd256, b: Dd256) -> Dd256 {
        let b_le_a = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(b.hi, a.hi),
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_EQ_OQ>(b.hi, a.hi),
                _mm256_cmp_pd::<_CMP_LE_OQ>(b.lo, a.lo),
            ),
        );
        Dd256 { hi: _mm256_blendv_pd(b.hi, a.hi, b_le_a), lo: _mm256_blendv_pd(b.lo, a.lo, b_le_a) }
    }

    /// Loads the `(neg_lo, hi)` endpoint pair of four intervals.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_ddi(x: &DdiCols4) -> (Dd256, Dd256) {
        (
            Dd256 {
                hi: _mm256_loadu_pd(x.neg_lo_hi.as_ptr()),
                lo: _mm256_loadu_pd(x.neg_lo_lo.as_ptr()),
            },
            Dd256 { hi: _mm256_loadu_pd(x.hi_hi.as_ptr()), lo: _mm256_loadu_pd(x.hi_lo.as_ptr()) },
        )
    }

    /// Stores an endpoint pair and reports the lanes the caller must
    /// patch under `patched`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_ddi(
        neg_lo: Dd256,
        hi: Dd256,
        g: Guard,
        patched: &'static igen_telemetry::Counter,
    ) -> (DdiCols4, u8) {
        let mut out = DdiCols4::default();
        _mm256_storeu_pd(out.neg_lo_hi.as_mut_ptr(), neg_lo.hi);
        _mm256_storeu_pd(out.neg_lo_lo.as_mut_ptr(), neg_lo.lo);
        _mm256_storeu_pd(out.hi_hi.as_mut_ptr(), hi.hi);
        _mm256_storeu_pd(out.hi_lo.as_mut_ptr(), hi.lo);
        let ok = g.mask();
        if ok != ALL4 {
            note_patched(patched, ok);
        }
        (out, ok as u8)
    }

    /// Packed `DdI::add`: `add_dir::<Ru>` on both endpoint columns.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn ddi_add_4_avx2(a: &DdiCols4, b: &DdiCols4) -> (DdiCols4, u8) {
        let (a_nl, a_h) = load_ddi(a);
        let (b_nl, b_h) = load_ddi(b);
        let (nl, g_nl) = add_dir_256(a_nl, b_nl);
        let (h, g_h) = add_dir_256(a_h, b_h);
        store_ddi(nl, h, g_nl.merge(g_h), &super::tel::DD_ADD_PATCHED)
    }

    /// Packed `DdI::mul`: the eight directed products and the `dd_max`
    /// reductions in the scalar order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn ddi_mul_4_avx2(a: &DdiCols4, b: &DdiCols4) -> (DdiCols4, u8) {
        let (na, ah) = load_ddi(a);
        let (nb, bh) = load_ddi(b);
        let (u1, g1) = mul_dir_256(na, nb);
        let (u2, g2) = mul_dir_256(na.neg(), bh);
        let (u3, g3) = mul_dir_256(ah, nb.neg());
        let (u4, g4) = mul_dir_256(ah, bh);
        let (l1, g5) = mul_dir_256(na.neg(), nb);
        let (l2, g6) = mul_dir_256(na, bh);
        let (l3, g7) = mul_dir_256(ah, nb);
        let (l4, g8) = mul_dir_256(ah.neg(), bh);
        let neg_lo = dd_max_256(dd_max_256(l1, l2), dd_max_256(l3, l4));
        let hi = dd_max_256(dd_max_256(u1, u2), dd_max_256(u3, u4));
        let g = g1.merge(g2).merge(g3.merge(g4)).merge(g5.merge(g6).merge(g7.merge(g8)));
        store_ddi(neg_lo, hi, g, &super::tel::DD_MUL_PATCHED)
    }

    // ------------------------------------------------------------------
    // AVX2 + FMA f64 intervals: `F64I::add` and `F64I::mul` with the
    // whole op in registers, run by the bank sweep.
    // ------------------------------------------------------------------

    /// Four f64 intervals in registers: the negated-lower and the upper
    /// endpoint columns.
    #[derive(Clone, Copy)]
    struct Iv256 {
        nl: __m256d,
        h: __m256d,
    }

    impl Iv256 {
        /// Exact interval negation: the endpoint swap.
        #[inline]
        fn swap(self) -> Iv256 {
            Iv256 { nl: self.h, h: self.nl }
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_iv(x: &F64iCols4) -> Iv256 {
        // F64iCols4 is 32-byte aligned, so both columns are too.
        Iv256 { nl: _mm256_load_pd(x.neg_lo.as_ptr()), h: _mm256_load_pd(x.hi.as_ptr()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_iv(v: Iv256, out: &mut F64iCols4) {
        _mm256_store_pd(out.neg_lo.as_mut_ptr(), v.nl);
        _mm256_store_pd(out.hi.as_mut_ptr(), v.h);
    }

    /// Lane mask: `|x|` is infinite.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn is_inf_256(x: __m256d) -> __m256d {
        _mm256_cmp_pd::<_CMP_EQ_OQ>(abs_256(x), _mm256_set1_pd(f64::INFINITY))
    }

    /// [`max_nan`](super::max_nan) on lanes without a NaN operand:
    /// `a >= b` selects `a`, so ties keep `a`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn max_num_256(a: __m256d, b: __m256d) -> __m256d {
        _mm256_blendv_pd(b, a, _mm256_cmp_pd::<_CMP_GE_OQ>(a, b))
    }

    /// `F64I::add` with its flagged lanes resolved. The hot path is
    /// `add_ru`'s on both columns; lanes outside it go to [`add_rare`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn f64i_add_iv(a: Iv256, b: Iv256) -> Iv256 {
        let mut g = Guard::new();
        let r = Iv256 { nl: add_ru_256(a.nl, b.nl, &mut g), h: add_ru_256(a.h, b.h, &mut g) };
        if g.mask() == ALL4 {
            r
        } else {
            via_memory(a, b, r, add_rare)
        }
    }

    /// Runs the cold `rare` on the operands and the hot-path result,
    /// spilled to memory only on this path: passing the register values
    /// to a call would keep them in memory on the hot path too.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn via_memory(
        a: Iv256,
        b: Iv256,
        r: Iv256,
        rare: unsafe fn(&F64iCols4, &F64iCols4, &mut F64iCols4),
    ) -> Iv256 {
        let mut cols = [F64iCols4::default(); 3];
        store_iv(a, &mut cols[0]);
        store_iv(b, &mut cols[1]);
        store_iv(r, &mut cols[2]);
        let [ca, cb, mut cr] = cols;
        rare(&ca, &cb, &mut cr);
        load_iv(&cr)
    }

    /// The lanes of an interval add that left `add_ru`'s hot path. Two
    /// cases of its slow path are exact in registers: a NaN sum, which
    /// becomes the canonical NaN, and a sum with an infinite operand,
    /// which is the hot path's unbumped `s` (the TwoSum error is NaN).
    /// What is left — finite operands that overflow, and TwoSum's
    /// intermediate overflow — is recomputed with [`add_cols`].
    #[target_feature(enable = "avx2,fma")]
    #[cold]
    unsafe fn add_rare(a: &F64iCols4, b: &F64iCols4, r: &mut F64iCols4) {
        let (va, vb, vr) = (load_iv(a), load_iv(b), load_iv(r));
        let (nl, ok_nl) = add_col_special(va.nl, vb.nl, vr.nl);
        let (h, ok_h) = add_col_special(va.h, vb.h, vr.h);
        store_iv(Iv256 { nl, h }, r);
        let ok = _mm256_movemask_pd(_mm256_and_pd(ok_nl, ok_h));
        if ok != ALL4 {
            note_patched(&super::tel::ADD_PATCHED, ok);
            patch_cols(ok, a, b, r, super::add_cols);
        }
    }

    /// One column of [`add_rare`]: the hot-path result `r` with NaN sums
    /// made canonical, and the mask of the lanes now exact.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_col_special(x: __m256d, y: __m256d, r: __m256d) -> (__m256d, __m256d) {
        let mut hot = Guard::new();
        add_ru_256(x, y, &mut hot);
        let hot = hot.lanes();
        // r is NaN exactly where the sum is: the bump steps no NaN, and
        // makes none because a zero sum never asks for a step.
        let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(r, r);
        let ok = _mm256_or_pd(_mm256_or_pd(hot, nan), _mm256_or_pd(is_inf_256(x), is_inf_256(y)));
        (_mm256_blendv_pd(r, _mm256_set1_pd(f64::NAN), nan), ok)
    }

    /// `F64I::mul` with its flagged lanes resolved: the four
    /// `mul_ru_both` cores and the six selections in the scalar order.
    /// On lanes where every core took its hot path no product is NaN, so
    /// the selections need no NaN screen; other lanes go to [`mul_rare`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn f64i_mul_iv(a: Iv256, b: Iv256) -> Iv256 {
        let mut g = Guard::new();
        let (u1, l1) = mul_ru_both_256(a.nl, b.nl, &mut g);
        let (l2, u2) = mul_ru_both_256(a.nl, b.h, &mut g);
        let (l3, u3) = mul_ru_both_256(a.h, b.nl, &mut g);
        let (u4, l4) = mul_ru_both_256(a.h, b.h, &mut g);
        let r = Iv256 {
            nl: max_num_256(max_num_256(l1, l2), max_num_256(l3, l4)),
            h: max_num_256(max_num_256(u1, u2), max_num_256(u3, u4)),
        };
        if g.mask() == ALL4 {
            r
        } else {
            via_memory(a, b, r, mul_rare)
        }
    }

    /// The lanes of an interval mul where some `mul_ru_both` core left
    /// its hot path. Two cases are exact in registers. A NaN product
    /// makes both endpoints the canonical NaN, as `max_nan` does in the
    /// scalar op. A core with a zero or infinite operand gives the
    /// rounded product and its negation, which is what `mul_ru`'s slow
    /// path returns there, and the bump leaves them alone because the
    /// residual is zero or NaN. The other lanes (products that overflow,
    /// underflow or fall below the residual guard) are recomputed with
    /// [`mul_cols`].
    #[target_feature(enable = "avx2,fma")]
    #[cold]
    unsafe fn mul_rare(a: &F64iCols4, b: &F64iCols4, r: &mut F64iCols4) {
        let (va, vb, vr) = (load_iv(a), load_iv(b), load_iv(r));
        let (n1, ok1) = mul_core_special(va.nl, vb.nl);
        let (n2, ok2) = mul_core_special(va.nl, vb.h);
        let (n3, ok3) = mul_core_special(va.h, vb.nl);
        let (n4, ok4) = mul_core_special(va.h, vb.h);
        let nan = _mm256_or_pd(_mm256_or_pd(n1, n2), _mm256_or_pd(n3, n4));
        let nanv = _mm256_set1_pd(f64::NAN);
        let nl = _mm256_blendv_pd(vr.nl, nanv, nan);
        store_iv(Iv256 { nl, h: _mm256_blendv_pd(vr.h, nanv, nan) }, r);
        let ok = _mm256_or_pd(nan, _mm256_and_pd(_mm256_and_pd(ok1, ok2), _mm256_and_pd(ok3, ok4)));
        let ok = _mm256_movemask_pd(ok);
        if ok != ALL4 {
            note_patched(&super::tel::MUL_PATCHED, ok);
            patch_cols(ok, a, b, r, super::mul_cols);
        }
    }

    /// One core of [`mul_rare`]: the lanes whose product is NaN, and the
    /// lanes whose in-register pair is exact (hot guard, or a zero or
    /// infinite operand).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_core_special(x: __m256d, y: __m256d) -> (__m256d, __m256d) {
        let mut hot = Guard::new();
        mul_ru_both_256(x, y, &mut hot);
        let hot = hot.lanes();
        let p = _mm256_mul_pd(x, y);
        let zero = _mm256_setzero_pd();
        let special = _mm256_or_pd(
            _mm256_or_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(x, zero), is_inf_256(x)),
            _mm256_or_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(y, zero), is_inf_256(y)),
        );
        (_mm256_cmp_pd::<_CMP_UNORD_Q>(p, p), _mm256_or_pd(hot, special))
    }

    /// Recomputes the lanes whose bit is clear in `ok` with the scalar
    /// interval op `f` on raw endpoint pairs.
    fn patch_cols(
        ok: i32,
        a: &F64iCols4,
        b: &F64iCols4,
        r: &mut F64iCols4,
        f: fn(f64, f64, f64, f64) -> (f64, f64),
    ) {
        for i in 0..4 {
            if ok & (1 << i) == 0 {
                (r.neg_lo[i], r.hi[i]) = f(a.neg_lo[i], a.hi[i], b.neg_lo[i], b.hi[i]);
            }
        }
    }

    /// Loads group `i` of a bank.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ld<C: AsRef<F64iCols4>>(bank: &[C], i: usize) -> Iv256 {
        load_iv(bank[i].as_ref())
    }

    /// Stores group `i` of a bank.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn st<C: AsMut<F64iCols4>>(bank: &mut [C], i: usize, v: Iv256) {
        store_iv(v, bank[i].as_mut());
    }

    /// The bank sweep behind [`super::f64i_sweep_4`]: one loop per op,
    /// each reading a group's sources into registers before it writes
    /// that group's destination.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn f64i_sweep_4_avx2<C: AsRef<F64iCols4> + AsMut<F64iCols4>>(
        op: SweepOp,
        bank: &mut [C],
        n: usize,
        dst: usize,
        [a, b, acc]: [usize; 3],
    ) {
        match op {
            SweepOp::Add => {
                for g in 0..n {
                    let r = f64i_add_iv(ld(bank, a + g), ld(bank, b + g));
                    st(bank, dst + g, r);
                }
            }
            SweepOp::Sub => {
                for g in 0..n {
                    let r = f64i_add_iv(ld(bank, a + g), ld(bank, b + g).swap());
                    st(bank, dst + g, r);
                }
            }
            SweepOp::Mul => {
                for g in 0..n {
                    let r = f64i_mul_iv(ld(bank, a + g), ld(bank, b + g));
                    st(bank, dst + g, r);
                }
            }
            SweepOp::MulAdd => {
                for g in 0..n {
                    let (x, y, z) = (ld(bank, a + g), ld(bank, b + g), ld(bank, acc + g));
                    st(bank, dst + g, f64i_add_iv(z, f64i_mul_iv(x, y)));
                }
            }
            SweepOp::MulSub => {
                for g in 0..n {
                    let (x, y, z) = (ld(bank, a + g), ld(bank, b + g), ld(bank, acc + g));
                    st(bank, dst + g, f64i_add_iv(z, f64i_mul_iv(x, y).swap()));
                }
            }
            _ => unreachable!("f64i_sweep_4 dispatches only add, sub, mul and the fused forms"),
        }
    }

    // ------------------------------------------------------------------
    // Rare-lane scalar patching.
    // ------------------------------------------------------------------

    /// Recomputes the lanes whose validity bit is clear with the scalar
    /// kernel (cold: guard failures are rare by construction).
    #[cold]
    fn patch(ok: i32, out: &mut [f64; 4], f: impl Fn(usize) -> f64) {
        for (i, lane) in out.iter_mut().enumerate() {
            if ok & (1 << i) == 0 {
                *lane = f(i);
            }
        }
    }

    /// Pair-result variant of [`patch`].
    #[cold]
    fn patch_pair(
        ok: i32,
        out_hi: &mut [f64; 4],
        out_lo: &mut [f64; 4],
        f: impl Fn(usize) -> (f64, f64),
    ) {
        for i in 0..4 {
            if ok & (1 << i) == 0 {
                (out_hi[i], out_lo[i]) = f(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Backend> {
        let mut bks = vec![Backend::Portable, Backend::Avx2Fma];
        bks.retain(|&bk| bk <= detected_backend());
        bks
    }

    /// A deterministic grid of awkward operands, including every special
    /// class the scalar kernels branch on.
    fn grid() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            1.0 / 3.0,
            f64::EPSILON,
            1e16,
            -1e16,
            1e300,
            -1e300,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            2.5e-291,
            1e-290,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]
    }

    fn assert_lane_bits(got: f64, want: f64, ctx: &str) {
        assert!(
            got.to_bits() == want.to_bits(),
            "{ctx}: got {got:e} ({:#x}), want {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn packed_ops_bit_identical_on_grid() {
        let g = grid();
        for bk in backends() {
            for c in g.chunks(4) {
                let mut a = [0.0; 4];
                a[..c.len()].copy_from_slice(c);
                for &y in &g {
                    let b = [y; 4];
                    let (dh, dl) = div_ru_both_4(bk, &a, &b);
                    let mx = max_nan_4(bk, &a, &b);
                    let sru = sqrt_ru_4(bk, &a);
                    let srd = sqrt_rd_4(bk, &a);
                    let (qqh, qql) = sqr_ru_both_4(bk, &a);
                    let (an, ah) = abs_4(bk, &a, &b);
                    for i in 0..4 {
                        let ctx = format!("{bk} a={} b={y}", a[i]);
                        let (qh, ql) = crate::div_ru_both(a[i], y);
                        assert_lane_bits(dh[i], qh, &format!("div hi {ctx}"));
                        assert_lane_bits(dl[i], ql, &format!("div lo {ctx}"));
                        assert_lane_bits(mx[i], max_nan(a[i], y), &format!("max {ctx}"));
                        assert_lane_bits(sru[i], crate::sqrt_ru(a[i]), &format!("sqrt ru {ctx}"));
                        assert_lane_bits(srd[i], crate::sqrt_rd(a[i]), &format!("sqrt rd {ctx}"));
                        let (zh, zl) = crate::mul_ru_both(a[i], a[i]);
                        assert_lane_bits(qqh[i], zh, &format!("sqr hi {ctx}"));
                        assert_lane_bits(qql[i], zl, &format!("sqr lo {ctx}"));
                        let (wn, wh2) = abs_cols(a[i], y);
                        assert_lane_bits(an[i], wn, &format!("abs neg_lo {ctx}"));
                        assert_lane_bits(ah[i], wh2, &format!("abs hi {ctx}"));
                    }
                }
            }
        }
    }

    #[test]
    fn force_backend_clamps_and_restores() {
        let det = detected_backend();
        assert_eq!(force_backend(Some(Backend::Portable)), Backend::Portable);
        assert_eq!(active_backend(), Backend::Portable);
        // Requesting the widest level yields at most the detected one.
        assert_eq!(force_backend(Some(Backend::Avx2Fma)), det);
        assert_eq!(force_backend(None), det);
        assert_eq!(active_backend(), det);
    }

    #[test]
    fn max_nan_scalar_semantics() {
        assert_eq!(max_nan(1.0, 2.0), 2.0);
        assert_eq!(max_nan(2.0, 1.0), 2.0);
        assert!(max_nan(f64::NAN, 1.0).is_nan());
        assert!(max_nan(1.0, f64::NAN).is_nan());
        // Ties keep the first operand, including signed zeros.
        assert!(max_nan(0.0, -0.0).is_sign_positive());
        assert!(max_nan(-0.0, 0.0).is_sign_negative());
    }
}
