//! Explicit SIMD packed interval kernels with runtime dispatch.
//!
//! The paper's central performance result (Section IV-A "Vectorized
//! intervals", Table II, Fig. 8) comes from *packed* interval arithmetic:
//! one SSE/AVX register holds 1–4 intervals and every directed-rounding
//! operation is a handful of packed instructions. The scalar kernels in
//! the crate's `ops` module implement directed rounding in software via
//! error-free transformations; this module runs whole interval
//! operations built from them over four binary64 lanes at a time,
//! written with `core::arch::x86_64` intrinsics, selected once at
//! runtime by CPU-feature detection.
//!
//! # Backends
//!
//! * [`Backend::Avx2Fma`] — one 256-bit register per column, FMA-based
//!   `two_prod` residuals (`vfmsub`), AVX2 integer ops for the
//!   branch-free one-ulp bump.
//! * [`Backend::Portable`] — no packed kernel: the caller runs the
//!   scalar interval op on each lane. The backend of every host without
//!   AVX2 and FMA (all non-x86-64 targets, and x86-64 CPUs before
//!   Haswell).
//!
//! # Bit-identity contract
//!
//! Every packed kernel here returns, in each lane, **exactly the bits**
//! the corresponding scalar interval op returns for that lane's
//! operands — for *all* inputs, including NaN, infinities, subnormals
//! and signed zeros. The mechanism (see DESIGN.md §10):
//!
//! 1. the packed hot path performs the *same IEEE operation sequence* as
//!    the scalar hot path, lane-wise (packed and scalar IEEE ops are both
//!    correctly rounded, hence bit-equal);
//! 2. a packed validity mask re-checks the scalar hot path's guard
//!    conditions;
//! 3. lanes whose guard fails — rare by construction — are *settled* in
//!    registers where the scalar slow path's result is a directed bump
//!    of the registers' IEEE result or the canonical NaN, and recomputed
//!    with the scalar op otherwise. Every f64 add lane settles, every
//!    f64 mul lane but a product below `2.5e-291` from nonzero operands,
//!    and every dd add or mul column whose operand words hold a NaN.
//!
//! Soundness therefore never rests on new reasoning: the packed kernels
//! are the scalar kernels, evaluated four lanes at a time.
//!
//! # Interval kernels and the bank sweep
//!
//! The kernels are whole interval operations: [`ddi_add_4`]/[`ddi_mul_4`]
//! on one group of [`DdiCols4`], and [`f64i_sweep_4`], the one entry
//! into packed f64 code, which runs one VM instruction ([`SweepOp`]) over
//! `n` groups of a register bank of [`F64iCols4`] in one call. On
//! AVX2+FMA each arm keeps the whole interval op in registers and folds
//! its guards into one validity mask. The sweep has arms for add, sub,
//! mul and the fused multiply-accumulates; for any other op, and on the
//! portable backend, it returns `false` and the caller applies the
//! scalar op lane by lane. [`mul_cols`] is the scalar interval mul on
//! raw endpoint pairs, which `F64I::mul` and the mul arm's cold path
//! share.

use core::sync::atomic::{AtomicU8, Ordering};

use crate::ops::FMA_RESIDUAL_EXACT_MIN;

/// Telemetry counters for the packed kernels: per-op packed-call and
/// patched-lane counts. Zero-sized no-ops unless the `telemetry` feature
/// is enabled; the scalar-patch *rate* per op is
/// `lanes_patched / (4 * packed_calls)`. Lanes settled in registers are
/// not patched, so the f64 add, which settles every lane, has no
/// `lanes_patched` counter.
pub(crate) mod tel {
    use igen_telemetry::Counter;

    pub static ADD_PACKED: Counter = Counter::new("simd.add.packed_calls");
    pub static MUL_PACKED: Counter = Counter::new("simd.mul.packed_calls");
    pub static MUL_PATCHED: Counter = Counter::new("simd.mul.lanes_patched");
    pub static DD_ADD_PACKED: Counter = Counter::new("simd.dd_add.packed_calls");
    pub static DD_ADD_PATCHED: Counter = Counter::new("simd.dd_add.lanes_patched");
    pub static DD_MUL_PACKED: Counter = Counter::new("simd.dd_mul.packed_calls");
    pub static DD_MUL_PATCHED: Counter = Counter::new("simd.dd_mul.lanes_patched");
}

/// A packed-kernel implementation level, ordered from narrowest to
/// widest: `Backend::Portable < Backend::Avx2Fma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// No packed kernel: the scalar op on each lane (always available;
    /// the only level on hosts without AVX2 and FMA).
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
/// multiplication and division ([`mul_cols`], `F64I::div`).
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
/// lane `i`'s bits are the scalar op's — it passed every guard of the
/// scalar hot path, or an endpoint column that failed one has a NaN
/// operand word and holds the canonical `(NaN, NaN)` the scalar op
/// returns. A clear bit means the lane left the hot path otherwise
/// (infinite or overflowing sums, overflow in the final
/// renormalization) and its columns are meaningless — the caller must
/// recompute that lane with the scalar `DdI` operation.
pub fn ddi_add_4(bk: Backend, a: &DdiCols4, b: &DdiCols4) -> Option<(DdiCols4, u8)> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            tel::DD_ADD_PACKED.inc();
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
/// mask. A NaN in any of a lane's eight operand words reaches every
/// product, so both endpoints are the canonical `(NaN, NaN)` and the
/// lane is valid. The clear bits name the other lanes that left the
/// scalar hot path (products below the FMA-residual range or
/// underflowing to zero, infinite or overflowing products and sums)
/// and must be recomputed with the scalar `DdI` operation.
pub fn ddi_mul_4(bk: Backend, a: &DdiCols4, b: &DdiCols4) -> Option<(DdiCols4, u8)> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            tel::DD_MUL_PACKED.inc();
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

/// Scalar reference for the f64 interval mul on one raw `(neg_lo, hi)`
/// endpoint pair per operand: the formula of `F64I::mul`, four paired
/// products [`crate::mul_ru_both`] and six [`max_nan`] selections. The
/// sweep recomputes with this the lanes it cannot settle in registers.
#[inline]
pub fn mul_cols(a_neg_lo: f64, a_hi: f64, b_neg_lo: f64, b_hi: f64) -> (f64, f64) {
    // All eight directed endpoint products from four shared
    // product+residual pairs (al = -a_neg_lo, bl = -b_neg_lo):
    //   al*bl = a_neg_lo*b_neg_lo;  al*bh = -(a_neg_lo*b_hi);
    //   ah*bl = -(a_hi*b_neg_lo);   ah*bh = a_hi*b_hi.
    let (u1, l1) = crate::mul_ru_both(a_neg_lo, b_neg_lo); // RU(al*bl), RU(-(al*bl))
    let (l2, u2) = crate::mul_ru_both(a_neg_lo, b_hi); // RU(-(al*bh)) is u2
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
/// scalar `F64I` op, flagged lanes included. A flagged add lane is
/// always settled in registers; a flagged mul lane is too, unless one of
/// its products is below `2.5e-291` from nonzero operands, and then it
/// is recomputed with [`mul_cols`].
///
/// Telemetry counts per group: one `simd.mul` call per `Mul`, `MulAdd`
/// or `MulSub` group, one `simd.add` call per `Add`, `Sub`, `MulAdd` or
/// `MulSub` group.
///
/// Returns `false`, touching nothing, when the sweep has no arm for
/// `op` on `bk`: only AVX2+FMA has arms, for add, sub, mul and the
/// fused forms. The caller then runs the scalar op on each lane.
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
            tel::MUL_PACKED.add(if matches!(op, SweepOp::Add | SweepOp::Sub) { 0 } else { groups });
            tel::ADD_PACKED.add(if op == SweepOp::Mul { 0 } else { groups });
            // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
            unsafe { x86::f64i_sweep_4_avx2(op, bank, n, dst, src) };
            true
        }
        _ => false,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The packed x86-64 kernel bodies. Everything here is `unsafe fn`:
    //! they require AVX2 and FMA, which the dispatchers enforce via
    //! `clamp`.

    use super::{tel, DdiCols4, F64iCols4, SweepOp, FMA_RESIDUAL_EXACT_MIN};
    use core::arch::x86_64::*;

    /// All-lanes-valid movemask value for one 256-bit column.
    const ALL4: i32 = 0b1111;

    /// Counts the lanes whose validity bit is clear in `ok` (the lanes
    /// about to be recomputed by a scalar patch), if there are any.
    #[inline]
    fn note_patched(c: &'static igen_telemetry::Counter, ok: i32) {
        let patched = (!ok & ALL4).count_ones();
        if patched > 0 {
            c.add(patched as u64);
        }
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

    /// Packed branch-free directed bump: lane-wise `ops::bump_up` — steps
    /// each lane one value toward +∞ where the `up` mask is set: one up
    /// from the bits of a nonnegative value, one down from those of a
    /// negative one.
    ///
    /// Exact on every lane but one: `-0.0` stepped up gives a NaN here
    /// and `+0.0` in `ops::bump_up`. No lane a kernel accepts asks for
    /// that step. A sum or product that rounds to zero is exact, so its
    /// residual never sets `up`; an `fma_ru` result is `-0.0` only from a
    /// zero product, whose ErrFma terms are zeros (DESIGN §10); and the
    /// add settle steps only a finite sum beside a non-finite TwoSum
    /// error, which is never `-0.0`, or a `-inf` sum.
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
    /// sum), and the product guard on `u1`. Under that guard a `-0.0`
    /// result is never stepped up, so [`bump_up_256`] is exact: a
    /// product of at least `2.5e-291` makes `a*b + c` a nonzero multiple
    /// of `2^-1074` or an exact zero that rounds to `+0.0`, and a zero
    /// product leaves every ErrFma term zero (DESIGN §10).
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
        g.ok = _mm256_and_pd(g.ok, product_ok_256(a, b, u1));
        let sign = _mm256_blendv_pd(e2, e1, _mm256_cmp_pd::<_CMP_NEQ_UQ>(e1, zero));
        bump_up_256(r, _mm256_cmp_pd::<_CMP_GT_OQ>(sign, zero))
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

    /// Stores an endpoint pair.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_ddi(neg_lo: Dd256, hi: Dd256) -> DdiCols4 {
        let mut out = DdiCols4::default();
        _mm256_storeu_pd(out.neg_lo_hi.as_mut_ptr(), neg_lo.hi);
        _mm256_storeu_pd(out.neg_lo_lo.as_mut_ptr(), neg_lo.lo);
        _mm256_storeu_pd(out.hi_hi.as_mut_ptr(), hi.hi);
        _mm256_storeu_pd(out.hi_lo.as_mut_ptr(), hi.lo);
        out
    }

    /// Lane mask: a word of `x` or of `y` is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn nan_words(x: Dd256, y: Dd256) -> __m256d {
        _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_UNORD_Q>(x.hi, x.lo),
            _mm256_cmp_pd::<_CMP_UNORD_Q>(y.hi, y.lo),
        )
    }

    /// Settles the NaN columns of a dd op's result: writes the canonical
    /// `(NaN, NaN)` into the lanes `nan_nl` of the negated lower endpoint
    /// and `nan_h` of the upper one.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn settle_nan(out: &mut DdiCols4, nan_nl: __m256d, nan_h: __m256d) {
        let nanv = _mm256_set1_pd(f64::NAN);
        for (col, nan) in [
            (&mut out.neg_lo_hi, nan_nl),
            (&mut out.neg_lo_lo, nan_nl),
            (&mut out.hi_hi, nan_h),
            (&mut out.hi_lo, nan_h),
        ] {
            let v = _mm256_blendv_pd(_mm256_loadu_pd(col.as_ptr()), nanv, nan);
            _mm256_storeu_pd(col.as_mut_ptr(), v);
        }
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
        let mut out = store_ddi(nl, h);
        let mut ok = g_nl.merge(g_h).mask();
        if ok != ALL4 {
            ok = ddi_add_rare(a, b, &mut out, g_nl.mask(), g_h.mask());
        }
        (out, ok as u8)
    }

    /// The lanes of a dd interval add that failed a guard, given each
    /// endpoint column's own validity mask. A NaN in an operand word of
    /// a column reaches `add_dir`'s `zh` or `zl`, so `finish` returns
    /// `(NaN, NaN)` for that column; those columns are settled. A lane
    /// is valid when each of its columns is settled or passed its
    /// guards; the rest are left for the scalar patch.
    #[target_feature(enable = "avx2")]
    #[cold]
    unsafe fn ddi_add_rare(
        a: &DdiCols4,
        b: &DdiCols4,
        out: &mut DdiCols4,
        ok_nl: i32,
        ok_h: i32,
    ) -> i32 {
        let (a_nl, a_h) = load_ddi(a);
        let (b_nl, b_h) = load_ddi(b);
        let (nan_nl, nan_h) = (nan_words(a_nl, b_nl), nan_words(a_h, b_h));
        settle_nan(out, nan_nl, nan_h);
        let ok = (ok_nl | _mm256_movemask_pd(nan_nl)) & (ok_h | _mm256_movemask_pd(nan_h));
        note_patched(&tel::DD_ADD_PATCHED, ok);
        ok
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
        let mut out = store_ddi(neg_lo, hi);
        let mut ok = g.mask();
        if ok != ALL4 {
            ok = ddi_mul_rare(a, b, &mut out, ok);
        }
        (out, ok as u8)
    }

    /// The lanes of a dd interval mul that failed a guard. Each endpoint
    /// is a maximum over four products that together read all eight
    /// operand words, so one NaN word makes both endpoints `(NaN, NaN)`
    /// through `dd_max`; those lanes are settled, and the rest are left
    /// for the scalar patch.
    #[target_feature(enable = "avx2")]
    #[cold]
    unsafe fn ddi_mul_rare(a: &DdiCols4, b: &DdiCols4, out: &mut DdiCols4, ok: i32) -> i32 {
        let (na, ah) = load_ddi(a);
        let (nb, bh) = load_ddi(b);
        let nan = _mm256_or_pd(nan_words(na, ah), nan_words(nb, bh));
        settle_nan(out, nan, nan);
        let ok = ok | _mm256_movemask_pd(nan);
        note_patched(&tel::DD_MUL_PATCHED, ok);
        ok
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
    /// to a call would keep them in memory on the hot path too. `rare`
    /// leaves the op's result in place of the hot-path one.
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

    /// An interval add with a lane outside `add_ru`'s hot path, settled
    /// on every lane: [`add_ru_settled`] on both columns.
    #[target_feature(enable = "avx2,fma")]
    #[cold]
    unsafe fn add_rare(a: &F64iCols4, b: &F64iCols4, r: &mut F64iCols4) {
        let (va, vb) = (load_iv(a), load_iv(b));
        store_iv(Iv256 { nl: add_ru_settled(va.nl, vb.nl), h: add_ru_settled(va.h, vb.h) }, r);
    }

    /// `add_ru` on four lanes, slow path included: each return of
    /// `add_ru_slow` is the sum `s` stepped up once or left alone, or
    /// the canonical NaN. Finite operands with a non-finite TwoSum error
    /// step `s` up unless it is `+inf`: a finite `s` (TwoSum's
    /// intermediate overflow) to `next_up(s)`, a `-inf` one to `-MAX`,
    /// the saturation. An infinite operand leaves `s` alone, as its
    /// error is NaN. A stepped `s` is never `-0.0`: only two `-0.0`
    /// operands sum to it, with a zero error.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_ru_settled(x: __m256d, y: __m256d) -> __m256d {
        let (s, e) = two_sum_256(x, y);
        let finite_ops = _mm256_and_pd(is_finite_256(x), is_finite_256(y));
        let below_inf = _mm256_cmp_pd::<_CMP_LT_OQ>(s, _mm256_set1_pd(f64::INFINITY));
        let slow_up = _mm256_andnot_pd(is_finite_256(e), _mm256_and_pd(finite_ops, below_inf));
        let up = _mm256_or_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(e, _mm256_setzero_pd()), slow_up);
        let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(s, s);
        _mm256_blendv_pd(bump_up_256(s, up), _mm256_set1_pd(f64::NAN), nan)
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
    /// its hot path. The hot path's pair `(bump(p, e > 0), bump(-p,
    /// e < 0))` is `mul_ru_both`'s slow-path result on every core but
    /// one whose product is below `2.5e-291` from nonzero operands. A
    /// zero or infinite operand leaves a zero or NaN residual, so
    /// nothing is bumped; a finite product that overflows to `±inf`
    /// leaves the residual `∓inf`, which bumps the `-inf` side to
    /// `-MAX`, `mul_ru`'s saturation. So the selections are exact too,
    /// but on a lane with a NaN product, where both endpoints become the
    /// canonical NaN, as `max_nan` makes them. Lanes with a tiny product
    /// are recomputed with [`mul_cols`](super::mul_cols).
    #[target_feature(enable = "avx2,fma")]
    #[cold]
    unsafe fn mul_rare(a: &F64iCols4, b: &F64iCols4, r: &mut F64iCols4) {
        let (va, vb, vr) = (load_iv(a), load_iv(b), load_iv(r));
        let (n1, t1) = mul_core_rare(va.nl, vb.nl);
        let (n2, t2) = mul_core_rare(va.nl, vb.h);
        let (n3, t3) = mul_core_rare(va.h, vb.nl);
        let (n4, t4) = mul_core_rare(va.h, vb.h);
        let nan = _mm256_or_pd(_mm256_or_pd(n1, n2), _mm256_or_pd(n3, n4));
        let nanv = _mm256_set1_pd(f64::NAN);
        let nl = _mm256_blendv_pd(vr.nl, nanv, nan);
        store_iv(Iv256 { nl, h: _mm256_blendv_pd(vr.h, nanv, nan) }, r);
        let tiny = _mm256_or_pd(_mm256_or_pd(t1, t2), _mm256_or_pd(t3, t4));
        let ok = !_mm256_movemask_pd(_mm256_andnot_pd(nan, tiny)) & ALL4;
        note_patched(&tel::MUL_PATCHED, ok);
        for i in (0..4).filter(|i| ok & (1 << i) == 0) {
            (r.neg_lo[i], r.hi[i]) = super::mul_cols(a.neg_lo[i], a.hi[i], b.neg_lo[i], b.hi[i]);
        }
    }

    /// One core of [`mul_rare`]: the lanes whose product is NaN, and
    /// the lanes whose product is below `2.5e-291` from nonzero
    /// operands.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_core_rare(x: __m256d, y: __m256d) -> (__m256d, __m256d) {
        let p = _mm256_mul_pd(x, y);
        let zero = _mm256_setzero_pd();
        let nonzero = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_NEQ_UQ>(x, zero),
            _mm256_cmp_pd::<_CMP_NEQ_UQ>(y, zero),
        );
        let small = _mm256_cmp_pd::<_CMP_LT_OQ>(abs_256(p), _mm256_set1_pd(FMA_RESIDUAL_EXACT_MIN));
        (_mm256_cmp_pd::<_CMP_UNORD_Q>(p, p), _mm256_and_pd(small, nonzero))
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
