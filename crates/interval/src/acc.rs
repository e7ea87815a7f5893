//! Accurate accumulators for the reduction transformation (Section VI-B).
//!
//! IGen replaces detected reductions with an accumulator that eliminates
//! (almost) all intermediate rounding:
//!
//! * For **double precision** interval targets, the accumulator keeps each
//!   endpoint in double-double precision (`isum_*_f64` in the generated C).
//! * For **double-double** targets a double-double accumulator would be
//!   too expensive, so the paper uses an *exact* exponent-indexed array
//!   accumulator in the style of Malcolm / Demmel–Hida: one `f64` array of
//!   4096 slots per endpoint, indexed by `p = 2e + b` where `e` is the
//!   exponent field and `b` the least-significant mantissa bit of the term
//!   being added. Two numbers with equal exponent and equal LSB add
//!   *exactly* (their significand sum is even, so it fits back into 53
//!   bits), so inserting a term never rounds — collisions simply cascade.

use crate::ddi::DdI;
use crate::f64i::F64I;
use igen_dd::{add_dir, Dd};
use igen_round::Ru;

/// Double-double accumulator for double-precision interval reductions
/// (`acc_f64` / `isum_*_f64` in the generated C).
///
/// # Example
///
/// ```
/// use igen_interval::{F64I, SumAcc64};
/// let term = F64I::point(0.1);
/// let mut acc = SumAcc64::new(F64I::ZERO);
/// for _ in 0..1_000 {
///     acc.accumulate(&term);
/// }
/// let sum = acc.reduce();
/// // Far tighter than naive interval summation:
/// assert!(sum.certified_bits() > 50.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SumAcc64 {
    neg_lo: Dd,
    hi: Dd,
}

impl SumAcc64 {
    /// `isum_init_f64`: starts the accumulator from an initial interval
    /// (the value the reduction variable holds before the loop).
    pub fn new(init: F64I) -> SumAcc64 {
        SumAcc64 { neg_lo: Dd::from(init.neg_lo()), hi: Dd::from(init.hi()) }
    }

    /// `isum_accumulate_f64`: adds one interval term.
    pub fn accumulate(&mut self, term: &F64I) {
        self.neg_lo = add_dir::<Ru>(self.neg_lo, Dd::from(term.neg_lo()));
        self.hi = add_dir::<Ru>(self.hi, Dd::from(term.hi()));
    }

    /// `isum_reduce_f64`: rounds the double-double endpoint sums outward
    /// to a double-precision interval.
    pub fn reduce(&self) -> F64I {
        F64I::from_neg_lo_hi(dd_to_f64_upper(self.neg_lo), dd_to_f64_upper(self.hi))
    }
}

/// Smallest f64 `>=` the dd value.
fn dd_to_f64_upper(x: Dd) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let (h, l) = igen_round::two_sum(x.hi(), x.lo());
    if l > 0.0 {
        igen_round::next_up(h)
    } else {
        h
    }
}

/// Size of the exact accumulator array: one slot per (exponent, LSB) pair
/// (2048 exponent values × 2 LSB values), as specified in Section VI-B.
pub const EXACT_ACC_SLOTS: usize = 4096;

/// Exact exponent-indexed accumulator for one (scalar) endpoint stream.
#[derive(Debug, Clone)]
struct ExactAcc {
    slots: Box<[f64; EXACT_ACC_SLOTS]>,
    /// Set when a cascade overflowed past the largest exponent.
    overflow: bool,
}

impl ExactAcc {
    fn new() -> ExactAcc {
        ExactAcc { slots: Box::new([0.0; EXACT_ACC_SLOTS]), overflow: false }
    }

    /// Slot index `p = 2e + b` from the raw exponent field and LSB.
    fn slot_of(t: f64) -> usize {
        let bits = t.to_bits();
        let e = ((bits >> 52) & 0x7ff) as usize;
        let b = (bits & 1) as usize;
        2 * e + b
    }

    /// Inserts one f64 term exactly (no rounding ever occurs: colliding
    /// slots hold the same exponent and LSB, so their sum is exact; the
    /// sum is re-inserted at its own slot and the cascade repeats).
    fn insert(&mut self, t: f64) {
        let mut t = t;
        loop {
            if t == 0.0 {
                return;
            }
            if !t.is_finite() {
                self.overflow = true;
                return;
            }
            let p = Self::slot_of(t);
            let cur = self.slots[p];
            if cur == 0.0 {
                self.slots[p] = t;
                return;
            }
            // Exact: same exponent field and same LSB.
            let merged = cur + t;
            self.slots[p] = 0.0;
            t = merged;
        }
    }

    /// Final reduction: sums the slots in double-double with directed
    /// rounding `Ru` (the only rounding in the whole accumulation).
    fn reduce_upper(&self) -> Dd {
        if self.overflow {
            return Dd::INFINITY;
        }
        let mut acc = Dd::ZERO;
        // Sum from small to large magnitudes for stability.
        for &v in self.slots.iter() {
            if v != 0.0 {
                acc = add_dir::<Ru>(acc, Dd::from(v));
            }
        }
        acc
    }
}

/// Exact array accumulator for double-double interval reductions
/// (`isum_*_dd` in the generated C): two 4096-slot arrays, one per
/// endpoint, inserting both components of every double-double endpoint.
///
/// # Example
///
/// ```
/// use igen_interval::{DdI, SumAccDd};
/// let term = DdI::point_f64(0.1);
/// let mut acc = SumAccDd::new(DdI::ZERO);
/// for _ in 0..10_000 {
///     acc.accumulate(&term);
/// }
/// let s = acc.reduce();
/// assert!(s.certified_bits() > 100.0, "bits: {}", s.certified_bits());
/// ```
#[derive(Debug, Clone)]
pub struct SumAccDd {
    neg_lo: ExactAcc,
    hi: ExactAcc,
}

impl SumAccDd {
    /// `isum_init_dd`.
    pub fn new(init: DdI) -> SumAccDd {
        let mut acc = SumAccDd { neg_lo: ExactAcc::new(), hi: ExactAcc::new() };
        acc.accumulate(&init);
        acc
    }

    /// `isum_accumulate_dd`: inserts both double-double components of both
    /// endpoints, exactly.
    pub fn accumulate(&mut self, term: &DdI) {
        let nl = term.lo().neg();
        self.neg_lo.insert(nl.hi());
        self.neg_lo.insert(nl.lo());
        self.hi.insert(term.hi().hi());
        self.hi.insert(term.hi().lo());
    }

    /// `isum_reduce_dd`: sums the slots in double-double (upward for both
    /// endpoint streams, thanks to the negated-low convention).
    pub fn reduce(&self) -> DdI {
        let nl = self.neg_lo.reduce_upper();
        let hi = self.hi.reduce_upper();
        DdI::new(nl.neg(), hi).unwrap_or(DdI::ENTIRE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dd_accumulator_beats_naive_f64i() {
        let term = F64I::point(0.1);
        let mut acc = SumAcc64::new(F64I::ZERO);
        let mut naive = F64I::ZERO;
        for _ in 0..100_000 {
            acc.accumulate(&term);
            naive = naive + term;
        }
        let smart = acc.reduce();
        assert!(
            smart.certified_bits() > naive.certified_bits() + 10.0,
            "smart {} vs naive {}",
            smart.certified_bits(),
            naive.certified_bits()
        );
        // Both contain 0.1 * 100000 summed in higher precision, i.e. the
        // true value 0.1(f64) * 100000 (within dd accuracy).
        let truth = Dd::from(0.1) * Dd::from(100000.0);
        assert!(smart.contains(truth.to_f64()));
    }

    #[test]
    fn f64_accumulator_encloses_the_rounded_sum() {
        let mut acc = SumAcc64::new(F64I::ZERO);
        for _ in 0..100 {
            acc.accumulate(&F64I::point(0.1));
        }
        assert!(acc.reduce().contains(10.000000000000002)); // RN sum of a hundred 0.1s
    }

    #[test]
    fn exact_acc_insert_is_exact() {
        let mut acc = ExactAcc::new();
        // Insert values that would lose bits in naive summation.
        let vals = [1e16, 1.0, -1e16, 2.0, 0.5, 3e-20, -0.5];
        for &v in &vals {
            acc.insert(v);
        }
        let sum = acc.reduce_upper();
        // Exact sum is 3.0 + 3e-20.
        let expect = Dd::from(3.0) + Dd::from(3e-20);
        assert!((sum - expect).abs().to_f64() < 1e-30, "sum = {sum}");
    }

    #[test]
    fn exact_acc_collision_cascade() {
        let mut acc = ExactAcc::new();
        // Same exponent and LSB repeatedly: forces cascades.
        for _ in 0..1024 {
            acc.insert(3.0);
        }
        let sum = acc.reduce_upper();
        assert_eq!(sum.to_f64(), 3072.0);
        assert_eq!(sum.lo(), 0.0);
    }

    #[test]
    fn exact_acc_mixed_signs_cancel_exactly() {
        let mut acc = ExactAcc::new();
        let mut expect = Dd::ZERO;
        let mut v = 1.000000000000123f64;
        for i in 0..1000 {
            let t = if i % 2 == 0 { v } else { -v * 0.5 };
            acc.insert(t);
            expect = expect + Dd::from(t);
            v *= 1.0000001;
        }
        let sum = acc.reduce_upper();
        let diff = (sum - expect).abs();
        // expect itself carries dd rounding (~2^-106 rel), the accumulator
        // is exact: they agree to dd accuracy.
        assert!(diff.to_f64() < 1e-25, "diff = {diff}");
    }

    #[test]
    fn dd_interval_accumulator_certifies() {
        let term = DdI::point_f64(0.1) / DdI::point_f64(3.0);
        let mut acc = SumAccDd::new(DdI::ZERO);
        for _ in 0..4096 {
            acc.accumulate(&term);
        }
        let s = acc.reduce();
        assert!(s.certified_bits() > 95.0, "bits = {}", s.certified_bits());
        assert!(s.certified_f64().is_some());
    }

    #[test]
    fn overflow_detected() {
        let mut acc = ExactAcc::new();
        for _ in 0..4 {
            acc.insert(f64::MAX);
        }
        assert!(acc.reduce_upper().to_f64().is_infinite());
    }

    #[test]
    fn subnormal_terms_accumulate() {
        let mut acc = ExactAcc::new();
        let tiny = f64::from_bits(3); // subnormal, LSB 1
        for _ in 0..1000 {
            acc.insert(tiny);
        }
        let sum = acc.reduce_upper();
        assert_eq!(sum.to_f64(), tiny * 1000.0);
    }
}
