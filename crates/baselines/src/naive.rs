//! The gauntlet's **naive switched-rounding-mode baseline**.
//!
//! Classic op-by-op interval libraries drive the FPU rounding mode:
//! every endpoint operation is bracketed by `fesetround(FE_DOWNWARD)` /
//! `fesetround(FE_UPWARD)` writes, each of which serializes the
//! floating-point pipeline. This workspace computes directed rounding in
//! software EFTs instead, so [`NaiveI`] *emulates* the switched-mode
//! style faithfully enough to serve as the gauntlet's universal
//! baseline:
//!
//! * every operation performs two mode switches (`set_rounding_mode`:
//!   an `#[inline(never)]` call around a sequentially-consistent store —
//!   the software stand-in for the serializing `LDMXCSR`), and
//! * each "directed" endpoint result is the round-to-nearest value
//!   stepped one ulp outward ([`igen_round::next_down`]/[`next_up`]),
//!   the defensive widening a library uses when it cannot trust the
//!   current mode.
//!
//! The result is **sound but wide**: each operation gives away up to one
//! ulp per endpoint versus the correctly-rounded `igen-interval` types,
//! so the gauntlet's width column separates the contenders on accuracy
//! exactly as the speed columns do on time.
//!
//! [`next_up`]: igen_round::next_up

use core::sync::atomic::{AtomicU8, Ordering};
use igen_round::{next_down, next_up};

/// Emulated FPU rounding-control state (the "MXCSR.RC field").
static ROUNDING_MODE: AtomicU8 = AtomicU8::new(MODE_NEAREST);

const MODE_NEAREST: u8 = 0;
const MODE_DOWN: u8 = 1;
const MODE_UP: u8 = 2;

/// Emulated `fesetround`: a call boundary plus a sequentially-consistent
/// store, modeling the serialization cost a real mode write imposes. The
/// call must not be inlined away — that *is* the cost being modeled.
#[inline(never)]
fn set_rounding_mode(mode: u8) {
    ROUNDING_MODE.store(mode, Ordering::SeqCst);
}

/// One-ulp outward step below the round-to-nearest result: sound for
/// downward rounding because nearest is within half an ulp of the exact
/// value (and `next_down(+∞) = MAX` covers the overflow edge).
#[inline]
fn step_down(nearest: f64) -> f64 {
    next_down(nearest)
}

/// One-ulp outward step above the round-to-nearest result.
#[inline]
fn step_up(nearest: f64) -> f64 {
    next_up(nearest)
}

/// Naive switched-rounding-mode interval: `(lo, hi)` pair, two emulated
/// mode switches and one-ulp defensive widening per operation.
///
/// # Example
///
/// ```
/// use igen_baselines::NaiveI;
/// let x = NaiveI::point(0.1);
/// let y = x + x;
/// assert!(y.lo() <= 0.2 && 0.2 <= y.hi());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NaiveI {
    lo: f64,
    hi: f64,
}

impl NaiveI {
    /// `[x, x]`.
    pub fn point(x: f64) -> NaiveI {
        NaiveI { lo: x, hi: x }
    }

    /// `[lo, hi]` (caller guarantees order).
    pub fn new(lo: f64, hi: f64) -> NaiveI {
        debug_assert!(!(lo > hi), "inverted interval");
        NaiveI { lo, hi }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Certified bits (same metric as `igen-interval`).
    pub fn certified_bits(&self) -> f64 {
        crate::igen_interval_accuracy(self.lo, self.hi)
    }

    /// Interval square root (mode-switched, defensively widened; the
    /// lower step is clamped at zero, where the true root lives).
    #[must_use]
    pub fn sqrt(&self) -> NaiveI {
        set_rounding_mode(MODE_DOWN);
        let lo = if self.lo >= 0.0 { step_down(self.lo.sqrt()).max(0.0) } else { f64::NAN };
        set_rounding_mode(MODE_UP);
        let hi = step_up(self.hi.sqrt());
        set_rounding_mode(MODE_NEAREST);
        NaiveI { lo, hi }
    }

    /// Interval maximum against zero (ReLU) — exact, no rounding.
    #[must_use]
    pub fn max_zero(&self) -> NaiveI {
        NaiveI { lo: self.lo.max(0.0), hi: self.hi.max(0.0) }
    }
}

impl core::ops::Add for NaiveI {
    type Output = NaiveI;
    fn add(self, rhs: NaiveI) -> NaiveI {
        set_rounding_mode(MODE_DOWN);
        let lo = step_down(self.lo + rhs.lo);
        set_rounding_mode(MODE_UP);
        let hi = step_up(self.hi + rhs.hi);
        set_rounding_mode(MODE_NEAREST);
        NaiveI { lo, hi }
    }
}

impl core::ops::Sub for NaiveI {
    type Output = NaiveI;
    fn sub(self, rhs: NaiveI) -> NaiveI {
        set_rounding_mode(MODE_DOWN);
        let lo = step_down(self.lo - rhs.hi);
        set_rounding_mode(MODE_UP);
        let hi = step_up(self.hi - rhs.lo);
        set_rounding_mode(MODE_NEAREST);
        NaiveI { lo, hi }
    }
}

impl core::ops::Neg for NaiveI {
    type Output = NaiveI;
    fn neg(self) -> NaiveI {
        NaiveI { lo: -self.hi, hi: -self.lo }
    }
}

impl core::ops::Mul for NaiveI {
    type Output = NaiveI;
    /// The truly naive four-products multiplication: all endpoint
    /// products in each mode, min/max selection — no sign dispatch.
    fn mul(self, rhs: NaiveI) -> NaiveI {
        let (al, ah) = (self.lo, self.hi);
        let (bl, bh) = (rhs.lo, rhs.hi);
        set_rounding_mode(MODE_DOWN);
        let lo = step_down((al * bl).min(al * bh).min((ah * bl).min(ah * bh)));
        set_rounding_mode(MODE_UP);
        let hi = step_up((al * bl).max(al * bh).max((ah * bl).max(ah * bh)));
        set_rounding_mode(MODE_NEAREST);
        NaiveI { lo, hi }
    }
}

impl core::ops::Div for NaiveI {
    type Output = NaiveI;
    /// Four-quotients division; divisors containing zero give the entire
    /// line.
    fn div(self, rhs: NaiveI) -> NaiveI {
        let (al, ah) = (self.lo, self.hi);
        let (bl, bh) = (rhs.lo, rhs.hi);
        if bl <= 0.0 && bh >= 0.0 {
            return NaiveI { lo: f64::NEG_INFINITY, hi: f64::INFINITY };
        }
        set_rounding_mode(MODE_DOWN);
        let lo = step_down((al / bl).min(al / bh).min((ah / bl).min(ah / bh)));
        set_rounding_mode(MODE_UP);
        let hi = step_up((al / bl).max(al / bh).max((ah / bl).max(ah / bh)));
        set_rounding_mode(MODE_NEAREST);
        NaiveI { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_encloses_exact_arithmetic() {
        let a = NaiveI::new(2.0, 3.0);
        let b = NaiveI::new(-5.0, 4.0);
        let s = a + b;
        assert!(s.lo <= -3.0 && 3.0 + 4.0 <= s.hi);
        let p = a * b;
        assert!(p.lo <= -15.0 && 12.0 <= p.hi);
        let q = a / NaiveI::new(2.0, 2.0);
        assert!(q.lo <= 1.0 && 1.5 <= q.hi);
    }

    #[test]
    fn naive_is_wider_than_one_ulp_per_op() {
        // 0.1 + 0.2 in naive intervals must contain the exact rational
        // sum and be strictly wider than the correctly-rounded result.
        let s = NaiveI::point(0.1) + NaiveI::point(0.2);
        assert!(s.lo < 0.1 + 0.2 && 0.1 + 0.2 < s.hi);
        assert!(igen_round::ulps_between(s.lo, s.hi) >= 2);
    }

    #[test]
    fn division_by_zero_interval_is_entire() {
        let q = NaiveI::new(1.0, 2.0) / NaiveI::new(-1.0, 1.0);
        assert_eq!((q.lo, q.hi), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn sqrt_clamps_at_zero() {
        let r = NaiveI::new(0.0, 4.0).sqrt();
        assert_eq!(r.lo, 0.0);
        assert!(r.hi >= 2.0);
        assert!(NaiveI::new(-1.0, 1.0).sqrt().lo.is_nan());
    }

    #[test]
    fn overflow_steps_stay_sound() {
        let big = NaiveI::point(f64::MAX);
        let s = big + big;
        assert_eq!(s.hi, f64::INFINITY);
        assert!(s.lo.is_finite());
    }
}
