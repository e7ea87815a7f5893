//! Exact software directed rounding for IEEE-754 binary64.
//!
//! The IGen paper (CGO 2021) relies on the processor's upward rounding mode
//! (MXCSR on x86) to implement sound interval arithmetic. Changing the
//! floating-point environment is not possible in safe Rust (LLVM assumes the
//! default environment), so this crate computes *exactly* the same results in
//! software: for each basic operation it first computes the round-to-nearest
//! result and then uses an error-free transformation (EFT) to determine the
//! sign of the rounding error, stepping one ulp in the required direction
//! when necessary.
//!
//! For all finite, non-underflowing cases the results are **bit-identical**
//! to hardware directed rounding ([`add_ru`] returns `RU(a + b)` exactly,
//! etc.). In the deep-subnormal range, where the classical EFTs lose
//! exactness, the implementation falls back to a conservative one-quantum
//! widening (2^-1074 in absolute terms), which preserves soundness and is
//! negligible for accuracy.
//!
//! The identities `RD(x) = -RU(-x)` and `RD(a op b) = -RU((-a) op' (-b))`
//! are used throughout, exactly as described in Section II of the paper, so
//! only the upward-rounding kernels are implemented in full.
//!
//! # Example
//!
//! ```
//! use igen_round::{add_ru, add_rd};
//!
//! let lo = add_rd(0.1, 0.2);
//! let hi = add_ru(0.1, 0.2);
//! assert!(lo <= 0.1 + 0.2 && 0.1 + 0.2 <= hi);
//! assert!(lo < hi); // 0.1 + 0.2 is inexact, so the enclosure is nonempty
//! ```

// `unsafe` is denied crate-wide except in the explicit-SIMD module, whose
// packed kernels require `core::arch::x86_64` intrinsics. Every other
// module (and every dependent crate) remains free of unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod eft;
mod ops;
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
pub mod simd;
mod ulp;

pub use eft::{fast_two_sum, two_prod, two_sum};
pub use ops::{
    add_rd, add_ru, div_rd, div_ru, div_ru_both, fma_rd, fma_ru, mul_rd, mul_ru, mul_ru_both,
    sqrt_rd, sqrt_ru, sub_rd, sub_ru,
};
pub use ulp::{exponent, next_down, next_up, ulp, ulps_between};

/// A rounding direction for the generic kernels in [`Rounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Round toward negative infinity (RD).
    Down,
    /// Round to nearest, ties to even (RN) — the IEEE default.
    Nearest,
    /// Round toward positive infinity (RU).
    Up,
}

/// Basic binary64 operations under a statically chosen rounding direction.
///
/// The double-double algorithms of the paper (Fig. 6) are written once,
/// generically over this trait, and instantiated at [`Rn`], [`Ru`] and
/// [`Rd`]; per Lemma 1 of the paper the `Ru` instantiation yields upper
/// bounds and the `Rd` instantiation lower bounds of the exact result.
pub trait Rounded: Copy + core::fmt::Debug + Default {
    /// The direction implemented by this instance.
    const DIRECTION: Direction;
    /// `round(a + b)` in this direction.
    fn add(a: f64, b: f64) -> f64;
    /// `round(a - b)` in this direction.
    fn sub(a: f64, b: f64) -> f64;
    /// `round(a * b)` in this direction.
    fn mul(a: f64, b: f64) -> f64;
    /// `round(a / b)` in this direction.
    fn div(a: f64, b: f64) -> f64;
    /// `round(sqrt(a))` in this direction.
    fn sqrt(a: f64) -> f64;
    /// `round(a * b + c)` in this direction (single rounding).
    fn fma(a: f64, b: f64, c: f64) -> f64;
}

/// Round-to-nearest instantiation of [`Rounded`] (plain hardware arithmetic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rn;

/// Round-upward instantiation of [`Rounded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ru;

/// Round-downward instantiation of [`Rounded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rd;

impl Rounded for Rn {
    const DIRECTION: Direction = Direction::Nearest;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn sub(a: f64, b: f64) -> f64 {
        a - b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn div(a: f64, b: f64) -> f64 {
        a / b
    }
    #[inline(always)]
    fn sqrt(a: f64) -> f64 {
        a.sqrt()
    }
    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

impl Rounded for Ru {
    const DIRECTION: Direction = Direction::Up;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        add_ru(a, b)
    }
    #[inline(always)]
    fn sub(a: f64, b: f64) -> f64 {
        sub_ru(a, b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        mul_ru(a, b)
    }
    #[inline(always)]
    fn div(a: f64, b: f64) -> f64 {
        div_ru(a, b)
    }
    #[inline(always)]
    fn sqrt(a: f64) -> f64 {
        sqrt_ru(a)
    }
    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        fma_ru(a, b, c)
    }
}

impl Rounded for Rd {
    const DIRECTION: Direction = Direction::Down;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        add_rd(a, b)
    }
    #[inline(always)]
    fn sub(a: f64, b: f64) -> f64 {
        sub_rd(a, b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        mul_rd(a, b)
    }
    #[inline(always)]
    fn div(a: f64, b: f64) -> f64 {
        div_rd(a, b)
    }
    #[inline(always)]
    fn sqrt(a: f64) -> f64 {
        sqrt_rd(a)
    }
    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        fma_rd(a, b, c)
    }
}
