//! `igen-interval`: the IGen interval runtime library (Section IV-A).
//!
//! This is the library the IGen compiler's output links against,
//! reproduced in Rust: fast, sound interval arithmetic with
//!
//! * double-precision intervals [`F64I`] in the negated-lower-endpoint
//!   representation (upward rounding only, branch-free multiplication),
//!   plus single-precision intervals [`F32I`] (Section III's `f32i`
//!   target);
//! * double-double intervals [`DdI`] (Section VI-A) able to certify
//!   double-precision results;
//! * three-valued booleans [`TBool`] for interval comparisons in branch
//!   conditions;
//! * packed lane types ([`F64Ix4`], [`DdIx4`]) mirroring the AVX
//!   layouts of Table II, and [`LaneOps`], the one lane trait they and
//!   the scalar [`F64I`]/[`DdI`] implement;
//! * rigorous elementary functions ([`elem`], the CRlibm substitute);
//! * the accurate reduction accumulators of Section VI-B ([`SumAcc64`],
//!   [`SumAccDd`]);
//! * the accuracy metric of the evaluation section ([`accuracy`]);
//! * and the C-runtime facade ([`capi`]) exposing everything under the
//!   `ia_*` names used by generated code.
//!
//! # Example
//!
//! ```
//! use igen_interval::F64I;
//!
//! // A Henon-map step, soundly:
//! let a = F64I::enclose_decimal(1.05);
//! let b = F64I::enclose_decimal(0.3);
//! let (mut x, mut y) = (F64I::point(0.0), F64I::point(0.0));
//! for _ in 0..10 {
//!     let xi = x;
//!     x = F64I::ONE - a * xi * xi + y;
//!     y = b * xi;
//! }
//! // The interval still certifies tens of bits after 10 iterations:
//! assert!(x.certified_bits() > 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
pub mod accuracy;
pub mod capi;
mod cast;
mod ddi;
pub mod elem;
mod f32i;
mod f64i;
mod tbool;
mod vector;

pub use acc::{SumAcc64, SumAccDd, EXACT_ACC_SLOTS};
pub use cast::{f32_pair_to_f64i, f32_to_f64i, f64i_to_f32_pair, i64_to_f64i};
pub use ddi::DdI;
pub use f32i::F32I;
pub use f64i::{InvalidInterval, F64I};
pub use igen_round::simd::{DdiCols4, SweepOp};
pub use tbool::{TBool, UnknownBranch};
pub use vector::{DdIx4, F64Ix4, LaneOps};
