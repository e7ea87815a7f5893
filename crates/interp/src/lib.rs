//! `igen-interp`: an interpreter for the IGen C subset.
//!
//! The paper compiles its output with GCC and runs it natively; this
//! workspace has no C compiler in the loop, so this crate *executes* the
//! `igen-cfront` AST directly:
//!
//! * the **original** program runs in float mode (`double` values,
//!   `__m256d` vectors, libm calls);
//! * the **transformed** program runs in interval mode — every `ia_*`,
//!   `isum_*` and `ia_mm*` call is bound one-to-one to the
//!   `igen-interval` runtime.
//!
//! Running both on the same inputs gives the end-to-end differential
//! soundness test of the whole compiler pipeline: the interval result
//! must always enclose the float result (and the oracle's real result).
//!
//! # Example
//!
//! ```
//! use igen_interp::{Interp, Value};
//!
//! let src = "double sq(double x) { return x * x; }";
//! let mut it = Interp::from_source(src).unwrap();
//! let out = it.call("sq", vec![Value::F64(3.0)]).unwrap();
//! assert_eq!(out, Value::F64(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builtins;
mod exec;
mod resolve;
mod value;

pub use exec::{Interp, RtError};
pub use value::Value;
