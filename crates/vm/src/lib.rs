//! Register bytecode for IGen interval programs.
//!
//! This crate turns an optimized, renumbered [`igen_ir::IrFunction`]
//! into a compact register [`Program`] — one flat instruction stream
//! over dense virtual registers, constants pooled and deduplicated,
//! inputs and outputs declared up front — and executes it with a
//! single lane-generic instruction loop, reached through [`run_tile`]
//! (a tile of groups of items) and [`run_scalar`] (one item).
//!
//! The same program runs at scalar width (`F64I`, `DdI`) and at packed
//! width (`F64Ix4`, `DdIx4`) from one code path, written against the one
//! lane trait `igen_interval::LaneOps` that all four types implement. Because every packed kernel is lane-wise bit-identical to its
//! scalar counterpart, the packed execution of a compiled program is
//! bit-identical, endpoint for endpoint, to the scalar one, and both
//! are pinned against the independent reference, the differential IR
//! interpreter (`igen-interp`). That chain is what lets `igen-batch` fan an arbitrary compiled
//! function out across threads with a determinism guarantee instead of
//! a tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod lower;
pub mod peephole;
pub mod prepared;

pub use bytecode::{DebugMap, Insn, OutputSlot, PoolConst, Precision, Program, SrcLoc};
pub use exec::{program_width_hist, run_scalar, VmElem};
pub use lower::{lower, ArgBind, BindSpec, LowerError, DEFAULT_STEP_BUDGET, MAX_INSNS};
pub use peephole::{peephole, PeepholeStats};
pub use prepared::{run_tile, PreparedProgram, TileBank, DEFAULT_TILE_GROUPS};
