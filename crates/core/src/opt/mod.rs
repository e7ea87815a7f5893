//! The optimization layer: a pass manager over the typed interval IR.
//!
//! Pipeline per [`OptLevel`]:
//!
//! * `-O0`: `reduce` only. Reduction rewriting (Section VI-B) implements
//!   `#pragma igen reduce` and is part of the language, not an
//!   optimization; with no annotated reductions the IR is untouched and
//!   the emitted C is byte-identical to the original single-pass
//!   rewriter.
//! * `-O1`: `reduce`, `fold` (constant-interval folding), `copyprop`,
//!   `dce` (dead-temporary elimination).
//! * `-O2`: `-O1` plus `cse` (common-subexpression elimination over pure
//!   interval operations) between `fold` and `copyprop`.
//!
//! Every pass reports whether it changed the IR; the manager records
//! before/after op-count and cost statistics per pass ([`PassReport`],
//! surfaced by `--dump-passes`) and, when
//! [`Config::verify_passes`](crate::Config) is set, differentially
//! verifies each pass with the reference interpreter
//! (the `verify` module).

pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod fold;
pub mod reduce;

use crate::config::{Config, OptLevel};
use crate::lower::CompileError;
use crate::reduce::ReductionInfo;
use igen_ir::{unit_stats, IrStmt, IrUnit, OpStats};
use std::collections::VecDeque;

/// Pre-order visit of a statement and every nested statement.
pub(crate) fn for_each_stmt(s: &IrStmt, f: &mut dyn FnMut(&IrStmt)) {
    f(s);
    match s {
        IrStmt::Block(b) => {
            for c in b {
                for_each_stmt(c, f);
            }
        }
        IrStmt::If { then_branch, else_branch, .. } => {
            for_each_stmt(then_branch, f);
            if let Some(e) = else_branch {
                for_each_stmt(e, f);
            }
        }
        IrStmt::For { init, body, .. } => {
            if let Some(i) = init {
                for_each_stmt(i, f);
            }
            for_each_stmt(body, f);
        }
        IrStmt::While { body, .. } | IrStmt::DoWhile { body, .. } => for_each_stmt(body, f),
        IrStmt::Switch { arms, .. } => {
            for arm in arms {
                for c in &arm.body {
                    for_each_stmt(c, f);
                }
            }
        }
        _ => {}
    }
}

/// Shared state threaded through the pass pipeline.
pub struct PassCtx<'c> {
    /// The active compiler configuration.
    pub cfg: &'c Config,
    /// Reduction groups detected during lowering, one per pragma marker,
    /// in marker (textual) order. The `reduce` pass consumes them.
    pub reduction_groups: VecDeque<Vec<ReductionInfo>>,
    /// Reductions actually rewritten (reported in
    /// [`Output::reductions`](crate::Output)).
    pub reductions: Vec<ReductionInfo>,
}

/// One optimization pass over the IR.
pub trait Pass {
    /// Stable pass name (used in reports and verifier diagnostics).
    fn name(&self) -> &'static str;

    /// Whether the pass must preserve interval endpoints bit-for-bit.
    ///
    /// The differential verifier only checks exact passes; the `reduce`
    /// pass intentionally *tightens* enclosures via the accurate
    /// accumulators of Section VI-B, so its before/after results differ.
    fn exact(&self) -> bool {
        true
    }

    /// Runs the pass; returns whether the IR changed.
    ///
    /// # Errors
    ///
    /// Passes themselves do not fail today, but the signature leaves room
    /// for pass-level diagnostics routed through [`CompileError`].
    fn run(&mut self, unit: &mut IrUnit, ctx: &mut PassCtx<'_>) -> Result<bool, CompileError>;
}

/// Statistics of one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name.
    pub name: &'static str,
    /// Op statistics before the pass.
    pub before: OpStats,
    /// Op statistics after the pass.
    pub after: OpStats,
    /// Whether the pass changed the IR.
    pub changed: bool,
}

/// Per-pass trace of one pipeline run (`--dump-passes`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassReport {
    /// The optimization level the pipeline ran at.
    pub level: OptLevel,
    /// One record per executed pass, in execution order.
    pub passes: Vec<PassStats>,
}

impl PassReport {
    /// Whether any pass changed the IR.
    pub fn changed(&self) -> bool {
        self.passes.iter().any(|p| p.changed)
    }

    /// Interval op count entering the pipeline.
    pub fn ops_before(&self) -> usize {
        self.passes.first().map_or(0, |p| p.before.ops)
    }

    /// Interval op count leaving the pipeline.
    pub fn ops_after(&self) -> usize {
        self.passes.last().map_or(0, |p| p.after.ops)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pass pipeline ({:?}):", self.level);
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "pass", "ops-in", "ops-out", "delta", "cost-in", "cost-out"
        );
        for p in &self.passes {
            let delta = p.after.ops as i64 - p.before.ops as i64;
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>8} {:>+8} {:>10} {:>10}{}",
                p.name,
                p.before.ops,
                p.after.ops,
                delta,
                p.before.cost,
                p.after.cost,
                if p.changed { "" } else { "   (no change)" }
            );
        }
        if let (Some(first), Some(last)) = (self.passes.first(), self.passes.last()) {
            let _ = writeln!(
                out,
                "  total: {} -> {} interval ops, cost {} -> {}",
                first.before.ops, last.after.ops, first.before.cost, last.after.cost
            );
        }
        out
    }
}

/// The pass pipeline for an optimization level.
fn pipeline(level: OptLevel) -> Vec<Box<dyn Pass>> {
    let mut passes: Vec<Box<dyn Pass>> = vec![Box::new(reduce::ReducePass)];
    match level {
        OptLevel::O0 => {}
        OptLevel::O1 => {
            passes.push(Box::new(fold::FoldPass));
            passes.push(Box::new(copyprop::CopyPropPass));
            passes.push(Box::new(dce::DcePass));
        }
        OptLevel::O2 => {
            passes.push(Box::new(fold::FoldPass));
            passes.push(Box::new(cse::CsePass));
            passes.push(Box::new(copyprop::CopyPropPass));
            passes.push(Box::new(dce::DcePass));
        }
    }
    passes
}

/// Runs the pipeline for `ctx.cfg.opt_level` over `unit`.
///
/// # Errors
///
/// Propagates pass failures and, with
/// [`Config::verify_passes`](crate::Config) set,
/// [`CompileError::VerifierMismatch`] when a pass changes observable
/// interval endpoints.
pub fn run_pipeline(unit: &mut IrUnit, ctx: &mut PassCtx<'_>) -> Result<PassReport, CompileError> {
    let mut report = PassReport { level: ctx.cfg.opt_level, passes: Vec::new() };
    for mut pass in pipeline(ctx.cfg.opt_level) {
        let _span = igen_telemetry::span_joined("pass.", pass.name());
        let before = unit_stats(unit);
        let before_ir =
            if ctx.cfg.verify_passes && pass.exact() { Some(unit.clone()) } else { None };
        let changed = pass.run(unit, ctx)?;
        if let Some(before_ir) = before_ir {
            if changed {
                let _span = igen_telemetry::span("compile.verify");
                crate::verify::check_pass(&before_ir, unit, pass.name())?;
            }
        }
        report.passes.push(PassStats {
            name: pass.name(),
            before,
            after: unit_stats(unit),
            changed,
        });
    }
    Ok(report)
}
