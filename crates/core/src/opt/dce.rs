//! Dead-temporary elimination.
//!
//! Removes `Def`s whose temporary is never used and whose initializer
//! can be safely discarded: pure interval operations marked
//! [`OpKind::removable_if_dead`](igen_ir::OpKind::removable_if_dead) (notably *not* `ia_cvt2bool_tb`, which
//! signals on the unknown state, nor `isum_*`/store intrinsics), plain
//! reads, and pure arithmetic. Unknown calls and assignments are never
//! removed. Runs to a fixpoint so copy/fold/CSE residue chains collapse
//! completely.

use super::{Pass, PassCtx};
use crate::lower::CompileError;
use igen_cfront::UnOp;
use igen_ir::{IrExpr, IrStmt, IrUnit};
use std::collections::HashSet;

/// The dead-temporary elimination pass.
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, unit: &mut IrUnit, _ctx: &mut PassCtx<'_>) -> Result<bool, CompileError> {
        let mut changed = false;
        for f in unit.functions_mut() {
            let body = f.body.as_mut().expect("definition");
            loop {
                let mut used: HashSet<u32> = HashSet::new();
                for s in body.iter() {
                    s.walk_exprs(&mut |e| {
                        if let IrExpr::Temp(n) = e {
                            used.insert(*n);
                        }
                    });
                }
                let mut removed = false;
                remove_dead(body, &used, &mut removed);
                if !removed {
                    break;
                }
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// Whether discarding this initializer discards no observable effect.
fn discardable(init: &IrExpr) -> bool {
    let mut ok = true;
    init.walk(&mut |e| match e {
        IrExpr::Op { op, .. } if !op.removable_if_dead() => ok = false,
        IrExpr::Call { .. } | IrExpr::Assign { .. } | IrExpr::PostIncDec(..) => ok = false,
        IrExpr::Unary(UnOp::PreInc | UnOp::PreDec, _) => ok = false,
        _ => {}
    });
    ok
}

/// Removes dead `Def`s from every statement list (single-statement
/// positions never hold declarations in valid C).
fn remove_dead(stmts: &mut Vec<IrStmt>, used: &HashSet<u32>, removed: &mut bool) {
    stmts.retain(|s| match s {
        IrStmt::Def { temp, init, .. } if !used.contains(temp) && discardable(init) => {
            *removed = true;
            false
        }
        _ => true,
    });
    for s in stmts {
        remove_in_stmt(s, used, removed);
    }
}

fn remove_in_stmt(s: &mut IrStmt, used: &HashSet<u32>, removed: &mut bool) {
    match s {
        IrStmt::Block(b) => remove_dead(b, used, removed),
        IrStmt::If { then_branch, else_branch, .. } => {
            remove_in_stmt(then_branch, used, removed);
            if let Some(e) = else_branch {
                remove_in_stmt(e, used, removed);
            }
        }
        IrStmt::For { body, .. } | IrStmt::While { body, .. } | IrStmt::DoWhile { body, .. } => {
            remove_in_stmt(body, used, removed)
        }
        IrStmt::Switch { arms, .. } => {
            for arm in arms {
                remove_dead(&mut arm.body, used, removed);
            }
        }
        _ => {}
    }
}
