//! Common-subexpression elimination over pure interval operations.
//!
//! Classic local value numbering, adapted to the IR's SSA temporaries:
//! within each statement list, a `Def` whose initializer is a pure,
//! [`OpKind::cse_safe`](igen_ir::OpKind::cse_safe) operation is fingerprinted; a later `Def` with an
//! identical fingerprint is recorded as an alias of the first and every
//! use is rewritten to the canonical temporary (the duplicate definition
//! becomes dead and is removed by the following `dce` pass).
//!
//! Soundness relies on three invariants:
//!
//! * temporaries are SSA by construction (lowering materializes each
//!   intermediate exactly once), so a canonical definition earlier in
//!   the same block dominates — and is in scope for — every use of its
//!   duplicate;
//! * available expressions are invalidated when an operand may change: a
//!   store to a variable kills entries reading it, a store through
//!   memory kills memory-reading entries, and an unknown call kills
//!   everything that reads a variable or memory;
//! * nested control flow is a barrier: inner statement lists start with
//!   an empty table, and the outer table is cleared afterwards.

use super::{Pass, PassCtx};
use crate::lower::CompileError;
use igen_ir::{IrExpr, IrStmt, IrUnit};
use std::collections::HashMap;

/// The common-subexpression elimination pass.
pub struct CsePass;

/// One available expression.
struct Entry {
    key: String,
    temp: u32,
    /// Variables the expression reads (invalidation on store).
    vars: Vec<String>,
    /// Whether the expression reads memory (arrays, pointers, members).
    mem: bool,
}

/// Side effects of evaluating one expression.
#[derive(Default)]
struct Effects {
    /// Variables written (directly or via `++`/`--`).
    vars: Vec<String>,
    /// Whether memory may be written.
    mem: bool,
    /// Whether an unknown (non-`ia_*`) call is evaluated.
    call: bool,
}

impl Effects {
    fn of(e: &IrExpr) -> Effects {
        let mut eff = Effects::default();
        e.walk(&mut |e| match e {
            IrExpr::Assign { lhs, .. } => eff.write_target(lhs),
            IrExpr::PostIncDec(inner, _) => eff.write_target(inner),
            IrExpr::Unary(igen_cfront::UnOp::PreInc | igen_cfront::UnOp::PreDec, inner) => {
                eff.write_target(inner)
            }
            IrExpr::Call { .. } => eff.call = true,
            IrExpr::Op { op, args, .. } if !op.side_effect_free() => {
                // `isum_*` write through `&accN`; SIMD stores write memory.
                match args.first() {
                    Some(IrExpr::Unary(igen_cfront::UnOp::Addr, inner)) => eff.write_target(inner),
                    _ => eff.mem = true,
                }
            }
            _ => {}
        });
        eff
    }

    fn write_target(&mut self, lhs: &IrExpr) {
        match lhs {
            IrExpr::Var(n, _) => self.vars.push(n.clone()),
            IrExpr::Temp(_) => {}
            _ => self.mem = true,
        }
    }

    fn is_empty(&self) -> bool {
        self.vars.is_empty() && !self.mem && !self.call
    }
}

struct St {
    aliases: HashMap<u32, u32>,
    changed: bool,
}

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, unit: &mut IrUnit, _ctx: &mut PassCtx<'_>) -> Result<bool, CompileError> {
        let mut changed = false;
        for f in unit.functions_mut() {
            let mut st = St { aliases: HashMap::new(), changed: false };
            let mut table: Vec<Entry> = Vec::new();
            process_list(f.body.as_mut().expect("definition"), &mut table, &mut st);
            changed |= st.changed;
        }
        Ok(changed)
    }
}

/// Rewrites every temporary use through the alias map (idempotent:
/// canonical temporaries are never themselves aliased).
fn subst(s: &mut IrStmt, aliases: &HashMap<u32, u32>) {
    if aliases.is_empty() {
        return;
    }
    s.walk_exprs_mut(&mut |e| {
        if let IrExpr::Temp(n) = e {
            if let Some(m) = aliases.get(n) {
                *n = *m;
            }
        }
    });
}

fn invalidate(table: &mut Vec<Entry>, eff: &Effects) {
    if eff.call {
        table.retain(|en| !en.mem && en.vars.is_empty());
    }
    if eff.mem {
        table.retain(|en| !en.mem);
    }
    if !eff.vars.is_empty() {
        table.retain(|en| en.vars.iter().all(|v| !eff.vars.contains(v)));
    }
}

/// A `Def` initializer is an available-expression candidate if its
/// operation is CSE-safe and evaluating it has no side effects.
fn eligible(init: &IrExpr) -> bool {
    matches!(init, IrExpr::Op { op, .. } if op.cse_safe()) && Effects::of(init).is_empty()
}

fn process_list(stmts: &mut [IrStmt], table: &mut Vec<Entry>, st: &mut St) {
    for s in stmts.iter_mut() {
        subst(s, &st.aliases);
        match s {
            IrStmt::Def { temp, init, .. } => {
                let eff = Effects::of(init);
                invalidate(table, &eff);
                if eligible(init) {
                    let key = fp(init);
                    match table.iter().find(|en| en.key == key) {
                        Some(en) => {
                            st.aliases.insert(*temp, en.temp);
                            st.changed = true;
                        }
                        None => table.push(Entry {
                            key,
                            temp: *temp,
                            vars: init.vars(),
                            mem: init.touches_memory(),
                        }),
                    }
                }
            }
            IrStmt::Decl { init: Some(e), .. } | IrStmt::Expr(e) | IrStmt::Return(Some(e)) => {
                invalidate(table, &Effects::of(e));
            }
            IrStmt::Block(b) => {
                let mut inner = Vec::new();
                process_list(b, &mut inner, st);
                table.clear();
            }
            IrStmt::If { cond, then_branch, else_branch } => {
                invalidate(table, &Effects::of(cond));
                process_box(then_branch, st);
                if let Some(e) = else_branch {
                    process_box(e, st);
                }
                table.clear();
            }
            IrStmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    process_box(i, st);
                }
                for e in [cond.as_ref(), step.as_ref()].into_iter().flatten() {
                    invalidate(table, &Effects::of(e));
                }
                process_box(body, st);
                table.clear();
            }
            IrStmt::While { cond, body } => {
                invalidate(table, &Effects::of(cond));
                process_box(body, st);
                table.clear();
            }
            IrStmt::DoWhile { body, cond } => {
                process_box(body, st);
                invalidate(table, &Effects::of(cond));
                table.clear();
            }
            IrStmt::Switch { cond, arms } => {
                invalidate(table, &Effects::of(cond));
                for arm in arms {
                    let mut inner = Vec::new();
                    process_list(&mut arm.body, &mut inner, st);
                }
                table.clear();
            }
            _ => {}
        }
    }
}

/// Processes a single-statement position (a branch or loop body) with a
/// fresh table.
fn process_box(b: &mut IrStmt, st: &mut St) {
    match b {
        IrStmt::Block(inner) => {
            let mut table = Vec::new();
            process_list(inner, &mut table, st);
        }
        other => {
            subst(other, &st.aliases);
            // A lone nested statement cannot define a reusable temp, but
            // it may contain deeper lists.
            if let IrStmt::If { .. }
            | IrStmt::For { .. }
            | IrStmt::While { .. }
            | IrStmt::DoWhile { .. }
            | IrStmt::Switch { .. } = other
            {
                let mut table = Vec::new();
                let mut one = vec![std::mem::replace(other, IrStmt::Empty)];
                process_list(&mut one, &mut table, st);
                *other = one.pop().expect("statement");
            }
        }
    }
}

/// Deterministic, location-insensitive fingerprint of an expression
/// (floats compare by bit pattern).
fn fp(e: &IrExpr) -> String {
    match e {
        IrExpr::Int { value, .. } => format!("i{value}"),
        IrExpr::Float { value, f32, tol, .. } => {
            format!("f{:x}:{}{}", value.to_bits(), *f32 as u8, *tol as u8)
        }
        IrExpr::Var(n, _) => format!("v:{n}"),
        IrExpr::Temp(n) => format!("t{n}"),
        IrExpr::Op { op, sfx, args, .. } => {
            let args: Vec<String> = args.iter().map(fp).collect();
            format!("{}({})", op.c_name(*sfx), args.join(","))
        }
        IrExpr::Call { name, args, .. } => {
            let args: Vec<String> = args.iter().map(fp).collect();
            format!("call:{name}({})", args.join(","))
        }
        IrExpr::Unary(op, a) => format!("u{op:?}({})", fp(a)),
        IrExpr::PostIncDec(a, inc) => format!("p{}({})", *inc as u8, fp(a)),
        IrExpr::Binary { op, lhs, rhs, .. } => format!("b{op:?}({},{})", fp(lhs), fp(rhs)),
        IrExpr::Assign { op, lhs, rhs, .. } => format!("a{op:?}({},{})", fp(lhs), fp(rhs)),
        IrExpr::Index(b, i) => format!("ix({},{})", fp(b), fp(i)),
        IrExpr::Member { base, field, arrow } => {
            format!("m{}({},{field})", *arrow as u8, fp(base))
        }
        IrExpr::Cast(ty, a) => format!("c{ty:?}({})", fp(a)),
        IrExpr::Cond(c, t, f) => format!("q({},{},{})", fp(c), fp(t), fp(f)),
    }
}
