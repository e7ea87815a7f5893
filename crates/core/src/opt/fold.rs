//! Constant-interval folding over the IR.
//!
//! Lowering already folds constants *within* one source expression (the
//! paper's compile-time constant propagation); this pass additionally
//! folds across temporaries: a `Def` whose initializer is an interval
//! constant (`ia_set_f64(lo, hi)`) is recorded, and any pure operation
//! whose operands are all such constants is evaluated at compile time
//! by the [`F64I`] methods and [`igen_interval::elem`] functions — the
//! *same* soundly-rounded kernels the runtime and the reference
//! interpreter execute, so the folded endpoints are bit-identical to
//! what the runtime would produce (the invariant the differential
//! verifier checks).
//!
//! Only `f64` operations fold, mirroring the lowering layer (its
//! constant arithmetic is double-precision too); `f32`/`dd` operations
//! are left to the runtime. Results with non-finite endpoints are not
//! folded — the runtime operation stays and signals as it should.

use super::{Pass, PassCtx};
use crate::lower::CompileError;
use igen_cfront::{fmt_f64, Loc};
use igen_interval::{elem, F64I};
use igen_ir::{IrExpr, IrStmt, IrUnit, OpKind, Sfx};
use std::collections::HashMap;

/// The constant-interval folding pass.
pub struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&mut self, unit: &mut IrUnit, _ctx: &mut PassCtx<'_>) -> Result<bool, CompileError> {
        let mut changed = false;
        for f in unit.functions_mut() {
            let mut consts: HashMap<u32, F64I> = HashMap::new();
            for s in f.body.as_mut().expect("definition") {
                fold_stmt(s, &mut consts, &mut changed);
            }
        }
        Ok(changed)
    }
}

fn fold_stmt(s: &mut IrStmt, consts: &mut HashMap<u32, F64I>, changed: &mut bool) {
    match s {
        IrStmt::Def { temp, init, .. } => {
            fold_expr(init, consts, changed);
            if let Some(c) = const_of(init, consts) {
                consts.insert(*temp, c);
            }
        }
        IrStmt::Decl { init: Some(e), .. } | IrStmt::Expr(e) | IrStmt::Return(Some(e)) => {
            fold_expr(e, consts, changed)
        }
        IrStmt::Block(b) => {
            for c in b {
                fold_stmt(c, consts, changed);
            }
        }
        IrStmt::If { cond, then_branch, else_branch } => {
            fold_expr(cond, consts, changed);
            fold_stmt(then_branch, consts, changed);
            if let Some(e) = else_branch {
                fold_stmt(e, consts, changed);
            }
        }
        IrStmt::For { init, cond, step, body } => {
            if let Some(i) = init {
                fold_stmt(i, consts, changed);
            }
            if let Some(c) = cond {
                fold_expr(c, consts, changed);
            }
            if let Some(e) = step {
                fold_expr(e, consts, changed);
            }
            fold_stmt(body, consts, changed);
        }
        IrStmt::While { cond, body } => {
            fold_expr(cond, consts, changed);
            fold_stmt(body, consts, changed);
        }
        IrStmt::DoWhile { body, cond } => {
            fold_stmt(body, consts, changed);
            fold_expr(cond, consts, changed);
        }
        IrStmt::Switch { cond, arms } => {
            fold_expr(cond, consts, changed);
            for arm in arms {
                for c in &mut arm.body {
                    fold_stmt(c, consts, changed);
                }
            }
        }
        _ => {}
    }
}

/// The constant value of an operand, if known: an inline ordered
/// `ia_set_f64(lo, hi)` or a temporary recorded as constant. An
/// inverted pair is no constant: the runtime call stays and fails.
fn const_of(e: &IrExpr, consts: &HashMap<u32, F64I>) -> Option<F64I> {
    match e {
        IrExpr::Temp(n) => consts.get(n).copied(),
        IrExpr::Op { op: OpKind::Set, sfx: Sfx::F64, args, .. } => match &args[..] {
            [IrExpr::Float { value: lo, .. }, IrExpr::Float { value: hi, .. }] => {
                F64I::new(*lo, *hi).ok()
            }
            _ => None,
        },
        _ => None,
    }
}

/// Bottom-up fold: operands first, then this node.
fn fold_expr(e: &mut IrExpr, consts: &HashMap<u32, F64I>, changed: &mut bool) {
    match e {
        IrExpr::Op { args, .. } | IrExpr::Call { args, .. } => {
            for a in args {
                fold_expr(a, consts, changed);
            }
        }
        IrExpr::Unary(_, a) => fold_expr(a, consts, changed),
        IrExpr::PostIncDec(a, _) => fold_expr(a, consts, changed),
        IrExpr::Binary { lhs, rhs, .. } | IrExpr::Assign { lhs, rhs, .. } => {
            fold_expr(lhs, consts, changed);
            fold_expr(rhs, consts, changed);
        }
        IrExpr::Index(b, i) => {
            fold_expr(b, consts, changed);
            fold_expr(i, consts, changed);
        }
        IrExpr::Member { base, .. } => fold_expr(base, consts, changed),
        IrExpr::Cast(_, a) => fold_expr(a, consts, changed),
        IrExpr::Cond(c, t, f) => {
            fold_expr(c, consts, changed);
            fold_expr(t, consts, changed);
            fold_expr(f, consts, changed);
        }
        _ => {}
    }
    if let Some(v) = eval(e, consts) {
        if v.lo().is_finite() && v.hi().is_finite() {
            *e = set_const(v);
            *changed = true;
        }
    }
}

/// `ia_set_f64(lo, hi)` for a folded value.
fn set_const(v: F64I) -> IrExpr {
    let lit = |x: f64| IrExpr::Float { value: x, text: fmt_f64(x), f32: false, tol: false };
    IrExpr::Op {
        op: OpKind::Set,
        sfx: Sfx::F64,
        args: vec![lit(v.lo()), lit(v.hi())],
        loc: Loc::default(),
    }
}

/// Evaluates a pure `f64` operation over constant operands, if possible.
/// `Set` itself is excluded (it already is the folded form).
fn eval(e: &IrExpr, consts: &HashMap<u32, F64I>) -> Option<F64I> {
    let IrExpr::Op { op, sfx: Sfx::F64, args, .. } = e else {
        return None;
    };
    use OpKind::*;
    Some(match op {
        Add | Sub | Mul | Div | Min | Max | Join => {
            let (a, b) = (const_of(&args[0], consts)?, const_of(&args[1], consts)?);
            match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Min => a.min_i(&b),
                Max => a.max_i(&b),
                Join => a.join(&b),
                _ => unreachable!(),
            }
        }
        Neg | Sqr | Sqrt | Abs | Floor | Ceil | Exp | Log | Sin | Cos | Tan | Atan | Asin
        | Acos => {
            let a = const_of(&args[0], consts)?;
            match op {
                Neg => -a,
                Sqr => a.sqr(),
                Sqrt => a.sqrt(),
                Abs => a.abs(),
                Floor => a.floor(),
                Ceil => a.ceil(),
                Exp => elem::exp_interval(&a),
                Log => elem::log_interval(&a),
                Sin => elem::sin_interval(&a),
                Cos => elem::cos_interval(&a),
                Tan => elem::tan_interval(&a),
                Atan => elem::atan_interval(&a),
                Asin => elem::asin_interval(&a),
                Acos => elem::acos_interval(&a),
                _ => unreachable!(),
            }
        }
        Pow => {
            let a = const_of(&args[0], consts)?;
            let IrExpr::Int { value, .. } = &args[1] else {
                return None;
            };
            let n = i32::try_from(*value).ok()?;
            a.powi(n)
        }
        SetInt => {
            let IrExpr::Int { value, .. } = &args[0] else {
                return None;
            };
            F64I::from_i64(*value)
        }
        _ => return None,
    })
}
