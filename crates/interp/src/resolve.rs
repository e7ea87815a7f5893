//! Load-time resolution: every cfront `Function` becomes a [`Function`]
//! body in which identifiers are frame slots bound lexically, call sites
//! are pre-bound [`Callee`]s and profiling sites carry dense indices.
//!
//! Only names are resolved here. Values, the heap, accumulators and the
//! step count stay dynamic, and resolution never fails: a name nothing
//! binds, or a callee nothing defines, raises the interpreter's usual
//! error when, and only when, it is evaluated.

use crate::builtins::{self, AccFn, Builtin};
use crate::exec::RtError;
use igen_cfront::{BinOp, Expr, Loc, Stmt, TranslationUnit, Type, UnOp};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// A variable reference: a slot of the current call's frame. A name no
/// declaration in scope binds gets a slot of its own that is never
/// written, so it fails like a local read before its declaration runs.
pub(crate) struct Var {
    pub slot: usize,
    /// For the error.
    pub name: Rc<str>,
}

/// What a call site invokes.
pub(crate) enum Callee {
    Builtin(Builtin),
    /// A user function, by symbol index (late-bound, so a unit added
    /// later can still define it).
    User(usize),
    /// An `isum_*` accumulator call on `&var`; the call's arguments are
    /// the ones after `&var`.
    Acc(AccFn, Var),
    /// A call that can only fail. Raised after the arguments are
    /// evaluated, so a failure that must precede them resolves with none.
    Error(RtError),
}

pub(crate) enum RExpr {
    Int(i64),
    Float(f64),
    Var(Var),
    Unary(UnOp, Box<RExpr>),
    PostIncDec(Box<RExpr>, bool),
    /// Operator, operands and the profiling site of interval
    /// arithmetic (`+ - * /`).
    Binary(BinOp, Box<RExpr>, Box<RExpr>, Option<usize>),
    /// Compound operator (`None` for plain `=`), target, value, site.
    Assign(Option<BinOp>, Box<RExpr>, Box<RExpr>, Option<usize>),
    /// Callee, arguments and, for `ia_*` callees, the profiling site.
    Call(Callee, Vec<RExpr>, Option<usize>),
    Index(Box<RExpr>, Box<RExpr>),
    Member(Box<RExpr>, String),
    Cast(Type, Box<RExpr>),
    Cond(Box<RExpr>, Box<RExpr>, Box<RExpr>),
}

/// Statements. `slots` is the frame range a scope declares (nested
/// scopes included), cleared when the scope exits.
pub(crate) enum RStmt {
    /// Slot, initializer and declared type.
    Decl(usize, Option<RExpr>, Type),
    Expr(RExpr),
    Block(Vec<RStmt>, Range<usize>),
    If(RExpr, Box<RStmt>, Option<Box<RStmt>>),
    /// Init, condition, step, body and the loop scope's slots.
    For(Option<Box<RStmt>>, Option<RExpr>, Option<RExpr>, Box<RStmt>, Range<usize>),
    While(RExpr, Box<RStmt>),
    DoWhile(Box<RStmt>, RExpr),
    Switch(RExpr, Vec<(Option<i64>, Vec<RStmt>)>, Range<usize>),
    Return(Option<RExpr>),
    Break,
    Continue,
    Empty,
}

/// A resolved function: parameters occupy slots `0..n_params`.
pub(crate) struct Function {
    pub name: String,
    pub n_params: usize,
    pub n_slots: usize,
    pub body: Vec<RStmt>,
}

/// The loaded program: user functions by symbol and the profiling
/// sites of every unit added so far.
#[derive(Default)]
pub(crate) struct Program {
    /// Symbol index → name and definition (`None` while undefined).
    pub symbols: Vec<(String, Option<Rc<Function>>)>,
    symbol_ids: HashMap<String, usize>,
    /// Site index → (location, operation mnemonic).
    pub sites: Vec<(Loc, String)>,
    site_ids: HashMap<(Loc, String), usize>,
}

impl Program {
    /// Resolves and adds every function definition of `tu`, replacing
    /// earlier definitions of the same name.
    pub fn add_unit(&mut self, tu: &TranslationUnit) {
        for f in tu.functions() {
            let mut r = Resolver { prog: self, bindings: Vec::new(), n_slots: 0 };
            for p in &f.params {
                r.declare(&p.name);
            }
            let body = r.block(f.body.as_deref().expect("definition")).0;
            let (name, n_params, n_slots) = (f.name.clone(), f.params.len(), r.n_slots);
            let id = self.symbol(&f.name);
            self.symbols[id].1 = Some(Rc::new(Function { name, n_params, n_slots, body }));
        }
    }

    /// The definition of `name`, if any.
    pub fn function(&self, name: &str) -> Option<&Rc<Function>> {
        self.symbol_ids.get(name).and_then(|&id| self.symbols[id].1.as_ref())
    }

    fn symbol(&mut self, name: &str) -> usize {
        let symbols = &mut self.symbols;
        *self.symbol_ids.entry(name.to_string()).or_insert_with(|| {
            symbols.push((name.to_string(), None));
            symbols.len() - 1
        })
    }

    fn site(&mut self, loc: Loc, op: &str) -> usize {
        let sites = &mut self.sites;
        *self.site_ids.entry((loc, op.to_string())).or_insert_with_key(|key| {
            sites.push(key.clone());
            sites.len() - 1
        })
    }
}

struct Resolver<'a> {
    prog: &'a mut Program,
    /// Names in scope, innermost last (a redeclaration shadows).
    bindings: Vec<(Rc<str>, usize)>,
    n_slots: usize,
}

impl Resolver<'_> {
    fn declare(&mut self, name: &str) -> usize {
        let slot = self.n_slots;
        self.n_slots += 1;
        self.bindings.push((name.into(), slot));
        slot
    }

    fn var(&mut self, name: &str) -> Var {
        match self.bindings.iter().rev().find(|b| &*b.0 == name) {
            Some((n, slot)) => Var { slot: *slot, name: Rc::clone(n) },
            None => {
                self.n_slots += 1;
                Var { slot: self.n_slots - 1, name: name.into() }
            }
        }
    }

    /// Runs `f` in a new scope; returns its result and declared slots.
    fn scope<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Range<usize>) {
        let (mark, first) = (self.bindings.len(), self.n_slots);
        let out = f(self);
        self.bindings.truncate(mark);
        (out, first..self.n_slots)
    }

    fn block(&mut self, stmts: &[Stmt]) -> (Vec<RStmt>, Range<usize>) {
        self.scope(|r| stmts.iter().map(|s| r.stmt(s)).collect())
    }

    fn boxed(&mut self, s: &Stmt) -> Box<RStmt> {
        Box::new(self.stmt(s))
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Decl(d) => {
                // The initializer is resolved before the name is bound.
                let init = d.init.as_ref().map(|e| self.expr(e));
                RStmt::Decl(self.declare(&d.name), init, d.ty.clone())
            }
            Stmt::Expr(e) => RStmt::Expr(self.expr(e)),
            Stmt::Block(b) => {
                let (body, slots) = self.block(b);
                RStmt::Block(body, slots)
            }
            Stmt::If { cond, then_branch, else_branch } => RStmt::If(
                self.expr(cond),
                self.boxed(then_branch),
                else_branch.as_ref().map(|e| self.boxed(e)),
            ),
            Stmt::For { init, cond, step, body } => {
                let ((init, cond, step, body), slots) = self.scope(|r| {
                    let init = init.as_ref().map(|i| r.boxed(i));
                    let cond = cond.as_ref().map(|c| r.expr(c));
                    let step = step.as_ref().map(|s| r.expr(s));
                    (init, cond, step, r.boxed(body))
                });
                RStmt::For(init, cond, step, body, slots)
            }
            Stmt::While { cond, body } => RStmt::While(self.expr(cond), self.boxed(body)),
            Stmt::DoWhile { body, cond } => {
                let body = self.boxed(body);
                RStmt::DoWhile(body, self.expr(cond))
            }
            Stmt::Switch { cond, arms } => {
                let cond = self.expr(cond);
                let (arms, slots) = self.scope(|r| {
                    arms.iter()
                        .map(|a| (a.label, a.body.iter().map(|s| r.stmt(s)).collect()))
                        .collect()
                });
                RStmt::Switch(cond, arms, slots)
            }
            Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::Break => RStmt::Break,
            Stmt::Continue => RStmt::Continue,
            Stmt::Pragma(_) | Stmt::Empty => RStmt::Empty,
        }
    }

    fn sub(&mut self, e: &Expr) -> Box<RExpr> {
        Box::new(self.expr(e))
    }

    /// Profiling site of interval arithmetic through a C operator.
    fn arith_site(&mut self, op: BinOp, loc: Loc) -> Option<usize> {
        let name = match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            _ => return None,
        };
        Some(self.prog.site(loc, name))
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::IntLit { value, .. } => RExpr::Int(*value),
            Expr::FloatLit { value, .. } => RExpr::Float(*value),
            Expr::Ident(name, _) => RExpr::Var(self.var(name)),
            Expr::Unary(op, inner) => RExpr::Unary(*op, self.sub(inner)),
            Expr::PostIncDec(inner, inc) => RExpr::PostIncDec(self.sub(inner), *inc),
            Expr::Binary { op, lhs, rhs, loc } => {
                RExpr::Binary(*op, self.sub(lhs), self.sub(rhs), self.arith_site(*op, *loc))
            }
            Expr::Assign { op, lhs, rhs, loc } => {
                let site = op.bin_op().and_then(|b| self.arith_site(b, *loc));
                RExpr::Assign(op.bin_op(), self.sub(lhs), self.sub(rhs), site)
            }
            Expr::Call { name, args, loc } => self.call(name, args, *loc),
            Expr::Index(base, idx) => RExpr::Index(self.sub(base), self.sub(idx)),
            Expr::Member { base, field, .. } => RExpr::Member(self.sub(base), field.clone()),
            Expr::Cast(ty, inner) => RExpr::Cast(ty.clone(), self.sub(inner)),
            Expr::Cond(c, t, f) => RExpr::Cond(self.sub(c), self.sub(t), self.sub(f)),
        }
    }

    /// Binds a call site: accumulator calls first (their first argument
    /// is taken by address), then builtins, then user functions.
    fn call(&mut self, name: &str, args: &[Expr], loc: Loc) -> RExpr {
        if name.starts_with("isum_") {
            let target = match args.first() {
                Some(Expr::Unary(UnOp::Addr, inner)) => match &**inner {
                    Expr::Ident(n, _) => Some(n),
                    _ => None,
                },
                _ => None,
            };
            let callee = match (target, builtins::lookup_acc(name)) {
                (None, _) => Callee::Error(RtError::Type("isum_* expects &accumulator".into())),
                (Some(_), None) => {
                    Callee::Error(RtError::Missing(format!("accumulator function {name}")))
                }
                (Some(n), Some(f)) => Callee::Acc(f, self.var(n)),
            };
            let args = match callee {
                Callee::Acc(..) => args[1..].iter().map(|a| self.expr(a)).collect(),
                _ => Vec::new(),
            };
            return RExpr::Call(callee, args, None);
        }
        let args = args.iter().map(|a| self.expr(a)).collect();
        // In a transformed unit the `ia_*` calls ARE the interval
        // operations, carrying the location of the expression they
        // replaced.
        let site = name.starts_with("ia_").then(|| self.prog.site(loc, ia_mnemonic(name)));
        let callee = match builtins::lookup(name) {
            Some(Ok(f)) => Callee::Builtin(f),
            Some(Err(e)) => Callee::Error(e),
            None => Callee::User(self.prog.symbol(name)),
        };
        RExpr::Call(callee, args, site)
    }
}

/// Mnemonic for an `ia_*` builtin: the `ia_` prefix and precision
/// suffix stripped, so interpreter profile rows line up with the VM's
/// instruction names (`ia_mul_f64` and the `mul` bytecode both say
/// `mul`).
fn ia_mnemonic(name: &str) -> &str {
    let s = name.strip_prefix("ia_").unwrap_or(name);
    s.strip_suffix("_f64")
        .or_else(|| s.strip_suffix("_f32"))
        .or_else(|| s.strip_suffix("_dd"))
        .unwrap_or(s)
}
