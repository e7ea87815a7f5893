//! Lowering: optimized `IrFunction` → register bytecode, by tracing.
//!
//! The pass is an abstract interpreter over the IR: integer values and
//! control flow (loop counters, index math, branches on integer
//! conditions) are evaluated *concretely* at lowering time — loops
//! unroll, indices resolve — while every interval operation emits one
//! [`Insn`] into the instruction stream against a fresh virtual
//! register. Copies (`x = y`, argument shuffles through temporaries)
//! become register aliases and cost nothing at run time; constants are
//! deduplicated by bit pattern and materialized once.
//!
//! The traced subset is exactly the code the interval compiler emits
//! for straight-line numerics over arrays: `ia_{add,sub,mul,div,neg,
//! sqrt,abs,sqr,min,max,pow,set,set_int,set_ddx,set_dd}`. Everything
//! whose control flow depends on *interval* values (tri-state branch
//! conversion), whose semantics need runtime state (accumulators,
//! tolerances on runtime values), or that has no packed kernel
//! contract yet (transcendentals, floor/ceil, join) is rejected with a
//! precise [`LowerError`] — soundness is never traded for coverage,
//! and the differential interpreter remains the fallback for rejected
//! functions.

use crate::bytecode::{DebugMap, Insn, OutputSlot, PoolConst, Precision, Program, SrcLoc};
use igen_cfront::{AssignOp, BinOp, Loc, Type, UnOp};
use igen_dd::Dd;
use igen_interval::{DdI, SweepOp, F64I};
use igen_ir::{IrExpr, IrFunction, IrStmt, OpKind, Sfx};
use std::collections::HashMap;

/// Default abstract-interpretation step budget (same order as the
/// reference interpreter's: protects against runaway loop bounds).
pub const DEFAULT_STEP_BUDGET: u64 = 50_000_000;

/// Hard cap on emitted instructions: bounds both the program and the
/// per-worker register file (`n_regs` tracks `insns` closely, and the
/// packed register file costs 64 bytes per register).
pub const MAX_INSNS: usize = 1 << 18;

/// How one function parameter is bound when compiling to bytecode.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgBind {
    /// A scalar interval parameter: one program input per item.
    Ival,
    /// An integer parameter fixed at compile time (loop bounds, sizes).
    Int(i64),
    /// An interval array parameter read per item: `len` program inputs.
    In(usize),
    /// An interval array parameter written per item: `len` program
    /// outputs, no inputs (reading an unwritten cell is an error).
    Out(usize),
    /// An interval array parameter read and written per item: `len`
    /// inputs *and* `len` outputs.
    InOut(usize),
    /// An interval array shared by every item, baked into the constant
    /// pool as `[lo, hi]` pairs (weight matrices, shared operands).
    Uniform(Vec<(f64, f64)>),
}

/// Bindings for every parameter of the function, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BindSpec {
    /// One binding per parameter.
    pub args: Vec<ArgBind>,
}

impl BindSpec {
    /// A binding list in parameter order.
    pub fn new(args: Vec<ArgBind>) -> BindSpec {
        BindSpec { args }
    }
}

/// Why a function cannot be compiled to bytecode.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// An interval opcode outside the traced subset.
    UnsupportedOp(String),
    /// A statement or expression form outside the traced subset.
    Unsupported(String),
    /// `f32` precision (no packed `f32` kernel contract).
    Precision(String),
    /// `ia_pow` exponent that is not a compile-time integer.
    NonConstExponent,
    /// Control flow depends on an interval value.
    IntervalBranch,
    /// A read of a variable or array cell that was never written.
    UninitRead(String),
    /// Array access outside the bound length.
    OutOfBounds {
        /// Array (parameter or local) name.
        array: String,
        /// Offending index.
        index: i64,
        /// Bound length.
        len: usize,
    },
    /// Parameter/binding mismatch.
    BadBinding(String),
    /// The function has no body.
    NoBody,
    /// Abstract-interpretation step budget exhausted.
    Budget,
    /// The program exceeds [`MAX_INSNS`].
    TooLarge(usize),
    /// The bindings hold more interval cells than [`MAX_INSNS`].
    TooManyCells(usize),
    /// Integer evaluation error (division by zero, bad shift).
    IntEval(String),
}

impl core::fmt::Display for LowerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LowerError::UnsupportedOp(op) => write!(f, "unsupported interval op `{op}`"),
            LowerError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            LowerError::Precision(p) => write!(f, "unsupported precision `{p}`"),
            LowerError::NonConstExponent => {
                write!(f, "ia_pow exponent is not a compile-time integer")
            }
            LowerError::IntervalBranch => {
                write!(f, "control flow depends on an interval value (tri-state branch)")
            }
            LowerError::UninitRead(what) => write!(f, "read of uninitialized value `{what}`"),
            LowerError::OutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
            LowerError::BadBinding(msg) => write!(f, "binding mismatch: {msg}"),
            LowerError::NoBody => write!(f, "function has no body"),
            LowerError::Budget => write!(f, "lowering step budget exhausted"),
            LowerError::TooLarge(n) => {
                write!(f, "program too large: {n} instructions (max {MAX_INSNS})")
            }
            LowerError::TooManyCells(n) => {
                write!(f, "bindings too large: {n} interval cells (max {MAX_INSNS})")
            }
            LowerError::IntEval(msg) => write!(f, "integer evaluation: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Abstract value of an expression during the trace.
#[derive(Clone, Copy, Debug)]
enum Av {
    /// A concrete integer.
    Int(i64),
    /// An interval held in a register.
    Iv(u32),
    /// A pointer into array `arr` at element offset `off`.
    Ptr { arr: usize, off: i64 },
    /// A declared-but-unassigned variable.
    Uninit,
    /// Statement value / void return.
    Void,
}

/// One interval array during the trace: per-cell registers, lazily
/// materialized uniform constants, and whether the final cells are
/// harvested as program outputs.
struct ArrObj {
    name: String,
    cells: Vec<Option<u32>>,
    uniform: Option<Vec<(f64, f64)>>,
    harvest: bool,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Av),
}

struct Lowerer {
    precision: Precision,
    sfx: Sfx,
    insns: Vec<Insn>,
    /// One source site per emitted instruction, kept in lock-step with
    /// `insns` so the [`DebugMap`] side-table stays parallel.
    sites: Vec<SrcLoc>,
    consts: Vec<PoolConst>,
    pool_idx: HashMap<[u64; 4], u32>,
    const_reg: HashMap<[u64; 4], u32>,
    next_reg: u32,
    arrays: Vec<ArrObj>,
    scopes: Vec<HashMap<String, Av>>,
    temps: HashMap<u32, Av>,
    steps: u64,
}

/// Lowers `f` (already optimized and renumbered) into bytecode under
/// the given parameter bindings.
pub fn lower(f: &IrFunction, bind: &BindSpec) -> Result<Program, LowerError> {
    let precision = detect_precision(f)?;
    let mut lw = Lowerer {
        precision,
        sfx: match precision {
            Precision::F64 => Sfx::F64,
            Precision::Dd => Sfx::Dd,
        },
        insns: Vec::new(),
        sites: Vec::new(),
        consts: Vec::new(),
        pool_idx: HashMap::new(),
        const_reg: HashMap::new(),
        next_reg: 0,
        arrays: Vec::new(),
        scopes: vec![HashMap::new()],
        temps: HashMap::new(),
        steps: 0,
    };

    if bind.args.len() != f.params.len() {
        return Err(LowerError::BadBinding(format!(
            "function `{}` has {} parameters, got {} bindings",
            f.name,
            f.params.len(),
            bind.args.len()
        )));
    }

    // Each interval cell of the bindings costs a register, a label or a
    // slot before any instruction is emitted, so the instruction cap
    // bounds the cells too, before any of them is allocated.
    let cells = bind.args.iter().fold(0usize, |n, b| {
        n.saturating_add(match b {
            ArgBind::Ival => 1,
            ArgBind::Int(_) => 0,
            ArgBind::In(len) | ArgBind::Out(len) | ArgBind::InOut(len) => *len,
            ArgBind::Uniform(pairs) => pairs.len(),
        })
    });
    if cells > MAX_INSNS {
        return Err(LowerError::TooManyCells(cells));
    }

    // Bind parameters: interval scalars and in/inout array cells become
    // input registers 0..n_inputs in parameter order.
    let mut inputs = Vec::new();
    for (p, b) in f.params.iter().zip(&bind.args) {
        let scalar_ival = is_interval_named(&p.ty, precision);
        let ptr_ival = matches!(&p.ty, Type::Ptr(inner) | Type::Array(inner, _)
            if is_interval_named(inner, precision));
        match b {
            ArgBind::Ival => {
                if !scalar_ival {
                    return Err(bad_bind(&p.name, "interval scalar", &p.ty));
                }
                let r = lw.next_reg;
                lw.next_reg += 1;
                inputs.push(p.name.clone());
                lw.scopes[0].insert(p.name.clone(), Av::Iv(r));
            }
            ArgBind::Int(v) => {
                if !is_int_type(&p.ty) {
                    return Err(bad_bind(&p.name, "integer", &p.ty));
                }
                lw.scopes[0].insert(p.name.clone(), Av::Int(*v));
            }
            ArgBind::In(len) | ArgBind::InOut(len) => {
                if !ptr_ival {
                    return Err(bad_bind(&p.name, "interval array", &p.ty));
                }
                let harvest = matches!(b, ArgBind::InOut(_));
                let mut cells = Vec::with_capacity(*len);
                for i in 0..*len {
                    let r = lw.next_reg;
                    lw.next_reg += 1;
                    inputs.push(format!("{}[{i}]", p.name));
                    cells.push(Some(r));
                }
                let arr = lw.arrays.len();
                lw.arrays.push(ArrObj { name: p.name.clone(), cells, uniform: None, harvest });
                lw.scopes[0].insert(p.name.clone(), Av::Ptr { arr, off: 0 });
            }
            ArgBind::Out(len) => {
                if !ptr_ival {
                    return Err(bad_bind(&p.name, "interval array", &p.ty));
                }
                let arr = lw.arrays.len();
                lw.arrays.push(ArrObj {
                    name: p.name.clone(),
                    cells: vec![None; *len],
                    uniform: None,
                    harvest: true,
                });
                lw.scopes[0].insert(p.name.clone(), Av::Ptr { arr, off: 0 });
            }
            ArgBind::Uniform(pairs) => {
                if !ptr_ival {
                    return Err(bad_bind(&p.name, "interval array", &p.ty));
                }
                let arr = lw.arrays.len();
                lw.arrays.push(ArrObj {
                    name: p.name.clone(),
                    cells: vec![None; pairs.len()],
                    uniform: Some(pairs.clone()),
                    harvest: false,
                });
                lw.scopes[0].insert(p.name.clone(), Av::Ptr { arr, off: 0 });
            }
        }
    }
    let n_inputs = lw.next_reg;

    // Trace the body.
    let body = f.body.as_ref().ok_or(LowerError::NoBody)?;
    let mut ret = Av::Void;
    for s in body {
        match lw.exec_stmt(s)? {
            Flow::Normal => {}
            Flow::Return(v) => {
                ret = v;
                break;
            }
            Flow::Break | Flow::Continue => {
                return Err(LowerError::Unsupported("break/continue outside a loop".into()))
            }
        }
    }

    // Harvest outputs: function return first, then out/inout cells in
    // parameter order.
    let mut outputs = Vec::new();
    if is_interval_named(&f.ret, precision) {
        let reg = match ret {
            Av::Iv(r) => r,
            _ => return Err(LowerError::UninitRead("return value".into())),
        };
        outputs.push(OutputSlot { label: "return".into(), reg });
    } else if !matches!(f.ret, Type::Void) {
        return Err(LowerError::Unsupported(format!("return type `{:?}`", f.ret)));
    }
    for a in &lw.arrays {
        if !a.harvest {
            continue;
        }
        for (i, cell) in a.cells.iter().enumerate() {
            match cell {
                Some(r) => outputs.push(OutputSlot { label: format!("{}[{i}]", a.name), reg: *r }),
                None => return Err(LowerError::UninitRead(format!("{}[{i}]", a.name))),
            }
        }
    }
    if outputs.is_empty() {
        return Err(LowerError::Unsupported("function computes no interval outputs".into()));
    }

    let prog = Program {
        name: f.name.clone(),
        precision,
        n_inputs,
        n_regs: lw.next_reg,
        consts: lw.consts,
        insns: lw.insns,
        inputs,
        outputs,
        debug: DebugMap { sites: lw.sites },
    };
    debug_assert_eq!(prog.validate_ssa(), Ok(()));
    Ok(prog)
}

fn site(loc: Loc) -> SrcLoc {
    SrcLoc { line: loc.line, col: loc.col }
}

/// Best-effort source site for an expression form that does not carry
/// its own location (unary minus, casts): walk inward until a located
/// node is found.
fn expr_site(e: &IrExpr) -> SrcLoc {
    match e {
        IrExpr::Op { loc, .. }
        | IrExpr::Call { loc, .. }
        | IrExpr::Binary { loc, .. }
        | IrExpr::Assign { loc, .. }
        | IrExpr::Var(_, loc) => site(*loc),
        IrExpr::Unary(_, inner) | IrExpr::PostIncDec(inner, _) | IrExpr::Cast(_, inner) => {
            expr_site(inner)
        }
        IrExpr::Index(base, _) => expr_site(base),
        _ => SrcLoc::default(),
    }
}

/// A non-short-circuit C binary operator on concrete integers, as the
/// reference interpreter evaluates it: two's-complement wrapping, and
/// `>>` a logical shift of the bit pattern.
fn int_binop(op: BinOp, a: i64, b: i64) -> Result<i64, LowerError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(LowerError::IntEval("division by zero".into()));
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(LowerError::IntEval("remainder by zero".into()));
            }
            a.wrapping_rem(b)
        }
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => (a as u64).wrapping_shr(b as u32) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::And | BinOp::Or => unreachable!("short-circuited by the caller"),
    })
}

fn bad_bind(name: &str, want: &str, got: &Type) -> LowerError {
    LowerError::BadBinding(format!("parameter `{name}`: binding expects {want}, type is {got:?}"))
}

fn is_int_type(ty: &Type) -> bool {
    matches!(ty, Type::Int | Type::UInt | Type::Long | Type::ULong)
}

fn is_interval_named(ty: &Type, p: Precision) -> bool {
    match ty {
        Type::Named(n) => match p {
            Precision::F64 => n == "f64i",
            Precision::Dd => n == "ddi",
        },
        _ => false,
    }
}

/// Scans parameter and return types for the interval precision; the
/// compiled unit is single-precision, so mixing is impossible, but
/// `f32i` is rejected here.
fn detect_precision(f: &IrFunction) -> Result<Precision, LowerError> {
    let mut found = None;
    let mut visit = |ty: &Type| -> Result<(), LowerError> {
        let name = match ty {
            Type::Named(n) => n.as_str(),
            Type::Ptr(inner) | Type::Array(inner, _) => match inner.as_ref() {
                Type::Named(n) => n.as_str(),
                _ => return Ok(()),
            },
            _ => return Ok(()),
        };
        let p = match name {
            "f64i" => Precision::F64,
            "ddi" => Precision::Dd,
            "f32i" => return Err(LowerError::Precision("f32".into())),
            _ => return Ok(()),
        };
        match found {
            None => found = Some(p),
            Some(prev) if prev == p => {}
            Some(_) => return Err(LowerError::Unsupported("mixed interval precisions".into())),
        }
        Ok(())
    };
    for p in &f.params {
        visit(&p.ty)?;
    }
    visit(&f.ret)?;
    found.ok_or_else(|| LowerError::Unsupported("no interval parameters or return".into()))
}

impl Lowerer {
    fn step(&mut self) -> Result<(), LowerError> {
        self.steps += 1;
        if self.steps > DEFAULT_STEP_BUDGET {
            return Err(LowerError::Budget);
        }
        Ok(())
    }

    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, insn: Insn, loc: SrcLoc) -> Result<u32, LowerError> {
        if self.insns.len() >= MAX_INSNS {
            return Err(LowerError::TooLarge(self.insns.len() + 1));
        }
        let dst = insn.dst();
        self.insns.push(insn);
        self.sites.push(loc);
        Ok(dst)
    }

    /// Emits `op` over the source registers `srcs` into a fresh register.
    fn emit_op(&mut self, op: SweepOp, srcs: &[u32], loc: SrcLoc) -> Result<Av, LowerError> {
        let dst = self.fresh();
        self.emit(Insn::op(op, dst, srcs), loc)?;
        Ok(Av::Iv(dst))
    }

    /// Materializes a pooled constant into a register, deduplicating
    /// both the pool entry and the `Const` instruction by bit pattern.
    /// A deduplicated constant keeps the site of its *first* use.
    fn konst(&mut self, c: PoolConst, loc: SrcLoc) -> Result<u32, LowerError> {
        let bits = c.bits();
        if let Some(&r) = self.const_reg.get(&bits) {
            return Ok(r);
        }
        let idx = match self.pool_idx.get(&bits) {
            Some(&i) => i,
            None => {
                let i = self.consts.len() as u32;
                self.consts.push(c);
                self.pool_idx.insert(bits, i);
                i
            }
        };
        let dst = self.fresh();
        self.emit(Insn::Const { dst, idx }, loc)?;
        self.const_reg.insert(bits, dst);
        Ok(dst)
    }

    fn f64i_const(&mut self, v: &F64I, loc: SrcLoc) -> Result<u32, LowerError> {
        self.konst(PoolConst::f64_pair(v.lo(), v.hi()), loc)
    }

    fn ddi_const(&mut self, v: &DdI, loc: SrcLoc) -> Result<u32, LowerError> {
        let (lo, hi) = (v.lo(), v.hi());
        self.konst(
            PoolConst { lo_hi: lo.hi(), lo_lo: lo.lo(), hi_hi: hi.hi(), hi_lo: hi.lo() },
            loc,
        )
    }

    // --- variable environment -------------------------------------------

    fn lookup(&self, name: &str) -> Option<Av> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(*v);
            }
        }
        None
    }

    fn set_var(&mut self, name: &str, v: Av) -> Result<(), LowerError> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = v;
                return Ok(());
            }
        }
        Err(LowerError::UninitRead(format!("assignment to undeclared `{name}`")))
    }

    // --- array cells ----------------------------------------------------

    fn cell_index(&self, arr: usize, idx: i64) -> Result<usize, LowerError> {
        let a = &self.arrays[arr];
        if idx < 0 || idx as usize >= a.cells.len() {
            return Err(LowerError::OutOfBounds {
                array: a.name.clone(),
                index: idx,
                len: a.cells.len(),
            });
        }
        Ok(idx as usize)
    }

    fn read_cell(&mut self, arr: usize, idx: i64) -> Result<u32, LowerError> {
        let i = self.cell_index(arr, idx)?;
        if let Some(r) = self.arrays[arr].cells[i] {
            return Ok(r);
        }
        if let Some(pairs) = &self.arrays[arr].uniform {
            let (lo, hi) = pairs[i];
            let v = F64I::new(lo, hi).map_err(|_| {
                let name = &self.arrays[arr].name;
                LowerError::BadBinding(format!("uniform cell {name}[{i}] is [{lo}, {hi}]"))
            })?;
            // Uniform cells have no single source expression; their
            // `Const` carries an unknown site.
            let r = match self.precision {
                Precision::F64 => self.f64i_const(&v, SrcLoc::default())?,
                // Uniform pairs promote exactly like the interp
                // reference: a full-width f64 interval.
                Precision::Dd => self.ddi_const(&DdI::from_f64i(&v), SrcLoc::default())?,
            };
            self.arrays[arr].cells[i] = Some(r);
            return Ok(r);
        }
        let name = self.arrays[arr].name.clone();
        Err(LowerError::UninitRead(format!("{name}[{i}]")))
    }

    fn write_cell(&mut self, arr: usize, idx: i64, reg: u32) -> Result<(), LowerError> {
        let i = self.cell_index(arr, idx)?;
        self.arrays[arr].cells[i] = Some(reg);
        Ok(())
    }

    // --- expression evaluation ------------------------------------------

    fn want_iv(&self, v: Av, what: &str) -> Result<u32, LowerError> {
        match v {
            Av::Iv(r) => Ok(r),
            Av::Uninit => Err(LowerError::UninitRead(what.into())),
            other => Err(LowerError::Unsupported(format!(
                "expected an interval value for {what}, got {other:?}"
            ))),
        }
    }

    fn want_int(&self, v: Av, what: &str) -> Result<i64, LowerError> {
        match v {
            Av::Int(i) => Ok(i),
            Av::Uninit => Err(LowerError::UninitRead(what.into())),
            Av::Iv(_) => Err(LowerError::IntervalBranch),
            other => Err(LowerError::Unsupported(format!(
                "expected an integer value for {what}, got {other:?}"
            ))),
        }
    }

    fn eval(&mut self, e: &IrExpr) -> Result<Av, LowerError> {
        self.step()?;
        match e {
            IrExpr::Int { value, .. } => Ok(Av::Int(*value)),
            IrExpr::Float { .. } => {
                Err(LowerError::Unsupported("bare float literal outside a set op".into()))
            }
            IrExpr::Var(name, _) => {
                self.lookup(name).ok_or_else(|| LowerError::UninitRead(name.clone()))
            }
            IrExpr::Temp(n) => {
                self.temps.get(n).copied().ok_or_else(|| LowerError::UninitRead(format!("t{n}")))
            }
            IrExpr::Op { op, sfx, args, loc } => self.eval_op(op.clone(), *sfx, args, site(*loc)),
            IrExpr::Call { name, .. } => Err(LowerError::Unsupported(format!("call to `{name}`"))),
            IrExpr::Unary(op, inner) => self.eval_unary(*op, inner),
            IrExpr::PostIncDec(target, inc) => {
                let old = self.eval(target)?;
                let v = self.want_int(old, "++/-- target")?;
                let new = if *inc { v.wrapping_add(1) } else { v.wrapping_sub(1) };
                self.store(target, Av::Int(new))?;
                Ok(Av::Int(v))
            }
            IrExpr::Binary { op, lhs, rhs, .. } => self.eval_binary(*op, lhs, rhs),
            IrExpr::Assign { op, lhs, rhs, loc } => self.eval_assign(*op, lhs, rhs, site(*loc)),
            IrExpr::Index(base, idx) => {
                let b = self.eval(base)?;
                let (arr, off) = match b {
                    Av::Ptr { arr, off } => (arr, off),
                    _ => return Err(LowerError::Unsupported("index into non-array".into())),
                };
                let i = {
                    let v = self.eval(idx)?;
                    self.want_int(v, "array index")?
                };
                let r = self.read_cell(arr, off + i)?;
                Ok(Av::Iv(r))
            }
            IrExpr::Member { .. } => Err(LowerError::Unsupported("member access".into())),
            IrExpr::Cast(ty, inner) => {
                let v = self.eval(inner)?;
                match (ty, v) {
                    // Int-family casts keep the concrete value (the
                    // interpreter models ints as i64 too).
                    (t, Av::Int(i)) if is_int_type(t) => Ok(Av::Int(i)),
                    // Casts on interval values are representation no-ops.
                    (_, Av::Iv(r)) => Ok(Av::Iv(r)),
                    (_, Av::Ptr { arr, off }) => Ok(Av::Ptr { arr, off }),
                    _ => Err(LowerError::Unsupported(format!("cast to {ty:?}"))),
                }
            }
            IrExpr::Cond(c, t, f) => {
                let cv = self.eval(c)?;
                if self.want_int(cv, "?: condition")? != 0 {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
        }
    }

    fn float_arg(&self, e: &IrExpr) -> Result<f64, LowerError> {
        match e {
            IrExpr::Float { value, .. } => Ok(*value),
            IrExpr::Int { value, .. } => Ok(*value as f64),
            IrExpr::Unary(UnOp::Neg, inner) => Ok(-self.float_arg(inner)?),
            _ => Err(LowerError::Unsupported("non-literal argument to a set op".into())),
        }
    }

    fn eval_op(
        &mut self,
        op: OpKind,
        sfx: Sfx,
        args: &[IrExpr],
        loc: SrcLoc,
    ) -> Result<Av, LowerError> {
        use OpKind::*;
        // Pure arithmetic must carry the program's precision; the
        // constructor opcodes are checked structurally below.
        match op {
            Add | Sub | Mul | Div | Neg | Sqr | Pow | Sqrt | Abs | Min | Max if sfx != self.sfx => {
                return Err(LowerError::Precision(format!("{sfx:?}")));
            }
            _ => {}
        }
        match op {
            Add => self.arith(SweepOp::Add, args, loc),
            Sub => self.arith(SweepOp::Sub, args, loc),
            Mul => self.arith(SweepOp::Mul, args, loc),
            Div => self.arith(SweepOp::Div, args, loc),
            Min => self.arith(SweepOp::Min, args, loc),
            Max => self.arith(SweepOp::Max, args, loc),
            Neg => self.arith(SweepOp::Neg, args, loc),
            Sqrt => self.arith(SweepOp::Sqrt, args, loc),
            Abs => self.arith(SweepOp::Abs, args, loc),
            Sqr => self.arith(SweepOp::Sqr, args, loc),
            Pow => {
                let a = {
                    let v = self.eval(&args[0])?;
                    self.want_iv(v, "pow base")?
                };
                let n = match self.eval(&args[1]) {
                    Ok(Av::Int(n)) => n,
                    _ => return Err(LowerError::NonConstExponent),
                };
                // Same clamp as the ia_pow_* builtins.
                let n = n.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                self.emit_op(SweepOp::Pow(n), &[a], loc)
            }
            Set => {
                if args.len() != 2 {
                    return Err(LowerError::Unsupported("set with wrong arity".into()));
                }
                let lo = self.float_arg(&args[0])?;
                let hi = self.float_arg(&args[1])?;
                let inverted = |_| LowerError::Unsupported(format!("inverted set [{lo}, {hi}]"));
                let r = match self.precision {
                    Precision::F64 => {
                        let v = F64I::new(lo, hi).map_err(inverted)?;
                        self.f64i_const(&v, loc)?
                    }
                    Precision::Dd => {
                        let v = DdI::new(Dd::from(lo), Dd::from(hi)).map_err(inverted)?;
                        self.ddi_const(&v, loc)?
                    }
                };
                Ok(Av::Iv(r))
            }
            SetDdx => {
                if self.precision != Precision::Dd || args.len() != 4 {
                    return Err(LowerError::Unsupported("set_ddx outside a dd program".into()));
                }
                let lo_hi = self.float_arg(&args[0])?;
                let lo_lo = self.float_arg(&args[1])?;
                let hi_hi = self.float_arg(&args[2])?;
                let hi_lo = self.float_arg(&args[3])?;
                let v = DdI::new(Dd::new(lo_hi, lo_lo), Dd::new(hi_hi, hi_lo)).map_err(|_| {
                    LowerError::Unsupported(format!("inverted set_ddx [{lo_hi}, {hi_hi}]"))
                })?;
                let r = self.ddi_const(&v, loc)?;
                Ok(Av::Iv(r))
            }
            SetInt => {
                let n = {
                    let v = self.eval(&args[0])?;
                    self.want_int(v, "set_int argument")?
                };
                let v = F64I::from_i64(n);
                let r = match self.precision {
                    Precision::F64 => self.f64i_const(&v, loc)?,
                    Precision::Dd => self.ddi_const(&DdI::from_f64i(&v), loc)?,
                };
                Ok(Av::Iv(r))
            }
            other => Err(LowerError::UnsupportedOp(format!("{other:?}"))),
        }
    }

    /// Emits `op` over its evaluated interval operands `args`.
    fn arith(&mut self, op: SweepOp, args: &[IrExpr], loc: SrcLoc) -> Result<Av, LowerError> {
        let mut src = [0; 2];
        for (s, arg) in src.iter_mut().zip(&args[..op.arity()]) {
            let v = self.eval(arg)?;
            *s = self.want_iv(v, "operand")?;
        }
        self.emit_op(op, &src[..op.arity()], loc)
    }

    fn eval_unary(&mut self, op: UnOp, inner: &IrExpr) -> Result<Av, LowerError> {
        match op {
            UnOp::Deref => {
                let v = self.eval(inner)?;
                match v {
                    Av::Ptr { arr, off } => {
                        let r = self.read_cell(arr, off)?;
                        Ok(Av::Iv(r))
                    }
                    _ => Err(LowerError::Unsupported("deref of non-pointer".into())),
                }
            }
            UnOp::Addr => Err(LowerError::Unsupported("address-of".into())),
            UnOp::PreInc | UnOp::PreDec => {
                let old = self.eval(inner)?;
                let v = self.want_int(old, "++/-- target")?;
                let new = if op == UnOp::PreInc { v.wrapping_add(1) } else { v.wrapping_sub(1) };
                self.store(inner, Av::Int(new))?;
                Ok(Av::Int(new))
            }
            UnOp::Neg => {
                let v = self.eval(inner)?;
                match v {
                    Av::Int(i) => Ok(Av::Int(i.wrapping_neg())),
                    // Unary minus on intervals lowers to ia_neg before
                    // this pass, but stay permissive.
                    Av::Iv(r) => self.emit_op(SweepOp::Neg, &[r], expr_site(inner)),
                    _ => Err(LowerError::Unsupported("unary minus operand".into())),
                }
            }
            UnOp::Plus => self.eval(inner),
            UnOp::Not => {
                let v = self.eval(inner)?;
                let i = self.want_int(v, "! operand")?;
                Ok(Av::Int((i == 0) as i64))
            }
            UnOp::BitNot => {
                let v = self.eval(inner)?;
                let i = self.want_int(v, "~ operand")?;
                Ok(Av::Int(!i))
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &IrExpr, rhs: &IrExpr) -> Result<Av, LowerError> {
        // Short-circuit forms first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = {
                let v = self.eval(lhs)?;
                self.want_int(v, "logical operand")?
            };
            return match (op, l != 0) {
                (BinOp::And, false) => Ok(Av::Int(0)),
                (BinOp::Or, true) => Ok(Av::Int(1)),
                _ => {
                    let r = {
                        let v = self.eval(rhs)?;
                        self.want_int(v, "logical operand")?
                    };
                    Ok(Av::Int((r != 0) as i64))
                }
            };
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        // Pointer arithmetic.
        if let (Av::Ptr { arr, off }, Av::Int(i)) = (l, r) {
            return match op {
                BinOp::Add => Ok(Av::Ptr { arr, off: off + i }),
                BinOp::Sub => Ok(Av::Ptr { arr, off: off - i }),
                _ => Err(LowerError::Unsupported("pointer arithmetic".into())),
            };
        }
        if let (Av::Int(i), Av::Ptr { arr, off }) = (l, r) {
            if op == BinOp::Add {
                return Ok(Av::Ptr { arr, off: off + i });
            }
        }
        let a = self.want_int(l, "integer operand")?;
        let b = self.want_int(r, "integer operand")?;
        int_binop(op, a, b).map(Av::Int)
    }

    fn eval_assign(
        &mut self,
        op: AssignOp,
        lhs: &IrExpr,
        rhs: &IrExpr,
        loc: SrcLoc,
    ) -> Result<Av, LowerError> {
        let rv = self.eval(rhs)?;
        let stored = match op.bin_op() {
            None => rv,
            Some(bop) => {
                // Compound assignment: integer targets fold, interval
                // targets emit the operation.
                let old = self.eval(lhs)?;
                match (old, rv) {
                    (Av::Int(_), _) | (_, Av::Int(_)) => {
                        let a = self.want_int(old, "compound target")?;
                        let b = self.want_int(rv, "compound value")?;
                        Av::Int(int_binop(bop, a, b)?)
                    }
                    (Av::Iv(a), Av::Iv(b)) => {
                        let op = match bop {
                            BinOp::Add => SweepOp::Add,
                            BinOp::Sub => SweepOp::Sub,
                            BinOp::Mul => SweepOp::Mul,
                            BinOp::Div => SweepOp::Div,
                            _ => {
                                return Err(LowerError::Unsupported(
                                    "compound interval assignment".into(),
                                ))
                            }
                        };
                        self.emit_op(op, &[a, b], loc)?
                    }
                    _ => return Err(LowerError::Unsupported("compound assignment".into())),
                }
            }
        };
        self.store(lhs, stored)?;
        Ok(stored)
    }

    /// Stores `v` into an lvalue: variable, temporary, array cell, or
    /// pointer deref.
    fn store(&mut self, lhs: &IrExpr, v: Av) -> Result<(), LowerError> {
        match lhs {
            IrExpr::Var(name, _) => self.set_var(name, v),
            IrExpr::Temp(n) => {
                self.temps.insert(*n, v);
                Ok(())
            }
            IrExpr::Index(base, idx) => {
                let b = self.eval(base)?;
                let (arr, off) = match b {
                    Av::Ptr { arr, off } => (arr, off),
                    _ => return Err(LowerError::Unsupported("store into non-array".into())),
                };
                let i = {
                    let iv = self.eval(idx)?;
                    self.want_int(iv, "store index")?
                };
                match v {
                    Av::Iv(r) => self.write_cell(arr, off + i, r),
                    Av::Int(_) => Err(LowerError::Unsupported("integer array store".into())),
                    _ => Err(LowerError::UninitRead("stored value".into())),
                }
            }
            IrExpr::Unary(UnOp::Deref, inner) => {
                let b = self.eval(inner)?;
                match (b, v) {
                    (Av::Ptr { arr, off }, Av::Iv(r)) => self.write_cell(arr, off, r),
                    _ => Err(LowerError::Unsupported("deref store".into())),
                }
            }
            _ => Err(LowerError::Unsupported("unsupported lvalue".into())),
        }
    }

    // --- statements -----------------------------------------------------

    fn exec_stmt(&mut self, s: &IrStmt) -> Result<Flow, LowerError> {
        self.step()?;
        match s {
            IrStmt::Def { temp, init, .. } => {
                let v = self.eval(init)?;
                self.temps.insert(*temp, v);
                Ok(Flow::Normal)
            }
            IrStmt::Decl { ty, name, init } => {
                self.exec_decl(ty, name, init.as_ref())?;
                Ok(Flow::Normal)
            }
            IrStmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            IrStmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let mut flow = Flow::Normal;
                for st in stmts {
                    match self.exec_stmt(st)? {
                        Flow::Normal => {}
                        f => {
                            flow = f;
                            break;
                        }
                    }
                }
                self.scopes.pop();
                Ok(flow)
            }
            IrStmt::If { cond, then_branch, else_branch } => {
                let c = {
                    let v = self.eval(cond)?;
                    self.want_int(v, "if condition")?
                };
                if c != 0 {
                    self.exec_stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            IrStmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(i) = init {
                        match self.exec_stmt(i)? {
                            Flow::Normal => {}
                            _ => {
                                return Err(LowerError::Unsupported(
                                    "control flow in for-init".into(),
                                ))
                            }
                        }
                    }
                    loop {
                        self.step()?;
                        if let Some(c) = cond {
                            let v = self.eval(c)?;
                            if self.want_int(v, "for condition")? == 0 {
                                break;
                            }
                        }
                        match self.exec_stmt(body)? {
                            Flow::Normal | Flow::Continue => {}
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                        }
                        if let Some(st) = step {
                            self.eval(st)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.scopes.pop();
                result
            }
            IrStmt::While { cond, body } => loop {
                self.step()?;
                let v = self.eval(cond)?;
                if self.want_int(v, "while condition")? == 0 {
                    return Ok(Flow::Normal);
                }
                match self.exec_stmt(body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
            },
            IrStmt::DoWhile { body, cond } => loop {
                self.step()?;
                match self.exec_stmt(body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
                let v = self.eval(cond)?;
                if self.want_int(v, "do-while condition")? == 0 {
                    return Ok(Flow::Normal);
                }
            },
            IrStmt::Switch { cond, arms } => {
                let v = {
                    let c = self.eval(cond)?;
                    self.want_int(c, "switch condition")?
                };
                let start = arms
                    .iter()
                    .position(|a| a.label == Some(v))
                    .or_else(|| arms.iter().position(|a| a.label.is_none()));
                let Some(start) = start else { return Ok(Flow::Normal) };
                for arm in &arms[start..] {
                    for st in &arm.body {
                        match self.exec_stmt(st)? {
                            Flow::Normal => {}
                            Flow::Break => return Ok(Flow::Normal),
                            f => return Ok(f),
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            IrStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Av::Void,
                };
                Ok(Flow::Return(v))
            }
            IrStmt::Break => Ok(Flow::Break),
            IrStmt::Continue => Ok(Flow::Continue),
            IrStmt::Pragma(_) | IrStmt::Empty => Ok(Flow::Normal),
        }
    }

    fn exec_decl(
        &mut self,
        ty: &Type,
        name: &str,
        init: Option<&IrExpr>,
    ) -> Result<(), LowerError> {
        let v = match ty {
            Type::Array(elem, len) if is_interval_named(elem, self.precision) => {
                if init.is_some() {
                    return Err(LowerError::Unsupported("array initializer".into()));
                }
                let Some(len) = len else {
                    return Err(LowerError::Unsupported("unsized local array".into()));
                };
                let arr = self.arrays.len();
                self.arrays.push(ArrObj {
                    name: name.to_string(),
                    cells: vec![None; *len],
                    uniform: None,
                    harvest: false,
                });
                Av::Ptr { arr, off: 0 }
            }
            t if is_int_type(t) || is_interval_named(t, self.precision) => match init {
                Some(e) => self.eval(e)?,
                None => Av::Uninit,
            },
            other => return Err(LowerError::Unsupported(format!("declaration of type {other:?}"))),
        };
        self.scopes.last_mut().expect("scope stack never empty").insert(name.to_string(), v);
        Ok(())
    }
}
