//! The evaluator over the resolved form (see [`crate::resolve`]):
//! statement execution, expression evaluation, lvalues, the heap and
//! the call machinery. It has no profiling hooks: width provenance is
//! recorded by the VM's profiler, so an interval operation here costs
//! no more than the operation itself.

use crate::builtins;
use crate::resolve::{Callee, Function, Program, RExpr, RStmt, Var};
use crate::value::Value;
use igen_cfront::{BinOp, TranslationUnit, Type, UnOp};
use igen_interval::{DdI, SumAcc64, SumAccDd, TBool, F64I};
use std::ops::Range;
use std::rc::Rc;

/// Runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// The paper's default policy for undecidable branches: an exception
    /// is signalled (Fig. 2 "It may signal exception").
    UnknownBranch,
    /// Type confusion or unsupported operation.
    Type(String),
    /// Unknown function or variable.
    Missing(String),
    /// Out-of-bounds heap access.
    Bounds(String),
    /// The configured step budget was exhausted (runaway loop guard).
    StepBudget,
}

impl core::fmt::Display for RtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RtError::UnknownBranch => {
                write!(f, "interval branch condition is unknown (exception signalled)")
            }
            RtError::Type(m) => write!(f, "type error: {m}"),
            RtError::Missing(m) => write!(f, "unknown symbol: {m}"),
            RtError::Bounds(m) => write!(f, "out-of-bounds access: {m}"),
            RtError::StepBudget => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for RtError {}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Resolved assignment target.
enum Place<'a> {
    Var(&'a Var),
    Heap(usize, i64),
    /// Union lane: the place holding a [`Value::Union`], lane index.
    UnionLane(Box<Place<'a>>, usize),
    /// Union bit view lane (reads/writes f64 lanes as integer bits).
    UnionBits(Box<Place<'a>>, usize),
    /// Whole union content from/to a vector value.
    UnionWhole(Box<Place<'a>>),
}

/// The interpreter: owns the resolved program, a heap of arrays,
/// accumulator stores and the frames of the active calls.
pub struct Interp {
    prog: Program,
    heap: Vec<Vec<Value>>,
    pub(crate) accs64: Vec<SumAcc64>,
    pub(crate) accsdd: Vec<SumAccDd>,
    /// Frames of the active calls, one slot per local of the callee;
    /// `None` until the local's declaration runs.
    stack: Vec<Option<Value>>,
    /// Where the running call's frame starts in `stack`.
    base: usize,
    /// Evaluated arguments of the calls under way.
    args: Vec<Value>,
    steps: u64,
    /// Maximum evaluation steps before aborting (defaults to 200M).
    pub step_budget: u64,
}

impl Interp {
    /// Builds an interpreter from a parsed translation unit, resolving
    /// every function definition once.
    pub fn new(tu: &TranslationUnit) -> Interp {
        let mut prog = Program::default();
        prog.add_unit(tu);
        Interp {
            prog,
            heap: Vec::new(),
            accs64: Vec::new(),
            accsdd: Vec::new(),
            stack: Vec::new(),
            base: 0,
            args: Vec::new(),
            steps: 0,
            step_budget: 200_000_000,
        }
    }

    /// Parses C source and builds an interpreter.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn from_source(src: &str) -> Result<Interp, igen_cfront::ParseError> {
        Ok(Interp::new(&igen_cfront::parse(src)?))
    }

    /// Merges additional functions (e.g. a transformed unit alongside the
    /// original under different names, or generated intrinsics).
    pub fn add_unit(&mut self, tu: &TranslationUnit) {
        self.prog.add_unit(tu);
    }

    /// Drops all heap arrays and accumulators and resets the step
    /// counter, keeping the loaded functions. Lets one interpreter be reused across many
    /// independent calls (e.g. per-item differential checks) without
    /// cross-item heap growth or budget carry-over.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.accs64.clear();
        self.accsdd.clear();
        self.stack.clear();
        self.steps = 0;
    }

    /// Allocates a heap array of doubles; returns the pointer value.
    pub fn alloc_f64(&mut self, data: &[f64]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::F64(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Allocates a heap array of intervals.
    pub fn alloc_interval(&mut self, data: &[F64I]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::Interval(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Allocates a heap array of double-double intervals.
    pub fn alloc_ddi(&mut self, data: &[DdI]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::DdInterval(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Reads back a heap array as doubles.
    ///
    /// # Panics
    ///
    /// Panics if the pointer is not a heap pointer or elements are not
    /// doubles.
    pub fn read_f64(&self, ptr: &Value, len: usize) -> Vec<f64> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_f64().expect("double"))
            .collect()
    }

    /// Reads back a heap array as intervals.
    ///
    /// # Panics
    ///
    /// Panics on non-pointers / non-interval elements.
    pub fn read_interval(&self, ptr: &Value, len: usize) -> Vec<F64I> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_interval().expect("interval"))
            .collect()
    }

    /// Reads back a heap array as double-double intervals.
    ///
    /// # Panics
    ///
    /// Panics on non-pointers / incompatible elements.
    pub fn read_ddi(&self, ptr: &Value, len: usize) -> Vec<DdI> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_ddi().expect("ddi"))
            .collect()
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// [`RtError`] on runtime failures; notably [`RtError::UnknownBranch`]
    /// when an interval branch condition cannot be decided.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, RtError> {
        let f =
            self.prog.function(name).cloned().ok_or_else(|| RtError::Missing(name.to_string()))?;
        let mark = self.args.len();
        self.args.extend(args);
        let out = self.enter(&f, mark);
        // A failed call may leave arguments of unfinished inner calls.
        self.args.truncate(mark);
        out
    }

    /// Runs `f` on the arguments `self.args[mark..]` in a fresh frame.
    fn enter(&mut self, f: &Rc<Function>, mark: usize) -> Result<Value, RtError> {
        let n_args = self.args.len() - mark;
        if f.n_params != n_args {
            return Err(RtError::Type(format!(
                "{}: expected {} arguments, got {n_args}",
                f.name, f.n_params
            )));
        }
        let base = self.stack.len();
        self.stack.extend(self.args.drain(mark..).map(Some));
        self.stack.resize(base + f.n_slots, None);
        let caller = std::mem::replace(&mut self.base, base);
        let flow = self.exec_all(&f.body);
        self.stack.truncate(base);
        self.base = caller;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    // --- variables ------------------------------------------------------

    pub(crate) fn load_var(&self, var: &Var) -> Result<Value, RtError> {
        // The common variants are tested ahead of the general clone,
        // whose dispatch over every variant predicts poorly.
        match &self.stack[self.base + var.slot] {
            Some(Value::Interval(i)) => Ok(Value::Interval(*i)),
            Some(Value::Int(i)) => Ok(Value::Int(*i)),
            Some(v) => Ok(v.clone()),
            None => Err(RtError::Missing(var.name.to_string())),
        }
    }

    pub(crate) fn store_var(&mut self, var: &Var, v: Value) -> Result<(), RtError> {
        let cell = self.stack[self.base + var.slot].as_mut();
        *cell.ok_or_else(|| RtError::Missing(var.name.to_string()))? = v;
        Ok(())
    }

    /// Ends the lifetime of a scope's locals.
    fn clear(&mut self, slots: &Range<usize>) {
        let base = self.base;
        self.stack[base + slots.start..base + slots.end].fill(None);
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.steps += 1;
        if self.steps > self.step_budget {
            return Err(RtError::StepBudget);
        }
        Ok(())
    }

    // --- statements -----------------------------------------------------

    fn exec_all(&mut self, stmts: &[RStmt]) -> Result<Flow, RtError> {
        for s in stmts {
            let flow = self.exec(s)?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &RStmt) -> Result<Flow, RtError> {
        self.tick()?;
        match s {
            RStmt::Decl(slot, init, ty) => {
                let v = match init {
                    Some(e) => self.eval(e)?,
                    None => self.default_value(ty),
                };
                self.stack[self.base + slot] = Some(v);
                Ok(Flow::Normal)
            }
            RStmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            RStmt::Block(b, slots) => {
                let flow = self.exec_all(b)?;
                self.clear(slots);
                Ok(flow)
            }
            RStmt::If(cond, then_branch, else_branch) => {
                if self.eval_cond(cond)? {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            RStmt::For(init, cond, step, body, slots) => {
                if let Some(i) = init {
                    self.exec(i)?;
                }
                let flow = loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !self.eval_cond(c)? {
                            break Flow::Normal;
                        }
                    }
                    match self.exec(body)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                };
                self.clear(slots);
                Ok(flow)
            }
            RStmt::While(cond, body) => loop {
                self.tick()?;
                if !self.eval_cond(cond)? {
                    return Ok(Flow::Normal);
                }
                match self.exec(body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    _ => {}
                }
            },
            RStmt::DoWhile(body, cond) => loop {
                self.tick()?;
                match self.exec(body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    _ => {}
                }
                if !self.eval_cond(cond)? {
                    return Ok(Flow::Normal);
                }
            },
            RStmt::Switch(cond, arms, slots) => {
                let v = self.eval(cond)?;
                let Some(n) = v.as_int() else {
                    return Err(RtError::Type(format!("switch on non-integer value {}", v.tag())));
                };
                // Find the matching case (or default), then execute with
                // C fallthrough until a break.
                let start = arms
                    .iter()
                    .position(|a| a.0 == Some(n))
                    .or_else(|| arms.iter().position(|a| a.0.is_none()));
                let Some(start) = start else {
                    return Ok(Flow::Normal);
                };
                let mut flow = Flow::Normal;
                'arms: for (_, body) in &arms[start..] {
                    for st in body {
                        match self.exec(st)? {
                            Flow::Break => break 'arms,
                            Flow::Normal => {}
                            other => {
                                flow = other;
                                break 'arms;
                            }
                        }
                    }
                }
                self.clear(slots);
                Ok(flow)
            }
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::Empty => Ok(Flow::Normal),
        }
    }

    fn default_value(&mut self, ty: &Type) -> Value {
        match ty {
            Type::Int | Type::UInt | Type::Long | Type::ULong => Value::Int(0),
            Type::Float | Type::Double => Value::F64(0.0),
            Type::Named(n) => match n.as_str() {
                "f64i" => Value::Interval(F64I::ZERO),
                "f32i" => Value::Interval32(igen_interval::F32I::ZERO),
                "ddi" => Value::DdInterval(DdI::ZERO),
                "tbool" => Value::TBool(TBool::Unknown),
                "acc_f64" => Value::Acc64(usize::MAX),
                "acc_dd" => Value::AccDd(usize::MAX),
                "__m128d" => Value::VecF64(vec![0.0; 2]),
                "__m256d" => Value::VecF64(vec![0.0; 4]),
                "__m128" => Value::VecF64(vec![0.0; 4]),
                "__m256" => Value::VecF64(vec![0.0; 8]),
                // m256di_k packs 2k intervals (k __m256d registers,
                // Table II); ddi_k packs k double-double intervals.
                "m256di_1" => Value::VecInterval(vec![F64I::ZERO; 2]),
                "m256di_2" => Value::VecInterval(vec![F64I::ZERO; 4]),
                "m256di_4" => Value::VecInterval(vec![F64I::ZERO; 8]),
                "ddi_2" => Value::VecDdInterval(vec![DdI::ZERO; 2]),
                "ddi_4" => Value::VecDdInterval(vec![DdI::ZERO; 4]),
                "ddi_8" => Value::VecDdInterval(vec![DdI::ZERO; 8]),
                // Union wrappers of the generated intrinsics: lane count
                // from the name.
                "vec128d" => Value::Union(vec![Value::F64(0.0); 2]),
                "vec256d" => Value::Union(vec![Value::F64(0.0); 4]),
                "vec128" => Value::Union(vec![Value::F64(0.0); 4]),
                "vec256" => Value::Union(vec![Value::F64(0.0); 8]),
                _ => Value::Unit,
            },
            Type::Array(inner, Some(n)) => {
                let elem = self.default_value(inner);
                self.heap.push(vec![elem; *n]);
                Value::Ptr(self.heap.len() - 1, 0)
            }
            Type::Ptr(_) | Type::Array(_, None) => Value::Ptr(usize::MAX, 0),
            Type::Void => Value::Unit,
        }
    }

    // --- conditions -----------------------------------------------------

    fn eval_cond(&mut self, e: &RExpr) -> Result<bool, RtError> {
        let v = self.eval(e)?;
        match v {
            Value::TBool(t) => t.to_bool().map_err(|_| RtError::UnknownBranch),
            other => other
                .truthy()
                .ok_or_else(|| RtError::Type(format!("condition of type {}", other.tag()))),
        }
    }

    // --- expressions ----------------------------------------------------

    /// Evaluates `e`. Leaves, about half of any program's nodes, are
    /// handled here, inlined into their parent's evaluation.
    #[inline]
    pub(crate) fn eval(&mut self, e: &RExpr) -> Result<Value, RtError> {
        self.tick()?;
        match e {
            RExpr::Int(v) => Ok(Value::Int(*v)),
            RExpr::Float(v) => Ok(Value::F64(*v)),
            RExpr::Var(var) => self.load_var(var),
            _ => self.eval_inner(e),
        }
    }

    fn eval_inner(&mut self, e: &RExpr) -> Result<Value, RtError> {
        match e {
            RExpr::Int(_) | RExpr::Float(_) | RExpr::Var(_) => unreachable!("leaves are inlined"),
            RExpr::Unary(op, inner) => self.eval_unary(*op, inner),
            RExpr::PostIncDec(inner, inc) => {
                let old = self.eval(inner)?;
                let delta = if *inc { 1 } else { -1 };
                let new = match &old {
                    Value::Int(v) => Value::Int(v + delta),
                    Value::F64(v) => Value::F64(v + delta as f64),
                    other => return Err(RtError::Type(format!("increment of {}", other.tag()))),
                };
                let place = self.resolve_place(inner)?;
                self.store(place, new)?;
                Ok(old)
            }
            RExpr::Binary(op, lhs, rhs) => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    return Ok(Value::Int((self.eval_cond(lhs)? && self.eval_cond(rhs)?) as i64));
                }
                if *op == BinOp::Or {
                    return Ok(Value::Int((self.eval_cond(lhs)? || self.eval_cond(rhs)?) as i64));
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.eval_binop(*op, l, r)
            }
            RExpr::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs)?;
                let new = match op {
                    None => rv,
                    Some(bop) => {
                        let old = self.eval(lhs)?;
                        self.eval_binop(*bop, old, rv)?
                    }
                };
                let place = self.resolve_place(lhs)?;
                self.store(place, new.clone())?;
                Ok(new)
            }
            RExpr::Call(callee, args) => self.eval_call(callee, args),
            RExpr::Index(base, idx) => {
                let i = self
                    .eval(idx)?
                    .as_int()
                    .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                // Union views: `u.f[i]` is the lane value, `u.i[i]` the
                // lane's bit pattern (Section V's integer array).
                if let RExpr::Member(ub, field) = &**base {
                    if field == "f" || field == "i" {
                        let u = self.eval(ub)?;
                        let Value::Union(lanes) = u else {
                            return Err(RtError::Type(format!("lane access on {}", u.tag())));
                        };
                        let lane = lanes
                            .get(i as usize)
                            .cloned()
                            .ok_or_else(|| RtError::Bounds(format!("union lane {i}")))?;
                        return if field == "i" {
                            match lane {
                                Value::F64(f) => Ok(Value::Int(f.to_bits() as i64)),
                                Value::Int(b) => Ok(Value::Int(b)),
                                other => Err(RtError::Type(format!("bit view of {}", other.tag()))),
                            }
                        } else {
                            Ok(lane)
                        };
                    }
                }
                let b = self.eval(base)?;
                match b {
                    Value::Ptr(obj, off) => self.heap_load(obj, off + i),
                    Value::Union(lanes) => lanes
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| RtError::Bounds(format!("union lane {i}"))),
                    other => Err(RtError::Type(format!("indexing {}", other.tag()))),
                }
            }
            RExpr::Member(base, field) => {
                let b = self.eval(base)?;
                let Value::Union(lanes) = b else {
                    return Err(RtError::Type(format!("member access on {}", b.tag())));
                };
                match field.as_str() {
                    "v" => Ok(union_whole(&lanes)),
                    // `.f` / `.i` without an index: the enclosing Index
                    // expression extracts the lane; return the union so
                    // Index sees it.
                    "f" | "i" => Ok(Value::Union(lanes)),
                    other => Err(RtError::Missing(format!("union field {other}"))),
                }
            }
            RExpr::Cast(ty, inner) => {
                let v = self.eval(inner)?;
                match (ty, v) {
                    (Type::Double | Type::Float, Value::Int(i)) => Ok(Value::F64(i as f64)),
                    (Type::Double, Value::F64(f)) => Ok(Value::F64(f)),
                    (Type::Float, Value::F64(f)) => Ok(Value::F64(f as f32 as f64)),
                    (Type::Int | Type::Long, Value::F64(f)) => Ok(Value::Int(f as i64)),
                    (Type::Int | Type::Long, Value::Int(i)) => Ok(Value::Int(i)),
                    (_, v) => Ok(v), // pointer casts etc.: transparent
                }
            }
            RExpr::Cond(c, t, f) => {
                if self.eval_cond(c)? {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
        }
    }

    fn eval_unary(&mut self, op: UnOp, inner: &RExpr) -> Result<Value, RtError> {
        match op {
            UnOp::Addr => {
                // Only used for accumulator arguments (&acc) and array
                // element pointers; represented as the place itself.
                match inner {
                    RExpr::Var(var) => self.load_var(var),
                    RExpr::Index(base, idx) => {
                        let b = self.eval(base)?;
                        let i = self
                            .eval(idx)?
                            .as_int()
                            .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                        match b {
                            Value::Ptr(obj, off) => Ok(Value::Ptr(obj, off + i)),
                            other => Err(RtError::Type(format!("&x[] on {}", other.tag()))),
                        }
                    }
                    _ => Err(RtError::Type("unsupported address-of".into())),
                }
            }
            UnOp::Deref => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(obj, off) => self.heap_load(obj, off),
                    other => Err(RtError::Type(format!("deref of {}", other.tag()))),
                }
            }
            UnOp::PreInc | UnOp::PreDec => {
                let old = self.eval(inner)?;
                let delta = if op == UnOp::PreInc { 1 } else { -1 };
                let new = match old {
                    Value::Int(v) => Value::Int(v + delta),
                    other => return Err(RtError::Type(format!("++ on {}", other.tag()))),
                };
                let place = self.resolve_place(inner)?;
                self.store(place, new.clone())?;
                Ok(new)
            }
            _ => {
                let v = self.eval(inner)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::F64(f)) => Ok(Value::F64(-f)),
                    (UnOp::Neg, Value::Interval(i)) => Ok(Value::Interval(-i)),
                    (UnOp::Neg, Value::Interval32(i)) => Ok(Value::Interval32(-i)),
                    (UnOp::Neg, Value::DdInterval(i)) => Ok(Value::DdInterval(-i)),
                    (UnOp::Plus, v) => Ok(v),
                    (UnOp::Not, Value::Int(i)) => Ok(Value::Int((i == 0) as i64)),
                    (UnOp::Not, Value::TBool(t)) => Ok(Value::TBool(t.not())),
                    (UnOp::BitNot, Value::Int(i)) => Ok(Value::Int(!i)),
                    (o, v) => Err(RtError::Type(format!("{o:?} on {}", v.tag()))),
                }
            }
        }
    }

    fn eval_binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, RtError> {
        use BinOp::*;
        // Interval arithmetic via operators happens when kernels are
        // interpreted directly on interval values.
        if matches!(l, Value::Interval(_)) || matches!(r, Value::Interval(_)) {
            if let (Some(a), Some(b)) = (l.as_interval(), r.as_interval()) {
                return builtins::interval_binop(op, a, b);
            }
        }
        if matches!(l, Value::DdInterval(_)) || matches!(r, Value::DdInterval(_)) {
            if let (Some(a), Some(b)) = (l.as_ddi(), r.as_ddi()) {
                return builtins::ddi_binop(op, a, b);
            }
        }
        match (op, &l, &r) {
            (_, Value::Int(a), Value::Int(b)) => {
                let (a, b) = (*a, *b);
                Ok(match op {
                    Add => Value::Int(a.wrapping_add(b)),
                    Sub => Value::Int(a.wrapping_sub(b)),
                    Mul => Value::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            return Err(RtError::Type("integer division by zero".into()));
                        }
                        Value::Int(a / b)
                    }
                    Rem => {
                        if b == 0 {
                            return Err(RtError::Type("integer remainder by zero".into()));
                        }
                        Value::Int(a % b)
                    }
                    Shl => Value::Int(a.wrapping_shl(b as u32)),
                    Shr => Value::Int(((a as u64) >> (b as u32 & 63)) as i64),
                    BitAnd => Value::Int(a & b),
                    BitOr => Value::Int(a | b),
                    BitXor => Value::Int(a ^ b),
                    Lt => Value::Int((a < b) as i64),
                    Le => Value::Int((a <= b) as i64),
                    Gt => Value::Int((a > b) as i64),
                    Ge => Value::Int((a >= b) as i64),
                    Eq => Value::Int((a == b) as i64),
                    Ne => Value::Int((a != b) as i64),
                    And | Or => unreachable!("short-circuited"),
                })
            }
            (_, _, _) if l.as_f64().is_some() && r.as_f64().is_some() => {
                let (a, b) = (l.as_f64().unwrap(), r.as_f64().unwrap());
                Ok(match op {
                    Add => Value::F64(a + b),
                    Sub => Value::F64(a - b),
                    Mul => Value::F64(a * b),
                    Div => Value::F64(a / b),
                    Lt => Value::Int((a < b) as i64),
                    Le => Value::Int((a <= b) as i64),
                    Gt => Value::Int((a > b) as i64),
                    Ge => Value::Int((a >= b) as i64),
                    Eq => Value::Int((a == b) as i64),
                    Ne => Value::Int((a != b) as i64),
                    Rem => Value::F64(a % b),
                    other => return Err(RtError::Type(format!("{other:?} on doubles"))),
                })
            }
            (Add | Sub, Value::Ptr(obj, off), Value::Int(i)) => {
                let delta = if op == Add { *i } else { -*i };
                Ok(Value::Ptr(*obj, off + delta))
            }
            _ => Err(RtError::Type(format!("{op:?} on {} and {}", l.tag(), r.tag()))),
        }
    }

    fn eval_call(&mut self, callee: &Callee, args: &[RExpr]) -> Result<Value, RtError> {
        if let Callee::Acc(f, var) = callee {
            return f(self, var, args);
        }
        let mark = self.args.len();
        for a in args {
            // A declared variable is copied straight into the buffer.
            if let RExpr::Var(var) = a {
                if let Some(v) = &self.stack[self.base + var.slot] {
                    self.steps += 1;
                    if self.steps > self.step_budget {
                        return Err(RtError::StepBudget);
                    }
                    self.args.push(v.clone());
                    continue;
                }
            }
            let v = self.eval(a)?;
            self.args.push(v);
        }
        let out = match callee {
            Callee::Builtin(f) => {
                // Builtins never evaluate expressions, so the argument
                // buffer can be lent out for the duration of the call.
                let vals = std::mem::take(&mut self.args);
                let out = f(self, &vals[mark..]);
                self.args = vals;
                out
            }
            Callee::User(id) => match self.prog.symbols[*id].1.clone() {
                Some(f) => self.enter(&f, mark),
                None => Err(RtError::Missing(format!("function {}", self.prog.symbols[*id].0))),
            },
            Callee::Error(e) => Err(e.clone()),
            Callee::Acc(..) => unreachable!("accumulator calls return above"),
        };
        self.args.truncate(mark);
        out
    }

    // --- heap & places ---------------------------------------------------

    pub(crate) fn heap_load(&self, obj: usize, idx: i64) -> Result<Value, RtError> {
        let arr = self.heap.get(obj).ok_or_else(|| RtError::Bounds(format!("object {obj}")))?;
        if idx < 0 || idx as usize >= arr.len() {
            return Err(RtError::Bounds(format!("index {idx} of {} elements", arr.len())));
        }
        Ok(arr[idx as usize].clone())
    }

    pub(crate) fn heap_store(&mut self, obj: usize, idx: i64, v: Value) -> Result<(), RtError> {
        let arr = self.heap.get_mut(obj).ok_or_else(|| RtError::Bounds(format!("object {obj}")))?;
        if idx < 0 || idx as usize >= arr.len() {
            return Err(RtError::Bounds(format!("index {idx} of {} elements", arr.len())));
        }
        arr[idx as usize] = v;
        Ok(())
    }

    fn resolve_place<'a>(&mut self, e: &'a RExpr) -> Result<Place<'a>, RtError> {
        match e {
            RExpr::Var(var) => Ok(Place::Var(var)),
            RExpr::Index(base, idx) => {
                let i = self
                    .eval(idx)?
                    .as_int()
                    .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                // `u.f[i]` / `u.i[i]`: member then index.
                if let RExpr::Member(ub, field) = &**base {
                    let inner = self.resolve_place(ub)?;
                    return match field.as_str() {
                        "f" => Ok(Place::UnionLane(Box::new(inner), i as usize)),
                        "i" => Ok(Place::UnionBits(Box::new(inner), i as usize)),
                        other => Err(RtError::Missing(format!("union field {other}"))),
                    };
                }
                let b = self.eval(base)?;
                match b {
                    Value::Ptr(obj, off) => Ok(Place::Heap(obj, off + i)),
                    _ => Err(RtError::Type(format!("assignment into {}", b.tag()))),
                }
            }
            RExpr::Member(base, field) => {
                let inner = self.resolve_place(base)?;
                match field.as_str() {
                    "v" => Ok(Place::UnionWhole(Box::new(inner))),
                    other => Err(RtError::Missing(format!("union field {other}"))),
                }
            }
            RExpr::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(obj, off) => Ok(Place::Heap(obj, off)),
                    other => Err(RtError::Type(format!("deref-assign of {}", other.tag()))),
                }
            }
            _ => Err(RtError::Type("unsupported assignment target".into())),
        }
    }

    fn load_place(&mut self, p: &Place) -> Result<Value, RtError> {
        match p {
            Place::Var(var) => self.load_var(var),
            Place::Heap(o, i) => self.heap_load(*o, *i),
            Place::UnionLane(inner, i) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("lane access on non-union".into()));
                };
                lanes.get(*i).cloned().ok_or_else(|| RtError::Bounds(format!("lane {i}")))
            }
            Place::UnionBits(inner, i) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("lane access on non-union".into()));
                };
                match lanes.get(*i) {
                    Some(Value::F64(f)) => Ok(Value::Int(f.to_bits() as i64)),
                    Some(Value::Int(b)) => Ok(Value::Int(*b)),
                    Some(other) => Err(RtError::Type(format!("bit view of {}", other.tag()))),
                    None => Err(RtError::Bounds(format!("lane {i}"))),
                }
            }
            Place::UnionWhole(inner) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("`.v` on non-union".into()));
                };
                Ok(union_whole(&lanes))
            }
        }
    }

    fn store(&mut self, p: Place, v: Value) -> Result<(), RtError> {
        match p {
            // Declare-on-assign never happens (decls precede); mutate.
            Place::Var(var) => self.store_var(var, v),
            Place::Heap(o, i) => self.heap_store(o, i, v),
            Place::UnionLane(inner, i) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("lane store on non-union".into()));
                    };
                    if i >= lanes.len() {
                        return Err(RtError::Bounds(format!("lane {i}")));
                    }
                    lanes[i] = v;
                }
                self.store(*inner, u)
            }
            Place::UnionBits(inner, i) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("bit store on non-union".into()));
                    };
                    if i >= lanes.len() {
                        return Err(RtError::Bounds(format!("lane {i}")));
                    }
                    let bits = v
                        .as_int()
                        .ok_or_else(|| RtError::Type("bit store of non-integer".into()))?;
                    lanes[i] = Value::F64(f64::from_bits(bits as u64));
                }
                self.store(*inner, u)
            }
            Place::UnionWhole(inner) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("`.v` store on non-union".into()));
                    };
                    match v {
                        Value::VecF64(xs) => {
                            if xs.len() != lanes.len() {
                                return Err(RtError::Type("vector width mismatch".into()));
                            }
                            for (l, x) in lanes.iter_mut().zip(xs) {
                                *l = Value::F64(x);
                            }
                        }
                        Value::VecInterval(xs) => {
                            if xs.len() != lanes.len() {
                                return Err(RtError::Type("vector width mismatch".into()));
                            }
                            for (l, x) in lanes.iter_mut().zip(xs) {
                                *l = Value::Interval(x);
                            }
                        }
                        other => {
                            return Err(RtError::Type(format!("`.v` store of {}", other.tag())))
                        }
                    }
                }
                self.store(*inner, u)
            }
        }
    }
}

/// The `.v` view of a union's lanes.
fn union_whole(lanes: &[Value]) -> Value {
    if lanes.iter().all(|l| matches!(l, Value::F64(_))) {
        Value::VecF64(lanes.iter().map(|l| l.as_f64().unwrap()).collect())
    } else if lanes.iter().all(|l| matches!(l, Value::Interval(_))) {
        Value::VecInterval(lanes.iter().map(|l| l.as_interval().unwrap()).collect())
    } else {
        // Mixed or default-initialized: treat as doubles.
        Value::VecF64(lanes.iter().map(|l| l.as_f64().unwrap_or(0.0)).collect())
    }
}
