//! Bridge from compiler output to the bytecode VM, plus the
//! differential reference that pins bytecode semantics to the
//! transformed-unit interpreter.
//!
//! [`compile_to_program`] picks a function out of the optimized IR and
//! lowers it to an [`igen_vm::Program`] under a [`BindSpec`].
//! [`interp_reference`] runs the *same* bindings through the
//! `igen-interp` evaluator over the transformed C unit — consuming
//! inputs and producing outputs in exactly the VM's declared order —
//! so [`verify_bit_identity`] can compare the two streams bit for bit,
//! every f64 word of both endpoints. The pair is the trust anchor for
//! every compiled program: the VM is only believed because this check
//! passes per function. Both are written once, generic over the
//! interval element ([`RefElem`]: `F64I` or `DdI`).

use crate::Output;
use igen_interp::{Interp, RtError, Value};
use igen_interval::{DdI, F64I};
use igen_vm::{lower, ArgBind, BindSpec, Program, VmElem};

/// Why a compiler output could not be turned into (or checked against)
/// a bytecode program.
#[derive(Debug, Clone, PartialEq)]
pub enum VmBridgeError {
    /// No function with that name in the optimized IR.
    MissingFunction(String),
    /// The function is outside the bytecode-traceable subset.
    Lower(igen_vm::LowerError),
    /// The reference interpreter failed.
    Rt(String),
    /// The reference produced a non-interval value where an interval
    /// output was declared.
    Shape(String),
    /// Bytecode and interpreter endpoints differ.
    Mismatch {
        /// Declared output label (`return`, `y[3]`, ...).
        label: String,
        /// Item index within the supplied batch.
        item: usize,
        /// VM endpoint words ([`VmElem::endpoint_words`]): `[lo, hi]`
        /// at f64, `[lo.hi, lo.lo, hi.hi, hi.lo]` at double-double.
        got: Vec<f64>,
        /// Interpreter endpoint words, in the same order.
        want: Vec<f64>,
    },
}

/// Endpoint words as `[lo, hi]`, the words of one endpoint separated by
/// spaces: `[a, b]` at f64, `[a_hi a_lo, b_hi b_lo]` at double-double.
fn endpoint_text(words: &[f64]) -> String {
    let (lo, hi) = words.split_at(words.len() / 2);
    let side = |ws: &[f64]| ws.iter().map(|w| format!("{w:?}")).collect::<Vec<_>>().join(" ");
    format!("[{}, {}]", side(lo), side(hi))
}

impl core::fmt::Display for VmBridgeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmBridgeError::MissingFunction(n) => {
                write!(f, "no function `{n}` in the compiled unit")
            }
            VmBridgeError::Lower(e) => write!(f, "cannot compile to bytecode: {e}"),
            VmBridgeError::Rt(e) => write!(f, "reference interpreter: {e}"),
            VmBridgeError::Shape(m) => write!(f, "reference shape mismatch: {m}"),
            VmBridgeError::Mismatch { label, item, got, want } => write!(
                f,
                "bit mismatch at item {item}, output `{label}`: vm {} vs interp {}",
                endpoint_text(got),
                endpoint_text(want)
            ),
        }
    }
}

impl std::error::Error for VmBridgeError {}

impl From<igen_vm::LowerError> for VmBridgeError {
    fn from(e: igen_vm::LowerError) -> VmBridgeError {
        VmBridgeError::Lower(e)
    }
}

impl From<RtError> for VmBridgeError {
    fn from(e: RtError) -> VmBridgeError {
        VmBridgeError::Rt(e.to_string())
    }
}

/// Lowers the named function of a compiled output into register
/// bytecode under the given parameter bindings and runs the bytecode
/// peephole pass (endpoint-exact rewrites plus register renumbering —
/// see `igen_vm::peephole`). Use [`compile_to_program_raw`] to inspect
/// or pin the un-peepholed lowering.
///
/// # Errors
///
/// [`VmBridgeError::MissingFunction`] if the optimized IR has no such
/// function, [`VmBridgeError::Lower`] if it falls outside the traced
/// subset.
pub fn compile_to_program(
    out: &Output,
    fn_name: &str,
    bind: &BindSpec,
) -> Result<Program, VmBridgeError> {
    let raw = compile_to_program_raw(out, fn_name, bind)?;
    let _span = igen_telemetry::span("vm.peephole");
    Ok(igen_vm::peephole(&raw).0)
}

/// [`compile_to_program`] without the peephole pass: the raw,
/// single-assignment lowering output. Every endpoint bit matches the
/// peepholed program — the `vm_peephole` differential tests pin that —
/// so the choice only affects instruction count and register-file
/// size.
///
/// # Errors
///
/// Same as [`compile_to_program`].
pub fn compile_to_program_raw(
    out: &Output,
    fn_name: &str,
    bind: &BindSpec,
) -> Result<Program, VmBridgeError> {
    let _span = igen_telemetry::span("vm.lower");
    let f = out
        .ir
        .functions()
        .find(|f| f.name == fn_name)
        .ok_or_else(|| VmBridgeError::MissingFunction(fn_name.to_string()))?;
    Ok(lower(f, bind)?)
}

/// An interval element the reference interpreter runs: the [`Value`]
/// it travels as and its heap arrays.
pub trait RefElem: VmElem {
    /// The interpreter value holding `self`.
    fn into_value(self) -> Value;

    /// The element a returned value holds, if it is of this precision.
    fn from_value(v: &Value) -> Option<Self>;

    /// Allocates a heap array of elements; returns the pointer value.
    fn alloc(interp: &mut Interp, xs: &[Self]) -> Value;

    /// Reads back `len` elements of a heap array.
    fn read(interp: &Interp, ptr: &Value, len: usize) -> Vec<Self>;
}

impl RefElem for F64I {
    fn into_value(self) -> Value {
        Value::Interval(self)
    }
    fn from_value(v: &Value) -> Option<F64I> {
        match v {
            Value::Interval(x) => Some(*x),
            _ => None,
        }
    }
    fn alloc(interp: &mut Interp, xs: &[F64I]) -> Value {
        interp.alloc_interval(xs)
    }
    fn read(interp: &Interp, ptr: &Value, len: usize) -> Vec<F64I> {
        interp.read_interval(ptr, len)
    }
}

impl RefElem for DdI {
    fn into_value(self) -> Value {
        Value::DdInterval(self)
    }
    fn from_value(v: &Value) -> Option<DdI> {
        match v {
            Value::DdInterval(x) => Some(*x),
            _ => None,
        }
    }
    fn alloc(interp: &mut Interp, xs: &[DdI]) -> Value {
        interp.alloc_ddi(xs)
    }
    fn read(interp: &Interp, ptr: &Value, len: usize) -> Vec<DdI> {
        interp.read_ddi(ptr, len)
    }
}

/// Runs one item through the `igen-interp` evaluator over the
/// transformed unit, consuming `inputs` and producing outputs in the
/// VM's declared order (inputs: interval scalars and `In`/`InOut`
/// array cells in parameter order; outputs: return value first, then
/// `Out`/`InOut` cells in parameter order). `Uniform` pairs promote
/// through [`VmElem::from_f64i`] exactly like the lowering pass does.
///
/// # Errors
///
/// Propagates interpreter runtime errors; [`VmBridgeError::Shape`] if
/// a declared output is not an interval of the element's precision.
///
/// # Panics
///
/// Panics if `inputs` is shorter than the bindings require.
pub fn interp_reference<T: RefElem>(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[T],
) -> Result<Vec<T>, VmBridgeError> {
    interp.reset();
    let mut rest = inputs;
    let mut take = |n: usize| {
        let (head, tail) = rest.split_at(n);
        rest = tail;
        head
    };
    let mut args = Vec::with_capacity(bind.args.len());
    // (heap pointer, length) of every array the call writes back.
    let mut harvest: Vec<(Value, usize)> = Vec::new();
    for b in &bind.args {
        match b {
            ArgBind::Ival => args.push(take(1)[0].into_value()),
            ArgBind::Int(v) => args.push(Value::Int(*v)),
            ArgBind::In(len) => args.push(T::alloc(interp, take(*len))),
            ArgBind::InOut(len) => {
                let ptr = T::alloc(interp, take(*len));
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Out(len) => {
                let ptr = T::alloc(interp, &vec![T::default(); *len]);
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Uniform(pairs) => {
                let vals = pairs.iter().map(|&(lo, hi)| F64I::new(lo, hi).map(T::from_f64i));
                let vals: Vec<T> = vals
                    .collect::<Result<_, _>>()
                    .map_err(|e| VmBridgeError::Shape(format!("uniform pair: {e}")))?;
                args.push(T::alloc(interp, &vals));
            }
        }
    }
    let ret = interp.call(fn_name, args)?;
    let mut outputs = Vec::new();
    match ret {
        Value::Unit => {}
        v => match T::from_value(&v) {
            Some(x) => outputs.push(x),
            None => return Err(VmBridgeError::Shape(format!("return value is {v:?}"))),
        },
    }
    for (ptr, len) in harvest {
        outputs.extend(T::read(interp, &ptr, len));
    }
    Ok(outputs)
}

/// [`interp_reference`] at double-double, under the name the
/// `igen-ledger` benchmark still calls.
///
/// # Errors
///
/// Same as [`interp_reference`].
pub fn interp_reference_dd(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[DdI],
) -> Result<Vec<DdI>, VmBridgeError> {
    interp_reference(interp, fn_name, bind, inputs)
}

/// Runs every item through both the bytecode VM (scalar width) and the
/// transformed-unit interpreter and demands bit-identical endpoints on
/// every declared output: every f64 word of both endpoints, two for
/// `F64I` and four for `DdI`.
///
/// `items` is item-major flattened VM input data: `items.len()` must be
/// a multiple of `program.n_inputs`.
///
/// # Errors
///
/// The first [`VmBridgeError::Mismatch`] found, or any reference
/// interpreter failure.
///
/// # Panics
///
/// Panics if the element precision does not match the program's, or if
/// `items.len()` is not a multiple of the program's input count (for
/// programs with at least one input).
pub fn verify_bit_identity<T: RefElem>(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[T],
) -> Result<(), VmBridgeError> {
    assert_eq!(program.precision, T::PRECISION, "element precision does not match program");
    let _span = igen_telemetry::span("vm.verify");
    let nin = program.n_inputs as usize;
    let n_items = items.len().checked_div(nin).unwrap_or(1);
    if nin > 0 {
        assert_eq!(items.len() % nin, 0, "items must be a multiple of n_inputs");
    }
    let same = |a: &T, b: &T| {
        let (a, b) = (a.to_words(), b.to_words());
        a.as_ref().iter().zip(b.as_ref()).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let mut interp = Interp::new(&out.unit);
    for item in 0..n_items {
        let inputs = &items[item * nin..(item + 1) * nin];
        let got = igen_vm::run_scalar::<T>(program, inputs);
        let want = interp_reference(&mut interp, &program.name, bind, inputs)?;
        if got.len() != want.len() {
            return Err(VmBridgeError::Shape(format!(
                "vm produced {} outputs, interpreter {}",
                got.len(),
                want.len()
            )));
        }
        for (slot, (g, w)) in program.outputs.iter().zip(got.iter().zip(&want)) {
            if !same(g, w) {
                return Err(VmBridgeError::Mismatch {
                    label: slot.label.clone(),
                    item,
                    got: g.endpoint_words().as_ref().to_vec(),
                    want: w.endpoint_words().as_ref().to_vec(),
                });
            }
        }
    }
    Ok(())
}

/// [`verify_bit_identity`] at double-double, under the name the
/// `igen-ledger` benchmark still calls.
///
/// # Errors
///
/// Same as [`verify_bit_identity`].
pub fn verify_bit_identity_dd(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[DdI],
) -> Result<(), VmBridgeError> {
    verify_bit_identity(out, program, bind, items)
}
