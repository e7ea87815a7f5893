//! Runtime values of the interpreter.

use igen_interval::{DdI, TBool, F64I};

/// A runtime value.
///
/// The same interpreter executes the *original* program (values are
/// [`Value::F64`], [`Value::VecF64`]…) and the IGen-*transformed* program
/// (values are [`Value::Interval`], [`Value::DdInterval`],
/// [`Value::VecInterval`]…), which is what enables end-to-end
/// differential soundness testing of the compiler.
#[derive(Debug, Clone, PartialEq)]
// An 8-byte tag keeps moves out of `Result<Value, _>` aligned (a 1-byte
// tag made them unaligned copies that defeat store forwarding).
#[repr(u64)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Binary64 (float-mode program).
    F64(f64),
    /// Double-precision interval (`f64i`).
    Interval(F64I),
    /// Single-precision interval (`f32i`).
    Interval32(igen_interval::F32I),
    /// Double-double interval (`ddi`).
    DdInterval(DdI),
    /// Three-valued boolean (`tbool`).
    TBool(TBool),
    /// Pointer into the interpreter heap: `(object id, element offset)`.
    Ptr(usize, i64),
    /// A SIMD vector of doubles (`__m128d`/`__m256d` in float mode).
    VecF64(Vec<f64>),
    /// A packed interval vector (`m256di_k` / `ddi_k`).
    VecInterval(Vec<F64I>),
    /// A packed double-double interval vector.
    VecDdInterval(Vec<DdI>),
    /// A union-wrapped vector object (the `vec256d` locals of generated
    /// intrinsic implementations): lanes are elements, accessible as
    /// `.v` (whole), `.f[i]` (element) and `.i[i]` (bit view).
    Union(Vec<Value>),
    /// A reduction accumulator handle (`acc_f64`): index into the
    /// interpreter's accumulator store; `usize::MAX` = uninitialized.
    Acc64(usize),
    /// A double-double accumulator handle (`acc_dd`).
    AccDd(usize),
    /// No value (void).
    Unit,
}

impl Value {
    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// f64 view (ints promote).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Interval view (f64 and ints become points — used when mixing
    /// modes is convenient in tests).
    pub fn as_interval(&self) -> Option<F64I> {
        match self {
            Value::Interval(i) => Some(*i),
            Value::Interval32(i) => Some(i.to_f64i()),
            Value::F64(v) => Some(F64I::point(*v)),
            Value::Int(v) => Some(F64I::point(*v as f64)),
            _ => None,
        }
    }

    /// Double-double interval view.
    pub fn as_ddi(&self) -> Option<DdI> {
        match self {
            Value::DdInterval(i) => Some(*i),
            Value::Interval(i) => Some(DdI::from_f64i(i)),
            Value::F64(v) => Some(DdI::point_f64(*v)),
            Value::Int(v) => Some(DdI::point_f64(*v as f64)),
            _ => None,
        }
    }

    /// Truthiness for C conditions (integers and tbool conversions are
    /// handled by the evaluator; this is the final plain test).
    pub fn truthy(&self) -> Option<bool> {
        match self {
            Value::Int(v) => Some(*v != 0),
            Value::F64(v) => Some(*v != 0.0),
            _ => None,
        }
    }

    /// A short type tag for error messages.
    pub fn tag(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::F64(_) => "double",
            Value::Interval(_) => "f64i",
            Value::Interval32(_) => "f32i",
            Value::DdInterval(_) => "ddi",
            Value::TBool(_) => "tbool",
            Value::Ptr(..) => "pointer",
            Value::VecF64(_) => "simd vector",
            Value::VecInterval(_) => "interval vector",
            Value::VecDdInterval(_) => "ddi vector",
            Value::Union(_) => "union",
            Value::Acc64(_) => "acc_f64",
            Value::AccDd(_) => "acc_dd",
            Value::Unit => "void",
        }
    }
}
