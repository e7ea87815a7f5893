//! Builtin bindings: libm and SIMD intrinsics for float-mode programs,
//! and the whole `ia_*` / `isum_*` runtime (backed by `igen-interval`)
//! for transformed programs. Each call site binds its builtin once, at
//! load time ([`lookup`]); no name is matched while a program runs.

use crate::exec::{Interp, RtError};
use crate::resolve::{RExpr, Var};
use crate::value::Value;
use igen_cfront::BinOp;
use igen_interval::{elem, Dd, DdI, InvalidInterval, SumAcc64, SumAccDd, TBool, F32I, F64I};

/// A value-level builtin over the evaluated arguments.
pub(crate) type Builtin = fn(&mut Interp, &[Value]) -> Result<Value, RtError>;

/// Width histogram of every interval produced by an interpreted
/// arithmetic operator (recorded only while a telemetry trace is on).
static WIDTH_OPS: igen_telemetry::WidthHist = igen_telemetry::WidthHist::new("width.interp.ops");

/// Records an arithmetic result's width and wraps it (inert without the
/// `telemetry` feature or outside an active trace).
#[inline]
fn record_interval(v: F64I) -> Value {
    if igen_telemetry::recording() {
        WIDTH_OPS.record(v.lo(), v.hi());
    }
    Value::Interval(v)
}

/// Interval semantics of a C binary operator (used when kernels are
/// interpreted directly over interval values).
pub fn interval_binop(op: BinOp, a: F64I, b: F64I) -> Result<Value, RtError> {
    Ok(match op {
        BinOp::Add => record_interval(a + b),
        BinOp::Sub => record_interval(a - b),
        BinOp::Mul => record_interval(a * b),
        BinOp::Div => record_interval(a / b),
        BinOp::Lt => Value::TBool(a.cmp_lt(&b)),
        BinOp::Le => Value::TBool(a.cmp_le(&b)),
        BinOp::Gt => Value::TBool(a.cmp_gt(&b)),
        BinOp::Ge => Value::TBool(a.cmp_ge(&b)),
        BinOp::Eq => Value::TBool(a.cmp_eq(&b)),
        BinOp::Ne => Value::TBool(a.cmp_ne(&b)),
        other => return Err(RtError::Type(format!("{other:?} on intervals"))),
    })
}

/// Double-double interval semantics of a C binary operator.
pub fn ddi_binop(op: BinOp, a: DdI, b: DdI) -> Result<Value, RtError> {
    Ok(match op {
        BinOp::Add => Value::DdInterval(a + b),
        BinOp::Sub => Value::DdInterval(a - b),
        BinOp::Mul => Value::DdInterval(a * b),
        BinOp::Div => Value::DdInterval(a / b),
        BinOp::Lt => Value::TBool(a.cmp_lt(&b)),
        BinOp::Gt => Value::TBool(a.cmp_gt(&b)),
        other => return Err(RtError::Type(format!("{other:?} on ddi"))),
    })
}

fn want_interval(v: &Value) -> Result<F64I, RtError> {
    v.as_interval().ok_or_else(|| RtError::Type(format!("expected f64i, got {}", v.tag())))
}

fn want_ddi(v: &Value) -> Result<DdI, RtError> {
    v.as_ddi().ok_or_else(|| RtError::Type(format!("expected ddi, got {}", v.tag())))
}

/// Argument `k` as an `f64i` (and likewise below for each type).
fn ival(v: &[Value], k: usize) -> Result<F64I, RtError> {
    want_interval(&v[k])
}

fn ddi(v: &[Value], k: usize) -> Result<DdI, RtError> {
    want_ddi(&v[k])
}

fn ival32(v: &[Value], k: usize) -> Result<F32I, RtError> {
    match &v[k] {
        Value::Interval32(i) => Ok(*i),
        Value::F64(x) => Ok(F32I::point(*x as f32)),
        Value::Int(x) => Ok(F32I::point(*x as f32)),
        other => Err(RtError::Type(format!("expected f32i, got {}", other.tag()))),
    }
}

fn real(v: &[Value], k: usize) -> Result<f64, RtError> {
    v[k].as_f64().ok_or_else(|| RtError::Type(format!("expected double, got {}", v[k].tag())))
}

fn int(v: &[Value], k: usize) -> Result<i64, RtError> {
    v[k].as_int().ok_or_else(|| RtError::Type(format!("expected int, got {}", v[k].tag())))
}

/// The error of an `ia_set_*` call whose endpoints are inverted.
fn inverted(name: &str) -> impl FnOnce(InvalidInterval) -> RtError + '_ {
    move |e| RtError::Type(format!("{name}: {e}"))
}

fn tbool(v: &[Value], k: usize) -> Result<TBool, RtError> {
    match &v[k] {
        Value::TBool(t) => Ok(*t),
        other => Err(RtError::Type(format!("expected tbool, got {}", other.tag()))),
    }
}

fn vecf(v: &[Value], k: usize) -> Result<Vec<f64>, RtError> {
    match &v[k] {
        Value::VecF64(x) => Ok(x.clone()),
        other => Err(RtError::Type(format!("expected simd vector, got {}", other.tag()))),
    }
}

fn veci(v: &[Value], k: usize) -> Result<Vec<F64I>, RtError> {
    match &v[k] {
        Value::VecInterval(x) => Ok(x.clone()),
        other => Err(RtError::Type(format!("expected interval vector, got {}", other.tag()))),
    }
}

/// An `isum_*` accumulator builtin. Its first argument is taken by
/// address, so it receives the accumulator variable and the remaining
/// arguments unevaluated.
pub(crate) type AccFn = fn(&mut Interp, &Var, &[RExpr]) -> Result<Value, RtError>;

fn uninit() -> RtError {
    RtError::Type("accumulator not initialized".into())
}

/// Binds an accumulator builtin by name.
pub(crate) fn lookup_acc(name: &str) -> Option<AccFn> {
    Some(match name {
        "isum_init_f64" => |it, var, args| {
            let init = want_interval(&it.eval(&args[0])?)?;
            it.accs64.push(SumAcc64::new(init));
            it.store_var(var, Value::Acc64(it.accs64.len() - 1))?;
            Ok(Value::Unit)
        },
        "isum_accumulate_f64" => |it, var, args| {
            let term = want_interval(&it.eval(&args[0])?)?;
            let Value::Acc64(idx) = it.load_var(var)? else { return Err(uninit()) };
            it.accs64[idx].accumulate(&term);
            Ok(Value::Unit)
        },
        "isum_reduce_f64" => |it, var, _| match it.load_var(var)? {
            Value::Acc64(idx) => Ok(Value::Interval(it.accs64[idx].reduce())),
            _ => Err(uninit()),
        },
        "isum_init_dd" => |it, var, args| {
            let init = want_ddi(&it.eval(&args[0])?)?;
            it.accsdd.push(SumAccDd::new(init));
            it.store_var(var, Value::AccDd(it.accsdd.len() - 1))?;
            Ok(Value::Unit)
        },
        "isum_accumulate_dd" => |it, var, args| {
            let term = want_ddi(&it.eval(&args[0])?)?;
            let Value::AccDd(idx) = it.load_var(var)? else { return Err(uninit()) };
            it.accsdd[idx].accumulate(&term);
            Ok(Value::Unit)
        },
        "isum_reduce_dd" => |it, var, _| match it.load_var(var)? {
            Value::AccDd(idx) => Ok(Value::DdInterval(it.accsdd[idx].reduce())),
            _ => Err(uninit()),
        },
        _ => return None,
    })
}

/// Binds a value-level builtin by name: `None` when `name` is no
/// builtin (user functions take over), an error (raised when the call
/// is evaluated) for an unknown SIMD intrinsic.
pub(crate) fn lookup(name: &str) -> Option<Result<Builtin, RtError>> {
    // --- interval runtime: f64i ---------------------------------------
    let f: Builtin = match name {
        "ia_set_f64" => |_, v| {
            let (lo, hi) = (real(v, 0)?, real(v, 1)?);
            Ok(Value::Interval(F64I::new(lo, hi).map_err(inverted("ia_set_f64"))?))
        },
        "ia_set_tol_f64" => |_, v| Ok(Value::Interval(F64I::with_tol(real(v, 0)?, real(v, 1)?))),
        "ia_set_int_f64" => |_, v| Ok(Value::Interval(F64I::from_i64(int(v, 0)?))),
        "ia_add_f64" => |_, v| Ok(Value::Interval(ival(v, 0)? + ival(v, 1)?)),
        "ia_sub_f64" => |_, v| Ok(Value::Interval(ival(v, 0)? - ival(v, 1)?)),
        "ia_mul_f64" => |_, v| Ok(Value::Interval(ival(v, 0)? * ival(v, 1)?)),
        "ia_div_f64" => |_, v| Ok(Value::Interval(ival(v, 0)? / ival(v, 1)?)),
        "ia_neg_f64" => |_, v| Ok(Value::Interval(-ival(v, 0)?)),
        "ia_abs_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.abs())),
        "ia_sqrt_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.sqrt())),
        "ia_floor_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.floor())),
        "ia_ceil_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.ceil())),
        "ia_min_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.min_i(&ival(v, 1)?))),
        "ia_max_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.max_i(&ival(v, 1)?))),
        "ia_exp_f64" => |_, v| Ok(Value::Interval(elem::exp_interval(&ival(v, 0)?))),
        "ia_log_f64" => |_, v| Ok(Value::Interval(elem::log_interval(&ival(v, 0)?))),
        "ia_sin_f64" => |_, v| Ok(Value::Interval(elem::sin_interval(&ival(v, 0)?))),
        "ia_cos_f64" => |_, v| Ok(Value::Interval(elem::cos_interval(&ival(v, 0)?))),
        "ia_tan_f64" => |_, v| Ok(Value::Interval(elem::tan_interval(&ival(v, 0)?))),
        "ia_atan_f64" => |_, v| Ok(Value::Interval(elem::atan_interval(&ival(v, 0)?))),
        "ia_asin_f64" => |_, v| Ok(Value::Interval(elem::asin_interval(&ival(v, 0)?))),
        "ia_acos_f64" => |_, v| Ok(Value::Interval(elem::acos_interval(&ival(v, 0)?))),
        "ia_sqr_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.sqr())),
        "ia_pow_f64" => |_, v| {
            Ok(Value::Interval(
                ival(v, 0)?.powi(int(v, 1)?.clamp(i32::MIN as i64, i32::MAX as i64) as i32),
            ))
        },
        "ia_and_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.bitand_mask(&ival(v, 1)?))),
        "ia_or_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.bitor_mask(&ival(v, 1)?))),
        "ia_not_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.bitnot_mask())),
        "ia_xor_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.bitxor_mask(&ival(v, 1)?))),
        "ia_join_f64" => |_, v| Ok(Value::Interval(ival(v, 0)?.join(&ival(v, 1)?))),
        "ia_cmplt_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_lt(&ival(v, 1)?))),
        "ia_cmple_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_le(&ival(v, 1)?))),
        "ia_cmpgt_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_gt(&ival(v, 1)?))),
        "ia_cmpge_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_ge(&ival(v, 1)?))),
        "ia_cmpeq_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_eq(&ival(v, 1)?))),
        "ia_cmpne_f64" => |_, v| Ok(Value::TBool(ival(v, 0)?.cmp_ne(&ival(v, 1)?))),

        // --- f32i (single-precision target) ----------------------------
        "ia_set_f32" => |_, v| {
            let (lo, hi) = (real(v, 0)? as f32, real(v, 1)? as f32);
            Ok(Value::Interval32(F32I::new(lo, hi).map_err(inverted("ia_set_f32"))?))
        },
        "ia_set_tol_f32" => {
            |_, v| Ok(Value::Interval32(F32I::with_tol(real(v, 0)? as f32, real(v, 1)? as f32)))
        }
        "ia_set_int_f32" => |_, v| Ok(Value::Interval32(F32I::enclose_f64(int(v, 0)? as f64))),
        "ia_add_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)? + ival32(v, 1)?)),
        "ia_sub_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)? - ival32(v, 1)?)),
        "ia_mul_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)? * ival32(v, 1)?)),
        "ia_div_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)? / ival32(v, 1)?)),
        "ia_neg_f32" => |_, v| Ok(Value::Interval32(-ival32(v, 0)?)),
        "ia_sqrt_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)?.sqrt())),
        "ia_min_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)?.min_i(&ival32(v, 1)?))),
        "ia_max_f32" => |_, v| Ok(Value::Interval32(ival32(v, 0)?.max_i(&ival32(v, 1)?))),
        "ia_abs_f32" => |_, v| {
            let x = ival32(v, 0)?;
            Ok(Value::Interval32(x.max_i(&-x)))
        },
        // Elementary functions on the f32 target: evaluate the f64
        // enclosure and demote outward (sound; CRlibm would do the same
        // at higher precision).
        "ia_exp_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::exp_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_log_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::log_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_sin_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::sin_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_cos_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::cos_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_tan_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::tan_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_atan_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::atan_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_asin_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::asin_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_acos_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(&elem::acos_interval(&ival32(v, 0)?.to_f64i()))))
        },
        "ia_pow_f32" => |_, v| {
            Ok(Value::Interval32(F32I::from_f64i(
                &ival32(v, 0)?
                    .to_f64i()
                    .powi(int(v, 1)?.clamp(i32::MIN as i64, i32::MAX as i64) as i32),
            )))
        },
        "ia_floor_f32" => {
            |_, v| Ok(Value::Interval32(F32I::from_f64i(&ival32(v, 0)?.to_f64i().floor())))
        }
        "ia_ceil_f32" => {
            |_, v| Ok(Value::Interval32(F32I::from_f64i(&ival32(v, 0)?.to_f64i().ceil())))
        }
        "ia_cmplt_f32" => |_, v| Ok(Value::TBool(ival32(v, 0)?.cmp_lt(&ival32(v, 1)?))),
        "ia_cmpgt_f32" => |_, v| Ok(Value::TBool(ival32(v, 0)?.cmp_gt(&ival32(v, 1)?))),
        "ia_cmple_f32" => |_, v| Ok(Value::TBool(ival32(v, 1)?.cmp_gt(&ival32(v, 0)?).not())),
        "ia_cmpge_f32" => |_, v| Ok(Value::TBool(ival32(v, 0)?.cmp_lt(&ival32(v, 1)?).not())),
        "ia_cmpeq_f32" => |_, v| {
            let (a, b) = (ival32(v, 0)?.to_f64i(), ival32(v, 1)?.to_f64i());
            Ok(Value::TBool(a.cmp_eq(&b)))
        },
        "ia_cmpne_f32" => |_, v| {
            let (a, b) = (ival32(v, 0)?.to_f64i(), ival32(v, 1)?.to_f64i());
            Ok(Value::TBool(a.cmp_ne(&b)))
        },
        "ia_join_f32" => |_, v| {
            let (a, b) = (ival32(v, 0)?.to_f64i(), ival32(v, 1)?.to_f64i());
            Ok(Value::Interval32(F32I::from_f64i(&a.join(&b))))
        },
        "ia_cvt_f32_f64" => |_, v| Ok(Value::Interval(ival32(v, 0)?.to_f64i())),
        "ia_cvt_f64_f32" => |_, v| Ok(Value::Interval32(F32I::from_f64i(&ival(v, 0)?))),

        // --- tbool ---------------------------------------------------
        "ia_cvt2bool_tb" => |_, v| match tbool(v, 0)?.to_bool() {
            Ok(b) => Ok(Value::Int(b as i64)),
            Err(_) => Err(RtError::UnknownBranch),
        },
        "ia_is_true_tb" => |_, v| Ok(Value::Int(tbool(v, 0)?.is_true() as i64)),
        "ia_is_false_tb" => |_, v| Ok(Value::Int(tbool(v, 0)?.is_false() as i64)),

        // --- interval runtime: ddi ------------------------------------
        "ia_set_dd" => |_, v| {
            let (lo, hi) = (Dd::from(real(v, 0)?), Dd::from(real(v, 1)?));
            Ok(Value::DdInterval(DdI::new(lo, hi).map_err(inverted("ia_set_dd"))?))
        },
        "ia_set_ddx" => |_, v| {
            let lo = Dd::new(real(v, 0)?, real(v, 1)?);
            let hi = Dd::new(real(v, 2)?, real(v, 3)?);
            Ok(Value::DdInterval(DdI::new(lo, hi).map_err(inverted("ia_set_ddx"))?))
        },
        "ia_set_tol_dd" => {
            |_, v| Ok(Value::DdInterval(DdI::from_f64i(&F64I::with_tol(real(v, 0)?, real(v, 1)?))))
        }
        "ia_set_int_dd" => {
            |_, v| Ok(Value::DdInterval(DdI::from_f64i(&F64I::from_i64(int(v, 0)?))))
        }
        "ia_add_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)? + ddi(v, 1)?)),
        "ia_sub_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)? - ddi(v, 1)?)),
        "ia_mul_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)? * ddi(v, 1)?)),
        "ia_div_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)? / ddi(v, 1)?)),
        "ia_neg_dd" => |_, v| Ok(Value::DdInterval(-ddi(v, 0)?)),
        "ia_abs_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.abs())),
        "ia_sqrt_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.sqrt())),
        "ia_sqr_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.sqr())),
        "ia_pow_dd" => |_, v| {
            Ok(Value::DdInterval(
                ddi(v, 0)?.powi(int(v, 1)?.clamp(i32::MIN as i64, i32::MAX as i64) as i32),
            ))
        },
        "ia_min_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.min_i(&ddi(v, 1)?))),
        "ia_max_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.max_i(&ddi(v, 1)?))),
        "ia_join_dd" => |_, v| Ok(Value::DdInterval(ddi(v, 0)?.join(&ddi(v, 1)?))),
        "ia_cmplt_dd" => |_, v| Ok(Value::TBool(ddi(v, 0)?.cmp_lt(&ddi(v, 1)?))),
        "ia_cmpgt_dd" => |_, v| Ok(Value::TBool(ddi(v, 0)?.cmp_gt(&ddi(v, 1)?))),
        "ia_cmple_dd" => |_, v| Ok(Value::TBool(ddi(v, 1)?.cmp_gt(&ddi(v, 0)?).not())),
        "ia_cmpge_dd" => |_, v| Ok(Value::TBool(ddi(v, 0)?.cmp_lt(&ddi(v, 1)?).not())),
        "ia_cvt_f64_dd" => |_, v| Ok(Value::DdInterval(DdI::from_f64i(&ival(v, 0)?))),
        "ia_cvt_dd_f64" => |_, v| Ok(Value::Interval(ddi(v, 0)?.to_f64i())),

        // --- float-mode libm -------------------------------------------
        "sqrt" => |_, v| Ok(Value::F64(real(v, 0)?.sqrt())),
        "fabs" => |_, v| Ok(Value::F64(real(v, 0)?.abs())),
        "sin" => |_, v| Ok(Value::F64(real(v, 0)?.sin())),
        "cos" => |_, v| Ok(Value::F64(real(v, 0)?.cos())),
        "tan" => |_, v| Ok(Value::F64(real(v, 0)?.tan())),
        "atan" => |_, v| Ok(Value::F64(real(v, 0)?.atan())),
        "asin" => |_, v| Ok(Value::F64(real(v, 0)?.asin())),
        "acos" => |_, v| Ok(Value::F64(real(v, 0)?.acos())),
        "pow" => |_, v| Ok(Value::F64(real(v, 0)?.powf(real(v, 1)?))),
        "exp" => |_, v| Ok(Value::F64(real(v, 0)?.exp())),
        "log" => |_, v| Ok(Value::F64(real(v, 0)?.ln())),
        "floor" => |_, v| Ok(Value::F64(real(v, 0)?.floor())),
        "ceil" => |_, v| Ok(Value::F64(real(v, 0)?.ceil())),
        "fmin" => |_, v| Ok(Value::F64(real(v, 0)?.min(real(v, 1)?))),
        "fmax" => |_, v| Ok(Value::F64(real(v, 0)?.max(real(v, 1)?))),

        // --- float-mode SIMD intrinsics ---------------------------------
        _ if name.starts_with("_mm") => return Some(simd_float(name)),

        // --- interval-mode SIMD intrinsics -------------------------------
        _ if name.starts_with("ia_mm") => return Some(simd_interval(name)),

        _ => return None,
    };
    Some(Ok(f))
}

/// `vals[0] op vals[1]` lane by lane.
fn lanes_f(vals: &[Value], f: fn(f64, f64) -> f64) -> Result<Value, RtError> {
    let (x, y) = (vecf(vals, 0)?, vecf(vals, 1)?);
    Ok(Value::VecF64(x.iter().zip(&y).map(|(p, q)| f(*p, *q)).collect()))
}

/// `N` heap elements from the pointer `vals[0]` on, each converted by
/// `conv` (`what` names the element type an error reports).
fn load<T, const N: usize>(
    it: &Interp,
    vals: &[Value],
    conv: fn(&Value) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, RtError> {
    let Value::Ptr(obj, off) = vals[0] else {
        return Err(RtError::Type("load from non-pointer".into()));
    };
    (0..N)
        .map(|i| {
            conv(&it.heap_load(obj, off + i as i64)?)
                .ok_or_else(|| RtError::Type(format!("load of non-{what}")))
        })
        .collect()
}

/// Float-mode semantics of the supported SIMD intrinsics.
fn simd_float(name: &str) -> Result<Builtin, RtError> {
    Ok(match name {
        "_mm_add_pd" | "_mm256_add_pd" | "_mm_add_ps" | "_mm256_add_ps" => {
            |_, vals| lanes_f(vals, |a, b| a + b)
        }
        "_mm_sub_pd" | "_mm256_sub_pd" => |_, vals| lanes_f(vals, |a, b| a - b),
        "_mm_mul_pd" | "_mm256_mul_pd" | "_mm256_mul_ps" => |_, vals| lanes_f(vals, |a, b| a * b),
        "_mm_div_pd" | "_mm256_div_pd" => |_, vals| lanes_f(vals, |a, b| a / b),
        "_mm_min_pd" | "_mm256_min_pd" => |_, vals| lanes_f(vals, f64::min),
        "_mm_max_pd" | "_mm256_max_pd" => |_, vals| lanes_f(vals, f64::max),
        "_mm_sqrt_pd" | "_mm256_sqrt_pd" => {
            |_, vals| Ok(Value::VecF64(vecf(vals, 0)?.iter().map(|v| v.sqrt()).collect()))
        }
        "_mm_set1_pd" => |_, v| Ok(Value::VecF64(vec![real(v, 0)?; 2])),
        "_mm256_set1_pd" => |_, v| Ok(Value::VecF64(vec![real(v, 0)?; 4])),
        "_mm_setzero_pd" => |_, _| Ok(Value::VecF64(vec![0.0; 2])),
        "_mm256_setzero_pd" => |_, _| Ok(Value::VecF64(vec![0.0; 4])),
        "_mm_loadu_pd" | "_mm_load_pd" => {
            |it, v| Ok(Value::VecF64(load::<_, 2>(it, v, Value::as_f64, "double")?))
        }
        "_mm256_loadu_pd" | "_mm256_load_pd" => {
            |it, v| Ok(Value::VecF64(load::<_, 4>(it, v, Value::as_f64, "double")?))
        }
        "_mm_storeu_pd" | "_mm_store_pd" | "_mm256_storeu_pd" | "_mm256_store_pd" => |it, vals| {
            let Value::Ptr(obj, off) = vals[0] else {
                return Err(RtError::Type("store to non-pointer".into()));
            };
            let x = vecf(vals, 1)?;
            for (i, v) in x.iter().enumerate() {
                it.heap_store(obj, off + i as i64, Value::F64(*v))?;
            }
            Ok(Value::Unit)
        },
        "_mm256_fmadd_pd" => |_, vals| {
            let (a, b, c) = (vecf(vals, 0)?, vecf(vals, 1)?, vecf(vals, 2)?);
            Ok(Value::VecF64(a.iter().zip(&b).zip(&c).map(|((x, y), z)| x * y + z).collect()))
        },
        "_mm256_hadd_pd" => |_, vals| {
            let (a, b) = (vecf(vals, 0)?, vecf(vals, 1)?);
            Ok(Value::VecF64(vec![a[0] + a[1], b[0] + b[1], a[2] + a[3], b[2] + b[3]]))
        },
        "_mm256_unpacklo_pd" => |_, vals| {
            let (a, b) = (vecf(vals, 0)?, vecf(vals, 1)?);
            Ok(Value::VecF64(vec![a[0], b[0], a[2], b[2]]))
        },
        "_mm256_unpackhi_pd" => |_, vals| {
            let (a, b) = (vecf(vals, 0)?, vecf(vals, 1)?);
            Ok(Value::VecF64(vec![a[1], b[1], a[3], b[3]]))
        },
        other => return Err(RtError::Missing(format!("float intrinsic {other}"))),
    })
}

/// `vals[0] op vals[1]` interval lane by lane.
fn lanes_i(vals: &[Value], f: fn(F64I, F64I) -> F64I) -> Result<Value, RtError> {
    let (x, y) = (veci(vals, 0)?, veci(vals, 1)?);
    Ok(Value::VecInterval(x.iter().zip(&y).map(|(p, q)| f(*p, *q)).collect()))
}

/// Interval-mode semantics of the SIMD intrinsics (`ia_mm…` — the
/// interval implementations of Section V). One interval per
/// floating-point lane (Table II: an interval fills one __m128d, so a
/// __m256d operand becomes 4 packed intervals).
fn simd_interval(name: &str) -> Result<Builtin, RtError> {
    // `ia_mm256_add_pd` corresponds to the intrinsic `_mm256_add_pd`.
    let base = format!("_{}", name.strip_prefix("ia_").expect("prefixed"));
    Ok(match base.as_str() {
        "_mm_add_pd" | "_mm256_add_pd" => |_, vals| lanes_i(vals, |a, b| a + b),
        "_mm_sub_pd" | "_mm256_sub_pd" => |_, vals| lanes_i(vals, |a, b| a - b),
        "_mm_mul_pd" | "_mm256_mul_pd" => |_, vals| lanes_i(vals, |a, b| a * b),
        "_mm_div_pd" | "_mm256_div_pd" => |_, vals| lanes_i(vals, |a, b| a / b),
        "_mm_min_pd" | "_mm256_min_pd" => |_, vals| lanes_i(vals, |a, b| a.min_i(&b)),
        "_mm_max_pd" | "_mm256_max_pd" => |_, vals| lanes_i(vals, |a, b| a.max_i(&b)),
        "_mm_sqrt_pd" | "_mm256_sqrt_pd" => {
            |_, vals| Ok(Value::VecInterval(veci(vals, 0)?.iter().map(|v| v.sqrt()).collect()))
        }
        "_mm_set1_pd" => |_, v| Ok(Value::VecInterval(vec![ival(v, 0)?; 2])),
        "_mm256_set1_pd" => |_, v| Ok(Value::VecInterval(vec![ival(v, 0)?; 4])),
        "_mm_setzero_pd" => |_, _| Ok(Value::VecInterval(vec![F64I::ZERO; 2])),
        "_mm256_setzero_pd" => |_, _| Ok(Value::VecInterval(vec![F64I::ZERO; 4])),
        "_mm_loadu_pd" | "_mm_load_pd" => {
            |it, v| Ok(Value::VecInterval(load::<_, 2>(it, v, Value::as_interval, "interval")?))
        }
        "_mm256_loadu_pd" | "_mm256_load_pd" => {
            |it, v| Ok(Value::VecInterval(load::<_, 4>(it, v, Value::as_interval, "interval")?))
        }
        "_mm_storeu_pd" | "_mm_store_pd" | "_mm256_storeu_pd" | "_mm256_store_pd" => |it, vals| {
            let Value::Ptr(obj, off) = vals[0] else {
                return Err(RtError::Type("store to non-pointer".into()));
            };
            let x = veci(vals, 1)?;
            for (i, v) in x.iter().enumerate() {
                it.heap_store(obj, off + i as i64, Value::Interval(*v))?;
            }
            Ok(Value::Unit)
        },
        "_mm256_fmadd_pd" => |_, vals| {
            let (a, b, c) = (veci(vals, 0)?, veci(vals, 1)?, veci(vals, 2)?);
            Ok(Value::VecInterval(
                a.iter().zip(&b).zip(&c).map(|((x, y), z)| *x * *y + *z).collect(),
            ))
        },
        "_mm256_hadd_pd" => |_, vals| {
            let (a, b) = (veci(vals, 0)?, veci(vals, 1)?);
            Ok(Value::VecInterval(vec![a[0] + a[1], b[0] + b[1], a[2] + a[3], b[2] + b[3]]))
        },
        other => return Err(RtError::Missing(format!("interval intrinsic {other}"))),
    })
}
