//! Interval operation metadata: the opcode set of the IR, with the
//! endpoint-precision suffix, purity and cost of every operation.
//!
//! Every runtime call emitted by the compiler (`ia_*`, `isum_*`) is an
//! [`OpKind`] plus a [`Sfx`]; the mapping between opcodes and C names is
//! exact and bijective so that lowering a call name to an opcode and
//! printing it back reproduces the original spelling byte-for-byte.

/// Endpoint precision suffix of an interval operation (`_f32`, `_f64`,
/// `_dd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sfx {
    /// Single precision endpoints (`f32i`).
    F32,
    /// Double precision endpoints (`f64i`).
    F64,
    /// Double-double endpoints (`ddi`).
    Dd,
}

impl Sfx {
    /// The C name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            Sfx::F32 => "f32",
            Sfx::F64 => "f64",
            Sfx::Dd => "dd",
        }
    }

    fn parse(s: &str) -> Option<Sfx> {
        match s {
            "f32" => Some(Sfx::F32),
            "f64" => Some(Sfx::F64),
            "dd" => Some(Sfx::Dd),
            _ => None,
        }
    }
}

/// The opcode of one interval runtime operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `ia_add_*`
    Add,
    /// `ia_sub_*`
    Sub,
    /// `ia_mul_*`
    Mul,
    /// `ia_div_*`
    Div,
    /// `ia_neg_*`
    Neg,
    /// `ia_sqr_*` — dependency-aware square.
    Sqr,
    /// `ia_pow_*` — integer power.
    Pow,
    /// `ia_sqrt_*`
    Sqrt,
    /// `ia_abs_*`
    Abs,
    /// `ia_floor_*`
    Floor,
    /// `ia_ceil_*`
    Ceil,
    /// `ia_exp_*`
    Exp,
    /// `ia_log_*`
    Log,
    /// `ia_sin_*`
    Sin,
    /// `ia_cos_*`
    Cos,
    /// `ia_tan_*`
    Tan,
    /// `ia_atan_*`
    Atan,
    /// `ia_asin_*`
    Asin,
    /// `ia_acos_*`
    Acos,
    /// `ia_min_*`
    Min,
    /// `ia_max_*`
    Max,
    /// `ia_join_*` — convex hull (join-branches policy).
    Join,
    /// `ia_set_*` — interval constant from two endpoint literals.
    Set,
    /// `ia_set_int_*` — exact conversion of an integer.
    SetInt,
    /// `ia_set_tol_*` — tolerance annotation (Fig. 3).
    SetTol,
    /// `ia_set_ddx` — double-double constant with four components.
    SetDdx,
    /// `ia_cmplt_*` → `tbool`
    CmpLt,
    /// `ia_cmple_*` → `tbool`
    CmpLe,
    /// `ia_cmpgt_*` → `tbool`
    CmpGt,
    /// `ia_cmpge_*` → `tbool`
    CmpGe,
    /// `ia_cmpeq_*` → `tbool`
    CmpEq,
    /// `ia_cmpne_*` → `tbool`
    CmpNe,
    /// `ia_cvt2bool_tb` — decide a three-valued boolean; **signals** on
    /// the unknown state, so it is never dead-code-eliminated.
    Cvt2Bool,
    /// `ia_is_true_tb`
    IsTrue,
    /// `ia_is_false_tb`
    IsFalse,
    /// `ia_and_*` — endpoint-wise mask and.
    And,
    /// `ia_or_*`
    Or,
    /// `ia_xor_*`
    Xor,
    /// `ia_not_*`
    Not,
    /// `isum_init_*` — accurate accumulator initialization (Fig. 7).
    SumInit,
    /// `isum_accumulate_*`
    SumAccumulate,
    /// `isum_reduce_*`
    SumReduce,
    /// A hand-optimized SIMD interval kernel `ia_mm…`; the payload is the
    /// full name tail after `ia_` (e.g. `mm256_add_pd`).
    Simd(String),
}

impl OpKind {
    /// The `_`-separated middle tag of suffixed `ia_` names, if this
    /// opcode uses that naming scheme.
    fn name_tag(&self) -> Option<&'static str> {
        use OpKind::*;
        Some(match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Neg => "neg",
            Sqr => "sqr",
            Pow => "pow",
            Sqrt => "sqrt",
            Abs => "abs",
            Floor => "floor",
            Ceil => "ceil",
            Exp => "exp",
            Log => "log",
            Sin => "sin",
            Cos => "cos",
            Tan => "tan",
            Atan => "atan",
            Asin => "asin",
            Acos => "acos",
            Min => "min",
            Max => "max",
            Join => "join",
            Set => "set",
            SetInt => "set_int",
            SetTol => "set_tol",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            CmpGt => "cmpgt",
            CmpGe => "cmpge",
            CmpEq => "cmpeq",
            CmpNe => "cmpne",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            _ => return None,
        })
    }

    fn from_name_tag(tag: &str) -> Option<OpKind> {
        use OpKind::*;
        Some(match tag {
            "add" => Add,
            "sub" => Sub,
            "mul" => Mul,
            "div" => Div,
            "neg" => Neg,
            "sqr" => Sqr,
            "pow" => Pow,
            "sqrt" => Sqrt,
            "abs" => Abs,
            "floor" => Floor,
            "ceil" => Ceil,
            "exp" => Exp,
            "log" => Log,
            "sin" => Sin,
            "cos" => Cos,
            "tan" => Tan,
            "atan" => Atan,
            "asin" => Asin,
            "acos" => Acos,
            "min" => Min,
            "max" => Max,
            "join" => Join,
            "set" => Set,
            "set_int" => SetInt,
            "set_tol" => SetTol,
            "cmplt" => CmpLt,
            "cmple" => CmpLe,
            "cmpgt" => CmpGt,
            "cmpge" => CmpGe,
            "cmpeq" => CmpEq,
            "cmpne" => CmpNe,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "not" => Not,
            _ => return None,
        })
    }

    /// Parses a runtime call name into `(opcode, suffix)`. Names outside
    /// the runtime interface return `None` and stay ordinary calls.
    /// Suffix-less operations (`ia_set_ddx`, the `_tb` queries, SIMD
    /// kernels) report [`Sfx::F64`]; printing ignores it for them.
    pub fn parse(name: &str) -> Option<(OpKind, Sfx)> {
        match name {
            "ia_set_ddx" => return Some((OpKind::SetDdx, Sfx::F64)),
            "ia_cvt2bool_tb" => return Some((OpKind::Cvt2Bool, Sfx::F64)),
            "ia_is_true_tb" => return Some((OpKind::IsTrue, Sfx::F64)),
            "ia_is_false_tb" => return Some((OpKind::IsFalse, Sfx::F64)),
            _ => {}
        }
        if let Some(tail) = name.strip_prefix("ia_mm") {
            return Some((OpKind::Simd(format!("mm{tail}")), Sfx::F64));
        }
        if let Some(rest) = name.strip_prefix("isum_") {
            let (tag, sfx) = rest.rsplit_once('_')?;
            let sfx = Sfx::parse(sfx)?;
            let op = match tag {
                "init" => OpKind::SumInit,
                "accumulate" => OpKind::SumAccumulate,
                "reduce" => OpKind::SumReduce,
                _ => return None,
            };
            return Some((op, sfx));
        }
        let rest = name.strip_prefix("ia_")?;
        let (tag, sfx) = rest.rsplit_once('_')?;
        let sfx = Sfx::parse(sfx)?;
        Some((OpKind::from_name_tag(tag)?, sfx))
    }

    /// The exact C runtime name of this operation at the given precision
    /// (inverse of [`OpKind::parse`]).
    pub fn c_name(&self, sfx: Sfx) -> String {
        match self {
            OpKind::SetDdx => "ia_set_ddx".to_string(),
            OpKind::Cvt2Bool => "ia_cvt2bool_tb".to_string(),
            OpKind::IsTrue => "ia_is_true_tb".to_string(),
            OpKind::IsFalse => "ia_is_false_tb".to_string(),
            OpKind::Simd(tail) => format!("ia_{tail}"),
            OpKind::SumInit => format!("isum_init_{}", sfx.as_str()),
            OpKind::SumAccumulate => format!("isum_accumulate_{}", sfx.as_str()),
            OpKind::SumReduce => format!("isum_reduce_{}", sfx.as_str()),
            other => {
                let tag = other.name_tag().expect("suffixed ia_ op");
                format!("ia_{tag}_{}", sfx.as_str())
            }
        }
    }

    /// Free of side effects: executing the operation changes no state
    /// other than producing its value. Accumulator operations mutate the
    /// accumulator; SIMD stores write memory.
    pub fn side_effect_free(&self) -> bool {
        match self {
            OpKind::SumInit | OpKind::SumAccumulate | OpKind::SumReduce => false,
            OpKind::Simd(tail) => !tail.contains("store"),
            _ => true,
        }
    }

    /// Safe to delete when the result is unused. Side-effecting
    /// operations are not, and neither is `ia_cvt2bool_tb`: it signals an
    /// exception on the unknown state, which deleting would suppress.
    pub fn removable_if_dead(&self) -> bool {
        self.side_effect_free() && *self != OpKind::Cvt2Bool
    }

    /// A deterministic pure function of its argument *values*: two
    /// occurrences with identical arguments produce identical results, so
    /// common-subexpression elimination may merge them. SIMD loads read
    /// memory through a pointer argument and are excluded.
    pub fn cse_safe(&self) -> bool {
        match self {
            OpKind::Simd(tail) => !tail.contains("store") && !tail.contains("load"),
            other => other.side_effect_free(),
        }
    }

    /// Abstract cost in units of one directed-rounding addition — the
    /// per-pass cost deltas of `--dump-passes` are sums of these. The
    /// figures follow the relative latencies of the paper's runtime,
    /// where every operation pays for software directed rounding via
    /// error-free transformations.
    pub fn cost(&self) -> u64 {
        use OpKind::*;
        match self {
            Set | SetInt | SetTol | SetDdx => 1,
            Cvt2Bool | IsTrue | IsFalse => 1,
            Add | Sub | Neg | Abs | Floor | Ceil | Min | Max | Join => 2,
            CmpLt | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe => 2,
            And | Or | Xor | Not => 2,
            Mul | Sqr => 4,
            Div | Sqrt => 8,
            Pow => 12,
            Exp | Log | Sin | Cos | Tan | Atan | Asin | Acos => 20,
            SumInit => 4,
            SumAccumulate => 8,
            SumReduce => 12,
            Simd(_) => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trip() {
        for name in [
            "ia_add_f64",
            "ia_sub_f32",
            "ia_mul_dd",
            "ia_set_f64",
            "ia_set_int_f32",
            "ia_set_tol_f64",
            "ia_set_ddx",
            "ia_cmplt_f64",
            "ia_cvt2bool_tb",
            "ia_is_true_tb",
            "ia_is_false_tb",
            "ia_sqr_f64",
            "ia_pow_f64",
            "ia_join_dd",
            "ia_and_f64",
            "ia_not_f64",
            "isum_init_f64",
            "isum_accumulate_dd",
            "isum_reduce_f32",
            "ia_mm256_add_pd",
            "ia_mm_loadu_pd",
        ] {
            let (op, sfx) = OpKind::parse(name).unwrap_or_else(|| panic!("parse {name}"));
            assert_eq!(op.c_name(sfx), name);
        }
    }

    #[test]
    fn non_runtime_names_rejected() {
        for name in ["foo", "_c_mm256_unpacklo_pd", "_mm256_add_pd", "malloc", "ia_bogus_f64"] {
            assert!(OpKind::parse(name).is_none(), "{name}");
        }
    }

    #[test]
    fn purity_classes() {
        assert!(OpKind::Add.side_effect_free());
        assert!(OpKind::Add.removable_if_dead());
        assert!(OpKind::Add.cse_safe());
        assert!(!OpKind::SumAccumulate.side_effect_free());
        assert!(OpKind::Cvt2Bool.side_effect_free());
        assert!(!OpKind::Cvt2Bool.removable_if_dead());
        assert!(!OpKind::Simd("mm256_storeu_pd".into()).side_effect_free());
        assert!(!OpKind::Simd("mm256_loadu_pd".into()).cse_safe());
        assert!(OpKind::Simd("mm256_mul_pd".into()).cse_safe());
    }
}
