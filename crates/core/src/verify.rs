//! Differential pass verification.
//!
//! With [`Config::verify_passes`](crate::Config) set, the pass manager
//! re-executes the before/after IR of every *exact* optimization pass
//! under the reference interpreter (`igen-interp`) on deterministic
//! pseudo-random inputs and requires identical observable results —
//! interval endpoints bit-for-bit, and runtime exceptions (unknown
//! branches, missing symbols, …) alike. This is sound because the
//! interpreter executes the same `igen_interval` methods the folding
//! pass evaluates at compile time.
//!
//! Functions are verified when every parameter has a scalar type the
//! driver can synthesize (`f64i`, `double`, integers); pointer, SIMD and
//! accumulator signatures are skipped — passes still cover them through
//! the golden-file and end-to-end interpreter tests.

use crate::lower::CompileError;
use igen_cfront::Type;
use igen_interp::{Interp, RtError, Value};
use igen_interval::F64I;
use igen_ir::{emit_unit, IrUnit};

/// Trials per function; each trial uses a fresh interpreter so heap and
/// global state cannot leak between runs.
const TRIALS: u64 = 6;

/// A `splitmix64` generator: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn seed_for(name: &str) -> u64 {
    // FNV-1a over the function name: stable across runs and platforms.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A synthesizable argument for one parameter type.
fn gen_value(ty: &Type, rng: &mut Rng) -> Option<Value> {
    match ty {
        Type::Int | Type::UInt | Type::Long | Type::ULong => {
            Some(Value::Int((rng.next() % 5) as i64))
        }
        Type::Float | Type::Double => Some(Value::F64(rng.f64_in(-4.0, 4.0))),
        Type::Named(n) if n == "f64i" => {
            let lo = rng.f64_in(-4.0, 4.0);
            let hi = lo + rng.f64_in(0.0, 0.5);
            Some(Value::Interval(F64I::new(lo, hi).ok()?))
        }
        _ => None,
    }
}

/// Bit-level comparison: interval endpoints and doubles compare by bit
/// pattern (so identical NaN results still match), everything else by
/// structural equality.
fn bit_eq(a: &Value, b: &Value) -> bool {
    fn ieq(x: &F64I, y: &F64I) -> bool {
        x.lo().to_bits() == y.lo().to_bits() && x.hi().to_bits() == y.hi().to_bits()
    }
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Interval(x), Value::Interval(y)) => ieq(x, y),
        (Value::VecInterval(x), Value::VecInterval(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| ieq(x, y))
        }
        _ => a == b,
    }
}

fn outcome_str(r: &Result<Value, RtError>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("error: {e}"),
    }
}

fn outcomes_match(a: &Result<Value, RtError>, b: &Result<Value, RtError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => bit_eq(x, y),
        // RtError does not implement PartialEq; the rendered message is a
        // faithful discriminator.
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

/// Differentially verifies one pass execution.
///
/// # Errors
///
/// [`CompileError::VerifierMismatch`] when any verified function
/// produces different observable results before and after the pass.
pub(crate) fn check_pass(
    before: &IrUnit,
    after: &IrUnit,
    pass: &'static str,
) -> Result<(), CompileError> {
    let ast_before = emit_unit(before);
    let ast_after = emit_unit(after);
    for f in after.functions() {
        if f.body.is_none() {
            continue;
        }
        if !f.params.iter().all(|p| gen_value(&p.ty, &mut Rng(1)).is_some()) {
            continue;
        }
        let mut rng = Rng(seed_for(&f.name));
        for trial in 0..TRIALS {
            let args: Vec<Value> = f
                .params
                .iter()
                .map(|p| gen_value(&p.ty, &mut rng).expect("checked synthesizable"))
                .collect();
            let r1 = Interp::new(&ast_before).call(&f.name, args.clone());
            let r2 = Interp::new(&ast_after).call(&f.name, args.clone());
            if !outcomes_match(&r1, &r2) {
                return Err(CompileError::VerifierMismatch {
                    pass,
                    detail: format!(
                        "function {} diverges on trial {trial} with inputs {args:?}: \
                         before = {}, after = {}",
                        f.name,
                        outcome_str(&r1),
                        outcome_str(&r2)
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check_pass;
    use igen_ir::{build_unit, IrUnit};

    fn unit(src: &str) -> IrUnit {
        build_unit(&igen_cfront::parse(src).expect("parse"))
    }

    #[test]
    fn identical_units_verify() {
        let u = unit("f64i f(f64i a, f64i b) { f64i t1 = ia_add_f64(a, b); return t1; }");
        check_pass(&u, &u.clone(), "test").expect("identical units must verify");
    }

    #[test]
    fn a_miscompiling_pass_is_caught() {
        let before = unit("f64i f(f64i a, f64i b) { f64i t1 = ia_add_f64(a, b); return t1; }");
        let after = unit("f64i f(f64i a, f64i b) { f64i t1 = ia_sub_f64(a, b); return t1; }");
        let err = check_pass(&before, &after, "bad").expect_err("add -> sub must be flagged");
        let msg = err.to_string();
        assert!(msg.contains("`bad`") && msg.contains("f diverges"), "{msg}");
    }

    #[test]
    fn unsynthesizable_signatures_are_skipped() {
        // Pointer parameters cannot be synthesized; the divergence is
        // invisible to the verifier and must not abort compilation.
        let before = unit("f64i g(f64i* p) { f64i t1 = ia_add_f64(p[0], p[0]); return t1; }");
        let after = unit("f64i g(f64i* p) { f64i t1 = ia_sub_f64(p[0], p[0]); return t1; }");
        check_pass(&before, &after, "test").expect("pointer signatures are skipped");
    }
}
