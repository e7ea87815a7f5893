//! The register bytecode: a flat instruction list over dense virtual
//! registers, with pooled constants and declared inputs/outputs.
//!
//! A [`Program`] is precision-tagged but otherwise representation-free:
//! the same bytecode runs width-1 scalar (`F64I`, `DdI`) and 4-wide
//! packed (`F64Ix4`, `DdIx4`) through the one executor loop in
//! [`crate::exec`]. Registers are single-assignment by construction
//! (the lowering pass emits a fresh register per operation and aliases
//! copies away), input registers are `0..n_inputs`, and every constant
//! lives in the pool as four binary64 components — enough to hold a
//! double-double interval exactly, with the low components zero for
//! `f64` programs.
//!
//! One table maps an instruction to what it does: its destination and
//! its `Action`, a pool constant or a [`SweepOp`] over its sources.
//! `Insn::decode` returns that pair, for the peephole pass, validation
//! and the listing; the executor expands the same table in place
//! (`decoded!`), so each instruction kind runs its op from its own arm.

use igen_interval::SweepOp;

/// Target endpoint precision of a program. The bytecode deliberately
/// has no `f32` variant: the lowering pass rejects `f32i` functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Binary64 endpoints (`f64i`).
    F64,
    /// Double-double endpoints (`ddi`).
    Dd,
}

impl Precision {
    /// Stable lower-case name (matches `igen_core::Config::suffix`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::Dd => "dd",
        }
    }
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One pooled constant: a full double-double interval as four binary64
/// components `[lo_hi + lo_lo, hi_hi + hi_lo]` (the `ia_set_ddx`
/// layout). `f64` programs use only `lo_hi`/`hi_hi` and keep the low
/// components at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConst {
    /// High component of the lower endpoint.
    pub lo_hi: f64,
    /// Low component of the lower endpoint.
    pub lo_lo: f64,
    /// High component of the upper endpoint.
    pub hi_hi: f64,
    /// Low component of the upper endpoint.
    pub hi_lo: f64,
}

impl PoolConst {
    /// An `f64` constant `[lo, hi]` (low components zero).
    pub fn f64_pair(lo: f64, hi: f64) -> PoolConst {
        PoolConst { lo_hi: lo, lo_lo: 0.0, hi_hi: hi, hi_lo: 0.0 }
    }

    /// The bit-pattern key used to deduplicate pool entries (`-0.0`
    /// and `0.0` are distinct, NaN payloads are preserved).
    pub fn bits(&self) -> [u64; 4] {
        [self.lo_hi.to_bits(), self.lo_lo.to_bits(), self.hi_hi.to_bits(), self.hi_lo.to_bits()]
    }
}

/// One bytecode instruction. Operands are virtual register indices;
/// `dst` is always a previously unwritten register (single assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst ← consts[idx]`
    Const {
        /// Destination register.
        dst: u32,
        /// Constant-pool index.
        idx: u32,
    },
    /// `dst ← a + b`
    Add {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← a - b`
    Sub {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← a * b`
    Mul {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← a / b`
    Div {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← min(a, b)` pointwise
    Min {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← max(a, b)` pointwise
    Max {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst ← -a`
    Neg {
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// `dst ← sqrt(a)`
    Sqrt {
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// `dst ← |a|`
    Abs {
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// `dst ← a²` (the dependency-aware square)
    Sqr {
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// `dst ← aⁿ` (integer exponent, clamped to `i32` like the
    /// `ia_pow_*` builtins)
    Pow {
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
        /// Exponent.
        n: i32,
    },
    /// `dst ← acc + (a * b)` — a *dispatch-fused* multiply-accumulate:
    /// the product is rounded exactly as a standalone `Mul` and the sum
    /// exactly as a standalone `Add` with the product as the **right**
    /// operand, so the result is bit-identical to the unfused pair.
    /// This is not an FMA (which would round once); only the temporary
    /// register and the second dispatch are eliminated.
    MulAdd {
        /// Destination register.
        dst: u32,
        /// Product left operand register.
        a: u32,
        /// Product right operand register.
        b: u32,
        /// Accumulator register (left operand of the add).
        acc: u32,
    },
    /// `dst ← acc - (a * b)` — the subtracting twin of [`Insn::MulAdd`],
    /// with the product as the subtrahend. Same exactness argument:
    /// both roundings are preserved, only the dispatch is fused.
    MulSub {
        /// Destination register.
        dst: u32,
        /// Product left operand register.
        a: u32,
        /// Product right operand register.
        b: u32,
        /// Accumulator register (minuend of the sub).
        acc: u32,
    },
}

/// What one instruction writes to its destination: a pool constant, or
/// an arithmetic op over its sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Pool constant `idx`.
    Const(u32),
    /// `op` over the sources `[a, b, acc]`; an entry the op does not
    /// read repeats `a`.
    Op(SweepOp, [u32; 3]),
}

impl Action {
    /// The source registers the action reads, in operand order.
    pub(crate) fn srcs(&self) -> &[u32] {
        match self {
            Action::Const(_) => &[],
            Action::Op(op, src) => &src[..op.arity()],
        }
    }

    /// The same action with every source register renamed by `f`.
    pub(crate) fn map_srcs(self, f: impl FnMut(u32) -> u32) -> Action {
        match self {
            Action::Const(_) => self,
            Action::Op(op, src) => Action::Op(op, src.map(f)),
        }
    }
}

/// The one table from instructions to what they do: evaluates `$body`
/// in the arm of each instruction kind, with `$dst` bound to the
/// destination register and `$action` to the [`Action`]. A `$body` that
/// matches on the action sees a constant op in each arm, so the
/// executor dispatches with one match per instruction.
macro_rules! decoded {
    ($insn:expr, |$dst:ident, $action:ident| $body:expr) => {{
        use igen_interval::SweepOp as Op;
        use $crate::bytecode::{Action::Op as A, Insn};
        match *$insn {
            Insn::Const { dst: $dst, idx } => {
                let $action = $crate::bytecode::Action::Const(idx);
                $body
            }
            Insn::Add { dst: $dst, a, b } => {
                let $action = A(Op::Add, [a, b, a]);
                $body
            }
            Insn::Sub { dst: $dst, a, b } => {
                let $action = A(Op::Sub, [a, b, a]);
                $body
            }
            Insn::Mul { dst: $dst, a, b } => {
                let $action = A(Op::Mul, [a, b, a]);
                $body
            }
            Insn::Div { dst: $dst, a, b } => {
                let $action = A(Op::Div, [a, b, a]);
                $body
            }
            Insn::Min { dst: $dst, a, b } => {
                let $action = A(Op::Min, [a, b, a]);
                $body
            }
            Insn::Max { dst: $dst, a, b } => {
                let $action = A(Op::Max, [a, b, a]);
                $body
            }
            Insn::Neg { dst: $dst, a } => {
                let $action = A(Op::Neg, [a; 3]);
                $body
            }
            Insn::Sqrt { dst: $dst, a } => {
                let $action = A(Op::Sqrt, [a; 3]);
                $body
            }
            Insn::Abs { dst: $dst, a } => {
                let $action = A(Op::Abs, [a; 3]);
                $body
            }
            Insn::Sqr { dst: $dst, a } => {
                let $action = A(Op::Sqr, [a; 3]);
                $body
            }
            Insn::Pow { dst: $dst, a, n } => {
                let $action = A(Op::Pow(n), [a; 3]);
                $body
            }
            Insn::MulAdd { dst: $dst, a, b, acc } => {
                let $action = A(Op::MulAdd, [a, b, acc]);
                $body
            }
            Insn::MulSub { dst: $dst, a, b, acc } => {
                let $action = A(Op::MulSub, [a, b, acc]);
                $body
            }
        }
    }};
}
pub(crate) use decoded;

impl Insn {
    /// The instruction's destination register and [`Action`].
    pub(crate) fn decode(&self) -> (u32, Action) {
        decoded!(self, |dst, action| (dst, action))
    }

    /// The instruction that writes `action` to `dst`: the inverse of
    /// [`Insn::decode`].
    pub(crate) fn encode(dst: u32, action: Action) -> Insn {
        let (op, [a, b, acc]) = match action {
            Action::Const(idx) => return Insn::Const { dst, idx },
            Action::Op(op, src) => (op, src),
        };
        match op {
            SweepOp::Add => Insn::Add { dst, a, b },
            SweepOp::Sub => Insn::Sub { dst, a, b },
            SweepOp::Mul => Insn::Mul { dst, a, b },
            SweepOp::Div => Insn::Div { dst, a, b },
            SweepOp::Min => Insn::Min { dst, a, b },
            SweepOp::Max => Insn::Max { dst, a, b },
            SweepOp::Neg => Insn::Neg { dst, a },
            SweepOp::Sqrt => Insn::Sqrt { dst, a },
            SweepOp::Abs => Insn::Abs { dst, a },
            SweepOp::Sqr => Insn::Sqr { dst, a },
            SweepOp::Pow(n) => Insn::Pow { dst, a, n },
            SweepOp::MulAdd => Insn::MulAdd { dst, a, b, acc },
            SweepOp::MulSub => Insn::MulSub { dst, a, b, acc },
        }
    }

    /// The instruction's lower-case mnemonic (matches [`Program::dump`]).
    pub fn op_name(&self) -> &'static str {
        match self.decode().1 {
            Action::Const(_) => "const",
            Action::Op(op, _) => mnemonic(op),
        }
    }

    /// The destination register.
    pub fn dst(&self) -> u32 {
        self.decode().0
    }
}

/// The mnemonic [`Program::dump`] prints for an instruction running `op`.
fn mnemonic(op: SweepOp) -> &'static str {
    match op {
        SweepOp::Add => "add",
        SweepOp::Sub => "sub",
        SweepOp::Mul => "mul",
        SweepOp::Div => "div",
        SweepOp::Min => "min",
        SweepOp::Max => "max",
        SweepOp::Neg => "neg",
        SweepOp::Sqrt => "sqrt",
        SweepOp::Abs => "abs",
        SweepOp::Sqr => "sqr",
        SweepOp::Pow(_) => "pow",
        SweepOp::MulAdd => "muladd",
        SweepOp::MulSub => "mulsub",
    }
}

/// The source location one bytecode instruction originated from
/// (1-based line and column of the source expression; 0 = unknown,
/// e.g. synthesized constants with no single source site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SrcLoc {
    /// 1-based source line (0 = unknown).
    pub line: u32,
    /// 1-based source column (0 = unknown).
    pub col: u32,
}

impl SrcLoc {
    /// Whether this location names a real source site.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }
}

/// Source-provenance side table: `sites[i]` is the source location of
/// `insns[i]`. Kept *parallel* to the instruction stream (never encoded
/// into it), so [`Program::dump`] — and therefore the golden bytecode
/// listings — are unchanged by provenance. Every transformation that
/// reorders, drops or fuses instructions (peephole rewriting, dead-code
/// elimination, liveness renumbering) transforms the side table
/// identically; [`Program::validate`] checks the lengths stay in sync.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DebugMap {
    /// One source location per instruction, by instruction index.
    /// Empty means "no provenance recorded" (hand-built programs).
    pub sites: Vec<SrcLoc>,
}

impl DebugMap {
    /// The source location of instruction `insn_idx` (unknown when the
    /// map is empty or out of range).
    pub fn site(&self, insn_idx: usize) -> SrcLoc {
        self.sites.get(insn_idx).copied().unwrap_or_default()
    }
}

/// One declared program output: a label (for dumps and diagnostics)
/// and the register holding the value after the last instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSlot {
    /// Human-readable label (`return`, `y[3]`, …).
    pub label: String,
    /// Source register.
    pub reg: u32,
}

/// A compiled register-bytecode program (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Source function name.
    pub name: String,
    /// Endpoint precision.
    pub precision: Precision,
    /// Number of input registers (`0..n_inputs` are inputs, in binding
    /// order).
    pub n_inputs: u32,
    /// Total register-file size.
    pub n_regs: u32,
    /// Constant pool (deduplicated by bit pattern).
    pub consts: Vec<PoolConst>,
    /// The instruction stream, in execution order.
    pub insns: Vec<Insn>,
    /// One label per input register (`x0`, `y[2]`, …).
    pub inputs: Vec<String>,
    /// Declared outputs, in harvest order (function return first, then
    /// `out`/`inout` array cells in parameter order).
    pub outputs: Vec<OutputSlot>,
    /// Source-provenance side table (parallel to `insns`; may be empty).
    pub debug: DebugMap,
}

impl Program {
    /// Renders the deterministic text listing pinned by the golden
    /// tests: header, constant pool, input bindings, instructions,
    /// output bindings. Floats print in Rust's shortest-roundtrip
    /// form, so equal programs dump to equal strings and vice versa.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "program {} precision={} inputs={} regs={} consts={} insns={}",
            self.name,
            self.precision,
            self.n_inputs,
            self.n_regs,
            self.consts.len(),
            self.insns.len()
        );
        for (i, c) in self.consts.iter().enumerate() {
            match self.precision {
                Precision::F64 => {
                    let _ = writeln!(s, "  c{} = [{:?}, {:?}]", i, c.lo_hi, c.hi_hi);
                }
                Precision::Dd => {
                    let _ = writeln!(
                        s,
                        "  c{} = [{:?} {:?}, {:?} {:?}]",
                        i, c.lo_hi, c.lo_lo, c.hi_hi, c.hi_lo
                    );
                }
            }
        }
        for (i, label) in self.inputs.iter().enumerate() {
            let _ = writeln!(s, "  in r{i} = {label}");
        }
        for insn in &self.insns {
            let line = match insn.decode() {
                (dst, Action::Const(idx)) => format!("r{dst} = const c{idx}"),
                (dst, Action::Op(SweepOp::Pow(n), [a, ..])) => format!("r{dst} = pow r{a}, {n}"),
                (dst, Action::Op(op @ (SweepOp::MulAdd | SweepOp::MulSub), [a, b, acc])) => {
                    format!("r{dst} = {} r{acc}, r{a}, r{b}", mnemonic(op))
                }
                (dst, Action::Op(op, [a, b, _])) if op.arity() == 2 => {
                    format!("r{dst} = {} r{a}, r{b}", mnemonic(op))
                }
                (dst, Action::Op(op, [a, ..])) => format!("r{dst} = {} r{a}", mnemonic(op)),
            };
            let _ = writeln!(s, "  {line}");
        }
        for o in &self.outputs {
            let _ = writeln!(s, "  out {} = r{}", o.label, o.reg);
        }
        s
    }

    /// Structural sanity the executors rely on: every operand register
    /// is written (or an input) before it is read, register/constant
    /// indices are in range, and outputs name written registers.
    /// Registers **may** be reused — the peephole pass renumbers into a
    /// compact reusable file. Raw lowering output additionally
    /// satisfies the stricter [`Program::validate_ssa`].
    pub fn validate(&self) -> Result<(), String> {
        self.check(false)
    }

    /// [`Program::validate`] plus single assignment: every `dst` is a
    /// fresh register. Lowering emits this form; the peephole pass
    /// consumes it and returns programs that only satisfy the relaxed
    /// [`Program::validate`].
    pub fn validate_ssa(&self) -> Result<(), String> {
        self.check(true)
    }

    fn check(&self, ssa: bool) -> Result<(), String> {
        let n = self.n_regs as usize;
        if !self.debug.sites.is_empty() && self.debug.sites.len() != self.insns.len() {
            return Err(format!(
                "debug map has {} sites for {} instructions",
                self.debug.sites.len(),
                self.insns.len()
            ));
        }
        if (self.n_inputs as usize) != self.inputs.len() {
            return Err(format!(
                "n_inputs={} but {} input labels",
                self.n_inputs,
                self.inputs.len()
            ));
        }
        let mut written = vec![false; n];
        for w in written.iter_mut().take(self.n_inputs as usize) {
            *w = true;
        }
        let read_ok = |written: &[bool], r: u32| -> Result<(), String> {
            match written.get(r as usize) {
                Some(true) => Ok(()),
                Some(false) => Err(format!("register r{r} read before written")),
                None => Err(format!("register r{r} out of range (regs={n})")),
            }
        };
        for insn in &self.insns {
            let (dst, action) = insn.decode();
            if let Action::Const(idx) = action {
                if idx as usize >= self.consts.len() {
                    return Err(format!("constant c{idx} out of range"));
                }
            }
            for &r in action.srcs() {
                read_ok(&written, r)?;
            }
            let dst = dst as usize;
            if dst >= n {
                return Err(format!("destination r{dst} out of range (regs={n})"));
            }
            if ssa && written[dst] {
                return Err(format!("register r{dst} written twice"));
            }
            written[dst] = true;
        }
        for o in &self.outputs {
            read_ok(&written, o.reg).map_err(|e| format!("output {}: {e}", o.label))?;
        }
        if self.outputs.is_empty() {
            return Err("program declares no outputs".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Program {
        Program {
            name: "toy".into(),
            precision: Precision::F64,
            n_inputs: 2,
            n_regs: 4,
            consts: vec![PoolConst::f64_pair(1.0, 1.0)],
            insns: vec![Insn::Const { dst: 2, idx: 0 }, Insn::Add { dst: 3, a: 0, b: 2 }],
            inputs: vec!["a".into(), "b".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 3 }],
            debug: DebugMap::default(),
        }
    }

    #[test]
    fn encode_inverts_decode_and_srcs_are_the_operands() {
        let (dst, a, b, acc) = (9, 1, 2, 3);
        let kinds = [
            (Insn::Const { dst, idx: 4 }, vec![]),
            (Insn::Add { dst, a, b }, vec![a, b]),
            (Insn::Sub { dst, a, b }, vec![a, b]),
            (Insn::Mul { dst, a, b }, vec![a, b]),
            (Insn::Div { dst, a, b }, vec![a, b]),
            (Insn::Min { dst, a, b }, vec![a, b]),
            (Insn::Max { dst, a, b }, vec![a, b]),
            (Insn::Neg { dst, a }, vec![a]),
            (Insn::Sqrt { dst, a }, vec![a]),
            (Insn::Abs { dst, a }, vec![a]),
            (Insn::Sqr { dst, a }, vec![a]),
            (Insn::Pow { dst, a, n: -3 }, vec![a]),
            (Insn::MulAdd { dst, a, b, acc }, vec![a, b, acc]),
            (Insn::MulSub { dst, a, b, acc }, vec![a, b, acc]),
        ];
        for (insn, srcs) in kinds {
            let (d, action) = insn.decode();
            assert_eq!((d, action.srcs()), (dst, &srcs[..]), "{insn:?}");
            assert_eq!(Insn::encode(d, action), insn);
        }
    }

    #[test]
    fn dump_is_deterministic_and_complete() {
        let p = toy();
        let d = p.dump();
        assert_eq!(d, p.dump());
        assert!(d.contains("program toy precision=f64 inputs=2 regs=4 consts=1 insns=2"));
        assert!(d.contains("c0 = [1.0, 1.0]"));
        assert!(d.contains("in r0 = a"));
        assert!(d.contains("r3 = add r0, r2"));
        assert!(d.contains("out return = r3"));
    }

    #[test]
    fn validate_catches_structural_bugs() {
        assert!(toy().validate().is_ok());
        let mut p = toy();
        p.insns[1] = Insn::Add { dst: 3, a: 0, b: 3 };
        assert!(p.validate().unwrap_err().contains("read before written"));
        let mut p = toy();
        p.outputs[0].reg = 9;
        assert!(p.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn debug_map_must_stay_parallel_to_insns() {
        let mut p = toy();
        p.debug.sites = vec![SrcLoc { line: 3, col: 5 }];
        assert!(p.validate().unwrap_err().contains("debug map"), "length mismatch rejected");
        p.debug.sites.push(SrcLoc::default());
        assert!(p.validate().is_ok(), "full-length map accepted");
        assert_eq!(p.debug.site(0), SrcLoc { line: 3, col: 5 });
        assert!(!p.debug.site(1).is_known());
        assert!(!p.debug.site(99).is_known(), "out of range reads as unknown");
        // Provenance never leaks into the golden-pinned listing.
        assert_eq!(p.dump(), toy().dump());
    }

    #[test]
    fn ssa_validation_rejects_register_reuse_but_validate_allows_it() {
        let mut p = toy();
        p.insns[1] = Insn::Add { dst: 2, a: 0, b: 1 };
        p.outputs[0].reg = 2;
        assert!(p.validate().is_ok(), "relaxed form permits reuse");
        assert!(p.validate_ssa().unwrap_err().contains("written twice"));
        assert!(toy().validate_ssa().is_ok(), "SSA lowering output passes both");
    }
}
