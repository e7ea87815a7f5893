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
//! An arithmetic instruction names its op with the [`SweepOp`] the lane
//! types run, so an instruction is exactly what the executor hands to
//! `LaneOps::sweep`: the op, a destination and the sources `[a, b,
//! acc]`. The peephole pass, validation, the listing and the profiler
//! read the op and its sources from the instruction itself.

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
///
/// Two instructions are equal when they write the same register with
/// the same constant, or run the same op over the same sources: the
/// source slots an op does not read never take part.
#[derive(Debug, Clone, Copy)]
pub enum Insn {
    /// `dst ← consts[idx]`
    Const {
        /// Destination register.
        dst: u32,
        /// Constant-pool index.
        idx: u32,
    },
    /// `dst ← op(a, b, acc)`, the op every lane type runs through
    /// `LaneOps::sweep`. `MulAdd`/`MulSub` are *dispatch-fused*
    /// multiply-accumulates: the product is rounded exactly as a
    /// standalone `Mul` and the accumulate exactly as a standalone
    /// `Add`/`Sub` with the product as the **right** operand, so the
    /// result is bit-identical to the unfused pair. This is not an FMA
    /// (which would round once); only the temporary register and the
    /// second dispatch are eliminated.
    Op {
        /// The operation.
        op: SweepOp,
        /// Destination register.
        dst: u32,
        /// Source registers `[a, b, acc]`: `op` reads the first
        /// [`SweepOp::arity`], and the slots it does not read repeat
        /// `a` ([`Program::validate`] checks this).
        src: [u32; 3],
    },
}

impl Insn {
    /// `dst ← op(srcs)`, with `srcs` the op's sources in operand order:
    /// `[a]`, `[a, b]` or `[a, b, acc]`.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` does not hold exactly [`SweepOp::arity`]
    /// registers.
    pub fn op(op: SweepOp, dst: u32, srcs: &[u32]) -> Insn {
        assert_eq!(srcs.len(), op.arity(), "{op:?} reads {} sources", op.arity());
        let mut src = [srcs[0]; 3];
        src[..srcs.len()].copy_from_slice(srcs);
        Insn::Op { op, dst, src }
    }

    /// The destination register.
    pub fn dst(&self) -> u32 {
        match *self {
            Insn::Const { dst, .. } | Insn::Op { dst, .. } => dst,
        }
    }

    /// The source registers the instruction reads, in operand order.
    pub(crate) fn srcs(&self) -> &[u32] {
        match self {
            Insn::Const { .. } => &[],
            Insn::Op { op, src, .. } => &src[..op.arity()],
        }
    }

    /// The instruction's lower-case mnemonic (matches [`Program::dump`]).
    pub fn op_name(&self) -> &'static str {
        match *self {
            Insn::Const { .. } => "const",
            Insn::Op { op, .. } => mnemonic(op),
        }
    }
}

impl PartialEq for Insn {
    fn eq(&self, other: &Insn) -> bool {
        let kind = match (self, other) {
            (Insn::Const { idx: i, .. }, Insn::Const { idx: j, .. }) => i == j,
            (Insn::Op { op: p, .. }, Insn::Op { op: q, .. }) => p == q,
            _ => false,
        };
        kind && self.dst() == other.dst() && self.srcs() == other.srcs()
    }
}

impl Eq for Insn {}

/// The listing line [`Program::dump`] prints, such as `r3 = add r0, r2`.
impl core::fmt::Display for Insn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{} = {}", self.dst(), self.op_name())?;
        match *self {
            Insn::Const { idx, .. } => write!(f, " c{idx}"),
            Insn::Op { op: SweepOp::Pow(n), src: [a, ..], .. } => write!(f, " r{a}, {n}"),
            Insn::Op { op, src: [a, b, acc], .. } => match op.arity() {
                1 => write!(f, " r{a}"),
                2 => write!(f, " r{a}, r{b}"),
                _ => write!(f, " r{acc}, r{a}, r{b}"),
            },
        }
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
            let _ = writeln!(s, "  {insn}");
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
            match *insn {
                Insn::Const { idx, .. } if idx as usize >= self.consts.len() => {
                    return Err(format!("constant c{idx} out of range"));
                }
                Insn::Op { op, src, .. } if src[op.arity()..].iter().any(|&r| r != src[0]) => {
                    return Err(format!("`{insn}`: an unread source slot does not repeat a"));
                }
                _ => {}
            }
            for &r in insn.srcs() {
                read_ok(&written, r)?;
            }
            let dst = insn.dst() as usize;
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
            insns: vec![Insn::Const { dst: 2, idx: 0 }, Insn::op(SweepOp::Add, 3, &[0, 2])],
            inputs: vec!["a".into(), "b".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 3 }],
            debug: DebugMap::default(),
        }
    }

    /// One program running `insn` over the inputs `r0..r3` into `r9`.
    fn one(insn: Insn) -> Program {
        Program {
            name: "one".into(),
            precision: Precision::F64,
            n_inputs: 4,
            n_regs: 10,
            consts: vec![],
            insns: vec![insn],
            inputs: (0..4).map(|i| format!("x{i}")).collect(),
            outputs: vec![OutputSlot { label: "return".into(), reg: 9 }],
            debug: DebugMap::default(),
        }
    }

    #[test]
    fn every_sweep_op_is_one_instruction_over_its_sources() {
        // The listing line of every op over a = r1, b = r2, acc = r3, in
        // the golden listing's layout.
        let cases = [
            (SweepOp::Add, "r9 = add r1, r2"),
            (SweepOp::Sub, "r9 = sub r1, r2"),
            (SweepOp::Mul, "r9 = mul r1, r2"),
            (SweepOp::Div, "r9 = div r1, r2"),
            (SweepOp::Min, "r9 = min r1, r2"),
            (SweepOp::Max, "r9 = max r1, r2"),
            (SweepOp::Neg, "r9 = neg r1"),
            (SweepOp::Sqrt, "r9 = sqrt r1"),
            (SweepOp::Abs, "r9 = abs r1"),
            (SweepOp::Sqr, "r9 = sqr r1"),
            (SweepOp::Pow(3), "r9 = pow r1, 3"),
            (SweepOp::MulAdd, "r9 = muladd r3, r1, r2"),
            (SweepOp::MulSub, "r9 = mulsub r3, r1, r2"),
            (SweepOp::Pow(-2), "r9 = pow r1, -2"),
            (SweepOp::Pow(0), "r9 = pow r1, 0"),
        ];
        assert_eq!(cases[..13].iter().map(|c| c.0).collect::<Vec<_>>(), SweepOp::ALL);
        for (op, line) in cases {
            let srcs = &[1, 2, 3][..op.arity()];
            let insn = Insn::op(op, 9, srcs);
            assert_eq!((insn.dst(), insn.srcs()), (9, srcs), "{op:?}");
            assert_eq!(one(insn).validate(), Ok(()), "{op:?}");
            assert!(one(insn).dump().contains(&format!("\n  {line}\n")), "{op:?}");
            // Every slot the op reads is checked, the accumulator too.
            for k in 0..op.arity() {
                let mut unwritten = srcs.to_vec();
                unwritten[k] = 8;
                let err = one(Insn::op(op, 9, &unwritten)).validate().unwrap_err();
                assert!(err.contains("r8 read before written"), "{op:?} slot {k}: {err}");
            }
            // The slots the op does not read neither compare nor print,
            // and a program must repeat `a` in them.
            let mut src = [1, 2, 3];
            src[op.arity()..].fill(7);
            let stray = Insn::Op { op, dst: 9, src };
            assert_eq!(stray, insn, "{op:?}");
            assert_eq!(stray.to_string(), line, "{op:?}");
            if op.arity() < 3 {
                assert!(one(stray).validate().unwrap_err().contains("unread source slot"));
            }
            assert_ne!(Insn::op(op, 9, &[0, 2, 3][..op.arity()]), insn, "{op:?}");
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
        p.insns[1] = Insn::op(SweepOp::Add, 3, &[0, 3]);
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
        p.insns[1] = Insn::op(SweepOp::Add, 2, &[0, 1]);
        p.outputs[0].reg = 2;
        assert!(p.validate().is_ok(), "relaxed form permits reuse");
        assert!(p.validate_ssa().unwrap_err().contains("written twice"));
        assert!(toy().validate_ssa().is_ok(), "SSA lowering output passes both");
    }
}
