//! The bytecode peephole pass: endpoint-exact rewrites plus
//! liveness-based register renumbering.
//!
//! Every rewrite here preserves *every endpoint bit* of every program
//! output — the pass runs between lowering and the differential
//! interpreter check, so a rewrite that merely preserved mathematical
//! values (or even tightened them) would break the trust anchor. The
//! admitted rewrites and the exactness argument for each:
//!
//! * **`Add(y, Neg(x)) → Sub(y, x)`** and **`Sub(y, Neg(x)) → Add(y, x)`**
//!   — the interval `sub` kernel *is* `add` with the subtrahend's
//!   endpoint columns swapped (`igen_interval::F64I::sub`, `DdI::sub`,
//!   and the packed twins), and interval negation is the exact,
//!   rounding-free column swap. Substituting feeds the same bits to the
//!   same IEEE operation sequence in the same operand order, so the
//!   result is bit-identical — including NaN payloads. The *commuted*
//!   form `Add(Neg(x), y)` is deliberately left alone: it would swap
//!   the operand order of the underlying `add_ru`, which is only
//!   value-commutative (two NaN operands with different payloads may
//!   propagate differently), and "almost bit-identical" is not a
//!   rewrite this pass is allowed to make.
//! * **duplicate-constant dedup** — pool entries are merged by bit
//!   pattern and redundant `Const` materializations forward to the
//!   first; reading the same pool bits from a different register index
//!   cannot change any result bit.
//! * **dead-code elimination and liveness-based register renumbering**
//!   — removing instructions no output depends on and renaming
//!   registers never changes any computed value; renumbering reuses
//!   dead scratch registers so the tile executor's register bank stays
//!   cache-resident (`regs 62 → 12` on the golden Hénon kernel).
//! * **accumulate dispatch fusion** — an adjacent
//!   `Mul(t, a, b); Add(d, acc, t)` pair whose product register `t` has
//!   no other reader becomes `MulAdd(d, a, b, acc)` (likewise
//!   `Sub(d, acc, t)` → `MulSub`). The superinstruction executes the
//!   *same two rounded interval operations in the same operand order* —
//!   the product stays the right operand of the accumulate — so every
//!   endpoint bit is preserved; only the temp register round-trip and
//!   the second dispatch disappear. The mirrored form
//!   `Add(d, t, acc)` (product on the left) is left alone: encoding it
//!   would either swap `add_ru` operand order (only value-commutative)
//!   or double the opcode surface for a pattern the accumulate idiom
//!   never produces.
//!
//! What the pass must **not** do, ever: contract `Mul`+`Add` into an
//! FMA. A fused multiply-add rounds once where the source rounds twice,
//! so the fused result differs in the last bit — sound, but no longer
//! the bits the differential interpreter computes. `MulAdd` above is
//! emphatically not that: it fuses the *dispatch*, never the rounding.
//! The same goes for reassociation: interval `add` is not associative
//! at the bit level.

use crate::bytecode::{DebugMap, Insn, PoolConst, Program, SrcLoc};
use igen_interval::SweepOp;
use igen_telemetry::Counter;

/// Constant-pool entries merged plus redundant `Const` materializations
/// forwarded, across all [`peephole`] calls. Zero-sized no-op unless
/// the `telemetry` feature is on — as are the four counters below.
pub static VM_PEEPHOLE_DEDUP: Counter = Counter::new("vm.peephole.dedup");
/// `Add`/`Sub`-of-`Neg` strength reductions applied.
pub static VM_PEEPHOLE_NEG_FOLD: Counter = Counter::new("vm.peephole.neg_fold");
/// Dead instructions removed.
pub static VM_PEEPHOLE_DCE: Counter = Counter::new("vm.peephole.dce");
/// `Mul`+accumulate pairs fused into `MulAdd`/`MulSub`.
pub static VM_PEEPHOLE_FUSE: Counter = Counter::new("vm.peephole.fuse");
/// Registers reclaimed by the liveness renumbering.
pub static VM_PEEPHOLE_RENUMBER: Counter = Counter::new("vm.peephole.renumber");

/// What [`peephole`] did to a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// `Add(y, Neg(x))` strength-reduced to `Sub(y, x)`.
    pub neg_add_to_sub: usize,
    /// `Sub(y, Neg(x))` strength-reduced to `Add(y, x)`.
    pub neg_sub_to_add: usize,
    /// Adjacent `Mul`+`Add`/`Sub` pairs fused into `MulAdd`/`MulSub`
    /// superinstructions (dispatch fusion; both roundings preserved).
    pub mul_acc_fused: usize,
    /// Duplicate pool entries merged plus redundant `Const`
    /// materializations forwarded.
    pub consts_deduped: usize,
    /// Instructions removed as dead (orphaned `Neg`s, forwarded
    /// `Const`s, anything no output depends on).
    pub insns_removed: usize,
    /// Registers saved by the liveness renumbering
    /// (`n_regs before - n_regs after`).
    pub regs_saved: u32,
}

impl PeepholeStats {
    /// Total counted rewrites (the telemetry increment).
    pub fn rewrites(&self) -> usize {
        self.neg_add_to_sub
            + self.neg_sub_to_add
            + self.mul_acc_fused
            + self.consts_deduped
            + self.insns_removed
    }
}

/// Runs the peephole pass; returns the rewritten program and what was
/// done. The output satisfies [`Program::validate`] (registers may be
/// reused, but every read still follows a write); it is generally *not*
/// single-assignment, so [`Program::validate_ssa`] no longer applies.
///
/// If the input carries a [`DebugMap`], the output's map stays parallel
/// to the rewritten stream: a strength-reduced instruction keeps its
/// own site, a fused `MulAdd`/`MulSub` takes the *accumulate*'s site
/// (that is the instruction whose destination survives), and dropped
/// instructions drop their sites.
///
/// # Panics
///
/// Panics if `p` itself fails [`Program::validate`] — the pass only
/// transforms well-formed programs.
pub fn peephole(p: &Program) -> (Program, PeepholeStats) {
    p.validate().expect("peephole input must validate");
    let mut stats = PeepholeStats::default();

    // Provenance side-table, carried in lock-step with the instruction
    // stream through every stage below. A program without a debug map
    // stays without one.
    let track_sites = !p.debug.sites.is_empty();
    let in_sites: Vec<SrcLoc> = if track_sites {
        p.debug.sites.clone() // validate() pinned the length
    } else {
        vec![SrcLoc::default(); p.insns.len()]
    };

    // 1. Pool dedup by bit pattern.
    let (consts, pool_remap, pool_merged) = dedup_pool(&p.consts);
    stats.consts_deduped += pool_merged;

    // 2. Forward rewrite pass: operand forwarding for redundant Const
    //    materializations and Neg+Add/Sub strength reduction. `alias`
    //    forwards a register to an equivalent earlier one; `negated`
    //    names the operand of the `Neg` that defines a register
    //    (registers are single-assignment on input, so the defining
    //    instruction is unambiguous).
    let n = p.n_regs as usize;
    let mut alias: Vec<u32> = (0..p.n_regs).collect();
    let mut negated: Vec<Option<u32>> = vec![None; n];
    // First materialization of each (deduped) pool index.
    let mut first_const: Vec<Option<u32>> = vec![None; consts.len()];
    let mut insns: Vec<Insn> = Vec::with_capacity(p.insns.len());
    let mut sites: Vec<SrcLoc> = Vec::with_capacity(p.insns.len());
    for (insn, site) in p.insns.iter().zip(&in_sites) {
        // Sources forward through `alias`. Lowering never emits the
        // fused forms, but they are forwarded too, so the pass can run
        // on its own output.
        let mut rewritten = match *insn {
            Insn::Const { dst, idx } => {
                // A redundant Const forwards to the first
                // materialization and is itself dropped.
                let idx = pool_remap[idx as usize];
                if let Some(reg) = first_const[idx as usize] {
                    alias[dst as usize] = reg;
                    stats.consts_deduped += 1;
                    continue;
                }
                first_const[idx as usize] = Some(dst);
                Insn::Const { dst, idx }
            }
            Insn::Op { op, dst, src } => Insn::Op { op, dst, src: src.map(|r| alias[r as usize]) },
        };

        // a + (-x) → a - x and a - (-x) → a + x: `sub` is `add` with the
        // subtrahend's columns swapped, bit for bit, in this operand order.
        if let Insn::Op { op, dst, src: [a, b, _] } = rewritten {
            match (op, negated[b as usize]) {
                (SweepOp::Add, Some(x)) => {
                    rewritten = Insn::op(SweepOp::Sub, dst, &[a, x]);
                    stats.neg_add_to_sub += 1;
                }
                (SweepOp::Sub, Some(x)) => {
                    rewritten = Insn::op(SweepOp::Add, dst, &[a, x]);
                    stats.neg_sub_to_add += 1;
                }
                _ => {}
            }
        }
        negated[rewritten.dst() as usize] = match rewritten {
            Insn::Op { op: SweepOp::Neg, src: [x, ..], .. } => Some(x),
            _ => None,
        };
        insns.push(rewritten);
        sites.push(*site);
    }
    let outputs: Vec<(String, u32)> =
        p.outputs.iter().map(|o| (o.label.clone(), alias[o.reg as usize])).collect();

    // 3. Dead-code elimination (backward liveness).
    let mut live = vec![false; n];
    for (_, r) in &outputs {
        live[*r as usize] = true;
    }
    let mut keep = vec![false; insns.len()];
    for (i, insn) in insns.iter().enumerate().rev() {
        if !live[insn.dst() as usize] {
            continue;
        }
        keep[i] = true;
        for &r in insn.srcs() {
            live[r as usize] = true;
        }
    }
    let before = insns.len();
    let insns: Vec<Insn> =
        insns.into_iter().zip(&keep).filter_map(|(i, k)| k.then_some(i)).collect();
    let sites: Vec<SrcLoc> =
        sites.into_iter().zip(&keep).filter_map(|(s, k)| k.then_some(s)).collect();
    stats.insns_removed += before - insns.len();

    // 4. Accumulate dispatch fusion on the (still single-assignment)
    //    stream: Mul(t,a,b) immediately followed by Add(d,acc,t) or
    //    Sub(d,acc,t), where t has no other reader and is not an
    //    output, fuses into one superinstruction. The product stays the
    //    right operand of the accumulate, so both rounded operations
    //    are unchanged — see the module docs.
    let mut uses = vec![0usize; n];
    for insn in &insns {
        for &r in insn.srcs() {
            uses[r as usize] += 1;
        }
    }
    let mut is_output = vec![false; n];
    for (_, r) in &outputs {
        is_output[*r as usize] = true;
    }
    let mut fused: Vec<Insn> = Vec::with_capacity(insns.len());
    let mut fused_sites: Vec<SrcLoc> = Vec::with_capacity(sites.len());
    let mut i = 0;
    while i < insns.len() {
        if let Insn::Op { op: SweepOp::Mul, dst: t, src: [a, b, _] } = insns[i] {
            if i + 1 < insns.len() && uses[t as usize] == 1 && !is_output[t as usize] {
                let fuse = match insns[i + 1] {
                    Insn::Op { op, dst, src: [acc, prod, _] } if prod == t && acc != t => {
                        match op {
                            SweepOp::Add => Some(Insn::op(SweepOp::MulAdd, dst, &[a, b, acc])),
                            SweepOp::Sub => Some(Insn::op(SweepOp::MulSub, dst, &[a, b, acc])),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(f) = fuse {
                    fused.push(f);
                    // The superinstruction's destination is the
                    // accumulate's; so is its blame site.
                    fused_sites.push(sites[i + 1]);
                    stats.mul_acc_fused += 1;
                    i += 2;
                    continue;
                }
            }
        }
        fused.push(insns[i]);
        fused_sites.push(sites[i]);
        i += 1;
    }
    let insns = fused;
    let sites = fused_sites;

    // 5. Liveness-based renumbering. Layout: inputs keep 0..n_inputs,
    //    each surviving Const gets a pinned register right after (so
    //    the prepared executor can fill a constant bank once and trust
    //    it for the program's lifetime), and everything else shares a
    //    reused scratch region sized by the maximum number of
    //    simultaneously live temporaries.
    let n_inputs = p.n_inputs;
    let n_const_regs = insns.iter().filter(|i| matches!(i, Insn::Const { .. })).count() as u32;
    // Hoist constants to the front: they have no operands and pinned
    // destinations, so execution order is preserved for everything that
    // reads them, and the dump shows the constant bank contiguously.
    // Sites partition along with their instructions.
    type SitedInsns = Vec<(Insn, SrcLoc)>;
    let (const_part, body_part): (SitedInsns, SitedInsns) =
        insns.into_iter().zip(sites).partition(|(i, _)| matches!(i, Insn::Const { .. }));
    let (const_insns, const_sites): (Vec<Insn>, Vec<SrcLoc>) = const_part.into_iter().unzip();
    let (body, body_sites): (Vec<Insn>, Vec<SrcLoc>) = body_part.into_iter().unzip();

    // Last read of each (old) register over the body + outputs.
    let mut last_use = vec![0usize; n];
    for (i, insn) in body.iter().enumerate() {
        for &r in insn.srcs() {
            last_use[r as usize] = i + 1; // body positions are 1-based;
        }
    }
    for (_, r) in &outputs {
        last_use[*r as usize] = usize::MAX; // outputs are read at the end
    }

    let mut map: Vec<Option<u32>> = vec![None; n];
    for r in 0..n_inputs {
        map[r as usize] = Some(r);
    }
    let mut new_consts: Vec<Insn> = Vec::with_capacity(const_insns.len());
    for (next_const, insn) in (n_inputs..).zip(const_insns) {
        let Insn::Const { dst, idx } = insn else { unreachable!("partitioned") };
        map[dst as usize] = Some(next_const);
        new_consts.push(Insn::Const { dst: next_const, idx });
    }
    let scratch_base = n_inputs + n_const_regs;
    let mut free: Vec<u32> = Vec::new();
    let mut high_water = scratch_base;
    let mut new_body: Vec<Insn> = Vec::with_capacity(body.len());
    for (i, insn) in body.iter().enumerate() {
        let pos = i + 1;
        let Insn::Op { op, dst, src } = *insn else { unreachable!("partitioned") };
        let src = src.map(|r| map[r as usize].expect("validated: read after write"));
        // Release scratch slots whose old register dies at this read.
        for &r in insn.srcs() {
            if last_use[r as usize] == pos {
                if let Some(slot) = map[r as usize] {
                    if slot >= scratch_base {
                        free.push(slot);
                        map[r as usize] = None;
                    }
                }
            }
        }
        let dst_slot = free.pop().unwrap_or_else(|| {
            let s = high_water;
            high_water += 1;
            s
        });
        map[dst as usize] = Some(dst_slot);
        new_body.push(Insn::Op { op, dst: dst_slot, src });
    }

    let out = Program {
        name: p.name.clone(),
        precision: p.precision,
        n_inputs: p.n_inputs,
        n_regs: high_water.max(scratch_base),
        consts,
        insns: new_consts.into_iter().chain(new_body).collect(),
        inputs: p.inputs.clone(),
        outputs: outputs
            .into_iter()
            .map(|(label, r)| crate::bytecode::OutputSlot {
                label,
                reg: map[r as usize].expect("output register is live"),
            })
            .collect(),
        debug: if track_sites {
            DebugMap { sites: const_sites.into_iter().chain(body_sites).collect() }
        } else {
            DebugMap::default()
        },
    };
    stats.regs_saved = p.n_regs.saturating_sub(out.n_regs);
    debug_assert_eq!(out.validate(), Ok(()));
    VM_PEEPHOLE_DEDUP.add(stats.consts_deduped as u64);
    VM_PEEPHOLE_NEG_FOLD.add((stats.neg_add_to_sub + stats.neg_sub_to_add) as u64);
    VM_PEEPHOLE_DCE.add(stats.insns_removed as u64);
    VM_PEEPHOLE_FUSE.add(stats.mul_acc_fused as u64);
    VM_PEEPHOLE_RENUMBER.add(stats.regs_saved as u64);
    (out, stats)
}

/// Merges pool entries with identical bit patterns; returns the new
/// pool, the old→new index map, and how many entries merged away.
fn dedup_pool(pool: &[PoolConst]) -> (Vec<PoolConst>, Vec<u32>, usize) {
    let mut out: Vec<PoolConst> = Vec::with_capacity(pool.len());
    let mut keys: Vec<[u64; 4]> = Vec::with_capacity(pool.len());
    let mut remap = Vec::with_capacity(pool.len());
    for c in pool {
        let key = c.bits();
        match keys.iter().position(|k| *k == key) {
            Some(i) => remap.push(i as u32),
            None => {
                remap.push(out.len() as u32);
                keys.push(key);
                out.push(*c);
            }
        }
    }
    let merged = pool.len() - out.len();
    (out, remap, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{OutputSlot, Precision};
    use crate::exec::run_scalar;
    use igen_interval::F64I;

    fn prog(
        n_inputs: u32,
        n_regs: u32,
        consts: Vec<PoolConst>,
        insns: Vec<Insn>,
        out: u32,
    ) -> Program {
        let p = Program {
            name: "t".into(),
            precision: Precision::F64,
            n_inputs,
            n_regs,
            consts,
            insns,
            inputs: (0..n_inputs).map(|i| format!("x{i}")).collect(),
            outputs: vec![OutputSlot { label: "return".into(), reg: out }],
            debug: DebugMap::default(),
        };
        p.validate().expect("test program validates");
        p
    }

    #[test]
    fn debug_sites_follow_instructions_through_every_stage() {
        // r3 = -x1 @6:1; r4 = x0 + r3 @7:5; r5 = x0 * x1 @8:5;
        // r6 = r4 + r5 @9:5  — exercises strength reduction (Neg dies),
        // fusion (Mul+Add → MulAdd taking the Add's site), and
        // renumbering, with a distinct site on every instruction.
        let mut p = prog(
            2,
            7,
            vec![],
            vec![
                Insn::op(SweepOp::Neg, 2, &[1]),
                Insn::op(SweepOp::Add, 3, &[0, 2]),
                Insn::op(SweepOp::Mul, 4, &[0, 1]),
                Insn::op(SweepOp::Add, 5, &[3, 4]),
            ],
            5,
        );
        let s = |line, col| SrcLoc { line, col };
        p.debug.sites = vec![s(6, 1), s(7, 5), s(8, 5), s(9, 5)];
        p.validate().expect("debug map parallel");
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_add_to_sub, 1);
        assert_eq!(st.mul_acc_fused, 1);
        assert_eq!(q.validate(), Ok(()));
        assert_eq!(q.debug.sites.len(), q.insns.len());
        // The strength-reduced Sub keeps the Add's own site; the fused
        // MulAdd takes the accumulate's site, not the Mul's.
        let sub_at =
            q.insns.iter().position(|i| matches!(i, Insn::Op { op: SweepOp::Sub, .. })).unwrap();
        assert_eq!(q.debug.site(sub_at), s(7, 5));
        let fused_at =
            q.insns.iter().position(|i| matches!(i, Insn::Op { op: SweepOp::MulAdd, .. })).unwrap();
        assert_eq!(q.debug.site(fused_at), s(9, 5));
        // A program without a debug map stays without one.
        let bare = prog(2, 3, vec![], vec![Insn::op(SweepOp::Add, 2, &[0, 1])], 2);
        let (q, _) = peephole(&bare);
        assert!(q.debug.sites.is_empty());
    }

    #[test]
    fn neg_add_becomes_sub_and_orphan_neg_dies() {
        // r2 = -x1; r3 = x0 + r2  ⇒  r3 = x0 - x1
        let p = prog(
            2,
            4,
            vec![],
            vec![Insn::op(SweepOp::Neg, 2, &[1]), Insn::op(SweepOp::Add, 3, &[0, 2])],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_add_to_sub, 1);
        assert_eq!(st.insns_removed, 1, "the Neg is dead after the rewrite");
        assert_eq!(q.insns, vec![Insn::op(SweepOp::Sub, 2, &[0, 1])]);
        for (a, b) in [(1.5, 2.5), (-3.0, 0.25), (0.0, -0.0)] {
            let x = [F64I::new(a, a.max(b)).unwrap(), F64I::new(b.min(a), b.max(a)).unwrap()];
            let want = run_scalar::<F64I>(&p, &x)[0];
            let got = run_scalar::<F64I>(&q, &x)[0];
            assert_eq!(want.lo().to_bits(), got.lo().to_bits());
            assert_eq!(want.hi().to_bits(), got.hi().to_bits());
        }
    }

    #[test]
    fn commuted_neg_add_is_left_alone() {
        // r2 = -x1; r3 = r2 + x0: rewriting would swap add_ru operand
        // order, which is only value-commutative.
        let p = prog(
            2,
            4,
            vec![],
            vec![Insn::op(SweepOp::Neg, 2, &[1]), Insn::op(SweepOp::Add, 3, &[2, 0])],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_add_to_sub, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::Neg, .. })));
    }

    #[test]
    fn sub_of_neg_becomes_add() {
        let p = prog(
            2,
            4,
            vec![],
            vec![Insn::op(SweepOp::Neg, 2, &[1]), Insn::op(SweepOp::Sub, 3, &[0, 2])],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_sub_to_add, 1);
        assert_eq!(q.insns, vec![Insn::op(SweepOp::Add, 2, &[0, 1])]);
    }

    #[test]
    fn duplicate_consts_merge_in_pool_and_materialization() {
        let c = PoolConst::f64_pair(1.5, 2.5);
        let p = prog(
            1,
            4,
            vec![c, c],
            vec![
                Insn::Const { dst: 1, idx: 0 },
                Insn::Const { dst: 2, idx: 1 },
                Insn::op(SweepOp::Mul, 3, &[1, 2]),
            ],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(q.consts.len(), 1);
        // One pool merge + one forwarded materialization.
        assert_eq!(st.consts_deduped, 2);
        let const_count = q.insns.iter().filter(|i| matches!(i, Insn::Const { .. })).count();
        assert_eq!(const_count, 1);
        let x = [F64I::new(-1.0, 2.0).unwrap()];
        let want = run_scalar::<F64I>(&p, &x)[0];
        let got = run_scalar::<F64I>(&q, &x)[0];
        assert_eq!(want.lo().to_bits(), got.lo().to_bits());
        assert_eq!(want.hi().to_bits(), got.hi().to_bits());
    }

    #[test]
    fn accumulate_chains_fuse_into_muladd() {
        // s1 = s0 + x0*x1; s2 = s1 + x2*x0 — the dot-product idiom.
        let p = prog(
            3,
            8,
            vec![],
            vec![
                Insn::op(SweepOp::Add, 3, &[0, 1]), // seed accumulator
                Insn::op(SweepOp::Mul, 4, &[0, 1]),
                Insn::op(SweepOp::Add, 5, &[3, 4]),
                Insn::op(SweepOp::Mul, 6, &[2, 0]),
                Insn::op(SweepOp::Sub, 7, &[5, 6]),
            ],
            7,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 2);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::MulAdd, .. })));
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::MulSub, .. })));
        assert!(!q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::Mul, .. })));
        for (a, b, c) in [(1.5f64, -2.0f64, 0.25f64), (0.0, 1e300, -4.0), (-0.5, -0.5, 3.0)] {
            let x = [
                F64I::new(a.min(b), a.max(b)).unwrap(),
                F64I::new(b.min(c), b.max(c)).unwrap(),
                F64I::new(c.min(a), c.max(a)).unwrap(),
            ];
            let want = run_scalar::<F64I>(&p, &x)[0];
            let got = run_scalar::<F64I>(&q, &x)[0];
            assert_eq!(want.lo().to_bits(), got.lo().to_bits());
            assert_eq!(want.hi().to_bits(), got.hi().to_bits());
        }
    }

    #[test]
    fn product_on_the_left_of_the_add_is_not_fused() {
        // d = (x0*x1) + s: fusing would swap add_ru operand order.
        let p = prog(
            3,
            5,
            vec![],
            vec![Insn::op(SweepOp::Mul, 3, &[0, 1]), Insn::op(SweepOp::Add, 4, &[3, 2])],
            4,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::Mul, .. })));
    }

    #[test]
    fn a_product_with_a_second_reader_is_not_fused() {
        // t feeds both the accumulate and a later abs: the temp must
        // survive, so no fusion.
        let mut p = prog(
            3,
            6,
            vec![],
            vec![
                Insn::op(SweepOp::Mul, 3, &[0, 1]),
                Insn::op(SweepOp::Add, 4, &[2, 3]),
                Insn::op(SweepOp::Abs, 5, &[3]),
            ],
            4,
        );
        p.outputs.push(OutputSlot { label: "aux".into(), reg: 5 });
        p.validate().expect("two-output program validates");
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Op { op: SweepOp::Mul, .. })));
        let x = [
            F64I::new(-1.0, 2.0).unwrap(),
            F64I::new(0.5, 0.75).unwrap(),
            F64I::new(-3.0, -2.0).unwrap(),
        ];
        let want = run_scalar::<F64I>(&p, &x);
        let got = run_scalar::<F64I>(&q, &x);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.lo().to_bits(), g.lo().to_bits());
            assert_eq!(w.hi().to_bits(), g.hi().to_bits());
        }
    }

    #[test]
    fn renumbering_reuses_dead_scratch_registers() {
        // A chain of adds: SSA needs a fresh register per step, the
        // renumbered program needs exactly one scratch slot beyond the
        // accumulator pattern.
        let mut insns = Vec::new();
        let mut cur = 0u32;
        for step in 0..16u32 {
            let dst = 1 + step;
            insns.push(Insn::op(SweepOp::Add, dst, &[cur, 0]));
            cur = dst;
        }
        let p = prog(1, 17, vec![], insns, 16);
        let (q, st) = peephole(&p);
        assert!(q.n_regs <= 3, "chain should collapse to ~2 scratch slots, got {}", q.n_regs);
        assert_eq!(st.regs_saved, 17 - q.n_regs);
        assert_eq!(q.validate(), Ok(()));
        let x = [F64I::new(0.25, 0.5).unwrap()];
        let want = run_scalar::<F64I>(&p, &x)[0];
        let got = run_scalar::<F64I>(&q, &x)[0];
        assert_eq!(want.lo().to_bits(), got.lo().to_bits());
        assert_eq!(want.hi().to_bits(), got.hi().to_bits());
    }

    #[test]
    fn consts_are_hoisted_and_pinned_after_inputs() {
        let p = prog(
            1,
            4,
            vec![PoolConst::f64_pair(1.0, 1.0)],
            vec![
                Insn::op(SweepOp::Neg, 1, &[0]),
                Insn::Const { dst: 2, idx: 0 },
                Insn::op(SweepOp::Add, 3, &[1, 2]),
            ],
            3,
        );
        let (q, _) = peephole(&p);
        // Const first, register right after the inputs.
        assert_eq!(q.insns[0], Insn::Const { dst: 1, idx: 0 });
    }

    #[test]
    fn output_registers_survive_reuse() {
        // Two outputs, one an early intermediate: its register must not
        // be recycled by later instructions.
        let mut p = prog(
            1,
            5,
            vec![],
            vec![
                Insn::op(SweepOp::Sqr, 1, &[0]),
                Insn::op(SweepOp::Neg, 2, &[0]),
                Insn::op(SweepOp::Add, 3, &[2, 1]),
                Insn::op(SweepOp::Abs, 4, &[3]),
            ],
            4,
        );
        p.outputs.push(OutputSlot { label: "mid".into(), reg: 1 });
        p.validate().expect("two-output program validates");
        let (q, _) = peephole(&p);
        assert_eq!(q.validate(), Ok(()));
        let x = [F64I::new(-2.0, 3.0).unwrap()];
        let want = run_scalar::<F64I>(&p, &x);
        let got = run_scalar::<F64I>(&q, &x);
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.lo().to_bits(), g.lo().to_bits());
            assert_eq!(w.hi().to_bits(), g.hi().to_bits());
        }
    }
}
