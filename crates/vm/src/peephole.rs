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
//! * **`Mul(x, x) → Sqr(x)`** — only when `x` is *statically strictly
//!   positive* (see [`strict-positive lattice`](#strict-positive-lattice)
//!   below). The dependency-aware square differs from self-multiplication
//!   on zero-straddling intervals (`[-1,2]² = [0,4]` vs `[-2,4]`) and
//!   even at `lo == 0` the two produce differently signed zero lower
//!   endpoints; for `0 < lo ≤ hi < ∞` both reduce to
//!   `[RD(lo·lo), RU(hi·hi)]` computed by the same directed-rounding
//!   primitives, which is pinned by this module's property tests. The
//!   rewrite is **f64-only**: the double-double kernels agree in value
//!   but can disagree in the zero *sign* of the low residual component
//!   (`mul` of `[1,1]` carries a `-0.0` low word where `sqr` carries
//!   `+0.0`), and a signed-zero bit is still a bit.
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
//!
//! # Strict-positive lattice
//!
//! `Mul(x,x) → Sqr(x)` needs `0 < lo(x)` *and* NaN/∞-freedom (an
//! infinite endpoint can turn an EFT residual into a NaN on one side
//! but not the other). The pass proves it with a tiny forward
//! analysis; a register is strictly positive iff it is defined by:
//!
//! * `Const` whose four pool components are finite with `lo_hi > 0`;
//! * `Sqrt(a)`, `Min(a,b)`, `Max(a,b)`, `Add(a,b)`, `Mul(a,b)` of
//!   strictly positive operands are **not all admitted**: only `Sqrt`,
//!   `Min` and `Max` are closed under (0, ∞) *without overflow or
//!   underflow to zero*. `Add` can overflow to `[MAX, +∞]` and `Mul`
//!   can round its lower product down to `+0`, both of which exit the
//!   provable region, so they stay out of the lattice.
//!
//! The lattice is deliberately tiny: it exists to make the rewrite
//! *provably* exact, not to maximize hit rate.

use crate::bytecode::{Action, DebugMap, Insn, PoolConst, Precision, Program, SrcLoc};
use igen_telemetry::Counter;

/// Constant-pool entries merged plus redundant `Const` materializations
/// forwarded, across all [`peephole`] calls. Zero-sized no-op unless
/// the `telemetry` feature is on — as are the five counters below.
pub static VM_PEEPHOLE_DEDUP: Counter = Counter::new("vm.peephole.dedup");
/// `Add`/`Sub`-of-`Neg` strength reductions applied.
pub static VM_PEEPHOLE_NEG_FOLD: Counter = Counter::new("vm.peephole.neg_fold");
/// `Mul(x,x)` → `Sqr(x)` strength reductions applied.
pub static VM_PEEPHOLE_SQR: Counter = Counter::new("vm.peephole.sqr");
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
    /// `Mul(x, x)` with provably strictly positive `x` reduced to
    /// `Sqr(x)`.
    pub mul_to_sqr: usize,
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
            + self.mul_to_sqr
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
    //    materializations, Neg+Add/Sub strength reduction, guarded
    //    Mul(x,x)→Sqr. `alias` forwards a register to an equivalent
    //    earlier one; `def` remembers each register's *current*
    //    defining instruction (registers are single-assignment on
    //    input, so "current" is unambiguous).
    let n = p.n_regs as usize;
    let mut alias: Vec<u32> = (0..p.n_regs).collect();
    let mut def: Vec<Option<Insn>> = vec![None; n];
    // First materialization of each (deduped) pool index.
    let mut first_const: Vec<Option<u32>> = vec![None; consts.len()];
    let mut strict_pos = vec![false; n];
    let mut insns: Vec<Insn> = Vec::with_capacity(p.insns.len());
    let mut sites: Vec<SrcLoc> = Vec::with_capacity(p.insns.len());
    for (insn, site) in p.insns.iter().zip(&in_sites) {
        // Sources forward through `alias`. Lowering never emits the
        // fused forms, but they are forwarded too, so the pass can run
        // on its own output.
        let mut rewritten = match insn.decode() {
            (dst, Action::Const(idx)) => Insn::Const { dst, idx: pool_remap[idx as usize] },
            (dst, action) => Insn::encode(dst, action.map_srcs(|r| alias[r as usize])),
        };

        // Redundant Const: forward to the first materialization.
        if let Insn::Const { dst, idx } = rewritten {
            match first_const[idx as usize] {
                Some(reg) => {
                    alias[dst as usize] = reg;
                    stats.consts_deduped += 1;
                    continue; // the instruction itself is dropped
                }
                None => first_const[idx as usize] = Some(dst),
            }
        }

        // Strength reductions.
        match rewritten {
            // a + (-x) → a - x: `sub` is `add` with the subtrahend's
            // columns swapped, bit for bit, in this operand order.
            Insn::Add { dst, a, b } => {
                if let Some(Insn::Neg { a: x, .. }) = def[b as usize] {
                    rewritten = Insn::Sub { dst, a, b: x };
                    stats.neg_add_to_sub += 1;
                }
            }
            // a - (-x) → a + x, by the same column-swap identity.
            Insn::Sub { dst, a, b } => {
                if let Some(Insn::Neg { a: x, .. }) = def[b as usize] {
                    rewritten = Insn::Add { dst, a, b: x };
                    stats.neg_sub_to_add += 1;
                }
            }
            // x * x → sqr(x) only under the strict-positive proof, and
            // only at f64 precision: the double-double kernels disagree
            // in the *low* component's zero sign (mul's directed
            // product of [1,1] carries a -0.0 residual where sqr's
            // carries +0.0), so the rewrite is not bit-exact for dd.
            Insn::Mul { dst, a, b }
                if a == b && strict_pos[a as usize] && p.precision == Precision::F64 =>
            {
                rewritten = Insn::Sqr { dst, a };
                stats.mul_to_sqr += 1;
            }
            _ => {}
        }

        // Strict-positive transfer function (see the module docs).
        let sp = match rewritten {
            Insn::Const { idx, .. } => {
                let c = &consts[idx as usize];
                c.lo_hi > 0.0
                    && c.lo_hi.is_finite()
                    && c.lo_lo.is_finite()
                    && c.hi_hi.is_finite()
                    && c.hi_lo.is_finite()
            }
            Insn::Sqrt { a, .. } => strict_pos[a as usize],
            Insn::Min { a, b, .. } | Insn::Max { a, b, .. } => {
                strict_pos[a as usize] && strict_pos[b as usize]
            }
            _ => false,
        };
        strict_pos[rewritten.dst() as usize] = sp;
        def[rewritten.dst() as usize] = Some(rewritten);
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
        for &r in insn.decode().1.srcs() {
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
        for &r in insn.decode().1.srcs() {
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
        if let Insn::Mul { dst: t, a, b } = insns[i] {
            if i + 1 < insns.len() && uses[t as usize] == 1 && !is_output[t as usize] {
                let fuse = match insns[i + 1] {
                    Insn::Add { dst, a: acc, b: prod } if prod == t && acc != t => {
                        Some(Insn::MulAdd { dst, a, b, acc })
                    }
                    Insn::Sub { dst, a: acc, b: prod } if prod == t && acc != t => {
                        Some(Insn::MulSub { dst, a, b, acc })
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
        for &r in insn.decode().1.srcs() {
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
        let (dst, action) = insn.decode();
        let mapped = action.map_srcs(|r| map[r as usize].expect("validated: read after write"));
        // Release scratch slots whose old register dies at this read.
        for &r in action.srcs() {
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
        new_body.push(Insn::encode(dst_slot, mapped));
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
    VM_PEEPHOLE_SQR.add(stats.mul_to_sqr as u64);
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
    use igen_interval::{DdI, F64I};

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
                Insn::Neg { dst: 2, a: 1 },
                Insn::Add { dst: 3, a: 0, b: 2 },
                Insn::Mul { dst: 4, a: 0, b: 1 },
                Insn::Add { dst: 5, a: 3, b: 4 },
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
        let sub_at = q.insns.iter().position(|i| matches!(i, Insn::Sub { .. })).unwrap();
        assert_eq!(q.debug.site(sub_at), s(7, 5));
        let fused_at = q.insns.iter().position(|i| matches!(i, Insn::MulAdd { .. })).unwrap();
        assert_eq!(q.debug.site(fused_at), s(9, 5));
        // A program without a debug map stays without one.
        let bare = prog(2, 3, vec![], vec![Insn::Add { dst: 2, a: 0, b: 1 }], 2);
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
            vec![Insn::Neg { dst: 2, a: 1 }, Insn::Add { dst: 3, a: 0, b: 2 }],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_add_to_sub, 1);
        assert_eq!(st.insns_removed, 1, "the Neg is dead after the rewrite");
        assert_eq!(q.insns, vec![Insn::Sub { dst: 2, a: 0, b: 1 }]);
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
            vec![Insn::Neg { dst: 2, a: 1 }, Insn::Add { dst: 3, a: 2, b: 0 }],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_add_to_sub, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Neg { .. })));
    }

    #[test]
    fn sub_of_neg_becomes_add() {
        let p = prog(
            2,
            4,
            vec![],
            vec![Insn::Neg { dst: 2, a: 1 }, Insn::Sub { dst: 3, a: 0, b: 2 }],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.neg_sub_to_add, 1);
        assert_eq!(q.insns, vec![Insn::Add { dst: 2, a: 0, b: 1 }]);
    }

    #[test]
    fn mul_self_rewrites_only_under_the_strict_positive_proof() {
        // sqrt(c) with c = [2, 3] is strictly positive ⇒ rewrite fires.
        let pos = prog(
            0,
            3,
            vec![PoolConst::f64_pair(2.0, 3.0)],
            vec![
                Insn::Const { dst: 0, idx: 0 },
                Insn::Sqrt { dst: 1, a: 0 },
                Insn::Mul { dst: 2, a: 1, b: 1 },
            ],
            2,
        );
        let (q, st) = peephole(&pos);
        assert_eq!(st.mul_to_sqr, 1);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Sqr { .. })));

        // An input has unknown sign ⇒ no rewrite (mul(x,x) ≠ sqr(x)
        // on zero-straddling intervals).
        let unknown = prog(1, 2, vec![], vec![Insn::Mul { dst: 1, a: 0, b: 0 }], 1);
        let (q, st) = peephole(&unknown);
        assert_eq!(st.mul_to_sqr, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Mul { .. })));

        // A constant touching zero ⇒ no rewrite (signed-zero endpoints
        // differ between mul(x,x) and sqr(x)).
        let zero = prog(
            0,
            2,
            vec![PoolConst::f64_pair(0.0, 2.0)],
            vec![Insn::Const { dst: 0, idx: 0 }, Insn::Mul { dst: 1, a: 0, b: 0 }],
            1,
        );
        let (_, st) = peephole(&zero);
        assert_eq!(st.mul_to_sqr, 0);
    }

    /// The exactness claim behind Mul(x,x)→Sqr: for `0 < lo ≤ hi < ∞`,
    /// f64 self-multiplication and the dependency-aware square agree
    /// bit for bit, across magnitude extremes (subnormal underflow on
    /// the low product, overflow on the high). The dd pair does NOT —
    /// `mul([1,1],[1,1])` carries a `-0.0` low residual where `sqr`
    /// carries `+0.0` — which is why the pass gates the rewrite to f64;
    /// that counterexample is pinned below.
    #[test]
    fn mul_self_equals_sqr_bitwise_on_strictly_positive_intervals() {
        let mut xs: Vec<(f64, f64)> = vec![
            (1.0, 1.0),
            (0.5, 2.0),
            (1e-200, 1e-150),
            (4.9e-324, 1e-300), // lo² underflows to zero
            (1e150, 1.7e308),   // hi² overflows to +∞
            (f64::MIN_POSITIVE, f64::MAX),
            (0.1, 0.30000000000000004),
        ];
        // A deterministic pseudo-random sweep.
        let mut s = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = f64::from_bits(0x3FF0000000000000 | (s >> 12)) - 1.0; // [0,1)
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = f64::from_bits(0x3FF0000000000000 | (s >> 12)) - 1.0;
            let lo = 1e-3 + a * 10.0;
            let hi = lo + b * 10.0;
            xs.push((lo, hi));
        }
        for (lo, hi) in xs {
            let x = F64I::new(lo, hi).unwrap();
            let m = x.mul(&x);
            let q = x.sqr();
            assert_eq!(
                (m.lo().to_bits(), m.hi().to_bits()),
                (q.lo().to_bits(), q.hi().to_bits()),
                "f64 [{lo:e}, {hi:e}]"
            );
        }
        // The dd counterexample that keeps the rewrite f64-only: same
        // value, different low-word zero sign.
        let one = DdI::from_f64i(&F64I::new(1.0, 1.0).unwrap());
        let m = one.mul(&one);
        let q = one.sqr();
        assert_eq!(m.lo().hi().to_bits(), q.lo().hi().to_bits());
        assert_ne!(
            m.lo().lo().to_bits(),
            q.lo().lo().to_bits(),
            "if the dd kernels ever agree bitwise, the pass could admit dd Mul(x,x)→Sqr"
        );
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
                Insn::Mul { dst: 3, a: 1, b: 2 },
            ],
            3,
        );
        let (q, st) = peephole(&p);
        assert_eq!(q.consts.len(), 1);
        // One pool merge + one forwarded materialization.
        assert_eq!(st.consts_deduped, 2);
        let const_count = q.insns.iter().filter(|i| matches!(i, Insn::Const { .. })).count();
        assert_eq!(const_count, 1);
        // Both operands now read the single materialization, which
        // makes the Mul self-referential; the constant is strictly
        // positive, so the Sqr strength reduction fires on top.
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Sqr { .. })));
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
                Insn::Add { dst: 3, a: 0, b: 1 }, // seed accumulator
                Insn::Mul { dst: 4, a: 0, b: 1 },
                Insn::Add { dst: 5, a: 3, b: 4 },
                Insn::Mul { dst: 6, a: 2, b: 0 },
                Insn::Sub { dst: 7, a: 5, b: 6 },
            ],
            7,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 2);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::MulAdd { .. })));
        assert!(q.insns.iter().any(|i| matches!(i, Insn::MulSub { .. })));
        assert!(!q.insns.iter().any(|i| matches!(i, Insn::Mul { .. })));
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
            vec![Insn::Mul { dst: 3, a: 0, b: 1 }, Insn::Add { dst: 4, a: 3, b: 2 }],
            4,
        );
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Mul { .. })));
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
                Insn::Mul { dst: 3, a: 0, b: 1 },
                Insn::Add { dst: 4, a: 2, b: 3 },
                Insn::Abs { dst: 5, a: 3 },
            ],
            4,
        );
        p.outputs.push(OutputSlot { label: "aux".into(), reg: 5 });
        p.validate().expect("two-output program validates");
        let (q, st) = peephole(&p);
        assert_eq!(st.mul_acc_fused, 0);
        assert!(q.insns.iter().any(|i| matches!(i, Insn::Mul { .. })));
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
            insns.push(Insn::Add { dst, a: cur, b: 0 });
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
                Insn::Neg { dst: 1, a: 0 },
                Insn::Const { dst: 2, idx: 0 },
                Insn::Add { dst: 3, a: 1, b: 2 },
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
                Insn::Sqr { dst: 1, a: 0 },
                Insn::Neg { dst: 2, a: 0 },
                Insn::Add { dst: 3, a: 2, b: 1 },
                Insn::Abs { dst: 4, a: 3 },
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
