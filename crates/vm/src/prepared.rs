//! The tiled, instruction-major executor: the VM's one instruction loop.
//!
//! Running the whole program once per 4-item group pays the full
//! instruction match and operand decode per group; on short programs
//! that dispatch overhead is most of the runtime. [`run_tile`] flips
//! the loop nest: the register file becomes a SoA *bank* of `TILE`
//! packed groups per register (`bank[reg * tile + g]`), each
//! instruction is decoded once per tile, and the inner loop is a
//! tight, branch-free sweep over the contiguous group column — the
//! classic vectorized-interpreter trick, applied to interval lanes.
//! With `TILE = 8` packed groups, one decode covers 32 items. The same
//! loop at tile 1 and width 1 over the raw instruction list is
//! [`run_scalar`](crate::exec::run_scalar).
//!
//! Every arithmetic instruction hands its whole sweep to the lane
//! type's one hook, [`LaneOps::sweep`], as the op, destination and
//! sources the instruction decodes to; a `Const` fills its column. For
//! `F64Ix4` on AVX2+FMA, `Add`, `Sub`, `Mul`, `MulAdd` and `MulSub` are
//! one `igen_round::simd::f64i_sweep_4` call per instruction per tile,
//! with each interval op kept in registers; every other instruction,
//! and `run_scalar`, `DdIx4` and the portable backend, run the
//! group-by-group default over `LaneOps::apply`.
//!
//! A tile runs whole groups only. When its item count is not a multiple
//! of the lane width, the caller fills the lanes the last group lacks
//! with any valid interval; those lanes are computed and then dropped,
//! because [`run_tile`] and its profiler hooks take the tile's live item
//! count and never look past it.
//!
//! Two pieces of per-call waste are also hoisted to preparation time:
//!
//! * [`PreparedProgram`] decodes every pool constant **once per
//!   (program, element type)** — an `Insn::Const` left in the executed
//!   body re-decodes and re-splats on every call.
//! * [`TileBank`] is built once per worker and pre-fills the constant
//!   columns, so a call only writes the input columns and the scratch
//!   registers the program itself defines. There is no per-call
//!   zeroing: [`Program::validate`] guarantees every read follows a
//!   write, so stale scratch from the previous tile is never observed.
//!
//! Execution order within a tile is *group-major per instruction*
//! (instruction-major overall), but every value computed for group `g`
//! depends only on column `g` — the columns never interact — so the
//! results are bit-identical to running each group alone at tile 1,
//! for any tile size. That keeps the batch determinism guarantee: tile
//! size, like thread count, cannot change a single endpoint bit.

use crate::bytecode::{decoded, Action, Insn, Program};
use crate::exec::{max_src_rel, VmElem, VM_INSNS_EXECUTED};
use igen_interval::LaneOps;
use igen_telemetry::profile::rel_width;
use igen_telemetry::{Counter, UnitProfiler};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs of the instruction loop: one per [`run_tile`] or
/// [`run_scalar`](crate::exec::run_scalar) call, independent of tile
/// size and lane width.
pub static VM_TILES: Counter = Counter::new("vm.tiles");

/// Default number of packed groups per tile (8 groups = 32 items at
/// packed width). Chosen so a register bank of a few dozen slots stays
/// comfortably inside L1 while still amortizing the per-instruction
/// decode ~8×; measured flat from 4–16 on the gauntlet kernels.
pub const DEFAULT_TILE_GROUPS: usize = 8;

static NEXT_PREP_ID: AtomicU64 = AtomicU64::new(0);

/// A [`Program`] with its per-call setup paid up front for element type
/// `T`: constants decoded from the pool once, and `Const` instructions
/// whose register is never rewritten split out of the executed body so
/// a [`TileBank`] can hold them for the program's lifetime.
///
/// Clones share the preparation identity, so a [`TileBank`] built for
/// one clone works with any other — the hoisted constants are
/// identical by construction.
#[derive(Debug, Clone)]
pub struct PreparedProgram<T: VmElem> {
    prog: Program,
    id: u64,
    /// Hoisted constants: `(register, decoded value)`. A `Const` is
    /// hoistable iff its destination is written exactly once in the
    /// whole program and is not an input register — then its value is
    /// call-invariant and lives in the bank.
    consts: Vec<(u32, T)>,
    /// The instructions executed per call (everything not hoisted, in
    /// original order).
    body: Vec<Insn>,
    /// For each body instruction, its index in `prog.insns` — the key
    /// into the program's [`DebugMap`](crate::bytecode::DebugMap) and
    /// the profiler's site table (hoisting shifts body positions, so
    /// body index ≠ instruction index).
    body_idx: Vec<u32>,
}

impl<T: VmElem> PreparedProgram<T> {
    /// Prepares `prog` for tiled execution.
    ///
    /// # Panics
    ///
    /// Panics if `T`'s precision does not match the program's, or if
    /// the program fails [`Program::validate`].
    pub fn new(prog: Program) -> PreparedProgram<T> {
        assert_eq!(T::PRECISION, prog.precision, "element precision does not match program");
        prog.validate().expect("prepared program must validate");
        let mut writes = vec![0u32; prog.n_regs as usize];
        for insn in &prog.insns {
            writes[insn.dst() as usize] += 1;
        }
        let mut consts = Vec::new();
        let mut body = Vec::new();
        let mut body_idx = Vec::new();
        for (i, insn) in prog.insns.iter().enumerate() {
            if let Insn::Const { dst, idx } = *insn {
                if dst >= prog.n_inputs && writes[dst as usize] == 1 {
                    consts.push((dst, T::from_const(&prog.consts[idx as usize])));
                    continue;
                }
            }
            body.push(*insn);
            body_idx.push(i as u32);
        }
        let id = NEXT_PREP_ID.fetch_add(1, Ordering::Relaxed);
        PreparedProgram { prog, id, consts, body, body_idx }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Instructions executed per call (hoisted constants excluded).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Constants hoisted into the bank.
    pub fn hoisted_consts(&self) -> usize {
        self.consts.len()
    }
}

/// The SoA register bank for one worker: `n_regs` columns of `tile`
/// lane vectors, laid out `bank[reg * tile + g]` so each instruction's
/// inner sweep walks contiguous memory. Constant columns are filled at
/// construction and never touched by [`run_tile`]; build one bank per
/// worker thread and reuse it across every tile that worker executes.
#[derive(Debug)]
pub struct TileBank<T: VmElem, L: LaneOps<Elem = T>> {
    bank: Vec<L>,
    tile: usize,
    n_inputs: usize,
    prep_id: u64,
    _elem: PhantomData<T>,
}

impl<T: VmElem, L: LaneOps<Elem = T>> TileBank<T, L> {
    /// Builds a bank of `tile` groups per register for `prep`,
    /// pre-filling the hoisted constant columns.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn new(prep: &PreparedProgram<T>, tile: usize) -> TileBank<T, L> {
        assert!(tile > 0, "tile must be at least one group");
        let n_regs = prep.prog.n_regs as usize;
        let mut bank = vec![L::default(); n_regs * tile];
        for &(reg, c) in &prep.consts {
            let v = L::splat(c);
            bank[reg as usize * tile..(reg as usize + 1) * tile].fill(v);
        }
        TileBank {
            bank,
            tile,
            n_inputs: prep.prog.n_inputs as usize,
            prep_id: prep.id,
            _elem: PhantomData,
        }
    }

    /// Groups per tile.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The mutable input column for register `reg`: `tile` lane
    /// vectors, group-major. Fill the groups that hold the tile's items
    /// before [`run_tile`], every lane of each; groups past them are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not an input register.
    pub fn input_column(&mut self, reg: u32) -> &mut [L] {
        assert!((reg as usize) < self.n_inputs, "r{reg} is not an input register");
        let base = reg as usize * self.tile;
        &mut self.bank[base..base + self.tile]
    }
}

/// The instruction loop: executes `body` over the first `items`
/// elements (`items.div_ceil(L::LANES)` group columns) of a bank `tile`
/// groups wide. `site(i)` is body instruction `i`'s index in
/// `prog.insns`, the key into the program's
/// [`DebugMap`](crate::bytecode::DebugMap) and the profiler's site
/// table.
///
/// A live `prof` times each sweep as one sample and takes one
/// input/output width sample per live element the sweep produced; the
/// lanes past `items` in the last group are never sampled. It reads the
/// bank between sweeps, never inside one, so a profiled run is
/// bit-identical to a plain one.
///
/// Inlined into both callers, so `run_scalar`'s constant tile, lane
/// width and item count of 1 fold every sweep down to a single
/// operation.
#[inline(always)]
pub(crate) fn run_body<T: VmElem, L: LaneOps<Elem = T>>(
    prog: &Program,
    body: &[Insn],
    site: impl Fn(usize) -> usize,
    bank: &mut [L],
    tile: usize,
    items: usize,
    prof: Option<&mut UnitProfiler>,
) {
    let n = items.div_ceil(L::LANES);
    // `active()` is a constant `false` without the telemetry feature,
    // so every hook below folds away.
    let mut prof = prof.filter(|p| p.active());
    // Widest source width per live element `k`, lane `k % L::LANES` of
    // group `k / L::LANES`.
    let mut max_in = Vec::new();
    // A register's first group in the bank.
    let col = |r: u32| r as usize * tile;
    for (bi, insn) in body.iter().enumerate() {
        let t0 = match prof.as_deref_mut() {
            Some(p) => {
                let (_, action) = insn.decode();
                let oi = site(bi);
                let loc = prog.debug.site(oi);
                p.set_meta(oi, loc.line, loc.col, insn.op_name());
                // Source widths are read before the sweep: the peephole
                // reuses registers, so dst may alias a source.
                max_in.clear();
                let srcs = action.srcs();
                for k in 0..items {
                    let (g, l) = (k / L::LANES, k % L::LANES);
                    max_in.push(max_src_rel(srcs, |r| bank[col(r) + g].lane(l).endpoints_f64()));
                }
                p.now_ns()
            }
            None => 0,
        };
        // One match per instruction: the sweep runs in the decode's own
        // arm, with a constant op.
        decoded!(insn, |dst, action| match action {
            // Only non-hoistable constants reach a prepared body
            // (rewritten register or input-register destination); the
            // raw instruction list decodes every constant here.
            Action::Const(idx) => {
                let v = L::splat(T::from_const(&prog.consts[idx as usize]));
                bank[col(dst)..col(dst) + n].fill(v);
            }
            // `MulAdd`/`MulSub` are dispatch-fused multiply-accumulates:
            // the same two rounded interval ops as the Mul+Add/Sub pair
            // they replaced, product on the right of the accumulate, so
            // bit-identical; the product never round-trips the bank.
            Action::Op(op, [a, b, c]) => L::sweep(op, bank, n, col(dst), [col(a), col(b), col(c)]),
        });
        if let Some(p) = prof.as_deref_mut() {
            let (oi, dst) = (site(bi), insn.dst());
            p.add_time(oi, p.now_ns().saturating_sub(t0));
            for (k, &w) in max_in.iter().enumerate() {
                let (lo, hi) = bank[col(dst) + k / L::LANES].lane(k % L::LANES).endpoints_f64();
                p.add_sample(oi, w, rel_width(lo, hi));
            }
        }
    }
    VM_INSNS_EXECUTED.add(body.len() as u64);
    VM_TILES.inc();
}

/// Executes `prep` over the first `items` elements of `bank`, in
/// `n_groups = items.div_ceil(L::LANES)` group columns (inputs already
/// written via [`TileBank::input_column`], padding lanes included).
/// Declared outputs land in `outputs` slot-major:
/// `outputs[slot * n_groups + g]` is output `slot` for group `g`, and
/// the caller reads only the lanes of its `items` elements.
///
/// With a live `prof`, each body instruction's sweep is profiled
/// against its *original* instruction index (the hoisted-constant split
/// shifts body positions, so the prepared program carries the index
/// map), and only the live elements are sampled. Bit-identical to
/// running each group alone at tile 1, for every tile size and lane
/// width, profiled or not — see the module docs.
///
/// # Panics
///
/// Panics if `bank` was built for a different [`PreparedProgram`] or if
/// the items need more groups than the bank's tile.
pub fn run_tile<T: VmElem, L: LaneOps<Elem = T>>(
    prep: &PreparedProgram<T>,
    bank: &mut TileBank<T, L>,
    items: usize,
    outputs: &mut Vec<L>,
    prof: Option<&mut UnitProfiler>,
) {
    assert_eq!(bank.prep_id, prep.id, "tile bank was built for a different program");
    let n_groups = items.div_ceil(L::LANES);
    assert!(n_groups <= bank.tile, "{items} items need {n_groups} groups, tile is {}", bank.tile);
    let tile = bank.tile;
    let site = |bi: usize| prep.body_idx[bi] as usize;
    run_body(&prep.prog, &prep.body, site, &mut bank.bank, tile, items, prof);
    outputs.clear();
    for o in &prep.prog.outputs {
        let oi = o.reg as usize * tile;
        outputs.extend_from_slice(&bank.bank[oi..oi + n_groups]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{OutputSlot, PoolConst, Precision};
    use crate::exec::run_scalar;
    use igen_interval::{F64Ix4, F64I};

    fn quad() -> Program {
        // return -b + sqrt(b² - 4ac), same shape as the exec tests.
        let p = Program {
            name: "quad".into(),
            precision: Precision::F64,
            n_inputs: 3,
            n_regs: 11,
            consts: vec![PoolConst::f64_pair(4.0, 4.0)],
            insns: vec![
                Insn::Sqr { dst: 3, a: 1 },
                Insn::Const { dst: 4, idx: 0 },
                Insn::Mul { dst: 5, a: 4, b: 0 },
                Insn::Mul { dst: 6, a: 5, b: 2 },
                Insn::Sub { dst: 7, a: 3, b: 6 },
                Insn::Sqrt { dst: 8, a: 7 },
                Insn::Neg { dst: 9, a: 1 },
                Insn::Add { dst: 10, a: 9, b: 8 },
            ],
            inputs: vec!["a".into(), "b".into(), "c".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 10 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("valid test program");
        p
    }

    fn item(i: usize) -> [F64I; 3] {
        let f = i as f64;
        [
            F64I::new(1.0 + 0.25 * f, 1.0 + 0.3 * f).unwrap(),
            F64I::new(-3.5 - f, -3.0 - f).unwrap(),
            F64I::new(0.5, 0.75 + 0.1 * f).unwrap(),
        ]
    }

    #[test]
    fn constants_are_hoisted_out_of_the_body() {
        let prep = PreparedProgram::<F64I>::new(quad());
        assert_eq!(prep.hoisted_consts(), 1);
        assert_eq!(prep.body_len(), 7);
    }

    #[test]
    fn tiled_scalar_matches_run_scalar_at_every_fill_level() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64I>::new(&prep, 5);
        let mut out = Vec::new();
        for n_groups in [0usize, 1, 3, 5] {
            for (g, it) in (0..n_groups).map(|g| (g, item(g + 7 * n_groups))) {
                for (r, v) in it.iter().enumerate() {
                    bank.input_column(r as u32)[g] = *v;
                }
            }
            run_tile(&prep, &mut bank, n_groups, &mut out, None);
            assert_eq!(out.len(), n_groups);
            for (g, got) in out.iter().enumerate() {
                let want = run_scalar(&p, &item(g + 7 * n_groups))[0];
                assert_eq!(got.lo().to_bits(), want.lo().to_bits());
                assert_eq!(got.hi().to_bits(), want.hi().to_bits());
            }
        }
    }

    #[test]
    fn tiled_packed_matches_scalar_per_lane_and_bank_reuse_is_clean() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64Ix4>::new(&prep, 3);
        let mut out = Vec::new();
        // Two consecutive calls through the same bank: the second must
        // not observe anything from the first (constants persist,
        // scratch is dead by validation). Both end in a padded group.
        for (call, items) in [(0usize, 11usize), (1, 6)] {
            let n_groups = items.div_ceil(4);
            for g in 0..n_groups {
                for r in 0..3u32 {
                    bank.input_column(r)[g] = F64Ix4::from_lanes_fn(|l| {
                        let k = 4 * g + l;
                        if k < items {
                            item(100 * call + k)[r as usize]
                        } else {
                            F64I::ONE
                        }
                    });
                }
            }
            run_tile(&prep, &mut bank, items, &mut out, None);
            assert_eq!(out.len(), n_groups);
            for k in 0..items {
                let want = run_scalar(&p, &item(100 * call + k))[0];
                let got = out[k / 4].lane(k % 4);
                assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "call {call} item {k}");
                assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "call {call} item {k}");
            }
        }
    }

    #[test]
    fn register_reuse_with_dst_equal_to_src_is_exact() {
        // r1 = x + x; r1 = r1 * r1 (relaxed form, dst == both srcs).
        let p = Program {
            name: "reuse".into(),
            precision: Precision::F64,
            n_inputs: 1,
            n_regs: 2,
            consts: vec![],
            insns: vec![Insn::Add { dst: 1, a: 0, b: 0 }, Insn::Mul { dst: 1, a: 1, b: 1 }],
            inputs: vec!["x".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 1 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("relaxed form validates");
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64I>::new(&prep, 4);
        let mut out = Vec::new();
        for g in 0..4 {
            bank.input_column(0)[g] = F64I::new(-1.5 - g as f64, 2.0 + g as f64).unwrap();
        }
        run_tile(&prep, &mut bank, 4, &mut out, None);
        for (g, got) in out.iter().enumerate() {
            let x = F64I::new(-1.5 - g as f64, 2.0 + g as f64).unwrap();
            let want = run_scalar(&p, &[x])[0];
            assert_eq!(got.lo().to_bits(), want.lo().to_bits());
            assert_eq!(got.hi().to_bits(), want.hi().to_bits());
        }
    }

    /// Plain and profiled runs over the same bank, at the lane width `L`.
    fn check_profiled_tile<L: LaneOps<Elem = F64I>>() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, L>::new(&prep, 4);
        let fill = |bank: &mut TileBank<F64I, L>| {
            for g in 0..4 {
                for r in 0..3u32 {
                    bank.input_column(r)[g] =
                        L::from_lanes_fn(|l| item(L::LANES * g + l)[r as usize]);
                }
            }
        };
        let items = 4 * L::LANES;
        fill(&mut bank);
        let mut plain = Vec::new();
        run_tile(&prep, &mut bank, items, &mut plain, None);
        // Recording on makes the profiler live under the telemetry
        // feature; without it this pins the folded-away hooks.
        igen_telemetry::set_recording(true);
        let mut prof = igen_telemetry::UnitProfiler::start(&p.name, p.insns.len());
        fill(&mut bank);
        let mut profiled = Vec::new();
        run_tile(&prep, &mut bank, items, &mut profiled, Some(&mut prof));
        prof.finish();
        igen_telemetry::set_recording(false);
        assert_eq!(plain.len(), profiled.len());
        for (w, g) in plain.iter().zip(&profiled) {
            for l in 0..L::LANES {
                let (w, g) = (w.lane(l), g.lane(l));
                assert_eq!(w.lo().to_bits(), g.lo().to_bits());
                assert_eq!(w.hi().to_bits(), g.hi().to_bits());
            }
        }
    }

    #[test]
    fn profiled_tile_is_bit_identical_to_plain() {
        check_profiled_tile::<F64I>();
        check_profiled_tile::<F64Ix4>();
    }

    #[test]
    fn body_index_map_names_original_instructions() {
        // quad hoists the single Const (original index 1): every body
        // instruction keeps its index into prog.insns.
        let prep = PreparedProgram::<F64I>::new(quad());
        assert_eq!(prep.body_idx.len(), prep.body.len());
        assert_eq!(prep.body_idx, vec![0, 2, 3, 4, 5, 6, 7]);
        for (bi, &oi) in prep.body_idx.iter().enumerate() {
            assert_eq!(prep.body[bi], prep.prog.insns[oi as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn bank_is_pinned_to_its_program() {
        let prep_a = PreparedProgram::<F64I>::new(quad());
        let prep_b = PreparedProgram::<F64I>::new(quad());
        let mut bank = TileBank::<F64I, F64I>::new(&prep_a, 2);
        let mut out = Vec::new();
        run_tile(&prep_b, &mut bank, 1, &mut out, None);
    }
}
