//! Batched execution of compiled bytecode programs.
//!
//! [`BatchProgram`] prepares an [`igen_vm::Program`] once — constants
//! decoded and hoisted into a persistent register bank — and fans it
//! out over a structure-of-arrays input batch through the tiled,
//! instruction-major executor ([`igen_vm::run_tile`]): items are
//! grouped four at a time onto the packed lane path (`F64Ix4`/`DdIx4`),
//! and tiles of [`BatchConfig::tile_groups`] groups share one
//! instruction decode per opcode. A batch whose size is not a multiple
//! of four ends in one padded group: the lanes it lacks hold the point
//! interval `[1, 1]` (finite, nonzero, inside every kernel guard) and
//! are dropped before the output batch, the width histogram or the
//! profiler sees them. Tiles are distributed across threads with the
//! engine's pinned, order-preserving combine, and each worker reuses
//! one register bank across all its tiles, so per-call setup is gone.
//! One generic tile loop serves both precisions, plain and profiled: the
//! entry points take a [`SoaBatch`] of either element and panic when it
//! does not match the program's precision.
//!
//! Lanes never interact, and the tile executor is bit-identical to
//! per-group execution for every tile size, so the output batch is
//! **bit-identical at any thread count and any tile size**, and to
//! `igen_vm::run_scalar` item for item, for any compiled function.

use crate::engine::{par_map_indexed_with, BatchConfig};
use crate::soa::{BatchDdI, SoaBatch};
use igen_interval::{DdI, LaneOps, F64I};
use igen_telemetry::UnitProfiler;
use igen_vm::{
    program_width_hist, run_tile, PoolConst, Precision, PreparedProgram, Program, TileBank, VmElem,
};
use std::any::Any;
use std::sync::Mutex;

/// Upper bound on pooled scratch sets kept across calls — enough for
/// any realistic worker count without hoarding memory on huge machines.
const POOL_CAP: usize = 64;

/// A program prepared for one element type, with its scratch pool: tile
/// banks handed back after every run so repeated calls (the benchmark
/// loop, long-lived services) stop paying bank allocation and constant
/// fill. The pool holds allocations only, never values, so sharing it
/// across calls cannot change a result bit.
struct Typed<T: VmElem> {
    prep: PreparedProgram<T>,
    pool: Mutex<Vec<Scratch<T>>>,
}

impl<T: VmElem> Clone for Typed<T> {
    fn clone(&self) -> Typed<T> {
        // Scratch is per-instance cache, not state: clones start empty.
        Typed { prep: self.prep.clone(), pool: Mutex::new(Vec::new()) }
    }
}

impl<T: VmElem> std::fmt::Debug for Typed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Typed").field("prep", &self.prep).finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
enum Prepared {
    F64(Typed<F64I>),
    Dd(Typed<DdI>),
}

/// A compiled program ready for batched evaluation.
///
/// Inputs are consumed item-major: item `i` occupies elements
/// `i * n_inputs .. (i + 1) * n_inputs` of the input batch, in the
/// program's declared input order; outputs are produced item-major in
/// the program's declared output order.
#[derive(Debug, Clone)]
pub struct BatchProgram {
    prepared: Prepared,
}

/// Per-worker scratch: the tile register bank one worker thread reuses
/// across every tile it executes, built on first use. Scratch carries
/// allocations only — never values — so it cannot perturb the
/// determinism guarantee.
struct Scratch<T: VmElem> {
    /// Tile size the bank was built for; a pooled scratch with a
    /// different tile drops its bank and rebuilds. Banks are sized to
    /// the tile actually *used* (never wider than the batch has
    /// groups): a wider bank would stride its sweeps past cold slots
    /// and waste cache-line bandwidth on every instruction.
    tile: usize,
    bank: Option<Bank<T>>,
}

/// A tile bank and the output buffer [`run_tile`] fills from it.
type Bank<T> = (TileBank<T, <T as VmElem>::Lane>, Vec<<T as VmElem>::Lane>);

/// Checks a scratch set out of a pool and returns it on drop (even on
/// worker panic unwinding), capped at [`POOL_CAP`].
struct Lease<'a, S> {
    scratch: Option<S>,
    pool: &'a Mutex<Vec<S>>,
}

impl<S> Lease<'_, S> {
    fn get(&mut self) -> &mut S {
        self.scratch.as_mut().expect("lease holds scratch until drop")
    }
}

impl<S> Drop for Lease<'_, S> {
    fn drop(&mut self) {
        if let (Some(s), Ok(mut pool)) = (self.scratch.take(), self.pool.lock()) {
            if pool.len() < POOL_CAP {
                pool.push(s);
            }
        }
    }
}

impl<T: VmElem> Typed<T> {
    fn new(prog: Program) -> Typed<T> {
        Typed { prep: PreparedProgram::new(prog), pool: Mutex::new(Vec::new()) }
    }

    /// Checks a scratch set out of the pool, dropping a bank built for
    /// a different tile size.
    fn lease(&self, tile: usize) -> Lease<'_, Scratch<T>> {
        let mut s =
            self.pool.lock().ok().and_then(|mut p| p.pop()).unwrap_or(Scratch { tile, bank: None });
        if s.tile != tile {
            s.bank = None;
            s.tile = tile;
        }
        Lease { scratch: Some(s), pool: &self.pool }
    }
}

/// Runs items `first..first + items` of `inputs` as one tile: fills the
/// input columns group by group, the lanes a short last group lacks
/// with `[1, 1]`, and returns the outputs item-major without them.
fn tile_pass<T: VmElem>(
    prep: &PreparedProgram<T>,
    (bank, out): &mut Bank<T>,
    inputs: &SoaBatch<T>,
    first: usize,
    items: usize,
    prof: Option<&mut UnitProfiler>,
) -> Vec<T> {
    let prog = prep.program();
    let (nin, lanes) = (prog.n_inputs as usize, T::Lane::LANES);
    let groups = items.div_ceil(lanes);
    let pad = T::from_const(&PoolConst::f64_pair(1.0, 1.0));
    for j in 0..nin {
        for (g, slot) in bank.input_column(j as u32).iter_mut().enumerate().take(groups) {
            let item = |l: usize| (first + g * lanes + l) * nin + j;
            *slot = if (g + 1) * lanes <= items {
                inputs.load_x4(item(0), nin)
            } else {
                T::Lane::from_lanes_fn(|l| {
                    if g * lanes + l < items {
                        inputs.get(item(l))
                    } else {
                        pad
                    }
                })
            };
        }
    }
    run_tile(prep, bank, items, out, prof);
    let nout = prog.outputs.len();
    let mut part = Vec::with_capacity(items * nout);
    for k in 0..items {
        for s in 0..nout {
            part.push(out[s * groups + k / lanes].lane(k % lanes));
        }
    }
    part
}

impl BatchProgram {
    /// Prepares a lowered program for batched evaluation (decodes the
    /// constant pool once, per the program's precision).
    ///
    /// # Panics
    ///
    /// Panics if the program declares no inputs (a closed program has
    /// nothing to batch over).
    pub fn new(prog: Program) -> BatchProgram {
        assert!(prog.n_inputs > 0, "batched programs need at least one input");
        let prepared = match prog.precision {
            Precision::F64 => Prepared::F64(Typed::new(prog)),
            Precision::Dd => Prepared::Dd(Typed::new(prog)),
        };
        BatchProgram { prepared }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        match &self.prepared {
            Prepared::F64(t) => t.prep.program(),
            Prepared::Dd(t) => t.prep.program(),
        }
    }

    /// Items contained in an input batch of this length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of the program's input count.
    pub fn items_in(&self, len: usize) -> usize {
        let nin = self.program().n_inputs as usize;
        assert_eq!(len % nin, 0, "input batch length must be a multiple of {nin}");
        len / nin
    }

    /// Runs the program over an item-major input batch of its element;
    /// returns the item-major output batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch's element does not match the program's
    /// precision or the batch length is not a multiple of the input
    /// count.
    pub fn run<T: VmElem>(&self, cfg: &BatchConfig, inputs: &SoaBatch<T>) -> SoaBatch<T> {
        self.execute(cfg, inputs, None)
    }

    /// [`BatchProgram::run`] at double-double, under the name the
    /// `igen-ledger` benchmark still calls.
    pub fn run_dd(&self, cfg: &BatchConfig, inputs: &BatchDdI) -> BatchDdI {
        self.run(cfg, inputs)
    }

    /// [`BatchProgram::run`] with per-instruction width-provenance
    /// profiling into `prof` (see [`igen_vm::run_tile`]).
    ///
    /// Sequential by design: profiling wants undistorted per-site
    /// timing, and the output is bit-identical to [`BatchProgram::run`]
    /// at any thread count regardless. The program-level width
    /// histogram is *not* fed here — the profile rows already carry the
    /// widths, site by site.
    ///
    /// # Panics
    ///
    /// Same as [`BatchProgram::run`].
    pub fn run_profiled<T: VmElem>(
        &self,
        cfg: &BatchConfig,
        inputs: &SoaBatch<T>,
        prof: &mut UnitProfiler,
    ) -> SoaBatch<T> {
        self.execute(cfg, inputs, Some(prof))
    }

    /// The prepared program of element `T`.
    fn typed<T: VmElem>(&self) -> &Typed<T> {
        let typed: &dyn Any = match &self.prepared {
            Prepared::F64(t) => t,
            Prepared::Dd(t) => t,
        };
        typed.downcast_ref().unwrap_or_else(|| {
            panic!("{:?} inputs for a {:?} program", T::PRECISION, self.program().precision)
        })
    }

    /// The one tile driver behind every entry point: task `k` is a tile
    /// of up to `tile` packed groups, the last of which may be padded. A
    /// profiled run keeps every task on the calling thread.
    fn execute<T: VmElem>(
        &self,
        cfg: &BatchConfig,
        inputs: &SoaBatch<T>,
        prof: Option<&mut UnitProfiler>,
    ) -> SoaBatch<T> {
        let t = self.typed::<T>();
        let (prep, prog) = (&t.prep, t.prep.program());
        let profiled = prof.is_some();
        let prefix = if profiled { "vm.batch.profiled." } else { "vm.batch." };
        let _span = igen_telemetry::span_joined(prefix, &prog.name);
        let items = self.items_in(inputs.len());
        // Exact-fit tile: never wider than the batch has groups, so the
        // bank sweeps touch only warm, contiguous slots.
        let tile = cfg.tile_groups().min(items.div_ceil(T::Lane::LANES).max(1));
        let per_task = tile * T::Lane::LANES;
        let n_tasks = items.div_ceil(per_task);
        let task = |s: &mut Scratch<T>, k: usize, prof: Option<&mut UnitProfiler>| {
            let first = k * per_task;
            let bank = s.bank.get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
            tile_pass(prep, bank, inputs, first, (items - first).min(per_task), prof)
        };
        let parts: Vec<Vec<T>> = match prof {
            Some(prof) => {
                let mut lease = t.lease(tile);
                (0..n_tasks).map(|k| task(lease.get(), k, Some(&mut *prof))).collect()
            }
            None => par_map_indexed_with(
                cfg,
                n_tasks,
                || t.lease(tile),
                |lease, k| task(lease.get(), k, None),
            ),
        };
        // Width recording only while a trace is live: one branch per
        // run, so untraced runs pay nothing.
        let hist =
            (!profiled && igen_telemetry::recording()).then(|| program_width_hist(&prog.name));
        let mut result = SoaBatch::with_capacity(items * prog.outputs.len());
        for v in parts.into_iter().flatten() {
            if let Some(hist) = hist {
                let (lo, hi) = v.endpoints_f64();
                hist.record(lo, hi);
            }
            result.push(v);
        }
        result
    }
}
