//! Batched execution of compiled bytecode programs.
//!
//! [`BatchProgram`] prepares an [`igen_vm::Program`] once — constants
//! decoded and hoisted into a persistent register bank — and fans it
//! out over a structure-of-arrays input batch through the tiled,
//! instruction-major executor ([`igen_vm::run_tile`]): items are
//! grouped four at a time onto the packed lane path (`F64Ix4`/`DdIx4`),
//! tiles of [`BatchConfig::tile_groups`] groups share one instruction
//! decode per opcode, and the scalar tail runs through the *same* tiled
//! executor at width 1. Tiles are distributed across threads with the
//! engine's pinned, order-preserving combine, and each worker reuses
//! one register bank across all its tiles, so per-call setup is gone
//! from both the packed and the tail path. One generic driver serves
//! both precisions, plain and profiled.
//!
//! Because the tile executor is bit-identical to per-group execution
//! for every tile size and lane width, the output batch is
//! **bit-identical at any thread count and any tile size**, for any
//! compiled function.

use crate::engine::{par_map_indexed_with, BatchConfig};
use crate::soa::{BatchDdI, BatchF64I, SoaBatch};
use igen_interval::{DdI, F64I};
use igen_kernels::LaneOrScalar;
use igen_telemetry::UnitProfiler;
use igen_vm::{
    program_width_hist, run_tile, Precision, PreparedProgram, Program, TileBank, VmElem,
};
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

/// Per-worker scratch: the tile register banks and output buffers one
/// worker thread reuses across every tile it executes. Banks are built
/// lazily so a worker that only sees the tail never allocates the
/// packed one (and vice versa). Scratch carries allocations only —
/// never values — so it cannot perturb the determinism guarantee.
struct Scratch<T: VmElem> {
    /// Tile size the packed bank was built for; a pooled scratch with a
    /// different tile drops its packed bank and rebuilds. Banks are
    /// sized to the tile actually *used* (never wider than the batch
    /// has groups): a wider bank would stride its sweeps past cold
    /// slots and waste cache-line bandwidth on every instruction.
    tile: usize,
    packed: Option<Bank<T, T::Lane>>,
    /// Items in the scalar-tail bank (1–3); same exact-fit rationale.
    tail_tile: usize,
    tail: Option<Bank<T, T>>,
}

/// A tile bank and the output buffer [`run_tile`] fills from it.
type Bank<T, L> = (TileBank<T, L>, Vec<L>);

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

    /// Checks a scratch set out of the pool, dropping any bank built
    /// for a different tile or tail size.
    fn lease(&self, tile: usize, tail: usize) -> Lease<'_, Scratch<T>> {
        let mut s = self.pool.lock().ok().and_then(|mut p| p.pop()).unwrap_or(Scratch {
            tile,
            packed: None,
            tail_tile: tail,
            tail: None,
        });
        if s.tile != tile {
            s.packed = None;
            s.tile = tile;
        }
        if s.tail_tile != tail {
            s.tail = None;
            s.tail_tile = tail;
        }
        Lease { scratch: Some(s), pool: &self.pool }
    }
}

/// Fills `bank`'s input columns for `ng` groups from `load(group,
/// input)`, runs one tile and returns its outputs item-major.
fn tile_pass<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    bank: &mut TileBank<T, L>,
    out: &mut Vec<L>,
    ng: usize,
    load: impl Fn(usize, usize) -> L,
    prof: Option<&mut UnitProfiler>,
) -> Vec<T> {
    let prog = prep.program();
    for j in 0..prog.n_inputs {
        for (g, slot) in bank.input_column(j).iter_mut().enumerate().take(ng) {
            *slot = load(g, j as usize);
        }
    }
    run_tile(prep, bank, ng, out, prof);
    let nout = prog.outputs.len();
    let mut part = Vec::with_capacity(ng * L::WIDTH * nout);
    for g in 0..ng {
        for l in 0..L::WIDTH {
            for s in 0..nout {
                part.push(out[s * ng + g].lane_l(l));
            }
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

    /// Runs an `f64` program over an item-major input batch; returns
    /// the item-major output batch.
    ///
    /// # Panics
    ///
    /// Panics if the program is not `f64` precision or the batch
    /// length is not a multiple of the input count.
    pub fn run(&self, cfg: &BatchConfig, inputs: &BatchF64I) -> BatchF64I {
        let Prepared::F64(t) = &self.prepared else {
            panic!("run_dd executes dd programs");
        };
        self.execute(t, cfg, inputs, None)
    }

    /// Runs a `dd` program over an item-major input batch; returns the
    /// item-major output batch.
    ///
    /// # Panics
    ///
    /// Panics if the program is not `dd` precision or the batch length
    /// is not a multiple of the input count.
    pub fn run_dd(&self, cfg: &BatchConfig, inputs: &BatchDdI) -> BatchDdI {
        let Prepared::Dd(t) = &self.prepared else {
            panic!("run executes f64 programs");
        };
        self.execute(t, cfg, inputs, None)
    }

    /// Runs an `f64` program with per-instruction width-provenance
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
    /// Panics if the program is not `f64` precision or the batch
    /// length is not a multiple of the input count.
    pub fn run_profiled(
        &self,
        cfg: &BatchConfig,
        inputs: &BatchF64I,
        prof: &mut UnitProfiler,
    ) -> BatchF64I {
        let Prepared::F64(t) = &self.prepared else {
            panic!("run_dd_profiled executes dd programs");
        };
        self.execute(t, cfg, inputs, Some(prof))
    }

    /// [`BatchProgram::run_profiled`] for `dd` programs — sequential,
    /// bit-identical to [`BatchProgram::run_dd`].
    ///
    /// # Panics
    ///
    /// Panics if the program is not `dd` precision or the batch length
    /// is not a multiple of the input count.
    pub fn run_dd_profiled(
        &self,
        cfg: &BatchConfig,
        inputs: &BatchDdI,
        prof: &mut UnitProfiler,
    ) -> BatchDdI {
        let Prepared::Dd(t) = &self.prepared else {
            panic!("run_profiled executes f64 programs");
        };
        self.execute(t, cfg, inputs, Some(prof))
    }

    /// The one tile driver behind every entry point: task `k` is a tile
    /// of up to `tile` packed groups, or, last, the scalar tail. A
    /// profiled run keeps every task on the calling thread.
    fn execute<T: VmElem, B: SoaBatch<Elem = T> + Sync>(
        &self,
        t: &Typed<T>,
        cfg: &BatchConfig,
        inputs: &B,
        prof: Option<&mut UnitProfiler>,
    ) -> B {
        let (prep, prog) = (&t.prep, t.prep.program());
        let profiled = prof.is_some();
        let prefix = if profiled { "vm.batch.profiled." } else { "vm.batch." };
        let _span = igen_telemetry::span_joined(prefix, &prog.name);
        let nin = prog.n_inputs as usize;
        let width = <T::Lane as LaneOrScalar<T>>::WIDTH;
        let items = self.items_in(inputs.len());
        let groups = items / width;
        let tail = items % width;
        // Exact-fit tile: never wider than the batch has groups, so the
        // bank sweeps touch only warm, contiguous slots.
        let tile = cfg.tile_groups().min(groups.max(1));
        let tile_tasks = groups.div_ceil(tile);
        let n_tasks = tile_tasks + usize::from(tail > 0);
        let task = |s: &mut Scratch<T>, k: usize, prof: Option<&mut UnitProfiler>| {
            if k < tile_tasks {
                let g0 = k * tile;
                let (bank, out) =
                    s.packed.get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
                let load = |g, j| inputs.load_lanes((g0 + g) * width * nin + j, nin);
                tile_pass(prep, bank, out, (groups - g0).min(tile), load, prof)
            } else {
                let (bank, out) =
                    s.tail.get_or_insert_with(|| (TileBank::new(prep, tail), Vec::new()));
                let load = |g, j| inputs.get((groups * width + g) * nin + j);
                tile_pass(prep, bank, out, tail, load, prof)
            }
        };
        let parts: Vec<Vec<T>> = match prof {
            Some(prof) => {
                let mut lease = t.lease(tile, tail);
                (0..n_tasks).map(|k| task(lease.get(), k, Some(&mut *prof))).collect()
            }
            None => par_map_indexed_with(
                cfg,
                n_tasks,
                || t.lease(tile, tail),
                |lease, k| task(lease.get(), k, None),
            ),
        };
        // Width recording only while a trace is live: one branch per
        // run, so untraced runs pay nothing.
        let hist =
            (!profiled && igen_telemetry::recording()).then(|| program_width_hist(&prog.name));
        let mut result = B::with_capacity(items * prog.outputs.len());
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
