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
//! from both the packed and the tail path.
//!
//! Because the tile executor is bit-identical to per-group execution
//! for every tile size and lane width, the output batch is
//! **bit-identical at any thread count and any tile size** — the same
//! guarantee the named kernels enjoy, now for arbitrary compiled
//! functions.

use crate::engine::{par_map_indexed_with, BatchConfig};
use crate::soa::{BatchDdI, BatchF64I};
use igen_interval::{DdI, DdIx4, F64Ix4, F64I};
use igen_kernels::LaneOrScalar;
use igen_vm::{
    program_width_hist, run_tile, run_tile_profiled, Precision, PreparedProgram, Program, TileBank,
};
use std::sync::Mutex;

/// Upper bound on pooled scratch sets kept across calls — enough for
/// any realistic worker count without hoarding memory on huge machines.
const POOL_CAP: usize = 64;

#[derive(Debug, Clone)]
enum Prepared {
    F64(PreparedProgram<F64I>),
    Dd(PreparedProgram<DdI>),
}

impl Prepared {
    fn program(&self) -> &Program {
        match self {
            Prepared::F64(p) => p.program(),
            Prepared::Dd(p) => p.program(),
        }
    }
}

/// A compiled program ready for batched evaluation.
///
/// Inputs are consumed item-major: item `i` occupies elements
/// `i * n_inputs .. (i + 1) * n_inputs` of the input batch, in the
/// program's declared input order; outputs are produced item-major in
/// the program's declared output order.
#[derive(Debug)]
pub struct BatchProgram {
    prepared: Prepared,
    // Scratch pools: tile banks handed back after every run so repeated
    // calls (the benchmark loop, long-lived services) stop paying bank
    // allocation and constant fill. Pools hold allocations only, never
    // values, so sharing them across calls cannot change a result bit.
    pool_f64: Mutex<Vec<Scratch>>,
    pool_dd: Mutex<Vec<ScratchDd>>,
}

impl Clone for BatchProgram {
    fn clone(&self) -> BatchProgram {
        // Scratch is per-instance cache, not state: clones start empty.
        BatchProgram {
            prepared: self.prepared.clone(),
            pool_f64: Mutex::new(Vec::new()),
            pool_dd: Mutex::new(Vec::new()),
        }
    }
}

/// Per-worker scratch: the tile register banks and output buffers one
/// worker thread reuses across every tile it executes. Banks are built
/// lazily so a worker that only sees the tail never allocates the
/// packed one (and vice versa). Scratch carries allocations only —
/// never values — so it cannot perturb the determinism guarantee.
#[derive(Debug)]
struct Scratch {
    /// Tile size the packed bank was built for; a pooled scratch with a
    /// different tile drops its packed bank and rebuilds. Banks are
    /// sized to the tile actually *used* (never wider than the batch
    /// has groups): a wider bank would stride its sweeps past cold
    /// slots and waste cache-line bandwidth on every instruction.
    tile: usize,
    packed: Option<(TileBank<F64I, F64Ix4>, Vec<F64Ix4>)>,
    /// Items in the scalar-tail bank (1–3); same exact-fit rationale.
    tail_tile: usize,
    tail: Option<(TileBank<F64I, F64I>, Vec<F64I>)>,
}

#[derive(Debug)]
struct ScratchDd {
    tile: usize,
    packed: Option<(TileBank<DdI, DdIx4>, Vec<DdIx4>)>,
    tail_tile: usize,
    tail: Option<(TileBank<DdI, DdI>, Vec<DdI>)>,
}

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
            Precision::F64 => Prepared::F64(PreparedProgram::new(prog)),
            Precision::Dd => Prepared::Dd(PreparedProgram::new(prog)),
        };
        BatchProgram { prepared, pool_f64: Mutex::new(Vec::new()), pool_dd: Mutex::new(Vec::new()) }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        self.prepared.program()
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
        let Prepared::F64(prep) = &self.prepared else {
            panic!("run_dd executes dd programs");
        };
        let prog = prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.", &prog.name);
        let nin = prog.n_inputs as usize;
        let nout = prog.outputs.len();
        let items = self.items_in(inputs.len());
        let groups = items / 4;
        let tail = items % 4;
        // Exact-fit tile: never wider than the batch has groups, so the
        // bank sweeps touch only warm, contiguous slots.
        let tile = cfg.tile_groups().min(groups.max(1));
        let tile_tasks = groups.div_ceil(tile);
        let n_tasks = tile_tasks + usize::from(tail > 0);
        let parts: Vec<Vec<F64I>> = par_map_indexed_with(
            cfg,
            n_tasks,
            || {
                let mut s = self
                    .pool_f64
                    .lock()
                    .ok()
                    .and_then(|mut p| p.pop())
                    .unwrap_or(Scratch { tile, packed: None, tail_tile: tail, tail: None });
                if s.tile != tile {
                    s.packed = None;
                    s.tile = tile;
                }
                if s.tail_tile != tail {
                    s.tail = None;
                    s.tail_tile = tail;
                }
                Lease { scratch: Some(s), pool: &self.pool_f64 }
            },
            |lease, t| {
                let scratch = lease.get();
                let mut part = Vec::new();
                if t < tile_tasks {
                    // A tile of up to `tile` packed groups: fill the
                    // input columns, one instruction-major sweep, read
                    // the slot-major outputs back item-major.
                    let g0 = t * tile;
                    let ng = (groups - g0).min(tile);
                    let (bank, out) = scratch
                        .packed
                        .get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
                    for j in 0..nin {
                        let col = bank.input_column(j as u32);
                        for (g, slot) in col.iter_mut().enumerate().take(ng) {
                            *slot = inputs.load_x4((g0 + g) * 4 * nin + j, nin);
                        }
                    }
                    run_tile(prep, bank, ng, out);
                    part.reserve(ng * 4 * nout);
                    for g in 0..ng {
                        for l in 0..4 {
                            for s in 0..nout {
                                part.push(out[s * ng + g].lane_l(l));
                            }
                        }
                    }
                } else {
                    // Tail: remaining items at scalar width, still one
                    // tiled call — no per-item setup.
                    let (bank, out) =
                        scratch.tail.get_or_insert_with(|| (TileBank::new(prep, tail), Vec::new()));
                    for j in 0..nin {
                        let col = bank.input_column(j as u32);
                        for (g, slot) in col.iter_mut().enumerate().take(tail) {
                            *slot = inputs.get((groups * 4 + g) * nin + j);
                        }
                    }
                    run_tile(prep, bank, tail, out);
                    part.reserve(tail * nout);
                    for g in 0..tail {
                        for s in 0..nout {
                            part.push(out[s * tail + g]);
                        }
                    }
                }
                part
            },
        );
        let mut result = BatchF64I::with_capacity(items * nout);
        // Width recording only while a trace is live — same one-branch
        // guard the named kernels use, so untraced runs pay nothing.
        let hist = igen_telemetry::recording().then(|| program_width_hist(&prog.name));
        for part in parts {
            for v in part {
                if let Some(hist) = hist {
                    hist.record(v.lo(), v.hi());
                }
                result.push(v);
            }
        }
        result
    }

    /// Runs a `dd` program over an item-major input batch; returns the
    /// item-major output batch.
    ///
    /// # Panics
    ///
    /// Panics if the program is not `dd` precision or the batch length
    /// is not a multiple of the input count.
    pub fn run_dd(&self, cfg: &BatchConfig, inputs: &BatchDdI) -> BatchDdI {
        let Prepared::Dd(prep) = &self.prepared else {
            panic!("run executes f64 programs");
        };
        let prog = prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.", &prog.name);
        let nin = prog.n_inputs as usize;
        let nout = prog.outputs.len();
        let items = self.items_in(inputs.len());
        let groups = items / 4;
        let tail = items % 4;
        let tile = cfg.tile_groups().min(groups.max(1));
        let tile_tasks = groups.div_ceil(tile);
        let n_tasks = tile_tasks + usize::from(tail > 0);
        let parts: Vec<Vec<DdI>> = par_map_indexed_with(
            cfg,
            n_tasks,
            || {
                let mut s = self
                    .pool_dd
                    .lock()
                    .ok()
                    .and_then(|mut p| p.pop())
                    .unwrap_or(ScratchDd { tile, packed: None, tail_tile: tail, tail: None });
                if s.tile != tile {
                    s.packed = None;
                    s.tile = tile;
                }
                if s.tail_tile != tail {
                    s.tail = None;
                    s.tail_tile = tail;
                }
                Lease { scratch: Some(s), pool: &self.pool_dd }
            },
            |lease, t| {
                let scratch = lease.get();
                let mut part = Vec::new();
                if t < tile_tasks {
                    let g0 = t * tile;
                    let ng = (groups - g0).min(tile);
                    let (bank, out) = scratch
                        .packed
                        .get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
                    for j in 0..nin {
                        let col = bank.input_column(j as u32);
                        for (g, slot) in col.iter_mut().enumerate().take(ng) {
                            *slot = inputs.load_x4((g0 + g) * 4 * nin + j, nin);
                        }
                    }
                    run_tile(prep, bank, ng, out);
                    part.reserve(ng * 4 * nout);
                    for g in 0..ng {
                        for l in 0..4 {
                            for s in 0..nout {
                                part.push(out[s * ng + g].lane_l(l));
                            }
                        }
                    }
                } else {
                    let (bank, out) =
                        scratch.tail.get_or_insert_with(|| (TileBank::new(prep, tail), Vec::new()));
                    for j in 0..nin {
                        let col = bank.input_column(j as u32);
                        for (g, slot) in col.iter_mut().enumerate().take(tail) {
                            *slot = inputs.get((groups * 4 + g) * nin + j);
                        }
                    }
                    run_tile(prep, bank, tail, out);
                    part.reserve(tail * nout);
                    for g in 0..tail {
                        for s in 0..nout {
                            part.push(out[s * tail + g]);
                        }
                    }
                }
                part
            },
        );
        let mut result = BatchDdI::with_capacity(items * nout);
        let hist = igen_telemetry::recording().then(|| program_width_hist(&prog.name));
        for part in parts {
            for v in part {
                if let Some(hist) = hist {
                    let f = v.to_f64i();
                    hist.record(f.lo(), f.hi());
                }
                result.push(v);
            }
        }
        result
    }

    /// Runs an `f64` program with per-instruction width-provenance
    /// profiling into `prof` ([`igen_vm::run_tile_profiled`]).
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
        prof: &mut igen_telemetry::UnitProfiler,
    ) -> BatchF64I {
        let Prepared::F64(prep) = &self.prepared else {
            panic!("run_dd_profiled executes dd programs");
        };
        let prog = prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.profiled.", &prog.name);
        let nin = prog.n_inputs as usize;
        let nout = prog.outputs.len();
        let items = self.items_in(inputs.len());
        let groups = items / 4;
        let tail = items % 4;
        let tile = cfg.tile_groups().min(groups.max(1));
        let mut result = BatchF64I::with_capacity(items * nout);
        let mut packed: Option<(TileBank<F64I, F64Ix4>, Vec<F64Ix4>)> = None;
        let mut g0 = 0usize;
        while g0 < groups {
            let ng = (groups - g0).min(tile);
            let (bank, out) = packed.get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
            for j in 0..nin {
                let col = bank.input_column(j as u32);
                for (g, slot) in col.iter_mut().enumerate().take(ng) {
                    *slot = inputs.load_x4((g0 + g) * 4 * nin + j, nin);
                }
            }
            run_tile_profiled(prep, bank, ng, out, prof);
            for g in 0..ng {
                for l in 0..4 {
                    for s in 0..nout {
                        result.push(out[s * ng + g].lane_l(l));
                    }
                }
            }
            g0 += ng;
        }
        if tail > 0 {
            let mut bank = TileBank::<F64I, F64I>::new(prep, tail);
            let mut out = Vec::new();
            for j in 0..nin {
                let col = bank.input_column(j as u32);
                for (g, slot) in col.iter_mut().enumerate().take(tail) {
                    *slot = inputs.get((groups * 4 + g) * nin + j);
                }
            }
            run_tile_profiled(prep, &mut bank, tail, &mut out, prof);
            for g in 0..tail {
                for s in 0..nout {
                    result.push(out[s * tail + g]);
                }
            }
        }
        result
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
        prof: &mut igen_telemetry::UnitProfiler,
    ) -> BatchDdI {
        let Prepared::Dd(prep) = &self.prepared else {
            panic!("run_profiled executes f64 programs");
        };
        let prog = prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.profiled.", &prog.name);
        let nin = prog.n_inputs as usize;
        let nout = prog.outputs.len();
        let items = self.items_in(inputs.len());
        let groups = items / 4;
        let tail = items % 4;
        let tile = cfg.tile_groups().min(groups.max(1));
        let mut result = BatchDdI::with_capacity(items * nout);
        let mut packed: Option<(TileBank<DdI, DdIx4>, Vec<DdIx4>)> = None;
        let mut g0 = 0usize;
        while g0 < groups {
            let ng = (groups - g0).min(tile);
            let (bank, out) = packed.get_or_insert_with(|| (TileBank::new(prep, tile), Vec::new()));
            for j in 0..nin {
                let col = bank.input_column(j as u32);
                for (g, slot) in col.iter_mut().enumerate().take(ng) {
                    *slot = inputs.load_x4((g0 + g) * 4 * nin + j, nin);
                }
            }
            run_tile_profiled(prep, bank, ng, out, prof);
            for g in 0..ng {
                for l in 0..4 {
                    for s in 0..nout {
                        result.push(out[s * ng + g].lane_l(l));
                    }
                }
            }
            g0 += ng;
        }
        if tail > 0 {
            let mut bank = TileBank::<DdI, DdI>::new(prep, tail);
            let mut out = Vec::new();
            for j in 0..nin {
                let col = bank.input_column(j as u32);
                for (g, slot) in col.iter_mut().enumerate().take(tail) {
                    *slot = inputs.get((groups * 4 + g) * nin + j);
                }
            }
            run_tile_profiled(prep, &mut bank, tail, &mut out, prof);
            for g in 0..tail {
                for s in 0..nout {
                    result.push(out[s * tail + g]);
                }
            }
        }
        result
    }
}
