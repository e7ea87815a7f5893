//! `igen-session` — the compile-once layer between the IGen compiler
//! and everything that *executes* compiled interval programs.
//!
//! The one-shot front doors (`igen-cli run`/`profile`) and the
//! benchmark gauntlet's `compiled-vm` backend all walk the same
//! pipeline: C source → [`igen_core::Compiler`] → pick a function →
//! bind its parameters → lower to register bytecode → differential
//! verification → [`igen_batch::BatchProgram`]. This crate owns that
//! pipeline exactly once ([`compile_uncached`]), makes its results
//! first-class cacheable values ([`CompiledUnit`] behind `Arc`, keyed
//! by [`CompileCache`]), and serves them from a long-running process
//! ([`service::Service`] — the engine of `igen-cli serve`).
//!
//! Determinism is the load-bearing invariant, inherited from the
//! batch engine (DESIGN.md §8/§15): a compiled program is a pure
//! function of the compile request, and a batch run is a pure function
//! of (program, inputs) regardless of thread count or tile size. The
//! session layer adds *sharding* — requests fan out across a persistent
//! worker pool — and stays bit-identical for the same reason: which
//! worker executes a request cannot change a single endpoint bit, so
//! every response line is a pure function of its request line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod flags;
mod pipeline;
pub mod service;
mod shortest;

pub use cache::{CacheStats, CompileCache};
pub use flags::Flags;
pub use pipeline::{
    compile_uncached, workload_dd, workload_f64, BindRequest, CompileRequest, CompiledUnit,
    SessionError,
};
#[cfg(unix)]
pub use service::serve_unix;
pub use service::{serve_lines, Service, ServiceConfig, Ticket};

use std::sync::{Arc, Mutex};

/// A compile session: a [`CompileCache`] behind a lock, shared by any
/// number of threads. `compile` returns the cached unit when the full
/// request key matches (source bytes, config, function, binding shape,
/// peephole flag) and otherwise runs the pipeline once — including the
/// differential self-check, so every cached program is a *verified*
/// program — and caches the result.
pub struct Session {
    cache: Mutex<CompileCache>,
}

impl Session {
    /// A session whose cache keeps at most `cache_cap` programs
    /// (least-recently-used eviction; 0 means [`CompileCache::DEFAULT_CAP`]).
    pub fn new(cache_cap: usize) -> Session {
        Session { cache: Mutex::new(CompileCache::new(cache_cap)) }
    }

    /// Compiles `req` through the cache. On a hit no parse, lowering,
    /// optimization or verification work runs — the test suite pins
    /// this via span counts.
    pub fn compile(&self, req: &CompileRequest) -> Result<Arc<CompiledUnit>, SessionError> {
        if let Some(unit) = self.cache.lock().expect("session cache poisoned").get(req) {
            return Ok(unit);
        }
        // Compile outside the lock: a slow compile must not serialize
        // unrelated requests. A racing miss on the same key compiles
        // twice and the second insert wins — wasted work, never a
        // wrong or stale program.
        let unit = Arc::new(compile_uncached(req, true)?);
        self.cache.lock().expect("session cache poisoned").insert(req, Arc::clone(&unit));
        Ok(unit)
    }

    /// Cache statistics (hits/misses/evictions/entries) for this
    /// session since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("session cache poisoned").stats()
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new(0)
    }
}
