//! The chunked parallel execution engine.
//!
//! `rayon` is not available in the build environment, so the engine is
//! built on `std::thread::scope` (std since 1.63): work is split into
//! contiguous index ranges, one scoped thread per range, and per-range
//! results are stitched back together *in range order*. Because every
//! interval operation in this workspace rounds via deterministic software
//! EFTs, a pure per-element function returns bit-identical results no
//! matter which thread runs it — so [`par_map_indexed`] output is
//! byte-for-byte the sequential output, at any thread count.
//!
//! The engine only maps: each index is computed on its own and lands in
//! its own slot. A sum *across* items would need its combine order
//! pinned, since interval addition is not associative at the bit level;
//! no caller needs one, because every batched program sums within one
//! item, in the scalar program's order.

use std::num::NonZeroUsize;
use std::ops::Range;

use igen_telemetry::Counter;

/// Worker chunks executed by the engine (one per spawned range, so the
/// value depends on the thread count, unlike the arithmetic counters).
/// Zero-sized no-op unless the `telemetry` feature is enabled.
static BATCH_CHUNKS: Counter = Counter::new("batch.chunks");

/// Execution parameters for the batch engine.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    threads: usize,
    seq_threshold: usize,
}

/// Below this many work items the engine stays sequential by default —
/// spawning threads for tiny batches costs more than it saves.
pub const DEFAULT_SEQ_THRESHOLD: usize = 32;

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { threads: available_threads(), seq_threshold: DEFAULT_SEQ_THRESHOLD }
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

impl BatchConfig {
    /// The default configuration: all available cores, default sequential
    /// fallback threshold.
    pub fn new() -> BatchConfig {
        BatchConfig::default()
    }

    /// Sets the worker thread count (`0` means "all available cores").
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> BatchConfig {
        self.threads = if threads == 0 { available_threads() } else { threads };
        self
    }

    /// Sets the sequential fallback threshold: batches of at most this
    /// many items run on the calling thread.
    #[must_use]
    pub fn with_seq_threshold(mut self, seq_threshold: usize) -> BatchConfig {
        self.seq_threshold = seq_threshold;
        self
    }

    /// Configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured sequential fallback threshold.
    pub fn seq_threshold(&self) -> usize {
        self.seq_threshold
    }

    /// Number of worker threads a batch of `n` items will actually use.
    pub fn effective_threads(&self, n: usize) -> usize {
        if n <= self.seq_threshold {
            return 1;
        }
        self.threads.clamp(1, n.max(1))
    }
}

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by
/// at most one (earlier ranges get the extra items).
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    debug_assert!(parts >= 1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Applies `f` to every index in `0..n`, in parallel, preserving index
/// order in the output. Bit-identical to the sequential
/// `(0..n).map(f).collect()` because `f` runs once per index with no
/// cross-index state.
pub fn par_map_indexed<O, F>(cfg: &BatchConfig, n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    par_map_indexed_with(cfg, n, || (), |(), i| f(i))
}

/// [`par_map_indexed`] with per-worker mutable state: `init` runs once
/// on each worker thread and the resulting state is threaded through
/// every call that worker makes, in index order. Used to reuse
/// expensive scratch (tile register banks) across a worker's chunk
/// without any cross-index data flow — `f` must still be a pure
/// function of its index for the determinism guarantee to hold; the
/// state may only carry *allocations*, never values that influence
/// results.
pub fn par_map_indexed_with<S, O, Init, F>(cfg: &BatchConfig, n: usize, init: Init, f: F) -> Vec<O>
where
    O: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    let threads = cfg.effective_threads(n);
    if threads == 1 {
        BATCH_CHUNKS.inc();
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let _span = igen_telemetry::span("batch.par_map");
    let ranges = split_ranges(n, threads);
    let mut parts: Vec<Vec<O>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let (f, init) = (&f, &init);
                scope.spawn(move || {
                    let _span = igen_telemetry::span("batch.chunk");
                    BATCH_CHUNKS.inc();
                    let mut state = init();
                    r.map(|i| f(&mut state, i)).collect::<Vec<O>>()
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("batch worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_in_order() {
        for n in [0, 1, 7, 64, 100] {
            for parts in [1, 2, 3, 8] {
                let rs = split_ranges(n, parts);
                assert_eq!(rs.len(), parts);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                let (min, max) = rs
                    .iter()
                    .fold((usize::MAX, 0), |(lo, hi), r| (lo.min(r.len()), hi.max(r.len())));
                assert!(max - min <= 1, "unbalanced: {rs:?}");
            }
        }
    }

    #[test]
    fn par_map_matches_sequential() {
        let cfg = BatchConfig::new().with_threads(4).with_seq_threshold(0);
        let seq: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        let par = par_map_indexed(&cfg, 1000, |i| (i as u64).wrapping_mul(0x9e37));
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_with_state_matches_sequential_at_any_thread_count() {
        // The state is a scratch buffer; results must not depend on
        // which worker owned it or how work was split.
        let run = |threads| {
            let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
            par_map_indexed_with(&cfg, 777, Vec::<u64>::new, |scratch, i| {
                scratch.clear();
                scratch.extend((0..4).map(|k| (i as u64 + k) * 31));
                scratch.iter().copied().fold(0u64, u64::wrapping_add)
            })
        };
        let one = run(1);
        for t in [2, 3, 8] {
            assert_eq!(one, run(t), "threads = {t}");
        }
    }

    #[test]
    fn seq_threshold_forces_one_thread() {
        let cfg = BatchConfig::new().with_threads(8).with_seq_threshold(100);
        assert_eq!(cfg.effective_threads(100), 1);
        assert_eq!(cfg.effective_threads(101), 8);
        assert_eq!(cfg.effective_threads(0), 1);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let cfg = BatchConfig::new().with_threads(0);
        assert_eq!(cfg.threads(), available_threads());
    }
}
