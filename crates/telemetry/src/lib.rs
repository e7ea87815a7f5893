//! `igen-telemetry`: unified tracing, metrics and soundness diagnostics
//! for the IGen workspace.
//!
//! Three performance-critical subsystems — the compiler pass pipeline
//! (`igen-core`), the packed directed-rounding kernels
//! (`igen-round::simd`) and the threaded batch engine (`igen-batch`) —
//! report through this one substrate:
//!
//! * **Spans** ([`span`](fn@span), [`span_joined`]) — nestable, monotonic-clock
//!   timed scopes. A span is recorded when its [`SpanGuard`] drops;
//!   records carry the thread, nesting depth and start/duration in
//!   nanoseconds relative to a process-wide epoch. Span recording is
//!   additionally gated by the runtime [`recording`] flag so an enabled
//!   build pays nothing until a trace is requested.
//! * **Counters** ([`Counter`]) — lock-free `static` atomic counters for
//!   runtime hot paths (packed-kernel invocations, per-lane scalar
//!   patches, directed-rounding ulp bumps, backend-dispatch outcomes).
//!   Increments are a single relaxed `fetch_add`; counters register
//!   themselves in a global registry on first use.
//! * **Width histograms** ([`WidthHist`]) — log2-bucketed histograms of
//!   *relative interval width* at kernel outputs, so precision
//!   regressions are observable alongside wall-clock regressions.
//!
//! # Zero cost when disabled
//!
//! Everything above is gated by the `enabled` cargo feature. With the
//! feature off (the default), [`Counter`], [`SpanGuard`] and
//! [`WidthHist`] are zero-sized types whose methods are empty
//! `#[inline(always)]` functions, and [`recording`] is a constant
//! `false` — call sites guarded by it are dead-code-eliminated. The
//! `zero_cost` tests pin this, and the CI `telemetry` job additionally
//! smoke-runs the hot-op benchmarks against a disabled build.
//!
//! # Trace format
//!
//! [`snapshot`] gathers everything recorded so far into a [`Snapshot`],
//! which serializes to JSON lines ([`Snapshot::to_jsonl`]) and parses
//! back ([`Snapshot::from_jsonl`], which also merges concatenated
//! traces by summing counters and histograms). [`render_report`] turns
//! a snapshot into the human per-phase/per-op table printed by
//! `igen-cli report`.
//!
//! # Example
//!
//! ```
//! use igen_telemetry as tel;
//!
//! static CALLS: tel::Counter = tel::Counter::new("example.calls");
//!
//! tel::set_recording(true);
//! {
//!     let _outer = tel::span("example.outer");
//!     let _inner = tel::span_joined("example.", "inner");
//!     CALLS.inc();
//! }
//! let snap = tel::snapshot();
//! let jsonl = snap.to_jsonl();
//! let parsed = tel::Snapshot::from_jsonl(&jsonl).unwrap();
//! // With the `enabled` feature the trace round-trips; without it the
//! // snapshot is empty — either way this compiles and runs.
//! assert_eq!(parsed.spans.len(), snap.spans.len());
//! # tel::set_recording(false);
//! # tel::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod hist;
pub mod json;
pub mod profile;
mod report;
mod span;
mod trace;

pub use counter::{counters_snapshot, Counter};
pub use hist::{hists_snapshot, WidthHist};
pub use profile::{profiles_snapshot, UnitProfiler};
pub use report::render_report;
pub use span::{recording, set_recording, span, span_joined, SpanGuard};
pub use trace::{HistRec, ProfileRec, Snapshot, SpanRec};

/// Whether telemetry recording was compiled in (the `enabled` feature).
///
/// Lets callers print an honest "built without telemetry" note instead
/// of silently producing an empty trace.
#[cfg(feature = "enabled")]
pub const COMPILED_IN: bool = true;
/// Whether telemetry recording was compiled in (the `enabled` feature).
#[cfg(not(feature = "enabled"))]
pub const COMPILED_IN: bool = false;

/// Records a timed scope: `span!("name")` or `span!("prefix.", detail)`.
///
/// Expands to [`span`](fn@span)/[`span_joined`]; bind the result to keep the
/// scope open (`let _g = span!(...)`). Compiles to nothing without the
/// `enabled` feature.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($prefix:expr, $detail:expr) => {
        $crate::span_joined($prefix, $detail)
    };
}

/// Collects everything recorded so far into a [`Snapshot`]: all finished
/// spans, every registered counter's value, every registered histogram.
///
/// Without the `enabled` feature this returns an empty snapshot.
pub fn snapshot() -> Snapshot {
    Snapshot {
        spans: span::spans_snapshot(),
        counters: counters_snapshot().into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        hists: hists_snapshot(),
        profiles: profiles_snapshot(),
    }
}

/// Clears recorded spans and instruction-site profiles, zeroes every
/// registered counter and histogram, and re-anchors the span epoch so
/// spans opened after the reset have offsets measured from the reset,
/// not from process start. Lets per-run numbers be measured from a
/// long-lived process. No-op without the `enabled` feature.
pub fn reset() {
    span::reset_spans();
    span::reset_epoch();
    counter::reset_counters();
    hist::reset_hists();
    profile::reset_profiles();
}

#[cfg(all(test, not(feature = "enabled")))]
mod zero_cost {
    //! The zero-cost-when-disabled guarantee, pinned: with the feature
    //! off every recording primitive is a ZST and the recording flag is
    //! constant false.

    use super::*;

    #[test]
    fn disabled_primitives_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(std::mem::size_of::<WidthHist>(), 0);
        assert_eq!(std::mem::size_of::<UnitProfiler>(), 0);
    }

    #[test]
    fn disabled_recording_is_inert() {
        set_recording(true);
        assert!(!recording());
        static C: Counter = Counter::new("zero.cost");
        C.inc();
        C.add(41);
        assert_eq!(C.value(), 0);
        static H: WidthHist = WidthHist::new("zero.hist");
        H.record(1.0, 2.0);
        let _g = span("dead");
        let _h = span_joined("dead.", "joined");
        let mut p = UnitProfiler::start("zero.profile", 8);
        assert!(!p.active());
        p.set_meta(0, 1, 1, "mul");
        p.add_time(0, p.now_ns());
        p.add_sample(0, 1e-10, 2e-10);
        p.finish();
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.profiles.is_empty());
        // This module only compiles with the feature off, where the
        // flag must read false.
        assert!(!std::hint::black_box(COMPILED_IN));
    }
}
