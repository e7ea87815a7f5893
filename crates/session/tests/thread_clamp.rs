//! A run's `"threads"` is clamped to the machine's parallelism: the
//! batch engine's `batch.chunks` counter (one per worker chunk) shows how
//! many threads a run really used. Only runs under `--features
//! telemetry` (the counter is a no-op otherwise).
#![cfg(feature = "telemetry")]

use igen_session::{Service, ServiceConfig};

const SQ: &str = "double sq(double x) { return x * x; }";

fn chunks() -> u64 {
    igen_telemetry::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "batch.chunks")
        .map_or(0, |(_, v)| *v)
}

#[test]
fn a_run_uses_at_most_one_chunk_per_core_whatever_threads_it_asks_for() {
    let svc = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    // Compile first, so the run below is a cache hit and the counter
    // sees only the run.
    let compiled = svc.submit(&format!(r#"{{"kind":"compile","source":"{SQ}"}}"#)).wait();
    assert!(compiled.starts_with(r#"{"ok":true,"kind":"compile""#), "{compiled}");
    let before = chunks();
    // Eight groups of four items per tile: 2048 tiles to spread.
    let run = format!(r#"{{"kind":"run","source":"{SQ}","batch":65536,"threads":1000000}}"#);
    let resp = svc.submit(&run).wait();
    assert!(resp.starts_with(r#"{"ok":true,"kind":"run""#), "{}", &resp[..resp.len().min(200)]);
    let used = chunks() - before;
    let cores = igen_batch::available_threads() as u64;
    assert!((1..=cores).contains(&used), "{used} chunks on {cores} available threads");
}
