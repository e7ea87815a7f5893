//! A `profile` request takes explicit `"inputs"` as `run` does: every
//! site is executed once per given item, not once per default seeded
//! item — and never for the padding lanes of a batch's last packed
//! group. The profiled run records into its own rows: the process-wide
//! recording flag stays off and no span reaches the global trace. Only
//! runs under `--features telemetry` (the profiler records nothing
//! otherwise).
#![cfg(feature = "telemetry")]

use igen_session::{Service, ServiceConfig};

const SQ: &str = "double sq(double x) { return x * x; }";

/// The `"count"` of every site in a profile response.
fn site_counts(resp: &str) -> Vec<u64> {
    resp.split("\"count\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("count is an integer")
        })
        .collect()
}

#[test]
fn profile_counts_the_explicit_inputs_at_both_precisions() {
    let svc = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    for precision in ["f64", "dd"] {
        for inputs in [
            "[[1.0,2.0]]",
            "[[1.0,2.0],[3.0,4.0]]",
            "[[1.0,2.0],[3.0,4.0],[-1.0,0.5]]",
            // One full packed group, then one padded group.
            "[[1.0,2.0],[3.0,4.0],[-1.0,0.5],[0.5,0.75],[-2.0,-1.0]]",
        ] {
            let items = inputs.matches('[').count() as u64 - 1;
            let line = format!(
                r#"{{"kind":"profile","source":"{SQ}","precision":"{precision}","inputs":{inputs}}}"#
            );
            let resp = svc.submit(&line).wait();
            assert!(resp.starts_with(r#"{"ok":true,"kind":"profile""#), "{resp}");
            let counts = site_counts(&resp);
            assert!(!counts.is_empty(), "{precision}: no sites in {resp}");
            assert!(
                counts.iter().all(|&c| c == items),
                "{precision}: {items} explicit items, site counts {counts:?} in {resp}"
            );
        }
    }
    assert!(!igen_telemetry::recording(), "a profile request turned recording on");
    let spans = igen_telemetry::snapshot().spans;
    assert!(spans.is_empty(), "profile requests leaked spans into the global trace: {spans:?}");
}
