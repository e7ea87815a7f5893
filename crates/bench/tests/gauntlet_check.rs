//! End-to-end tests of the `igen-bench gauntlet` CLI: JSON round-trip
//! through a real run, the `--check` regression gate in both verdicts,
//! and the exit-2 error conventions shared with `igen-cli`.

use igen_bench::gauntlet::{self, Report};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_igen-bench"))
}

/// Fast smoke invocation: the naive baseline plus the packed path, the
/// compiled kernels (skipping the multiprecision and double-double
/// contenders keeps the debug-mode test quick).
fn quick_args(out: &std::path::Path) -> Vec<String> {
    vec![
        "gauntlet".into(),
        "--backends".into(),
        "naive,compiled-vm".into(),
        "--out".into(),
        out.display().to_string(),
    ]
}

#[test]
fn gauntlet_writes_schema_valid_json_and_self_check_passes() {
    let dir = std::env::temp_dir().join("igen_gauntlet_check_ok");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("run.json");

    let st = bin().args(quick_args(&out)).status().unwrap();
    assert!(st.success());
    let report = Report::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let names: std::collections::BTreeSet<&str> =
        report.rows.iter().map(|r| r.backend.as_str()).collect();
    assert!(names.contains("naive") && names.contains("compiled-vm"), "{names:?}");
    assert_eq!(report.rows.len(), 2 * gauntlet::Kernel::ALL.len());
    assert!(report.rows.iter().any(|r| r.packed_path));
    assert_eq!(report.mode, "smoke");
    // The header must say whether this binary was instrumented.
    assert_eq!(report.instrumented, !igen_bench::perf_recording_allowed());

    // A fresh run checked against the one just written: with a clean
    // build it must pass (width columns are deterministic, the speed
    // tolerance wide); an instrumented build's report is refused as a
    // baseline outright.
    let cmd = bin()
        .args(quick_args(&dir.join("run2.json")))
        .args(["--check", &out.display().to_string()])
        .output()
        .unwrap();
    if report.instrumented {
        assert!(!cmd.status.success(), "instrumented baseline must be refused");
        let stderr = String::from_utf8_lossy(&cmd.stderr);
        assert!(stderr.contains("instrumented"), "stderr: {stderr}");
    } else {
        assert!(cmd.status.success(), "self-check should pass");
    }
}

#[test]
fn check_fails_against_a_doctored_baseline() {
    let dir = std::env::temp_dir().join("igen_gauntlet_check_fail");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("run.json");

    let st = bin().args(quick_args(&out)).status().unwrap();
    assert!(st.success());

    // Pretend the packed path used to be 1000x faster: the fresh run
    // must now look like a catastrophic regression. Mark the doctored
    // baseline clean so the speed gate (not the instrumented-baseline
    // refusal) is what fires, whatever build recorded it.
    let mut baseline = Report::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    baseline.instrumented = false;
    for r in &mut baseline.rows {
        if r.packed_path {
            r.speedup_vs_naive *= 1000.0;
        }
    }
    let doctored = dir.join("doctored.json");
    std::fs::write(&doctored, baseline.to_json()).unwrap();

    let cmd = bin()
        .args(quick_args(&dir.join("run2.json")))
        .args(["--check", &doctored.display().to_string()])
        .output()
        .unwrap();
    assert!(!cmd.status.success(), "doctored baseline must fail the check");
    let stderr = String::from_utf8_lossy(&cmd.stderr);
    assert!(stderr.contains("regression"), "stderr: {stderr}");
    assert!(stderr.contains("compiled-vm"), "stderr: {stderr}");
}

#[test]
fn unknown_backend_is_a_one_line_exit_2() {
    let out = bin().args(["gauntlet", "--backends", "mpfi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("unknown backend 'mpfi'"), "stderr: {stderr}");
    assert!(stderr.contains("naive"), "the message must list the valid names: {stderr}");
}

#[test]
fn unknown_subcommand_and_option_are_exit_2() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = bin().args(["gauntlet", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}
