//! End-to-end tests of the `igen-cli` binary: file in, files out, exit
//! codes, and the `--report` diagnostics channel.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_igen-cli"))
}

/// Fresh scratch directory per test (under the target dir, so `cargo
/// clean` removes it).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    cli().current_dir(dir).args(args).output().expect("spawn igen-cli")
}

#[test]
fn compiles_a_file_and_writes_header() {
    let dir = scratch("cli_basic");
    fs::write(dir.join("foo.c"), "double f(double a) { return a * a + 0.5; }").unwrap();
    let out = run_in(&dir, &["foo.c"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let c = fs::read_to_string(dir.join("igen_foo.c")).unwrap();
    assert!(c.contains("f64i f(f64i a)"), "{c}");
    assert!(c.contains("ia_mul_f64"), "{c}");
    let h = fs::read_to_string(dir.join("igen_lib.h")).unwrap();
    assert!(h.contains("f64i ia_add_f64"), "{h}");
}

#[test]
fn custom_output_path_and_dd_precision() {
    let dir = scratch("cli_dd");
    fs::write(dir.join("g.c"), "double g(double x) { return x + 1.0; }").unwrap();
    let out = run_in(&dir, &["g.c", "-o", "out.c", "--precision", "dd"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let c = fs::read_to_string(dir.join("out.c")).unwrap();
    assert!(c.contains("ddi g(ddi x)"), "{c}");
    assert!(c.contains("ia_add_dd"), "{c}");
    assert!(!dir.join("igen_g.c").exists());
}

#[test]
fn report_prints_polly_style_reductions() {
    let dir = scratch("cli_report");
    fs::write(
        dir.join("dot.c"),
        r#"
        double dot(double* x, double* y, int n) {
            double s = 0.0;
            int i;
            #pragma igen reduce s
            for (i = 0; i < n; i++) {
                s = s + x[i] * y[i];
            }
            return s;
        }
        "#,
    )
    .unwrap();
    let out = run_in(&dir, &["dot.c", "--reductions", "--report"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Reduction dependences"), "{stderr}");
    assert!(stderr.contains("var: s"), "{stderr}");
    let c = fs::read_to_string(dir.join("igen_dot.c")).unwrap();
    assert!(c.contains("isum_"), "{c}");
}

#[test]
fn intrinsics_flag_emits_simd_library() {
    let dir = scratch("cli_simd");
    fs::write(dir.join("k.c"), "double k(double a) { return a - 2.0; }").unwrap();
    let out = run_in(&dir, &["k.c", "--intrinsics"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let simd = fs::read_to_string(dir.join("igen_simd.c")).unwrap();
    assert!(simd.contains("_c_mm256_add_pd"), "{simd}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // blendv + the deliberately-unsupported round_pd are reported skipped.
    assert!(stderr.contains("_mm256_blendv_pd"), "{stderr}");
    assert!(stderr.contains("_mm256_round_pd"), "{stderr}");
}

#[test]
fn compile_error_is_reported_with_failure_exit() {
    let dir = scratch("cli_err");
    // float -> int cast is a rejected construct (paper Section V).
    fs::write(dir.join("bad.c"), "int f(double a) { return (int) a; }").unwrap();
    let out = run_in(&dir, &["bad.c"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.c"), "{stderr}");
    assert!(!dir.join("igen_bad.c").exists());
}

#[test]
fn missing_input_fails_cleanly() {
    let dir = scratch("cli_missing");
    let out = run_in(&dir, &["nonexistent.c"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"), "");
}

#[test]
fn unknown_flag_is_a_one_line_error() {
    let dir = scratch("cli_usage");
    let out = run_in(&dir, &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option '--bogus'"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want a one-line error, got:\n{stderr}");
}

#[test]
fn unknown_subcommand_is_a_one_line_error() {
    let dir = scratch("cli_subcmd");
    let out = run_in(&dir, &["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand 'frobnicate'"), "{stderr}");
    assert!(stderr.contains("expected compile, run, profile, serve or report"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want a one-line error, got:\n{stderr}");
}

/// The hand-written batch kernels are gone: `run <file.c> --batch N`
/// batches any compiled function, so `batch` is no subcommand.
#[test]
fn batch_is_an_unknown_subcommand() {
    let dir = scratch("cli_batch_err");
    for args in [&["batch"][..], &["batch", "dot", "--threads", "2"]] {
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown subcommand 'batch'"), "{stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "want a one-line error, got:\n{stderr}");
    }
}

#[test]
fn run_compiles_and_executes_a_batch() {
    let dir = scratch("cli_run");
    fs::write(
        dir.join("dot.c"),
        r#"
        double dot(double* x, double* y, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                s = s + x[i] * y[i];
            }
            return s;
        }
        "#,
    )
    .unwrap();
    let out = run_in(
        &dir,
        &[
            "run",
            "dot.c",
            "--arg",
            "n=5",
            "--len",
            "x=5",
            "--len",
            "y=5",
            "--batch",
            "10",
            "--emit-bytecode",
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("program dot"), "{stdout}");
    assert!(stdout.contains("in r0 = x[0]"), "{stdout}");
    assert!(stdout.contains("differential interpreter check: ok"), "{stdout}");
    assert!(stdout.contains("results bit-identical across thread counts: yes"), "{stdout}");
    // The compile artifacts of compile mode are not produced by run.
    assert!(!dir.join("igen_dot.c").exists());
}

#[test]
fn run_unknown_flag_is_a_one_line_exit_2() {
    let dir = scratch("cli_run_flag");
    fs::write(dir.join("f.c"), "double f(double a) { return a + 1.0; }").unwrap();
    let out = run_in(&dir, &["run", "f.c", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown run option '--frobnicate'"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want a one-line error, got:\n{stderr}");
}

#[test]
fn run_missing_file_is_a_one_line_exit_2() {
    let dir = scratch("cli_run_missing");
    let out = run_in(&dir, &["run", "nonexistent.c"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read nonexistent.c"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want a one-line error, got:\n{stderr}");
}

#[test]
fn run_missing_int_arg_names_the_parameter() {
    let dir = scratch("cli_run_intarg");
    fs::write(
        dir.join("h.c"),
        "double h(double x, int k) { double r = x; for (int i = 0; i < k; i++) { r = r * x; } return r; }",
    )
    .unwrap();
    let out = run_in(&dir, &["run", "h.c"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--arg k=<value>"), "{stderr}");
    let out = run_in(&dir, &["run", "h.c", "--arg", "k=3", "--batch", "6"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn run_rejects_untraceable_functions_with_the_reason() {
    let dir = scratch("cli_run_reject");
    fs::write(dir.join("b.c"), "double b(double x) { if (x > 0.0) { return x; } return 0.0; }")
        .unwrap();
    let out = run_in(&dir, &["run", "b.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interval"), "{stderr}");
}

/// dd Hénon goes NaN from 10 iterations on. NaN is unequal to itself
/// under `==`, but the endpoint bits still agree across thread counts
/// and between profiled and plain runs, so both checks must pass.
#[test]
fn run_and_profile_accept_nan_endpoints() {
    let dir = scratch("cli_nan_endpoints");
    let henon = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/henon.c");
    let flags = ["--precision", "dd", "--arg", "iterations=20", "--batch", "64", "--threads", "2"];
    for (cmd, line) in [
        ("run", "results bit-identical across thread counts: yes"),
        ("profile", "profiled outputs bit-identical to unprofiled: yes"),
    ] {
        let out = run_in(&dir, &[&[cmd, henon][..], &flags].concat());
        assert!(out.status.success(), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(line), "{cmd}: {stdout}");
    }
}

#[test]
fn report_renders_a_handcrafted_trace() {
    let dir = scratch("cli_trace_report");
    // `report` only parses the trace, so it works in every build config.
    fs::write(
        dir.join("trace.jsonl"),
        concat!(
            r#"{"type":"span","name":"compile.parse","thread":0,"depth":0,"start_ns":0,"dur_ns":1500}"#,
            "\n",
            r#"{"type":"counter","name":"simd.add.packed_calls","value":100}"#,
            "\n",
            r#"{"type":"counter","name":"simd.add.lanes_patched","value":3}"#,
            "\n",
            r#"{"type":"hist","name":"width.vm.dot","count":4,"buckets":[[-52,3],[-40,1]]}"#,
            "\n",
        ),
    )
    .unwrap();
    let out = run_in(&dir, &["report", "trace.jsonl"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compile.parse"), "{stdout}");
    assert!(stdout.contains("simd.add"), "{stdout}");
    assert!(stdout.contains("width.vm.dot"), "{stdout}");
}

#[test]
fn report_merges_concatenated_traces() {
    let dir = scratch("cli_trace_merge");
    let line = r#"{"type":"counter","name":"round.ulp_bumps","value":5}"#;
    fs::write(dir.join("a.jsonl"), format!("{line}\n")).unwrap();
    fs::write(dir.join("b.jsonl"), line).unwrap(); // no trailing newline
    let out = run_in(&dir, &["report", "a.jsonl", "b.jsonl"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round.ulp_bumps"), "{stdout}");
    assert!(stdout.contains("10"), "counters must sum across files:\n{stdout}");
}

#[test]
fn report_rejects_missing_and_malformed_traces() {
    let dir = scratch("cli_trace_bad");
    let out = run_in(&dir, &["report"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_in(&dir, &["report", "nope.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"), "");
    fs::write(dir.join("garbage.jsonl"), "not json\n").unwrap();
    let out = run_in(&dir, &["report", "garbage.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad trace"), "");
}

#[test]
fn trace_out_writes_a_trace_file() {
    let dir = scratch("cli_trace_out");
    fs::write(dir.join("t.c"), "double f(double a) { return a * a + 0.5; }").unwrap();
    let out = run_in(&dir, &["compile", "t.c", "--trace-out", "t.jsonl", "--metrics"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = fs::read_to_string(dir.join("t.jsonl")).unwrap();
    // The report subcommand must accept whatever --trace-out wrote.
    let out = run_in(&dir, &["report", "t.jsonl"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    if cfg!(feature = "telemetry") {
        assert!(trace.contains("compile.parse"), "{trace}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("compile.parse"), "{stdout}");
    } else {
        // Disabled builds emit an empty trace and say so up front.
        assert!(trace.is_empty(), "{trace}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("trace is empty"),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn vectorize_flag_stamps_configuration() {
    let dir = scratch("cli_vec");
    fs::write(dir.join("v.c"), "double f(double a) { return a + 1.0; }").unwrap();
    let out = run_in(&dir, &["v.c", "--vectorize", "vv"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let c = fs::read_to_string(dir.join("igen_v.c")).unwrap();
    assert!(c.starts_with("/* igen configuration: vv"), "{c}");
    // Default ss: no banner (paper listings stay byte-exact).
    let out = run_in(&dir, &["v.c", "-o", "ss.c"]);
    assert!(out.status.success());
    let c = fs::read_to_string(dir.join("ss.c")).unwrap();
    assert!(c.starts_with("#include"), "{c}");
}

#[test]
fn compile_subcommand_matches_bare_form() {
    let dir = scratch("cli_compile_subcmd");
    fs::write(dir.join("h.c"), "double f(double x) { return x * x + x * x; }").unwrap();
    let out = run_in(&dir, &["compile", "h.c", "-o", "sub.c"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run_in(&dir, &["h.c", "-o", "bare.c"]);
    assert!(out.status.success());
    assert_eq!(
        fs::read_to_string(dir.join("sub.c")).unwrap(),
        fs::read_to_string(dir.join("bare.c")).unwrap(),
        "`compile` subcommand and bare form must agree"
    );
}

#[test]
fn opt_level_two_removes_common_subexpression() {
    let dir = scratch("cli_opt_level");
    fs::write(dir.join("h.c"), "double f(double x) { return x * x + x * x; }").unwrap();
    let out = run_in(&dir, &["compile", "h.c", "-o", "o0.c"]);
    assert!(out.status.success());
    let out =
        run_in(&dir, &["compile", "h.c", "-o", "o2.c", "--opt-level", "2", "--verify-passes"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let o0 = fs::read_to_string(dir.join("o0.c")).unwrap();
    let o2 = fs::read_to_string(dir.join("o2.c")).unwrap();
    assert_eq!(o0.matches("ia_mul_f64(x, x)").count(), 2, "{o0}");
    assert_eq!(o2.matches("ia_mul_f64(x, x)").count(), 1, "{o2}");
}

#[test]
fn emit_ir_and_dump_passes_go_to_stdout() {
    let dir = scratch("cli_emit_ir");
    fs::write(dir.join("h.c"), "double f(double x) { return x * x + x * x; }").unwrap();
    let out = run_in(&dir, &["compile", "h.c", "--opt-level", "2", "--emit-ir", "--dump-passes"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("func f(f64i x) -> f64i"), "{stdout}");
    assert!(stdout.contains("mul.f64"), "{stdout}");
    assert!(stdout.contains("pass pipeline (O2):"), "{stdout}");
    for pass in ["reduce", "fold", "cse", "copyprop", "dce"] {
        assert!(stdout.contains(pass), "missing {pass} in report:\n{stdout}");
    }
}
