//! End-to-end `igen-cli serve` over stdio: a scripted JSON-lines
//! conversation against the real binary, pinned to a golden transcript
//! under `tests/golden/expected/serve_transcript.txt`. Every response
//! in the golden set is deterministic by construction (the service
//! answers compile/run/ping/errors as a pure function of the request
//! line), so the transcript is stable across runs, thread counts and
//! cache states.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! IGEN_REGEN_GOLDEN=1 cargo test -q --test serve
//! ```
//!
//! The deadline-expiry and full-queue cases are asserted structurally
//! (their *timing* is scheduler-dependent even though the error lines
//! are not), and `metrics` is checked for its session counters rather
//! than byte-pinned — it reports observability state, the one
//! deliberate exception to response determinism.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const SQ: &str = r#"double sq(double x) { return x * x; }"#;

/// Runs `igen-cli serve <args>` with the requests piped to stdin (then
/// EOF), returning one response line per request in submission order.
fn serve_session(args: &[&str], requests: &[String]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_igen-cli"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn igen-cli serve");
    let mut stdin = child.stdin.take().expect("serve stdin");
    for r in requests {
        writeln!(stdin, "{r}").expect("write request");
    }
    drop(stdin); // EOF ends the session if no shutdown request did
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("serve stdout"))
        .lines()
        .map(|l| l.expect("read response"))
        .collect();
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "igen-cli serve exited with {status}");
    lines
}

/// The golden conversation, one request per line of
/// `tests/golden/inputs/serve_requests.jsonl`: every deterministic
/// request kind and error shape, run requests whose explicit inputs put
/// every branch of the endpoint number format on the wire, and an
/// explicit shutdown.
fn golden_requests() -> Vec<String> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/serve_requests.jsonl");
    let text = std::fs::read_to_string(&path).expect("read serve_requests.jsonl");
    text.lines().map(str::to_string).collect()
}

/// Renders requests and responses as the committed transcript format:
/// `> request` / `< response` pairs.
fn render_transcript(requests: &[String], responses: &[String]) -> String {
    let mut out = String::new();
    for (req, resp) in requests.iter().zip(responses) {
        out.push_str("> ");
        out.push_str(req);
        out.push_str("\n< ");
        out.push_str(resp);
        out.push('\n');
    }
    out
}

#[test]
fn stdio_transcript_matches_golden() {
    let requests = golden_requests();
    // 4 workers + identical replay on 1 worker: the transcript must not
    // depend on pool size (responses return in submission order and
    // each line is a pure function of its request).
    let responses = serve_session(&["--workers", "4"], &requests);
    assert_eq!(responses.len(), requests.len(), "one response line per request\n{responses:?}");
    assert_eq!(responses, serve_session(&["--workers", "1"], &requests));

    let got = render_transcript(&requests, &responses);
    // Always leave the actual transcript on disk so a CI failure can
    // export it as an artifact.
    let actual_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/serve-verify");
    std::fs::create_dir_all(&actual_dir).expect("create target/serve-verify");
    std::fs::write(actual_dir.join("transcript.actual.txt"), &got).expect("write actual");

    let expected_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/expected/serve_transcript.txt");
    if std::env::var_os("IGEN_REGEN_GOLDEN").is_some() {
        std::fs::write(&expected_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&expected_path).expect(
        "golden serve transcript missing; regenerate with IGEN_REGEN_GOLDEN=1 cargo test --test serve",
    );
    assert_eq!(got, want, "serve transcript drifted from the committed golden");
}

/// A request that waits in queue past its deadline (one worker, pinned
/// behind a slow ping) answers with the structured deadline error —
/// the error line itself is deterministic, only its timing is not.
#[test]
fn deadline_expiry_is_a_structured_error() {
    let responses = serve_session(
        &["--workers", "1"],
        &[
            r#"{"id":"slow","kind":"ping","sleep_ms":150}"#.to_string(),
            r#"{"id":"late","kind":"ping","deadline_ms":1}"#.to_string(),
        ],
    );
    assert!(responses[0].contains(r#""kind":"pong""#), "{responses:?}");
    assert_eq!(
        responses[1],
        r#"{"id":"late","ok":false,"error":"deadline expired after 1ms in queue"}"#
    );
}

/// With a single worker and a one-slot queue, a burst behind a slow
/// job must split into `queue full` rejections and served pongs — and
/// never hang. (How many of the burst land in the slot depends on when
/// the worker dequeues the slow job — possibly none, if it still sits
/// in the slot itself — so this asserts the split is total and that
/// backpressure trips; `crates/session/tests/service_determinism.rs`
/// pins the exact lines by polling the queue depth in-process.)
#[test]
fn full_queue_rejects_with_backpressure_error() {
    let mut requests = vec![r#"{"id":"slow","kind":"ping","sleep_ms":200}"#.to_string()];
    for i in 0..3 {
        requests.push(format!(r#"{{"id":"burst{i}","kind":"ping"}}"#));
    }
    let responses = serve_session(&["--workers", "1", "--queue-cap", "1"], &requests);
    assert!(responses[0].contains(r#""kind":"pong""#), "{responses:?}");
    let rejected =
        responses[1..].iter().filter(|r| r.contains("queue full (1 queued): retry later")).count();
    let served = responses[1..].iter().filter(|r| r.contains(r#""kind":"pong""#)).count();
    assert_eq!(rejected + served, 3, "every burst request is answered, never hung: {responses:?}");
    assert!(rejected >= 1, "the burst must trip backpressure: {responses:?}");
}

/// `metrics` surfaces the session counters (cache hits/misses/len and
/// the queue high-water mark) even in a build without the telemetry
/// feature. Interactive (write → read → write) because `metrics` is
/// answered at submit time: it must observe both runs *completed*, so
/// each response is read back before the next request goes in.
#[test]
fn metrics_reports_session_counters() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_igen-cli"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn igen-cli serve");
    let mut stdin = child.stdin.take().expect("serve stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("serve stdout"));
    let mut roundtrip = |req: &str| -> String {
        writeln!(stdin, "{req}").expect("write request");
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    };
    let run = format!(r#"{{"kind":"run","source":"{SQ}"}}"#);
    assert!(roundtrip(&run).contains(r#""ok":true"#));
    assert!(roundtrip(&run).contains(r#""ok":true"#));
    let metrics = roundtrip(r#"{"id":"m","kind":"metrics"}"#);
    drop(stdin);
    let metrics = &metrics;
    assert!(metrics.contains(r#""ok":true"#), "{metrics}");
    for needle in [
        "igen_session_cache_hits 1",
        "igen_session_cache_misses 1",
        "igen_session_cache_len 1",
        "igen_session_queue_depth_max",
    ] {
        assert!(metrics.contains(needle), "metrics response missing `{needle}`: {metrics}");
    }
    assert!(child.wait().expect("serve exits").success());
}

/// The serve subcommand's own flags share the usage convention: a bad
/// flag is a one-line `igen-cli:` diagnostic and exit 2.
#[test]
fn serve_flag_errors_are_one_line_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_igen-cli"))
        .args(["serve", "--workers"])
        .output()
        .expect("run igen-cli");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim(), "igen-cli: --workers needs a count");

    let out = Command::new(env!("CARGO_BIN_EXE_igen-cli"))
        .args(["serve", "--frobnicate"])
        .output()
        .expect("run igen-cli");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim(),
        "igen-cli: unknown serve option '--frobnicate' (see igen-cli --help)"
    );
}
