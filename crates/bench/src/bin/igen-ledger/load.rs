//! The load generator: a closed loop with a fixed window of outstanding
//! requests. It drives an in-process [`Service`] through `submit` and
//! `Ticket::wait`, the engine of `igen-cli serve`, and splits its timed
//! phase into equal rounds.

use crate::gen::{hash, Gen};
use crate::stats::Round;
use crate::trace::Recorder;
use igen_session::Service;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A stream of request lines: line `i` is a pure function of `i`.
pub trait Lines {
    /// Request line `i`.
    fn line(&self, i: u64) -> String;
}

impl Lines for Gen {
    fn line(&self, i: u64) -> String {
        Gen::line(self, i)
    }
}

/// Rounds per timed phase.
pub const ROUNDS: usize = 5;

/// Distinct request lines the correctness gate checks, at most.
pub const GATE_LINES: usize = 256;

/// What a timed phase observed.
#[derive(Default)]
pub struct Observed {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Requests submitted.
    pub attempted: u64,
    /// Responses with `"ok":false`, including refusals.
    pub failed: u64,
    /// `Service::queue_depth()` sampled at each submit.
    pub queue_depths: Vec<f64>,
    /// Responses kept for the correctness gate.
    pub responses: Responses,
}

/// A seeded sample of the distinct request lines answered ok, and a
/// check that every repeat of a line got the same response bytes.
///
/// Only hashes of responses are kept, so the harness's memory does not
/// grow with the responses it has seen: a response is a pure function
/// of its line, and the gate re-sends the sampled lines after timing
/// and compares the hashes. The sample keeps the [`GATE_LINES`] lines of
/// lowest seeded priority (a bottom-k sketch), which is a uniform sample
/// of the distinct lines however many were sent.
#[derive(Default)]
pub struct Responses {
    seed: u64,
    kept: BTreeMap<(u64, u64), String>,
    first: HashMap<u64, u64>,
    /// Responses to a line seen before.
    pub repeats: u64,
    /// Repeats whose response bytes differed from the first.
    pub repeat_mismatches: u64,
}

impl Responses {
    /// An empty store whose sample is seeded by `seed`.
    pub fn new(seed: u64) -> Responses {
        Responses { seed, ..Responses::default() }
    }

    /// Records the ok response to `line`.
    pub fn observe(&mut self, line: String, response: &str) {
        let lh = hash(line.as_bytes());
        let rh = hash(response.as_bytes());
        if let Some(&first) = self.first.get(&lh) {
            self.repeats += 1;
            self.repeat_mismatches += u64::from(first != rh);
            return;
        }
        self.first.insert(lh, rh);
        let key = (hash(&(lh ^ self.seed).to_le_bytes()), lh);
        if self.kept.len() < GATE_LINES || self.kept.last_key_value().is_some_and(|(k, _)| key < *k)
        {
            self.kept.insert(key, line);
            if self.kept.len() > GATE_LINES {
                self.kept.pop_last();
            }
        }
    }

    /// Distinct lines seen.
    pub fn distinct(&self) -> usize {
        self.first.len()
    }

    /// The sampled lines, each with the hash of its first response.
    pub fn sample(&self) -> impl Iterator<Item = (&str, u64)> {
        self.kept.iter().map(|(&(_, lh), line)| (line.as_str(), self.first[&lh]))
    }
}

/// Whether a response line reports success.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// The `"items"` count of a run response (0 when absent).
pub fn items_of(response: &str) -> u64 {
    response
        .find("\"items\":")
        .map(|at| &response[at + 8..])
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

/// Sends `lines` with at most `window` outstanding and checks every
/// response is ok; returns the first failure otherwise.
pub fn drain(
    svc: &Service,
    lines: impl Iterator<Item = String>,
    window: usize,
) -> Result<(), String> {
    let mut inflight = VecDeque::new();
    let mut lines = lines.peekable();
    while lines.peek().is_some() || !inflight.is_empty() {
        while inflight.len() < window {
            let Some(line) = lines.next() else { break };
            inflight.push_back(svc.submit(&line));
        }
        if let Some(ticket) = inflight.pop_front() {
            let resp = ticket.wait();
            if !is_ok(&resp) {
                return Err(resp);
            }
        }
    }
    Ok(())
}

/// A latency as recorded: a failure misses every latency limit.
fn latency_ms(ok: bool, d: Duration) -> f64 {
    if ok {
        d.as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    }
}

/// Closed loop: one client keeps `window` requests outstanding (submit,
/// then wait on the oldest) for `secs`, split into `rounds` equal
/// rounds, drawing lines `0, 1, 2, …` from `gen`. Latency runs from
/// submit; a request belongs to the round it was submitted in.
///
/// With a recorder, every odd round is traced: each of its requests is
/// recorded as a `load.request` span from submit to response. The even
/// rounds are the same loop untraced, interleaved with the traced ones
/// so that a drift in host speed falls on both alike.
pub fn closed(
    svc: &Service,
    gen: &impl Lines,
    seed: u64,
    window: usize,
    secs: f64,
    rounds: usize,
    mut rec: Option<&mut Recorder>,
) -> Observed {
    let mut obs = Observed {
        rounds: vec![Round::default(); rounds],
        responses: Responses::new(seed),
        ..Observed::default()
    };
    let round_s = secs / rounds as f64;
    let mut inflight = VecDeque::new();
    let mut next = 0u64;
    let t0 = Instant::now();
    loop {
        while inflight.len() < window && t0.elapsed().as_secs_f64() < secs {
            let line = gen.line(next);
            obs.queue_depths.push(svc.queue_depth() as f64);
            let sent = Instant::now();
            let r = (((sent - t0).as_secs_f64() / round_s) as usize).min(rounds - 1);
            let span = match rec.as_deref_mut() {
                Some(rec) if r % 2 == 1 => Some(rec.open(next, None, "load.request")),
                _ => None,
            };
            let ticket = svc.submit(&line);
            inflight.push_back((sent, r, span, line, ticket));
            next += 1;
        }
        let Some((sent, r, span, line, ticket)) = inflight.pop_front() else { break };
        let resp = ticket.wait();
        let done = Instant::now();
        if let (Some(rec), Some(id)) = (rec.as_deref_mut(), span) {
            rec.close(id);
        }
        let ok = is_ok(&resp);
        record(&mut obs, r, ok, done - sent, (done - t0).as_secs_f64(), &resp);
        if ok {
            obs.responses.observe(line, &resp);
        }
    }
    obs.attempted = next;
    obs
}

fn record(obs: &mut Observed, r: usize, ok: bool, lat: Duration, done_s: f64, resp: &str) {
    let round = &mut obs.rounds[r];
    round.latencies_ms.push(latency_ms(ok, lat));
    if ok {
        round.ok_done_s.push(done_s);
        round.ok_items.push(items_of(resp));
    } else {
        obs.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igen_session::ServiceConfig;

    /// Fixed lines, repeated.
    struct Fixed(Vec<&'static str>);

    impl Lines for Fixed {
        fn line(&self, i: u64) -> String {
            self.0[i as usize % self.0.len()].to_string()
        }
    }

    #[test]
    fn closed_loop_keeps_its_window_and_rounds() {
        let svc = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let obs = closed(&svc, &Fixed(vec![r#"{"kind":"ping"}"#]), 0, 2, 0.2, ROUNDS, None);
        assert_eq!(obs.rounds.len(), ROUNDS);
        let answered: usize = obs.rounds.iter().map(|r| r.latencies_ms.len()).sum();
        assert_eq!(answered as u64, obs.attempted);
        assert!(obs.queue_depths.iter().all(|&d| d <= 2.0));
        assert_eq!(obs.failed, 0);
    }

    #[test]
    fn traced_rounds_record_a_span_per_request() {
        let svc = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let mut rec = Recorder::new();
        let obs = closed(&svc, &Fixed(vec![r#"{"kind":"ping"}"#]), 0, 2, 0.4, 4, Some(&mut rec));
        let traced: usize =
            obs.rounds.iter().skip(1).step_by(2).map(|r| r.latencies_ms.len()).sum();
        assert!(traced > 0);
        assert_eq!(rec.spans.len(), traced);
        assert!(rec.spans.iter().all(|s| s.name == "load.request" && s.end_ns >= s.start_ns));
    }

    #[test]
    fn responses_sample_is_bounded_and_flags_changed_repeats() {
        let fill = |seed| {
            let mut r = Responses::new(seed);
            for i in 0..1000 {
                r.observe(format!("line {i}"), &format!("resp {i}"));
            }
            r
        };
        let mut r = fill(1);
        assert_eq!(r.sample().count(), GATE_LINES);
        assert_eq!(r.distinct(), 1000);
        let (line, rh) = r.sample().next().expect("a sampled line");
        assert_eq!(rh, hash(line.replace("line", "resp").as_bytes()));
        r.observe("line 3".into(), "resp 3");
        assert_eq!((r.repeats, r.repeat_mismatches), (1, 0));
        r.observe("line 4".into(), "something else");
        assert_eq!((r.repeats, r.repeat_mismatches), (2, 1));
        let a: Vec<String> = r.sample().map(|p| p.0.to_string()).collect();
        let b: Vec<String> = fill(2).sample().map(|p| p.0.to_string()).collect();
        assert_ne!(a, b, "another seed samples other lines");
    }

    #[test]
    fn items_are_read_from_run_responses() {
        assert_eq!(items_of(r#"{"ok":true,"kind":"run","fn":"f","items":64,"outputs":[]}"#), 64);
        assert_eq!(items_of(r#"{"ok":false,"error":"x"}"#), 0);
    }
}
