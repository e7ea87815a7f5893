//! Order statistics shared by the load loops and the traced replay.

/// The sample at percentile `p` (0–100) of an ascending slice, by the
/// nearest-rank rule: the smallest value with at least `p`% of the
/// samples at or below it. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The slack
/// keeps decimal percentiles such as 99.9 from rounding one rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// The highest candidate percentile with at least ten samples beyond it
/// in a set of `n` samples (a tail read off fewer samples is one
/// request's luck, not a property of the system). Falls back to the
/// median when even p75 has fewer than ten beyond.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10).unwrap_or(50.0)
}

/// Median of unsorted values (mean of the middle two for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latencies, in milliseconds, recorded in one timed round.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Latency of every answered request, ok or not.
    pub latencies_ms: Vec<f64>,
    /// Completion instants (seconds since the phase began) of ok
    /// responses, in completion order.
    pub ok_done_s: Vec<f64>,
    /// Batch items carried by each ok response, parallel to `ok_done_s`.
    pub ok_items: Vec<u64>,
}

impl Round {
    /// Ok responses per second between the round's first and last ok
    /// completion (`n - 1` intervals over that span, so the rate is
    /// measured, not a count divided by a nominal duration).
    pub fn throughput(&self) -> f64 {
        rate(&self.ok_done_s, self.ok_done_s.len().saturating_sub(1) as f64)
    }

    /// Batch items per second over the same span, not counting the
    /// first response's items (they completed at the span's start).
    pub fn items_per_s(&self) -> f64 {
        rate(&self.ok_done_s, self.ok_items.iter().skip(1).sum::<u64>() as f64)
    }
}

fn rate(done_s: &[f64], work: f64) -> f64 {
    match (done_s.first(), done_s.last()) {
        (Some(a), Some(b)) if b > a => work / (b - a),
        _ => f64::NAN,
    }
}

/// Per-round aggregates, each taken as the median over rounds so one
/// disturbed round cannot move the reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Median over rounds of the round's median latency.
    pub p50_ms: f64,
    /// Median over rounds of the round's tail latency.
    pub tail_ms: f64,
    /// Median over rounds of ok responses per second.
    pub throughput_rps: f64,
    /// Median over rounds of batch items per second.
    pub items_per_s: f64,
}

/// Aggregates `rounds` at tail percentile `tail_p`.
pub fn summarize(rounds: &[Round], tail_p: f64) -> RoundSummary {
    let mut p50 = Vec::new();
    let mut tail = Vec::new();
    for r in rounds {
        let mut lat = r.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        p50.push(percentile(&lat, 50.0));
        tail.push(percentile(&lat, tail_p));
    }
    let per = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    RoundSummary {
        p50_ms: median(&p50),
        tail_ms: median(&tail),
        throughput_rps: per(Round::throughput),
        items_per_s: per(Round::items_per_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        // 999 samples: p99 has only 9 beyond it, so p98 (19 beyond).
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(12), 50.0);
        for n in [1usize, 17, 40, 73, 150, 512, 4096, 25_000] {
            let p = tail_percentile(n);
            assert!(p == 50.0 || beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        let round = |lat: &[f64], done: &[f64]| Round {
            latencies_ms: lat.to_vec(),
            ok_done_s: done.to_vec(),
            ok_items: vec![4; done.len()],
        };
        let rounds = vec![
            round(&[1.0, 2.0, 3.0], &[0.0, 1.0, 2.0]), // p50 2, 1 rps
            round(&[2.0, 3.0, 4.0], &[0.0, 0.5, 1.0]), // p50 3, 2 rps
            round(&[50.0, 60.0, 70.0], &[0.0, 10.0, 20.0]), // a stalled round
            round(&[1.0, 3.0, 5.0], &[0.0, 0.25, 0.5]), // p50 3, 4 rps
            round(&[2.0, 2.0, 2.0], &[0.0, 1.0, 2.0]), // p50 2, 1 rps
        ];
        let s = summarize(&rounds, 100.0);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.tail_ms, 4.0);
        assert_eq!(s.throughput_rps, 1.0);
        assert_eq!(s.items_per_s, 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
