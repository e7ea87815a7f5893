//! Trace records and the JSON-lines wire format.
//!
//! A trace is a sequence of newline-delimited JSON objects, one record
//! per line, discriminated by a `"type"` field:
//!
//! ```text
//! {"type":"span","name":"pass.cse","thread":0,"depth":1,"start_ns":120,"dur_ns":45}
//! {"type":"counter","name":"simd.add.packed_calls","value":4096}
//! {"type":"hist","name":"width.batch.dot","count":512,"buckets":[[10,500],[11,12]]}
//! {"type":"profile","unit":"henon_map","site":3,"line":7,"col":14,"op":"mul",
//!  "count":640,"total_ns":5200,"in_w":1.2e-13,"out_w":3.4e-13,"amp":[[33,640]]}
//! ```
//!
//! [`Snapshot::from_jsonl`] accepts *concatenated* traces (e.g. a
//! compile trace followed by a run trace, `cat`-ed into one file):
//! duplicate counters sum, duplicate histograms sum bucket-wise,
//! duplicate profile sites (same unit, site, line, col and op) sum
//! field-wise, and spans concatenate. That makes "one JSON-lines trace"
//! of a whole compile-then-execute session a plain file concatenation.
//!
//! This module is always compiled — reading and reporting traces works
//! in builds without the `enabled` feature; only *recording* is gated.

use crate::json::{self, Json};

/// One finished span: a named scope on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name, e.g. `"pass.cse"` or `"batch.chunk"`.
    pub name: String,
    /// Dense per-process thread id (0 = first thread that opened a span).
    pub thread: u64,
    /// Nesting depth on that thread when the span opened (0 = top level).
    pub depth: u32,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
}

/// One histogram: sample count plus nonzero `(bucket_index, count)`
/// pairs. Bucket indices follow [`crate::WidthHist`]'s layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRec {
    /// Histogram name, e.g. `"width.batch.dot"`.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Nonzero buckets as `(bucket_index, count)`, ascending by index.
    pub buckets: Vec<(i32, u64)>,
}

/// One instruction-site profile row: execution count, wall-clock time
/// and width-amplification statistics attributed to a source location
/// (see [`crate::profile`] for the amplification bucket layout).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRec {
    /// Profiled unit: the compiled program's name.
    pub unit: String,
    /// Instruction-site index within the unit (bytecode insn index).
    pub site: u32,
    /// 1-based source line the site originated from (0 = unknown).
    pub line: u32,
    /// 1-based source column (0 = unknown).
    pub col: u32,
    /// Operation mnemonic at the site (e.g. `"mul"`, `"sqrt"`).
    pub op: String,
    /// Element evaluations recorded at the site.
    pub count: u64,
    /// Total wall-clock nanoseconds attributed to the site.
    pub total_ns: u64,
    /// Sum of the widest-input relative widths over all samples.
    pub in_width_sum: f64,
    /// Sum of output relative widths over all samples.
    pub out_width_sum: f64,
    /// Nonzero width-amplification buckets as `(bucket_index, count)`,
    /// ascending; bucket [`crate::profile::AMP_ZERO`] = unchanged.
    pub amp: Vec<(i32, u64)>,
}

impl ProfileRec {
    /// Mean `log2` width amplification over the bucketed samples
    /// (positive = this site widens enclosures), or `None` with no
    /// samples. The open-ended end buckets count at their clamp value.
    pub fn mean_amp_log2(&self) -> Option<f64> {
        let total: u64 = self.amp.iter().map(|(_, v)| *v).sum();
        if total == 0 {
            return None;
        }
        let sum: f64 = self
            .amp
            .iter()
            .map(|(i, v)| crate::profile::amp_bucket_log2(*i as usize) as f64 * *v as f64)
            .sum();
        Some(sum / total as f64)
    }
}

/// Everything one trace holds: spans, counters, histograms and
/// instruction-site profiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Finished spans in completion order.
    pub spans: Vec<SpanRec>,
    /// `(name, value)` counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<HistRec>,
    /// Instruction-site profiles, sorted by unit then site.
    pub profiles: Vec<ProfileRec>,
}

impl Snapshot {
    /// Serializes the snapshot as JSON lines (spans, then counters, then
    /// histograms; one record per line, trailing newline included when
    /// nonempty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":{},\"thread\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
                json::escape(&s.name),
                s.thread,
                s.depth,
                s.start_ns,
                s.dur_ns
            ));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json::escape(name),
                value
            ));
        }
        for h in &self.hists {
            let buckets: Vec<String> =
                h.buckets.iter().map(|(i, v)| format!("[{i},{v}]")).collect();
            out.push_str(&format!(
                "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"buckets\":[{}]}}\n",
                json::escape(&h.name),
                h.count,
                buckets.join(",")
            ));
        }
        for p in &self.profiles {
            let amp: Vec<String> = p.amp.iter().map(|(i, v)| format!("[{i},{v}]")).collect();
            out.push_str(&format!(
                "{{\"type\":\"profile\",\"unit\":{},\"site\":{},\"line\":{},\"col\":{},\
                 \"op\":{},\"count\":{},\"total_ns\":{},\"in_w\":{:e},\"out_w\":{:e},\
                 \"amp\":[{}]}}\n",
                json::escape(&p.unit),
                p.site,
                p.line,
                p.col,
                json::escape(&p.op),
                p.count,
                p.total_ns,
                p.in_width_sum,
                p.out_width_sum,
                amp.join(",")
            ));
        }
        out
    }

    /// Parses a JSON-lines trace, merging repeated records: counters with
    /// the same name sum, histograms sum bucket-wise, spans concatenate
    /// in input order. Blank lines and `#` comment lines are skipped.
    ///
    /// Errors name the offending line (1-based).
    pub fn from_jsonl(src: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (lineno, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let bad = |what: &str| format!("line {}: bad or missing {what}", lineno + 1);
            let ty = v.get("type").and_then(Json::as_str).ok_or_else(|| bad("type"))?;
            match ty {
                "span" => snap.spans.push(SpanRec {
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("name"))?
                        .to_string(),
                    thread: v.get("thread").and_then(Json::as_u64).ok_or_else(|| bad("thread"))?,
                    depth: v.get("depth").and_then(Json::as_u64).ok_or_else(|| bad("depth"))?
                        as u32,
                    start_ns: v
                        .get("start_ns")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("start_ns"))?,
                    dur_ns: v.get("dur_ns").and_then(Json::as_u64).ok_or_else(|| bad("dur_ns"))?,
                }),
                "counter" => {
                    let name = v.get("name").and_then(Json::as_str).ok_or_else(|| bad("name"))?;
                    let value =
                        v.get("value").and_then(Json::as_u64).ok_or_else(|| bad("value"))?;
                    match snap.counters.iter_mut().find(|(n, _)| n == name) {
                        Some((_, total)) => *total += value,
                        None => snap.counters.push((name.to_string(), value)),
                    }
                }
                "hist" => {
                    let name = v.get("name").and_then(Json::as_str).ok_or_else(|| bad("name"))?;
                    let count =
                        v.get("count").and_then(Json::as_u64).ok_or_else(|| bad("count"))?;
                    let mut buckets = Vec::new();
                    for pair in
                        v.get("buckets").and_then(Json::as_arr).ok_or_else(|| bad("buckets"))?
                    {
                        let pair = pair.as_arr().ok_or_else(|| bad("bucket pair"))?;
                        let (idx, n) = match pair {
                            [i, n] => (
                                i.as_i64().ok_or_else(|| bad("bucket index"))? as i32,
                                n.as_u64().ok_or_else(|| bad("bucket count"))?,
                            ),
                            _ => return Err(bad("bucket pair")),
                        };
                        buckets.push((idx, n));
                    }
                    match snap.hists.iter_mut().find(|h| h.name == name) {
                        Some(h) => {
                            h.count += count;
                            for (idx, n) in buckets {
                                match h.buckets.iter_mut().find(|(i, _)| *i == idx) {
                                    Some((_, total)) => *total += n,
                                    None => h.buckets.push((idx, n)),
                                }
                            }
                            h.buckets.sort_unstable_by_key(|(i, _)| *i);
                        }
                        None => snap.hists.push(HistRec { name: name.to_string(), count, buckets }),
                    }
                }
                "profile" => {
                    let str_field = |k: &str| -> Result<String, String> {
                        Ok(v.get(k).and_then(Json::as_str).ok_or_else(|| bad(k))?.to_string())
                    };
                    let u64_field = |k: &str| -> Result<u64, String> {
                        v.get(k).and_then(Json::as_u64).ok_or_else(|| bad(k))
                    };
                    let f64_field = |k: &str| -> Result<f64, String> {
                        v.get(k).and_then(Json::as_f64).ok_or_else(|| bad(k))
                    };
                    let mut amp = Vec::new();
                    for pair in v.get("amp").and_then(Json::as_arr).ok_or_else(|| bad("amp"))? {
                        let pair = pair.as_arr().ok_or_else(|| bad("amp pair"))?;
                        match pair {
                            [i, n] => amp.push((
                                i.as_i64().ok_or_else(|| bad("amp index"))? as i32,
                                n.as_u64().ok_or_else(|| bad("amp count"))?,
                            )),
                            _ => return Err(bad("amp pair")),
                        }
                    }
                    let rec = ProfileRec {
                        unit: str_field("unit")?,
                        site: u64_field("site")? as u32,
                        line: u64_field("line")? as u32,
                        col: u64_field("col")? as u32,
                        op: str_field("op")?,
                        count: u64_field("count")?,
                        total_ns: u64_field("total_ns")?,
                        in_width_sum: f64_field("in_w")?,
                        out_width_sum: f64_field("out_w")?,
                        amp,
                    };
                    // Same site recorded across traces: sum field-wise.
                    match snap.profiles.iter_mut().find(|p| {
                        p.unit == rec.unit
                            && p.site == rec.site
                            && p.line == rec.line
                            && p.col == rec.col
                            && p.op == rec.op
                    }) {
                        Some(p) => {
                            p.count += rec.count;
                            p.total_ns += rec.total_ns;
                            p.in_width_sum += rec.in_width_sum;
                            p.out_width_sum += rec.out_width_sum;
                            for (idx, n) in rec.amp {
                                match p.amp.iter_mut().find(|(i, _)| *i == idx) {
                                    Some((_, total)) => *total += n,
                                    None => p.amp.push((idx, n)),
                                }
                            }
                            p.amp.sort_unstable_by_key(|(i, _)| *i);
                        }
                        None => snap.profiles.push(rec),
                    }
                }
                other => return Err(format!("line {}: unknown record type '{other}'", lineno + 1)),
            }
        }
        snap.counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snap.hists.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        snap.profiles.sort_unstable_by(|a, b| a.unit.cmp(&b.unit).then(a.site.cmp(&b.site)));
        Ok(snap)
    }

    /// Renders the snapshot as a flat `/metrics`-style text exposition
    /// (one `name{labels} value` line per statistic) — the format a
    /// future `igen-serve` endpoint will serve verbatim. Spans aggregate
    /// by name; histograms summarize to sample/exact/unbounded counts;
    /// profile sites expose count, total time and mean amplification.
    pub fn to_metrics_text(&self) -> String {
        let mut out = String::new();
        // Spans: total duration and count per name, in first-seen order.
        let mut groups: Vec<(&str, u64, u64)> = Vec::new();
        for s in &self.spans {
            match groups.iter_mut().find(|(n, ..)| *n == s.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += s.dur_ns;
                }
                None => groups.push((&s.name, 1, s.dur_ns)),
            }
        }
        for (name, count, total) in &groups {
            let name = json::escape(name);
            out.push_str(&format!("igen_span_count{{name={name}}} {count}\n"));
            out.push_str(&format!("igen_span_total_ns{{name={name}}} {total}\n"));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("igen_counter{{name={}}} {value}\n", json::escape(name)));
        }
        for h in &self.hists {
            let name = json::escape(&h.name);
            let at = |idx: i32| h.buckets.iter().find(|(i, _)| *i == idx).map_or(0, |(_, v)| *v);
            out.push_str(&format!("igen_width_count{{name={name}}} {}\n", h.count));
            out.push_str(&format!("igen_width_exact{{name={name}}} {}\n", at(0)));
            out.push_str(&format!(
                "igen_width_unbounded{{name={name}}} {}\n",
                at(crate::hist::BUCKETS as i32 - 1)
            ));
        }
        for p in &self.profiles {
            let labels = format!(
                "unit={},site=\"{}\",line=\"{}\",col=\"{}\",op={}",
                json::escape(&p.unit),
                p.site,
                p.line,
                p.col,
                json::escape(&p.op)
            );
            out.push_str(&format!("igen_profile_count{{{labels}}} {}\n", p.count));
            out.push_str(&format!("igen_profile_total_ns{{{labels}}} {}\n", p.total_ns));
            if let Some(amp) = p.mean_amp_log2() {
                out.push_str(&format!("igen_profile_mean_amp_log2{{{labels}}} {amp:.3}\n"));
            }
            if p.count > 0 {
                out.push_str(&format!(
                    "igen_profile_mean_out_rel_width{{{labels}}} {:e}\n",
                    p.out_width_sum / p.count as f64
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanRec {
                    name: "compile.lower".into(),
                    thread: 0,
                    depth: 0,
                    start_ns: 10,
                    dur_ns: 100,
                },
                SpanRec { name: "pass.cse".into(), thread: 0, depth: 1, start_ns: 20, dur_ns: 30 },
            ],
            counters: vec![
                ("simd.add.packed_calls".into(), 4096),
                ("simd.dispatch.portable".into(), 7),
            ],
            hists: vec![HistRec {
                name: "width.batch.dot".into(),
                count: 512,
                buckets: vec![(10, 500), (63, 12)],
            }],
            profiles: vec![ProfileRec {
                unit: "henon_map".into(),
                site: 3,
                line: 7,
                col: 14,
                op: "mul".into(),
                count: 640,
                total_ns: 5200,
                in_width_sum: 1.25e-13,
                out_width_sum: 3.5e-13,
                amp: vec![(33, 600), (63, 40)],
            }],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let snap = sample();
        let text = snap.to_jsonl();
        assert_eq!(text.lines().count(), 6);
        let parsed = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn concatenated_traces_merge() {
        let snap = sample();
        let both = format!("{}\n# a comment\n{}", snap.to_jsonl(), snap.to_jsonl());
        let merged = Snapshot::from_jsonl(&both).unwrap();
        assert_eq!(merged.spans.len(), 4);
        let add = merged.counters.iter().find(|(n, _)| n == "simd.add.packed_calls").unwrap();
        assert_eq!(add.1, 8192);
        let h = &merged.hists[0];
        assert_eq!(h.count, 1024);
        assert_eq!(h.buckets, vec![(10, 1000), (63, 24)]);
        // Profile sites with identical identity merge field-wise.
        assert_eq!(merged.profiles.len(), 1);
        let p = &merged.profiles[0];
        assert_eq!(p.count, 1280);
        assert_eq!(p.total_ns, 10400);
        assert!((p.in_width_sum - 2.5e-13).abs() < 1e-25);
        assert_eq!(p.amp, vec![(33, 1200), (63, 80)]);
    }

    #[test]
    fn errors_name_the_line() {
        let err = Snapshot::from_jsonl("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err =
            Snapshot::from_jsonl("{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\nnot json\n")
                .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Snapshot::from_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
    }

    #[test]
    fn truncated_final_line_is_a_one_line_error() {
        // A crashed writer leaves a half-record at the end of the file:
        // the error names that line and nothing panics.
        let snap = sample();
        let mut text = snap.to_jsonl();
        let full_lines = text.lines().count();
        text.truncate(text.len() - 20);
        let err = Snapshot::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with(&format!("line {full_lines}:")), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line error: {err}");
    }

    #[test]
    fn malformed_profile_records_error_not_panic() {
        // Missing required field.
        let err = Snapshot::from_jsonl("{\"type\":\"profile\",\"unit\":\"f\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // Malformed amp pair.
        let err = Snapshot::from_jsonl(
            "{\"type\":\"profile\",\"unit\":\"f\",\"site\":0,\"line\":1,\"col\":1,\
             \"op\":\"add\",\"count\":1,\"total_ns\":2,\"in_w\":0e0,\"out_w\":0e0,\
             \"amp\":[[1]]}\n",
        )
        .unwrap_err();
        assert!(err.contains("amp pair"), "{err}");
    }

    #[test]
    fn duplicate_counter_keys_merge_by_summing() {
        // The documented behavior for repeated keys: counters sum.
        let snap = Snapshot::from_jsonl(
            "{\"type\":\"counter\",\"name\":\"x\",\"value\":2}\n\
             {\"type\":\"counter\",\"name\":\"x\",\"value\":40}\n",
        )
        .unwrap();
        assert_eq!(snap.counters, vec![("x".to_string(), 42)]);
    }

    #[test]
    fn empty_trace_is_empty_snapshot() {
        assert_eq!(Snapshot::from_jsonl("").unwrap(), Snapshot::default());
        assert_eq!(Snapshot::default().to_jsonl(), "");
    }

    #[test]
    fn metrics_text_exposes_every_kind() {
        let m = sample().to_metrics_text();
        assert!(m.contains("igen_span_count{name=\"compile.lower\"} 1"), "{m}");
        assert!(m.contains("igen_counter{name=\"simd.add.packed_calls\"} 4096"), "{m}");
        assert!(m.contains("igen_width_count{name=\"width.batch.dot\"} 512"), "{m}");
        assert!(m.contains("igen_width_unbounded{name=\"width.batch.dot\"} 12"), "{m}");
        assert!(m.contains("igen_profile_count{unit=\"henon_map\",site=\"3\",line=\"7\""), "{m}");
        assert!(m.contains("igen_profile_total_ns"), "{m}");
        assert!(m.contains("igen_profile_mean_amp_log2"), "{m}");
        // Every line is `name{labels} value`.
        for line in m.lines() {
            assert!(line.contains('{') && line.contains("} "), "bad metrics line: {line}");
        }
    }

    #[test]
    fn mean_amp_weights_buckets() {
        let p = sample().profiles.remove(0);
        // (600*1 + 40*31) / 640 = 2.875
        let amp = p.mean_amp_log2().unwrap();
        assert!((amp - 2.875).abs() < 1e-12, "{amp}");
    }
}
