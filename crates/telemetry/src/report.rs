//! Human-readable rendering of a [`Snapshot`] (`igen-cli report`).
//!
//! The report derives the headline soundness diagnostics from raw
//! counters — notably the per-op SIMD *patch rate*: packed kernels
//! process 4 lanes per call, and a lane whose operands violate the
//! backend's exactness guards goes to a `#[cold]` path that settles it
//! in registers where it can and otherwise recomputes it with the
//! scalar op, so `lanes_patched / (4 * packed_calls)` is the fraction of
//! lanes the scalar op recomputed.
//!
//! Always compiled: reporting works on traces read from disk even in
//! builds without the `enabled` recording feature.

use crate::hist::{bucket_log2, BUCKETS};
use crate::trace::{HistRec, Snapshot};

/// Renders `snap` as the human report: span timings grouped by name,
/// derived SIMD guard-failure rates, per-rule peephole rewrite totals, interval width summaries,
/// instruction-site profiles, and the raw counter table.
pub fn render_report(snap: &Snapshot) -> String {
    let mut out = String::new();
    render_spans(&mut out, snap);
    render_simd(&mut out, snap);
    render_peephole(&mut out, snap);
    render_session(&mut out, snap);
    render_counters(&mut out, snap);
    render_hists(&mut out, snap);
    render_profiles(&mut out, snap);
    if out.is_empty() {
        out.push_str("trace is empty (no spans, counters, histograms or profiles recorded)\n");
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 100_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 100_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_spans(out: &mut String, snap: &Snapshot) {
    if snap.spans.is_empty() {
        return;
    }
    // Group by name, ordered by earliest start so the compile phases
    // read in pipeline order.
    let mut groups: Vec<(&str, u64, u64, u64)> = Vec::new(); // name, count, total_ns, first_start
    for s in &snap.spans {
        match groups.iter_mut().find(|(n, ..)| *n == s.name) {
            Some((_, count, total, first)) => {
                *count += 1;
                *total += s.dur_ns;
                *first = (*first).min(s.start_ns);
            }
            None => groups.push((&s.name, 1, s.dur_ns, s.start_ns)),
        }
    }
    groups.sort_by_key(|&(_, _, _, first)| first);
    let name_w = groups.iter().map(|(n, ..)| n.len()).max().unwrap_or(0).max(4);
    out.push_str(&format!("spans ({} recorded)\n", snap.spans.len()));
    out.push_str(&format!(
        "  {:<name_w$}  {:>7}  {:>10}  {:>10}\n",
        "name", "count", "total", "mean"
    ));
    for (name, count, total, _) in &groups {
        out.push_str(&format!(
            "  {:<name_w$}  {:>7}  {:>10}  {:>10}\n",
            name,
            count,
            fmt_ns(*total),
            fmt_ns(total / count)
        ));
    }
    out.push('\n');
}

fn counter(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn render_simd(out: &mut String, snap: &Snapshot) {
    // Scalar-patch rate per packed op.
    let mut rows: Vec<(&str, u64, u64)> = Vec::new();
    for op in ["add", "mul", "dd_add", "dd_mul"] {
        let packed = counter(snap, &format!("simd.{op}.packed_calls"));
        let patched = counter(snap, &format!("simd.{op}.lanes_patched"));
        if let Some(packed) = packed {
            rows.push((op, packed, patched.unwrap_or(0)));
        }
    }
    if !rows.is_empty() {
        out.push_str("simd scalar patches (lanes patched / 4-wide packed calls)\n");
        for (op, packed, patched) in &rows {
            let lanes = packed * 4;
            let rate = if lanes > 0 { *patched as f64 / lanes as f64 * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "  {:<6} {:>12} calls  {:>12} lanes patched  ({rate:.4}%)\n",
                op, packed, patched
            ));
        }
        out.push('\n');
    }
}

fn render_peephole(out: &mut String, snap: &Snapshot) {
    // One line per rewrite rule, so peephole behavior is auditable per
    // program (the raw counters repeat below; this is the readable view).
    let rules = [
        ("dedup", "constant pool entries deduplicated"),
        ("neg_fold", "add/sub-of-neg folded"),
        ("dce", "dead instructions removed"),
        ("fuse", "mul+acc fused to muladd/mulsub"),
        ("renumber", "registers reclaimed by renumbering"),
    ];
    let rows: Vec<(&str, &str, u64)> = rules
        .iter()
        .filter_map(|(key, what)| {
            counter(snap, &format!("vm.peephole.{key}")).map(|v| (*key, *what, v))
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    let total: u64 = rows.iter().map(|(.., v)| *v).sum();
    out.push_str(&format!("peephole rewrites ({total} total)\n"));
    for (key, what, v) in &rows {
        out.push_str(&format!("  {key:<9} {v:>10}  {what}\n"));
    }
    out.push('\n');
}

fn render_session(out: &mut String, snap: &Snapshot) {
    // Session-layer health: compile-cache effectiveness and the worker
    // queue's high-water mark (raw counters repeat below).
    let hits = counter(snap, "session.cache.hits");
    let misses = counter(snap, "session.cache.misses");
    if hits.is_none() && misses.is_none() {
        return;
    }
    let (hits, misses) = (hits.unwrap_or(0), misses.unwrap_or(0));
    let evictions = counter(snap, "session.cache.evictions").unwrap_or(0);
    let lookups = hits + misses;
    let rate = if lookups > 0 { hits as f64 / lookups as f64 * 100.0 } else { 0.0 };
    out.push_str("session\n");
    out.push_str(&format!(
        "  compile cache  {hits} hits / {lookups} lookups  ({rate:.1}%)  {evictions} evicted\n"
    ));
    if let Some(depth) = counter(snap, "session.queue.depth_max") {
        out.push_str(&format!("  queue depth    {depth} max\n"));
    }
    out.push('\n');
}

fn render_counters(out: &mut String, snap: &Snapshot) {
    if snap.counters.is_empty() {
        return;
    }
    let name_w = snap.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(4);
    out.push_str("counters\n");
    for (name, value) in &snap.counters {
        out.push_str(&format!("  {name:<name_w$}  {value:>12}\n"));
    }
    out.push('\n');
}

fn hist_summary(h: &HistRec) -> String {
    let exact = h.buckets.iter().find(|(i, _)| *i == 0).map_or(0, |(_, v)| *v);
    let unbounded = h.buckets.iter().find(|(i, _)| *i == BUCKETS as i32 - 1).map_or(0, |(_, v)| *v);
    let pct = |n: u64| if h.count > 0 { n as f64 / h.count as f64 * 100.0 } else { 0.0 };
    // Median bucket over the finite, nonzero-width samples.
    let finite: u64 =
        h.buckets.iter().filter(|(i, _)| *i > 0 && *i < BUCKETS as i32 - 1).map(|(_, v)| *v).sum();
    let median = if finite == 0 {
        "-".to_string()
    } else {
        let mut seen = 0u64;
        let mut med = 0usize;
        for (i, v) in &h.buckets {
            if *i <= 0 || *i >= BUCKETS as i32 - 1 {
                continue;
            }
            seen += v;
            if seen * 2 >= finite {
                med = *i as usize;
                break;
            }
        }
        format!("2^{}", bucket_log2(med))
    };
    format!(
        "{:>10} samples  exact {:.1}%  median rel width {}  unbounded {:.2}%",
        h.count,
        pct(exact),
        median,
        pct(unbounded)
    )
}

fn render_hists(out: &mut String, snap: &Snapshot) {
    if snap.hists.is_empty() {
        return;
    }
    let name_w = snap.hists.iter().map(|h| h.name.len()).max().unwrap_or(0).max(4);
    out.push_str("interval width\n");
    for h in &snap.hists {
        out.push_str(&format!("  {:<name_w$}  {}\n", h.name, hist_summary(h)));
    }
    out.push('\n');
}

fn render_profiles(out: &mut String, snap: &Snapshot) {
    if snap.profiles.is_empty() {
        return;
    }
    let total_ns: u64 = snap.profiles.iter().map(|p| p.total_ns).sum();
    let mut by_time: Vec<&crate::trace::ProfileRec> = snap.profiles.iter().collect();
    by_time.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(&b.site)));
    out.push_str(&format!(
        "instruction-site profile ({} sites, {} total)\n",
        snap.profiles.len(),
        fmt_ns(total_ns)
    ));
    out.push_str(&format!(
        "  {:<20} {:>4}  {:<6} {:>9} {:>10} {:>7} {:>9}  {}\n",
        "unit", "site", "op", "count", "time", "time%", "amp", "source"
    ));
    for p in by_time.iter().take(16) {
        let share = if total_ns > 0 { p.total_ns as f64 / total_ns as f64 * 100.0 } else { 0.0 };
        let amp = p.mean_amp_log2().map_or("-".to_string(), |a| format!("2^{a:+.1}"));
        let src = if p.line > 0 { format!("line {}:{}", p.line, p.col) } else { "?".to_string() };
        out.push_str(&format!(
            "  {:<20} {:>4}  {:<6} {:>9} {:>10} {:>6.1}% {:>9}  {}\n",
            p.unit,
            p.site,
            p.op,
            p.count,
            fmt_ns(p.total_ns),
            share,
            amp,
            src
        ));
    }
    if by_time.len() > 16 {
        out.push_str(&format!("  ... {} more sites\n", by_time.len() - 16));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRec;

    #[test]
    fn report_covers_all_sections() {
        let snap = Snapshot {
            spans: vec![
                SpanRec {
                    name: "compile.lower".into(),
                    thread: 0,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 1000,
                },
                SpanRec {
                    name: "pass.cse".into(),
                    thread: 0,
                    depth: 1,
                    start_ns: 100,
                    dur_ns: 400,
                },
                SpanRec {
                    name: "pass.cse".into(),
                    thread: 0,
                    depth: 1,
                    start_ns: 600,
                    dur_ns: 200,
                },
            ],
            counters: vec![
                ("simd.add.lanes_patched".into(), 8),
                ("simd.add.packed_calls".into(), 1000),
                ("simd.mul.lanes_patched".into(), 2),
                ("simd.mul.packed_calls".into(), 100),
                ("simd.dd_add.packed_calls".into(), 50),
                ("simd.dd_mul.lanes_patched".into(), 7),
                ("simd.dd_mul.packed_calls".into(), 10),
                ("vm.peephole.dedup".into(), 4),
                ("vm.peephole.neg_fold".into(), 2),
                ("vm.peephole.dce".into(), 5),
            ],
            hists: vec![HistRec {
                name: "width.batch.dot".into(),
                count: 100,
                buckets: vec![(0, 10), (10, 80), (63, 10)],
            }],
            profiles: vec![crate::trace::ProfileRec {
                unit: "henon_map".into(),
                site: 3,
                line: 7,
                col: 14,
                op: "mul".into(),
                count: 640,
                total_ns: 5200,
                in_width_sum: 1.2e-13,
                out_width_sum: 3.4e-13,
                amp: vec![(33, 640)],
            }],
        };
        let r = render_report(&snap);
        assert!(r.contains("pass.cse"), "{r}");
        assert!(r.contains("compile.lower"), "{r}");
        // 8 / 4000 lanes = 0.2%.
        assert!(r.contains("(0.2000%)"), "{r}");
        // 2 / 400 lanes = 0.5%; dd_add shows up with zero patched lanes.
        assert!(r.contains("(0.5000%)"), "{r}");
        assert!(r.contains("dd_add") && r.contains("(0.0000%)"), "{r}");
        // The packed double-double mul: 7 / 40 lanes = 17.5%.
        assert!(r.contains("dd_mul"), "{r}");
        assert!(r.contains("(17.5000%)"), "{r}");
        assert!(r.contains("exact 10.0%"), "{r}");
        assert!(r.contains("median rel width 2^-52"), "{r}");
        assert!(r.contains("unbounded 10.00%"), "{r}");
        // Per-rule peephole section (11 total across the three rules).
        assert!(r.contains("peephole rewrites (11 total)"), "{r}");
        assert!(r.contains("neg_fold"), "{r}");
        assert!(r.contains("dead instructions removed"), "{r}");
        // Instruction-site profile section with source attribution.
        assert!(r.contains("instruction-site profile (1 sites"), "{r}");
        assert!(r.contains("henon_map"), "{r}");
        assert!(r.contains("line 7:14"), "{r}");
        assert!(r.contains("2^+1.0"), "{r}");
    }

    #[test]
    fn session_section_derives_the_hit_rate() {
        let snap = Snapshot {
            counters: vec![
                ("session.cache.evictions".into(), 1),
                ("session.cache.hits".into(), 3),
                ("session.cache.misses".into(), 1),
                ("session.queue.depth_max".into(), 5),
            ],
            ..Default::default()
        };
        let r = render_report(&snap);
        assert!(r.contains("session\n"), "{r}");
        assert!(r.contains("3 hits / 4 lookups  (75.0%)  1 evicted"), "{r}");
        assert!(r.contains("queue depth    5 max"), "{r}");
        // Absent counters: no session section.
        let r2 = render_report(&Snapshot::default());
        assert!(!r2.contains("session\n"), "{r2}");
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let r = render_report(&Snapshot::default());
        assert!(r.contains("trace is empty"), "{r}");
    }

    #[test]
    fn span_means_divide_by_count() {
        let snap = Snapshot {
            spans: vec![
                SpanRec { name: "x".into(), thread: 0, depth: 0, start_ns: 0, dur_ns: 100 },
                SpanRec { name: "x".into(), thread: 0, depth: 0, start_ns: 200, dur_ns: 300 },
            ],
            ..Default::default()
        };
        let r = render_report(&snap);
        assert!(r.contains("200ns"), "mean should be 200ns: {r}");
    }
}
