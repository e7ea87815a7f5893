//! Per-instruction-site width-provenance profiles.
//!
//! The profiler answers "*why* is my interval this wide?": for every
//! bytecode instruction *site* it records how often the site executed,
//! how long it took, the relative widths flowing in and out, and a
//! **width-amplification** statistic — the log2 ratio of the output's
//! relative width to the widest input's. Amplification reuses the
//! histogram idea of [`crate::WidthHist`]: samples land in 64
//! power-of-two buckets centered on "no amplification"
//! ([`AMP_ZERO`]), so bucket 33 means "this operation doubled the
//! relative width", bucket 31 means it halved it, and the top bucket
//! collects unbounded blow-ups (a wide output from point inputs, or a
//! NaN/infinite enclosure).
//!
//! Recording is two-phase so the executor hot loop never takes a lock:
//! a [`UnitProfiler`] accumulates rows locally (plain `u64`/`f64`
//! fields, one row per site) and hands them back once, when
//! [`UnitProfiler::finish`] is called. A profiler is live whenever the
//! `enabled` feature is compiled in, without the process-wide
//! [`crate::recording`] flag: its rows belong to the caller, and reach
//! the global profile registry (and so a trace) only while recording is
//! on. With the feature off the profiler is a zero-sized type whose
//! methods are empty `#[inline(always)]` functions and whose
//! constructor reports inactive, so guarded call sites fold away.

/// Number of amplification buckets (as many as a [`crate::WidthHist`] has).
pub const AMP_BUCKETS: usize = 64;

/// The bucket meaning "relative width unchanged" (amplification 2^0).
/// Buckets `AMP_ZERO + k` hold samples whose output relative width is
/// `~2^k` times the widest input's; bucket 0 and bucket 63 absorb
/// everything below 2^-32 and above 2^31 (or undefined ratios).
pub const AMP_ZERO: usize = 32;

/// `log2` amplification represented by bucket `i` (valid for the
/// interior buckets `1..=62`).
pub fn amp_bucket_log2(i: usize) -> i32 {
    i as i32 - AMP_ZERO as i32
}

/// Relative width of `[lo, hi]`: `width / max(|lo|, |hi|)`, or the raw
/// width for intervals containing only zero. NaN endpoints yield NaN.
/// This is the same statistic [`crate::WidthHist::record`] buckets.
pub fn rel_width(lo: f64, hi: f64) -> f64 {
    if lo.is_nan() || hi.is_nan() {
        return f64::NAN;
    }
    let width = hi - lo;
    let mag = lo.abs().max(hi.abs());
    if mag > 0.0 {
        width / mag
    } else {
        width
    }
}

/// Buckets one width-amplification sample: `log2(out_rel / max_in_rel)`
/// shifted so [`AMP_ZERO`] means "unchanged", clamped to the interior
/// buckets. Special cases:
///
/// * both widths zero (exact in, exact out) — [`AMP_ZERO`] (no blow-up);
/// * exact inputs but a nonzero output width — top bucket (the site
///   *introduced* width, an unbounded amplification);
/// * zero output from nonzero inputs — bucket 0 (collapsed to exact);
/// * NaN or infinite ratio — top bucket.
pub fn amp_bucket(max_in_rel: f64, out_rel: f64) -> usize {
    if max_in_rel.is_nan() || out_rel.is_nan() || out_rel.is_infinite() {
        return AMP_BUCKETS - 1;
    }
    if max_in_rel == 0.0 {
        return if out_rel == 0.0 { AMP_ZERO } else { AMP_BUCKETS - 1 };
    }
    if out_rel == 0.0 {
        return 0;
    }
    let ratio = out_rel / max_in_rel;
    if ratio.is_nan() || ratio.is_infinite() {
        return AMP_BUCKETS - 1;
    }
    // floor(log2(ratio)) from the biased exponent (cf. WidthHist).
    let e = ((ratio.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (e + AMP_ZERO as i32).clamp(1, AMP_BUCKETS as i32 - 2) as usize
}

#[cfg(feature = "enabled")]
mod imp {
    use super::AMP_BUCKETS;
    use crate::trace::ProfileRec;
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// One site's locally-accumulated profile row.
    #[derive(Clone)]
    struct SiteRow {
        line: u32,
        col: u32,
        op: String,
        count: u64,
        total_ns: u64,
        in_width_sum: f64,
        out_width_sum: f64,
        amp: Box<[u64; AMP_BUCKETS]>,
    }

    impl SiteRow {
        fn new() -> SiteRow {
            SiteRow {
                line: 0,
                col: 0,
                op: String::new(),
                count: 0,
                total_ns: 0,
                in_width_sum: 0.0,
                out_width_sum: 0.0,
                amp: Box::new([0; AMP_BUCKETS]),
            }
        }

        fn touched(&self) -> bool {
            self.count > 0 || self.total_ns > 0
        }

        fn to_rec(&self, unit: &str, site: u32) -> ProfileRec {
            ProfileRec {
                unit: unit.to_string(),
                site,
                line: self.line,
                col: self.col,
                op: self.op.clone(),
                count: self.count,
                total_ns: self.total_ns,
                in_width_sum: self.in_width_sum,
                out_width_sum: self.out_width_sum,
                amp: self
                    .amp
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v > 0)
                    .map(|(i, v)| (i as i32, *v))
                    .collect(),
            }
        }
    }

    struct GlobalRow {
        unit: String,
        site: u32,
        row: SiteRow,
    }

    fn registry() -> &'static Mutex<Vec<GlobalRow>> {
        static REGISTRY: OnceLock<Mutex<Vec<GlobalRow>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// A per-execution profile accumulator for one *unit* (a compiled
    /// program). Lock-free while recording; hands its rows back on
    /// [`UnitProfiler::finish`].
    pub struct UnitProfiler {
        unit: String,
        rows: Vec<SiteRow>,
        t0: Instant,
    }

    impl UnitProfiler {
        /// Starts profiling `n_sites` sites of `unit`. Live in this
        /// build, whether or not [`crate::recording`] is on.
        pub fn start(unit: &str, n_sites: usize) -> UnitProfiler {
            UnitProfiler {
                unit: unit.to_string(),
                rows: vec![SiteRow::new(); n_sites],
                t0: Instant::now(),
            }
        }

        /// Whether this profiler is live: always in this build.
        #[inline]
        pub fn active(&self) -> bool {
            true
        }

        /// Monotonic nanoseconds since the profiler started — the
        /// timestamp source for [`UnitProfiler::add_time`].
        #[inline]
        pub fn now_ns(&self) -> u64 {
            self.t0.elapsed().as_nanos() as u64
        }

        /// Attaches source metadata to a site (idempotent; last wins).
        pub fn set_meta(&mut self, site: usize, line: u32, col: u32, op: &str) {
            if let Some(r) = self.rows.get_mut(site) {
                r.line = line;
                r.col = col;
                r.op = op.to_string();
            }
        }

        /// Adds wall-clock nanoseconds to a site.
        #[inline]
        pub fn add_time(&mut self, site: usize, dur_ns: u64) {
            if let Some(r) = self.rows.get_mut(site) {
                r.total_ns += dur_ns;
            }
        }

        /// Adds one width sample to a site: the widest input's relative
        /// width, the output's, and the derived amplification bucket.
        #[inline]
        pub fn add_sample(&mut self, site: usize, max_in_rel: f64, out_rel: f64) {
            if let Some(r) = self.rows.get_mut(site) {
                r.count += 1;
                if max_in_rel.is_finite() {
                    r.in_width_sum += max_in_rel;
                }
                if out_rel.is_finite() {
                    r.out_width_sum += out_rel;
                }
                r.amp[super::amp_bucket(max_in_rel, out_rel)] += 1;
            }
        }

        /// The rows this profiler recorded, by site (rows never touched
        /// are skipped). While [`crate::recording`] is on they are also
        /// merged into the global profile registry, for the trace.
        pub fn finish(self) -> Vec<ProfileRec> {
            let recs: Vec<ProfileRec> = (0..)
                .zip(&self.rows)
                .filter(|(_, row)| row.touched())
                .map(|(site, row)| row.to_rec(&self.unit, site))
                .collect();
            if !crate::recording() {
                return recs;
            }
            let mut reg = registry().lock().expect("telemetry profile registry poisoned");
            for (site, row) in (0..).zip(self.rows) {
                if !row.touched() {
                    continue;
                }
                match reg.iter_mut().find(|g| g.unit == self.unit && g.site == site) {
                    Some(g) => {
                        g.row.count += row.count;
                        g.row.total_ns += row.total_ns;
                        g.row.in_width_sum += row.in_width_sum;
                        g.row.out_width_sum += row.out_width_sum;
                        for (a, b) in g.row.amp.iter_mut().zip(row.amp.iter()) {
                            *a += b;
                        }
                        if g.row.op.is_empty() {
                            g.row.line = row.line;
                            g.row.col = row.col;
                            g.row.op = row.op;
                        }
                    }
                    None => reg.push(GlobalRow { unit: self.unit.clone(), site, row }),
                }
            }
            recs
        }
    }

    /// Every recorded profile row, sorted by unit then site index.
    pub fn profiles_snapshot() -> Vec<ProfileRec> {
        let reg = registry().lock().expect("telemetry profile registry poisoned");
        let mut out: Vec<ProfileRec> = reg.iter().map(|g| g.row.to_rec(&g.unit, g.site)).collect();
        out.sort_unstable_by(|a, b| a.unit.cmp(&b.unit).then(a.site.cmp(&b.site)));
        out
    }

    pub(crate) fn reset_profiles() {
        registry().lock().expect("telemetry profile registry poisoned").clear();
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use crate::trace::ProfileRec;

    /// A per-execution profile accumulator — disabled build: zero-sized,
    /// always inactive, every method an empty inline function.
    pub struct UnitProfiler {
        _private: (),
    }

    impl UnitProfiler {
        /// Starts profiling. Always inactive in this build.
        #[inline(always)]
        pub fn start(_unit: &str, _n_sites: usize) -> UnitProfiler {
            UnitProfiler { _private: () }
        }

        /// Whether this profiler is live — constant `false` in this
        /// build, so guarded call sites are dead-code-eliminated.
        #[inline(always)]
        pub fn active(&self) -> bool {
            false
        }

        /// Timestamp source (always 0 in this build).
        #[inline(always)]
        pub fn now_ns(&self) -> u64 {
            0
        }

        /// Attaches source metadata to a site. No-op in this build.
        #[inline(always)]
        pub fn set_meta(&mut self, _site: usize, _line: u32, _col: u32, _op: &str) {}

        /// Adds wall-clock nanoseconds to a site. No-op in this build.
        #[inline(always)]
        pub fn add_time(&mut self, _site: usize, _dur_ns: u64) {}

        /// Adds one width sample to a site. No-op in this build.
        #[inline(always)]
        pub fn add_sample(&mut self, _site: usize, _max_in_rel: f64, _out_rel: f64) {}

        /// The recorded rows — none in this build.
        #[inline(always)]
        pub fn finish(self) -> Vec<ProfileRec> {
            Vec::new()
        }
    }

    /// Every recorded profile row — empty in this build.
    pub fn profiles_snapshot() -> Vec<ProfileRec> {
        Vec::new()
    }

    pub(crate) fn reset_profiles() {}
}

pub(crate) use imp::reset_profiles;
pub use imp::{profiles_snapshot, UnitProfiler};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amp_buckets_are_centered_and_clamped() {
        // Unchanged width.
        assert_eq!(amp_bucket(1e-10, 1e-10), AMP_ZERO);
        // Doubled / halved.
        assert_eq!(amp_bucket(1e-10, 2e-10), AMP_ZERO + 1);
        assert_eq!(amp_bucket(2e-10, 1e-10), AMP_ZERO - 1);
        // Exact in and out: neutral. Width introduced from points: top.
        assert_eq!(amp_bucket(0.0, 0.0), AMP_ZERO);
        assert_eq!(amp_bucket(0.0, 1e-16), AMP_BUCKETS - 1);
        // Collapsed to exact: bottom. NaN: top.
        assert_eq!(amp_bucket(1e-10, 0.0), 0);
        assert_eq!(amp_bucket(f64::NAN, 1e-10), AMP_BUCKETS - 1);
        assert_eq!(amp_bucket(1e-300, f64::INFINITY), AMP_BUCKETS - 1);
        // Extreme ratios clamp into the interior.
        assert_eq!(amp_bucket(1e-300, 1.0), AMP_BUCKETS - 2);
        assert_eq!(amp_bucket(1.0, 1e-300), 1);
        assert_eq!(amp_bucket_log2(AMP_ZERO + 3), 3);
    }

    #[test]
    fn rel_width_matches_hist_convention() {
        assert_eq!(rel_width(1.0, 1.0), 0.0);
        assert_eq!(rel_width(2.0, 4.0), 0.5);
        assert_eq!(rel_width(0.0, 0.0), 0.0);
        assert!(rel_width(f64::NAN, 1.0).is_nan());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn profiler_is_live_without_recording_flag() {
        // Never turn recording on here: other tests share the registry.
        let mut p = UnitProfiler::start("test.unit.live", 4);
        assert!(p.active());
        p.set_meta(1, 3, 7, "mul");
        p.add_sample(1, 1e-10, 2e-10);
        p.add_time(1, 100);
        let was_recording = crate::recording();
        let rows = p.finish();
        assert_eq!(rows.len(), 1, "untouched sites are skipped");
        let r = &rows[0];
        assert_eq!((r.unit.as_str(), r.site, r.line, r.col), ("test.unit.live", 1, 3, 7));
        assert_eq!((r.op.as_str(), r.count, r.total_ns), ("mul", 1, 100));
        assert_eq!(r.amp, [(AMP_ZERO as i32 + 1, 1)]);
        if !was_recording && !crate::recording() {
            assert!(!profiles_snapshot().iter().any(|r| r.unit == "test.unit.live"));
        }
    }
}
