//! Request-line generation: the four workloads, their C sources and the
//! seeded streams of `serve` request lines.
//!
//! Line `i` of a workload is a pure function of `(seed, i)`, so a run
//! can draw as many lines as its time allows and two runs at one seed
//! send byte-identical lines. The generator has its own SplitMix64 so
//! the inputs do not change when a dependency's random stream does.

use igen_telemetry::json;

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for element `i` of stream `tag` under `seed`.
    pub fn stream(seed: u64, tag: u64, i: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ i.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `base` scaled by a uniform factor in `[1 - rel, 1 + rel)`.
    pub fn perturb(&mut self, base: f64, rel: f64) -> f64 {
        base * (1.0 + rel * (2.0 * self.unit() - 1.0))
    }
}

/// FNV-1a over 64-bit words (the tail bytes zero-padded): the hash the
/// ledger keys lines and responses by. Word-wise so hashing a 700 KB
/// response costs tens of microseconds, not a millisecond.
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail) ^ bytes.len() as u64).wrapping_mul(0x100_0000_01b3);
    h ^ (h >> 32)
}

/// The four workloads, each built to load one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits over a primed 12-entry catalogue: session overhead.
    WarmMixed,
    /// A distinct source per request: the compile pipeline.
    ColdCompile,
    /// Large warm batches on two threads: the VM and batch engine.
    BulkEval,
    /// A Zipf mix over a catalogue larger than the cache, with eight
    /// requests outstanding: queueing, scheduling and eviction.
    OpenMix,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::WarmMixed, Workload::ColdCompile, Workload::BulkEval, Workload::OpenMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMixed => "warm-mixed",
            Workload::ColdCompile => "cold-compile",
            Workload::BulkEval => "bulk-eval",
            Workload::OpenMix => "open-mix",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Lines the traced run replays: the head of the request stream.
    pub fn replay_lines(self) -> u64 {
        match self {
            Workload::BulkEval => 20,
            _ => 200,
        }
    }
}

/// `examples/henon.c`.
const HENON: &str = "double henon_map(double x, double y, int iterations) {
    double a = 1.05;
    double b = 0.3;
    for (int i = 0; i < iterations; i++) {
        double xi = x;
        double yi = y;
        x = 1 - a * xi * xi + yi;
        y = b * xi;
    }
    return x;
}
";

/// `examples/horner.c`.
const HORNER: &str = "double poly(double x) {
    return 1.0 + 0.5 * (x * x) + 0.25 * (x * x) * (x * x);
}
";

/// The Pilat linear filter for batches of scalar runs: one noise
/// interval per item, held for `n` steps, one output.
const PILAT_BULK: &str = "double pilat(double s0, double s1, double e, int n) {
    for (int i = 0; i < n; i++) {
        double r = 1.5 * s0 - 0.7 * s1 + 0.8 * e;
        s1 = s0;
        s0 = r;
    }
    return s0;
}
";

/// Hénon with the iteration count and both constants in the source.
fn henon_src(a: f64, b: f64, iterations: u64) -> String {
    format!(
        "double henon_map(double x, double y) {{
    double a = {a:?};
    double b = {b:?};
    for (int i = 0; i < {iterations}; i++) {{
        double xi = x;
        double yi = y;
        x = 1 - a * xi * xi + yi;
        y = b * xi;
    }}
    return x;
}}
"
    )
}

/// Horner's polynomial with its three coefficients in the source.
fn horner_src(c: [f64; 3]) -> String {
    format!(
        "double poly(double x) {{
    return {:?} + {:?} * (x * x) + {:?} * (x * x) * (x * x);
}}
",
        c[0], c[1], c[2]
    )
}

/// Pilat's two-state linear filter (`linear_filter.c`, and
/// `example_article.c` at a smaller noise bound) over an `e[steps]`
/// noise array: the `float_interval(-k, k)` draw becomes `k/2 * e[i]`
/// with `e[i]` in [-2, 2], and each step writes its state back into
/// `e[i]`, so the response carries the trajectory.
fn filter_src(a1: f64, a2: f64, noise: f64, steps: u64) -> String {
    format!(
        "double pilat_filter(double* e) {{
    double s0 = 0.0;
    double s1 = 0.0;
    for (int i = 0; i < {steps}; i++) {{
        double r = {a1:?} * s0 - {a2:?} * s1 + {k:?} * e[i];
        s1 = s0;
        s0 = r;
        e[i] = r;
    }}
    return s0;
}}
",
        k = noise / 2.0
    )
}

/// Magnitudes of Pilat's three-state Gaussian filter (`gaussian.c`);
/// the signs are fixed in [`gauss_src`].
const GAUSS: [f64; 12] =
    [0.9379, 0.0381, 0.0414, 0.0237, 0.0404, 0.968, 0.0179, 0.0143, 0.0142, 0.0197, 0.9823, 0.0077];

/// Pilat's three-state Gaussian filter over an `e[steps]` noise array
/// (`in = float_interval(-1, 1)` becomes `0.5 * e[i]`).
fn gauss_src(c: [f64; 12], steps: u64) -> String {
    format!(
        "double pilat_gauss(double* e) {{
    double x0 = 0.0;
    double x1 = 0.0;
    double x2 = 0.0;
    for (int i = 0; i < {steps}; i++) {{
        double u = 0.5 * e[i];
        double t0 = {:?} * x0 - {:?} * x1 - {:?} * x2 + {:?} * u;
        double t1 = {:?} * x1 - {:?} * x0 - {:?} * x2 + {:?} * u;
        double t2 = {:?} * x0 - {:?} * x1 + {:?} * x2 + {:?} * u;
        x0 = t0;
        x1 = t1;
        x2 = t2;
        e[i] = x0;
    }}
    return x0 + x1 + x2;
}}
",
        c[0], c[1], c[2], c[3], c[5], c[4], c[6], c[7], c[8], c[9], c[10], c[11]
    )
}

/// One program a request can name: every field of the service's
/// compile-cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The C source.
    pub source: String,
    /// `"f64"` or `"dd"`.
    pub precision: &'static str,
    /// Optimization level, 0–2.
    pub opt: u8,
    /// Integer-parameter fixings.
    pub args: Vec<(&'static str, i64)>,
    /// Pointer-parameter lengths.
    pub lens: Vec<(&'static str, u64)>,
}

impl Entry {
    fn new(source: impl Into<String>) -> Entry {
        Entry {
            source: source.into(),
            precision: "f64",
            opt: 2,
            args: Vec::new(),
            lens: Vec::new(),
        }
    }

    fn dd(mut self) -> Entry {
        self.precision = "dd";
        self
    }

    fn opt(mut self, opt: u8) -> Entry {
        self.opt = opt;
        self
    }

    fn arg(mut self, name: &'static str, v: i64) -> Entry {
        self.args.push((name, v));
        self
    }

    fn len(mut self, name: &'static str, n: u64) -> Entry {
        self.lens.push((name, n));
        self
    }

    /// The key fields as JSON object members.
    fn key_json(&self) -> String {
        let obj = |kv: Vec<String>| format!("{{{}}}", kv.join(","));
        let mut s = format!(
            "\"source\":{},\"opt_level\":{},\"precision\":\"{}\"",
            json::escape(&self.source),
            self.opt,
            self.precision
        );
        if !self.args.is_empty() {
            let kv = self.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            s.push_str(&format!(",\"args\":{}", obj(kv)));
        }
        if !self.lens.is_empty() {
            let kv = self.lens.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            s.push_str(&format!(",\"lens\":{}", obj(kv)));
        }
        s
    }

    /// The `compile` request that primes the cache with this program.
    pub fn compile_line(&self) -> String {
        format!("{{\"kind\":\"compile\",{}}}", self.key_json())
    }

    /// A `run` request over `batch` seeded items.
    pub fn run_line(&self, batch: u64, seed: u64, threads: u64) -> String {
        let threads = if threads > 1 { format!(",\"threads\":{threads}") } else { String::new() };
        format!(
            "{{\"kind\":\"run\",{},\"batch\":{batch},\"seed\":{seed}{threads}}}",
            self.key_json()
        )
    }
}

/// Stream tags: one independent random stream per use.
const TAG_LINES: u64 = 1;
const TAG_FRESH: u64 = 2;
const TAG_CATALOGUE: u64 = 3;
const TAG_CYCLE: u64 = 4;

/// Batch sizes of `warm-mixed`: 1 runs only the scalar tail, 64 fills
/// whole tiles.
const WARM_BATCHES: [u64; 4] = [1, 4, 16, 64];
/// `bulk-eval` batch sizes per precision. A dd item costs 5–25× an f64
/// one, and 1024 keeps the slowest dd request near 60 ms, so a
/// 4-second round still holds ten requests beyond its p90.
const BULK_F64: u64 = 16_384;
const BULK_DD: u64 = 1_024;
/// `open-mix` catalogue size: half again the 64-entry default cache.
const OPEN_CATALOGUE: u64 = 96;
/// Zipf exponent of `open-mix` catalogue popularity.
const OPEN_ZIPF: f64 = 1.1;
/// Share of `open-mix` requests that carry a fresh source.
const OPEN_FRESH: f64 = 0.10;
/// Loop-bound scale of `cold-compile` programs (Hénon 5–100 iterations,
/// filters 10–80 steps) and of the smaller `open-mix` ones, whose
/// costliest request stays within about 25 ms.
const COLD_MAX_ITER: u64 = 100;
const OPEN_MAX_ITER: u64 = 60;

/// A workload's request stream under one seed.
pub struct Gen {
    /// Which workload.
    pub workload: Workload,
    seed: u64,
    /// Programs the run requests draw from (empty for `cold-compile`,
    /// whose every request is fresh).
    pub catalogue: Vec<Entry>,
    /// Programs compiled before timing starts.
    pub prime: Vec<Entry>,
    /// The closed loops' traffic: `(catalogue index, batch)` pairs sent
    /// once each, in a seeded order, per cycle of `cycle.len()` lines.
    /// Exact proportions keep every round's mix the same; the odd
    /// length keeps the median and the tail inside a cluster of like
    /// requests instead of on the edge between two.
    cycle: Vec<(usize, u64)>,
    /// Cumulative Zipf weights over `catalogue` (`open-mix` only).
    zipf_cdf: Vec<f64>,
}

impl Gen {
    /// The stream for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Gen {
        let mut cycle = Vec::new();
        let mut zipf_cdf = Vec::new();
        let (catalogue, prime) = match workload {
            Workload::WarmMixed => {
                let henon = |n| Entry::new(HENON).arg("iterations", n);
                let horner = Entry::new(HORNER);
                let lf = Entry::new(filter_src(1.5, 0.7, 1.6, 50)).len("e", 50);
                let article = Entry::new(filter_src(1.5, 0.7, 0.1, 50)).len("e", 50);
                let cat = vec![
                    henon(10),
                    henon(20),
                    henon(40),
                    horner.clone(),
                    lf.clone(),
                    article,
                    Entry::new(gauss_src(GAUSS, 50)).len("e", 50),
                    henon(20).dd(),
                    horner.dd(),
                    lf.clone().dd(),
                    henon(20).opt(0),
                    lf.opt(1),
                ];
                // Every program at every batch size, plus one more
                // batch-1 Horner to make the cycle odd (49).
                for b in WARM_BATCHES {
                    cycle.extend((0..cat.len()).map(|e| (e, b)));
                }
                cycle.push((3, 1));
                (cat.clone(), cat)
            }
            Workload::ColdCompile => {
                // Warm the pipeline's code paths on each template once;
                // no timed request hits these entries.
                let prime = vec![
                    Entry::new(henon_src(1.05, 0.3, 20)),
                    Entry::new(horner_src([1.0, 0.5, 0.25])),
                    Entry::new(filter_src(1.5, 0.7, 1.6, 50)).len("e", 50),
                    Entry::new(gauss_src(GAUSS, 50)).len("e", 50),
                ];
                (Vec::new(), prime)
            }
            Workload::BulkEval => {
                let kernels = [
                    Entry::new(HENON).arg("iterations", 20),
                    Entry::new(HORNER),
                    Entry::new(PILAT_BULK).arg("n", 50),
                ];
                let mut cat: Vec<Entry> = kernels.to_vec();
                cat.extend(kernels.into_iter().map(Entry::dd));
                // Each program once, plus the f64 Hénon again (odd: 7).
                cycle = cat
                    .iter()
                    .enumerate()
                    .chain(std::iter::once((0, &cat[0])))
                    .map(|(i, e)| (i, if e.precision == "dd" { BULK_DD } else { BULK_F64 }))
                    .collect();
                (cat.clone(), cat)
            }
            Workload::OpenMix => {
                // The catalogue is the same at every seed. A few programs
                // carry most of a Zipf mix, so a seeded catalogue would make
                // the mix's cost depend on the seed; the seed picks the
                // requests, batches, inputs and fresh sources instead.
                let cat: Vec<Entry> = (0..OPEN_CATALOGUE)
                    .map(|j| {
                        let mut rng = Rng::stream(0, TAG_CATALOGUE, j);
                        let mut e = template(&mut rng, j % 4, OPEN_MAX_ITER);
                        // No dd Gaussian filters: at batch 64 one alone
                        // would take longer than 25 ms.
                        if j % 4 != 3 && rng.unit() < 0.25 {
                            e = e.dd();
                        }
                        e
                    })
                    .collect();
                let mut acc = 0.0;
                zipf_cdf = (1..=cat.len())
                    .map(|rank| {
                        acc += (rank as f64).powf(-OPEN_ZIPF);
                        acc
                    })
                    .collect();
                // Least popular first, so the 64 most popular end up
                // cached when priming finishes.
                let prime = cat.iter().rev().cloned().collect();
                (cat, prime)
            }
        };
        Gen { workload, seed, catalogue, prime, cycle, zipf_cdf }
    }

    /// Request line `i` of the stream.
    pub fn line(&self, i: u64) -> String {
        let mut rng = Rng::stream(self.seed, TAG_LINES, i);
        match self.workload {
            Workload::WarmMixed | Workload::BulkEval => {
                let n = self.cycle.len() as u64;
                let order = shuffled(n as usize, &mut Rng::stream(self.seed, TAG_CYCLE, i / n));
                let (e, batch) = self.cycle[order[(i % n) as usize]];
                let threads = if self.workload == Workload::BulkEval { 2 } else { 1 };
                self.catalogue[e].run_line(batch, rng.int(1, 8), threads)
            }
            Workload::ColdCompile => {
                let order = shuffled(4, &mut Rng::stream(self.seed, TAG_CYCLE, i / 4));
                let t = order[(i % 4) as usize] as u64;
                fresh(&mut rng, t, COLD_MAX_ITER).run_line(4, rng.int(1, 8), 1)
            }
            Workload::OpenMix => {
                if rng.unit() < OPEN_FRESH {
                    let mut src = Rng::stream(self.seed, TAG_FRESH, i);
                    let t = src.int(0, 3);
                    return fresh(&mut src, t, OPEN_MAX_ITER).run_line(4, rng.int(1, 4), 1);
                }
                let total = self.zipf_cdf.last().copied().unwrap_or(0.0);
                let u = rng.unit() * total;
                let j = self.zipf_cdf.partition_point(|&c| c <= u).min(self.catalogue.len() - 1);
                self.catalogue[j].run_line(rng.int(1, 64), rng.int(1, 4), 1)
            }
        }
    }

    /// Hash of the first `n` request lines, printed so two runs can be
    /// seen to have sent the same traffic.
    pub fn lines_hash(&self, n: u64) -> u64 {
        let mut all = Vec::new();
        for i in 0..n {
            all.extend_from_slice(self.line(i).as_bytes());
            all.push(b'\n');
        }
        hash(&all)
    }
}

/// `0..n` in a seeded order.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        v.swap(k, rng.int(0, k as u64) as usize);
    }
    v
}

/// A fresh program from template `t`: seeded coefficients and loop
/// bound, opt levels 0/1/2 weighted 1:1:4 and a quarter in
/// double-double.
fn fresh(rng: &mut Rng, t: u64, max_iter: u64) -> Entry {
    let e = template(rng, t, max_iter).opt([0, 1, 2, 2, 2, 2][rng.int(0, 5) as usize]);
    if rng.unit() < 0.25 {
        e.dd()
    } else {
        e
    }
}

/// Template `t` (Hénon, Horner, linear filter, Gaussian filter) with
/// coefficients perturbed by up to 2% and a loop bound of 5..=`max_iter`
/// Hénon iterations or 10..=`max_iter * 4 / 5` filter steps.
fn template(rng: &mut Rng, t: u64, max_iter: u64) -> Entry {
    match t {
        0 => {
            let (a, b) = (rng.perturb(1.05, 0.02), rng.perturb(0.3, 0.02));
            Entry::new(henon_src(a, b, rng.int(5, max_iter)))
        }
        1 => {
            let c = [rng.perturb(1.0, 0.02), rng.perturb(0.5, 0.02), rng.perturb(0.25, 0.02)];
            Entry::new(horner_src(c))
        }
        2 => {
            let steps = rng.int(10, max_iter * 4 / 5);
            let noise = if rng.unit() < 0.5 { 1.6 } else { 0.1 };
            let (a1, a2) = (rng.perturb(1.5, 0.02), rng.perturb(0.7, 0.02));
            Entry::new(filter_src(a1, a2, noise, steps)).len("e", steps)
        }
        _ => {
            let steps = rng.int(10, max_iter * 4 / 5);
            let c = GAUSS.map(|g| rng.perturb(g, 0.02));
            Entry::new(gauss_src(c, steps)).len("e", steps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_and_another_seed_differs() {
        for w in Workload::ALL {
            let a = Gen::new(w, 1);
            let b = Gen::new(w, 1);
            let c = Gen::new(w, 2);
            for i in [0u64, 1, 17, 999] {
                assert_eq!(a.line(i), b.line(i), "{} line {i}", w.name());
            }
            assert_eq!(a.lines_hash(64), b.lines_hash(64), "{}", w.name());
            assert_ne!(a.lines_hash(64), c.lines_hash(64), "{}", w.name());
        }
    }

    #[test]
    fn cold_lines_are_distinct_sources() {
        let g = Gen::new(Workload::ColdCompile, 7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            assert!(seen.insert(hash(g.line(i).as_bytes())), "line {i} repeats");
        }
    }

    #[test]
    fn run_lines_parse_as_requests() {
        for w in Workload::ALL {
            let g = Gen::new(w, 3);
            for i in 0..50 {
                let line = g.line(i);
                let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("run"));
                assert!(v.get("source").and_then(|s| s.as_str()).is_some());
            }
            for e in &g.prime {
                json::parse(&e.compile_line()).expect("compile line parses");
            }
        }
    }

    #[test]
    fn hash_sees_every_byte() {
        assert_ne!(hash(b"abcdefgh1"), hash(b"abcdefgh2"));
        assert_ne!(hash(b"abc"), hash(b"abc\0"));
        assert_eq!(hash(b"same"), hash(b"same"));
    }
}
