//! Telemetry under concurrency (satellite of the telemetry PR): the
//! runtime counters aggregated across `igen-batch` worker threads must
//! equal the single-thread totals for the same workload — the batch
//! engine partitions work, it must not change *what* runs — and the
//! spans emitted to JSON must nest well-formedly per thread.
//!
//! The whole file needs real counters, so it only exists with the
//! `telemetry` feature on (`cargo test -p igen-batch --features
//! telemetry`).
#![cfg(feature = "telemetry")]

use igen_batch::engine::par_map_indexed;
use igen_batch::{BatchConfig, BatchDdI, BatchF64I, BatchProgram};
use igen_interval::{DdIx4, F64Ix4, LaneOps, SweepOp, F64I};
use igen_kernels::workload;
use igen_round::simd::{self, Backend};
use igen_telemetry::{Snapshot, WidthHist};
use igen_vm::{DebugMap, Insn, OutputSlot, Precision, Program};
use proptest::prelude::*;

/// Counter/hist snapshots are process-global; the tests here reset and
/// re-read them, so they must not interleave.
static TEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn sample(seed: u64, len: usize) -> BatchF64I {
    let mut rng = workload::rng(seed);
    BatchF64I::from_intervals(&workload::intervals_1ulp(&workload::random_points(
        &mut rng, len, -2.0, 2.0,
    )))
}

/// Output widths of [`dot_lanes`].
static DOT_WIDTHS: WidthHist = WidthHist::new("width.test.dot_lanes");

/// `op` on one group through `L::sweep`, the hook the VM calls.
fn swept<L: LaneOps>(op: SweepOp, src: [L; 3]) -> L {
    let mut bank = [src[0], src[1], src[2], L::default()];
    L::sweep(op, &mut bank, 1, 3, [0, 1, 2]);
    bank[3]
}

/// Every backend the host supports.
fn backends() -> Vec<Backend> {
    [Backend::Portable, Backend::Avx2Fma]
        .into_iter()
        .filter(|&bk| bk <= simd::detected_backend())
        .collect()
}

/// Item-major length-`n` dot products, four items per `F64Ix4` register
/// group and a scalar tail, mapped over the engine's workers; every
/// result's width goes into [`DOT_WIDTHS`].
fn dot_lanes(cfg: &BatchConfig, n: usize, xs: &BatchF64I, ys: &BatchF64I) -> Vec<F64I> {
    let items = xs.len() / n;
    let groups = par_map_indexed(cfg, items.div_ceil(4), |g| {
        let first = 4 * g;
        let out: Vec<F64I> = if first + 4 <= items {
            let mut acc = F64Ix4::splat(F64I::ZERO);
            for j in 0..n {
                let (x, y) = (xs.load_x4(first * n + j, n), ys.load_x4(first * n + j, n));
                acc = swept(SweepOp::MulAdd, [x, y, acc]);
            }
            (0..4).map(|l| acc.lane(l)).collect()
        } else {
            (first..items)
                .map(|b| {
                    (0..n).fold(F64I::ZERO, |acc, j| acc + xs.get(b * n + j) * ys.get(b * n + j))
                })
                .collect()
        };
        for v in &out {
            DOT_WIDTHS.record(v.lo(), v.hi());
        }
        out
    });
    groups.into_iter().flatten().collect()
}

/// Runs `work` from a clean telemetry slate and returns the snapshot it
/// produced. The caller holds `TEL_LOCK`.
fn traced(work: impl FnOnce()) -> Snapshot {
    igen_telemetry::reset();
    igen_telemetry::set_recording(true);
    work();
    igen_telemetry::set_recording(false);
    let snap = igen_telemetry::snapshot();
    igen_telemetry::reset();
    snap
}

/// Counters whose value legitimately depends on the chunking itself
/// rather than on the work performed (one `batch.chunks` tick per
/// worker range).
fn partitioning_dependent(name: &str) -> bool {
    name == "batch.chunks"
}

fn workload_counters(snap: &Snapshot) -> Vec<(String, u64)> {
    snap.counters.iter().filter(|(n, _)| !partitioning_dependent(n)).cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same workload run at 1, 2 and 3 worker threads produces
    /// identical workload-counter totals (SIMD dispatches, guard
    /// patches, ulp bumps, ...) and identical width histograms, on every
    /// backend.
    #[test]
    fn counters_are_thread_count_invariant(
        batch in 4usize..32,
        n in 1usize..24,
        seed in 0u64..1024,
    ) {
        let _serial = TEL_LOCK.lock().unwrap();
        let xs = sample(seed, batch * n);
        let ys = sample(seed ^ 0x9e37_79b9, batch * n);
        // Lane groups for every op through the sweep hook, so the
        // packed kernels' patch-site counters are exercised too.
        let groups: Vec<F64Ix4> =
            (0..batch * n / 4).map(|g| xs.load_x4(g * 4, 1)).collect();
        // Double-double groups for the packed dd add/mul kernels
        // (nonzero low words, as in the paper's dd workload).
        let dds = BatchDdI::from_intervals(&workload::dd_intervals_1ulp(
            &mut workload::rng(seed ^ 0x5bd1_e995),
            batch * n,
            -2.0,
            2.0,
        ));
        let dd_groups: Vec<DdIx4> =
            (0..batch * n / 4).map(|g| dds.load_x4(g * 4, 1)).collect();
        let run = |bk: Backend, threads: usize| {
            let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
            traced(|| {
                simd::force_backend(Some(bk));
                igen_bench_sink(dot_lanes(&cfg, n, &xs, &ys));
                igen_bench_sink(par_map_indexed(&cfg, groups.len(), |g| {
                    let v = groups[g];
                    SweepOp::ALL.map(|op| swept(op, [v, groups[(g + 1) % groups.len()], v]))
                }));
                igen_bench_sink(par_map_indexed(&cfg, dd_groups.len(), |g| {
                    let v = dd_groups[g];
                    SweepOp::ALL.map(|op| swept(op, [v, dd_groups[(g + 1) % dd_groups.len()], v]))
                }));
                simd::force_backend(None);
            })
        };
        for bk in backends() {
            let base = run(bk, 1);
            prop_assert!(
                base.hists.iter().any(|h| h.count > 0),
                "the workload must record a width histogram: {:?}",
                base.hists
            );
            let base_counters = workload_counters(&base);
            let mut ops = vec!["div", "sqrt", "sqr", "abs"];
            if bk == Backend::Avx2Fma {
                ops.extend(["add", "mul", "dd_add", "dd_mul"]);
            }
            for op in ops {
                let name = format!("simd.{op}.packed_calls");
                prop_assert!(
                    base_counters.iter().any(|(n, v)| *n == name && *v > 0),
                    "the sweeps under {} must tick {}: {:?}", bk, name, base_counters
                );
            }
            for threads in [2usize, 3] {
                let multi = run(bk, threads);
                prop_assert_eq!(
                    &workload_counters(&multi),
                    &base_counters,
                    "counter totals diverged at {} threads under {}",
                    threads,
                    bk
                );
                prop_assert_eq!(&multi.hists, &base.hists, "width histograms diverged");
            }
        }
    }
}

/// `s = x + y`, `d = x - y`, `p = s * d`, then `p + x * y` and
/// `(p + x * y) - s * d` as the fused forms: every arithmetic
/// instruction the VM runs as one bank sweep, in a compiled program's
/// register layout.
fn sweep_program() -> Program {
    let p = Program {
        name: "sweeps".into(),
        precision: Precision::F64,
        n_inputs: 2,
        n_regs: 7,
        consts: vec![],
        insns: vec![
            Insn::Add { dst: 2, a: 0, b: 1 },
            Insn::Sub { dst: 3, a: 0, b: 1 },
            Insn::Mul { dst: 4, a: 2, b: 3 },
            Insn::MulAdd { dst: 5, a: 0, b: 1, acc: 4 },
            Insn::MulSub { dst: 6, a: 2, b: 3, acc: 5 },
        ],
        inputs: vec!["x".into(), "y".into()],
        outputs: vec![OutputSlot { label: "return".into(), reg: 6 }],
        debug: DebugMap::default(),
    };
    p.validate().expect("valid sweep program");
    p
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// A compiled f64 program through `BatchProgram`: on AVX2+FMA each
/// sweep counts per packed group under the `simd.add.*`/`simd.mul.*`
/// counters (the padded last group included, its missing lanes
/// `[1, 1]`), and the totals are the same at 1 and 3 threads. Every
/// fifth item sits near `MAX`, so sums and products overflow and lanes
/// get patched. The portable backend runs add, sub and mul as the scalar
/// op on each lane, which ticks no packed counter.
#[test]
fn vm_sweeps_count_per_group_at_any_thread_count() {
    let _serial = TEL_LOCK.lock().unwrap();
    let bp = BatchProgram::new(sweep_program());
    let items = 4 * 37 + 3; // full groups and a padded last group
    let mut rng = workload::rng(11);
    let mut xs = workload::intervals_1ulp(&workload::random_points(&mut rng, 2 * items, -2.0, 2.0));
    for x in xs.iter_mut().step_by(5 * 2) {
        *x = F64I::new(1e300, f64::MAX).expect("ordered");
    }
    let inputs = BatchF64I::from_intervals(&xs);
    let run = |threads: usize| {
        let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
        traced(|| igen_bench_sink(bp.run(&cfg, &inputs)))
    };
    let one = run(1);
    // Add, Sub, MulAdd and MulSub add; Mul, MulAdd and MulSub multiply.
    let avx2 = simd::detected_backend() == Backend::Avx2Fma;
    let groups = if avx2 { items.div_ceil(4) as u64 } else { 0 };
    assert_eq!(counter(&one, "simd.add.packed_calls"), 4 * groups);
    assert_eq!(counter(&one, "simd.mul.packed_calls"), 3 * groups);
    if avx2 {
        assert_eq!(counter(&one, "simd.dispatch.avx2_fma"), 7 * groups);
        assert!(counter(&one, "simd.add.lanes_patched") > 0, "{:?}", one.counters);
        assert!(counter(&one, "simd.mul.lanes_patched") > 0, "{:?}", one.counters);
    }
    assert_eq!(workload_counters(&run(3)), workload_counters(&one), "totals diverged at 3 threads");
}

/// Keeps results observable without depending on the bench crate.
fn igen_bench_sink<T>(v: T) {
    let _ = std::hint::black_box(v);
}

/// Spans from a multi-threaded run, serialized to JSON lines and parsed
/// back, nest well-formedly: per thread, every span lies inside its
/// parent's extent and its recorded depth equals the enclosing stack
/// depth.
#[test]
fn emitted_spans_nest_well_formed() {
    let _serial = TEL_LOCK.lock().unwrap();
    let xs = sample(7, 64);
    let ys = sample(8, 64);
    let cfg = BatchConfig::new().with_threads(3).with_seq_threshold(0);
    let snap = traced(|| {
        // 16 items in 4 lane groups: enough to spread across 3 workers.
        igen_bench_sink(dot_lanes(&cfg, 4, &xs, &ys));
    });
    // Round-trip through the emitted JSON, as the CLI would.
    let parsed = Snapshot::from_jsonl(&snap.to_jsonl()).expect("re-parse own trace");
    assert!(!parsed.spans.is_empty(), "the parallel path must record spans");
    assert!(
        parsed.spans.iter().any(|s| s.name == "batch.chunk"),
        "per-worker chunk spans missing: {:?}",
        parsed.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );

    let mut by_thread: std::collections::BTreeMap<u64, Vec<&igen_telemetry::SpanRec>> =
        std::collections::BTreeMap::new();
    for s in &parsed.spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    for (thread, mut spans) in by_thread {
        // Parents start no later than children; at equal starts the
        // shallower span is the parent.
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        let mut stack: Vec<&igen_telemetry::SpanRec> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if top.start_ns + top.dur_ns <= s.start_ns && s.depth <= top.depth {
                    stack.pop();
                } else {
                    break;
                }
            }
            assert_eq!(
                s.depth as usize,
                stack.len(),
                "thread {thread}: span {} at depth {} under stack {:?}",
                s.name,
                s.depth,
                stack.iter().map(|t| t.name.as_str()).collect::<Vec<_>>()
            );
            if let Some(parent) = stack.last() {
                assert!(
                    s.start_ns >= parent.start_ns
                        && s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns,
                    "thread {thread}: span {} [{}..{}] escapes parent {} [{}..{}]",
                    s.name,
                    s.start_ns,
                    s.start_ns + s.dur_ns,
                    parent.name,
                    parent.start_ns,
                    parent.start_ns + parent.dur_ns
                );
            }
            stack.push(s);
        }
    }
}
