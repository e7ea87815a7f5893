//! Tiled-executor and peephole bit-identity.
//!
//! Two claims are pinned here, both with zero tolerance:
//!
//! 1. The tiled instruction-major executor (`run_tile`) is
//!    bit-identical to the scalar reference (`run_scalar`) for every
//!    batch-size tail shape — fewer items than a packed group, fewer
//!    groups than a tile, and non-multiples of the tile, each ending in
//!    a padded group — at `-O0/-O1/-O2`, both precisions, through
//!    `BatchProgram` at 1/3/8 threads and directly over a `TileBank` of
//!    several tile sizes, including a Hénon@20 leg whose real lanes go
//!    non-finite.
//! 2. The peephole pass preserves every endpoint bit of every output on
//!    the full `vm_identity` program set: the raw lowering and the
//!    peepholed program are run side by side over random inputs and
//!    compared bitwise.

use igen::batch::{BatchConfig, BatchF64I, BatchProgram, SoaBatch};
use igen::compiler::{
    compile_to_program, compile_to_program_raw, Compiler, Config, OptLevel, Output, Precision,
};
use igen::interval::{DdI, LaneOps, F64I};
use igen::kernels::workload;
use igen::round::simd::{self, Backend};
use igen::vm::{
    peephole, run_scalar, run_tile, ArgBind, BindSpec, PoolConst, PreparedProgram, Program,
    TileBank, VmElem,
};
use proptest::prelude::*;

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Batch sizes that exercise every tail shape: under one packed group
/// (1–3), exact group, under one default tile (5, 31), exact tile
/// boundary at the default 8 groups (32), one over (33), multiple tiles
/// with and without remainder (64, 65).
const TAIL_SHAPES: [usize; 10] = [1, 2, 3, 4, 5, 31, 32, 33, 64, 65];

fn compile(src: &str, opt: OptLevel, precision: Precision) -> Output {
    let cfg = Config { opt_level: opt, precision, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

fn henon_src() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source")
}

const POLY_SRC: &str = r#"
    double poly(double u, double v) {
        double a = fabs(u);
        double m = fmax(a, v);
        double r = sqrt(m + 2.0);
        double p = pow(u, 3);
        return fmin(r, p) / (v + 4.0) - u * u;
    }
"#;

fn assert_f64_bits(a: &F64I, b: &F64I, ctx: &str) {
    assert_eq!(a.lo().to_bits(), b.lo().to_bits(), "lo {ctx}");
    assert_eq!(a.hi().to_bits(), b.hi().to_bits(), "hi {ctx}");
}

/// `run_scalar` over every item of `inputs`, outputs item-major.
fn scalar_outputs<T: VmElem>(prog: &Program, inputs: &[T]) -> Vec<T> {
    inputs.chunks(prog.n_inputs as usize).flat_map(|item| run_scalar::<T>(prog, item)).collect()
}

/// `run_tile` over `inputs` on one bank of `tile` groups, tile after
/// tile, the lanes of a short last group padded with `[1, 1]` as the
/// batch driver pads them; outputs item-major.
fn run_tiled<T: VmElem>(prog: &Program, inputs: &[T], tile: usize) -> Vec<T> {
    let prep = PreparedProgram::<T>::new(prog.clone());
    let mut bank = TileBank::<T, T::Lane>::new(&prep, tile);
    let (nin, lanes) = (prog.n_inputs as usize, T::Lane::LANES);
    let pad = T::from_const(&PoolConst::f64_pair(1.0, 1.0));
    let (mut out, mut got) = (Vec::new(), Vec::new());
    for chunk in inputs.chunks(nin * lanes * tile) {
        let items = chunk.len() / nin;
        let groups = items.div_ceil(lanes);
        for j in 0..nin {
            for (g, slot) in bank.input_column(j as u32).iter_mut().take(groups).enumerate() {
                *slot = T::Lane::from_lanes_fn(|l| {
                    let k = g * lanes + l;
                    if k < items {
                        chunk[k * nin + j]
                    } else {
                        pad
                    }
                });
            }
        }
        run_tile(&prep, &mut bank, items, &mut out, None);
        for k in 0..items {
            for s in 0..prog.outputs.len() {
                got.push(out[s * groups + k / lanes].lane(k % lanes));
            }
        }
    }
    got
}

/// Runs `bp` over `inputs` at every thread count, and its program
/// through [`run_tiled`] at every tile size, and asserts every word of
/// every output equals `want`'s, bit for bit.
fn assert_batch_bits<T: VmElem>(
    bp: &BatchProgram,
    inputs: &[T],
    want: &[T],
    threads: &[usize],
    tiles: &[usize],
    ctx: &str,
) {
    let (soa, want) = (SoaBatch::from_intervals(inputs), SoaBatch::from_intervals(want));
    for &threads in threads {
        let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
        assert!(bp.run(&cfg, &soa).bits_eq(&want), "{ctx} threads={threads}");
    }
    for &tile in tiles {
        let got = SoaBatch::from_intervals(&run_tiled(bp.program(), inputs, tile));
        assert!(got.bits_eq(&want), "{ctx} tile={tile}");
    }
}

/// The fixed matrix: opt level × precision × items × threads × tile.
#[test]
fn tiled_batch_is_bit_identical_to_scalar_for_every_tail_shape() {
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(6)]);
    for opt in OPT_LEVELS {
        // f64
        let out = compile(&henon, opt, Precision::F64);
        let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers");
        let nin = prog.n_inputs as usize;
        let bp = BatchProgram::new(prog.clone());
        for &items in &TAIL_SHAPES {
            let mut rng = workload::rng(0xA11CE ^ items as u64 ^ opt as u64);
            let points = workload::random_points(&mut rng, items * nin, -1.0, 1.0);
            let inputs = workload::intervals_1ulp(&points);
            let want = scalar_outputs(&prog, &inputs);
            let ctx = format!("f64 {opt:?} items={items}");
            assert_batch_bits(&bp, &inputs, &want, &[1, 3, 8], &[1, 2, 8, 16], &ctx);
        }

        // dd
        let out = compile(&henon, opt, Precision::Dd);
        let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers dd");
        let nin = prog.n_inputs as usize;
        let bp = BatchProgram::new(prog.clone());
        for &items in &[1usize, 3, 5, 33] {
            let mut rng = workload::rng(0xDD ^ items as u64 ^ opt as u64);
            let inputs = workload::dd_intervals_1ulp(&mut rng, items * nin, -0.5, 0.5);
            let want = scalar_outputs(&prog, &inputs);
            let ctx = format!("dd {opt:?} items={items}");
            assert_batch_bits(&bp, &inputs, &want, &[1, 3, 8], &[1, 8], &ctx);
        }
    }
    // Hénon@20 over [-2, 2]: many items leave the attractor's basin and
    // go non-finite, so padded last groups carry NaN real lanes next to
    // their [1, 1] padding lanes.
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(20)]);
    let mut padded_nonfinite = [0usize; 2];
    let (threads, tiles) = ([1, 3], [1, 8]);
    let out = compile(&henon, OptLevel::O2, Precision::F64);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers");
    let nin = prog.n_inputs as usize;
    let bp = BatchProgram::new(prog.clone());
    for &items in &[1usize, 2, 3, 5, 33] {
        let mut rng = workload::rng(0x20 ^ items as u64);
        let points = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
        let inputs = workload::intervals_1ulp(&points);
        let want = scalar_outputs(&prog, &inputs);
        padded_nonfinite[0] += want[items / 4 * 4..]
            .iter()
            .filter(|w| !(w.lo().is_finite() && w.hi().is_finite()))
            .count();
        let ctx = format!("f64 henon@20 items={items}");
        assert_batch_bits(&bp, &inputs, &want, &threads, &tiles, &ctx);
    }
    let out = compile(&henon, OptLevel::O2, Precision::Dd);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers dd");
    let bp = BatchProgram::new(prog.clone());
    for &items in &[1usize, 2, 3, 5, 33] {
        let mut rng = workload::rng(0xDD20 ^ items as u64);
        let inputs = workload::dd_intervals_1ulp(&mut rng, items * nin, -2.0, 2.0);
        let want: Vec<DdI> = scalar_outputs(&prog, &inputs);
        padded_nonfinite[1] += want[items / 4 * 4..]
            .iter()
            .filter(|w| !(w.lo().hi().is_finite() && w.hi().hi().is_finite()))
            .count();
        let ctx = format!("dd henon@20 items={items}");
        assert_batch_bits(&bp, &inputs, &want, &threads, &tiles, &ctx);
    }
    assert!(
        padded_nonfinite.iter().all(|&n| n > 0),
        "the leg must put non-finite real lanes in padded groups: {padded_nonfinite:?}"
    );
}

/// The portable backend, forced: on an AVX2+FMA host the tiled
/// executor's packed sweeps otherwise never run the portable path, which
/// every host without AVX2 and FMA takes. Safe to run alongside the
/// other tests here — the whole point of the backend contract is that
/// every backend produces the same bits, so a concurrently-downgraded
/// test still passes.
#[test]
fn forced_portable_tiled_batch_bit_identical() {
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    let out = compile(&henon, OptLevel::O2, Precision::F64);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers");
    let nin = prog.n_inputs as usize;
    let bp = BatchProgram::new(prog.clone());
    let items = 33usize; // one over a full default tile: a padded last group
    let mut rng = workload::rng(0x55E2);
    let points = workload::random_points(&mut rng, items * nin, -1.0, 1.0);
    let inputs = workload::intervals_1ulp(&points);
    let want: Vec<F64I> = (0..items)
        .flat_map(|i| run_scalar::<F64I>(&prog, &inputs[i * nin..(i + 1) * nin]))
        .collect();
    let soa = BatchF64I::from_intervals(&inputs);
    let cfg = BatchConfig::new().with_threads(2).with_seq_threshold(0);
    simd::force_backend(Some(Backend::Portable));
    let got = bp.run(&cfg, &soa).to_intervals();
    simd::force_backend(None);
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_f64_bits(g, w, &format!("forced portable, output {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (items, threads, tile) triples against the scalar
    /// reference on the builtin-heavy poly kernel at -O2: the batch at
    /// `threads`, and `run_tile` at `tile` directly.
    #[test]
    fn tiled_batch_matches_scalar_on_random_shapes(
        items in 1usize..150,
        threads in 1usize..9,
        tile in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let out = compile(POLY_SRC, OptLevel::O2, Precision::F64);
        let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]);
        let prog = compile_to_program(&out, "poly", &bind).expect("lowers");
        let nin = prog.n_inputs as usize;
        let mut rng = workload::rng(seed);
        let points = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
        let inputs = workload::intervals_1ulp(&points);
        let want: Vec<F64I> = (0..items)
            .flat_map(|i| run_scalar::<F64I>(&prog, &inputs[i * nin..(i + 1) * nin]))
            .collect();
        let tiled = run_tiled(&prog, &inputs, tile);
        let bp = BatchProgram::new(prog);
        let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
        let got = bp.run(&cfg, &BatchF64I::from_intervals(&inputs)).to_intervals();
        for got in [got, tiled] {
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.lo().to_bits(), w.lo().to_bits());
                prop_assert_eq!(g.hi().to_bits(), w.hi().to_bits());
            }
        }
    }
}

/// The peephole differential over the PR 7 `vm_identity` program set:
/// raw lowering vs peepholed program, every output endpoint bit, every
/// opt level.
#[test]
fn peephole_preserves_every_endpoint_bit_on_the_identity_set() {
    let henon = henon_src();
    let mvm_n = 4usize;
    let mut mrng = workload::rng(99);
    let a = workload::random_points(&mut mrng, mvm_n * mvm_n, -1.0, 1.0);
    let pairs: Vec<(f64, f64)> = a.iter().map(|&v| (v, v)).collect();
    let set: Vec<(&str, &str, BindSpec, usize)> = vec![
        (
            r#"
            double dot(double* x, double* y, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) {
                    s = s + x[i] * y[i];
                }
                return s;
            }
            "#,
            "dot",
            BindSpec::new(vec![ArgBind::In(7), ArgBind::In(7), ArgBind::Int(7)]),
            9,
        ),
        (
            henon.as_str(),
            "henon_map",
            BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]),
            13,
        ),
        (POLY_SRC, "poly", BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]), 16),
        (
            r#"
            void mvm(double* a, double* x, double* y, int n) {
                for (int i = 0; i < n; i++) {
                    double acc = y[i];
                    for (int j = 0; j < n; j++) {
                        acc = acc + a[i * n + j] * x[j];
                    }
                    y[i] = acc;
                }
            }
            "#,
            "mvm",
            BindSpec::new(vec![
                ArgBind::Uniform(pairs),
                ArgBind::In(mvm_n),
                ArgBind::InOut(mvm_n),
                ArgBind::Int(mvm_n as i64),
            ]),
            6,
        ),
        (
            r#"
            double scratch(double v) {
                double tmp[3];
                tmp[0] = v + 1.0;
                tmp[1] = tmp[0] * tmp[0];
                tmp[2] = tmp[1] - v;
                return tmp[2];
            }
            "#,
            "scratch",
            BindSpec::new(vec![ArgBind::Ival]),
            17,
        ),
        (
            r#"
            void split(double x, double* o) {
                o[0] = x * x;
                o[1] = x + 1.5;
            }
            "#,
            "split",
            BindSpec::new(vec![ArgBind::Ival, ArgBind::Out(2)]),
            10,
        ),
    ];
    for (src, fn_name, bind, items) in &set {
        for opt in OPT_LEVELS {
            let out = compile(src, opt, Precision::F64);
            let raw = compile_to_program_raw(&out, fn_name, bind)
                .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
            raw.validate_ssa().expect("raw lowering is SSA");
            let (peep, stats) = peephole(&raw);
            peep.validate().expect("peepholed program validates");
            assert!(peep.n_regs <= raw.n_regs, "{fn_name}: renumbering never grows the file");
            let _ = stats;
            let nin = raw.n_inputs as usize;
            let mut rng = workload::rng(0x5EED ^ opt as u64);
            let points = workload::random_points(&mut rng, items * nin.max(1), -2.0, 2.0);
            let inputs = workload::intervals_1ulp(&points);
            for i in 0..*items {
                let item = &inputs[i * nin..(i + 1) * nin];
                let want = run_scalar::<F64I>(&raw, item);
                let got = run_scalar::<F64I>(&peep, item);
                assert_eq!(want.len(), got.len());
                for (slot, (w, g)) in raw.outputs.iter().zip(want.iter().zip(&got)) {
                    assert_f64_bits(
                        g,
                        w,
                        &format!("{fn_name} at {opt:?}, item {i}, output {}", slot.label),
                    );
                }
            }
        }
    }
}

/// Same differential at dd precision on the Hénon kernel (the one dd
/// program in the identity set); all four endpoint components compare.
#[test]
fn peephole_preserves_dd_bits_on_henon() {
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    for opt in OPT_LEVELS {
        let out = compile(&henon, opt, Precision::Dd);
        let raw = compile_to_program_raw(&out, "henon_map", &bind).expect("lowers dd");
        let (peep, _) = peephole(&raw);
        let nin = raw.n_inputs as usize;
        let mut rng = workload::rng(0xDDD ^ opt as u64);
        let inputs = workload::dd_intervals_1ulp(&mut rng, 10 * nin, -0.5, 0.5);
        let want = SoaBatch::from_intervals(&scalar_outputs(&raw, &inputs));
        let got = SoaBatch::from_intervals(&scalar_outputs(&peep, &inputs));
        assert!(got.bits_eq(&want), "dd henon at {opt:?}");
    }
}
