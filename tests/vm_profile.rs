//! Width-provenance profiling, end to end: profiled execution must be
//! bit-identical to plain execution (f64 and dd, every opt level), and
//! the instruction→source DebugMap must survive the whole pipeline —
//! lowering, the IR passes, peephole rewriting and register renumbering
//! — so the blame report can name real source lines at `-O2`.

use igen::batch::{BatchConfig, BatchDdI, BatchF64I, BatchProgram};
use igen::compiler::{
    compile_to_program, compile_to_program_raw, Compiler, Config, OptLevel, Output, Precision,
};
use igen::interval::DdI;
use igen::kernels::workload;
use igen::vm::{ArgBind, BindSpec};

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

fn henon_src() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source")
}

fn compile(src: &str, opt: OptLevel, precision: Precision) -> Output {
    let cfg = Config { opt_level: opt, precision, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

/// All four components of a dd interval, as bits: a NaN equals itself,
/// and the low words are compared too.
fn dd_bits(d: &DdI) -> [u64; 4] {
    let (lo, hi) = (d.lo(), d.hi());
    [lo.hi().to_bits(), lo.lo().to_bits(), hi.hi().to_bits(), hi.lo().to_bits()]
}

/// Runs plain and profiled over the same batch and asserts every
/// endpoint matches bit for bit. With telemetry compiled in (and
/// recording turned on here) the profiled run records live samples; in
/// a default build the profiler is a zero-sized stub and this pins the
/// loop with its hooks folded away instead — both must hold. Returns
/// how many outputs had a NaN endpoint, over all opt levels.
fn check_profiled_identity(
    src: &str,
    fn_name: &str,
    bind: &BindSpec,
    precision: Precision,
) -> usize {
    let mut nan = 0;
    for opt in OPT_LEVELS {
        let out = compile(src, opt, precision);
        let prog = compile_to_program(&out, fn_name, bind)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
        let nin = prog.n_inputs as usize;
        let n_sites = prog.insns.len();
        let items = 13usize;
        let mut rng = workload::rng(0x9e0f ^ opt as u64);
        let bp = BatchProgram::new(prog);
        let cfg = BatchConfig::new().with_threads(1).with_seq_threshold(0);
        igen::telemetry::set_recording(true);
        let unit = format!("test.profile.{fn_name}.{opt:?}");
        match precision {
            Precision::Dd => {
                let ivals = workload::dd_intervals_1ulp(&mut rng, items * nin, -2.0, 2.0);
                let soa = BatchDdI::from_intervals(&ivals);
                let plain = bp.run_dd(&cfg, &soa).to_intervals();
                let mut prof = igen::telemetry::UnitProfiler::start(&unit, n_sites);
                let profiled = bp.run_dd_profiled(&cfg, &soa, &mut prof).to_intervals();
                prof.finish();
                assert_eq!(plain.len(), profiled.len());
                for (a, b) in plain.iter().zip(&profiled) {
                    assert_eq!(dd_bits(a), dd_bits(b), "{fn_name} {opt:?} dd");
                }
                nan +=
                    plain.iter().filter(|a| a.lo().hi().is_nan() || a.hi().hi().is_nan()).count();
            }
            _ => {
                let pts = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
                let ivals = workload::intervals_1ulp(&pts);
                let soa = BatchF64I::from_intervals(&ivals);
                let plain = bp.run(&cfg, &soa).to_intervals();
                let mut prof = igen::telemetry::UnitProfiler::start(&unit, n_sites);
                let profiled = bp.run_profiled(&cfg, &soa, &mut prof).to_intervals();
                prof.finish();
                assert_eq!(plain.len(), profiled.len());
                for (a, b) in plain.iter().zip(&profiled) {
                    assert_eq!(a.lo().to_bits(), b.lo().to_bits(), "{fn_name} {opt:?} lo");
                    assert_eq!(a.hi().to_bits(), b.hi().to_bits(), "{fn_name} {opt:?} hi");
                }
                nan += plain.iter().filter(|a| a.lo().is_nan() || a.hi().is_nan()).count();
            }
        }
        igen::telemetry::set_recording(false);
    }
    nan
}

#[test]
fn profiled_henon_is_bit_identical_f64() {
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    check_profiled_identity(&henon_src(), "henon_map", &bind, Precision::F64);
}

/// Hénon@8 stays finite on [-2, 2] inputs; @20 goes NaN, so the
/// profiled run also crosses the lanes the packed dd kernels patch.
#[test]
fn profiled_henon_is_bit_identical_dd() {
    for (iterations, goes_nan) in [(8, false), (20, true)] {
        let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(iterations)]);
        let nan = check_profiled_identity(&henon_src(), "henon_map", &bind, Precision::Dd);
        assert_eq!(nan > 0, goes_nan, "Hénon@{iterations}: {nan} outputs with a NaN endpoint");
    }
}

#[test]
fn profiled_dot_is_bit_identical_f64() {
    let src = r#"
        double dot(double* x, double* y, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                s = s + x[i] * y[i];
            }
            return s;
        }
    "#;
    let n = 7;
    let bind = BindSpec::new(vec![ArgBind::In(n), ArgBind::In(n), ArgBind::Int(n as i64)]);
    check_profiled_identity(src, "dot", &bind, Precision::F64);
}

/// The tentpole structural claim: at `-O2` with the peephole pass on
/// (copy propagation, CSE, strength reduction, fusion, renumbering all
/// applied), the surviving instructions still name the source lines of
/// Hénon's two update expressions.
#[test]
fn provenance_survives_o2_and_peephole() {
    let src = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    let out = compile(&src, OptLevel::O2, Precision::F64);
    for (prog, label) in [
        (compile_to_program(&out, "henon_map", &bind).expect("peephole"), "peephole"),
        (compile_to_program_raw(&out, "henon_map", &bind).expect("raw"), "raw"),
    ] {
        // The side-table stays parallel to the instruction stream
        // through every rewrite (validate() enforces the parity too).
        assert_eq!(
            prog.debug.sites.len(),
            prog.insns.len(),
            "{label}: debug map must cover every instruction"
        );
        let known = prog.debug.sites.iter().filter(|s| s.is_known()).count();
        assert!(
            known * 10 >= prog.insns.len() * 8,
            "{label}: only {known}/{} instructions carry a source site",
            prog.insns.len()
        );
        // Lines 7 and 8 of henon.c hold the map's two update statements;
        // both must still be named after the full optimization pipeline.
        for line in [7u32, 8] {
            assert!(
                prog.debug.sites.iter().any(|s| s.line == line),
                "{label}: no instruction attributes to henon.c line {line}"
            );
        }
    }
}

/// With telemetry compiled in, a live profiled run must attribute its
/// heaviest width-amplifying sites to the Hénon update lines; the
/// top-3 rows by mean amplification all carry real source locations.
#[cfg(feature = "telemetry")]
#[test]
fn blame_ranking_names_real_source_lines() {
    let src = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    let out = compile(&src, OptLevel::O2, Precision::F64);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("compiles");
    let nin = prog.n_inputs as usize;
    let n_sites = prog.insns.len();
    let bp = BatchProgram::new(prog);
    let mut rng = workload::rng(0xb1a3);
    let pts = workload::random_points(&mut rng, 16 * nin, -2.0, 2.0);
    let soa = BatchF64I::from_intervals(&workload::intervals_1ulp(&pts));
    igen::telemetry::set_recording(true);
    let mut prof = igen::telemetry::UnitProfiler::start("test.blame.henon", n_sites);
    bp.run_profiled(&BatchConfig::new().with_threads(1), &soa, &mut prof);
    prof.finish();
    igen::telemetry::set_recording(false);

    let mut rows: Vec<_> = igen::telemetry::profiles_snapshot()
        .into_iter()
        .filter(|r| r.unit == "test.blame.henon" && r.mean_amp_log2().is_some())
        .collect();
    assert!(rows.len() >= 3, "expected at least 3 profiled sites, got {}", rows.len());
    rows.sort_by(|a, b| {
        b.mean_amp_log2()
            .unwrap()
            .partial_cmp(&a.mean_amp_log2().unwrap())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for r in rows.iter().take(3) {
        assert!(r.line > 0, "top amplifying site has no source line: {r:?}");
        assert!(
            (5..=8).contains(&r.line),
            "top amplifying site blames line {} — outside the loop body: {r:?}",
            r.line
        );
    }
}
