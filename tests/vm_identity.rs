//! Bytecode-vs-interpreter bit identity: every function shape the
//! lowering pass supports is compiled at `-O0`, `-O1` and `-O2`,
//! lowered to bytecode, and executed over random inputs against the
//! differential interpreter running the transformed C unit. Endpoints
//! must match bit for bit — no tolerance — at every opt level; the
//! batched packed path must additionally be bit-identical to the
//! scalar path at every thread count. A tampered program must fail the
//! same check, at the output and item where it first differs.

use igen::batch::{BatchConfig, BatchF64I, BatchProgram};
use igen::compiler::{
    compile_to_program, verify_bit_identity, Compiler, Config, OptLevel, Output, Precision,
    RefElem, VmBridgeError,
};
use igen::dd::Dd;
use igen::interval::{DdI, SweepOp, F64I};
use igen::kernels::workload;
use igen::vm::{ArgBind, BindSpec, Insn, Program};

fn compile(src: &str, opt: OptLevel) -> Output {
    let cfg = Config { opt_level: opt, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

fn compile_dd(src: &str, opt: OptLevel) -> Output {
    let cfg = Config { opt_level: opt, precision: Precision::Dd, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Compiles at every opt level, checks scalar bit identity against the
/// interpreter, then checks thread-count invariance of the batched run.
fn check_f64(src: &str, fn_name: &str, bind: BindSpec, seed: u64, items: usize) {
    for opt in OPT_LEVELS {
        let out = compile(src, opt);
        let prog = compile_to_program(&out, fn_name, &bind)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
        let nin = prog.n_inputs as usize;
        let mut rng = workload::rng(seed ^ opt as u64);
        let points = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
        let inputs = workload::intervals_1ulp(&points);
        verify_bit_identity(&out, &prog, &bind, &inputs)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));

        // Batched packed path: identical bits at 1, 3 and 8 threads.
        let bp = BatchProgram::new(prog);
        let soa = BatchF64I::from_intervals(&inputs);
        let base =
            bp.run(&BatchConfig::new().with_threads(1).with_seq_threshold(0), &soa).to_intervals();
        for threads in [3usize, 8] {
            let got = bp
                .run(&BatchConfig::new().with_threads(threads).with_seq_threshold(0), &soa)
                .to_intervals();
            assert_eq!(base.len(), got.len());
            for (b, g) in base.iter().zip(&got) {
                assert_eq!(b.lo().to_bits(), g.lo().to_bits(), "{fn_name} lo @ {threads} threads");
                assert_eq!(b.hi().to_bits(), g.hi().to_bits(), "{fn_name} hi @ {threads} threads");
            }
        }
    }
}

#[test]
fn dot_accumulator_loop() {
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
    check_f64(src, "dot", bind, 11, 9);
}

#[test]
fn henon_iteration() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source");
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    check_f64(&src, "henon_map", bind, 22, 13);
}

#[test]
fn poly_with_builtins() {
    let src = r#"
        double poly(double u, double v) {
            double a = fabs(u);
            double m = fmax(a, v);
            double r = sqrt(m + 2.0);
            double p = pow(u, 3);
            return fmin(r, p) / (v + 4.0) - u * u;
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]);
    check_f64(src, "poly", bind, 33, 16);
}

#[test]
fn mvm_inout_with_uniform_matrix() {
    let src = r#"
        void mvm(double* a, double* x, double* y, int n) {
            for (int i = 0; i < n; i++) {
                double acc = y[i];
                for (int j = 0; j < n; j++) {
                    acc = acc + a[i * n + j] * x[j];
                }
                y[i] = acc;
            }
        }
    "#;
    let n = 4;
    let mut rng = workload::rng(99);
    let a = workload::random_points(&mut rng, n * n, -1.0, 1.0);
    let pairs: Vec<(f64, f64)> = a.iter().map(|&v| (v, v)).collect();
    let bind = BindSpec::new(vec![
        ArgBind::Uniform(pairs),
        ArgBind::In(n),
        ArgBind::InOut(n),
        ArgBind::Int(n as i64),
    ]);
    check_f64(src, "mvm", bind, 44, 6);
}

#[test]
fn local_scratch_array() {
    let src = r#"
        double scratch(double v) {
            double tmp[3];
            tmp[0] = v + 1.0;
            tmp[1] = tmp[0] * tmp[0];
            tmp[2] = tmp[1] - v;
            return tmp[2];
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    check_f64(src, "scratch", bind, 55, 17);
}

#[test]
fn out_array_gather() {
    let src = r#"
        void split(double x, double* o) {
            o[0] = x * x;
            o[1] = x + 1.5;
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Out(2)]);
    check_f64(src, "split", bind, 66, 10);
}

/// Integer control flow at the edges of `long`: the lowering evaluates
/// `>>` as a logical shift and `i64::MIN / -1` as a wrap, as the
/// interpreter does, so each program takes the interpreter's branch.
#[test]
fn integer_edges_take_the_interpreters_branch() {
    let shr = "double f(double x, int n) { double s = x; \
               if ((n >> 1) < 0) { s = s * x; } return s; }";
    let div = "double f(double x, int n) { double s = x; \
               long m = -9223372036854775807 - n; long k = m / -1; \
               if (k < 0) { s = s * x; } return s; }";
    for (src, n, taken, seed) in [(shr, -8, false, 55), (div, 1, true, 66)] {
        let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Int(n)]);
        let prog = compile_to_program(&compile(src, OptLevel::O0), "f", &bind).expect("lowers");
        assert_eq!(prog.insns.len(), taken as usize, "{src}");
        check_f64(src, "f", bind, seed, 5);
    }
}

#[test]
fn henon_dd_precision() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source");
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    for opt in OPT_LEVELS {
        let out = compile_dd(&src, opt);
        let prog = compile_to_program(&out, "henon_map", &bind)
            .unwrap_or_else(|e| panic!("henon dd at {opt:?}: {e}"));
        let mut rng = workload::rng(77 ^ opt as u64);
        let inputs = workload::dd_intervals_1ulp(&mut rng, 10 * 2, -0.5, 0.5);
        verify_bit_identity(&out, &prog, &bind, &inputs)
            .unwrap_or_else(|e| panic!("henon dd at {opt:?}: {e}"));
    }
}

/// Functions outside the traced subset are rejected with a precise
/// error instead of miscompiling: an interval-dependent branch must
/// name the tri-state branch problem.
#[test]
fn interval_branch_is_rejected() {
    let src = r#"
        double clamp_pos(double x) {
            if (x > 0.0) {
                return x;
            }
            return 0.0;
        }
    "#;
    let out = compile(src, OptLevel::O2);
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    let err = compile_to_program(&out, "clamp_pos", &bind).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("interval"), "unexpected error: {msg}");
}

/// The item-major SoA layout and the scalar reference agree on which
/// lanes belong to which item (regression guard for the load stride).
#[test]
fn batch_layout_matches_per_item_runs() {
    let src = r#"
        double axpy1(double a, double x, double y) {
            return a * x + y;
        }
    "#;
    let out = compile(src, OptLevel::O2);
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Ival]);
    let prog = compile_to_program(&out, "axpy1", &bind).expect("lowers");
    let mut rng = workload::rng(123);
    let points = workload::random_points(&mut rng, 3 * 11, -3.0, 3.0);
    let inputs = workload::intervals_1ulp(&points);
    let per_item: Vec<F64I> = (0..11)
        .map(|i| igen::vm::run_scalar::<F64I>(&prog, &inputs[i * 3..(i + 1) * 3])[0])
        .collect();
    let bp = BatchProgram::new(prog);
    let got = bp
        .run(
            &BatchConfig::new().with_threads(2).with_seq_threshold(0),
            &BatchF64I::from_intervals(&inputs),
        )
        .to_intervals();
    assert_eq!(got.len(), per_item.len());
    for (g, w) in got.iter().zip(&per_item) {
        assert_eq!(g.lo().to_bits(), w.lo().to_bits());
        assert_eq!(g.hi().to_bits(), w.hi().to_bits());
    }
}

/// Compiles `src` at `-O2` and `precision`, checks that the program
/// passes the reference check over `inputs`, then applies `tamper` and
/// returns the check's error.
fn tampered<T: RefElem>(
    src: &str,
    fn_name: &str,
    bind: &BindSpec,
    precision: Precision,
    inputs: &[T],
    tamper: impl FnOnce(&mut Program),
) -> VmBridgeError {
    let cfg = Config { opt_level: OptLevel::O2, precision, ..Config::default() };
    let out = Compiler::new(cfg).compile_str(src).expect("compiles");
    let mut prog = compile_to_program(&out, fn_name, bind).expect("lowers");
    verify_bit_identity(&out, &prog, bind, inputs).expect("the compiled program passes");
    tamper(&mut prog);
    verify_bit_identity(&out, &prog, bind, inputs).expect_err("the tampered program fails")
}

/// Turns the program's one `Add` into a `Sub` of the same operands.
fn add_to_sub(p: &mut Program) {
    let mut adds = p.insns.iter_mut().filter_map(|i| match i {
        Insn::Op { op: op @ SweepOp::Add, .. } => Some(op),
        _ => None,
    });
    *adds.next().expect("an add") = SweepOp::Sub;
    assert!(adds.next().is_none(), "one add");
}

/// The program's one pool constant.
fn only_const(p: &mut Program) -> &mut igen::vm::PoolConst {
    assert_eq!(p.consts.len(), 1, "one pooled constant");
    &mut p.consts[0]
}

#[test]
fn a_swapped_opcode_is_reported_at_its_output() {
    let src = "void split(double x, double y, double* o) { o[0] = x * y; o[1] = x + y; }";
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Out(2)]);
    let f64s =
        workload::intervals_1ulp(&workload::random_points(&mut workload::rng(7), 6, 0.5, 2.0));
    let dds = workload::dd_intervals_1ulp(&mut workload::rng(8), 6, 0.5, 2.0);
    for err in [
        tampered::<F64I>(src, "split", &bind, Precision::F64, &f64s, add_to_sub),
        tampered::<DdI>(src, "split", &bind, Precision::Dd, &dds, add_to_sub),
    ] {
        let VmBridgeError::Mismatch { label, item, got, want } = err else {
            panic!("expected a mismatch, got {err}");
        };
        // x - y against x + y: the lower endpoints differ by 2y.
        assert_eq!((label.as_str(), item), ("o[1]", 0));
        assert!(got[0] < want[0], "{got:?} vs {want:?}");
    }
}

#[test]
fn a_nudged_constant_is_reported_at_the_first_item_it_changes() {
    let src = "double lift(double x) { return fmax(x, 0.5); }";
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    // fmax(x, 0.5) ignores the constant while x lies above it.
    let inputs: Vec<F64I> = [(1.0, 1.25), (0.75, 0.875), (-1.0, -0.5), (-2.0, 0.25)]
        .iter()
        .map(|&(lo, hi)| F64I::new(lo, hi).expect("ordered"))
        .collect();
    let up = igen::round::next_up;
    let err = tampered(src, "lift", &bind, Precision::F64, &inputs, |p| {
        let c = only_const(p);
        (c.lo_hi, c.hi_hi) = (up(c.lo_hi), up(c.hi_hi));
    });
    let msg = err.to_string();
    let VmBridgeError::Mismatch { label, item, got, want } = err else {
        panic!("expected a mismatch, got {err}");
    };
    assert_eq!((label.as_str(), item), ("return", 2));
    assert_eq!(got, [up(want[0]), up(want[1])]);
    assert_eq!(
        msg,
        format!(
            "bit mismatch at item 2, output `return`: vm [{:?}, {:?}] vs interp [{:?}, {:?}]",
            got[0], got[1], want[0], want[1]
        )
    );
}

/// A constant nudged in its low words moves only the low words of the
/// output: the outward-rounded f64 endpoints agree, so only the
/// four-word compare catches it, and the error reports every word of
/// both sides, the differing low words included.
#[test]
fn a_low_word_change_at_dd_is_caught() {
    let src = "double shift(double x) { return x + 1.0; }";
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    let tiny = 2f64.powi(-80);
    let x =
        DdI::new(Dd::new(0.25, 2f64.powi(-60)), Dd::new(0.25, 2f64.powi(-59))).expect("ordered");
    let err = tampered(src, "shift", &bind, Precision::Dd, &[x], |p| {
        let c = only_const(p);
        (c.lo_lo, c.hi_lo) = (c.lo_lo + tiny, c.hi_lo + tiny);
    });
    let msg = err.to_string();
    let VmBridgeError::Mismatch { label, item, got, want } = err else {
        panic!("expected a mismatch, got {err}");
    };
    assert_eq!((label.as_str(), item), ("return", 0));
    let bits = |w: &[f64], i: usize| w[i].to_bits();
    assert_eq!((got.len(), want.len()), (4, 4));
    assert_eq!((bits(&got, 0), bits(&got, 2)), (bits(&want, 0), bits(&want, 2)), "high words");
    assert_ne!((bits(&got, 1), bits(&got, 3)), (bits(&want, 1), bits(&want, 3)), "low words");
    assert!(msg.contains(&format!("vm [{:?} {:?}, {:?} {:?}]", got[0], got[1], got[2], got[3])));
}
