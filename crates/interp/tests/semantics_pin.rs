//! Pins the reference interpreter's observable semantics over a fixed
//! corpus: the exact output bits of every program, the exact `RtError`
//! text of every failing one, and the smallest `step_budget` at which
//! each reaches its outcome (one step less must end in
//! `RtError::StepBudget`). Any change to the evaluator that alters a
//! value, an error message or the step accounting shows up as a diff
//! against `tests/golden/semantics_pin.txt`.
//!
//! Regenerate the golden file (only when a semantic change is
//! intended) with
//!
//! ```text
//! IGEN_REGEN_GOLDEN=1 cargo test -p igen-interp --test semantics_pin
//! ```

use igen_cfront::TranslationUnit;
use igen_core::{Compiler, Config, OptLevel, Precision};
use igen_interp::{Interp, RtError, Value};
use igen_interval::{DdI, F64I};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One argument of a corpus call; arrays are allocated on the
/// interpreter heap and read back after the call.
#[derive(Clone)]
enum Arg {
    Val(Value),
    F64s(Vec<f64>),
    Ivals(Vec<F64I>),
    Ddis(Vec<DdI>),
}

struct Case {
    name: String,
    unit: TranslationUnit,
    func: &'static str,
    args: Vec<Arg>,
}

fn case(
    name: impl Into<String>,
    unit: TranslationUnit,
    func: &'static str,
    args: Vec<Arg>,
) -> Case {
    Case { name: name.into(), unit, func, args }
}

fn parse(src: &str) -> TranslationUnit {
    igen_cfront::parse(src).expect("corpus source parses")
}

fn compile(src: &str, opt_level: OptLevel, precision: Precision) -> TranslationUnit {
    let cfg = Config { opt_level, precision, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("corpus source compiles").unit
}

/// The transformed unit as printed C and re-parsed: the form in which
/// generated intrinsic implementations (unions, bit views) reach the
/// interpreter.
fn compile_printed(src: &str, cfg: Config) -> TranslationUnit {
    parse(&Compiler::new(cfg).compile_str(src).expect("corpus source compiles").c_source)
}

fn ival(lo: f64, hi: f64) -> F64I {
    F64I::new(lo, hi).expect("valid interval")
}

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

fn horner_src(c: [f64; 3]) -> String {
    format!(
        "double poly(double x) {{
    return {:?} + {:?} * (x * x) + {:?} * (x * x) * (x * x);
}}
",
        c[0], c[1], c[2]
    )
}

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

const GAUSS: [f64; 12] =
    [0.9379, 0.0381, 0.0414, 0.0237, 0.0404, 0.968, 0.0179, 0.0143, 0.0142, 0.0197, 0.9823, 0.0077];

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

/// Seeded noise in [-2, 2], one ulp wide.
fn noise(n: usize) -> Vec<F64I> {
    (0..n)
        .map(|k| {
            let x = ((k * 7919 % 401) as f64 - 200.0) / 100.0;
            ival(x, x + x.abs() * f64::EPSILON)
        })
        .collect()
}

/// Float-mode statements and expressions the templates do not reach.
const KITCHEN_SINK: &str = r#"
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
double scale(double* a, int n, double k) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { a[i] *= k; s += a[i]; }
    return s;
}
double kitchen(double* a, int n) {
    double acc = 0.0;
    int k = 0;
    double buf[4];
    for (int i = 0; i < 4; i++) buf[i] = i * 0.5;
    while (k < n) {
        switch (k % 4) {
            case 0: acc += a[k]; break;
            case 1: acc -= a[k];
            case 2: acc = acc * 1.5; break;
            default: { double acc = 100.0; a[k] = acc; }
        }
        k++;
    }
    int j = 0;
    do { j += 3; if (j == 6) continue; acc += j; } while (j < 12);
    {
        double k = 2.5;
        acc += k;
    }
    acc += k;
    double* p = a + 1;
    *p = *p + buf[3];
    p[1] = -p[1];
    int m = n > 4 ? fib(10) : (int)acc;
    acc += (double)m + (int)7.9 + (float)0.1;
    acc += scale(a, n, 0.5);
    acc += sqrt(fabs(acc)) + pow(2.0, 0.5) + fmax(floor(1.7), ceil(-1.2));
    int bits = (5 << 3) ^ (12 & 10) | (1 >> 1);
    acc += bits % 7 + !bits + ~bits + -bits;
    return acc + a[0] + k++ + ++k;
}
"#;

const SIMD_FLOAT: &str = r#"
void axpy4(double* x, double* y, double k) {
    __m256d kk = _mm256_set1_pd(k);
    __m256d xv = _mm256_loadu_pd(x);
    __m256d yv = _mm256_loadu_pd(y);
    __m256d r = _mm256_fmadd_pd(kk, xv, yv);
    r = _mm256_add_pd(r, _mm256_hadd_pd(xv, yv));
    _mm256_storeu_pd(y, _mm256_max_pd(r, _mm256_setzero_pd()));
}
"#;

const REDUCE: &str = r#"
double dot(double* a, double* b) {
    double s = 0.0;
    #pragma igen reduce s
    for (int i = 0; i < 24; i++)
        s = s + a[i] * b[i];
    return s;
}
"#;

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let henon_c = std::fs::read_to_string(examples.join("henon.c")).expect("examples/henon.c");
    let horner_c = std::fs::read_to_string(examples.join("horner.c")).expect("examples/horner.c");

    // examples/*.c in float mode, and transformed.
    let henon_args = || vec![Arg::Val(Value::F64(0.1)), Arg::Val(Value::F64(0.2))];
    let mut args = henon_args();
    args.push(Arg::Val(Value::Int(30)));
    cases.push(case("examples/henon.c float", parse(&henon_c), "henon_map", args));
    cases.push(case(
        "examples/horner.c float",
        parse(&horner_c),
        "poly",
        vec![Arg::Val(Value::F64(0.7))],
    ));
    let unit = compile(&henon_c, OptLevel::O2, Precision::F64);
    let args = vec![
        Arg::Val(Value::Interval(ival(0.1, 0.1000001))),
        Arg::Val(Value::Interval(ival(0.2, 0.2))),
        Arg::Val(Value::Int(30)),
    ];
    cases.push(case("examples/henon.c -O2 f64", unit, "henon_map", args));
    let unit = compile(&horner_c, OptLevel::O1, Precision::F32);
    let args = vec![Arg::Val(Value::Interval32(igen_interval::F32I::point(0.7)))];
    cases.push(case("examples/horner.c -O1 f32", unit, "poly", args));

    // The four service templates at -O0/-O2 in f64 and dd.
    let templates: [(&str, String, &'static str, usize); 4] = [
        ("henon@50", henon_src(1.05, 0.3, 50), "henon_map", 0),
        ("horner", horner_src([1.0, 0.5, 0.25]), "poly", 0),
        ("linear-filter@40", filter_src(1.5, 0.7, 1.6, 40), "pilat_filter", 40),
        ("gaussian@50", gauss_src(GAUSS, 50), "pilat_gauss", 50),
    ];
    for (name, src, func, len) in &templates {
        for opt in [OptLevel::O0, OptLevel::O2] {
            for prec in [Precision::F64, Precision::Dd] {
                let scalars: Vec<F64I> = match *func {
                    "henon_map" => vec![ival(0.1, 0.1 + 1e-9), ival(0.2, 0.2)],
                    "poly" => vec![ival(-0.75, -0.7)],
                    _ => Vec::new(),
                };
                let dd = prec == Precision::Dd;
                let mut args: Vec<Arg> = scalars
                    .iter()
                    .map(|&i| {
                        Arg::Val(if dd {
                            Value::DdInterval(DdI::from_f64i(&i))
                        } else {
                            Value::Interval(i)
                        })
                    })
                    .collect();
                if *len > 0 {
                    let e = noise(*len);
                    args.push(if dd {
                        Arg::Ddis(e.iter().map(DdI::from_f64i).collect())
                    } else {
                        Arg::Ivals(e)
                    });
                }
                let label = format!("{name} {opt:?} {prec:?}");
                cases.push(case(label, compile(src, opt, prec), func, args));
            }
        }
    }

    // Generated intrinsic implementations (unions, bit views, masks).
    let lanes = |xs: &[f64]| Value::VecInterval(xs.iter().map(|&v| F64I::point(v)).collect());
    let intrinsics: [(&str, &str, Vec<Arg>); 4] = [
        (
            "__m256d widen(__m128 v) { return _mm256_cvtps_pd(v); }",
            "widen",
            vec![Arg::Val(lanes(&[0.5, -1.25, 3.0, 0.1f32 as f64]))],
        ),
        (
            "__m256d select(__m256d mask, __m256d x) { return _mm256_andnot_pd(mask, x); }",
            "select",
            vec![
                Arg::Val(Value::VecInterval(vec![
                    F64I::from_neg_lo_hi(f64::from_bits(u64::MAX), f64::from_bits(u64::MAX)),
                    F64I::from_neg_lo_hi(0.0, 0.0),
                    F64I::from_neg_lo_hi(f64::from_bits(u64::MAX), f64::from_bits(u64::MAX)),
                    F64I::from_neg_lo_hi(0.0, 0.0),
                ])),
                Arg::Val(lanes(&[1.5, -2.5, 3.5, -4.5])),
            ],
        ),
        (
            "__m256 recip(__m256 a, __m256 b) { return _mm256_div_ps(a, b); }",
            "recip",
            vec![
                Arg::Val(lanes(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])),
                Arg::Val(lanes(&[3.0, 2.75, 2.5, 2.25, 2.0, 1.75, 1.5, 1.25])),
            ],
        ),
        (
            "void widen(float* x, double* out) {
                __m128 v = _mm_loadu_ps(x);
                __m256d d = _mm256_cvtps_pd(v);
                __m256d e = _mm256_movedup_pd(d);
                _mm256_storeu_pd(out, _mm256_add_pd(d, e));
            }",
            "widen",
            vec![
                Arg::Ivals(
                    [0.5, -1.25, 3.0, 0.1f32 as f64].iter().map(|&v| F64I::point(v)).collect(),
                ),
                Arg::Ivals(vec![F64I::ZERO; 4]),
            ],
        ),
    ];
    for (k, (src, func, args)) in intrinsics.into_iter().enumerate() {
        let unit = compile_printed(src, Config::default());
        cases.push(case(format!("intrinsics#{k} {func}"), unit, func, args));
    }

    // Float-mode control flow, memory and libm; SIMD float intrinsics.
    let a = vec![0.5, -1.5, 2.25, 3.0, -0.75, 1.0, 4.5];
    cases.push(case(
        "kitchen-sink float",
        parse(KITCHEN_SINK),
        "kitchen",
        vec![Arg::F64s(a), Arg::Val(Value::Int(7))],
    ));
    cases.push(case(
        "simd float",
        parse(SIMD_FLOAT),
        "axpy4",
        vec![
            Arg::F64s(vec![1.0, -2.0, 3.0, -4.0]),
            Arg::F64s(vec![0.5, 0.25, -8.0, 2.0]),
            Arg::Val(Value::F64(1.5)),
        ],
    ));

    // Reductions through the accumulator builtins, in f64 and dd.
    let a: Vec<F64I> = (0..24).map(|k| F64I::point((k as f64 - 11.5) * 0.3)).collect();
    let b: Vec<F64I> = (0..24).map(|k| F64I::point(1.0 / (k as f64 + 1.5))).collect();
    for prec in [Precision::F64, Precision::Dd] {
        let cfg = Config { precision: prec, reductions: true, ..Config::default() };
        let unit = compile_printed(REDUCE, cfg);
        let args = if prec == Precision::Dd {
            vec![
                Arg::Ddis(a.iter().map(DdI::from_f64i).collect()),
                Arg::Ddis(b.iter().map(DdI::from_f64i).collect()),
            ]
        } else {
            vec![Arg::Ivals(a.clone()), Arg::Ivals(b.clone())]
        };
        cases.push(case(format!("reduce {prec:?}"), unit, "dot", args));
    }

    // Integer edges past the range of `long`: every operator wraps, and
    // `>>` shifts the bit pattern logically. igen-vm's lowering
    // evaluates integer control flow the same way (tests/vm_identity.rs).
    let min = "long m = -9223372036854775807 - n;";
    let int_edges = [
        ("-8 >> 1", "return n >> 1;".to_string(), -8),
        ("MIN / -1", format!("{min} return m / -1;"), 1),
        ("MIN % -1", format!("{min} return m % -1;"), 1),
        ("MIN /= -1", format!("{min} m /= -1; return m;"), 1),
        ("-MIN", format!("{min} return -m;"), 1),
        ("MAX++", "long p = 9223372036854775806 + n; p++; return p;".to_string(), 1),
        ("++MAX", "long p = 9223372036854775806 + n; return ++p;".to_string(), 1),
        ("MIN--", format!("{min} m--; return m;"), 1),
    ];
    for (name, body, n) in int_edges {
        let unit = parse(&format!("long f(long n) {{ {body} }}"));
        cases.push(case(format!("int {name}"), unit, "f", vec![Arg::Val(Value::Int(n))]));
    }

    // Error programs: each fails lazily, at the step that reaches it.
    let iv = |lo, hi| Arg::Val(Value::Interval(ival(lo, hi)));
    let branch =
        "double f(double x) { double y = 0.0; if (x < 1.0) y = x; else y = -x; return y; }";
    cases.push(case(
        "error unknown branch",
        compile(branch, OptLevel::O0, Precision::F64),
        "f",
        vec![iv(0.5, 1.5)],
    ));
    cases.push(case(
        "error known branch",
        compile(branch, OptLevel::O0, Precision::F64),
        "f",
        vec![iv(1.5, 2.5)],
    ));
    let errors: [(&str, &str, &'static str, Vec<Arg>); 9] = [
        (
            "out-of-bounds",
            "double f(double* a) { double s = 0.0; for (int i = 0; i <= 4; i++) s = s + a[i]; return s; }",
            "f",
            vec![Arg::F64s(vec![1.0, 2.0, 3.0, 4.0])],
        ),
        (
            "missing variable",
            "double f(double x) { double y = x * 2.0; if (y > 100.0) return zz; return y + w; }",
            "f",
            vec![Arg::Val(Value::F64(1.0))],
        ),
        (
            "missing function",
            "double f(double x) { double y = x + 1.0; return nowhere(y, x * 2.0); }",
            "f",
            vec![Arg::Val(Value::F64(1.0))],
        ),
        (
            "missing entry point",
            "double f(double x) { return x; }",
            "g",
            vec![Arg::Val(Value::F64(1.0))],
        ),
        (
            "type error",
            "double f(double x) { double a[2]; a[0] = x; return x * a; }",
            "f",
            vec![Arg::Val(Value::F64(1.0))],
        ),
        (
            "integer division by zero",
            "int f(int n) { int s = 0; for (int i = n; i >= 0; i--) s = s + 10 / i; return s; }",
            "f",
            vec![Arg::Val(Value::Int(3))],
        ),
        (
            "arity",
            "double g(double a, double b) { return a + b; } double f(double x) { return g(x); }",
            "f",
            vec![Arg::Val(Value::F64(1.0))],
        ),
        (
            "interval type error",
            "f64i f(f64i x) { return ia_add_f64(x, ia_cmplt_f64(x, x)); }",
            "f",
            vec![iv(1.0, 2.0)],
        ),
        (
            "bad accumulator",
            "void f(double x) { acc_f64 a; isum_init_f64(a, x); }",
            "f",
            vec![Arg::Val(Value::F64(1.0))],
        ),
    ];
    for (name, src, func, args) in errors {
        cases.push(case(format!("error {name}"), parse(src), func, args));
    }
    cases
}

fn f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn ival_bits(i: &F64I) -> String {
    format!("[{} {}]", f64_bits(i.lo()), f64_bits(i.hi()))
}

fn ddi_bits(d: &DdI) -> String {
    let (lo, hi) = (d.lo(), d.hi());
    format!(
        "[{} {} {} {}]",
        f64_bits(lo.hi()),
        f64_bits(lo.lo()),
        f64_bits(hi.hi()),
        f64_bits(hi.lo())
    )
}

fn render(v: &Value) -> String {
    let list = |xs: Vec<String>| xs.join(",");
    match v {
        Value::Int(i) => format!("int {i}"),
        Value::F64(x) => format!("f64 {}", f64_bits(*x)),
        Value::Interval(i) => format!("f64i {}", ival_bits(i)),
        Value::Interval32(i) => {
            format!("f32i [{:08x} {:08x}]", i.lo().to_bits(), i.hi().to_bits())
        }
        Value::DdInterval(d) => format!("ddi {}", ddi_bits(d)),
        Value::TBool(t) => format!("tbool {t:?}"),
        Value::Ptr(o, off) => format!("ptr {o}+{off}"),
        Value::VecF64(xs) => format!("vecf64 {}", list(xs.iter().map(|x| f64_bits(*x)).collect())),
        Value::VecInterval(xs) => format!("vecf64i {}", list(xs.iter().map(ival_bits).collect())),
        Value::VecDdInterval(xs) => format!("vecddi {}", list(xs.iter().map(ddi_bits).collect())),
        Value::Union(lanes) => format!("union {}", list(lanes.iter().map(render).collect())),
        Value::Acc64(i) => format!("acc64 {i}"),
        Value::AccDd(i) => format!("accdd {i}"),
        Value::Unit => "void".to_string(),
    }
}

/// Runs `c` on a fresh interpreter under `budget`; returns the outcome
/// line (result value and array read-backs, or the error text).
fn run(c: &Case, budget: u64) -> Result<String, RtError> {
    let mut it = Interp::new(&c.unit);
    it.step_budget = budget;
    let mut vals = Vec::new();
    let mut arrays = Vec::new();
    for a in &c.args {
        let v = match a {
            Arg::Val(v) => v.clone(),
            Arg::F64s(xs) => it.alloc_f64(xs),
            Arg::Ivals(xs) => it.alloc_interval(xs),
            Arg::Ddis(xs) => it.alloc_ddi(xs),
        };
        if !matches!(a, Arg::Val(_)) {
            arrays.push((a, v.clone()));
        }
        vals.push(v);
    }
    let ret = it.call(c.func, vals)?;
    let mut line = render(&ret);
    for (a, ptr) in arrays {
        let read = match a {
            Arg::F64s(xs) => it.read_f64(&ptr, xs.len()).into_iter().map(f64_bits).collect(),
            Arg::Ivals(xs) => it.read_interval(&ptr, xs.len()).iter().map(ival_bits).collect(),
            Arg::Ddis(xs) => it.read_ddi(&ptr, xs.len()).iter().map(ddi_bits).collect(),
            Arg::Val(_) => unreachable!("scalars are not read back"),
        };
        let read: Vec<String> = read;
        let _ = write!(line, " | {}", read.join(","));
    }
    Ok(line)
}

/// The outcome at an unlimited budget and the smallest budget that
/// reaches it (exponential then binary search; the step count is
/// monotone in the budget).
fn pin(c: &Case) -> String {
    let outcome = |b| run(c, b).map_err(|e| (e.to_string(), e == RtError::StepBudget));
    let full = outcome(u64::MAX);
    assert!(!matches!(full, Err((_, true))), "{}: exhausts an unlimited budget", c.name);
    let exhausts = |b| matches!(outcome(b), Err((_, true)));
    let mut hi = 0u64;
    if exhausts(0) {
        hi = 1;
        while exhausts(hi) {
            hi *= 2;
        }
        let mut lo = hi / 2; // exhausts
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if exhausts(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    assert_eq!(outcome(hi), full, "{}: outcome at the minimal budget differs", c.name);
    if hi > 0 {
        assert_eq!(
            run(c, hi - 1),
            Err(RtError::StepBudget),
            "{}: one step below the minimal budget must exhaust it",
            c.name
        );
    }
    let what = match full {
        Ok(line) => format!("ok {line}"),
        Err((msg, _)) => format!("error {msg}"),
    };
    format!("{}\n  steps {hi}\n  {what}\n", c.name)
}

#[test]
fn interpreter_semantics_match_the_pinned_corpus() {
    let got: String = corpus().iter().map(pin).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/semantics_pin.txt");
    if std::env::var_os("IGEN_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect(
        "golden missing; regenerate with IGEN_REGEN_GOLDEN=1 cargo test -p igen-interp --test semantics_pin",
    );
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "semantics drifted at line {}", k + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "corpus size drifted");
}
