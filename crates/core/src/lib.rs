//! `igen-core`: **IGen**, the source-to-source interval compiler
//! (CGO 2021).
//!
//! IGen takes a C function performing floating-point computations —
//! possibly using Intel SIMD intrinsics — plus a target precision, and
//! produces an equivalent C function that computes a *sound* enclosure of
//! the result using interval arithmetic (Fig. 1 of the paper):
//!
//! * floating-point types are promoted to interval types per Table II
//!   ([`types`]);
//! * constants become sound interval enclosures with compile-time
//!   constant folding ([`consts`], Section IV-B);
//! * comparisons become three-valued `tbool` values with the paper's two
//!   branch policies ([`Config`]);
//! * SIMD intrinsics in the input are mapped onto interval
//!   implementations, hand-optimized for the common ones and otherwise
//!   generated from the vendor specification via `igen-simdgen`
//!   (Section V);
//! * annotated reductions are replaced by the accurate accumulators of
//!   Section VI-B ([`reduce`]).
//!
//! # Example
//!
//! ```
//! use igen_core::{Compiler, Config};
//!
//! let src = r#"
//!     double foo(double a, double b) {
//!         double c;
//!         c = a + b + 0.1;
//!         if (c > a) {
//!             c = a * c;
//!         }
//!         return c;
//!     }
//! "#;
//! let out = Compiler::new(Config::default()).compile_str(src).unwrap();
//! assert!(out.c_source.contains("f64i foo(f64i a, f64i b)"));
//! assert!(out.c_source.contains("ia_add_f64"));
//! assert!(out.c_source.contains("ia_cvt2bool_tb"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod consts;
mod header;
mod lower;
pub mod opt;
pub mod reduce;
mod simd;
pub mod types;
mod verify;
pub mod vm_bridge;

pub use config::{BranchPolicy, Config, OptLevel, OutputVec, Precision};
pub use header::runtime_header;
pub use lower::{CompileError, Output};
pub use opt::{PassReport, PassStats};
pub use reduce::ReductionInfo;
pub use simd::{compile_intrinsics, hand_optimized, HAND_OPTIMIZED};
pub use vm_bridge::{
    compile_to_program, compile_to_program_raw, interp_reference, interp_reference_dd,
    verify_bit_identity, verify_bit_identity_dd, RefElem, VmBridgeError,
};

use igen_cfront::TranslationUnit;

/// The IGen compiler instance.
///
/// Holds a [`Config`] and compiles translation units or source strings.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    cfg: Config,
}

impl Compiler {
    /// Creates a compiler for the given configuration.
    pub fn new(cfg: Config) -> Compiler {
        Compiler { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Compiles C source text.
    ///
    /// # Errors
    ///
    /// [`CompileError::Parse`] on frontend failures, otherwise
    /// [`CompileError::Unsupported`] for constructs outside the supported
    /// subset (Section IV-B "Limitations").
    pub fn compile_str(&self, src: &str) -> Result<Output, CompileError> {
        let tu = {
            let _span = igen_telemetry::span("compile.parse");
            igen_cfront::parse(src)?
        };
        self.compile_unit(&tu)
    }

    /// Compiles a parsed translation unit.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_str`].
    pub fn compile_unit(&self, tu: &TranslationUnit) -> Result<Output, CompileError> {
        // Layer 1 — lower: AST → three-address AST (type promotion,
        // constant enclosures, temporaries) plus detected reduction
        // groups.
        let (lowered, warnings, reduction_groups, intrinsics_used) = {
            let _span = igen_telemetry::span("compile.lower");
            lower::lower_unit(tu, &self.cfg)?
        };
        // Layer 2 — optimize: typed IR through the pass pipeline.
        let mut ir = {
            let _span = igen_telemetry::span("compile.build_ir");
            igen_ir::build_unit(&lowered)
        };
        let mut ctx = opt::PassCtx {
            cfg: &self.cfg,
            reduction_groups: reduction_groups.into(),
            reductions: Vec::new(),
        };
        let opt_report = opt::run_pipeline(&mut ir, &mut ctx)?;
        if opt_report.changed() {
            // Restore the paper's dense `t1, t2, …`/`acc1, …` numbering;
            // an unchanged IR keeps its lowering-assigned numbers (and its
            // exact bytes).
            let _span = igen_telemetry::span("compile.renumber");
            igen_ir::renumber_unit(&mut ir);
        }
        let reductions = ctx.reductions;
        // Layer 3 — emit: IR → AST → C through the existing printer.
        let _emit_span = igen_telemetry::span("compile.emit");
        let unit = igen_ir::emit_unit(&ir);
        let mut c_source = igen_cfront::print_unit(&unit);
        // The requested register-packing configuration (Fig. 8's sv/vv)
        // is recorded in the output; the packing itself is a register-
        // allocation concern realized by the runtime's lane-vector
        // kernels (see DESIGN.md row 9). The default (ss) emits no
        // banner so the paper's listings stay byte-exact.
        match self.cfg.vectorize {
            config::OutputVec::Scalar => {}
            config::OutputVec::Sse => {
                c_source =
                    format!("/* igen configuration: sv (one interval per __m128d) */\n{c_source}");
            }
            config::OutputVec::Avx => {
                c_source =
                    format!("/* igen configuration: vv (packed interval vectors) */\n{c_source}");
            }
        }
        Ok(Output { unit, c_source, warnings, reductions, intrinsics_used, ir, opt_report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Output {
        Compiler::new(Config::default()).compile_str(src).unwrap()
    }

    fn compile_cfg(src: &str, cfg: Config) -> Output {
        Compiler::new(cfg).compile_str(src).unwrap()
    }

    #[test]
    fn fig2_transformation() {
        let out = compile(
            r#"
            double foo(double a, double b) {
                double c;
                c = a + b + 0.1;
                if (c > a) {
                    c = a * c;
                }
                return c;
            }
        "#,
        );
        let c = &out.c_source;
        assert!(c.starts_with("#include \"igen_lib.h\""), "{c}");
        assert!(c.contains("f64i foo(f64i a, f64i b)"), "{c}");
        assert!(c.contains("f64i c;"), "{c}");
        // Temporaries as in Fig. 2.
        assert!(c.contains("f64i t1 = ia_add_f64(a, b);"), "{c}");
        assert!(c.contains("ia_set_f64(0.09999999999999999"), "{c}");
        assert!(c.contains("c = ia_add_f64(t1, t2);"), "{c}");
        assert!(c.contains("tbool t"), "{c}");
        assert!(c.contains("ia_cmpgt_f64(c, a)"), "{c}");
        assert!(c.contains("if (ia_cvt2bool_tb("), "{c}");
        assert!(c.contains("c = ia_mul_f64(a, c);"), "{c}");
        // The output re-parses.
        igen_cfront::parse(c).unwrap();
    }

    #[test]
    fn fig3_language_extensions() {
        let out = compile(
            r#"
            double read_sensor(double:0.125 a) {
                double c = 5.0 + 0.25t;
                return a + c;
            }
        "#,
        );
        let c = &out.c_source;
        assert!(c.contains("f64i read_sensor(double a)"), "{c}");
        assert!(c.contains("f64i _a = ia_set_tol_f64(a, 0.125);"), "{c}");
        // Constant folded: 5.0 + 0.25t = [4.75, 5.25] (2-ulp slack from
        // the representable-constant rule widens the printed endpoints).
        assert!(c.contains("f64i c = ia_set_f64(4.7"), "{c}");
        assert!(c.contains("ia_add_f64(_a, c)"), "{c}");
        igen_cfront::parse(c).unwrap();
    }

    #[test]
    fn fig7_reduction_transformation() {
        let cfg = Config { reductions: true, ..Config::default() };
        let out = compile_cfg(
            r#"
            void mvm(double* A, double* x, double* y) {
                #pragma igen reduce y
                for (int i = 0; i < 100; i++)
                    for (int j = 0; j < 500; j++)
                        y[i] = y[i] + A[i*500+j]*x[j];
            }
        "#,
            cfg,
        );
        let c = &out.c_source;
        assert_eq!(out.reductions.len(), 1);
        assert_eq!(out.reductions[0].carrying_loops, vec!["j".to_string()]);
        assert!(c.contains("void mvm(f64i* A, f64i* x, f64i* y)"), "{c}");
        assert!(c.contains("acc_f64 acc1;"), "{c}");
        assert!(c.contains("isum_init_f64(&acc1, y[i]);"), "{c}");
        assert!(c.contains("ia_mul_f64(A[i * 500 + j], x[j])"), "{c}");
        assert!(c.contains("isum_accumulate_f64(&acc1,"), "{c}");
        assert!(c.contains("y[i] = isum_reduce_f64(&acc1);"), "{c}");
        igen_cfront::parse(c).unwrap();
    }

    #[test]
    fn reduction_requires_pragma_and_flag() {
        // Without the flag the pragma is dropped and the loop is a plain
        // interval loop.
        let out = compile(
            r#"
            void mvm(double* A, double* x, double* y) {
                #pragma igen reduce y
                for (int i = 0; i < 4; i++)
                    y[i] = y[i] + A[i]*x[i];
            }
        "#,
        );
        assert!(out.reductions.is_empty());
        assert!(out.c_source.contains("ia_add_f64"));
        assert!(!out.c_source.contains("isum_"));
    }

    #[test]
    fn dd_precision_output() {
        let cfg = Config { precision: Precision::Dd, ..Config::default() };
        let out = compile_cfg("double sq(double x) { return x * x; }", cfg);
        assert!(out.c_source.contains("ddi sq(ddi x)"), "{}", out.c_source);
        assert!(out.c_source.contains("ia_mul_dd(x, x)"), "{}", out.c_source);
    }

    #[test]
    fn constant_folding() {
        let out = compile("double f(double x) { return x + (2.0 + 0.1); }");
        // 2.0 + 0.1 folds into a single ia_set_f64 constant enclosing 2.1.
        assert!(out.c_source.contains("ia_set_f64(2.0999999999999996, 2.1"), "{}", out.c_source);
        let count = out.c_source.matches("ia_add_f64").count();
        assert_eq!(count, 1, "{}", out.c_source);
    }

    #[test]
    fn elementary_functions_mapped() {
        let out = compile("double f(double x) { return sin(x) + sqrt(fabs(x)) + exp(log(x)); }");
        for name in ["ia_sin_f64", "ia_sqrt_f64", "ia_abs_f64", "ia_exp_f64", "ia_log_f64"] {
            assert!(out.c_source.contains(name), "{name} missing:\n{}", out.c_source);
        }
    }

    #[test]
    fn float_to_int_cast_rejected() {
        let err = Compiler::new(Config::default())
            .compile_str("int f(double x) { return (int)x; }")
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn malloc_warns() {
        let out = compile("void f(double* a) { a = malloc(8); a[0] = 1.0; }");
        assert_eq!(out.warnings.len(), 1);
        assert!(out.warnings[0].contains("malloc"));
    }

    #[test]
    fn simd_input_mapped_to_interval_intrinsics() {
        let out = compile(
            r#"
            __m256d scale(__m256d x, __m256d y) {
                __m256d p = _mm256_mul_pd(x, y);
                return _mm256_add_pd(p, x);
            }
        "#,
        );
        let c = &out.c_source;
        assert!(c.contains("m256di_2 scale(m256di_2 x, m256di_2 y)"), "{c}");
        assert!(c.contains("ia_mm256_mul_pd(x, y)"), "{c}");
        assert!(c.contains("ia_mm256_add_pd(p, x)"), "{c}");
        assert_eq!(out.intrinsics_used, vec!["_mm256_mul_pd", "_mm256_add_pd"]);
    }

    #[test]
    fn join_branch_policy() {
        let cfg = Config { branch_policy: BranchPolicy::JoinBranches, ..Config::default() };
        let out = compile_cfg(
            r#"
            double f(double x) {
                double y = 1.0;
                if (x > 0.0) {
                    y = x;
                } else {
                    y = -x;
                }
                return y;
            }
        "#,
            cfg,
        );
        let c = &out.c_source;
        assert!(c.contains("ia_is_true_tb"), "{c}");
        assert!(c.contains("ia_is_false_tb"), "{c}");
        assert!(c.contains("ia_join_f64"), "{c}");
        igen_cfront::parse(c).unwrap();
    }

    #[test]
    fn join_policy_falls_back_on_array_writes() {
        let cfg = Config { branch_policy: BranchPolicy::JoinBranches, ..Config::default() };
        let out = compile_cfg(
            r#"
            void f(double* a, double x) {
                if (x > 0.0) {
                    a[0] = x;
                }
            }
        "#,
            cfg,
        );
        assert!(!out.warnings.is_empty());
        assert!(out.c_source.contains("ia_cvt2bool_tb"), "{}", out.c_source);
        assert!(!out.c_source.contains("ia_join_f64"));
    }

    #[test]
    fn loops_with_interval_conditions() {
        let out = compile(
            r#"
            double f(double x) {
                while (x < 100.0) {
                    x = x * 2.0;
                }
                return x;
            }
        "#,
        );
        assert!(out.c_source.contains("while (ia_cvt2bool_tb(ia_cmplt_f64(x,"), "{}", out.c_source);
    }

    #[test]
    fn henon_compiles() {
        let out = compile(
            r#"
            double henon_map(double x, double y, int iterations) {
                double a = 1.05;
                double b = 0.3;
                for (int i = 0; i < iterations; i++) {
                    double xi = x;
                    double yi = y;
                    x = 1 - a*xi*xi + yi;
                    y = b*xi;
                }
                return x;
            }
        "#,
        );
        let c = &out.c_source;
        // The integer literal 1 is lifted into the interval expression.
        assert!(c.contains("ia_sub_f64"), "{c}");
        assert!(c.contains("f64i henon_map(f64i x, f64i y, int iterations)"), "{c}");
        igen_cfront::parse(c).unwrap();
    }
}
