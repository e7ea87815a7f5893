//! The source→`BatchProgram` pipeline, extracted from the three call
//! sites that used to inline it (`igen-cli run`, `igen-cli profile`,
//! the gauntlet's `compiled-vm` backend).
//!
//! Everything here is deterministic: the same [`CompileRequest`]
//! always yields the same bytecode, bit for bit (trace-lowering and
//! the peephole pass are deterministic; see DESIGN.md §14/§15). That
//! is what makes the compiled unit safe to cache and share across
//! threads.
//!
//! The insert-time self-check and the seeded input batches are written
//! once, generic over the interval element ([`SessionElem`]: `F64I` or
//! `DdI`); the request's precision only picks the element.

use igen_batch::{BatchDdI, BatchF64I, BatchProgram, SoaBatch};
use igen_core::{
    compile_to_program, compile_to_program_raw, verify_bit_identity, CompileError, Compiler,
    Config, Output, Precision, RefElem,
};
use igen_interval::{DdI, F64I};
use igen_kernels::workload;
use igen_vm::{ArgBind, BindSpec};
use std::fmt;
use std::sync::Arc;

/// How the compiled function's parameters are bound for batched
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BindRequest {
    /// A fully explicit binding (the gauntlet's mode: the caller knows
    /// the program layout it wants).
    Explicit(BindSpec),
    /// Derive the binding from the function signature (the CLI's
    /// mode): interval scalars bind as `Ival`, pointers/arrays as
    /// `InOut` with the per-name length from `lens` (default `size`),
    /// and integer parameters must be fixed by name in `int_args`.
    FromParams {
        /// `--arg name=INT` fixings for integer parameters.
        int_args: Vec<(String, i64)>,
        /// `--len name=N` element counts behind pointer parameters.
        lens: Vec<(String, usize)>,
        /// Default pointer-parameter length.
        size: usize,
    },
}

/// One compilation request. Every field except `origin` participates
/// in the cache key; `origin` only labels error messages (the CLI
/// passes the input path, the service passes a request tag).
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The C source text.
    pub source: Arc<str>,
    /// Where the source came from, for error messages.
    pub origin: String,
    /// Function to compile (`None` = the file's only definition).
    pub fn_name: Option<String>,
    /// Full compiler configuration (precision, opt level, policies).
    pub cfg: Config,
    /// Parameter binding.
    pub bind: BindRequest,
    /// Run the endpoint-exact bytecode peephole pass (the default);
    /// `false` executes the raw SSA lowering — same bits, more
    /// instructions.
    pub peephole: bool,
}

impl CompileRequest {
    /// A request with the defaults the execution front doors use:
    /// `-O2`, f64 endpoints, peephole on, binding derived from the
    /// signature with default pointer length 8.
    pub fn new(source: impl Into<Arc<str>>, origin: impl Into<String>) -> CompileRequest {
        CompileRequest {
            source: source.into(),
            origin: origin.into(),
            fn_name: None,
            cfg: Config { opt_level: igen_core::OptLevel::O2, ..Config::default() },
            bind: BindRequest::FromParams { int_args: Vec::new(), lens: Vec::new(), size: 8 },
            peephole: true,
        }
    }
}

/// A verified, executable compilation artifact: the compiler output
/// (IR, transformed C), the resolved binding, and the prepared batch
/// program. Shared behind `Arc` by the cache; `BatchProgram::run`
/// takes `&self`, so one unit serves any number of concurrent callers.
pub struct CompiledUnit {
    /// The full compiler output the program was lowered from.
    pub out: Output,
    /// The compiled function's name (resolved from the request).
    pub fn_name: String,
    /// The resolved parameter binding.
    pub bind: BindSpec,
    /// The prepared batch program (its `program()` accessor returns
    /// the exact bytecode that executes, for `--emit-bytecode`).
    pub batch: BatchProgram,
}

impl CompiledUnit {
    /// Interval inputs consumed per batch item.
    pub fn n_inputs(&self) -> usize {
        self.batch.program().n_inputs as usize
    }

    /// Interval outputs produced per batch item.
    pub fn n_outputs(&self) -> usize {
        self.batch.program().outputs.len()
    }
}

/// A pipeline failure, each variant preserving the exact one-line
/// message the pre-refactor CLI printed for the same failure.
#[derive(Debug)]
pub enum SessionError {
    /// Front-end compilation failed (`"{origin}: {err}"`).
    Compile {
        /// The request's `origin` label.
        origin: String,
        /// The compiler diagnostic.
        err: CompileError,
    },
    /// Function selection failed — a usage error (exit 2 at the CLI).
    Function(String),
    /// Binding construction failed — a usage error (exit 2 at the CLI).
    Bind(String),
    /// Bytecode lowering rejected the function (`"{fn_name}: {err}"`).
    Lower {
        /// The function that failed to lower.
        fn_name: String,
        /// The lowering diagnostic.
        err: String,
    },
    /// The insert-time differential self-check failed
    /// (`"{fn_name}: {err}"`).
    Verify {
        /// The function that failed verification.
        fn_name: String,
        /// The mismatch diagnostic.
        err: String,
    },
    /// The program binds no interval inputs, so there is nothing to
    /// batch over.
    NoInputs {
        /// The function with an empty interval signature.
        fn_name: String,
    },
}

impl SessionError {
    /// Whether this is a usage error (the CLI exits 2) rather than a
    /// compilation/verification failure (exit 1).
    pub fn is_usage(&self) -> bool {
        matches!(self, SessionError::Function(_) | SessionError::Bind(_))
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Compile { origin, err } => write!(f, "{origin}: {err}"),
            SessionError::Function(msg) | SessionError::Bind(msg) => write!(f, "{msg}"),
            SessionError::Lower { fn_name, err } | SessionError::Verify { fn_name, err } => {
                write!(f, "{fn_name}: {err}")
            }
            SessionError::NoInputs { fn_name } => {
                write!(f, "{fn_name}: function binds no interval inputs to batch over")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Picks the function to compile: the requested name, or the file's
/// only definition.
fn pick_function(out: &Output, want: Option<String>, origin: &str) -> Result<String, String> {
    let names: Vec<&str> = out.ir.functions().map(|f| f.name.as_str()).collect();
    match want {
        Some(n) => {
            if !names.contains(&n.as_str()) {
                return Err(format!("no function '{n}' in {origin}"));
            }
            Ok(n)
        }
        None => match names.as_slice() {
            [only] => Ok(only.to_string()),
            _ => Err(format!(
                "{origin} defines {} functions; pick one with --fn <name>",
                names.len()
            )),
        },
    }
}

/// Binds parameters for batched execution: interval scalars and arrays
/// feed the batch, integer parameters are fixed via `int_args`, pointer
/// lengths come from `lens` (default `size`).
fn build_binds(
    func: &igen_ir::IrFunction,
    int_args: &[(String, i64)],
    lens: &[(String, usize)],
    size: usize,
) -> Result<BindSpec, String> {
    use igen_cfront::Type;
    let mut binds = Vec::new();
    for p in &func.params {
        match &p.ty {
            Type::Named(_) => binds.push(ArgBind::Ival),
            Type::Ptr(_) | Type::Array(_, _) => {
                let len = lens.iter().find(|(n, _)| *n == p.name).map(|&(_, l)| l).unwrap_or(size);
                binds.push(ArgBind::InOut(len));
            }
            Type::Int | Type::UInt | Type::Long | Type::ULong => {
                match int_args.iter().find(|(n, _)| *n == p.name) {
                    Some(&(_, v)) => binds.push(ArgBind::Int(v)),
                    None => {
                        return Err(format!(
                            "integer parameter '{}' needs --arg {}=<value>",
                            p.name, p.name
                        ))
                    }
                }
            }
            other => {
                return Err(format!("parameter '{}' has unsupported type {other:?}", p.name));
            }
        }
    }
    Ok(BindSpec::new(binds))
}

/// Items the insert-time self-check runs through the differential
/// interpreter (matches the prefix size `igen-cli run` checks).
const SELF_CHECK_ITEMS: usize = 8;

/// Seed of the self-check workload (fixed: verification must be a pure
/// function of the program, not of any caller-chosen seed).
const SELF_CHECK_SEED: u64 = 0x5e55;

/// Differentially verifies `prog` against the reference interpreter on
/// a small deterministic workload — the "verified" in "the cache holds
/// verified programs".
fn self_check<T: SessionElem>(
    out: &Output,
    prog: &igen_vm::Program,
    bind: &BindSpec,
) -> Result<(), String> {
    let ivals = T::draw_1ulp(SELF_CHECK_SEED, SELF_CHECK_ITEMS * prog.n_inputs as usize);
    verify_bit_identity(out, prog, bind, &ivals).map_err(|e| e.to_string())
}

/// Runs the full pipeline once, bypassing any cache: compile the
/// source, pick the function, resolve the binding, lower to bytecode,
/// optionally run the differential self-check, and prepare the batch
/// program.
///
/// The one-shot CLI paths pass `verify: false` and run their own
/// differential check over the user-seeded workload (so their output
/// stays byte-identical to the pre-refactor inline pipeline);
/// [`crate::Session::compile`] passes `true` so every *cached* program
/// is a verified program.
pub fn compile_uncached(req: &CompileRequest, verify: bool) -> Result<CompiledUnit, SessionError> {
    let out = Compiler::new(req.cfg)
        .compile_str(&req.source)
        .map_err(|err| SessionError::Compile { origin: req.origin.clone(), err })?;
    let fn_name =
        pick_function(&out, req.fn_name.clone(), &req.origin).map_err(SessionError::Function)?;
    let bind = match &req.bind {
        BindRequest::Explicit(b) => b.clone(),
        BindRequest::FromParams { int_args, lens, size } => {
            let func =
                out.ir.functions().find(|f| f.name == fn_name).expect("picked function exists");
            build_binds(func, int_args, lens, *size).map_err(SessionError::Bind)?
        }
    };
    let prog = if req.peephole {
        compile_to_program(&out, &fn_name, &bind)
    } else {
        compile_to_program_raw(&out, &fn_name, &bind)
    }
    .map_err(|e| SessionError::Lower { fn_name: fn_name.clone(), err: e.to_string() })?;
    if prog.n_inputs == 0 {
        return Err(SessionError::NoInputs { fn_name });
    }
    if verify {
        let check = match req.cfg.precision {
            Precision::Dd => self_check::<DdI>,
            _ => self_check::<F64I>,
        };
        check(&out, &prog, &bind)
            .map_err(|err| SessionError::Verify { fn_name: fn_name.clone(), err })?;
    }
    Ok(CompiledUnit { out, fn_name, bind, batch: BatchProgram::new(prog) })
}

/// An interval element the session runs: the reference check's
/// element plus its seeded input draw.
pub trait SessionElem: RefElem {
    /// `n` intervals of width 1 ulp around points drawn in `[-2, 2)`
    /// from a generator seeded with `seed` (the paper's inputs,
    /// Section VII; a double-double point has a nonzero low word).
    fn draw_1ulp(seed: u64, n: usize) -> Vec<Self>;
}

impl SessionElem for F64I {
    fn draw_1ulp(seed: u64, n: usize) -> Vec<F64I> {
        let mut rng = workload::rng(seed);
        workload::intervals_1ulp(&workload::random_points(&mut rng, n, -2.0, 2.0))
    }
}

impl SessionElem for DdI {
    fn draw_1ulp(seed: u64, n: usize) -> Vec<DdI> {
        workload::dd_intervals_1ulp(&mut workload::rng(seed), n, -2.0, 2.0)
    }
}

/// Deterministic workload for `items` batch items of `unit` (the
/// generator `igen-cli run` uses, shared so the service's seeded runs
/// and the CLI produce identical inputs for identical seeds).
pub fn workload<T: SessionElem>(unit: &CompiledUnit, items: usize, seed: u64) -> SoaBatch<T> {
    SoaBatch::from_intervals(&T::draw_1ulp(seed, items * unit.n_inputs()))
}

/// [`workload()`] at f64, under the name the `igen-ledger` benchmark
/// still calls.
pub fn workload_f64(unit: &CompiledUnit, items: usize, seed: u64) -> BatchF64I {
    workload(unit, items, seed)
}

/// [`workload()`] at double-double, under the name the `igen-ledger`
/// benchmark still calls.
pub fn workload_dd(unit: &CompiledUnit, items: usize, seed: u64) -> BatchDdI {
    workload(unit, items, seed)
}
