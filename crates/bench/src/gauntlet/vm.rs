//! One-file gauntlet plug-in for the bytecode VM: the five paper
//! kernels as plain C ([`crate::compiled`]), compiled through the full
//! IGen pipeline at `-O2`, lowered to register bytecode, peepholed
//! (endpoint-exact rewrites + liveness register renumbering), and
//! executed by the tiled instruction-major `igen-vm` executor over
//! `igen-batch` SoA buffers — the "compile any function" path, and the
//! gauntlet's one packed-path contender.
//!
//! Compilation, the peephole pass and constant hoisting happen at
//! `instantiate` (untimed setup); the timed closure only executes
//! prepared bytecode over per-worker tile banks. One worker thread, so
//! the column isolates the execution model from thread scaling. Every
//! kernel runs the packed tile path: GEMM is the mvm program batched
//! over the 16 columns of `B` and `C`, so its columns fill the lanes.

use crate::compiled;
use igen_baselines::backend::{IntervalBackend, IvalVec, Kernel, KernelCase};
use igen_batch::{BatchConfig, BatchF64I};
use igen_core::Precision;
use igen_interval::F64I;
use igen_kernels::ffnn::Ffnn;

/// The compiled-bytecode backend.
pub struct VmBackend;

fn intervals(v: &IvalVec) -> Vec<F64I> {
    v.lo.iter()
        .zip(&v.hi)
        .map(|(&l, &h)| F64I::new(l, h).expect("gauntlet inputs are valid intervals"))
        .collect()
}

fn to_ivalvec(xs: &[F64I]) -> IvalVec {
    let mut out = IvalVec::with_capacity(xs.len());
    for v in xs {
        out.push(v.lo(), v.hi());
    }
    out
}

impl IntervalBackend for VmBackend {
    fn name(&self) -> &'static str {
        "compiled-vm"
    }

    fn style(&self) -> &'static str {
        "C compiled to register bytecode, lane-generic executor over SoA batches, 1 thread"
    }

    fn packed_path(&self) -> bool {
        true
    }

    fn instantiate<'a>(&'a self, case: &'a KernelCase) -> Box<dyn FnMut() -> IvalVec + 'a> {
        let (n, iters) = (case.n, case.iters);
        let cfg = BatchConfig::new().with_threads(1);
        let f64 = Precision::F64;
        let (x, y) = (intervals(&case.x), intervals(&case.y));
        let (unit, items) = match case.kernel {
            Kernel::Dot => (compiled::dot(n, f64), compiled::zip_items(n, &x, &y)),
            Kernel::Mvm => {
                (compiled::mvm(&intervals(&case.w), n, f64), compiled::zip_items(n, &x, &y))
            }
            Kernel::Gemm => {
                let unit = compiled::mvm(&intervals(&case.w), n, f64);
                let inputs = BatchF64I::from_intervals(&compiled::gemm_items(n, &x, &y));
                return Box::new(move || {
                    let columns = unit.batch.run(&cfg, &inputs).to_intervals();
                    to_ivalvec(&compiled::gemm_result(n, &columns))
                });
            }
            Kernel::Henon => (compiled::henon(iters, f64), compiled::zip_items(1, &x, &y)),
            Kernel::Ffnn => (compiled::ffnn(&Ffnn::synthetic(n, case.ffnn_seed), f64), x),
        };
        let inputs = BatchF64I::from_intervals(&items);
        Box::new(move || to_ivalvec(&unit.batch.run(&cfg, &inputs).to_intervals()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauntlet::numeric::NumericBackend;

    /// The bytecode path must reproduce the scalar kernels' operation
    /// sequences: bit-identical outputs to the scalar F64I backend on
    /// every shipped gauntlet case, gemm included.
    #[test]
    fn vm_outputs_are_bit_identical_to_scalar_f64i() {
        let scalar = NumericBackend::<F64I>::new("igen-f64", "test");
        for case in crate::gauntlet::cases() {
            let got = VmBackend.instantiate(&case)();
            let want = scalar.instantiate(&case)();
            assert_eq!(got.len(), want.len(), "{}", case.kernel);
            for i in 0..got.len() {
                let (gl, gh) = got.get(i);
                let (wl, wh) = want.get(i);
                assert!(
                    gl.to_bits() == wl.to_bits() && gh.to_bits() == wh.to_bits(),
                    "{} item {i}: vm [{gl},{gh}] != scalar [{wl},{wh}]",
                    case.kernel
                );
            }
        }
    }
}
