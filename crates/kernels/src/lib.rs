//! `igen-kernels`: the benchmark computations of the paper's evaluation
//! (Table IV plus the Section VI-B and VII-C benchmarks), written once
//! and instantiated at every arithmetic back end.
//!
//! | Benchmark | Paper's base implementation | Here |
//! |-----------|------------------------------|------|
//! | `fft`     | Spiral-generated             | [`fft`](mod@fft) iterative radix-2 (+ unrolled variants) |
//! | `gemm`    | ATLAS                        | [`linalg::gemm`] (+ unrolled) |
//! | `potrf`   | SLinGen                      | [`linalg::potrf`] (+ unrolled) |
//! | `ffnn`    | MNIST-trained dense network  | [`ffnn::Ffnn`] synthetic (documented substitution) |
//! | `mvm`     | double loop (Fig. 7)         | [`linalg::mvm`] + accumulator variants |
//! | Hénon map | Fig. 11                      | [`henon()`] (+ affine version) |
//!
//! The `ss`/`sv`/`vv` configurations of Fig. 8 map to the scalar kernels
//! and their 2-/4-lane unrolled variants: with software directed rounding
//! the packed-register benefit appears as independent EFT chains that the
//! compiler schedules in parallel, the same ILP the paper's SIMD output
//! exploits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ffnn;
pub mod fft;
pub mod henon;
pub mod linalg;
mod num;
pub mod workload;

pub use fft::{fft, fft_iops, fft_unrolled, twiddles};
pub use henon::{henon, henon_affine, henon_from, henon_iops};
pub use num::Numeric;
