//! `igen-batch`: a parallel batch-evaluation engine over the IGen
//! interval runtime.
//!
//! The paper's runtime (and this reproduction's `igen-interval` /
//! `igen-kernels` crates) evaluates one kernel instance at a time. Real
//! deployments of a sound-arithmetic runtime are batch-shaped — many dot
//! products, many initial conditions, many inference inputs — so this
//! crate adds the missing throughput layer:
//!
//! * [`soa`] — structure-of-arrays interval buffers: one struct,
//!   [`SoaBatch`], generic over the element, with the aliases
//!   [`BatchF64I`] and [`BatchDdI`]. Its columns hold the element's
//!   words in the intervals' internal (negated-low) representation,
//!   feeding the `vector.rs` lane types with plain strided loads.
//! * [`engine`] — a chunked multi-threaded ordered map
//!   ([`engine::par_map_indexed`]) built on `std::thread::scope`
//!   (`rayon` is unavailable offline — documented substitution), with a
//!   configurable sequential fallback threshold ([`BatchConfig`]).
//! * [`program`] — [`BatchProgram`], which runs a compiled bytecode
//!   program (any C function the compiler accepts, the paper kernels
//!   included) over an SoA batch, four items per packed register.
//!
//! # Soundness and determinism
//!
//! All directed rounding in this workspace is *software* rounding via
//! error-free transformations — a pure function of its inputs. Batching
//! therefore cannot change results: every batch item executes the
//! program's operation sequence (four items per packed register,
//! element-wise lane ops), so outputs are **bit-identical to the scalar
//! path at any thread count**. `tests/vm_tile.rs` and the compiled
//! paper kernels' suite in `igen-bench` enforce this.
//!
//! # Example
//!
//! ```
//! use igen_batch::engine::par_map_indexed;
//! use igen_batch::{BatchConfig, BatchF64I};
//! use igen_interval::F64I;
//!
//! // 8 vectors of length 3, batched item-major.
//! let xs: BatchF64I = (0..24).map(|i| F64I::point(i as f64)).collect();
//! let cfg = BatchConfig::new().with_threads(2).with_seq_threshold(0);
//! // One sound dot product per item, the items split across threads.
//! let dots = par_map_indexed(&cfg, 8, |b| {
//!     (0..3).fold(F64I::ZERO, |acc, j| acc + xs.get(b * 3 + j) * xs.get(b * 3 + j))
//! });
//! assert_eq!(dots.len(), 8);
//! assert_eq!(dots[0].hi(), 0.0 + 1.0 + 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod program;
pub mod soa;

pub use engine::{available_threads, BatchConfig, DEFAULT_SEQ_THRESHOLD};
pub use igen_vm::DEFAULT_TILE_GROUPS;
pub use program::BatchProgram;
pub use soa::{BatchDdI, BatchF64I, SoaBatch};
