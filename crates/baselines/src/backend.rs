//! The cross-library benchmark gauntlet's backend abstraction.
//!
//! Following "A Cross-Platform Benchmark for Interval Computation
//! Libraries" (arXiv 2110.06215), every interval implementation in the
//! workspace — the library-style baselines in this crate, the production
//! `igen-interval` types, the packed `igen-batch` path and the `igen-mpf`
//! oracle — is driven through **one trait** over **one shared kernel
//! set**, so performance and accuracy comparisons are apples-to-apples
//! and machine-checkable.
//!
//! The trait deliberately speaks plain `f64` endpoint buffers
//! ([`IvalVec`]): conversion into a backend's own representation happens
//! inside [`IntervalBackend::instantiate`], *outside* the timed region,
//! exactly like the cross-platform benchmark's per-library adapters. The
//! backend adapters themselves live in `igen-bench::gauntlet`, one file
//! per backend, registered in a single table — adding a library to the
//! gauntlet is a one-file plug-in.

/// The five gauntlet kernels (the paper's batch kernel set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Batched dot products.
    Dot,
    /// Batched matrix-vector products `y ← A·x + y` (shared matrix).
    Mvm,
    /// One square GEMM `C += A·B`.
    Gemm,
    /// A Hénon orbit ensemble (final `x` per orbit).
    Henon,
    /// Batched feed-forward network inference.
    Ffnn,
}

impl Kernel {
    /// Every kernel, in canonical report order.
    pub const ALL: [Kernel; 5] =
        [Kernel::Dot, Kernel::Mvm, Kernel::Gemm, Kernel::Henon, Kernel::Ffnn];

    /// Stable lower-case name (CSV/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Dot => "dot",
            Kernel::Mvm => "mvm",
            Kernel::Gemm => "gemm",
            Kernel::Henon => "henon",
            Kernel::Ffnn => "ffnn",
        }
    }

    /// Parses a kernel name as printed by [`Kernel::name`].
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl core::fmt::Display for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A buffer of interval endpoints in structure-of-arrays form: entry `i`
/// is the interval `[lo[i], hi[i]]`. This is the lingua franca every
/// gauntlet backend consumes and produces, independent of its internal
/// representation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IvalVec {
    /// Lower endpoints.
    pub lo: Vec<f64>,
    /// Upper endpoints.
    pub hi: Vec<f64>,
}

impl IvalVec {
    /// An empty buffer.
    pub fn new() -> IvalVec {
        IvalVec::default()
    }

    /// An empty buffer with room for `n` intervals.
    pub fn with_capacity(n: usize) -> IvalVec {
        IvalVec { lo: Vec::with_capacity(n), hi: Vec::with_capacity(n) }
    }

    /// Builds from `(lo, hi)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if some `lo > hi` (NaN endpoints are allowed).
    pub fn from_pairs(pairs: &[(f64, f64)]) -> IvalVec {
        let mut v = IvalVec::with_capacity(pairs.len());
        for &(lo, hi) in pairs {
            v.push(lo, hi);
        }
        v
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.lo.len(), self.hi.len());
        self.lo.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Appends `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `lo > hi`.
    pub fn push(&mut self, lo: f64, hi: f64) {
        debug_assert!(!(lo > hi), "inverted interval [{lo}, {hi}]");
        self.lo.push(lo);
        self.hi.push(hi);
    }

    /// The `i`-th interval as `(lo, hi)`.
    pub fn get(&self, i: usize) -> (f64, f64) {
        (self.lo[i], self.hi[i])
    }

    /// Mean relative width `mean((hi - lo) / max(|lo|, |hi|))` over all
    /// entries — the gauntlet's accuracy metric (same convention as
    /// `igen_interval::F64I::rel_width`: entries around zero contribute
    /// the absolute width; NaN endpoints poison the mean, which is the
    /// point — an unsound backend cannot hide). Empty buffers report 0.
    pub fn mean_rel_width(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..self.len() {
            let (lo, hi) = self.get(i);
            let w = igen_round::sub_ru(hi, lo);
            let mag = lo.abs().max(hi.abs());
            sum += if mag > 0.0 && mag.is_finite() { w / mag } else { w };
        }
        sum / self.len() as f64
    }
}

/// One fully-specified kernel instance: sizes plus operand endpoint
/// buffers. The same case is handed to every backend, so all contenders
/// run over identical inputs.
///
/// Operand interpretation per kernel:
///
/// | kernel  | `n`            | `batch` | `x`                      | `y`                   | `w`                |
/// |---------|----------------|---------|--------------------------|-----------------------|--------------------|
/// | `dot`   | vector length  | items   | `batch·n` vectors        | `batch·n` vectors     | unused             |
/// | `mvm`   | matrix dim     | items   | `batch·n` inputs         | `batch·n` accumulators| `n·n` matrix `A`   |
/// | `gemm`  | matrix dim     | unused  | `n·n` matrix `B`         | `n·n` initial `C`     | `n·n` matrix `A`   |
/// | `henon` | unused         | orbits  | `batch` initial `x0`     | `batch` initial `y0`  | unused             |
/// | `ffnn`  | layer width    | items   | `batch·784` point inputs | unused                | unused (see below) |
///
/// The `ffnn` network weights are not carried as endpoint buffers: they
/// are reproduced deterministically by every adapter from
/// `(n, ffnn_seed)` via `igen_kernels::ffnn::Ffnn::synthetic`, mirroring
/// how each library in the cross-platform benchmark loads the same model.
#[derive(Debug, Clone)]
pub struct KernelCase {
    /// Which kernel this case drives.
    pub kernel: Kernel,
    /// Problem size (see the table above).
    pub n: usize,
    /// Batch items / orbits (see the table above).
    pub batch: usize,
    /// Hénon iterations.
    pub iters: usize,
    /// Seed of the deterministic synthetic FFNN.
    pub ffnn_seed: u64,
    /// First operand buffer.
    pub x: IvalVec,
    /// Second operand buffer.
    pub y: IvalVec,
    /// Shared matrix operand.
    pub w: IvalVec,
}

/// One interval implementation under benchmark.
///
/// Implementations are *adapters*: they translate the shared
/// [`KernelCase`] into their own representation up front and return a
/// closure that runs the kernel once per call — the closure is what the
/// harness times, so conversion cost never pollutes the measurement.
///
/// Every backend must be **sound**: its output intervals must contain
/// the true result set (the gauntlet property-tests each backend's
/// outputs against the `igen-mpf` oracle enclosure — widths may differ,
/// containment may not).
pub trait IntervalBackend: Sync {
    /// Stable registry name (CLI `--backends` key, JSON `backend` field).
    fn name(&self) -> &'static str;

    /// One-line description of the implementation style.
    fn style(&self) -> &'static str;

    /// True when the backend runs on the packed lane types (`F64Ix4`/
    /// `DdIx4`, through the compiled-VM batch path) rather than the
    /// scalar ones — the rows the CI regression gate watches.
    fn packed_path(&self) -> bool {
        false
    }

    /// Builds the runnable kernel for `case`. The returned closure
    /// executes the kernel once and returns the output intervals.
    fn instantiate<'a>(&'a self, case: &'a KernelCase) -> Box<dyn FnMut() -> IvalVec + 'a>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(Kernel::parse("fft"), None);
    }

    #[test]
    fn ival_vec_basics() {
        let mut v = IvalVec::new();
        assert!(v.is_empty());
        v.push(1.0, 2.0);
        v.push(-3.0, -1.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(1), (-3.0, -1.0));
        let w = IvalVec::from_pairs(&[(1.0, 2.0), (-3.0, -1.0)]);
        assert_eq!(v, w);
    }

    #[test]
    fn mean_rel_width_metric() {
        // Point intervals: zero width.
        let p = IvalVec::from_pairs(&[(2.0, 2.0), (-1.0, -1.0)]);
        assert_eq!(p.mean_rel_width(), 0.0);
        // [1, 1 + eps]: rel width = eps.
        let e = IvalVec::from_pairs(&[(1.0, 1.0 + f64::EPSILON)]);
        assert!((e.mean_rel_width() - f64::EPSILON).abs() < 1e-30);
        // Zero-straddling interval contributes its absolute width scaled
        // by the larger endpoint magnitude.
        let z = IvalVec::from_pairs(&[(-0.5, 1.0)]);
        assert!((z.mean_rel_width() - 1.5).abs() < 1e-15);
        // Empty: defined as 0.
        assert_eq!(IvalVec::new().mean_rel_width(), 0.0);
    }

    #[test]
    fn nan_poisons_the_mean() {
        let v = IvalVec::from_pairs(&[(1.0, 2.0), (f64::NAN, f64::NAN)]);
        assert!(v.mean_rel_width().is_nan());
    }
}
