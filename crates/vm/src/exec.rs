//! Interval elements the executor runs over, with the f64 word layout
//! every layer above shares ([`VmElem`]), the one-item entry point
//! [`run_scalar`] and the per-program output-width histograms.
//!
//! There is one instruction loop, in [`crate::prepared`]; `run_scalar`
//! is its instantiation at tile 1 and lane width 1, over the scalar
//! element's own [`LaneOps`] impl, whose `apply` is one match over the
//! scalar interval operators. Because every packed operation is
//! lane-wise bit-identical to its scalar counterpart (the contract
//! pinned in `igen-interval`), every instantiation produces the same
//! endpoints item for item — the same argument that makes the
//! hand-written batch kernels thread-count invariant extends to every
//! compiled program.

use crate::bytecode::{PoolConst, Precision, Program};
use igen_dd::Dd;
use igen_interval::{DdI, DdIx4, DdiCols4, F64Ix4, LaneOps, F64I};
use igen_telemetry::{Counter, WidthHist};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Total bytecode instructions retired by the instruction loop (one
/// count per instruction per tile, independent of tile size and lane
/// width).
pub static VM_INSNS_EXECUTED: Counter = Counter::new("vm.insns_executed");

/// An interval element the bytecode executor can run over: a one-lane
/// [`LaneOps`] type (what [`run_scalar`] runs) that names its packed
/// lane type, plus constant-pool decoding and the element's f64 words.
///
/// The words are the element's representation verbatim, in one fixed
/// order: the words of the *negated* lower endpoint, then those of the
/// upper endpoint, each endpoint high word first. `F64I` has two,
/// `[neg_lo, hi]`; `DdI` has four, `[neg_lo.hi, neg_lo.lo, hi.hi,
/// hi.lo]`. Every layer that stores, compares or prints an element by
/// its words (the batch columns, the reference check, the `serve`
/// response) goes through this layout, so it is written only here.
pub trait VmElem: LaneOps<Elem = Self> + 'static {
    /// The packed lane type a batch runs this element at.
    type Lane: LaneOps<Elem = Self>;

    /// The element's f64 words: `[f64; 2]` or `[f64; 4]`.
    type Words: Copy + Default + AsRef<[f64]> + AsMut<[f64]>;

    /// The bytecode precision this element executes.
    const PRECISION: Precision;

    /// Decodes a pooled constant (exact: the pool stores full
    /// double-double components).
    fn from_const(c: &PoolConst) -> Self;

    /// Tightest enclosing f64 endpoint pair (for width telemetry and
    /// mismatch reports).
    fn endpoints_f64(&self) -> (f64, f64);

    /// Exact promotion of a double-precision interval.
    fn from_f64i(x: F64I) -> Self;

    /// The element's words, in the order documented on the trait.
    fn to_words(self) -> Self::Words;

    /// Reassembles an element from its words (two or four plain moves).
    fn from_words(w: Self::Words) -> Self;

    /// Builds a packed lane vector from word columns: `col(w)` holds
    /// word `w` of the four lanes. A column-to-column move, with no
    /// per-lane reassembly.
    fn lane_from_columns(col: impl Fn(usize) -> [f64; 4]) -> Self::Lane;

    /// The words of `[lo, hi]` as the endpoints read: the lower half of
    /// [`VmElem::to_words`] negated back.
    fn endpoint_words(self) -> Self::Words {
        let mut w = self.to_words();
        let words = w.as_mut();
        let half = words.len() / 2;
        for x in &mut words[..half] {
            *x = -*x;
        }
        w
    }
}

impl VmElem for F64I {
    type Lane = F64Ix4;
    type Words = [f64; 2];
    const PRECISION: Precision = Precision::F64;

    fn from_const(c: &PoolConst) -> F64I {
        // Same as `ia_set_f64(lo_hi, hi_hi)`; lowering guarantees an
        // ordered pair.
        F64I::new(c.lo_hi, c.hi_hi).expect("pool constant is ordered")
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        (self.lo(), self.hi())
    }
    fn from_f64i(x: F64I) -> F64I {
        x
    }
    fn to_words(self) -> [f64; 2] {
        [self.neg_lo(), self.hi()]
    }
    fn from_words([neg_lo, hi]: [f64; 2]) -> F64I {
        F64I::from_neg_lo_hi(neg_lo, hi)
    }
    fn lane_from_columns(col: impl Fn(usize) -> [f64; 4]) -> F64Ix4 {
        F64Ix4::from_columns(col(0), col(1))
    }
}

impl VmElem for DdI {
    type Lane = DdIx4;
    type Words = [f64; 4];
    const PRECISION: Precision = Precision::Dd;

    fn from_const(c: &PoolConst) -> DdI {
        // Same as `ia_set_ddx(lo_hi, lo_lo, hi_hi, hi_lo)`.
        DdI::new(Dd::new(c.lo_hi, c.lo_lo), Dd::new(c.hi_hi, c.hi_lo))
            .expect("pool constant is ordered")
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        let f = self.to_f64i();
        (f.lo(), f.hi())
    }
    fn from_f64i(x: F64I) -> DdI {
        DdI::from_f64i(&x)
    }
    fn to_words(self) -> [f64; 4] {
        let (nl, h) = (self.neg_lo(), self.hi());
        [nl.hi(), nl.lo(), h.hi(), h.lo()]
    }
    fn from_words([nl_hi, nl_lo, h_hi, h_lo]: [f64; 4]) -> DdI {
        DdI::from_neg_lo_hi(
            Dd::from_parts_unchecked(nl_hi, nl_lo),
            Dd::from_parts_unchecked(h_hi, h_lo),
        )
    }
    fn lane_from_columns(col: impl Fn(usize) -> [f64; 4]) -> DdIx4 {
        DdIx4::from_columns(DdiCols4 {
            neg_lo_hi: col(0),
            neg_lo_lo: col(1),
            hi_hi: col(2),
            hi_lo: col(3),
        })
    }
}

/// Runs `p` over one item and returns the outputs in declaration order:
/// the instruction loop of [`run_tile`](crate::prepared::run_tile) at
/// tile 1 and lane width 1, over the raw instruction list (so every
/// `Const` is decoded per call).
///
/// # Panics
///
/// Panics if the element precision does not match the program's or if
/// `inputs.len() != n_inputs`. Register/constant indices are trusted
/// (lowering validates them; see [`Program::validate`]).
pub fn run_scalar<T: VmElem>(p: &Program, inputs: &[T]) -> Vec<T> {
    assert_eq!(T::PRECISION, p.precision, "element precision does not match program");
    assert_eq!(inputs.len(), p.n_inputs as usize, "program expects {} inputs", p.n_inputs);
    let mut regs = vec![T::default(); p.n_regs as usize];
    regs[..inputs.len()].copy_from_slice(inputs);
    crate::prepared::run_body::<T, T>(p, &p.insns, |i| i, &mut regs, 1, 1, None);
    p.outputs.iter().map(|o| regs[o.reg as usize]).collect()
}

/// Largest relative input width of the source registers `srcs`, or
/// `0.0` for none (a `Const` is a width *source*: any width at its
/// output is width introduced, not amplified).
pub(crate) fn max_src_rel(srcs: &[u32], at: impl Fn(u32) -> (f64, f64)) -> f64 {
    use igen_telemetry::profile::rel_width;
    let mut max_in = 0.0f64;
    for &r in srcs {
        let (lo, hi) = at(r);
        let w = rel_width(lo, hi);
        // NaN operands poison the max (NaN.max keeps the other side,
        // so propagate by hand): the sample lands in the top bucket.
        if w.is_nan() {
            return f64::NAN;
        }
        max_in = max_in.max(w);
    }
    max_in
}

/// Programs with a histogram of their own; the outputs of any further
/// program go to [`OTHER_WIDTHS`]. A long-running service compiles an
/// unbounded number of distinct programs, and each histogram is leaked.
const WIDTH_HIST_CAP: usize = 256;

/// `width.vm.other`: the shared histogram beyond [`WIDTH_HIST_CAP`].
static OTHER_WIDTHS: WidthHist = WidthHist::new("width.vm.other");

fn width_hist_table() -> &'static Mutex<HashMap<String, &'static WidthHist>> {
    static TABLE: OnceLock<Mutex<HashMap<String, &'static WidthHist>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The per-program output-width histogram `width.vm.<name>`.
///
/// The telemetry registry holds `'static` histograms, so per-program
/// instances are interned and leaked on first use, up to
/// `WIDTH_HIST_CAP` programs; in non-telemetry builds the histogram
/// is a zero-sized no-op. Callers look it up only while recording.
pub fn program_width_hist(name: &str) -> &'static WidthHist {
    let mut t = width_hist_table().lock().expect("vm hist table poisoned");
    if let Some(h) = t.get(name) {
        return h;
    }
    if t.len() >= WIDTH_HIST_CAP {
        return &OTHER_WIDTHS;
    }
    let full: &'static str = Box::leak(format!("width.vm.{name}").into_boxed_str());
    let h: &'static WidthHist = Box::leak(Box::new(WidthHist::new(full)));
    t.insert(name.to_string(), h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_hist_table_stays_at_its_cap() {
        for i in 0..10_000 {
            program_width_hist(&format!("cap-test-{i}"));
        }
        assert_eq!(width_hist_table().lock().expect("table").len(), WIDTH_HIST_CAP);
        let late = program_width_hist("cap-test-late");
        assert!(std::ptr::eq(late, &OTHER_WIDTHS), "names beyond the cap share one histogram");
        // Names interned before the cap keep their own histogram.
        assert!(!std::ptr::eq(program_width_hist("cap-test-0"), &OTHER_WIDTHS));
    }
    use crate::bytecode::{Insn, OutputSlot};
    use igen_interval::SweepOp;

    fn quad() -> Program {
        // return -b + sqrt(b² - 4ac) with a=r0, b=r1, c=r2.
        let p = Program {
            name: "quad".into(),
            precision: Precision::F64,
            n_inputs: 3,
            n_regs: 11,
            consts: vec![PoolConst::f64_pair(4.0, 4.0)],
            insns: vec![
                Insn::op(SweepOp::Sqr, 3, &[1]),
                Insn::Const { dst: 4, idx: 0 },
                Insn::op(SweepOp::Mul, 5, &[4, 0]),
                Insn::op(SweepOp::Mul, 6, &[5, 2]),
                Insn::op(SweepOp::Sub, 7, &[3, 6]),
                Insn::op(SweepOp::Sqrt, 8, &[7]),
                Insn::op(SweepOp::Neg, 9, &[1]),
                Insn::op(SweepOp::Add, 10, &[9, 8]),
            ],
            inputs: vec!["a".into(), "b".into(), "c".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 10 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("valid test program");
        p
    }

    #[test]
    fn dd_constants_roundtrip_through_the_pool() {
        let c = PoolConst { lo_hi: 1.05, lo_lo: -4.44e-17, hi_hi: 1.05, hi_lo: -4.4e-17 };
        let v = DdI::from_const(&c);
        assert_eq!(v.lo().hi(), 1.05);
        assert_eq!(v.lo().lo(), -4.44e-17);
        let p = Program {
            name: "c".into(),
            precision: Precision::Dd,
            n_inputs: 0,
            n_regs: 1,
            consts: vec![c],
            insns: vec![Insn::Const { dst: 0, idx: 0 }],
            inputs: vec![],
            outputs: vec![OutputSlot { label: "return".into(), reg: 0 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        let out = run_scalar::<DdI>(&p, &[]);
        assert_eq!(out[0].hi().cmp_num(&Dd::new(1.05, -4.4e-17)), Some(core::cmp::Ordering::Equal));
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_mismatch_panics() {
        let p = quad();
        let _ = run_scalar::<DdI>(&p, &[DdI::ZERO, DdI::ZERO, DdI::ZERO]);
    }
}
