//! The lane-generic bytecode executor.
//!
//! One interpreter loop, two instantiations per precision: `L = T`
//! runs a single item (the scalar reference), `L = T::Lane` runs four
//! items at once over the packed `LaneOps` kernels. Because every
//! packed operation is lane-wise bit-identical to its scalar
//! counterpart (the contract pinned in `igen-interval`), the two
//! instantiations produce bit-identical endpoints item for item — the
//! same argument that makes the hand-written batch kernels
//! thread-count invariant extends to every compiled program.

use crate::bytecode::{Insn, PoolConst, Precision, Program};
use igen_interval::{DdI, F64I};
use igen_kernels::{LaneOrScalar, Numeric};
use igen_telemetry::{Counter, WidthHist};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Total bytecode instructions retired by [`run_lanes`] (one count per
/// instruction per call, independent of lane width).
pub static VM_INSNS_EXECUTED: Counter = Counter::new("vm.insns_executed");

/// [`run_lanes`] invocations at packed width (4 items per call).
pub static VM_PACKED_CALLS: Counter = Counter::new("vm.packed_calls");

/// [`run_lanes`] invocations at scalar width (tail items and
/// reference runs).
pub static VM_SCALAR_CALLS: Counter = Counter::new("vm.scalar_calls");

/// An interval element the bytecode executor can run over: a
/// [`Numeric`] type plus constant-pool decoding and the clamped
/// integer power the `ia_pow_*` builtins implement.
pub trait VmElem: Numeric {
    /// The bytecode precision this element executes.
    const PRECISION: Precision;

    /// Decodes a pooled constant (exact: the pool stores full
    /// double-double components).
    fn from_const(c: &PoolConst) -> Self;

    /// Integer power, matching `ia_pow_f64`/`ia_pow_dd` bit for bit.
    fn powi_e(self, n: i32) -> Self;

    /// Tightest enclosing f64 endpoint pair (for width telemetry and
    /// endpoint comparisons).
    fn endpoints_f64(&self) -> (f64, f64);
}

impl VmElem for F64I {
    const PRECISION: Precision = Precision::F64;

    fn from_const(c: &PoolConst) -> F64I {
        // Same as `ia_set_f64(lo_hi, hi_hi)`; lowering guarantees an
        // ordered pair.
        F64I::new(c.lo_hi, c.hi_hi).expect("pool constant is ordered")
    }
    fn powi_e(self, n: i32) -> F64I {
        self.powi(n)
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        (self.lo(), self.hi())
    }
}

impl VmElem for DdI {
    const PRECISION: Precision = Precision::Dd;

    fn from_const(c: &PoolConst) -> DdI {
        // Same as `ia_set_ddx(lo_hi, lo_lo, hi_hi, hi_lo)`.
        DdI::new(igen_dd::Dd::new(c.lo_hi, c.lo_lo), igen_dd::Dd::new(c.hi_hi, c.hi_lo))
            .expect("pool constant is ordered")
    }
    fn powi_e(self, n: i32) -> DdI {
        self.powi(n)
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        let f = self.to_f64i();
        (f.lo(), f.hi())
    }
}

/// Executes `p` over a register file of lanes: `inputs` feeds registers
/// `0..n_inputs` (one lane vector per input, so `L::WIDTH` items run at
/// once), `regs` is caller-owned scratch reused across calls, and the
/// declared outputs land in `outputs` in declaration order.
///
/// # Panics
///
/// Panics if the element precision does not match the program's or if
/// `inputs.len() != n_inputs`. Register/constant indices are trusted
/// (lowering validates them; see [`Program::validate`]).
pub fn run_lanes<T: VmElem, L: LaneOrScalar<T>>(
    p: &Program,
    inputs: &[L],
    regs: &mut Vec<L>,
    outputs: &mut Vec<L>,
) {
    assert_eq!(T::PRECISION, p.precision, "element precision does not match program");
    assert_eq!(inputs.len(), p.n_inputs as usize, "program expects {} inputs", p.n_inputs);
    // Grow-only: stale values from a previous call are never read
    // because validation guarantees every read follows a write, so a
    // reused register file skips the full zero-reinit per call.
    if regs.len() < p.n_regs as usize {
        regs.resize(p.n_regs as usize, L::splat_l(T::zero()));
    }
    regs[..inputs.len()].copy_from_slice(inputs);
    for insn in &p.insns {
        let v = match *insn {
            Insn::Const { idx, .. } => L::splat_l(T::from_const(&p.consts[idx as usize])),
            Insn::Add { a, b, .. } => regs[a as usize] + regs[b as usize],
            Insn::Sub { a, b, .. } => regs[a as usize] - regs[b as usize],
            Insn::Mul { a, b, .. } => regs[a as usize] * regs[b as usize],
            Insn::Div { a, b, .. } => regs[a as usize] / regs[b as usize],
            Insn::Min { a, b, .. } => regs[a as usize].min_l(regs[b as usize]),
            Insn::Max { a, b, .. } => regs[a as usize].max_l(regs[b as usize]),
            Insn::Neg { a, .. } => -regs[a as usize],
            Insn::Sqrt { a, .. } => regs[a as usize].sqrt_l(),
            Insn::Abs { a, .. } => regs[a as usize].abs_l(),
            Insn::Sqr { a, .. } => regs[a as usize].sqr_l(),
            Insn::Pow { a, n, .. } => {
                // No packed powi kernel: lane-wise is bit-identical
                // because the lanes are independent.
                let x = regs[a as usize];
                L::from_fn_l(|i| x.lane_l(i).powi_e(n))
            }
            // Dispatch-fused multiply-accumulate: the same two rounded
            // interval ops as the Mul+Add/Sub pair it replaced, product
            // on the right of the accumulate, so bit-identical.
            Insn::MulAdd { a, b, acc, .. } => {
                regs[acc as usize] + (regs[a as usize] * regs[b as usize])
            }
            Insn::MulSub { a, b, acc, .. } => {
                regs[acc as usize] - (regs[a as usize] * regs[b as usize])
            }
        };
        regs[insn.dst() as usize] = v;
    }
    VM_INSNS_EXECUTED.add(p.insns.len() as u64);
    if L::WIDTH > 1 {
        VM_PACKED_CALLS.inc();
    } else {
        VM_SCALAR_CALLS.inc();
    }
    outputs.clear();
    outputs.extend(p.outputs.iter().map(|o| regs[o.reg as usize]));
}

/// One-item convenience wrapper: runs `p` at scalar width and returns
/// the outputs in declaration order.
pub fn run_scalar<T: VmElem>(p: &Program, inputs: &[T]) -> Vec<T> {
    let mut regs = Vec::new();
    let mut out = Vec::new();
    run_lanes::<T, T>(p, inputs, &mut regs, &mut out);
    out
}

/// Largest relative input width of `insn`'s source registers, or `0.0`
/// for a zero-operand instruction (a `Const` is a width *source*: any
/// width at its output is width introduced, not amplified).
pub(crate) fn max_src_rel(insn: &Insn, at: impl Fn(u32) -> (f64, f64)) -> f64 {
    use igen_telemetry::profile::rel_width;
    let mut max_in = 0.0f64;
    for r in crate::peephole::srcs(insn) {
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

/// [`run_scalar`] with per-instruction profiling: execution time,
/// input/output relative widths and the width-amplification statistic
/// accumulate into `prof` under each instruction's [`DebugMap`] site.
///
/// The arithmetic is the *same operations in the same order* as
/// [`run_lanes`] at scalar width, so the returned endpoints are
/// bit-identical to an unprofiled run — profiling only observes values,
/// it never re-rounds them. When `prof` is inactive (telemetry compiled
/// out or recording off) this falls straight through to [`run_scalar`]
/// and pays nothing per instruction.
pub fn run_scalar_profiled<T: VmElem>(
    p: &Program,
    inputs: &[T],
    prof: &mut igen_telemetry::UnitProfiler,
) -> Vec<T> {
    use igen_telemetry::profile::rel_width;
    if !prof.active() {
        return run_scalar(p, inputs);
    }
    assert_eq!(T::PRECISION, p.precision, "element precision does not match program");
    assert_eq!(inputs.len(), p.n_inputs as usize, "program expects {} inputs", p.n_inputs);
    let mut regs: Vec<T> = vec![T::zero(); p.n_regs as usize];
    regs[..inputs.len()].copy_from_slice(inputs);
    for (i, insn) in p.insns.iter().enumerate() {
        let site = p.debug.site(i);
        prof.set_meta(i, site.line, site.col, insn.op_name());
        // Sources are read before the write: the peephole reuses
        // registers, so dst may alias a source.
        let max_in = max_src_rel(insn, |r| regs[r as usize].endpoints_f64());
        let t0 = prof.now_ns();
        let v = match *insn {
            Insn::Const { idx, .. } => T::from_const(&p.consts[idx as usize]),
            Insn::Add { a, b, .. } => regs[a as usize] + regs[b as usize],
            Insn::Sub { a, b, .. } => regs[a as usize] - regs[b as usize],
            Insn::Mul { a, b, .. } => regs[a as usize] * regs[b as usize],
            Insn::Div { a, b, .. } => regs[a as usize] / regs[b as usize],
            Insn::Min { a, b, .. } => regs[a as usize].min_l(regs[b as usize]),
            Insn::Max { a, b, .. } => regs[a as usize].max_l(regs[b as usize]),
            Insn::Neg { a, .. } => -regs[a as usize],
            Insn::Sqrt { a, .. } => regs[a as usize].sqrt_l(),
            Insn::Abs { a, .. } => regs[a as usize].abs_l(),
            Insn::Sqr { a, .. } => regs[a as usize].sqr_l(),
            Insn::Pow { a, n, .. } => regs[a as usize].powi_e(n),
            Insn::MulAdd { a, b, acc, .. } => {
                regs[acc as usize] + (regs[a as usize] * regs[b as usize])
            }
            Insn::MulSub { a, b, acc, .. } => {
                regs[acc as usize] - (regs[a as usize] * regs[b as usize])
            }
        };
        prof.add_time(i, prof.now_ns().saturating_sub(t0));
        let (lo, hi) = v.endpoints_f64();
        prof.add_sample(i, max_in, rel_width(lo, hi));
        regs[insn.dst() as usize] = v;
    }
    VM_INSNS_EXECUTED.add(p.insns.len() as u64);
    VM_SCALAR_CALLS.inc();
    p.outputs.iter().map(|o| regs[o.reg as usize]).collect()
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
/// [`WIDTH_HIST_CAP`] programs; in non-telemetry builds the histogram
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
    use crate::bytecode::OutputSlot;

    fn quad() -> Program {
        // return -b + sqrt(b² - 4ac) with a=r0, b=r1, c=r2.
        let p = Program {
            name: "quad".into(),
            precision: Precision::F64,
            n_inputs: 3,
            n_regs: 11,
            consts: vec![PoolConst::f64_pair(4.0, 4.0)],
            insns: vec![
                Insn::Sqr { dst: 3, a: 1 },
                Insn::Const { dst: 4, idx: 0 },
                Insn::Mul { dst: 5, a: 4, b: 0 },
                Insn::Mul { dst: 6, a: 5, b: 2 },
                Insn::Sub { dst: 7, a: 3, b: 6 },
                Insn::Sqrt { dst: 8, a: 7 },
                Insn::Neg { dst: 9, a: 1 },
                Insn::Add { dst: 10, a: 9, b: 8 },
            ],
            inputs: vec!["a".into(), "b".into(), "c".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 10 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("valid test program");
        p
    }

    #[test]
    fn packed_is_bit_identical_to_scalar() {
        let p = quad();
        let items: Vec<[F64I; 3]> = (0..4)
            .map(|i| {
                let f = i as f64;
                [
                    F64I::new(1.0 + 0.25 * f, 1.0 + 0.3 * f).unwrap(),
                    F64I::new(-3.5 - f, -3.0 - f).unwrap(),
                    F64I::new(0.5, 0.75 + 0.1 * f).unwrap(),
                ]
            })
            .collect();
        // Scalar, one item at a time.
        let scalar: Vec<Vec<F64I>> = items.iter().map(|it| run_scalar(&p, it)).collect();
        // Packed, all four in one call.
        let inputs: Vec<igen_interval::F64Ix4> = (0..3)
            .map(|j| <igen_interval::F64Ix4 as LaneOrScalar<F64I>>::from_fn_l(|l| items[l][j]))
            .collect();
        let mut regs = Vec::new();
        let mut out = Vec::new();
        run_lanes::<F64I, igen_interval::F64Ix4>(&p, &inputs, &mut regs, &mut out);
        for (l, want) in scalar.iter().enumerate() {
            let got = out[0].lane_l(l);
            assert_eq!(got.lo().to_bits(), want[0].lo().to_bits());
            assert_eq!(got.hi().to_bits(), want[0].hi().to_bits());
        }
    }

    #[test]
    fn dd_constants_roundtrip_through_the_pool() {
        use igen_dd::Dd;
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

    #[test]
    fn profiled_run_is_bit_identical_to_plain() {
        // Holds whether or not the profiler is live: inactive it falls
        // through to run_scalar, active it runs the same operations in
        // the same order and only observes the values.
        let p = quad();
        let x = [
            F64I::new(1.25, 1.5).unwrap(),
            F64I::new(-4.0, -3.5).unwrap(),
            F64I::new(0.5, 0.625).unwrap(),
        ];
        let want = run_scalar(&p, &x);
        let mut prof = igen_telemetry::UnitProfiler::start(&p.name, p.insns.len());
        let got = run_scalar_profiled(&p, &x, &mut prof);
        prof.finish();
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.lo().to_bits(), g.lo().to_bits());
            assert_eq!(w.hi().to_bits(), g.hi().to_bits());
        }
    }
}
