//! Structure-of-arrays interval buffers.
//!
//! A `Vec<F64I>` stores intervals as `(neg_lo, hi)` pairs — fine for one
//! kernel invocation, but a batch of thousands of intervals is better
//! stored as *columns*: one slice of negated lower endpoints and one of
//! upper endpoints. The columns are the interval types' internal
//! representation verbatim (the lower endpoint is stored negated so every
//! operation rounds upward — see `igen-interval`), so reassembling an
//! interval is two plain loads with **no negation and no per-element
//! shuffling**, and a lane type ([`igen_interval::F64Ix4`]) is filled by
//! four strided loads per column. The columns are also exactly what an
//! AVX gather or a future GPU port wants to touch. [`SoaBatch`] names
//! its element's packed lane type through `igen_vm::VmElem::Lane`, so
//! the program driver loads whole groups without knowing the precision.

use igen_dd::Dd;
use igen_interval::{DdI, DdIx4, F64Ix4, F64I};
use igen_round::simd::DdiCols4;
use igen_vm::VmElem;

/// A structure-of-arrays interval batch, as the generic program driver
/// ([`crate::BatchProgram`]) reads and writes it: implemented by
/// [`BatchF64I`] and [`BatchDdI`].
pub trait SoaBatch: Sized {
    /// The interval type of one slot.
    type Elem: VmElem;

    /// An empty batch with room for `n` intervals.
    fn with_capacity(n: usize) -> Self;

    /// Appends one interval.
    fn push(&mut self, v: Self::Elem);

    /// Number of intervals in the batch.
    fn len(&self) -> usize;

    /// True when the batch holds no intervals.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th interval.
    fn get(&self, i: usize) -> Self::Elem;

    /// Loads slots `start, start + stride, ..` into one packed lane
    /// vector of the element's lane type.
    fn load_lanes(&self, start: usize, stride: usize) -> <Self::Elem as VmElem>::Lane;

    /// The endpoint columns, in a fixed order.
    fn columns(&self) -> Vec<&[f64]>;

    /// True when both batches hold the same bits in every endpoint
    /// column. Unlike the derived `==`, a NaN endpoint equals itself,
    /// so batches that went non-finite compare as the bit-identity
    /// contract means.
    fn bits_eq(&self, other: &Self) -> bool {
        let (a, b) = (self.columns(), other.columns());
        a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(*y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }
}

/// A batch of double-precision intervals in structure-of-arrays layout:
/// one column of negated lower endpoints, one of upper endpoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchF64I {
    neg_lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BatchF64I {
    /// An empty batch.
    pub fn new() -> BatchF64I {
        BatchF64I::default()
    }

    /// An empty batch with room for `n` intervals per column.
    pub fn with_capacity(n: usize) -> BatchF64I {
        BatchF64I { neg_lo: Vec::with_capacity(n), hi: Vec::with_capacity(n) }
    }

    /// Columnizes a slice of intervals.
    pub fn from_intervals(xs: &[F64I]) -> BatchF64I {
        BatchF64I {
            neg_lo: xs.iter().map(F64I::neg_lo).collect(),
            hi: xs.iter().map(F64I::hi).collect(),
        }
    }

    /// Number of intervals in the batch.
    pub fn len(&self) -> usize {
        self.neg_lo.len()
    }

    /// True when the batch holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.neg_lo.is_empty()
    }

    /// Appends one interval.
    pub fn push(&mut self, v: F64I) {
        self.neg_lo.push(v.neg_lo());
        self.hi.push(v.hi());
    }

    /// The `i`-th interval, reassembled from the columns (two loads, no
    /// negation).
    pub fn get(&self, i: usize) -> F64I {
        F64I::from_neg_lo_hi(self.neg_lo[i], self.hi[i])
    }

    /// Materializes the batch back to array-of-structs form.
    pub fn to_intervals(&self) -> Vec<F64I> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Loads lanes `start, start+stride, ..` into a 4-wide lane vector —
    /// the shape [`crate::BatchProgram`] uses to evolve four batch items
    /// per packed register. Column-to-column gather, no reassembly.
    pub fn load_x4(&self, start: usize, stride: usize) -> F64Ix4 {
        let idx = [start, start + stride, start + 2 * stride, start + 3 * stride];
        F64Ix4::from_columns(idx.map(|i| self.neg_lo[i]), idx.map(|i| self.hi[i]))
    }
}

impl FromIterator<F64I> for BatchF64I {
    fn from_iter<I: IntoIterator<Item = F64I>>(iter: I) -> BatchF64I {
        let mut b = BatchF64I::new();
        for v in iter {
            b.push(v);
        }
        b
    }
}

impl SoaBatch for BatchF64I {
    type Elem = F64I;

    fn with_capacity(n: usize) -> BatchF64I {
        BatchF64I::with_capacity(n)
    }
    fn push(&mut self, v: F64I) {
        BatchF64I::push(self, v);
    }
    fn len(&self) -> usize {
        BatchF64I::len(self)
    }
    fn get(&self, i: usize) -> F64I {
        BatchF64I::get(self, i)
    }
    fn load_lanes(&self, start: usize, stride: usize) -> F64Ix4 {
        self.load_x4(start, stride)
    }
    fn columns(&self) -> Vec<&[f64]> {
        vec![&self.neg_lo, &self.hi]
    }
}

/// A batch of double-double intervals in structure-of-arrays layout.
///
/// A `DdI` endpoint is itself a double-double pair, so the batch carries
/// four columns: the hi/lo components of the negated lower endpoint and
/// of the upper endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchDdI {
    neg_lo_hi: Vec<f64>,
    neg_lo_lo: Vec<f64>,
    hi_hi: Vec<f64>,
    hi_lo: Vec<f64>,
}

impl BatchDdI {
    /// An empty batch.
    pub fn new() -> BatchDdI {
        BatchDdI::default()
    }

    /// An empty batch with component capacity reserved for `n` items.
    pub fn with_capacity(n: usize) -> BatchDdI {
        BatchDdI {
            neg_lo_hi: Vec::with_capacity(n),
            neg_lo_lo: Vec::with_capacity(n),
            hi_hi: Vec::with_capacity(n),
            hi_lo: Vec::with_capacity(n),
        }
    }

    /// Columnizes a slice of double-double intervals.
    pub fn from_intervals(xs: &[DdI]) -> BatchDdI {
        let mut b = BatchDdI::new();
        for x in xs {
            b.push(*x);
        }
        b
    }

    /// Number of intervals in the batch.
    pub fn len(&self) -> usize {
        self.neg_lo_hi.len()
    }

    /// True when the batch holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.neg_lo_hi.is_empty()
    }

    /// Appends one interval.
    pub fn push(&mut self, v: DdI) {
        let (nl, h) = (v.neg_lo(), v.hi());
        self.neg_lo_hi.push(nl.hi());
        self.neg_lo_lo.push(nl.lo());
        self.hi_hi.push(h.hi());
        self.hi_lo.push(h.lo());
    }

    /// The `i`-th interval, reassembled from the four columns.
    pub fn get(&self, i: usize) -> DdI {
        DdI::from_neg_lo_hi(
            Dd::from_parts_unchecked(self.neg_lo_hi[i], self.neg_lo_lo[i]),
            Dd::from_parts_unchecked(self.hi_hi[i], self.hi_lo[i]),
        )
    }

    /// Materializes the batch back to array-of-structs form.
    pub fn to_intervals(&self) -> Vec<DdI> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Loads lanes `start, start+stride, ..` into a 4-wide lane vector:
    /// four column-to-column gathers, no interval reassembly.
    pub fn load_x4(&self, start: usize, stride: usize) -> DdIx4 {
        let idx = [start, start + stride, start + 2 * stride, start + 3 * stride];
        DdIx4::from_columns(DdiCols4 {
            neg_lo_hi: idx.map(|i| self.neg_lo_hi[i]),
            neg_lo_lo: idx.map(|i| self.neg_lo_lo[i]),
            hi_hi: idx.map(|i| self.hi_hi[i]),
            hi_lo: idx.map(|i| self.hi_lo[i]),
        })
    }
}

impl FromIterator<DdI> for BatchDdI {
    fn from_iter<I: IntoIterator<Item = DdI>>(iter: I) -> BatchDdI {
        let mut b = BatchDdI::new();
        for v in iter {
            b.push(v);
        }
        b
    }
}

impl SoaBatch for BatchDdI {
    type Elem = DdI;

    fn with_capacity(n: usize) -> BatchDdI {
        BatchDdI::with_capacity(n)
    }
    fn push(&mut self, v: DdI) {
        BatchDdI::push(self, v);
    }
    fn len(&self) -> usize {
        BatchDdI::len(self)
    }
    fn get(&self, i: usize) -> DdI {
        BatchDdI::get(self, i)
    }
    fn load_lanes(&self, start: usize, stride: usize) -> DdIx4 {
        self.load_x4(start, stride)
    }
    fn columns(&self) -> Vec<&[f64]> {
        vec![&self.neg_lo_hi, &self.neg_lo_lo, &self.hi_hi, &self.hi_lo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igen_interval::LaneOps;

    fn sample_f64i(n: usize) -> Vec<F64I> {
        (0..n)
            .map(|i| {
                let x = (i as f64) * 0.37 - 3.0;
                F64I::new(x, igen_round::next_up(x)).unwrap()
            })
            .collect()
    }

    #[test]
    fn f64i_roundtrip_is_exact() {
        let xs = sample_f64i(17);
        let b = BatchF64I::from_intervals(&xs);
        assert_eq!(b.len(), 17);
        assert_eq!(b.to_intervals(), xs);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(b.get(i), *x);
        }
    }

    #[test]
    fn f64i_columns_hold_raw_representation() {
        let x = F64I::new(-2.0, 5.0).unwrap();
        let b = BatchF64I::from_intervals(&[x]);
        // neg_lo column stores the *negated* lower endpoint: no shuffle
        // between batch memory and the interval representation.
        assert_eq!(b.columns(), [&[2.0][..], &[5.0][..]]);
    }

    #[test]
    fn f64i_lane_loads_match_gets() {
        let xs = sample_f64i(12);
        let b = BatchF64I::from_intervals(&xs);
        let v = b.load_x4(1, 2); // lanes 1, 3, 5, 7
        for l in 0..4 {
            assert_eq!(v.lane(l), xs[1 + 2 * l]);
        }
    }

    #[test]
    fn ddi_roundtrip_is_exact() {
        let xs: Vec<DdI> = (0..9)
            .map(|i| {
                let x = Dd::new(0.1 * i as f64, 1e-20 * i as f64);
                DdI::new(x, x + Dd::from(1.0)).unwrap()
            })
            .collect();
        let b = BatchDdI::from_intervals(&xs);
        assert_eq!(b.len(), 9);
        assert_eq!(b.to_intervals(), xs);
        let v = b.load_x4(0, 2);
        for l in 0..4 {
            assert_eq!(v.lane(l), xs[2 * l]);
        }
    }

    #[test]
    fn empty_batches() {
        assert!(BatchF64I::new().is_empty());
        assert!(BatchDdI::new().is_empty());
        assert_eq!(BatchF64I::from_intervals(&[]).to_intervals(), vec![]);
        assert_eq!(BatchDdI::from_intervals(&[]).len(), 0);
    }

    #[test]
    fn bits_eq_compares_endpoint_bits() {
        let nan = F64I::from_neg_lo_hi(f64::NAN, f64::NAN);
        let a = BatchF64I::from_intervals(&[nan, F64I::point(1.0)]);
        assert_ne!(a, a.clone(), "the derived == treats NaN as unequal to itself");
        assert!(a.bits_eq(&a.clone()));
        assert!(!a.bits_eq(&BatchF64I::from_intervals(&[nan, F64I::point(-1.0)])));
        assert!(!a.bits_eq(&BatchF64I::from_intervals(&[nan])));
        let zero = |x: f64| BatchF64I::from_intervals(&[F64I::point(x)]);
        assert!(!zero(0.0).bits_eq(&zero(-0.0)));
        // The low words count too.
        let x = DdI::new(Dd::new(1.0, 1e-20), Dd::new(1.0, 1e-20)).unwrap();
        let d = BatchDdI::from_intervals(&[x]);
        assert!(d.bits_eq(&d.clone()));
        assert!(!d.bits_eq(&BatchDdI::from_intervals(&[DdI::point_f64(1.0)])));
    }
}
