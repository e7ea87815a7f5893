//! Structure-of-arrays interval buffers.
//!
//! A `Vec<F64I>` stores intervals as `(neg_lo, hi)` pairs — fine for one
//! kernel invocation, but a batch of thousands of intervals is better
//! stored as *columns*, one per f64 word of the element in
//! [`VmElem`]'s word order: `neg_lo` and `hi` for `F64I`, the high and
//! low words of both for `DdI`. The columns are the interval types'
//! internal representation verbatim (the lower endpoint is stored
//! negated so every operation rounds upward — see `igen-interval`), so
//! reassembling an interval is plain loads with **no negation and no
//! per-element shuffling**, and a packed lane vector is filled by four
//! strided loads per column. The columns are also exactly what an AVX
//! gather or a future GPU port wants to touch. One struct,
//! [`SoaBatch`], serves both elements, so [`crate::BatchProgram`]
//! loads whole groups without knowing the precision.

use igen_interval::{DdI, F64I};
use igen_vm::VmElem;
use std::marker::PhantomData;

/// A batch of intervals of element `T` in structure-of-arrays layout:
/// one column per f64 word of `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaBatch<T: VmElem> {
    cols: Vec<Vec<f64>>,
    elem: PhantomData<T>,
}

/// A batch of double-precision intervals: a column of negated lower
/// endpoints and one of upper endpoints.
pub type BatchF64I = SoaBatch<F64I>;

/// A batch of double-double intervals: four columns, the high and low
/// words of the negated lower endpoint and of the upper endpoint.
pub type BatchDdI = SoaBatch<DdI>;

impl<T: VmElem> Default for SoaBatch<T> {
    fn default() -> SoaBatch<T> {
        SoaBatch::with_capacity(0)
    }
}

impl<T: VmElem> SoaBatch<T> {
    /// An empty batch.
    pub fn new() -> SoaBatch<T> {
        SoaBatch::default()
    }

    /// An empty batch with room for `n` intervals per column.
    pub fn with_capacity(n: usize) -> SoaBatch<T> {
        let words = T::Words::default().as_ref().len();
        SoaBatch { cols: (0..words).map(|_| Vec::with_capacity(n)).collect(), elem: PhantomData }
    }

    /// Columnizes a slice of intervals.
    pub fn from_intervals(xs: &[T]) -> SoaBatch<T> {
        xs.iter().copied().collect()
    }

    /// Number of intervals in the batch.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// True when the batch holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one interval.
    pub fn push(&mut self, v: T) {
        for (col, w) in self.cols.iter_mut().zip(v.to_words().as_ref()) {
            col.push(*w);
        }
    }

    /// The `i`-th interval, reassembled from the columns (one load per
    /// word, no negation).
    pub fn get(&self, i: usize) -> T {
        let mut w = T::Words::default();
        for (x, col) in w.as_mut().iter_mut().zip(&self.cols) {
            *x = col[i];
        }
        T::from_words(w)
    }

    /// Materializes the batch back to array-of-structs form.
    pub fn to_intervals(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Loads slots `start, start + stride, ..` into one packed lane
    /// vector — the shape [`crate::BatchProgram`] uses to evolve four
    /// batch items per packed register. Column-to-column gather, no
    /// reassembly.
    pub fn load_x4(&self, start: usize, stride: usize) -> T::Lane {
        let idx = [start, start + stride, start + 2 * stride, start + 3 * stride];
        T::lane_from_columns(|w| idx.map(|i| self.cols[w][i]))
    }

    /// True when both batches hold the same bits in every column.
    /// Unlike the derived `==`, a NaN endpoint equals itself, so batches
    /// that went non-finite compare as the bit-identity contract means.
    pub fn bits_eq(&self, other: &SoaBatch<T>) -> bool {
        self.cols.iter().zip(&other.cols).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
    }
}

impl<T: VmElem> FromIterator<T> for SoaBatch<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SoaBatch<T> {
        let iter = iter.into_iter();
        let mut b = SoaBatch::with_capacity(iter.size_hint().0);
        for v in iter {
            b.push(v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igen_dd::Dd;
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
        assert_eq!(b.cols, [vec![2.0], vec![5.0]]);
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
