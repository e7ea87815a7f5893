//! Linear-algebra benchmarks: `gemm` (ATLAS-style matrix multiplication),
//! `potrf` (SLinGen-style Cholesky decomposition), and `mvm`
//! (matrix-vector product, the Section VI-B reduction benchmark).

use crate::num::Numeric;
use igen_interval::{DdI, SumAcc64, SumAccDd, F64I};

/// Dot product `Σ xᵢ·yᵢ` as a plain left-to-right fold — the per-row
/// reduction shared by `mvm` and `gemm`, exposed on its own as the dot
/// benchmark.
pub fn dot<T: Numeric>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc = acc + xi * yi;
    }
    acc
}

/// Interval operations of one dot product (1 mul + 1 add per element).
pub fn dot_iops(n: usize) -> u64 {
    2 * n as u64
}

/// `C += A·B` for row-major `m×k` times `k×n` — the scalar triple loop
/// (the `ss` configuration): each output accumulates from its own `C`
/// entry in `p` order.
pub fn gemm<T: Numeric>(m: usize, k: usize, n: usize, a: &[T], b: &[T], c: &mut [T]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc = acc + a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C += A·B` with the inner loop unrolled by `LANES` along `j` —
/// independent accumulator chains map onto packed interval registers
/// (the `sv`/`vv` configurations).
pub fn gemm_unrolled<T: Numeric, const LANES: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        let mut j = 0;
        while j + LANES <= n {
            let mut acc = [T::zero(); LANES];
            for (l, slot) in acc.iter_mut().enumerate() {
                *slot = c[i * n + j + l];
            }
            for p in 0..k {
                let av = a[i * k + p];
                for (l, slot) in acc.iter_mut().enumerate() {
                    *slot = *slot + av * b[p * n + j + l];
                }
            }
            for (l, slot) in acc.iter().enumerate() {
                c[i * n + j + l] = *slot;
            }
            j += LANES;
        }
        while j < n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc = acc + a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
            j += 1;
        }
    }
}

/// Interval operations of a square gemm (1 mul + 1 add per inner step).
pub fn gemm_iops(n: usize) -> u64 {
    2 * (n as u64).pow(3)
}

/// Cholesky decomposition `A = L·Lᵀ` of a symmetric positive-definite
/// row-major `n×n` matrix; the lower triangle of `a` is overwritten with
/// `L` (the `potrf` benchmark).
pub fn potrf<T: Numeric>(n: usize, a: &mut [T]) {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for p in 0..j {
            let l = a[j * n + p];
            d = d - l * l;
        }
        let d = d.sqrt_n();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for p in 0..j {
                s = s - a[i * n + p] * a[j * n + p];
            }
            a[i * n + j] = s / d;
        }
    }
}

/// Cholesky with the column-update loop unrolled by `LANES` (independent
/// rows per lane).
pub fn potrf_unrolled<T: Numeric, const LANES: usize>(n: usize, a: &mut [T]) {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for p in 0..j {
            let l = a[j * n + p];
            d = d - l * l;
        }
        let d = d.sqrt_n();
        a[j * n + j] = d;
        let mut i = j + 1;
        while i + LANES <= n {
            let mut s = [T::zero(); LANES];
            for (l, slot) in s.iter_mut().enumerate() {
                *slot = a[(i + l) * n + j];
            }
            for p in 0..j {
                let ljp = a[j * n + p];
                for (l, slot) in s.iter_mut().enumerate() {
                    *slot = *slot - a[(i + l) * n + p] * ljp;
                }
            }
            for (l, slot) in s.iter().enumerate() {
                a[(i + l) * n + j] = *slot / d;
            }
            i += LANES;
        }
        while i < n {
            let mut s = a[i * n + j];
            for p in 0..j {
                s = s - a[i * n + p] * a[j * n + p];
            }
            a[i * n + j] = s / d;
            i += 1;
        }
    }
}

/// Interval operations of potrf (~n³/3 mul+sub pairs).
pub fn potrf_iops(n: usize) -> u64 {
    let n = n as u64;
    2 * n * n * n / 3 + 2 * n * n
}

/// `y = A·x + y` for row-major `m×n` — the Section VI-B benchmark,
/// plain interval loop.
pub fn mvm<T: Numeric>(m: usize, n: usize, a: &[T], x: &[T], y: &mut [T]) {
    assert_eq!(a.len(), m * n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), m);
    for i in 0..m {
        let mut acc = y[i];
        for j in 0..n {
            acc = acc + a[i * n + j] * x[j];
        }
        y[i] = acc;
    }
}

/// `y = A·x + y` with the double-precision reduction transformation:
/// each row accumulates in the double-double accumulator (Fig. 7's
/// generated shape).
pub fn mvm_acc_f64(m: usize, n: usize, a: &[F64I], x: &[F64I], y: &mut [F64I]) {
    assert_eq!(a.len(), m * n);
    for i in 0..m {
        let mut acc = SumAcc64::new(y[i]);
        for j in 0..n {
            acc.accumulate(&(a[i * n + j] * x[j]));
        }
        y[i] = acc.reduce();
    }
}

/// `y = A·x + y` in double-double with the exact exponent-bucket
/// accumulator (Section VI-B, DD target).
pub fn mvm_acc_dd(m: usize, n: usize, a: &[DdI], x: &[DdI], y: &mut [DdI]) {
    assert_eq!(a.len(), m * n);
    for i in 0..m {
        let mut acc = SumAccDd::new(y[i]);
        for j in 0..n {
            acc.accumulate(&(a[i * n + j] * x[j]));
        }
        y[i] = acc.reduce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn gemm_matches_reference() {
        let (m, k, n) = (3, 4, 5);
        let a = seq(m * k, |i| (i as f64) * 0.5 - 2.0);
        let b = seq(k * n, |i| 1.0 / (i as f64 + 1.0));
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        // Reference element (1,2).
        let want: f64 = (0..k).map(|p| a[k + p] * b[p * n + 2]).sum();
        assert!((c[n + 2] - want).abs() < 1e-12);
    }

    #[test]
    fn gemm_unrolled_bitwise_matches() {
        use igen_interval::F64I;
        let (m, k, n) = (4, 6, 7); // n=7 exercises the lane tail
        let a: Vec<F64I> =
            seq(m * k, |i| (i as f64 - 10.0) * 0.3).iter().map(|&v| F64I::point(v)).collect();
        let b: Vec<F64I> =
            seq(k * n, |i| 0.1 * (i as f64 + 1.0)).iter().map(|&v| F64I::point(v)).collect();
        let mut c1 = vec![F64I::ZERO; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        let mut c2 = vec![F64I::ZERO; m * n];
        gemm_unrolled::<F64I, 2>(m, k, n, &a, &b, &mut c2);
        let mut c4 = vec![F64I::ZERO; m * n];
        gemm_unrolled::<F64I, 4>(m, k, n, &a, &b, &mut c4);
        assert_eq!(c1, c2);
        assert_eq!(c1, c4);
    }

    #[test]
    fn potrf_reconstructs() {
        // SPD matrix A = M·Mᵀ + n·I.
        let n = 6;
        let mvals = seq(n * n, |i| ((i * 13 % 17) as f64) / 17.0 - 0.3);
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                for p in 0..n {
                    a[i * n + j] += mvals[i * n + p] * mvals[j * n + p];
                }
            }
            a[i * n + i] += n as f64;
        }
        let orig = a.clone();
        potrf(n, &mut a);
        // L·Lᵀ == original (lower triangle carries L).
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for p in 0..=j {
                    s += a[i * n + p] * a[j * n + p];
                }
                assert!((s - orig[i * n + j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn potrf_interval_contains_float_and_unrolled_matches() {
        use igen_interval::F64I;
        let n = 10;
        let mut af = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                af[i * n + j] = 1.0 / ((i + j + 1) as f64) + if i == j { 2.0 } else { 0.0 };
            }
        }
        let mut f = af.clone();
        potrf(n, &mut f);
        let ai: Vec<F64I> = af.iter().map(|&v| F64I::point(v)).collect();
        let mut i1 = ai.clone();
        potrf(n, &mut i1);
        let mut i4 = ai.clone();
        potrf_unrolled::<F64I, 4>(n, &mut i4);
        assert_eq!(i1, i4);
        for r in 0..n {
            for c in 0..=r {
                assert!(
                    i1[r * n + c].contains(f[r * n + c]),
                    "L[{r},{c}] = {} outside {}",
                    f[r * n + c],
                    i1[r * n + c]
                );
            }
        }
    }

    #[test]
    fn mvm_accumulator_is_tighter() {
        use igen_interval::F64I;
        let (m, n) = (3, 200);
        let a: Vec<F64I> =
            (0..m * n).map(|i| F64I::point(0.05 * ((i * 7 % 23) as f64 - 11.0))).collect();
        let x: Vec<F64I> = (0..n).map(|i| F64I::point(1.0 / (i as f64 + 2.0))).collect();
        let y0: Vec<F64I> = vec![F64I::point(0.25); m];
        let mut y_plain = y0.clone();
        mvm(m, n, &a, &x, &mut y_plain);
        let mut y_acc = y0.clone();
        mvm_acc_f64(m, n, &a, &x, &mut y_acc);
        for i in 0..m {
            assert!(
                y_acc[i].certified_bits() >= y_plain[i].certified_bits(),
                "row {i}: acc {} < plain {}",
                y_acc[i].certified_bits(),
                y_plain[i].certified_bits()
            );
            // Both contain the dd-accurate reference.
            let mut r = igen_dd::Dd::from(0.25);
            for j in 0..n {
                r = r + igen_dd::Dd::from(a[i * n + j].mid()) * igen_dd::Dd::from(x[j].mid());
            }
            assert!(y_acc[i].contains(r.to_f64()));
            assert!(y_plain[i].contains(r.to_f64()));
        }
    }

    #[test]
    fn mvm_dd_accumulator_certifies() {
        use igen_interval::DdI;
        let (m, n) = (2, 500);
        let a: Vec<DdI> =
            (0..m * n).map(|i| DdI::point_f64(0.01 * ((i * 11 % 31) as f64 - 15.0))).collect();
        let x: Vec<DdI> = (0..n).map(|i| DdI::point_f64((i as f64 * 0.37).cos())).collect();
        let mut y = vec![DdI::ZERO; m];
        mvm_acc_dd(m, n, &a, &x, &mut y);
        for v in &y {
            assert!(v.certified_bits() > 95.0, "bits = {}", v.certified_bits());
        }
    }
}
