//! Error-free transformations (EFTs) on binary64.
//!
//! These are the classical building blocks used both for software directed
//! rounding (this crate) and for double-double arithmetic (`igen-dd`), and
//! they appear verbatim in Fig. 6 of the paper.

/// Knuth's branch-free TwoSum: returns `(s, e)` with `s = RN(a + b)` and
/// `s + e = a + b` *exactly*, provided no intermediate overflow occurs.
///
/// # Example
///
/// ```
/// use igen_round::two_sum;
/// let (s, e) = two_sum(1.0, 1e-30);
/// assert_eq!(s, 1.0);
/// assert_eq!(e, 1e-30);
/// ```
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let a1 = s - b;
    let b1 = s - a1;
    let da = a - a1;
    let db = b - b1;
    (s, da + db)
}

/// Dekker's FastTwoSum: like [`two_sum`] but requires `|a| >= |b|` (or
/// `a == 0`); three operations instead of six.
///
/// The exactness guarantee only holds under the magnitude precondition; the
/// double-double algorithms of the paper establish it before calling.
#[inline(always)]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let z = s - a;
    (s, b - z)
}

/// TwoProd via FMA: returns `(p, e)` with `p = RN(a * b)` and
/// `p + e = a * b` *exactly*, provided `a * b` neither overflows nor falls
/// into the subnormal range.
///
/// # Example
///
/// ```
/// use igen_round::two_prod;
/// let (p, e) = two_prod(1.0 + f64::EPSILON, 1.0 + f64::EPSILON);
/// assert_eq!(p + e, (1.0 + f64::EPSILON) * (1.0 + f64::EPSILON) - e + e);
/// // The residual recovers the bits the rounded product lost:
/// assert_eq!(e, f64::EPSILON * f64::EPSILON);
/// ```
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_exact() {
        let cases =
            [(0.1, 0.2), (1e16, 1.0), (-1e16, 1.0), (1.0, -1.0), (3.5, 4.25), (1e-300, 1e300)];
        for (a, b) in cases {
            let (s, e) = two_sum(a, b);
            assert_eq!(s, a + b);
            // The RN error is at most half an ulp of s.
            let gap = (crate::next_up(s) - s).max(s - crate::next_down(s));
            assert!(e.abs() <= gap / 2.0, "({a}, {b}): e = {e}");
        }
    }

    #[test]
    fn two_sum_exactness_checked_with_integers() {
        // Values with short significands allow exact integer verification.
        let (s, e) = two_sum(1e16, 1.0);
        // 1e16 + 1 is not representable (gap is 2.0); RN gives 1e16.
        assert_eq!(s, 1e16);
        assert_eq!(e, 1.0);
        let (s, e) = two_sum(1e16, 3.0);
        // Nearest even of 1e16+3 is 1e16+4.
        assert_eq!(s, 1e16 + 4.0);
        assert_eq!(e, -1.0);
    }

    #[test]
    fn fast_two_sum_matches_two_sum_when_ordered() {
        let cases: [(f64, f64); 4] = [(1e10, 0.1), (5.0, -3.0), (-8.0, 1e-5), (1.0, 0.0)];
        for (a, b) in cases {
            assert!(a.abs() >= b.abs());
            assert_eq!(fast_two_sum(a, b), two_sum(a, b), "({a}, {b})");
        }
    }

    #[test]
    fn two_prod_residual_sign() {
        // 0.1 * 0.1: the rounded product is above the exact one.
        let (_p, e) = two_prod(0.1, 0.1);
        assert!(e != 0.0);
        // (1+eps)^2 = 1 + 2eps + eps^2; RN keeps 1 + 2eps, residual eps^2 > 0.
        let (p, e) = two_prod(1.0 + f64::EPSILON, 1.0 + f64::EPSILON);
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert!(e > 0.0);
    }
}
