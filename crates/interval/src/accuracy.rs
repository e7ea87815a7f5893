//! The accuracy metric of Section VII.
//!
//! > "We measure the number of correct bits by subtracting the loss of
//! > accuracy from the number of bits used by the given precision (53 and
//! > 106 bits for double and double-double). The loss of accuracy is the
//! > base-2 logarithm of the number of double precision floating-point
//! > values contained in an interval."
//!
//! The double-precision metric is [`crate::F64I::certified_bits`]; this
//! module holds the double-double one behind [`crate::DdI::certified_bits`].

use igen_dd::Dd;
use igen_round::exponent;

/// Certified bits of a double-double interval out of 106.
///
/// The loss is `log2(width / q + 1)` where `q = 2^(e_mid - 105)` is the
/// double-double quantum at the midpoint's binade — the direct
/// generalization of counting contained values to the 106-bit grid.
pub fn certified_bits_dd(lo: Dd, hi: Dd) -> f64 {
    if lo.is_nan() || hi.is_nan() || !lo.is_finite() || !hi.is_finite() {
        return 0.0;
    }
    if hi.lt(&lo) {
        return 0.0;
    }
    let width = igen_dd::sub_dir::<igen_round::Ru>(hi, lo);
    if width.is_zero() {
        return 106.0;
    }
    // Midpoint magnitude scale.
    let mid_mag = lo.abs().max(hi.abs());
    if mid_mag.is_zero() {
        return 106.0;
    }
    let e_mid = exponent(mid_mag.hi());
    let e_w = exponent(width.hi());
    // loss ≈ log2(width) - (e_mid - 105); refine with the width mantissa.
    let frac = width.hi().abs() / pow2(e_w);
    let loss = (e_w as f64 + frac.log2()) - (e_mid as f64 - 105.0);
    (106.0 - loss.max(0.0)).clamp(0.0, 106.0)
}

fn pow2(n: i32) -> f64 {
    if n >= -1022 {
        f64::from_bits(((1023 + n) as u64) << 52)
    } else if n >= -1074 {
        f64::from_bits(1u64 << (n + 1074))
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dd_metric_basics() {
        let one = Dd::from(1.0);
        assert_eq!(certified_bits_dd(one, one), 106.0);
        // Width of one dd quantum at 1.0: 2^-105 -> ~105 bits.
        let hi = one + Dd::new(0.0, 2f64.powi(-105));
        let bits = certified_bits_dd(one, hi);
        assert!((bits - 105.0).abs() < 1.1, "bits = {bits}");
        // Width of one f64 ulp: 2^-52 -> ~53 bits.
        let hi2 = Dd::from(1.0 + f64::EPSILON);
        let bits2 = certified_bits_dd(one, hi2);
        assert!((bits2 - 53.0).abs() < 1.1, "bits = {bits2}");
        assert_eq!(certified_bits_dd(Dd::NAN, one), 0.0);
    }

    #[test]
    fn dd_metric_monotone_in_width() {
        let one = Dd::from(1.0);
        let mut last = 106.0;
        for k in [-100, -80, -60, -40, -20, -10, -5] {
            let hi = one + Dd::from(2f64.powi(k));
            let bits = certified_bits_dd(one, hi);
            assert!(bits < last, "k={k}: {bits} !< {last}");
            last = bits;
        }
    }
}
