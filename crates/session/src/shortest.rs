//! Shortest round-trip decimal text for `f64`, written straight into a
//! caller's buffer.
//!
//! The digits come from Ryū (Adams, PLDI 2018): the shortest decimal
//! that parses back to the same double, and of those the one closest to
//! it. Of two equally close candidates this writer takes the one of
//! larger magnitude, as Rust's `{:?}` does; Ryū itself rounds to even.
//! The layout is also `{:?}`'s: a plain decimal with at least one
//! fractional digit when `1e-4 <= |v| < 1e16` or `v` is zero (`0.0001`,
//! `100.0`, `-0.0`), otherwise `d[.ddd]e[-]N` (`1e16`, `5e-324`), and
//! `NaN`, `inf` or `-inf` for the non-finite values.

/// The longest text [`push_f64`] writes: `-2.2250738585072014e-308`.
pub(crate) const MAX_LEN: usize = 24;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five and of each inverse.
const BITS: u32 = 125;
/// Powers of five `5^i` with `i` below this bound are needed.
const TABLE_LEN: usize = 342;

/// `5^i` truncated to its top [`BITS`] bits.
static POW5: [u128; TABLE_LEN] = tables().0;
/// `floor(2^(bitlen(5^i) - 1 + BITS) / 5^i) + 1`.
static POW5_INV: [u128; TABLE_LEN] = tables().1;

/// Appends the shortest round-trip text of `v` to `out`, in the layout
/// of `format!("{v:?}")`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() || v == 0.0 {
        out.push_str(match v {
            _ if v.is_nan() => "NaN",
            f64::INFINITY => "inf",
            f64::NEG_INFINITY => "-inf",
            _ if v.is_sign_negative() => "-0.0",
            _ => "0.0",
        });
        return;
    }
    let (mantissa, exp) = shortest(v.to_bits());
    let len = mantissa.ilog10() as usize + 1;
    // The value is ±0.DIGITS × 10^point. The buffer starts out all
    // zeros, so zero padding costs nothing.
    let point = exp + len as i32;
    let plain = (1e-4..1e16).contains(&v.abs());
    let mut buf = [b'0'; MAX_LEN];
    let mut n = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        n = 1;
    }
    if plain && point <= 0 {
        // 0.000DIGITS
        buf[n + 1] = b'.';
        n += 2 + point.unsigned_abs() as usize;
        write_digits(&mut buf[n..n + len], mantissa);
        n += len;
    } else if plain && point as usize >= len {
        // DIGITS000.0
        write_digits(&mut buf[n..n + len], mantissa);
        n += point as usize;
        buf[n] = b'.';
        n += 2;
    } else {
        // DIG.ITS, or D.IGITS before an exponent: write the digits one
        // place right, then move the integer part left over the point.
        let int_len = if plain { point as usize } else { 1 };
        write_digits(&mut buf[n + 1..n + 1 + len], mantissa);
        buf.copy_within(n + 1..n + 1 + int_len, n);
        buf[n + int_len] = b'.';
        n += if int_len < len { len + 1 } else { len };
        if !plain {
            buf[n] = b'e';
            n += 1;
            if point < 1 {
                buf[n] = b'-';
                n += 1;
            }
            let e = (point - 1).unsigned_abs();
            let e_len = e.checked_ilog10().map_or(1, |l| l as usize + 1);
            write_digits(&mut buf[n..n + e_len], e.into());
            n += e_len;
        }
    }
    out.push_str(std::str::from_utf8(&buf[..n]).expect("the writer emits ASCII"));
}

/// The two ASCII digits of every number below 100.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Writes the decimal digits of `m` into `dst`, which must be exactly
/// as long as `m` has digits.
fn write_digits(dst: &mut [u8], mut m: u64) {
    let mut end = dst.len();
    while m >= 100 {
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[(m % 100) as usize]);
        m /= 100;
        end -= 2;
    }
    if m >= 10 {
        dst[..2].copy_from_slice(&DIGIT_PAIRS[m as usize]);
    } else {
        dst[0] = b'0' + m as u8;
    }
}

/// Ryū's `d2d` for a finite, nonzero double: the shortest decimal
/// `mantissa × 10^exponent` that rounds back to `bits`, exact ties
/// rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // Two extra bits make the interval bounds integers.
    let e2 = ieee_exponent.max(1) - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
    let m2 = if ieee_exponent == 0 { ieee_mantissa } else { (1 << MANTISSA_BITS) | ieee_mantissa };
    // Round-to-nearest-even parsing maps an interval bound back to an
    // even mantissa, so the bounds belong to the interval when m2 is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    // Scale the interval [mm, mp], in units of 2^e2, to units of 10^e10.
    let (q, e10, mul, j) = if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        (q, q as i32, POW5_INV[q as usize], (q as i32 - e2 + pow5bits(q) + BITS as i32 - 1))
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = (-e2) as u32 - q;
        (q, q as i32 + e2, POW5[i as usize], q as i32 - pow5bits(i) + BITS as i32)
    };
    let scale = |m: u64| mul_shift(m, mul, j as u32);
    let (mut vr, mut vp, mut vm) = (scale(mv), scale(mp), scale(mm));
    // Whether scaling the lower bound dropped only zeros, so that the
    // bound itself is a candidate when bounds belong to the interval.
    // When they do not, an exactly scaled upper bound steps back instead.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 && q <= 21 && mv % 5 != 0 {
        // At most one of mm, mv and mp is a multiple of 5.
        let exact = |m: u64| m.is_multiple_of(5u64.pow(q));
        if accept_bounds {
            vm_trailing_zeros = exact(mm);
        } else {
            vp -= u64::from(exact(mp));
        }
    } else if e2 < 0 && q <= 1 {
        if accept_bounds {
            vm_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds a shorter decimal. Ryū
    // also tracks whether vr dropped only zeros, to round an exact tie (a
    // dropped tail of 50…0) to even; here a tie rounds up, as in std, so
    // `last_removed >= 5` decides alone.
    let (mut removed, mut last_removed) = (0, 0);
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        (last_removed, vr, vp, vm) = (vr % 10, vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // An exact lower bound that is a candidate sheds its zeros too.
    while vm_trailing_zeros && vm % 10 == 0 {
        (last_removed, vr, vp, vm) = (vr % 10, vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // Take vr + 1 when vr is outside the interval or the dropped digits
    // round up.
    let out_of_bounds = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    (vr + u64::from(out_of_bounds || last_removed >= 5), e10 + removed)
}

/// `(m × mul) >> j` for `j >= 64`, exact in the bits kept.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The bit length of `5^e` (`ceil(log2(5^e))`, or 1 for `e == 0`), for
/// `e <= 3528`.
const fn pow5bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// A non-negative integer of 960 bits in little-endian limbs: wide
/// enough for `2^916`, the numerator [`tables`] divides.
type Big = [u64; 15];

/// The low 128 bits of `x >> s`.
const fn shifted(x: &Big, s: u32) -> u128 {
    let (i, bit) = ((s / 64) as usize, s % 64);
    let low = x[i] as u128 | (x[i + 1] as u128) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | (x[i + 2] as u128) << (128 - bit)
    }
}

/// [`POW5`] and [`POW5_INV`], from exact integer arithmetic at compile
/// time. `5^i` comes from repeated multiplication. The inverses come
/// from one exact quotient `floor(2^TOP / 5^i)`, divided by 5 per step
/// since `floor(floor(x / a) / b) == floor(x / (a·b))`, then shifted
/// right to the power of two each entry needs.
const fn tables() -> ([u128; TABLE_LEN], [u128; TABLE_LEN]) {
    // The largest `bitlen(5^i) - 1 + BITS` below TABLE_LEN; a smaller
    // value fails the build on the subtraction below.
    const TOP: u32 = 916;
    let (mut pow5, mut inv) = ([0; TABLE_LEN], [0; TABLE_LEN]);
    let (mut p, mut q): (Big, Big) = ([0; 15], [0; 15]);
    p[0] = 1;
    q[(TOP / 64) as usize] = 1 << (TOP % 64);
    let mut i = 0;
    while i < TABLE_LEN {
        let bits = pow5bits(i as u32) as u32;
        pow5[i] =
            if bits <= BITS { shifted(&p, 0) << (BITS - bits) } else { shifted(&p, bits - BITS) };
        inv[i] = shifted(&q, TOP - (bits - 1 + BITS)) + 1;
        // p *= 5 and q /= 5, limb by limb.
        let (mut carry, mut rem) = (0u128, 0u128);
        let mut k = 0;
        while k < 15 {
            let up = p[k] as u128 * 5 + carry;
            (p[k], carry) = (up as u64, up >> 64);
            let down = (rem << 64) | q[14 - k] as u128;
            (q[14 - k], rem) = ((down / 5) as u64, down % 5);
            k += 1;
        }
        i += 1;
    }
    (pow5, inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    fn check(v: f64) {
        assert_eq!(text(v), format!("{v:?}"), "bits {:#018x}", v.to_bits());
    }

    /// SplitMix64: a fixed, seeded stream of bit patterns.
    fn bit_patterns(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn the_tables_start_like_the_published_ones() {
        // Ryū's d2s_full_table.h stores each entry as {low, high} u64s.
        let entry = |low: u64, high: u64| u128::from(high) << 64 | u128::from(low);
        assert_eq!(POW5[0], entry(0, 1_152_921_504_606_846_976));
        assert_eq!(POW5[1], entry(0, 1_441_151_880_758_558_720));
        assert_eq!(POW5_INV[0], entry(1, 2_305_843_009_213_693_952));
        assert_eq!(POW5_INV[1], entry(11_068_046_444_225_730_970, 1_844_674_407_370_955_161));
    }

    #[test]
    fn special_values_and_the_layout_thresholds() {
        for (v, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (1e-4, "0.0001"),
            (9.999999999999999e-5, "9.999999999999999e-5"),
            (1e16, "1e16"),
            (9999999999999998.0, "9999999999999998.0"),
            (1e15, "1000000000000000.0"),
            (0.1, "0.1"),
            (-123.456, "-123.456"),
            // 2^-25 sits exactly between two 17-digit candidates: the
            // tie goes up.
            (2f64.powi(-25), "2.9802322387695313e-8"),
        ] {
            assert_eq!(text(v), want);
            check(v);
        }
    }

    #[test]
    fn every_exponent_with_edge_mantissas() {
        let top = (1u64 << MANTISSA_BITS) - 1;
        let mantissas = [0, 1, 2, 3, 4, 5, 1 << 51, (1 << 51) - 1, (1 << 51) + 1, top - 1, top];
        for sign in [0, 1u64 << 63] {
            for exponent in 0..=2047u64 {
                for &m in &mantissas {
                    check(f64::from_bits(sign | exponent << MANTISSA_BITS | m));
                }
            }
        }
    }

    #[test]
    fn powers_of_ten_within_two_ulps() {
        for p in -324..=308 {
            let bits = format!("1e{p}").parse::<f64>().expect("parses").to_bits();
            for d in -2i64..=2 {
                check(f64::from_bits(bits.wrapping_add_signed(d)));
            }
        }
    }

    #[test]
    fn integers() {
        for i in 0..=2_000_000u64 {
            check(i as f64);
        }
        for base in [1u64 << 53, 1 << 54, 1 << 60, 10_000_000_000_000_000, u64::MAX / 3] {
            for d in 0..2_000 {
                check((base + d) as f64);
                check((base - d) as f64);
            }
        }
    }

    #[test]
    fn two_million_seeded_bit_patterns() {
        for bits in bit_patterns(0x16e0, 2_000_000) {
            check(f64::from_bits(bits));
        }
    }

    /// The long form of the test above, for release builds:
    /// `cargo test --release -p igen-session shortest -- --ignored`.
    #[test]
    #[ignore = "100M values: run in release"]
    fn one_hundred_million_seeded_bit_patterns() {
        for bits in bit_patterns(0x1ce_2018, 100_000_000) {
            check(f64::from_bits(bits));
        }
    }
}
