//! Property tests for the packed f64 interval kernels.
//!
//! **Bit-identity**: every arm of `igen_round::simd::f64i_sweep_4`, the
//! one entry into packed f64 code, returns in each lane exactly the bits
//! of the scalar interval formula — on every backend the host supports,
//! for random full-range endpoints (the generator emits NaNs,
//! infinities, subnormals and signed zeros), for an exhaustive
//! special-value grid, and over every pair of awkward intervals.

use igen_round as r;
use igen_round::simd::{self, Backend, F64iCols4, SweepOp};
use proptest::prelude::*;

/// Every backend this host can actually run.
fn backends() -> Vec<Backend> {
    [Backend::Portable, Backend::Avx2Fma]
        .into_iter()
        .filter(|&bk| bk <= simd::detected_backend())
        .collect()
}

fn assert_lane(tag: &str, bk: Backend, i: usize, got: f64, want: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        got.to_bits() == want.to_bits(),
        "{tag} [{bk:?} lane {i}]: got {got:e} ({:#018x}), want {want:e} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    );
    Ok(())
}

/// The ops `f64i_sweep_4` has arms for.
const SWEPT: [SweepOp; 5] =
    [SweepOp::Add, SweepOp::Sub, SweepOp::Mul, SweepOp::MulAdd, SweepOp::MulSub];

/// Every endpoint of a bank as raw bits, so NaN lanes compare equal.
fn bank_bits(bank: &[F64iCols4]) -> Vec<u64> {
    bank.iter().flat_map(|c| c.neg_lo.iter().chain(&c.hi).map(|x| x.to_bits())).collect()
}

/// Every sweep arm on one group, on every backend: `a` and `b` as raw
/// `(neg_lo, hi)` columns, crossed for the second operand, and the first
/// operand again as the accumulator — arbitrary raw columns on purpose
/// (random lanes hold inverted pairs): each arm must match its scalar
/// formula even on endpoint pairs no valid interval would produce.
fn check_all_kernels(a: [f64; 4], b: [f64; 4]) -> Result<(), TestCaseError> {
    for bk in backends() {
        let (ia, ib) = (F64iCols4 { neg_lo: a, hi: b }, F64iCols4 { neg_lo: b, hi: a });
        for op in SWEPT {
            let before = [ia, ib, ia, F64iCols4::default()];
            let mut bank = before;
            let swept = simd::f64i_sweep_4(bk, op, &mut bank, 1, 3, [0, 1, 2]);
            // Only AVX2+FMA has the arms: a portable sweep, forced on an
            // AVX2 host included, must report none and leave the bank.
            prop_assert_eq!(swept, bk == Backend::Avx2Fma, "{:?} on {:?}", op, bk);
            if !swept {
                prop_assert!(bank_bits(&bank) == bank_bits(&before), "{:?}: bank touched", op);
                continue;
            }
            for i in 0..4 {
                let want = sweep_lane(op, (a[i], b[i]), (b[i], a[i]), (a[i], b[i]));
                assert_lane(&format!("{op:?}.neg_lo"), bk, i, bank[3].neg_lo[i], want.0)?;
                assert_lane(&format!("{op:?}.hi"), bk, i, bank[3].hi[i], want.1)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Random full-range lanes (the `any::<f64>()` generator mixes NaNs,
    /// infinities, random bit patterns — hence subnormals — and wide-range
    /// normals), all backends.
    #[test]
    fn packed_kernels_bit_identical_random(
        a0 in any::<f64>(), a1 in any::<f64>(), a2 in any::<f64>(), a3 in any::<f64>(),
        b0 in any::<f64>(), b1 in any::<f64>(), b2 in any::<f64>(), b3 in any::<f64>(),
    ) {
        check_all_kernels([a0, a1, a2, a3], [b0, b1, b2, b3])?;
    }

    /// Same property with all lanes sharing one operand pair, so every
    /// special pair from the generator is exercised in every lane
    /// position (the movemask/patch logic is position-sensitive).
    #[test]
    fn packed_kernels_bit_identical_broadcast(a in any::<f64>(), b in any::<f64>()) {
        check_all_kernels([a; 4], [b; 4])?;
        // And with the pair in a single lane amid benign neighbours.
        for i in 0..4 {
            let mut av = [1.0; 4];
            let mut bv = [3.0; 4];
            av[i] = a;
            bv[i] = b;
            check_all_kernels(av, bv)?;
        }
    }
}

/// 2^n as an exact f64 (|n| <= 1023).
fn pow2(n: i64) -> f64 {
    f64::from_bits(((1023 + n) as u64) << 52)
}

/// Exhaustive special-value grid: every pair from a catalogue of IEEE
/// edge cases, checked through every sweep arm on every backend and in
/// every lane position (the grid is placed in each lane in turn).
#[test]
fn packed_kernels_bit_identical_special_grid() {
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        f64::EPSILON,
        1e16,
        -1e16,
        1e300,
        -1e300,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        2.5e-291,                              // FMA residual guard boundary
        1e-270,                                // division dividend guard boundary
        1e-290,                                // sqrt radicand guard boundary
        -1e-290,                               // negative radicand at the guard
        pow2(-480),                            // square just above the product guard
        pow2(996),                             // square overflows
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for &x in &specials {
        for &y in &specials {
            for i in 0..4 {
                let mut a = [1.0; 4];
                let mut b = [3.0; 4];
                a[i] = x;
                b[i] = y;
                if let Err(e) = check_all_kernels(a, b) {
                    panic!("special grid ({x:e}, {y:e}) lane {i}: {e:?}");
                }
            }
        }
    }
}

/// Endpoint values for the interval-level kernels: NaN, ±∞, subnormals,
/// ±0, values near `MAX` (sums and products that overflow), and both
/// sides of the `2.5e-291` product guard.
fn awkward() -> Vec<f64> {
    let guard = 2.5e-291;
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -1.0 / 3.0,
        0.5,
        2.0,
        1e16,
        1e300,
        -1e300,
        f64::MAX,
        -f64::MAX,
        f64::MAX / 2.0,
        // Beside `MAX`, a finite sum whose TwoSum overflows inside
        // (`s - b` rounds past `MAX`): `add_ru`'s `next_up(s)` branch.
        -3.0 * pow2(970),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        guard,
        r::next_down(guard),
        -r::next_up(guard),
        1.6e-145, // squares just above the guard
        1.5e-146, // squares below it
        // Odd significand near 2^-498: its square lies below the guard,
        // where the FMA residual underflows to zero.
        f64::from_bits(((1023 - 498) << 52) | 1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

/// Raw `(neg_lo, hi)` intervals over every ordered pair of
/// [`awkward`] values, NaN endpoints kept (unknown bounds).
fn awkward_intervals() -> Vec<(f64, f64)> {
    let v = awkward();
    let mut out = Vec::new();
    for &x in &v {
        for &y in &v {
            // Ordered pairs, and every pair with a NaN (unknown) bound.
            if x.is_nan() || y.is_nan() || x <= y {
                out.push((-x, y));
            }
        }
    }
    out
}

/// The scalar composition a sweep of `op` must reproduce on one lane:
/// `x op y`, or `z ± x * y` for the fused forms (`Sub` is `Add` on the
/// endpoint-swapped right operand).
fn sweep_lane(op: SweepOp, x: (f64, f64), y: (f64, f64), z: (f64, f64)) -> (f64, f64) {
    let add = |p: (f64, f64), q: (f64, f64)| (r::add_ru(p.0, q.0), r::add_ru(p.1, q.1));
    let mul = |p: (f64, f64), q: (f64, f64)| simd::mul_cols(p.0, p.1, q.0, q.1);
    let swap = |p: (f64, f64)| (p.1, p.0);
    match op {
        SweepOp::Add => add(x, y),
        SweepOp::Sub => add(x, swap(y)),
        SweepOp::Mul => mul(x, y),
        SweepOp::MulAdd => add(z, mul(x, y)),
        SweepOp::MulSub => add(z, swap(mul(x, y))),
        _ => unreachable!("{op:?} has no sweep arm"),
    }
}

fn lane_of(c: &F64iCols4, l: usize) -> (f64, f64) {
    (c.neg_lo[l], c.hi[l])
}

/// Runs one sweep over a 4-register, 8-group bank on every backend the
/// host runs, and checks every group of every register bit for bit: the
/// `n` written groups against [`sweep_lane`] on the bank as it was
/// before the sweep, everything else untouched. An op without a sweep
/// arm, or a backend without the kernel (portable, forced on an AVX2
/// host included), must report so and leave the whole bank as it was.
/// `regs` is `[dst, a, b, acc]`.
fn check_sweep(bank: &[F64iCols4], op: SweepOp, regs: [usize; 4], n: usize) {
    const TILE: usize = 8;
    let [dst, a, b, acc] = regs.map(|r| r * TILE);
    for bk in backends() {
        let mut got = bank.to_vec();
        let swept = simd::f64i_sweep_4(bk, op, &mut got, n, dst, [a, b, acc]);
        assert_eq!(swept, SWEPT.contains(&op) && bk == Backend::Avx2Fma, "{op:?} on {bk:?}");
        if !swept {
            assert!(bank_bits(&got) == bank_bits(bank), "{op:?} on {bk:?}: the bank was touched");
            continue;
        }
        for (k, cols) in got.iter().enumerate() {
            for l in 0..4 {
                let want = if k >= dst && k < dst + n {
                    let g = k - dst;
                    let (x, y, z) = (bank[a + g], bank[b + g], bank[acc + g]);
                    sweep_lane(op, lane_of(&x, l), lane_of(&y, l), lane_of(&z, l))
                } else {
                    lane_of(&bank[k], l)
                };
                let got = lane_of(cols, l);
                assert!(
                    got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits(),
                    "{op:?} on {bk:?} regs {regs:?} n {n}: slot {k} lane {l}: \
                     got {got:?}, want {want:?}"
                );
            }
        }
    }
}

/// A 4-register, 8-group bank whose lane `l` of group `g` of register
/// `reg` is `lane(4 * g + l, reg)`.
fn bank_from(lane: impl Fn(usize, usize) -> (f64, f64)) -> Vec<F64iCols4> {
    (0..4 * 8)
        .map(|slot| {
            let (reg, g) = (slot / 8, slot % 8);
            let mut c = F64iCols4::default();
            for l in 0..4 {
                (c.neg_lo[l], c.hi[l]) = lane(4 * g + l, reg);
            }
            c
        })
        .collect()
}

/// Every sweep op against the scalar composition, lane by lane, over
/// every pair of awkward intervals (as `a`, `b`, with accumulators
/// drawn from the same list), with distinct registers; then with the
/// destination aliasing each source in turn and with `a == b`, at
/// n = 0, 1, 3 and 8, on every backend. The ops without a sweep arm,
/// and every op on the portable backend, must leave the bank alone.
#[test]
fn sweep_matches_scalar_ops_on_awkward_grid() {
    let ivs = awkward_intervals();
    // Lane pair k of the enumeration: a = ivs[k / len], b = ivs[k % len].
    let pairs = ivs.len() * ivs.len();
    let lane = |k: usize, reg: usize| match reg {
        0 => ivs[(k / ivs.len()) % ivs.len()],
        1 => ivs[k % ivs.len()],
        _ => ivs[(k * 7 + reg) % ivs.len()],
    };
    // [dst, a, b, acc]: dst aliasing b, acc and a in turn; a == b; one
    // register for everything.
    let aliased = [[1, 0, 1, 2], [2, 0, 1, 2], [0, 0, 1, 2], [3, 0, 0, 2], [0, 0, 0, 0]];
    for op in SweepOp::ALL.into_iter().filter(|op| !SWEPT.contains(op)) {
        check_sweep(&bank_from(lane), op, [3, 0, 1, 2], 8);
    }
    for (round, first) in (0..pairs).step_by(32).enumerate() {
        let bank = bank_from(|k, reg| lane(first + k, reg));
        for op in SWEPT {
            check_sweep(&bank, op, [3, 0, 1, 2], 8);
            if round % 16 == 0 {
                for regs in aliased {
                    for n in [0, 1, 3, 8] {
                        check_sweep(&bank, op, regs, n);
                    }
                }
            }
        }
    }
}

/// Groups with exactly one, two and four NaN lanes, in every lane
/// position and in each source register in turn, the other lanes
/// awkward finite intervals: a diverged item's NaN lane shares its
/// group with live ones.
#[test]
fn sweep_matches_scalar_ops_on_nan_lane_groups() {
    let finite: Vec<(f64, f64)> =
        awkward_intervals().into_iter().filter(|(x, y)| !x.is_nan() && !y.is_nan()).collect();
    let nans = [(f64::NAN, f64::NAN), (f64::NAN, 2.0), (-0.5, f64::NAN)];
    for nan_lanes in [1usize, 2, 4] {
        for pattern in 0..4 {
            // Lane l of every group is NaN when it falls in the
            // pattern's run of `nan_lanes` lanes starting at `pattern`.
            let is_nan = |l: usize| (l + 4 - pattern) % 4 < nan_lanes;
            for nan_reg in 0..3 {
                for (round, first) in (0..finite.len()).step_by(7).enumerate() {
                    let bank = bank_from(|k, reg| {
                        if reg == nan_reg && is_nan(k % 4) {
                            nans[(k + round) % nans.len()]
                        } else {
                            finite[(first + 5 * k + 3 * reg) % finite.len()]
                        }
                    });
                    for op in SWEPT {
                        check_sweep(&bank, op, [3, 0, 1, 2], 8);
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "runs past a bank")]
fn sweep_rejects_a_range_past_the_bank() {
    let mut bank = [F64iCols4::default(); 4];
    simd::f64i_sweep_4(Backend::Avx2Fma, SweepOp::MulAdd, &mut bank, 1, 0, [1, 2, 4]);
}

/// The backend ladder is well-formed on this host: detection is stable
/// and `Portable` is always available.
#[test]
fn backend_detection_and_clamp() {
    let det = simd::detected_backend();
    assert_eq!(det, simd::detected_backend());
    assert!(backends().contains(&Backend::Portable));
}
