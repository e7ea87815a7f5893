//! The `force_backend` downgrade-only contract (satellite of the
//! telemetry PR).
//!
//! Forcing a backend can only *downgrade* from the detected level, never
//! enable instructions the host lacks.
//!
//! With the `telemetry` feature on, the counters additionally pin that
//! a forced `Portable` sweep runs no packed kernel: no `packed_calls`
//! counter moves.

use igen_round::simd::{self, Backend};

/// `force_backend` mutates process-global state, so the tests in this
/// file must not interleave.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Restores the detected backend even if a test panics mid-force.
struct ForceGuard;
impl Drop for ForceGuard {
    fn drop(&mut self) {
        simd::force_backend(None);
    }
}

#[test]
fn force_backend_only_downgrades() {
    let _serial = FORCE_LOCK.lock().unwrap();
    let _restore = ForceGuard;
    let det = simd::detected_backend();
    // Forcing the narrowest level takes effect verbatim on every host...
    assert_eq!(simd::force_backend(Some(Backend::Portable)), Backend::Portable);
    assert_eq!(simd::active_backend(), Backend::Portable);
    // ...forcing the widest clamps to what the host has...
    assert_eq!(simd::force_backend(Some(Backend::Avx2Fma)), det);
    assert_eq!(simd::active_backend(), det);
    // ...and clearing the force restores detection.
    assert_eq!(simd::force_backend(None), det);
    assert_eq!(simd::active_backend(), det);
}

/// With telemetry compiled in, the counters prove that a forced
/// portable sweep runs no packed kernel, even on an AVX2+FMA host: every
/// op reports no kernel and leaves the bank's bits alone, and no
/// `packed_calls` counter moves.
#[cfg(feature = "telemetry")]
#[test]
fn forced_portable_routes_dispatch_to_portable() {
    use igen_round::simd::{F64iCols4, SweepOp};
    use igen_telemetry::counters_snapshot;
    fn kernel_counters() -> Vec<(&'static str, u64)> {
        counters_snapshot().into_iter().filter(|&(n, _)| n.ends_with(".packed_calls")).collect()
    }
    fn bits(bank: &[F64iCols4]) -> Vec<u64> {
        bank.iter().flat_map(|c| c.neg_lo.iter().chain(&c.hi).map(|x| x.to_bits())).collect()
    }
    let _serial = FORCE_LOCK.lock().unwrap();
    let _restore = ForceGuard;
    assert_eq!(simd::force_backend(Some(Backend::Portable)), Backend::Portable);
    let before = [
        F64iCols4 { neg_lo: [-1e-280, 1.0 / 3.0, 1e-280, -1.0], hi: [7.0, 1e-280, 3.0, 1e-300] },
        F64iCols4 {
            neg_lo: [f64::NAN, f64::INFINITY, -1.0, 0.0],
            hi: [1.0, f64::INFINITY, f64::MAX, -0.0],
        },
        F64iCols4::default(),
    ];
    let counters_0 = kernel_counters();
    for op in SweepOp::ALL {
        let mut bank = before;
        let swept = simd::f64i_sweep_4(simd::active_backend(), op, &mut bank, 1, 2, [0, 1, 0]);
        assert!(!swept, "{op:?}: a forced portable sweep must report no kernel");
        assert_eq!(bits(&bank), bits(&before), "{op:?}: a forced portable sweep touched the bank");
    }
    assert_eq!(
        kernel_counters(),
        counters_0,
        "a forced portable run must never touch the AVX2 path"
    );
    // The same sweep unforced on an AVX2+FMA host does tick them.
    simd::force_backend(None);
    if simd::detected_backend() == Backend::Avx2Fma {
        let (mut bank, bk) = (before, simd::active_backend());
        assert!(simd::f64i_sweep_4(bk, SweepOp::Mul, &mut bank, 1, 2, [0, 1, 0]));
        assert_ne!(kernel_counters(), counters_0, "an AVX2 sweep must tick its counters");
    }
}
