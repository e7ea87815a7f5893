//! The `force_backend` downgrade-only contract (satellite of the
//! telemetry PR).
//!
//! Forcing a backend can only *downgrade* from the detected level, never
//! enable instructions the host lacks.
//!
//! With the `telemetry` feature on, the dispatch counters additionally
//! pin *where* forced calls go: under a forced `Portable`,
//! `simd.dispatch.portable` moves and `simd.dispatch.avx2_fma` does not.

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

/// With telemetry compiled in, the dispatch counters prove the forced
/// calls ran on the portable path: the AVX2 counter stays put, even on
/// an AVX2+FMA host.
#[cfg(feature = "telemetry")]
#[test]
fn forced_portable_routes_dispatch_to_portable() {
    use igen_telemetry::counters_snapshot;
    fn counter(name: &str) -> u64 {
        counters_snapshot().iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }
    let _serial = FORCE_LOCK.lock().unwrap();
    let _restore = ForceGuard;
    let eff = simd::force_backend(Some(Backend::Portable));
    let (portable_0, avx_0) =
        (counter("simd.dispatch.portable"), counter("simd.dispatch.avx2_fma"));
    let packed_0 = counter("simd.mul.packed_calls");
    let pairs = [
        ([1e-280, 1.0 / 3.0, -1e-280, 1.0], [7.0, 1e-280, -3.0, 1e-300]),
        ([f64::NAN, f64::INFINITY, -1.0, 0.0], [1.0, f64::NEG_INFINITY, f64::MAX, -0.0]),
    ];
    for (a, b) in &pairs {
        let (hi, lo) = simd::mul_ru_both_4(eff, a, b);
        for i in 0..4 {
            let (wh, wl) = igen_round::mul_ru_both(a[i], b[i]);
            assert_eq!((hi[i].to_bits(), lo[i].to_bits()), (wh.to_bits(), wl.to_bits()));
        }
    }
    let calls = pairs.len() as u64;
    assert_eq!(
        counter("simd.dispatch.portable") - portable_0,
        calls,
        "every forced call must dispatch to the portable loops"
    );
    assert_eq!(
        counter("simd.dispatch.avx2_fma"),
        avx_0,
        "a forced portable run must never touch the AVX2 path"
    );
    assert_eq!(counter("simd.mul.packed_calls") - packed_0, calls);
}
