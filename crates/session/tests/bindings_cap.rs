//! A compile's bindings are bounded before anything is allocated for
//! them: one interval cell past `igen_vm::MAX_INSNS` is refused with an
//! ordinary error line that names the count and the cap, and so is a
//! length no allocator could serve.

use igen_session::{Service, ServiceConfig};

const SRC: &str = "void f(double *a){ a[0] = a[0] * a[0]; }";

fn compile_with_len(svc: &Service, len: u64) -> String {
    svc.submit(&format!(r#"{{"kind":"compile","source":"{SRC}","lens":{{"a":{len}}}}}"#)).wait()
}

#[test]
fn a_compile_over_the_cell_cap_is_refused_before_allocating() {
    let svc = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let cap = igen_vm::MAX_INSNS;
    for len in [cap as u64 + 1, 1 << 53] {
        let resp = compile_with_len(&svc, len);
        let want = format!(
            "{{\"ok\":false,\"error\":\"f: cannot compile to bytecode: \
             bindings too large: {len} interval cells (max {cap})\"}}"
        );
        assert_eq!(resp, want);
    }
    // The same source with a small array compiles.
    let resp = compile_with_len(&svc, 2);
    assert!(resp.starts_with(r#"{"ok":true,"kind":"compile","fn":"f""#), "{resp}");
}
