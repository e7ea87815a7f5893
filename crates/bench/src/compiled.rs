//! The five paper kernels as C source, compiled into the batch engine.
//!
//! This module is the one place that knows each kernel's C form and how
//! its parameters bind onto batch items. Every kernel compiles through
//! the full IGen pipeline at `-O2`, is lowered to register bytecode and
//! peepholed, passes the session's insert-time check against the
//! reference interpreter, and runs as a [`igen_batch::BatchProgram`]
//! four items per packed register. Each output performs the scalar
//! `igen-kernels` operation sequence, so results are bit-identical to
//! `linalg::dot`, `linalg::mvm`, `linalg::gemm`, `henon_from` and
//! `Ffnn::forward`:
//!
//! | kernel    | inputs per item                | uniform         | outputs per item          |
//! |-----------|--------------------------------|-----------------|---------------------------|
//! | [`dot`]   | `x` (n), `y` (n)               | —               | `x·y`                     |
//! | [`mvm`]   | `x` (n), `y` (n)               | `A` (n×n)       | `A·x + y` (n)             |
//! | gemm      | column `j` of `B`, then of `C` | `A` (n×n)       | column `j` of `C + A·B`   |
//! | [`henon`] | `x0`, `y0`                     | —               | `x` after the orbit       |
//! | [`ffnn`]  | the input vector               | weights, biases | the 10 logits             |
//!
//! [`zip_items`] builds the dot, mvm and Hénon input batches. GEMM
//! `C += A·B` is the [`mvm`] program batched over the columns of `B`
//! and `C`: column `j` of the result is `A·B[:, j] + C[:, j]`,
//! accumulated from `C[i][j]` in `k` order exactly like the scalar
//! triple loop, and the `n` columns fill the packed lanes.
//! [`gemm_items`] and [`gemm_result`] convert between row-major
//! matrices and that column-item layout.
//!
//! Programs come from one process-wide compile session, so asking for
//! the same kernel and shape again reuses the verified program.

use igen_core::{Config, OptLevel, Precision};
use igen_interval::F64I;
use igen_kernels::ffnn::Ffnn;
use igen_session::{BindRequest, CompileRequest, CompiledUnit, Session};
use igen_vm::{ArgBind, BindSpec};
use std::sync::{Arc, OnceLock};

const DOT_SRC: &str = r#"
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + x[i] * y[i];
    }
    return s;
}
"#;

const MVM_SRC: &str = r#"
void mvm(double* a, double* x, double* y, int n) {
    for (int i = 0; i < n; i++) {
        double acc = y[i];
        for (int j = 0; j < n; j++) {
            acc = acc + a[i * n + j] * x[j];
        }
        y[i] = acc;
    }
}
"#;

const HENON_SRC: &str = r#"
double henon(double x0, double y0, int iterations) {
    double x = x0;
    double y = y0;
    for (int i = 0; i < iterations; i++) {
        double xi = x;
        double xn = 1.0 - 1.05 * xi * xi + y;
        y = 0.3 * xi;
        x = xn;
    }
    return x;
}
"#;

/// Dense-network C source with literal layer bounds: the input feeds
/// layer 0 directly, hidden activations go through `fmax(acc, 0.0)`
/// (ReLU), the last layer writes the output array raw — the exact
/// operation sequence of `Ffnn::forward`.
fn ffnn_source(dims: &[usize]) -> String {
    let layers = dims.len() - 1;
    let mut params = vec!["double* x".to_string()];
    for l in 0..layers {
        params.push(format!("double* w{l}"));
        params.push(format!("double* b{l}"));
    }
    params.push("double* o".to_string());
    let mut body = String::new();
    let mut prev = "x".to_string();
    for l in 0..layers {
        let (fan_in, fan_out) = (dims[l], dims[l + 1]);
        let last = l + 1 == layers;
        let dst = if last { "o".to_string() } else { format!("a{}", l + 1) };
        if !last {
            body.push_str(&format!("    double {dst}[{fan_out}];\n"));
        }
        body.push_str(&format!(
            "    for (int j = 0; j < {fan_out}; j++) {{\n\
             \x20       double acc = b{l}[j];\n\
             \x20       for (int i = 0; i < {fan_in}; i++) {{\n\
             \x20           acc = acc + w{l}[j * {fan_in} + i] * {prev}[i];\n\
             \x20       }}\n"
        ));
        if last {
            body.push_str(&format!("        {dst}[j] = acc;\n    }}\n"));
        } else {
            body.push_str(&format!("        {dst}[j] = fmax(acc, 0.0);\n    }}\n"));
        }
        prev = dst;
    }
    format!("void ffnn({}) {{\n{body}}}\n", params.join(", "))
}

fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(Session::default)
}

fn compile(
    src: &str,
    fn_name: &str,
    precision: Precision,
    binds: Vec<ArgBind>,
) -> Arc<CompiledUnit> {
    let req = CompileRequest {
        source: src.into(),
        origin: format!("paper kernel {fn_name}"),
        fn_name: Some(fn_name.to_string()),
        cfg: Config { precision, opt_level: OptLevel::O2, ..Config::default() },
        bind: BindRequest::Explicit(BindSpec::new(binds)),
        peephole: true,
    };
    session().compile(&req).expect("paper kernel compiles to verified bytecode")
}

/// Length-`n` dot products.
pub fn dot(n: usize, precision: Precision) -> Arc<CompiledUnit> {
    let binds = vec![ArgBind::In(n), ArgBind::In(n), ArgBind::Int(n as i64)];
    compile(DOT_SRC, "dot", precision, binds)
}

/// `y ← A·x + y` with the row-major `n×n` matrix `a` shared by every
/// item; also the GEMM program (see the module docs).
pub fn mvm(a: &[F64I], n: usize, precision: Precision) -> Arc<CompiledUnit> {
    assert_eq!(a.len(), n * n, "mvm needs an n×n matrix");
    let a = ArgBind::Uniform(a.iter().map(|v| (v.lo(), v.hi())).collect());
    let binds = vec![a, ArgBind::In(n), ArgBind::InOut(n), ArgBind::Int(n as i64)];
    compile(MVM_SRC, "mvm", precision, binds)
}

/// Hénon orbits of `iterations` steps from each item's `(x0, y0)`.
pub fn henon(iterations: usize, precision: Precision) -> Arc<CompiledUnit> {
    let binds = vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(iterations as i64)];
    compile(HENON_SRC, "henon", precision, binds)
}

/// Forward passes of `net`, its weights and biases bound as point
/// constants.
pub fn ffnn(net: &Ffnn, precision: Precision) -> Arc<CompiledUnit> {
    let points = |v: &[f64]| ArgBind::Uniform(v.iter().map(|&p| (p, p)).collect());
    let mut dims = vec![net.weights[0].len() / net.biases[0].len()];
    dims.extend(net.biases.iter().map(Vec::len));
    let mut binds = vec![ArgBind::In(dims[0])];
    for (w, b) in net.weights.iter().zip(&net.biases) {
        binds.push(points(w));
        binds.push(points(b));
    }
    binds.push(ArgBind::Out(dims[dims.len() - 1]));
    compile(&ffnn_source(&dims), "ffnn", precision, binds)
}

/// Item-major inputs of [`dot`], [`mvm`] and [`henon`] (at `n = 1`):
/// item `b` is `x[b·n..(b+1)·n]` followed by `y[b·n..(b+1)·n]`.
pub fn zip_items<T: Copy>(n: usize, x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "every item needs both operands");
    x.chunks(n).zip(y.chunks(n)).flat_map(|(a, b)| a.iter().chain(b)).copied().collect()
}

/// Item-major inputs of the `n×n` GEMM `C += A·B` on the [`mvm`]
/// program: item `j` is column `j` of `b` followed by column `j` of
/// `c` (both row-major).
pub fn gemm_items<T: Copy>(n: usize, b: &[T], c: &[T]) -> Vec<T> {
    assert!(b.len() == n * n && c.len() == n * n, "gemm needs n×n matrices");
    let mut items = Vec::with_capacity(2 * n * n);
    for j in 0..n {
        items.extend((0..n).map(|k| b[k * n + j]));
        items.extend((0..n).map(|i| c[i * n + j]));
    }
    items
}

/// The row-major `n×n` result of a GEMM run from the [`mvm`] program's
/// item-major outputs (item `j` is column `j`).
pub fn gemm_result<T: Copy>(n: usize, columns: &[T]) -> Vec<T> {
    assert_eq!(columns.len(), n * n, "gemm yields n columns of n");
    (0..n * n).map(|r| columns[(r % n) * n + r / n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_layout_roundtrips_through_columns() {
        let n = 3;
        let b: Vec<u32> = (0..9).collect();
        let c: Vec<u32> = (100..109).collect();
        let items = gemm_items(n, &b, &c);
        // Item 1: column 1 of B (1, 4, 7), then column 1 of C.
        assert_eq!(items[6..12], [1, 4, 7, 101, 104, 107]);
        assert_eq!(zip_items(2, &b[..4], &c[..4]), [0, 1, 100, 101, 2, 3, 102, 103]);
        let columns: Vec<u32> = items.chunks(2 * n).flat_map(|it| it[n..].to_vec()).collect();
        assert_eq!(gemm_result(n, &columns), c);
    }

    #[test]
    fn ffnn_source_has_one_loop_nest_per_layer() {
        let src = ffnn_source(&[4, 3, 2]);
        assert!(src.starts_with("void ffnn(double* x, double* w0, double* b0, double* w1"));
        assert_eq!(src.matches("for (int j").count(), 2);
        assert_eq!(src.matches("fmax(acc, 0.0)").count(), 1, "no ReLU on the output layer");
    }
}
