//! The GEMM counters the benchmark's per-layer trace rows read:
//! `tensor.gemm.calls` must rise by exactly one per product and
//! `tensor.gemm.flops` by exactly `2·m·n·k`, on the prepacked path the
//! frozen engine runs and on the unpacked paths training runs.
//!
//! A test binary of its own: the telemetry switch and the metric
//! registry are process-global, and one `#[test]` keeps every counter
//! delta free of products from concurrently running tests.

use hwpr_obs::metrics::registry;
use hwpr_obs::sink::NullSink;
use hwpr_tensor::{Matrix, PackedWeight};
use std::sync::Arc;

fn det(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (((i * 13 + salt * 7) % 19) as f32 - 9.0) * 0.11)
            .collect(),
    )
    .unwrap()
}

#[test]
fn every_product_counts_one_call_and_its_flops() {
    hwpr_obs::install(Arc::new(NullSink));
    let calls = registry().counter("tensor.gemm.calls");
    let flops = registry().counter("tensor.gemm.flops");
    let counted = |what: &str, (m, n, k): (usize, usize, usize), product: &mut dyn FnMut()| {
        let (calls_before, flops_before) = (calls.get(), flops.get());
        product();
        assert_eq!(calls.get() - calls_before, 1, "{what} {m}x{n}x{k}: calls");
        assert_eq!(
            flops.get() - flops_before,
            2 * (m * n * k) as u64,
            "{what} {m}x{n}x{k}: flops"
        );
    };
    // a partial row tile, the frozen LSTM gate shape, a scalar head, and
    // several `k` and `jc` panels
    for (m, n, k) in [(1, 1, 1), (7, 256, 88), (64, 1, 32), (129, 530, 300)] {
        let a = det(m, k, 1);
        let b = det(k, n, 2);
        let mut packed = PackedWeight::new();
        packed.pack(&b);
        let mut out = Matrix::zeros(m, n);
        counted("prepacked", (m, n, k), &mut || {
            a.matmul_prepacked_into(&packed, &mut out).unwrap()
        });
        packed.pack_transposed(&b.transpose());
        counted("prepacked transposed", (m, n, k), &mut || {
            a.matmul_prepacked_into(&packed, &mut out).unwrap()
        });
        counted("matmul", (m, n, k), &mut || {
            a.matmul(&b).unwrap();
        });
        counted("matmul_tn", (m, n, k), &mut || {
            a.transpose().matmul_tn(&b).unwrap();
        });
        counted("matmul_nt", (m, n, k), &mut || {
            a.matmul_nt(&b.transpose()).unwrap();
        });
    }
    hwpr_obs::shutdown();
}
