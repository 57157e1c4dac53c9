//! Reference (naive loop nest) vs cache-tiled, register-blocked GEMM —
//! the kernels behind every surrogate forward pass. The 256x256x256 row
//! is the PR-1 acceptance point: the blocked kernel must be >= 2x the
//! reference. The `prepacked_*` rows time the frozen engine's LSTM gate
//! GEMMs (`ModelConfig::fast`: `[m, 88] @ [88, 256]` and
//! `[m, 128] @ [128, 256]`) at the small row counts a search scores in,
//! where most row tiles are partial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hwpr_tensor::{reference, Matrix, PackedWeight, Precision};

/// Deterministic dense matrix (no RNG, so runs are comparable).
fn filled(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (((i * 37 + salt * 101) % 97) as f32 - 48.0) / 24.0)
            .collect(),
    )
    .expect("shape matches data")
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let a = filled(n, n, 1);
        let b = filled(n, n, 2);
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |bench, _| {
            bench.iter(|| reference::matmul(&a, &b).expect("shapes agree"));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).expect("shapes agree"));
        });
    }
    // the transposed entry points share the blocked driver via packing
    let n = 256;
    let a = filled(n, n, 3);
    let b = filled(n, n, 4);
    group.bench_with_input(BenchmarkId::new("reference_tn", n), &n, |bench, _| {
        bench.iter(|| reference::matmul_tn(&a, &b).expect("shapes agree"));
    });
    group.bench_with_input(BenchmarkId::new("blocked_tn", n), &n, |bench, _| {
        bench.iter(|| a.matmul_tn(&b).expect("shapes agree"));
    });
    group.bench_with_input(BenchmarkId::new("reference_nt", n), &n, |bench, _| {
        bench.iter(|| reference::matmul_nt(&a, &b).expect("shapes agree"));
    });
    group.bench_with_input(BenchmarkId::new("blocked_nt", n), &n, |bench, _| {
        bench.iter(|| a.matmul_nt(&b).expect("shapes agree"));
    });
    for k in [88usize, 128] {
        let mut w = PackedWeight::new();
        w.pack_for_inference(&filled(k, 256, 5), Precision::F32);
        for m in [1usize, 3, 5, 7, 8, 11] {
            let x = filled(m, k, 6);
            let mut out = Matrix::zeros(m, 256);
            let id = BenchmarkId::new(format!("prepacked_k{k}_n256"), format!("m{m}"));
            group.bench_function(id, |bench| {
                bench.iter(|| x.matmul_prepacked_into(&w, &mut out).expect("shapes agree"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
