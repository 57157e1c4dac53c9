//! Frozen tape-free inference vs the recording-tape reference path — the
//! MOEA hot-path numbers behind `BENCH_pr4.json`.
//!
//! - `tape_serial` — the reference path (`predict_full_tape`): tape reset
//!   + parameter rebinding + op recording every chunk.
//! - `frozen_serial` — the frozen engine (`predict_full`): persistent
//!   prepacked weights, pooled activation arena, no tape.
//!
//! Acceptance: `frozen_serial` at least 1.5x faster per batch than
//! `tape_serial`; both paths are bit-identical (differential tests
//! in `hwpr-core`).
//!
//! The `frozen_b{B}_f32` rows sweep the compiled batch width (1 / 8 / 64,
//! via [`freeze_with_batch`]): width 1 shows the per-chunk dispatch floor,
//! width 64 the amortised batched path. They stay bit-identical to
//! `frozen_serial`; the `_f32` suffix keeps the row names of the earlier
//! `BENCH_pr*.json` snapshots comparable.
//!
//! [`freeze_with_batch`]: hwpr_core::HwPrNas::freeze_with_batch

use criterion::{criterion_group, criterion_main, Criterion};
use hwpr_bench::{fixture_archs, fixture_model};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::SearchSpaceId;

fn bench_inference_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_throughput");
    group.sample_size(10);
    let model = fixture_model(64);
    let archs = fixture_archs(SearchSpaceId::NasBench201, 256);
    // warm the encoding cache and compile the frozen engine up front so
    // every measured iteration is pure forward cost on both paths
    model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    model.predict_full_tape(&archs, Platform::EdgeGpu).unwrap();

    group.bench_function("tape_serial", |b| {
        b.iter(|| model.predict_full_tape(&archs, Platform::EdgeGpu).unwrap())
    });
    group.bench_function("frozen_serial", |b| {
        b.iter(|| model.predict_full(&archs, Platform::EdgeGpu).unwrap())
    });
    // batch-width sweep: recompile the frozen engine per width, then
    // measure the same 256-arch sweep the rows above use
    for width in [1usize, 8, 64] {
        model.freeze_with_batch(width);
        model.predict_full(&archs, Platform::EdgeGpu).unwrap();
        group.bench_function(format!("frozen_b{width}_f32"), |b| {
            b.iter(|| model.predict_full(&archs, Platform::EdgeGpu).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference_throughput);
criterion_main!(benches);
