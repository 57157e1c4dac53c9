//! Cost of the telemetry layer on the training path: one surrogate fit
//! (`HwPrNas::fit` on the shared fixture dataset, both encoder branches,
//! per-epoch validation and the fusion fine-tune) timed three ways.
//!
//! - `recorder_off` — telemetry disabled (the default); every
//!   instrumentation point is one relaxed atomic load.
//! - `recorder_null` — telemetry enabled with a [`NullSink`]: events are
//!   built and timers read, then discarded, isolating pure
//!   instrumentation cost from sink IO.
//! - `recorder_jsonl` — telemetry enabled with a real JSONL sink writing
//!   to a discarding writer: encode cost included, file IO excluded.

use criterion::{criterion_group, criterion_main, Criterion};
use hwpr_bench::fixture_dataset;
use hwpr_core::{HwPrNas, ModelConfig, TrainConfig};
use hwpr_obs::sink::{JsonlSink, NullSink};
use hwpr_obs::Recorder;
use std::sync::Arc;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let data = fixture_dataset(128);
    let fit =
        || HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).expect("fixture fit");

    hwpr_obs::shutdown();
    group.bench_function("recorder_off", |b| b.iter(fit));

    hwpr_obs::install(Arc::new(NullSink) as Arc<dyn Recorder>);
    group.bench_function("recorder_null", |b| b.iter(fit));

    hwpr_obs::install(
        Arc::new(JsonlSink::to_writer(Box::new(std::io::sink()))) as Arc<dyn Recorder>
    );
    group.bench_function("recorder_jsonl", |b| b.iter(fit));
    hwpr_obs::shutdown();

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
