//! Throughput of one MOEA generation's surrogate evaluation: the bare
//! fused prediction, and a generation step through the evaluator with a
//! cold vs warm cross-generation score cache.
//!
//! The warm-cache row is the speedup the cache contributes once a
//! generation's offspring repeat earlier architectures (mutation rate 0.9
//! repeats many). Row names keep the `serial` suffix so they compare with
//! the earlier `BENCH_pr*.json` snapshots.

use criterion::{criterion_group, criterion_main, Criterion};
use hwpr_bench::fixture_dataset;
use hwpr_core::{HwPrNas, ModelConfig, TrainConfig};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, SearchSpaceId};
use hwpr_search::{Evaluator, HwPrNasEvaluator, ScoreCache, SearchClock};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One paper-sized generation: population 150.
const GENERATION: usize = 150;

fn generation_batch(seed: u64) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..GENERATION)
        .map(|_| Architecture::random(SearchSpaceId::NasBench201, &mut rng))
        .collect()
}

fn evaluate_once(eval: &mut HwPrNasEvaluator, archs: &[Architecture]) {
    let mut clock = SearchClock::unbounded();
    eval.evaluate(archs, &mut clock).expect("evaluation runs");
}

fn bench_surrogate(c: &mut Criterion) {
    let data = fixture_dataset(96);
    let (model, _) =
        HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).expect("tiny fit");
    let model = Arc::new(model);
    let archs = generation_batch(11);

    let mut group = c.benchmark_group("surrogate_throughput");
    group.sample_size(10);
    group.bench_function("predict_full/serial", |b| {
        b.iter(|| {
            model
                .predict_full(&archs, Platform::EdgeGpu)
                .expect("predict")
        });
    });
    // a full generation step through the evaluator, cache cold every
    // iteration (fresh evaluator => fresh private cache)
    group.bench_function("generation_eval/serial_cold", |b| {
        b.iter(|| {
            let mut eval = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu);
            evaluate_once(&mut eval, &archs);
        });
    });
    // warm cross-generation cache: every architecture already scored
    let warm = Arc::new(ScoreCache::new());
    {
        let mut eval = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu)
            .with_shared_cache(Arc::clone(&warm));
        evaluate_once(&mut eval, &archs);
    }
    group.bench_function("generation_eval/warm_cache", |b| {
        b.iter(|| {
            let mut eval = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu)
                .with_shared_cache(Arc::clone(&warm));
            evaluate_once(&mut eval, &archs);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_surrogate);
criterion_main!(benches);
