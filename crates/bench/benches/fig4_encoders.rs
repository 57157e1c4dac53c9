//! Benchmarks behind Fig. 4: forward-pass cost of each encoder scheme
//! (AF extraction, LSTM over tokens, GCN over the architecture graph).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hwpr_bench::fixture_archs;
use hwpr_core::data::EncodingCache;
use hwpr_core::encoders::{EncoderChoice, EncoderSet};
use hwpr_core::ModelConfig;
use hwpr_nasbench::{Dataset, SearchSpaceId};
use hwpr_nn::{Binder, Params};

fn bench_encoders(c: &mut Criterion) {
    let archs = fixture_archs(SearchSpaceId::NasBench201, 64);
    let mut group = c.benchmark_group("fig4_encoders");
    for choice in EncoderChoice::FIG4_VARIANTS {
        group.bench_with_input(
            BenchmarkId::new("forward", choice.to_string()),
            &choice,
            |b, &choice| {
                let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
                let mut params = Params::new();
                let encoder = EncoderSet::new(
                    &mut params,
                    "enc",
                    &ModelConfig::fast(),
                    choice,
                    &cache,
                    &archs,
                )
                .expect("encoder build failed");
                // warm the cache so we measure the model, not profiling
                for a in &archs {
                    let _ = cache.encoding(a);
                }
                b.iter(|| {
                    let mut tape = hwpr_autograd::Tape::new();
                    let mut binder = Binder::new(&mut tape, &params);
                    encoder
                        .forward(&mut binder, &cache, &archs)
                        .expect("forward failed");
                    tape.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encoders);
criterion_main!(benches);
