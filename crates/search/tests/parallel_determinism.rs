//! Determinism of the evaluation pipeline's caching: a seeded MOEA run
//! must produce bit-identical populations whether the surrogate batch is
//! predicted or replayed from a warm cross-generation score cache, and
//! duplicate offspring within one generation share one forward slot.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_search::{Evaluator, Fitness};
use hwpr_search::{HwPrNasEvaluator, Moea, MoeaConfig, ScoreCache, SearchClock, SearchResult};
use std::sync::Arc;

fn trained_model() -> Arc<HwPrNas> {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(48),
        seed: 3,
    });
    let data = SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu)
        .expect("fixture dataset");
    let (model, _) =
        HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).expect("tiny fit");
    Arc::new(model)
}

fn search(eval: &mut HwPrNasEvaluator) -> SearchResult {
    let cfg = MoeaConfig {
        generations: 4,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(7);
    Moea::new(cfg)
        .expect("valid config")
        .run(eval)
        .expect("search runs")
}

#[test]
fn warm_cache_preserves_results_and_records_hits() {
    let model = trained_model();
    let cache = Arc::new(ScoreCache::new());
    let mut cold = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu)
        .with_shared_cache(Arc::clone(&cache));
    let a = search(&mut cold);
    let misses_after_first = cache.misses();
    assert!(misses_after_first > 0, "first run must populate the cache");
    // a second evaluator sharing the cache replays the same seeded search
    // entirely (or nearly) from cached scores
    let mut warm = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu)
        .with_shared_cache(Arc::clone(&cache));
    let b = search(&mut warm);
    assert_eq!(a.population, b.population, "cache changed the search");
    assert!(cache.hits() > 0, "second run never hit the warm cache");
    assert_eq!(
        cache.misses(),
        misses_after_first,
        "second run recomputed architectures the cache already held"
    );
}

#[test]
fn duplicate_offspring_share_one_forward_pass() {
    let model = trained_model();
    let mut eval = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu);
    let arch = Architecture::nb201_from_index(11).expect("valid index");
    let batch = vec![arch.clone(), arch.clone(), arch];
    let mut clock = SearchClock::unbounded();
    let Fitness::Ranked { scores, objectives } = eval.evaluate(&batch, &mut clock).unwrap() else {
        panic!("fused evaluator must return ranked fitness");
    };
    assert_eq!(scores[0], scores[1]);
    assert_eq!(scores[0], scores[2]);
    assert!(Arc::ptr_eq(&objectives[0], &objectives[1]));
    assert!(Arc::ptr_eq(&objectives[0], &objectives[2]));
    // one miss for the distinct architecture; the duplicates were deduped
    // before prediction, and nothing else touched this private cache
    assert_eq!(eval.cache().misses(), 1);
    assert_eq!(eval.cache().len(), 1);
}
