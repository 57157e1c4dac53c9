//! A full MOEA run with telemetry enabled: the event stream must carry
//! per-generation hypervolume and cache statistics, and its cache
//! counters must reconcile with the search result.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Dataset, SearchSpaceId};
use hwpr_obs::sink::MemorySink;
use hwpr_obs::{Event, Recorder, Value};
use hwpr_search::{HwPrNasEvaluator, Moea, MoeaConfig, ScoreCache};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The recorder slot is process-global; tests that install one serialise
/// on this lock.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(value: &Value) -> f64 {
    match value {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn instrumented_search_emits_consistent_telemetry() {
    let _guard = recorder_lock();
    let model = trained_model();
    let cache = Arc::new(ScoreCache::new());
    let mut evaluator = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu)
        .with_shared_cache(Arc::clone(&cache));

    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    let cfg = MoeaConfig {
        generations: 4,
        record_populations: true,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(7);
    let result = Moea::new(cfg)
        .expect("valid config")
        .run(&mut evaluator)
        .expect("search runs");
    hwpr_obs::shutdown();
    let events = sink.events();

    // every evaluated architecture hits or misses the cache exactly once,
    // so the counters reconcile with the run
    assert_eq!(
        cache.hits() + cache.misses(),
        result.evaluations as u64,
        "cache counters disagree with the run"
    );
    assert_eq!(result.surrogate_calls as u64, cache.misses());

    // the whole run is wrapped in a search.moea span
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::SpanEnd { name, .. } if name == "search.moea")));

    // one generation record per generation, each carrying hypervolume,
    // front size and reconciled cache statistics
    let generations: Vec<&Vec<(String, Value)>> = events
        .iter()
        .filter_map(|e| match e {
            Event::Record { name, fields, .. } if name == "search.generation" => Some(fields),
            _ => None,
        })
        .collect();
    assert_eq!(generations.len(), result.history.len());
    for (i, fields) in generations.iter().enumerate() {
        assert_eq!(as_f64(field(fields, "gen").expect("gen")) as usize, i);
        let hv = as_f64(field(fields, "hypervolume").expect("hypervolume"));
        assert!(hv >= 0.0, "hypervolume must be non-negative: {hv}");
        assert!(as_f64(field(fields, "front_size").expect("front_size")) >= 1.0);
        let hits = as_f64(field(fields, "cache_hits").expect("cache_hits"));
        let misses = as_f64(field(fields, "cache_misses").expect("cache_misses"));
        let rate = as_f64(field(fields, "cache_hit_rate").expect("cache_hit_rate"));
        assert!((rate - hits / (hits + misses)).abs() < 1e-9);
    }
    let last = generations.last().expect("at least one generation");
    assert_eq!(
        as_f64(field(last, "cache_hits").expect("cache_hits")) as u64,
        cache.hits(),
        "final record must carry the cache totals"
    );

    // record_populations also snapshots the Pareto front point sets
    let fronts: Vec<&Vec<(String, Value)>> = events
        .iter()
        .filter_map(|e| match e {
            Event::Record { name, fields, .. } if name == "search.front" => Some(fields),
            _ => None,
        })
        .collect();
    assert_eq!(fronts.len(), generations.len());
    let Value::Array(points) = field(fronts[0], "points").expect("points") else {
        panic!("front snapshot must carry a point array");
    };
    assert!(!points.is_empty());
    let Value::Array(first_point) = &points[0] else {
        panic!("each front point is an objective vector");
    };
    assert_eq!(
        first_point.len(),
        2,
        "accuracy-error and latency objectives"
    );

    // the evaluator latency histogram saw one observation per evaluate call
    let eval_hist = events.iter().rev().find_map(|e| match e {
        Event::Hist { name, count, .. } if name == "search.eval_ms" => Some(*count),
        _ => None,
    });
    // the registry snapshot is emitted by the caller, not the MOEA, so the
    // histogram only shows up via registry().emit(); check it directly
    assert!(eval_hist.is_none() || eval_hist == Some(result.history.len() as u64 + 1));
    let snapshot = hwpr_obs::metrics::registry().snapshot();
    let hist_event = snapshot
        .histograms
        .iter()
        .find_map(|e| match e {
            Event::Hist { name, count, .. } if name == "search.eval_ms" => Some(*count),
            _ => None,
        })
        .expect("eval latency histogram registered");
    assert!(
        hist_event > result.history.len() as u64,
        "one observation per evaluate call (initial + per generation)"
    );
}

#[test]
fn disabled_telemetry_leaves_search_results_identical() {
    let _guard = recorder_lock();
    let model = trained_model();
    let cfg = MoeaConfig {
        generations: 3,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(11);

    // telemetry off
    let mut plain = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu);
    let a = Moea::new(cfg.clone())
        .expect("valid config")
        .run(&mut plain)
        .expect("search runs");

    // telemetry on
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    let mut instrumented = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu);
    let b = Moea::new(cfg)
        .expect("valid config")
        .run(&mut instrumented)
        .expect("search runs");
    hwpr_obs::shutdown();

    assert_eq!(a.population, b.population, "telemetry changed the search");
    assert_eq!(a.evaluations, b.evaluations);
    assert!(!sink.events().is_empty());
}
