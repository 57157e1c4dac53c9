//! Trace connectivity: a MOEA run must capture as **one** connected span
//! tree — a single `search.moea` root and zero orphan spans — with every
//! frozen forward inside its evaluation span, and an island search must
//! stay one tree across its worker lanes. Orphans are the failure
//! signature of a worker thread opening spans without the spawner's
//! [`hwpr_obs::SpanContext`].

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Dataset, SearchSpaceId};
use hwpr_obs::sink::MemorySink;
use hwpr_obs::{Event, Recorder};
use hwpr_search::{Evaluator, HwPrNasEvaluator, IslandConfig, IslandSearch, Moea, MoeaConfig};
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

/// Runs a short seeded MOEA search and returns the captured events.
/// Training happens before the sink is installed, so the capture holds
/// only the search.
fn run_instrumented_search(model: &Arc<HwPrNas>) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    let cfg = MoeaConfig {
        generations: 2,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(7);
    let mut evaluator = HwPrNasEvaluator::new(Arc::clone(model), Platform::EdgeGpu);
    Moea::new(cfg)
        .expect("valid config")
        .run(&mut evaluator)
        .expect("search runs");
    hwpr_obs::shutdown();
    sink.events()
}

#[test]
fn moea_search_captures_one_connected_trace() {
    let _guard = recorder_lock();
    let model = trained_model();
    // a 4-row compiled batch makes every evaluation run several chunks;
    // they all stay on the calling thread, inside its search.eval span
    model.freeze_with_batch(4);
    let events = run_instrumented_search(&model);
    let stats = hwpr_obs::trace::stats(&events);
    assert!(stats.spans > 0, "no spans captured");
    assert_eq!(
        stats.roots, 1,
        "expected exactly the search.moea root, got {stats:?}"
    );
    assert_eq!(stats.orphans, 0, "{stats:?}");
    let root = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart {
                parent: 0, name, ..
            } => Some(name.clone()),
            _ => None,
        })
        .expect("a root span start");
    assert_eq!(root, "search.moea");
    for expected in ["search.generation", "search.eval", "infer.frozen"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == expected)),
            "span {expected} missing from the capture"
        );
    }
    // no fan-out: every span is on the calling thread's lane, and the
    // inference layer opens only the frozen forward and its stages
    assert_eq!(stats.threads, 1, "spans left the calling thread, {stats:?}");
    let stages = [
        "infer.frozen",
        "infer.encode",
        "infer.gcn",
        "infer.lstm",
        "infer.mlp",
    ];
    for e in &events {
        if let Event::SpanStart { name, .. } = e {
            assert!(
                !name.starts_with("infer.") || stages.contains(&name.as_str()),
                "unexpected inference span {name}"
            );
        }
    }
    let eval_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { id, name, .. } if name == "search.eval" => Some(*id),
            _ => None,
        })
        .collect();
    let frozen_parents: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { parent, name, .. } if name == "infer.frozen" => Some(*parent),
            _ => None,
        })
        .collect();
    assert!(!frozen_parents.is_empty(), "no infer.frozen spans captured");
    for parent in frozen_parents {
        assert!(
            eval_ids.contains(&parent),
            "infer.frozen is not a direct child of search.eval (parent {parent})"
        );
    }
    // the exporters accept the capture end-to-end
    let chrome = hwpr_obs::trace::chrome_trace(&events);
    assert!(chrome.contains("\"traceEvents\""));
    let tree = hwpr_obs::trace::span_tree(&events);
    assert!(tree.contains("search.moea"), "{tree}");
}

/// Runs a short seeded island search at `islands` islands (one worker
/// lane per island) and returns the captured events.
fn run_instrumented_island_search(model: &Arc<HwPrNas>, islands: usize) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    let cfg = IslandConfig {
        islands,
        workers: islands,
        generations: 4,
        migration_every: 2,
        ..IslandConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(7);
    IslandSearch::new(cfg)
        .expect("valid config")
        .run(|_| {
            Box::new(HwPrNasEvaluator::new(Arc::clone(model), Platform::EdgeGpu))
                as Box<dyn Evaluator + Send>
        })
        .expect("search runs");
    hwpr_obs::shutdown();
    sink.events()
}

#[test]
fn island_search_captures_one_connected_trace() {
    let _guard = recorder_lock();
    let model = trained_model();
    for islands in [1usize, 2, 8] {
        let migrants_before = hwpr_obs::metrics::registry()
            .counter("search.migrants")
            .get();
        let events = run_instrumented_island_search(&model, islands);
        let stats = hwpr_obs::trace::stats(&events);
        assert!(stats.spans > 0, "islands={islands}: no spans captured");
        assert_eq!(
            stats.roots, 1,
            "islands={islands}: expected exactly the search.islands root, got {stats:?}"
        );
        assert_eq!(
            stats.orphans, 0,
            "islands={islands}: worker-lane span propagation broke, {stats:?}"
        );
        let root = events
            .iter()
            .find_map(|e| match e {
                Event::SpanStart {
                    parent: 0, name, ..
                } => Some(name.clone()),
                _ => None,
            })
            .expect("a root span start");
        assert_eq!(root, "search.islands");
        // one labelled island span per island per epoch (2 epochs here)
        let island_spans: Vec<&Option<String>> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, label, .. } if name == "search.island" => Some(label),
                _ => None,
            })
            .collect();
        assert_eq!(
            island_spans.len(),
            islands * 2,
            "islands={islands}: wrong search.island span count"
        );
        for id in 0..islands {
            let expect = Some(id.to_string());
            assert!(
                island_spans.iter().any(|l| **l == expect),
                "islands={islands}: no span labelled for island {id}"
            );
        }
        // the migration barrier is spanned (it runs between epochs only)
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "search.migration")),
            "islands={islands}: no search.migration span"
        );
        if islands > 1 {
            assert!(
                stats.threads > 1,
                "islands={islands}: all island spans landed on one lane, {stats:?}"
            );
            // ring migration on identically-scored islands accepts migrants
            let migrants_after = hwpr_obs::metrics::registry()
                .counter("search.migrants")
                .get();
            assert!(
                migrants_after > migrants_before,
                "islands={islands}: search.migrants counter never moved"
            );
        }
        // per-generation island timings flow into the histogram
        assert!(
            hwpr_obs::metrics::registry()
                .snapshot()
                .histograms
                .iter()
                .any(|e| matches!(
                    e,
                    Event::Hist { name, count, .. }
                        if name == "search.island.gen.us" && *count > 0
                )),
            "islands={islands}: search.island.gen.us histogram empty"
        );
        let tree = hwpr_obs::trace::span_tree(&events);
        assert!(tree.contains("search.islands"), "{tree}");
    }
}
