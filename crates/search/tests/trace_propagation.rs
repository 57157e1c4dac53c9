//! Cross-thread trace connectivity: a multi-threaded MOEA run must
//! capture as **one** connected span tree — a single `search.moea` root
//! and zero orphan spans — regardless of how many evaluation workers the
//! frozen engine fans out to. Orphans are the failure signature of a
//! worker thread opening spans without the spawner's
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

/// Runs a short seeded search at `threads` workers and returns the
/// captured events. Training happens before the sink is installed, so
/// the capture holds only the search.
fn run_instrumented_search(model: &Arc<HwPrNas>, threads: usize) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn Recorder>);
    let cfg = MoeaConfig {
        generations: 2,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(7);
    let mut evaluator =
        HwPrNasEvaluator::new(Arc::clone(model), Platform::EdgeGpu).with_threads(threads);
    Moea::new(cfg)
        .expect("valid config")
        .run(&mut evaluator)
        .expect("search runs");
    hwpr_obs::shutdown();
    sink.events()
}

#[test]
fn multi_threaded_search_captures_one_connected_trace() {
    let _guard = recorder_lock();
    let model = trained_model();
    // a small compiled batch forces predict_full_parallel to actually
    // split the population across workers (at the default 256-wide batch
    // a small population fits one chunk and runs on the calling thread,
    // see `single_chunk_evaluation_runs_on_the_calling_thread`)
    model.freeze_with_batch(4);

    for threads in [1usize, 2, 8] {
        let events = run_instrumented_search(&model, threads);
        let stats = hwpr_obs::trace::stats(&events);
        assert!(stats.spans > 0, "threads={threads}: no spans captured");
        assert_eq!(
            stats.roots, 1,
            "threads={threads}: expected exactly the search.moea root, got {stats:?}"
        );
        assert_eq!(
            stats.orphans, 0,
            "threads={threads}: cross-thread span propagation broke, {stats:?}"
        );
        // the root really is the search span
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
        // the evaluation layer shows up inside the tree
        for expected in ["search.generation", "search.eval", "infer.frozen"] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::SpanStart { name, .. } if name == expected)),
                "threads={threads}: span {expected} missing from the capture"
            );
        }
        if threads > 1 {
            // real fan-out: worker spans on more than one thread lane
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "infer.worker")),
                "threads={threads}: no infer.worker spans captured"
            );
            assert!(
                stats.threads > 1,
                "threads={threads}: all spans landed on one lane, {stats:?}"
            );
        }
        // the exporters accept the capture end-to-end
        let chrome = hwpr_obs::trace::chrome_trace(&events);
        assert!(chrome.contains("\"traceEvents\""));
        let tree = hwpr_obs::trace::span_tree(&events);
        assert!(tree.contains("search.moea"), "{tree}");
    }
}

#[test]
fn single_chunk_evaluation_runs_on_the_calling_thread() {
    let _guard = recorder_lock();
    // default compiled batch (256 rows) and a population well under it:
    // every generation's misses fit one chunk, so two worker threads
    // must not spawn anything
    let model = trained_model();
    let events = run_instrumented_search(&model, 2);
    let stats = hwpr_obs::trace::stats(&events);
    assert_eq!(stats.orphans, 0, "{stats:?}");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "infer.worker")),
        "a single-chunk evaluation spawned infer.worker spans"
    );
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
