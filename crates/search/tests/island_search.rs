//! Differential tests for the island-model search:
//!
//! - a seeded run is a pure function of `(config, seed)` — bit-identical
//!   when re-run, and bit-identical across executor worker-lane counts,
//!   for 1, 2 and 8 logical islands;
//! - a run checkpointed mid-flight and resumed finishes bit-identical to
//!   the uninterrupted run (populations, archive, hypervolume);
//! - a snapshot's score cache is keyed by architecture strings in string
//!   order, and a key that does not parse makes a resume fail with a
//!   typed error;
//! - a snapshot truncated at any byte offset fails to load with a typed
//!   error, never a panic.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_search::{
    share_objectives, Evaluator, Fitness, HwPrNasEvaluator, IslandConfig, IslandSearch,
    IslandSearchResult, ScoreCache, SearchClock, SearchError, SearchSnapshot,
};
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

fn factory(model: &Arc<HwPrNas>) -> impl FnMut(usize) -> Box<dyn Evaluator + Send> + '_ {
    move |_id| Box::new(HwPrNasEvaluator::new(Arc::clone(model), Platform::EdgeGpu))
}

fn config(islands: usize, workers: usize) -> IslandConfig {
    IslandConfig {
        islands,
        workers,
        generations: 6,
        migration_every: 2,
        ..IslandConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(11)
}

fn assert_bit_identical(a: &IslandSearchResult, b: &IslandSearchResult) {
    assert_eq!(a.populations, b.populations, "populations diverged");
    assert_eq!(a.archive, b.archive, "archives diverged");
    assert_eq!(a.hypervolume, b.hypervolume, "hypervolume diverged");
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.migrants_accepted, b.migrants_accepted);
}

#[test]
fn seeded_runs_are_replayable_across_lane_counts() {
    let model = trained_model();
    for islands in [1, 2, 8] {
        let serial = IslandSearch::new(config(islands, 1))
            .expect("valid config")
            .run(factory(&model))
            .expect("search runs");
        // re-run with the same config: deterministic replay
        let again = IslandSearch::new(config(islands, 1))
            .unwrap()
            .run(factory(&model))
            .unwrap();
        assert_bit_identical(&serial, &again);
        // the worker-lane count is an executor choice, never a result
        for workers in [2, 8] {
            let parallel = IslandSearch::new(config(islands, workers))
                .unwrap()
                .run(factory(&model))
                .unwrap();
            assert_bit_identical(&serial, &parallel);
        }
    }
}

#[test]
fn checkpoint_and_resume_matches_uninterrupted_run() {
    let model = trained_model();
    let uninterrupted = IslandSearch::new(config(2, 2))
        .unwrap()
        .run(factory(&model))
        .unwrap();

    // checkpoint every epoch; the file left behind is the state at the
    // last epoch boundary before completion (generation 4 of 6) — exactly
    // what a kill between epochs would leave
    let dir = std::env::temp_dir().join(format!("hwpr_island_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    let checkpointed = IslandSearch::new(IslandConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..config(2, 2)
    })
    .unwrap()
    .run(factory(&model))
    .unwrap();
    // checkpointing itself must not perturb the search
    assert_bit_identical(&uninterrupted, &checkpointed);

    let snapshot = IslandSearch::load_snapshot(&path).expect("snapshot readable");
    assert!(
        snapshot.generations_done < snapshot.config.generations,
        "snapshot must be mid-run"
    );
    let resumed = IslandSearch::resume(&snapshot, factory(&model)).expect("resume runs");
    assert_bit_identical(&uninterrupted, &resumed);
    assert_eq!(resumed.generations, uninterrupted.generations);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_round_trips_through_json() {
    let model = trained_model();
    let dir = std::env::temp_dir().join(format!("hwpr_island_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    IslandSearch::new(IslandConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..config(2, 1)
    })
    .unwrap()
    .run(factory(&model))
    .unwrap();
    let snapshot = IslandSearch::load_snapshot(&path).expect("snapshot readable");
    // the embedded config governs a resume: verify the exact fields
    assert_eq!(snapshot.config.islands, 2);
    assert_eq!(snapshot.islands.len(), 2);
    for island in &snapshot.islands {
        assert_eq!(island.population.len(), snapshot.config.population);
        assert!(!island.cache.is_empty(), "cache shard not persisted");
    }
    // tags index into the elite store
    let elites = snapshot.elites.len() as u64;
    assert!(snapshot.archive_tags.iter().all(|&t| t < elites));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `config(2, 1)` checkpointing every epoch and loads the last
/// snapshot written (mid-run, generation 4 of 6).
fn mid_run_snapshot(model: &Arc<HwPrNas>, tag: &str) -> SearchSnapshot {
    let dir = std::env::temp_dir().join(format!("hwpr_island_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    IslandSearch::new(IslandConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..config(2, 1)
    })
    .unwrap()
    .run(factory(model))
    .unwrap();
    let snapshot = IslandSearch::load_snapshot(&path).expect("snapshot readable");
    std::fs::remove_dir_all(&dir).ok();
    snapshot
}

#[test]
fn snapshot_cache_keys_are_arch_strings_in_string_order() {
    let model = trained_model();
    let snapshot = mid_run_snapshot(&model, "keys");
    for island in &snapshot.islands {
        let keys: Vec<&str> = island.cache.iter().map(|e| e.key.as_str()).collect();
        assert!(!keys.is_empty(), "cache shard not persisted");
        // the checkpoint format: the string codec, strictly ascending
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        for entry in &island.cache {
            let arch: Architecture = entry.key.parse().expect("key is an arch string");
            assert_eq!(arch.to_arch_string(), entry.key);
        }
        // snapshot -> restore -> snapshot is the identity
        let cache = ScoreCache::new();
        cache.restore(&island.cache).expect("keys parse");
        assert_eq!(cache.snapshot(), island.cache);
        let mut evaluator = HwPrNasEvaluator::new(Arc::clone(&model), Platform::EdgeGpu);
        evaluator.restore_cache(&island.cache);
        assert_eq!(evaluator.cache_snapshot(), island.cache);
    }
}

#[test]
fn resume_rejects_a_cache_key_that_is_not_an_architecture() {
    let model = trained_model();
    let snapshot = mid_run_snapshot(&model, "hostile");
    let hostile = [
        String::new(),
        "not an architecture".to_string(),
        "|nor_conv_3x3~0|+|bogus~0|".to_string(),
        "fbnet:".to_string(),
        "\u{0}".repeat(4096),
    ];
    for key in hostile {
        let mut corrupted = snapshot.clone();
        let last = corrupted.islands.len() - 1;
        corrupted.islands[last].cache[0].key = key.clone();
        let mut built = 0usize;
        let err = IslandSearch::resume(&corrupted, |id| {
            built += 1;
            factory(&model)(id)
        })
        .expect_err("a malformed cache key must fail the resume");
        match err {
            SearchError::Config(msg) => assert!(msg.contains("score-cache key"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
        // rejected before any evaluator is built or restored
        assert_eq!(built, 0, "key {key:?}: an evaluator was built");
        // the cache restore is all-or-nothing
        let cache = ScoreCache::new();
        assert!(cache.restore(&corrupted.islands[last].cache).is_err());
        assert!(cache.is_empty(), "key {key:?}: a partial restore leaked");
    }
}

/// Scores plus two antagonistic objectives, a pure function of the
/// architecture: fills the snapshot's archive and reference point
/// without a trained model.
struct RankedStub;

impl Evaluator for RankedStub {
    fn name(&self) -> String {
        "ranked-stub".to_string()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        _clock: &mut SearchClock,
    ) -> hwpr_search::Result<Fitness> {
        let x: Vec<f64> = archs
            .iter()
            .map(|a| (a.index() % 9973) as f64 / 9973.0)
            .collect();
        Ok(Fitness::Ranked {
            scores: x.iter().map(|x| (x * 7.0).fract()).collect(),
            objectives: share_objectives(x.iter().map(|&x| vec![x, 1.0 - x * x]).collect()),
        })
    }

    fn calls_per_arch(&self) -> usize {
        1
    }
}

#[test]
fn a_snapshot_cut_at_any_byte_is_a_typed_error() {
    let config = IslandConfig::small(SearchSpaceId::NasBench201).with_seed(23);
    let uninterrupted = IslandSearch::new(config.clone())
        .unwrap()
        .run(|_| Box::new(RankedStub))
        .unwrap();
    let dir = std::env::temp_dir().join(format!("hwpr_island_cut_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    IslandSearch::new(IslandConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..config
    })
    .unwrap()
    .run(|_| Box::new(RankedStub))
    .unwrap();
    let bytes = std::fs::read(&path).expect("snapshot written");
    assert!(bytes.len() > 100, "snapshot too small to mean anything");

    let cut_path = dir.join("cut.json");
    for cut in 0..bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        match IslandSearch::load_snapshot(&cut_path) {
            Err(SearchError::Config(_)) => {}
            other => panic!("snapshot cut at byte {cut} of {}: {other:?}", bytes.len()),
        }
    }

    // the intact file still resumes to the uninterrupted result
    let snapshot = IslandSearch::load_snapshot(&path).expect("intact snapshot loads");
    let resumed = IslandSearch::resume(&snapshot, |_| Box::new(RankedStub)).expect("resume runs");
    assert_bit_identical(&uninterrupted, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}
