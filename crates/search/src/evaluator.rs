//! Fitness evaluation backends for the search algorithms.
//!
//! Objective vectors are reference-counted ([`SharedObjectives`]) so the
//! memo caches and the survivor-selection machinery share points instead
//! of deep-copying them: a cache hit, a fitness merge or a front filter
//! only bumps an `Arc` count.

use crate::clock::SearchClock;
use crate::{Result, SearchError};
use hwpr_core::baselines::SurrogatePair;
use hwpr_core::HwPrNas;
use hwpr_hwmodel::{AccuracyModel, Platform, SimBench};
use hwpr_nasbench::{Architecture, Dataset};
use hwpr_obs::metrics::Counter;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A reference-counted minimisation objective vector. Cloning is an `Arc`
/// bump, so cached points flow into [`Fitness`] without reallocation.
pub type SharedObjectives = Arc<Vec<f64>>;

/// Wraps freshly computed objective vectors into shared points.
pub fn share_objectives(objectives: Vec<Vec<f64>>) -> Vec<SharedObjectives> {
    objectives.into_iter().map(Arc::new).collect()
}

/// What an evaluator returns for a batch of architectures.
#[derive(Debug, Clone, PartialEq)]
pub enum Fitness {
    /// One Pareto score per architecture (higher is better) — produced by
    /// the single fused HW-PR-NAS call.
    Scores(Vec<f64>),
    /// One minimisation objective vector per architecture — produced by
    /// per-objective surrogates or true measurements; selection must run
    /// non-dominated sorting on these.
    Objectives(Vec<SharedObjectives>),
    /// Scores plus predicted objectives from one fused call (the complete
    /// Fig. 3 output): the score drives selection, the predicted
    /// objectives only break ties for diversity.
    Ranked {
        /// Pareto scores (higher is better).
        scores: Vec<f64>,
        /// Predicted minimisation objectives.
        objectives: Vec<SharedObjectives>,
    },
}

impl Fitness {
    /// Number of evaluated architectures.
    pub fn len(&self) -> usize {
        match self {
            Fitness::Scores(s) => s.len(),
            Fitness::Objectives(o) => o.len(),
            Fitness::Ranked { scores, .. } => scores.len(),
        }
    }

    /// Whether the fitness is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fitness evaluation backend.
pub trait Evaluator {
    /// Display name used in experiment tables ("MOAE (HW-PR-NAS)", ...).
    fn name(&self) -> String;

    /// Evaluates a batch, charging any simulated cost to `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Surrogate`] when the backing model fails.
    fn evaluate(&mut self, archs: &[Architecture], clock: &mut SearchClock) -> Result<Fitness>;

    /// How many underlying model calls one architecture costs (1 for the
    /// fused surrogate, 2 for per-objective pairs, 0 for measurements).
    fn calls_per_arch(&self) -> usize;

    /// Exact number of underlying model calls performed so far, when the
    /// evaluator tracks it (cache-backed evaluators answer repeats without
    /// a call). `None` means callers should assume
    /// `evaluations * calls_per_arch()`.
    fn calls_made(&self) -> Option<u64> {
        None
    }

    /// `(hits, misses)` totals for cache-backed evaluators; `None` when
    /// the evaluator has no cache. Feeds the per-generation search
    /// telemetry record.
    fn cache_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Scores-only fast path that writes into a caller-owned buffer
    /// (capacity reuse — the island search's warm generation loop stays
    /// allocation-free through this). `out` arrives cleared. Returns
    /// `Ok(false)` — without touching `out` — when the evaluator has no
    /// buffer-reusing path, and the caller falls back to
    /// [`Self::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Surrogate`] when the backing model fails.
    fn evaluate_scores_into(
        &mut self,
        archs: &[Architecture],
        clock: &mut SearchClock,
        out: &mut Vec<f64>,
    ) -> Result<bool> {
        let _ = (archs, clock, out);
        Ok(false)
    }

    /// The evaluator's memo-cache contents, sorted by key — what a search
    /// snapshot persists so a resumed run replays with the same cache
    /// state (empty for uncached evaluators).
    fn cache_snapshot(&self) -> Vec<CacheEntry> {
        Vec::new()
    }

    /// Restores a cache previously exported by [`Self::cache_snapshot`]
    /// (a no-op for uncached evaluators). Every key must parse
    /// ([`CacheEntry::arch`]); [`crate::IslandSearch::resume`] checks
    /// that before it restores any evaluator.
    fn restore_cache(&mut self, entries: &[CacheEntry]) {
        let _ = entries;
    }
}

/// One persisted score-cache entry (see [`Evaluator::cache_snapshot`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheEntry {
    /// The architecture, in the string codec
    /// ([`Architecture::to_arch_string`]).
    pub key: String,
    /// Cached Pareto score.
    pub score: f64,
    /// Cached predicted objectives.
    pub objectives: Vec<f64>,
}

impl CacheEntry {
    /// The architecture this entry caches, parsed back from its key.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] when the key is not an
    /// architecture string.
    pub fn arch(&self) -> Result<Architecture> {
        self.key
            .parse()
            .map_err(|e| SearchError::Config(format!("score-cache key {:?}: {e}", self.key)))
    }
}

/// Ground-truth evaluation against the synthetic benchmark: returns true
/// objectives and charges a simulated per-architecture measurement cost.
#[derive(Debug)]
pub struct MeasuredEvaluator {
    model: AccuracyModel,
    dataset: Dataset,
    platform: Platform,
    /// Simulated seconds charged per *new* architecture measured.
    pub seconds_per_eval: f64,
    three_objectives: bool,
    cache: HashMap<(hwpr_nasbench::SearchSpaceId, u128), SharedObjectives>,
}

impl MeasuredEvaluator {
    /// Default simulated measurement cost (seconds): flashing + running
    /// the benchmark harness on the device per architecture.
    pub const DEFAULT_SECONDS_PER_EVAL: f64 = 2.3;

    /// Creates a measured evaluator matching `bench`'s generating models.
    pub fn for_bench(bench: &SimBench, dataset: Dataset, platform: Platform) -> Self {
        Self::new(bench.oracle_model(), dataset, platform)
    }

    /// Creates a measured evaluator from an explicit accuracy model.
    pub fn new(model: AccuracyModel, dataset: Dataset, platform: Platform) -> Self {
        Self {
            model,
            dataset,
            platform,
            seconds_per_eval: Self::DEFAULT_SECONDS_PER_EVAL,
            three_objectives: false,
            cache: HashMap::new(),
        }
    }

    /// Switches the evaluator to the three-objective mode of Fig. 9
    /// (error, latency, energy).
    pub fn with_three_objectives(mut self) -> Self {
        self.three_objectives = true;
        self.cache.clear();
        self
    }

    /// True objectives of one architecture (no time charged) — used to
    /// score final populations.
    pub fn true_objectives(&self, arch: &Architecture) -> Vec<f64> {
        let entry = SimBench::measure(arch, &self.model);
        entry.objectives(self.dataset, self.platform)
    }

    /// True 3-objective vector (error, latency, energy).
    pub fn true_objectives3(&self, arch: &Architecture) -> Vec<f64> {
        let entry = SimBench::measure(arch, &self.model);
        entry.objectives3(self.dataset, self.platform)
    }
}

impl Evaluator for MeasuredEvaluator {
    fn name(&self) -> String {
        "Measured Values".to_string()
    }

    fn evaluate(&mut self, archs: &[Architecture], clock: &mut SearchClock) -> Result<Fitness> {
        let mut objectives = Vec::with_capacity(archs.len());
        for arch in archs {
            let key = (arch.space(), arch.index());
            if let Some(hit) = self.cache.get(&key) {
                objectives.push(Arc::clone(hit));
                continue;
            }
            clock.charge_simulated(self.seconds_per_eval);
            let obj = Arc::new(if self.three_objectives {
                self.true_objectives3(arch)
            } else {
                self.true_objectives(arch)
            });
            self.cache.insert(key, Arc::clone(&obj));
            objectives.push(obj);
        }
        Ok(Fitness::Objectives(objectives))
    }

    fn calls_per_arch(&self) -> usize {
        0
    }
}

/// Scoring closure type for [`ScoreEvaluator::from_fn`]. `Send` so
/// score-backed evaluators can serve as island workers
/// (`Box<dyn Evaluator + Send>`).
pub type ScoreFn = Box<dyn FnMut(&[Architecture]) -> Result<Vec<f64>> + Send>;

/// Cross-generation surrogate score cache, keyed by the [`Architecture`]
/// value itself (a small fixed-size array of op ids, so a lookup hashes a
/// few bytes and allocates nothing). The string codec appears only at the
/// persistence boundary: [`Self::snapshot`] writes
/// [`Architecture::to_arch_string`] keys and [`Self::restore`] parses them.
///
/// The MOEA's mutation rate of 0.9 re-creates many architectures across
/// generations (and across restarts sharing the cache); each distinct
/// architecture pays for exactly one forward pass. The map is behind a
/// `parking_lot::RwLock` so the lookup pass never serialises readers.
///
/// Hit/miss counts live in the `hwpr-obs` metric registry (per-instance
/// counters named `search.cache.hits` / `search.cache.misses`): every
/// cache feeds the same telemetry snapshot that the search run exports,
/// and [`ScoreCache::hits`]/[`ScoreCache::misses`] keep serving the
/// functional consumers (`SearchResult::surrogate_calls`) with telemetry
/// off.
#[derive(Debug)]
pub struct ScoreCache {
    entries: RwLock<HashMap<Architecture, (f64, SharedObjectives)>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreCache {
    /// Creates an empty cache. Wrap it in an [`Arc`] and pass it to
    /// [`HwPrNasEvaluator::with_shared_cache`] to span evaluators.
    pub fn new() -> Self {
        let registry = hwpr_obs::metrics::registry();
        Self {
            entries: RwLock::default(),
            hits: registry.register_counter(Counter::new("search.cache.hits")),
            misses: registry.register_counter(Counter::new("search.cache.misses")),
        }
    }

    /// Looks up one architecture, counting the hit or miss.
    fn lookup(&self, arch: &Architecture) -> Option<(f64, SharedObjectives)> {
        let found = self.entries.read().get(arch).cloned();
        match found {
            Some(ref hit) => {
                self.hits.inc();
                Some((hit.0, Arc::clone(&hit.1)))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn store(&self, arch: Architecture, score: f64, objectives: SharedObjectives) {
        self.entries.write().insert(arch, (score, objectives));
    }

    /// Counts a lookup answered without a forward pass through a path
    /// other than [`Self::lookup`] (in-batch deduplication).
    fn count_hit(&self) {
        self.hits.inc();
    }

    /// Number of distinct architectures cached.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that required a surrogate call so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.entries.write().clear();
        self.hits.reset();
        self.misses.reset();
    }

    /// Exports every entry keyed by its architecture string and **sorted
    /// by that string**: map iteration order is nondeterministic, and
    /// checkpoint bytes must be a pure function of the cache contents.
    pub fn snapshot(&self) -> Vec<CacheEntry> {
        let mut entries: Vec<CacheEntry> = self
            .entries
            .read()
            .iter()
            .map(|(arch, (score, objectives))| CacheEntry {
                key: arch.to_arch_string(),
                score: *score,
                objectives: objectives.as_ref().clone(),
            })
            .collect();
        entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// Reloads entries exported by [`Self::snapshot`] (counters are left
    /// alone; hits/misses restart from the resumed run's perspective).
    /// Every key is parsed before any is inserted, so a malformed entry
    /// leaves the cache unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] when a key is not an architecture
    /// string.
    pub fn restore(&self, entries: &[CacheEntry]) -> Result<()> {
        let archs = entries
            .iter()
            .map(CacheEntry::arch)
            .collect::<Result<Vec<_>>>()?;
        let mut map = self.entries.write();
        for (arch, e) in archs.into_iter().zip(entries) {
            map.insert(arch, (e.score, Arc::new(e.objectives.clone())));
        }
        Ok(())
    }
}

/// Evaluates with the full HW-PR-NAS model: one call yields the Pareto
/// score and the branch objective predictions (Fig. 3).
///
/// Each call looks every architecture up in a cross-generation
/// [`ScoreCache`] and sends only the distinct misses to one
/// [`HwPrNas::predict_full`] call on the calling thread. Results are
/// spliced back in input index order and dropout is inert at inference,
/// so a seeded search is bit-identical however its islands are spread
/// over worker lanes.
#[derive(Debug)]
pub struct HwPrNasEvaluator {
    model: Arc<HwPrNas>,
    platform: Platform,
    call_cost_s: f64,
    cache: Arc<ScoreCache>,
}

impl HwPrNasEvaluator {
    /// Wraps a trained model targeting `platform`. Accepts the model by
    /// value or as an [`Arc`], so several evaluators can share one model.
    ///
    /// Eagerly compiles the model's frozen inference engine so the weight
    /// packing happens here, once, instead of inside the first
    /// generation's scoring call.
    pub fn new(model: impl Into<Arc<HwPrNas>>, platform: Platform) -> Self {
        let model = model.into();
        let _ = model.frozen();
        Self {
            model,
            platform,
            call_cost_s: 0.0,
            cache: Arc::new(ScoreCache::new()),
        }
    }

    /// Charges `seconds` of simulated serving overhead per surrogate call
    /// (the paper's searches run each evaluation through a Python/GPU
    /// serving stack where dispatch dominates; Fig. 7 models that cost).
    /// Cache hits skip the serving stack, so they are not charged.
    pub fn with_simulated_call_cost(mut self, seconds: f64) -> Self {
        self.call_cost_s = seconds;
        self
    }

    /// Replaces the score cache with a shared one, so several evaluators
    /// (or repeated runs) reuse each other's forward passes.
    pub fn with_shared_cache(mut self, cache: Arc<ScoreCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The evaluator's score cache (shareable via [`Arc::clone`]).
    pub fn cache(&self) -> &Arc<ScoreCache> {
        &self.cache
    }
}

impl Evaluator for HwPrNasEvaluator {
    fn name(&self) -> String {
        "HW-PR-NAS".to_string()
    }

    fn evaluate(&mut self, archs: &[Architecture], clock: &mut SearchClock) -> Result<Fitness> {
        let _span = hwpr_obs::span("search.eval");
        let mut scores = vec![0.0f64; archs.len()];
        let mut objectives: Vec<Option<SharedObjectives>> = vec![None; archs.len()];
        // batch-local dedup on top of the shared cache: duplicate offspring
        // within one generation share a single forward slot
        let mut miss_index: Vec<usize> = Vec::new();
        let mut miss_slot: HashMap<&Architecture, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new(); // (arch idx, miss slot)
        for (i, arch) in archs.iter().enumerate() {
            if let Some(&slot) = miss_slot.get(arch) {
                // duplicate within this batch: rides the in-flight slot
                self.cache.count_hit();
                dups.push((i, slot));
            } else if let Some((score, objs)) = self.cache.lookup(arch) {
                scores[i] = score;
                objectives[i] = Some(objs);
            } else {
                miss_slot.insert(arch, miss_index.len());
                miss_index.push(i);
            }
        }
        if !miss_index.is_empty() {
            clock.charge_simulated(self.call_cost_s * miss_index.len() as f64);
            let miss_archs: Vec<Architecture> =
                miss_index.iter().map(|&i| archs[i].clone()).collect();
            let (miss_scores, miss_objs) = self
                .model
                .predict_full(&miss_archs, self.platform)
                .map_err(|e| SearchError::Surrogate(e.to_string()))?;
            let misses = miss_archs.into_iter().zip(miss_scores).zip(miss_objs);
            for (&i, ((arch, score), objs)) in miss_index.iter().zip(misses) {
                let objs = Arc::new(objs);
                self.cache.store(arch, score, Arc::clone(&objs));
                scores[i] = score;
                objectives[i] = Some(objs);
            }
            for (i, slot) in dups {
                let j = miss_index[slot];
                scores[i] = scores[j];
                objectives[i] = objectives[j].clone();
            }
        }
        let objectives = objectives
            .into_iter()
            .map(|o| o.expect("every architecture resolved via cache or prediction"))
            .collect();
        Ok(Fitness::Ranked { scores, objectives })
    }

    fn calls_per_arch(&self) -> usize {
        1
    }

    fn calls_made(&self) -> Option<u64> {
        Some(self.cache.misses())
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        Some((self.cache.hits(), self.cache.misses()))
    }

    fn cache_snapshot(&self) -> Vec<CacheEntry> {
        self.cache.snapshot()
    }

    /// # Panics
    ///
    /// Panics when a key does not parse; snapshots reach here through
    /// [`crate::IslandSearch::resume`], which rejects such keys first.
    fn restore_cache(&mut self, entries: &[CacheEntry]) {
        if let Err(e) = self.cache.restore(entries) {
            panic!("restore_cache: {e}");
        }
    }
}

/// Evaluates with a bare scoring function (scores only, no objective
/// predictions). Prefer [`HwPrNasEvaluator`] for the full model: with
/// score-only fitness the elitist selection has no diversity signal, so
/// front coverage depends entirely on how flat the scores are within a
/// front.
pub struct ScoreEvaluator {
    name: String,
    score_fn: ScoreFn,
}

impl std::fmt::Debug for ScoreEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScoreEvaluator({})", self.name)
    }
}

impl ScoreEvaluator {
    /// Wraps an arbitrary scoring function (used by the scalable variant
    /// and by tests).
    pub fn from_fn(name: impl Into<String>, score_fn: ScoreFn) -> Self {
        Self {
            name: name.into(),
            score_fn,
        }
    }
}

impl Evaluator for ScoreEvaluator {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn evaluate(&mut self, archs: &[Architecture], _clock: &mut SearchClock) -> Result<Fitness> {
        Ok(Fitness::Scores((self.score_fn)(archs)?))
    }

    fn calls_per_arch(&self) -> usize {
        1
    }
}

/// Evaluates with two per-objective surrogates (BRP-NAS / GATES style).
#[derive(Debug)]
pub struct PairEvaluator {
    pair: SurrogatePair,
    call_cost_s: f64,
}

impl PairEvaluator {
    /// Wraps a trained surrogate pair.
    pub fn new(pair: SurrogatePair) -> Self {
        Self {
            pair,
            call_cost_s: 0.0,
        }
    }

    /// Charges `seconds` of simulated serving overhead per surrogate call
    /// (two calls per architecture for a pair — see
    /// [`HwPrNasEvaluator::with_simulated_call_cost`]).
    pub fn with_simulated_call_cost(mut self, seconds: f64) -> Self {
        self.call_cost_s = seconds;
        self
    }
}

impl Evaluator for PairEvaluator {
    fn name(&self) -> String {
        self.pair.name().to_string()
    }

    fn evaluate(&mut self, archs: &[Architecture], clock: &mut SearchClock) -> Result<Fitness> {
        clock.charge_simulated(self.call_cost_s * 2.0 * archs.len() as f64);
        Ok(Fitness::Objectives(share_objectives(
            self.pair.predict_objectives(archs)?,
        )))
    }

    fn calls_per_arch(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_hwmodel::SimBenchConfig;
    use hwpr_nasbench::SearchSpaceId;

    fn bench() -> SimBench {
        SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(8),
            seed: 2,
        })
    }

    #[test]
    fn measured_matches_bench_table() {
        let b = bench();
        let mut eval = MeasuredEvaluator::for_bench(&b, Dataset::Cifar10, Platform::EdgeGpu);
        let archs: Vec<Architecture> = b.entries().iter().map(|e| e.arch().clone()).collect();
        let mut clock = SearchClock::unbounded();
        let Fitness::Objectives(objs) = eval.evaluate(&archs, &mut clock).unwrap() else {
            panic!("measured evaluator must return objectives");
        };
        for (o, e) in objs.iter().zip(b.entries()) {
            let expected = e.objectives(Dataset::Cifar10, Platform::EdgeGpu);
            assert!((o[0] - expected[0]).abs() < 1e-9);
            assert!((o[1] - expected[1]).abs() < 1e-9);
        }
        assert_eq!(eval.calls_per_arch(), 0);
        assert_eq!(eval.name(), "Measured Values");
    }

    #[test]
    fn measured_charges_only_new_architectures() {
        let b = bench();
        let mut eval = MeasuredEvaluator::for_bench(&b, Dataset::Cifar10, Platform::EdgeGpu);
        let archs = vec![b.entries()[0].arch().clone(); 5];
        let mut clock = SearchClock::unbounded();
        eval.evaluate(&archs, &mut clock).unwrap();
        let charged = clock.simulated_elapsed().as_secs_f64();
        assert!((charged - MeasuredEvaluator::DEFAULT_SECONDS_PER_EVAL).abs() < 1e-9);
    }

    #[test]
    fn measured_cache_hit_shares_the_point() {
        let b = bench();
        let mut eval = MeasuredEvaluator::for_bench(&b, Dataset::Cifar10, Platform::EdgeGpu);
        let archs = vec![b.entries()[0].arch().clone(); 3];
        let mut clock = SearchClock::unbounded();
        let Fitness::Objectives(objs) = eval.evaluate(&archs, &mut clock).unwrap() else {
            panic!("measured evaluator must return objectives");
        };
        // all three entries point at the same cached allocation
        assert!(Arc::ptr_eq(&objs[0], &objs[1]));
        assert!(Arc::ptr_eq(&objs[0], &objs[2]));
    }

    #[test]
    fn score_evaluator_from_fn() {
        let mut eval = ScoreEvaluator::from_fn(
            "stub",
            Box::new(|archs| Ok(archs.iter().map(|a| a.index() as f64).collect())),
        );
        assert_eq!(eval.name(), "stub");
        assert_eq!(eval.calls_per_arch(), 1);
        let archs = vec![
            Architecture::nb201_from_index(3).unwrap(),
            Architecture::nb201_from_index(7).unwrap(),
        ];
        let mut clock = SearchClock::unbounded();
        let Fitness::Scores(s) = eval.evaluate(&archs, &mut clock).unwrap() else {
            panic!("score evaluator must return scores");
        };
        assert_eq!(s, vec![3.0, 7.0]);
    }

    #[test]
    fn fitness_len() {
        assert_eq!(Fitness::Scores(vec![1.0, 2.0]).len(), 2);
        assert_eq!(
            Fitness::Objectives(share_objectives(vec![vec![1.0, 2.0]])).len(),
            1
        );
        assert!(Fitness::Scores(vec![]).is_empty());
    }

    #[test]
    fn true_objectives3_has_energy() {
        let b = bench();
        let eval = MeasuredEvaluator::for_bench(&b, Dataset::Cifar10, Platform::EdgeGpu);
        let o = eval.true_objectives3(b.entries()[0].arch());
        assert_eq!(o.len(), 3);
        assert!(o[2] > 0.0);
    }

    #[test]
    fn score_cache_counts_hits_and_misses() {
        let cache = ScoreCache::new();
        assert!(cache.is_empty());
        let arch = Architecture::nb201_from_index(42).unwrap();
        assert!(cache.lookup(&arch).is_none());
        cache.store(arch.clone(), 1.5, Arc::new(vec![2.0, 3.0]));
        let (score, objs) = cache.lookup(&arch).expect("stored entry");
        assert!((score - 1.5).abs() < 1e-12);
        assert_eq!(*objs, vec![2.0, 3.0]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }
}
