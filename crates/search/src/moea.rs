//! Algorithm 1: the multi-objective evolutionary algorithm.

use crate::clock::SearchClock;
use crate::evaluator::Evaluator;
use crate::select::{self, FitnessBuffer, Scratch, Variation};
use crate::{Result, SearchError};
use hwpr_nasbench::{Architecture, SearchSpaceId};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Configuration of the MOEA (§IV-C1: population 150, 250 generations,
/// mutation rate 0.9, tournament parent selection, 24 h budget).
#[derive(Debug, Clone, PartialEq)]
pub struct MoeaConfig {
    /// Population size (also the size of the final Pareto set, `k`).
    pub population: usize,
    /// Maximum number of generations.
    pub generations: usize,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Probability of producing an offspring by crossover (otherwise the
    /// tournament winner is cloned before mutation).
    pub crossover_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Search spaces to sample from (one or both benchmarks).
    pub spaces: Vec<SearchSpaceId>,
    /// Total time budget (wall + simulated).
    pub budget: Option<Duration>,
    /// Record a population snapshot per generation (hypervolume
    /// convergence studies; costs memory).
    pub record_populations: bool,
    /// Architectures injected into the initial population (Algorithm 1:
    /// "an initial population is randomly generated **or using a sampling
    /// strategy**"); typically the best-scored training architectures.
    /// Truncated to the population size; the remainder is random.
    pub seed_population: Vec<Architecture>,
    /// RNG seed.
    pub seed: u64,
}

impl MoeaConfig {
    /// The paper's settings on a single space.
    pub fn paper(space: SearchSpaceId) -> Self {
        Self {
            population: 150,
            generations: 250,
            mutation_rate: 0.9,
            crossover_rate: 0.5,
            tournament: 2,
            spaces: vec![space],
            budget: Some(Duration::from_secs(24 * 3600)),
            record_populations: false,
            seed_population: Vec::new(),
            seed: 0,
        }
    }

    /// A small configuration for tests and smoke runs.
    pub fn small(space: SearchSpaceId) -> Self {
        Self {
            population: 16,
            generations: 8,
            mutation_rate: 0.9,
            crossover_rate: 0.5,
            tournament: 2,
            spaces: vec![space],
            budget: None,
            record_populations: false,
            seed_population: Vec::new(),
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.population < 2 {
            return Err(SearchError::Config("population must be at least 2".into()));
        }
        if self.spaces.is_empty() {
            return Err(SearchError::Config(
                "at least one search space required".into(),
            ));
        }
        if self.tournament == 0 {
            return Err(SearchError::Config(
                "tournament size must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) || !(0.0..=1.0).contains(&self.crossover_rate)
        {
            return Err(SearchError::Config("rates must be in [0, 1]".into()));
        }
        Ok(())
    }
}

/// Statistics recorded after each generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Total evaluator calls so far (architectures × calls per arch).
    pub evaluations: usize,
    /// Wall + simulated time consumed so far.
    pub elapsed: Duration,
    /// Population snapshot (only when
    /// [`MoeaConfig::record_populations`] is set).
    pub population: Option<Vec<Architecture>>,
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The final population (size `k` — the paper's Pareto set source).
    pub population: Vec<Architecture>,
    /// Evaluator name used.
    pub evaluator: String,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Simulated (charged) time of the run.
    pub simulated_time: Duration,
    /// Number of architecture evaluations performed.
    pub evaluations: usize,
    /// Number of underlying surrogate calls performed.
    pub surrogate_calls: usize,
    /// Per-generation progress.
    pub history: Vec<GenerationStats>,
}

impl SearchResult {
    /// Total accounted search time (wall + simulated), the Fig. 7 metric.
    pub fn total_time(&self) -> Duration {
        self.wall_time + self.simulated_time
    }
}

/// The MOEA of Algorithm 1, generic over the evaluation backend.
#[derive(Debug)]
pub struct Moea {
    config: MoeaConfig,
}

impl Moea {
    /// Creates a search with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Config`] for degenerate settings.
    pub fn new(config: MoeaConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &MoeaConfig {
        &self.config
    }

    /// Runs the search with `evaluator` and returns the final population.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures.
    pub fn run(&self, evaluator: &mut dyn Evaluator) -> Result<SearchResult> {
        let cfg = &self.config;
        let _search_span = hwpr_obs::span("search.moea");
        let mut generation_telemetry = crate::telemetry::GenerationTelemetry::default();
        let variation = Variation {
            population: cfg.population,
            tournament: cfg.tournament,
            crossover_rate: cfg.crossover_rate,
            mutation_rate: cfg.mutation_rate,
        };
        // one set of selection buffers for the whole run: every
        // generation's sort, crowding and compaction reuses them
        let mut scratch = Scratch::default();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut clock = match cfg.budget {
            Some(b) => SearchClock::with_budget(b),
            None => SearchClock::unbounded(),
        };
        let mut evaluations = 0usize;
        let mut surrogate_calls = 0usize;
        let mut history = Vec::new();

        // initial population: configured seeds first (sampling strategy),
        // the remainder uniform across the configured spaces
        let mut population: Vec<Architecture> = cfg
            .seed_population
            .iter()
            .take(cfg.population)
            .cloned()
            .collect();
        for i in population.len()..cfg.population {
            let space = cfg.spaces[i % cfg.spaces.len()];
            population.push(Architecture::random(space, &mut rng));
        }
        let timer = crate::telemetry::eval_timer();
        let mut fitness = FitnessBuffer::default();
        fitness.absorb(
            evaluator.evaluate(&population, &mut clock)?,
            population.len(),
        )?;
        timer.finish();
        evaluations += population.len();
        surrogate_calls += population.len() * evaluator.calls_per_arch();

        for generation in 0..cfg.generations {
            if clock.exhausted() {
                break;
            }
            let _gen_span = hwpr_obs::span("search.generation");
            let eval_ms = select::generation(
                &variation,
                &mut rng,
                &mut population,
                &mut fitness,
                evaluator,
                &mut clock,
                &mut scratch,
            )?;
            evaluations += cfg.population;
            surrogate_calls += cfg.population * evaluator.calls_per_arch();

            history.push(GenerationStats {
                generation,
                evaluations,
                elapsed: clock.total_elapsed(),
                population: cfg.record_populations.then(|| population.clone()),
            });
            generation_telemetry.record(crate::telemetry::GenerationRecord {
                generation,
                evaluations,
                elapsed_ms: clock.total_elapsed().as_secs_f64() * 1e3,
                eval_ms,
                objectives: &fitness.objectives,
                cache: evaluator.cache_stats(),
                snapshot_front: cfg.record_populations,
            });
        }
        // cache-backed evaluators answer repeated architectures without a
        // model call; report the calls actually made when they track it
        let surrogate_calls = evaluator
            .calls_made()
            .map_or(surrogate_calls, |calls| calls as usize);
        Ok(SearchResult {
            population,
            evaluator: evaluator.name(),
            wall_time: clock.wall_elapsed(),
            simulated_time: clock.simulated_elapsed(),
            evaluations,
            surrogate_calls,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ScoreEvaluator;

    /// Score = -(distance to a known optimum): MOEA should find it.
    fn stub_evaluator() -> ScoreEvaluator {
        ScoreEvaluator::from_fn(
            "stub",
            Box::new(|archs| {
                Ok(archs
                    .iter()
                    .map(|a| {
                        // favour architectures with many conv3x3 (op index 3)
                        a.op_indices().iter().filter(|&&o| o == 3).count() as f64
                    })
                    .collect())
            }),
        )
    }

    #[test]
    fn moea_improves_stub_objective() {
        let moea = Moea::new(MoeaConfig::small(SearchSpaceId::NasBench201)).unwrap();
        let mut eval = stub_evaluator();
        let result = moea.run(&mut eval).unwrap();
        assert_eq!(result.population.len(), 16);
        assert_eq!(result.evaluator, "stub");
        assert!(result.evaluations > 16);
        assert_eq!(result.history.len(), 8);
        // the best member should be close to all-conv3x3
        let best = result
            .population
            .iter()
            .map(|a| a.op_indices().iter().filter(|&&o| o == 3).count())
            .max()
            .unwrap();
        assert!(best >= 5, "best only has {best}/6 conv3x3 edges");
    }

    #[test]
    fn config_validation() {
        let base = MoeaConfig::small(SearchSpaceId::NasBench201);
        assert!(Moea::new(base.clone()).is_ok());
        let mut bad = base.clone();
        bad.population = 1;
        assert!(Moea::new(bad).is_err());
        let mut bad = base.clone();
        bad.spaces.clear();
        assert!(Moea::new(bad).is_err());
        let mut bad = base.clone();
        bad.tournament = 0;
        assert!(Moea::new(bad).is_err());
        let mut bad = base;
        bad.mutation_rate = 1.5;
        assert!(Moea::new(bad).is_err());
    }

    #[test]
    fn paper_config_values() {
        let cfg = MoeaConfig::paper(SearchSpaceId::FBNet);
        assert_eq!(cfg.population, 150);
        assert_eq!(cfg.generations, 250);
        assert!((cfg.mutation_rate - 0.9).abs() < 1e-12);
        assert_eq!(cfg.budget, Some(Duration::from_secs(86_400)));
    }

    #[test]
    fn mixed_space_search_produces_both_spaces() {
        let mut cfg = MoeaConfig::small(SearchSpaceId::NasBench201);
        cfg.spaces = vec![SearchSpaceId::NasBench201, SearchSpaceId::FBNet];
        cfg.generations = 2;
        let moea = Moea::new(cfg).unwrap();
        let mut eval =
            ScoreEvaluator::from_fn("flat", Box::new(|archs| Ok(vec![0.0; archs.len()])));
        let result = moea.run(&mut eval).unwrap();
        let nb = result
            .population
            .iter()
            .filter(|a| a.space() == SearchSpaceId::NasBench201)
            .count();
        assert!(nb > 0 && nb < result.population.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MoeaConfig::small(SearchSpaceId::NasBench201).with_seed(42);
        let moea = Moea::new(cfg).unwrap();
        let a = moea.run(&mut stub_evaluator()).unwrap();
        let b = moea.run(&mut stub_evaluator()).unwrap();
        assert_eq!(a.population, b.population);
    }
}
