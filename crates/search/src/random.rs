//! Random search (the paper's simplest baseline).

use crate::clock::SearchClock;
use crate::evaluator::Evaluator;
use crate::moea::SearchResult;
use crate::select::{self, FitnessBuffer, Scratch};
use crate::{Result, SearchError};
use hwpr_nasbench::{Architecture, SearchSpaceId};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Configuration of random search.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSearchConfig {
    /// Number of architectures to sample.
    pub samples: usize,
    /// Size of the returned population (best-ranked subset).
    pub keep: usize,
    /// Search spaces to sample from.
    pub spaces: Vec<SearchSpaceId>,
    /// Total time budget (wall + simulated).
    pub budget: Option<Duration>,
    /// RNG seed.
    pub seed: u64,
}

impl RandomSearchConfig {
    /// Matches the MOEA's evaluation volume: population × generations.
    pub fn paper(space: SearchSpaceId) -> Self {
        Self {
            samples: 150 * 250,
            keep: 150,
            spaces: vec![space],
            budget: Some(Duration::from_secs(24 * 3600)),
            seed: 0,
        }
    }

    /// A small configuration for tests.
    pub fn small(space: SearchSpaceId) -> Self {
        Self {
            samples: 64,
            keep: 16,
            spaces: vec![space],
            budget: None,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Runs random search: samples architectures uniformly, evaluates them
/// with `evaluator`, and keeps the best `keep` (top scores, or the best
/// non-dominated layers for objective evaluators).
///
/// # Errors
///
/// Returns [`SearchError::Config`] for degenerate settings and propagates
/// evaluator failures.
pub fn random_search(
    config: &RandomSearchConfig,
    evaluator: &mut dyn Evaluator,
) -> Result<SearchResult> {
    if config.samples == 0 || config.keep == 0 || config.keep > config.samples {
        return Err(SearchError::Config(format!(
            "need 0 < keep <= samples, got keep {} samples {}",
            config.keep, config.samples
        )));
    }
    if config.spaces.is_empty() {
        return Err(SearchError::Config(
            "at least one search space required".into(),
        ));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut clock = match config.budget {
        Some(b) => SearchClock::with_budget(b),
        None => SearchClock::unbounded(),
    };
    let mut archs = Vec::with_capacity(config.samples);
    let mut fitness = FitnessBuffer::default();
    // sample and evaluate in chunks so the budget can cut the run short
    const CHUNK: usize = 512;
    while archs.len() < config.samples && !clock.exhausted() {
        let n = CHUNK.min(config.samples - archs.len());
        let chunk: Vec<Architecture> = (0..n)
            .map(|i| {
                let space = config.spaces[(archs.len() + i) % config.spaces.len()];
                Architecture::random(space, &mut rng)
            })
            .collect();
        fitness.absorb(evaluator.evaluate(&chunk, &mut clock)?, chunk.len())?;
        archs.extend(chunk);
    }
    if fitness.kind.is_none() {
        return Err(SearchError::Config("no samples evaluated".into()));
    }
    let mut scratch = Scratch::default();
    select::survivors_into(&archs, &fitness, config.keep.min(archs.len()), &mut scratch)?;
    let surrogate_calls = evaluator
        .calls_made()
        .map_or(archs.len() * evaluator.calls_per_arch(), |calls| {
            calls as usize
        });
    Ok(SearchResult {
        population: scratch.keep.iter().map(|&i| archs[i].clone()).collect(),
        evaluator: format!("Random Search ({})", evaluator.name()),
        wall_time: clock.wall_elapsed(),
        simulated_time: clock.simulated_elapsed(),
        evaluations: archs.len(),
        surrogate_calls,
        history: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ScoreEvaluator;

    fn conv_counter() -> ScoreEvaluator {
        ScoreEvaluator::from_fn(
            "stub",
            Box::new(|archs| {
                Ok(archs
                    .iter()
                    .map(|a| a.op_indices().iter().filter(|&&o| o == 3).count() as f64)
                    .collect())
            }),
        )
    }

    #[test]
    fn keeps_the_best_scored_samples() {
        let cfg = RandomSearchConfig::small(SearchSpaceId::NasBench201);
        let result = random_search(&cfg, &mut conv_counter()).unwrap();
        assert_eq!(result.population.len(), 16);
        assert_eq!(result.evaluations, 64);
        // every kept arch should have at least one conv3x3 (highly likely
        // among top 16 of 64 uniform samples)
        let min_convs = result
            .population
            .iter()
            .map(|a| a.op_indices().iter().filter(|&&o| o == 3).count())
            .min()
            .unwrap();
        assert!(min_convs >= 1);
    }

    #[test]
    fn validates_config() {
        let mut cfg = RandomSearchConfig::small(SearchSpaceId::NasBench201);
        cfg.keep = 0;
        assert!(random_search(&cfg, &mut conv_counter()).is_err());
        let mut cfg = RandomSearchConfig::small(SearchSpaceId::NasBench201);
        cfg.keep = 1000;
        assert!(random_search(&cfg, &mut conv_counter()).is_err());
        let mut cfg = RandomSearchConfig::small(SearchSpaceId::NasBench201);
        cfg.spaces.clear();
        assert!(random_search(&cfg, &mut conv_counter()).is_err());
    }

    #[test]
    fn paper_config_matches_moea_volume() {
        let cfg = RandomSearchConfig::paper(SearchSpaceId::NasBench201);
        assert_eq!(cfg.samples, 37_500);
        assert_eq!(cfg.keep, 150);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RandomSearchConfig::small(SearchSpaceId::FBNet).with_seed(5);
        let a = random_search(&cfg, &mut conv_counter()).unwrap();
        let b = random_search(&cfg, &mut conv_counter()).unwrap();
        assert_eq!(a.population, b.population);
    }
}
