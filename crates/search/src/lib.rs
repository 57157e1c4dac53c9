//! Search algorithms for the HW-PR-NAS reproduction.
//!
//! Implements the paper's two search baselines (§IV-C1):
//!
//! - [`random_search`] — uniform sampling from the space, ranked by the
//!   chosen evaluator;
//! - [`Moea`] — the multi-objective evolutionary algorithm of
//!   Algorithm 1: tournament parent selection, crossover + mutation
//!   (rate 0.9), elitist survivor selection over `P_t ∪ Q_t`, population
//!   150, 250 generations, 24-hour budget.
//!
//! Three [`Evaluator`]s mirror the paper's comparison:
//!
//! - [`MeasuredEvaluator`] — true benchmark values; charges simulated
//!   measurement time against the budget (the paper's "Measured Values"),
//! - [`ScoreEvaluator`] — the HW-PR-NAS Pareto score (one call per
//!   architecture, elitist top-k selection),
//! - [`PairEvaluator`] — two per-objective surrogates (BRP-NAS/GATES
//!   style; two calls per architecture plus non-dominated sorting in the
//!   selection step).
//!
//! [`IslandSearch`] scales the MOEA across parallel islands with ring
//! migration, a global Pareto archive, deterministic replay at any
//! worker-lane count, and checkpoint/resume (see the [`island`] module
//! docs).
//!
//! All three engines share one selection policy (the private `select`
//! module): one fitness buffer, one set of parent-selection keys, one
//! tournament and one survivor rule. [`Moea`] and every island advance
//! through the same generation step, each on its own RNG stream
//! (ChaCha8 for [`Moea`], [`SplitMix64`] per island); [`random_search`]
//! keeps its best through the same survivor rule.

#![warn(missing_docs)]
mod channel;
mod clock;
mod evaluator;
pub mod island;
mod moea;
mod random;
mod rng;
mod select;
mod telemetry;

pub use channel::MigrationChannel;
pub use clock::SearchClock;
pub use evaluator::{
    share_objectives, CacheEntry, Evaluator, Fitness, HwPrNasEvaluator, MeasuredEvaluator,
    PairEvaluator, ScoreCache, ScoreEvaluator, ScoreFn, SharedObjectives,
};
pub use island::{
    ArchiveMember, FitnessKind, IslandConfig, IslandSearch, IslandSearchResult, SearchSnapshot,
};
pub use moea::{GenerationStats, Moea, MoeaConfig, SearchResult};
pub use random::{random_search, RandomSearchConfig};
pub use rng::SplitMix64;

use std::error::Error;
use std::fmt;

/// Error produced by search runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The surrogate model failed to evaluate a batch.
    Surrogate(String),
    /// The configuration is unusable (zero population, no spaces, ...).
    Config(String),
    /// Multi-objective machinery failed (degenerate objectives).
    Moo(hwpr_moo::MooError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Surrogate(msg) => write!(f, "surrogate evaluation failed: {msg}"),
            SearchError::Config(msg) => write!(f, "invalid search configuration: {msg}"),
            SearchError::Moo(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SearchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SearchError::Moo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hwpr_moo::MooError> for SearchError {
    fn from(e: hwpr_moo::MooError) -> Self {
        SearchError::Moo(e)
    }
}

impl From<hwpr_core::CoreError> for SearchError {
    fn from(e: hwpr_core::CoreError) -> Self {
        SearchError::Surrogate(e.to_string())
    }
}

/// Convenience alias for fallible search operations.
pub type Result<T> = std::result::Result<T, SearchError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        let e: SearchError = hwpr_moo::MooError::EmptySet.into();
        assert!(!e.to_string().is_empty());
        assert!(Error::source(&e).is_some());
        let e = SearchError::Config("pop 0".into());
        assert!(e.to_string().contains("pop 0"));
        let e: SearchError = hwpr_core::CoreError::Data("d".into()).into();
        assert!(e.to_string().contains('d'));
    }
}
