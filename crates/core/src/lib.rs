//! **HW-PR-NAS** — the Pareto rank-preserving surrogate model of the
//! paper, plus the baseline surrogates it is compared against.
//!
//! The model (§III of the paper) scores an architecture so that higher
//! scores mean closer to the true Pareto front of (accuracy, latency):
//!
//! - an **accuracy branch**: GCN encoder over the architecture graph,
//!   concatenated with the manual Architecture Features (AF), feeding an
//!   MLP regressor;
//! - a **latency branch**: embedded-token LSTM encoder concatenated with
//!   AF, feeding a per-platform bank of MLP regressors (the
//!   *multi-platform latency predictor* of §III-E, indexed by the target
//!   hardware);
//! - a **fusion layer** that combines the two branch outputs into a single
//!   Pareto score.
//!
//! Training (§III-A) minimises the listwise **ListMLE Pareto ranking
//! loss** over each batch, sorted by true non-dominated-sorting rank,
//! plus per-branch RMSE auxiliary losses, with the Table II
//! hyperparameters (AdamW, lr 3e-4, cosine annealing, batch 128,
//! dropout 0.02, weight decay 3e-4, 80 epochs with early stopping).
//!
//! Also provided:
//!
//! - [`predictor`] — standalone single-objective predictors with
//!   swappable encoders (AF / LSTM / GCN / combinations) and heads (MLP /
//!   XGBoost / LGBoost) for the Fig. 4 and Table I studies;
//! - [`baselines`] — BRP-NAS-style (two GCN regressors) and GATES-style
//!   (hinge-ranking GCN) surrogate pairs;
//! - [`scalable`] — the ≥3-objective variant of §III-F (frozen encoders,
//!   one MLP fine-tuned for 5 epochs).

#![warn(missing_docs)]
#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod baselines;
pub mod config;
pub mod data;
pub mod encoders;
pub mod frozen;
pub mod model;
pub mod persist;
pub mod predictor;
pub mod scalable;
mod train;

pub use config::{ModelConfig, TrainConfig};
pub use data::{ArchSample, EncodingCache, SurrogateDataset};
pub use frozen::{FrozenModel, InferArena};
pub use model::HwPrNas;
pub use persist::{observe_saves, SaveWatch};
pub use train::{nb201_fraction, TrainReport};

use std::error::Error;
use std::fmt;

/// Error produced when building or training surrogate models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A neural-network layer failed (shape mismatch, invalid config).
    Nn(hwpr_nn::NnError),
    /// A gradient-boosting model failed to fit.
    Gbdt(hwpr_gbdt::GbdtError),
    /// Pareto-rank computation failed on the batch objectives.
    Moo(hwpr_moo::MooError),
    /// The training data is unusable (empty, inconsistent).
    Data(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "{e}"),
            CoreError::Gbdt(e) => write!(f, "{e}"),
            CoreError::Moo(e) => write!(f, "{e}"),
            CoreError::Data(msg) => write!(f, "invalid training data: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Gbdt(e) => Some(e),
            CoreError::Moo(e) => Some(e),
            CoreError::Data(_) => None,
        }
    }
}

impl From<hwpr_nn::NnError> for CoreError {
    fn from(e: hwpr_nn::NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<hwpr_autograd::AutogradError> for CoreError {
    fn from(e: hwpr_autograd::AutogradError) -> Self {
        CoreError::Nn(e.into())
    }
}

impl From<hwpr_gbdt::GbdtError> for CoreError {
    fn from(e: hwpr_gbdt::GbdtError) -> Self {
        CoreError::Gbdt(e)
    }
}

impl From<hwpr_moo::MooError> for CoreError {
    fn from(e: hwpr_moo::MooError) -> Self {
        CoreError::Moo(e)
    }
}

/// Convenience alias for fallible surrogate operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: CoreError = hwpr_nn::NnError::Config("x".into()).into();
        assert!(e.to_string().contains('x'));
        assert!(Error::source(&e).is_some());
        let e: CoreError = hwpr_moo::MooError::EmptySet.into();
        assert!(!e.to_string().is_empty());
        let e = CoreError::Data("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(Error::source(&e).is_none());
    }
}
