//! Standalone single-objective predictors — the building blocks of the
//! Fig. 4 encoding study and the Table I regressor study.

use crate::config::{ModelConfig, TrainConfig};
use crate::data::{EncodingCache, SurrogateDataset};
use crate::encoders::{EncoderChoice, EncoderSet};
use crate::Result;
use hwpr_autograd::Tape;
use hwpr_gbdt::{Gbdt, GbdtConfig};
use hwpr_nasbench::{tokens, Architecture};
use hwpr_nn::batch::shuffled_batches;
use hwpr_nn::layers::{LayerRng, Mlp, MlpConfig};
use hwpr_nn::optim::{AdamW, CosineAnnealing, EarlyStopping, Optimizer};
use hwpr_nn::{Binder, Params};
use hwpr_tensor::Matrix;
use rand_chacha::rand_core::SeedableRng;
use std::fmt;

/// Which scalar a predictor regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMetric {
    /// Accuracy in percent (on the dataset the training data is bound to).
    Accuracy,
    /// Latency in milliseconds (on the platform the data is bound to).
    Latency,
}

impl fmt::Display for TargetMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetMetric::Accuracy => write!(f, "accuracy"),
            TargetMetric::Latency => write!(f, "latency"),
        }
    }
}

/// The regressor head (Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressorKind {
    /// Neural head (MLP) on top of the chosen encoders.
    Mlp,
    /// Level-wise gradient-boosted trees (XGBoost-style).
    XgBoost,
    /// Leaf-wise gradient-boosted trees (LightGBM-style).
    LgBoost,
}

impl fmt::Display for RegressorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressorKind::Mlp => write!(f, "MLP"),
            RegressorKind::XgBoost => write!(f, "XGBoost"),
            RegressorKind::LgBoost => write!(f, "LGBoost"),
        }
    }
}

/// Configuration of a standalone predictor.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Encoder combination (ignored by tree heads, which consume AF +
    /// one-hot op features as in the paper's dense-layer+AF setup).
    pub encoders: EncoderChoice,
    /// Head type.
    pub regressor: RegressorKind,
    /// Regression target.
    pub target: TargetMetric,
    /// Network sizes for neural heads.
    pub model: ModelConfig,
    /// Optimisation hyperparameters for neural heads.
    pub train: TrainConfig,
    /// Weight of the pairwise hinge ranking term (margin 0.1, as in the
    /// paper's encoder study).
    pub hinge_weight: f32,
}

impl PredictorConfig {
    /// An MLP predictor with the given encoders and target.
    pub fn mlp(encoders: EncoderChoice, target: TargetMetric) -> Self {
        Self {
            encoders,
            regressor: RegressorKind::Mlp,
            target,
            model: ModelConfig::fast(),
            train: TrainConfig::fast(),
            hinge_weight: 0.5,
        }
    }

    /// A boosted-tree predictor for the given target.
    pub fn boosted(kind: RegressorKind, target: TargetMetric) -> Self {
        Self {
            encoders: EncoderChoice::AF,
            regressor: kind,
            target,
            model: ModelConfig::fast(),
            train: TrainConfig::fast(),
            hinge_weight: 0.0,
        }
    }
}

/// Quality of a fitted predictor on its validation split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorReport {
    /// Root mean squared error in the target's natural units.
    pub rmse: f64,
    /// Kendall τ ranking correlation.
    pub kendall_tau: f64,
}

enum PredictorInner {
    Neural {
        params: Params,
        encoder: EncoderSet,
        head: Mlp,
    },
    Boosted(Gbdt),
}

impl fmt::Debug for PredictorInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorInner::Neural { .. } => f.write_str("Neural"),
            PredictorInner::Boosted(_) => f.write_str("Boosted"),
        }
    }
}

/// A fitted single-objective predictor.
#[derive(Debug)]
pub struct Predictor {
    inner: PredictorInner,
    cache: EncodingCache,
    target: TargetMetric,
    scale: f64,
}

impl Predictor {
    /// Fits a predictor on `data` and reports validation quality.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on empty data or model failures.
    pub fn fit(
        data: &SurrogateDataset,
        config: &PredictorConfig,
    ) -> Result<(Self, PredictorReport)> {
        let space = data.samples()[0].arch.space();
        let mixed = data.samples().iter().any(|s| s.arch.space() != space);
        let cache = if mixed {
            EncodingCache::for_mixed(data.dataset())
        } else {
            EncodingCache::for_space(space, data.dataset())
        };
        let (train, val) = data.split(0.2, config.train.seed)?;
        let scale = match config.target {
            TargetMetric::Accuracy => 100.0,
            TargetMetric::Latency => data.max_latency().max(1e-9),
        };
        let target_of = |s: &crate::data::ArchSample| match config.target {
            TargetMetric::Accuracy => s.accuracy,
            TargetMetric::Latency => s.latency_ms,
        };
        let mut predictor = match config.regressor {
            RegressorKind::Mlp => Self::fit_neural(&cache, &train, config, scale, &target_of)?,
            kind => Self::fit_boosted(&cache, &train, config, kind, scale, &target_of)?,
        };
        predictor.target = config.target;
        let report = predictor.evaluate(&val)?;
        Ok((predictor, report))
    }

    fn fit_neural(
        cache: &EncodingCache,
        train: &SurrogateDataset,
        config: &PredictorConfig,
        scale: f64,
        target_of: &dyn Fn(&crate::data::ArchSample) -> f64,
    ) -> Result<Self> {
        let train_archs: Vec<Architecture> =
            train.samples().iter().map(|s| s.arch.clone()).collect();
        let mut params = Params::new();
        let encoder = EncoderSet::new(
            &mut params,
            "enc",
            &config.model,
            config.encoders,
            cache,
            &train_archs,
        )?;
        let head = Mlp::new(
            &mut params,
            "head",
            &MlpConfig {
                input_dim: encoder.output_dim(),
                hidden: config.model.mlp_hidden.clone(),
                output_dim: 1,
                activation: Default::default(),
                dropout: config.model.dropout,
                seed: config.model.seed.wrapping_add(7),
            },
        )?;
        let mut optimizer =
            AdamW::new(config.train.learning_rate).with_weight_decay(config.train.weight_decay);
        let schedule = CosineAnnealing::new(
            config.train.learning_rate,
            config.train.learning_rate * 0.01,
            config.train.epochs,
        );
        let mut stopper = EarlyStopping::new(config.train.early_stop_patience);
        let mut rng = LayerRng::seed_from_u64(config.train.seed);
        let samples = train.samples();
        for epoch in 0..config.train.epochs {
            optimizer.set_learning_rate(schedule.learning_rate_at(epoch));
            let batches = shuffled_batches(
                samples.len(),
                config.train.batch_size,
                config.train.seed.wrapping_add(epoch as u64),
            );
            let mut epoch_loss = 0.0f32;
            for batch in &batches {
                if batch.len() < 2 {
                    continue;
                }
                let archs: Vec<Architecture> =
                    batch.iter().map(|&i| samples[i].arch.clone()).collect();
                let targets: Vec<f32> = batch
                    .iter()
                    .map(|&i| (target_of(&samples[i]) / scale) as f32)
                    .collect();
                let target_col = Matrix::col_vector(&targets);
                // ranking pairs: adjacent in sorted-target order, higher first
                let mut order: Vec<usize> = (0..batch.len()).collect();
                order.sort_by(|&a, &b| targets[b].total_cmp(&targets[a]));
                let pairs: Vec<(usize, usize)> = order
                    .windows(2)
                    .filter(|w| targets[w[0]] > targets[w[1]])
                    .map(|w| (w[0], w[1]))
                    .collect();
                let mut tape = Tape::new();
                let mut binder = Binder::for_training(&mut tape, &params);
                let repr = encoder.forward(&mut binder, cache, &archs)?;
                let pred = head.forward(&mut binder, repr, &mut rng)?;
                let tape_ref = binder.tape();
                let mse = tape_ref.mse_loss(pred, &target_col)?;
                let loss = if config.hinge_weight > 0.0 && !pairs.is_empty() {
                    let hinge = tape_ref.pairwise_hinge(pred, &pairs, 0.1)?;
                    let hinge = tape_ref.scale(hinge, config.hinge_weight);
                    tape_ref.add(mse, hinge)?
                } else {
                    mse
                };
                epoch_loss += tape_ref.value(loss)[(0, 0)];
                let grads = binder.finish(loss)?;
                optimizer.step(&mut params, &grads);
            }
            if stopper.update(epoch_loss / batches.len().max(1) as f32) {
                break;
            }
        }
        Ok(Self {
            inner: PredictorInner::Neural {
                params,
                encoder,
                head,
            },
            cache: clone_cache(cache),
            target: TargetMetric::Accuracy, // overwritten by caller
            scale,
        })
    }

    fn fit_boosted(
        cache: &EncodingCache,
        train: &SurrogateDataset,
        config: &PredictorConfig,
        kind: RegressorKind,
        scale: f64,
        target_of: &dyn Fn(&crate::data::ArchSample) -> f64,
    ) -> Result<Self> {
        let rows = train
            .samples()
            .iter()
            .map(|s| tree_features(cache, &s.arch))
            .collect::<Result<Vec<_>>>()?;
        let targets: Vec<f32> = train
            .samples()
            .iter()
            .map(|s| (target_of(s) / scale) as f32)
            .collect();
        let gbdt_config = match kind {
            RegressorKind::XgBoost => GbdtConfig::xgboost_preset(config.train.seed),
            RegressorKind::LgBoost => GbdtConfig::lgboost_preset(config.train.seed),
            RegressorKind::Mlp => unreachable!("neural head handled separately"),
        };
        let model = Gbdt::fit(&rows, &targets, &gbdt_config)?;
        Ok(Self {
            inner: PredictorInner::Boosted(model),
            cache: clone_cache(cache),
            target: TargetMetric::Accuracy, // overwritten by caller
            scale,
        })
    }

    /// The regression target.
    pub fn target(&self) -> TargetMetric {
        self.target
    }

    /// Predicts the target metric (natural units) for each architecture.
    ///
    /// # Errors
    ///
    /// Propagates model failures, and rejects an architecture from another
    /// search space than the predictor was trained on.
    pub fn predict(&self, archs: &[Architecture]) -> Result<Vec<f64>> {
        match &self.inner {
            PredictorInner::Neural {
                params,
                encoder,
                head,
            } => {
                let mut rng = LayerRng::seed_from_u64(0);
                let mut out = Vec::with_capacity(archs.len());
                for chunk in archs.chunks(crate::model::INFER_BATCH) {
                    let mut tape = Tape::new();
                    let mut binder = Binder::new(&mut tape, params);
                    let repr = encoder.forward(&mut binder, &self.cache, chunk)?;
                    let pred = head.forward(&mut binder, repr, &mut rng)?;
                    out.extend(
                        tape.value(pred)
                            .as_slice()
                            .iter()
                            .map(|&v| v as f64 * self.scale),
                    );
                }
                Ok(out)
            }
            PredictorInner::Boosted(model) => archs
                .iter()
                .map(|a| Ok(model.predict(&tree_features(&self.cache, a)?) as f64 * self.scale))
                .collect(),
        }
    }

    /// Evaluates RMSE and Kendall τ against the true targets in `data`.
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    pub fn evaluate(&self, data: &SurrogateDataset) -> Result<PredictorReport> {
        let archs: Vec<Architecture> = data.samples().iter().map(|s| s.arch.clone()).collect();
        let preds: Vec<f32> = self
            .predict(&archs)?
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let truth: Vec<f32> = data
            .samples()
            .iter()
            .map(|s| match self.target {
                TargetMetric::Accuracy => s.accuracy as f32,
                TargetMetric::Latency => s.latency_ms as f32,
            })
            .collect();
        Ok(PredictorReport {
            rmse: hwpr_metrics::rmse(&preds, &truth).unwrap_or(f64::NAN),
            kendall_tau: hwpr_metrics::kendall_tau(&preds, &truth).unwrap_or(0.0),
        })
    }
}

/// Tree-model features: raw AF concatenated with one-hot op-position
/// indicators (the paper passes the architecture encoding through a dense
/// layer and concatenates AF; for trees the one-hot encoding is the
/// equivalent raw form).
fn tree_features(cache: &EncodingCache, arch: &Architecture) -> Result<Vec<f32>> {
    let enc = cache.encoding(arch)?;
    let mut row = enc.af.clone();
    for &token in &enc.tokens {
        let mut onehot = [0.0f32; tokens::VOCAB_SIZE];
        onehot[token] = 1.0;
        row.extend_from_slice(&onehot);
    }
    Ok(row)
}

/// The caches are configured identically; building a fresh one lets the
/// predictor own its memoisation without sharing locks with the trainer.
fn clone_cache(cache: &EncodingCache) -> EncodingCache {
    EncodingCache::new(cache.dataset(), cache.nodes(), cache.seq_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
    use hwpr_nasbench::{Dataset, SearchSpaceId};

    fn data(n: usize) -> SurrogateDataset {
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(n),
            seed: 9,
        });
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap()
    }

    #[test]
    fn boosted_latency_predictor_ranks_well() {
        let d = data(300);
        let (p, report) = Predictor::fit(
            &d,
            &PredictorConfig::boosted(RegressorKind::XgBoost, TargetMetric::Latency),
        )
        .unwrap();
        assert_eq!(p.target(), TargetMetric::Latency);
        assert!(report.kendall_tau > 0.6, "tau {}", report.kendall_tau);
        assert!(report.rmse.is_finite());
    }

    #[test]
    fn lgboost_accuracy_predictor_learns() {
        let d = data(300);
        let (_, report) = Predictor::fit(
            &d,
            &PredictorConfig::boosted(RegressorKind::LgBoost, TargetMetric::Accuracy),
        )
        .unwrap();
        assert!(report.kendall_tau > 0.4, "tau {}", report.kendall_tau);
    }

    #[test]
    fn mlp_af_predictor_learns_latency() {
        let d = data(200);
        let mut cfg = PredictorConfig::mlp(EncoderChoice::AF, TargetMetric::Latency);
        cfg.model = ModelConfig::tiny();
        cfg.train = TrainConfig::tiny();
        cfg.train.epochs = 15;
        let (p, report) = Predictor::fit(&d, &cfg).unwrap();
        assert!(report.kendall_tau > 0.3, "tau {}", report.kendall_tau);
        let preds = p.predict(&[d.samples()[0].arch.clone()]).unwrap();
        assert_eq!(preds.len(), 1);
        assert!(preds[0].is_finite());
    }

    #[test]
    fn predictions_are_deterministic() {
        let d = data(64);
        let mut cfg = PredictorConfig::mlp(EncoderChoice::GCN, TargetMetric::Accuracy);
        cfg.model = ModelConfig::tiny();
        cfg.train = TrainConfig::tiny();
        let (p, _) = Predictor::fit(&d, &cfg).unwrap();
        let archs: Vec<Architecture> = d.samples().iter().take(4).map(|s| s.arch.clone()).collect();
        assert_eq!(p.predict(&archs).unwrap(), p.predict(&archs).unwrap());
    }

    #[test]
    fn tree_features_have_fixed_dim() {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let a = Architecture::nb201_from_index(5).unwrap();
        let f = tree_features(&cache, &a).unwrap();
        assert_eq!(
            f.len(),
            hwpr_nasbench::features::ARCH_FEATURE_DIM + 6 * tokens::VOCAB_SIZE
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(TargetMetric::Accuracy.to_string(), "accuracy");
        assert_eq!(RegressorKind::XgBoost.to_string(), "XGBoost");
        assert_eq!(RegressorKind::LgBoost.to_string(), "LGBoost");
        assert_eq!(RegressorKind::Mlp.to_string(), "MLP");
    }
}
