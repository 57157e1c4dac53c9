//! The scalable ≥3-objective variant of HW-PR-NAS (§III-F, Fig. 5).
//!
//! All three encodings (AF ++ GNN ++ LSTM) are concatenated and a single
//! MLP predicts the Pareto score directly, without per-objective branch
//! predictions. Adding a new objective (e.g. energy) only requires
//! fine-tuning the MLP for five epochs with the encoders frozen.

use crate::config::{ModelConfig, TrainConfig};
use crate::data::{EncodingCache, SurrogateDataset};
use crate::encoders::{gather_leaf, EncoderChoice, EncoderSet};
use crate::model::INFER_BATCH;
use crate::Result;
use hwpr_autograd::Tape;
use hwpr_moo::MooWorkspace;
use hwpr_nasbench::Architecture;
use hwpr_nn::batch::shuffled_batches;
use hwpr_nn::layers::{LayerRng, Mlp, MlpConfig};
use hwpr_nn::optim::{AdamW, CosineAnnealing, Optimizer};
use hwpr_nn::{Binder, Params};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;

/// The scalable HW-PR-NAS: concatenated encoders + a single score MLP.
#[derive(Debug)]
pub struct ScalableHwPrNas {
    params: Params,
    encoder: EncoderSet,
    head: Mlp,
    cache: EncodingCache,
    objectives: usize,
}

impl ScalableHwPrNas {
    /// Trains the scalable model on two objectives (error, latency).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on data or training failures.
    pub fn fit(
        data: &SurrogateDataset,
        model_config: &ModelConfig,
        train_config: &TrainConfig,
    ) -> Result<Self> {
        let space = data.samples()[0].arch.space();
        let cache = EncodingCache::for_space(space, data.dataset());
        let train_archs: Vec<Architecture> =
            data.samples().iter().map(|s| s.arch.clone()).collect();
        let mut params = Params::new();
        let encoder = EncoderSet::new(
            &mut params,
            "enc",
            model_config,
            EncoderChoice::ALL,
            &cache,
            &train_archs,
        )?;
        let head = Mlp::new(
            &mut params,
            "score_head",
            &MlpConfig {
                input_dim: encoder.output_dim(),
                hidden: model_config.mlp_hidden.clone(),
                output_dim: 1,
                activation: Default::default(),
                dropout: model_config.dropout,
                seed: model_config.seed.wrapping_add(77),
            },
        )?;
        let mut model = Self {
            params,
            encoder,
            head,
            cache,
            objectives: 2,
        };
        let objectives: Vec<Vec<f64>> = data.samples().iter().map(|s| s.objectives()).collect();
        model.train_ranking(data, &objectives, train_config, false)?;
        Ok(model)
    }

    /// Extends the model to three objectives (error, latency, energy) by
    /// fine-tuning **only the MLP head** for `epochs` epochs (the paper
    /// uses five) with frozen encoders.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on data or training failures.
    pub fn extend_to_three_objectives(
        &mut self,
        data: &SurrogateDataset,
        epochs: usize,
        seed: u64,
    ) -> Result<()> {
        let objectives: Vec<Vec<f64>> = data.samples().iter().map(|s| s.objectives3()).collect();
        let mut config = TrainConfig::fast();
        config.epochs = epochs;
        config.seed = seed;
        self.train_ranking(data, &objectives, &config, true)?;
        self.objectives = 3;
        Ok(())
    }

    /// Number of objectives the model currently ranks by.
    pub fn objectives(&self) -> usize {
        self.objectives
    }

    /// Pareto scores (higher = more dominant).
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn predict_scores(&self, archs: &[Architecture]) -> Result<Vec<f64>> {
        let mut rng = LayerRng::seed_from_u64(0);
        let mut out = Vec::with_capacity(archs.len());
        for chunk in archs.chunks(INFER_BATCH) {
            let mut tape = Tape::new();
            let mut binder = Binder::new(&mut tape, &self.params);
            let repr = self.encoder.forward(&mut binder, &self.cache, chunk)?;
            let score = self.head.forward(&mut binder, repr, &mut rng)?;
            out.extend(tape.value(score).as_slice().iter().map(|&v| v as f64));
        }
        Ok(out)
    }

    /// Listwise ranking training over arbitrary objective vectors. When
    /// `freeze_encoders` is set only the head moves: the encoders run once
    /// over `data`, and every step trains the head on its batch's cached
    /// rows, so no encoder parameter is bound or gets a gradient.
    fn train_ranking(
        &mut self,
        data: &SurrogateDataset,
        objectives: &[Vec<f64>],
        config: &TrainConfig,
        freeze_encoders: bool,
    ) -> Result<()> {
        let samples = data.samples();
        let mut optimizer = AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
        let schedule = CosineAnnealing::new(
            config.learning_rate,
            config.learning_rate * 0.01,
            config.epochs,
        );
        let mut rng = LayerRng::seed_from_u64(config.seed);
        // reused across every batch's Pareto ranking
        let mut moo = MooWorkspace::new();
        // one tape, recycled by every step
        let mut tape = Tape::new();
        let rows = if freeze_encoders {
            let archs: Vec<Architecture> = samples.iter().map(|s| s.arch.clone()).collect();
            let rows = self.encoder.encode_rows(
                &mut tape,
                &self.params,
                &self.cache,
                &archs,
                INFER_BATCH,
            )?;
            Some(rows)
        } else {
            None
        };
        for epoch in 0..config.epochs {
            optimizer.set_learning_rate(schedule.learning_rate_at(epoch));
            let batches = shuffled_batches(
                samples.len(),
                config.batch_size,
                config.seed.wrapping_add(epoch as u64),
            );
            for batch in &batches {
                if batch.len() < 2 {
                    continue;
                }
                let batch_objs: Vec<Vec<f64>> =
                    batch.iter().map(|&i| objectives[i].clone()).collect();
                let ranks = moo.pareto_ranks(&batch_objs)?;
                let mut order: Vec<usize> = (0..batch.len()).collect();
                order.shuffle(&mut rng);
                order.sort_by_key(|&i| ranks[i]);
                tape.reset();
                let mut binder = Binder::for_training(&mut tape, &self.params);
                let repr = match &rows {
                    Some(rows) => gather_leaf(&mut binder, rows, batch),
                    None => {
                        let archs: Vec<Architecture> =
                            batch.iter().map(|&i| samples[i].arch.clone()).collect();
                        self.encoder.forward(&mut binder, &self.cache, &archs)?
                    }
                };
                let score = self.head.forward(&mut binder, repr, &mut rng)?;
                let tape_ref = binder.tape();
                let loss = tape_ref.list_mle(score, &order)?;
                let loss = tape_ref.scale(loss, 1.0 / batch.len() as f32);
                let grads = binder.finish(loss)?;
                optimizer.step(&mut self.params, &grads);
            }
        }
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn encoder_snapshot(&self) -> Vec<hwpr_tensor::Matrix> {
        self.params
            .iter()
            .filter(|(_, name, _)| name.starts_with("enc."))
            .map(|(_, _, value)| value.clone())
            .collect()
    }
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
            seed: 6,
        });
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap()
    }

    #[test]
    fn fit_and_score() {
        let d = data(48);
        let model = ScalableHwPrNas::fit(&d, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        assert_eq!(model.objectives(), 2);
        let archs: Vec<Architecture> = d.samples().iter().take(5).map(|s| s.arch.clone()).collect();
        let scores = model.predict_scores(&archs).unwrap();
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn fine_tune_freezes_encoders() {
        let d = data(48);
        let mut model =
            ScalableHwPrNas::fit(&d, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let before = model.encoder_snapshot();
        assert!(!before.is_empty());
        model.extend_to_three_objectives(&d, 2, 0).unwrap();
        let after = model.encoder_snapshot();
        assert_eq!(before, after, "encoder parameters moved during fine-tune");
        assert_eq!(model.objectives(), 3);
        // scores still computable
        let archs = vec![d.samples()[0].arch.clone()];
        assert!(model.predict_scores(&archs).is_ok());
    }
}
