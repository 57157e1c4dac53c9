//! The Pareto ranking training loop (§III-A, Table II).
//!
//! A step runs on two cores. The accuracy branch (GCN+AF encoder) and the
//! latency branch (LSTM+AF encoder) share nothing until the fusion layer
//! (Fig. 3), so `HwPrNas::forward` records each encoder on its own tape,
//! the accuracy encoder on a scoped worker thread and the latency encoder
//! on the calling thread. The heads, the fusion layer and the losses
//! record on a main tape, where each encoder's output enters as a leaf.
//! The joint step back-propagates the main tape, then both encoder tapes
//! concurrently, each seeded with the gradient at its leaf and writing its
//! own range of the one gradient buffer. The gradients are bit-identical
//! to one tape's: a branch output has a single consumer (its head), so the
//! leaf receives exactly the gradient the output would have, and nothing
//! inside a branch is reordered.
//!
//! The fusion fine-tune (§IV-A) trains only the fusion layer, so the
//! encoders no longer move once joint training ends. The loop then runs
//! both encoders once over the training split (`HwPrNas::encoder_rows`),
//! and every fine-tune step gathers its batch's rows into leaves of the
//! main tape, runs only the heads half of the pass and back-propagates
//! only the main tape, on the calling thread. A row does not depend on the
//! batch it was encoded in, so the step sees the bits a full forward would
//! give it.
//!
//! Validation scores the held-out split once per epoch on the fit's own
//! tapes, whose pooled buffers are warm by then; the split's architectures
//! and true Pareto ranks are staged once per fit.

use crate::config::{ModelConfig, TrainConfig};
use crate::data::{ArchSample, EncodingCache, SurrogateDataset};
use crate::model::{BranchOutputs, EncoderRows, HwPrNas, PassTapes};
use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_hwmodel::{BenchEntry, Platform};
use hwpr_moo::MooWorkspace;
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_nn::batch::shuffled_batches;
use hwpr_nn::layers::LayerRng;
use hwpr_nn::optim::{AdamW, CosineAnnealing, EarlyStopping, Optimizer};
use hwpr_nn::Params;
use hwpr_tensor::Matrix;
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of epochs actually run (≤ configured epochs).
    pub epochs_run: usize,
    /// The best validation Kendall τ seen while training: the maximum,
    /// over every epoch and the end of the fusion fine-tune, of the τ
    /// between predicted scores and (negated) true Pareto ranks on the
    /// validation split. The returned model is the last one trained, not
    /// the best, so its own τ can be lower. [`HwPrNas::fit_multi`]
    /// reports the last platform round's maximum.
    pub val_rank_tau: f64,
    /// The validation Kendall τ of the returned model: the loop's last
    /// validation, taken after its last parameter update.
    pub final_val_rank_tau: f64,
    /// Final training loss (rank + RMSE terms).
    pub final_loss: f64,
}

/// Adds the within-front score-variance penalty: for every rank group of
/// two or more members, the variance of their scores (flat scores within
/// a front make top-k selection cover the whole front).
fn tie_variance_loss(
    tape_ref: &mut Tape,
    score: Var,
    ranks: &[usize],
    group: &mut Vec<usize>,
) -> Result<Option<Var>> {
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    let mut terms: Option<Var> = None;
    for rank in 0..=max_rank {
        group.clear();
        group.extend((0..ranks.len()).filter(|&i| ranks[i] == rank));
        if group.len() < 2 {
            continue;
        }
        let s = tape_ref
            .gather_rows(score, group)
            .map_err(hwpr_nn::NnError::from)?;
        let sq = tape_ref.mul(s, s).map_err(hwpr_nn::NnError::from)?;
        let mean_sq = tape_ref.mean_all(sq);
        let mean = tape_ref.mean_all(s);
        let mean2 = tape_ref.mul(mean, mean).map_err(hwpr_nn::NnError::from)?;
        let var = tape_ref
            .sub(mean_sq, mean2)
            .map_err(hwpr_nn::NnError::from)?;
        terms = Some(match terms {
            None => var,
            Some(acc) => tape_ref.add(acc, var).map_err(hwpr_nn::NnError::from)?,
        });
    }
    Ok(terms)
}

/// Sorts batch-local indices best-rank-first into `order`, shuffling ties
/// so the listwise loss sees a valid (and unbiased) permutation. Reuses
/// the caller's buffer so steady-state batches allocate nothing.
fn rank_order_into(ranks: &[usize], rng: &mut LayerRng, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..ranks.len());
    order.shuffle(rng);
    // ties arrive pre-shuffled, so the (in-place) unstable sort still
    // yields a random within-rank order
    order.sort_unstable_by_key(|&i| ranks[i]);
}

/// Allocating convenience wrapper around [`rank_order_into`].
#[cfg(test)]
fn rank_order(ranks: &[usize], rng: &mut LayerRng) -> Vec<usize> {
    let mut order = Vec::new();
    rank_order_into(ranks, rng, &mut order);
    order
}

impl HwPrNas {
    /// Trains a single-platform model on `data` with the Pareto ranking
    /// loss plus per-branch RMSE (§III-A).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on empty data or layer failures.
    pub fn fit(
        data: &SurrogateDataset,
        model_config: &ModelConfig,
        train_config: &TrainConfig,
    ) -> Result<(Self, TrainReport)> {
        let space = data.samples()[0].arch.space();
        let mixed = data.samples().iter().any(|s| s.arch.space() != space);
        let cache = if mixed {
            EncodingCache::for_mixed(data.dataset())
        } else {
            EncodingCache::for_space(space, data.dataset())
        };
        let (train, val) = data.split(0.2, train_config.seed)?;
        let train_archs: Vec<Architecture> =
            train.samples().iter().map(|s| s.arch.clone()).collect();
        let mut model = Self::build(
            Params::new(),
            model_config,
            cache,
            &train_archs,
            vec![data.platform()],
            vec![data.max_latency().max(1e-9)],
            data.dataset(),
        )?;
        let report = train_loop(&mut model, &train, &val, train_config)?;
        Ok((model, report))
    }

    /// Trains a multi-platform model: one shared LSTM encoder with a bank
    /// of per-platform latency heads (§III-E). Latency targets come from
    /// the benchmark rows for every requested platform.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] on empty data or layer failures.
    pub fn fit_multi(
        entries: &[BenchEntry],
        dataset: Dataset,
        platforms: &[Platform],
        model_config: &ModelConfig,
        train_config: &TrainConfig,
    ) -> Result<(Self, TrainReport)> {
        if entries.is_empty() || platforms.is_empty() {
            return Err(crate::CoreError::Data(
                "multi-platform training needs entries and platforms".into(),
            ));
        }
        // train round-robin: each platform gets its own dataset view and
        // the shared encoders see every batch
        let space = entries[0].arch().space();
        let mixed = entries.iter().any(|e| e.arch().space() != space);
        let cache = if mixed {
            EncodingCache::for_mixed(dataset)
        } else {
            EncodingCache::for_space(space, dataset)
        };
        let per_platform: Vec<SurrogateDataset> = platforms
            .iter()
            .map(|&p| SurrogateDataset::from_entries(entries, dataset, p))
            .collect::<Result<_>>()?;
        let train_archs: Vec<Architecture> = entries.iter().map(|e| e.arch().clone()).collect();
        let max_latency: Vec<f64> = per_platform
            .iter()
            .map(|d| d.max_latency().max(1e-9))
            .collect();
        let mut model = Self::build(
            Params::new(),
            model_config,
            cache,
            &train_archs,
            platforms.to_vec(),
            max_latency,
            dataset,
        )?;
        // rotate the trained platform each epoch; validation tracks the
        // first platform for early stopping
        let mut report = TrainReport {
            epochs_run: 0,
            val_rank_tau: 0.0,
            final_val_rank_tau: 0.0,
            final_loss: f64::INFINITY,
        };
        for (round, ds) in per_platform
            .iter()
            .cycle()
            .take(platforms.len())
            .enumerate()
        {
            let mut cfg = train_config.clone();
            cfg.epochs = (train_config.epochs / platforms.len()).max(1);
            cfg.seed = train_config.seed.wrapping_add(round as u64);
            let (train, val) = ds.split(0.2, cfg.seed)?;
            let r = train_loop(&mut model, &train, &val, &cfg)?;
            report.epochs_run += r.epochs_run;
            report.val_rank_tau = r.val_rank_tau;
            report.final_val_rank_tau = r.final_val_rank_tau;
            report.final_loss = r.final_loss;
        }
        Ok((model, report))
    }
}

/// One batch staged for a step, in buffers reused across batches: in
/// steady state (fixed batch size) staging allocates nothing.
#[derive(Debug, Default)]
struct Batch {
    /// The platform slot whose latency head the batch trains.
    slot: usize,
    /// The batch's rows of the training split.
    indices: Vec<usize>,
    archs: Vec<Architecture>,
    /// Global Pareto ranks of the batch's rows.
    ranks: Vec<usize>,
    /// Batch positions best rank first, ties shuffled: the listwise target.
    order: Vec<usize>,
    /// Accuracy targets, normalised to `[0, 1]`.
    acc_targets: Vec<f32>,
    /// Latency targets, relative to the training set's maximum.
    lat_targets: Vec<f32>,
    /// Scratch for the tie regulariser's rank groups.
    group: Vec<usize>,
}

impl Batch {
    /// Stages rows `indices` of `samples`; draws the within-rank shuffle
    /// of the listwise order from `rng`.
    fn stage(
        &mut self,
        samples: &[ArchSample],
        indices: &[usize],
        global_ranks: &[usize],
        max_latency: f64,
        rng: &mut LayerRng,
    ) {
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.archs.clear();
        self.archs
            .extend(indices.iter().map(|&i| samples[i].arch.clone()));
        self.ranks.clear();
        self.ranks.extend(indices.iter().map(|&i| global_ranks[i]));
        rank_order_into(&self.ranks, rng, &mut self.order);
        self.acc_targets.clear();
        self.acc_targets.extend(
            indices
                .iter()
                .map(|&i| (samples[i].accuracy / 100.0) as f32),
        );
        self.lat_targets.clear();
        self.lat_targets.extend(
            indices
                .iter()
                .map(|&i| (samples[i].latency_ms / max_latency) as f32),
        );
    }

    fn len(&self) -> usize {
        self.archs.len()
    }
}

/// The listwise ranking loss: ListMLE over the batch's rank order,
/// scaled by `weight / batch size` so batches of different sizes weigh
/// equally, plus the tie regulariser.
fn ranking_loss(
    tape: &mut Tape,
    score: Var,
    batch: &mut Batch,
    weight: f32,
    config: &TrainConfig,
) -> Result<Var> {
    let loss = tape.list_mle(score, &batch.order)?;
    let mut loss = tape.scale(loss, weight / batch.len() as f32);
    if config.tie_regularizer_weight > 0.0 {
        if let Some(var) = tie_variance_loss(tape, score, &batch.ranks, &mut batch.group)? {
            let var = tape.scale(var, config.tie_regularizer_weight);
            loss = tape.add(loss, var)?;
        }
    }
    Ok(loss)
}

/// The joint loss of §III-A: the ranking loss plus the RMSE of each
/// branch against its target.
fn joint_loss(
    tape: &mut Tape,
    out: &BranchOutputs,
    batch: &mut Batch,
    config: &TrainConfig,
) -> Result<Var> {
    let rank_loss = ranking_loss(tape, out.score, batch, config.rank_loss_weight, config)?;
    // regression targets live in pooled tape storage, recycled below
    let mut acc_targets = tape.alloc(batch.len(), 1);
    acc_targets
        .as_mut_slice()
        .copy_from_slice(&batch.acc_targets);
    let mut lat_targets = tape.alloc(batch.len(), 1);
    lat_targets
        .as_mut_slice()
        .copy_from_slice(&batch.lat_targets);
    let acc_mse = tape.mse_loss(out.accuracy, &acc_targets)?;
    let acc_rmse = tape.sqrt(acc_mse, 1e-9);
    let lat_mse = tape.mse_loss(out.latency, &lat_targets)?;
    let lat_rmse = tape.sqrt(lat_mse, 1e-9);
    tape.recycle(acc_targets);
    tape.recycle(lat_targets);
    let rmse_sum = tape.add(acc_rmse, lat_rmse)?;
    let rmse_term = tape.scale(rmse_sum, config.rmse_loss_weight);
    Ok(tape.add(rank_loss, rmse_term)?)
}

/// One joint step's forward and backward: every parameter's gradient
/// into `grads`; returns the loss.
fn joint_step(
    model: &HwPrNas,
    tapes: &mut PassTapes,
    batch: &mut Batch,
    config: &TrainConfig,
    rng: &mut LayerRng,
    grads: &mut Vec<Option<Matrix>>,
) -> Result<f32> {
    let mut pass = model.forward(tapes, &batch.archs, batch.slot, rng, true)?;
    let heads = &mut pass.heads;
    let out = heads.out;
    let loss = joint_loss(heads.tape(), &out, batch, config)?;
    let value = heads.tape().value(loss)[(0, 0)];
    pass.backward(loss, grads)?;
    Ok(value)
}

/// One fusion fine-tune step (§IV-A) on encoder rows cached over the
/// training split: the heads half alone, the ranking loss alone, and only
/// the fusion layer's gradients written (every other slot `None`).
fn fusion_step(
    model: &HwPrNas,
    tapes: &mut PassTapes,
    rows: &EncoderRows,
    batch: &mut Batch,
    config: &TrainConfig,
    rng: &mut LayerRng,
    grads: &mut Vec<Option<Matrix>>,
) -> Result<()> {
    let mut pass = model.forward_cached(tapes, rows, &batch.indices, batch.slot, rng)?;
    let score = pass.out.score;
    let loss = ranking_loss(pass.tape(), score, batch, 1.0, config)?;
    pass.backward_fusion(loss, grads)
}

/// Runs the epoch loop for whichever platform `train` targets.
fn train_loop(
    model: &mut HwPrNas,
    train: &SurrogateDataset,
    val: &SurrogateDataset,
    config: &TrainConfig,
) -> Result<TrainReport> {
    let slot = model.platform_slot(train.platform())?;
    let max_lat = model.max_latency[slot];
    let mut optimizer = AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
    let schedule = CosineAnnealing::new(
        config.learning_rate,
        config.learning_rate * 0.01,
        config.epochs,
    );
    let mut stopper = EarlyStopping::new(config.early_stop_patience);
    let mut rng = LayerRng::seed_from_u64(config.seed);
    let samples = train.samples();
    // §III-A: Pareto ranks are computed over the whole training set
    // *before* batching; each batch is ordered by these global ranks
    let global_objectives: Vec<Vec<f64>> = samples.iter().map(|s| s.objectives()).collect();
    let mut moo = MooWorkspace::new();
    let global_ranks = moo.pareto_ranks(&global_objectives)?.to_vec();
    let validation = Validation::new(val, &mut moo)?;
    let mut final_loss = f64::INFINITY;
    let mut epochs_run = 0;
    let mut best_tau = -1.0f64;
    let mut last_tau = -1.0f64;
    // training arena: the pass's tapes, the gradient buffer and the batch
    // staging buffers, allocated once and reused every batch (and the
    // tapes by every validation pass)
    let mut tapes = PassTapes::default();
    let mut grads: Vec<Option<Matrix>> = Vec::new();
    let mut batch = Batch {
        slot,
        ..Batch::default()
    };
    let _train_span = hwpr_obs::span("train.loop");
    for epoch in 0..config.epochs {
        let epoch_started = hwpr_obs::enabled().then(std::time::Instant::now);
        let learning_rate = schedule.learning_rate_at(epoch);
        optimizer.set_learning_rate(learning_rate);
        let batches = shuffled_batches(
            samples.len(),
            config.batch_size,
            config.seed.wrapping_add(epoch as u64),
        );
        let mut epoch_loss = 0.0f64;
        for indices in &batches {
            if indices.len() < 2 {
                continue;
            }
            batch.stage(samples, indices, &global_ranks, max_lat, &mut rng);
            let loss = joint_step(model, &mut tapes, &mut batch, config, &mut rng, &mut grads)?;
            epoch_loss += loss as f64;
            optimizer.step(&mut model.params, &grads);
        }
        epochs_run = epoch + 1;
        final_loss = epoch_loss / batches.len().max(1) as f64;
        // validation: how well do predicted scores rank the true fronts?
        let rank = validation.rank(model, &mut tapes, slot)?;
        last_tau = rank.kendall_tau;
        best_tau = best_tau.max(last_tau);
        if let Some(start) = epoch_started {
            let epoch_ms = start.elapsed().as_secs_f64() * 1e3;
            hwpr_obs::record_with("train.epoch", || {
                vec![
                    hwpr_obs::field("epoch", epoch as u64),
                    hwpr_obs::field("loss", final_loss),
                    hwpr_obs::field("lr", learning_rate as f64),
                    hwpr_obs::field("kendall_tau", rank.kendall_tau),
                    hwpr_obs::field("spearman", rank.spearman),
                    hwpr_obs::field("epoch_ms", epoch_ms),
                ]
            });
        }
        if stopper.update(1.0 - rank.kendall_tau as f32) {
            break;
        }
    }
    // §IV-A: retrain the fusion layer alone (frozen branches) with only
    // the ranking loss for an optimal final Pareto ordering. The encoders
    // are frozen from here on, so they run once over the training split.
    if config.fusion_finetune_epochs > 0 {
        let archs: Vec<Architecture> = samples.iter().map(|s| s.arch.clone()).collect();
        let rows = model.encoder_rows(&mut tapes, &archs)?;
        let mut fusion_opt =
            AdamW::new(config.learning_rate).with_weight_decay(config.weight_decay);
        for epoch in 0..config.fusion_finetune_epochs {
            let batches = shuffled_batches(
                samples.len(),
                config.batch_size,
                config.seed.wrapping_add(10_000 + epoch as u64),
            );
            for indices in &batches {
                if indices.len() < 2 {
                    continue;
                }
                batch.stage(samples, indices, &global_ranks, max_lat, &mut rng);
                fusion_step(
                    model, &mut tapes, &rows, &mut batch, config, &mut rng, &mut grads,
                )?;
                fusion_opt.step(&mut model.params, &grads);
            }
        }
        last_tau = validation.rank(model, &mut tapes, slot)?.kendall_tau;
        best_tau = best_tau.max(last_tau);
    }
    Ok(TrainReport {
        epochs_run,
        val_rank_tau: best_tau,
        final_val_rank_tau: last_tau,
        final_loss,
    })
}

/// Rank agreement between predicted scores and the true Pareto ordering
/// on a validation split.
struct ValidationRank {
    /// Kendall τ against negated true Pareto ranks (the early-stop signal).
    kendall_tau: f64,
    /// Spearman ρ against the same targets (reported in telemetry).
    spearman: f64,
}

/// The validation split, staged once per fit: its architectures and the
/// negated true Pareto ranks their scores are compared against.
struct Validation {
    archs: Vec<Architecture>,
    truth: Vec<f32>,
}

impl Validation {
    fn new(val: &SurrogateDataset, moo: &mut MooWorkspace) -> Result<Self> {
        let objectives: Vec<Vec<f64>> = val.samples().iter().map(|s| s.objectives()).collect();
        let truth = moo
            .pareto_ranks(&objectives)?
            .iter()
            .map(|&r| -(r as f32))
            .collect();
        Ok(Self {
            archs: val.samples().iter().map(|s| s.arch.clone()).collect(),
            truth,
        })
    }

    /// Scores the split on the fit's `tapes` and computes both rank
    /// correlations. The tape path, not the frozen engine: parameters
    /// change every epoch, so compiling (and immediately invalidating) a
    /// frozen engine per validation pass would waste the pack work.
    fn rank(&self, model: &HwPrNas, tapes: &mut PassTapes, slot: usize) -> Result<ValidationRank> {
        let mut scores = Vec::with_capacity(self.archs.len());
        let platform = model.platforms[slot];
        model.tape_into(tapes, &self.archs, platform, Some(&mut scores), None)?;
        let pred: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
        Ok(ValidationRank {
            kendall_tau: hwpr_metrics::kendall_tau(&pred, &self.truth).unwrap_or(0.0),
            spearman: hwpr_metrics::spearman(&pred, &self.truth).unwrap_or(0.0),
        })
    }
}

/// Fraction of NAS-Bench-201 architectures in a list (used in Table IV).
pub fn nb201_fraction(archs: &[Architecture]) -> f64 {
    if archs.is_empty() {
        return 0.0;
    }
    archs
        .iter()
        .filter(|a| a.space() == SearchSpaceId::NasBench201)
        .count() as f64
        / archs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use hwpr_nn::Binder;
    use rand::RngCore;

    fn bench(n: usize) -> SimBench {
        SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(n),
            seed: 5,
        })
    }

    #[test]
    fn rank_order_groups_by_rank() {
        let mut rng = LayerRng::seed_from_u64(0);
        let ranks = vec![2, 0, 1, 0, 2];
        let order = rank_order(&ranks, &mut rng);
        let sorted: Vec<usize> = order.iter().map(|&i| ranks[i]).collect();
        assert_eq!(sorted, vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn training_learns_to_rank() {
        // enough data and epochs that the surrogate clearly beats chance
        let b = bench(160);
        let data =
            SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let mut cfg = TrainConfig::tiny();
        cfg.epochs = 16;
        let (_, report) = HwPrNas::fit(&data, &ModelConfig::tiny(), &cfg).unwrap();
        assert!(
            report.val_rank_tau > 0.2,
            "surrogate failed to learn: tau {}",
            report.val_rank_tau
        );
    }

    #[test]
    fn final_val_rank_tau_is_the_returned_models_tau() {
        let b = bench(64);
        let data =
            SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let mut cfg = TrainConfig::tiny();
        for fusion_finetune_epochs in [0, 2] {
            cfg.fusion_finetune_epochs = fusion_finetune_epochs;
            let (model, report) = HwPrNas::fit(&data, &ModelConfig::tiny(), &cfg).unwrap();
            let (_, val) = data.split(0.2, cfg.seed).unwrap();
            let archs: Vec<Architecture> = val.samples().iter().map(|s| s.arch.clone()).collect();
            let objectives: Vec<Vec<f64>> = val.samples().iter().map(|s| s.objectives()).collect();
            let truth: Vec<f32> = hwpr_moo::pareto_ranks(&objectives)
                .unwrap()
                .iter()
                .map(|&r| -(r as f32))
                .collect();
            let scores: Vec<f32> = model
                .predict_scores_tape(&archs, Platform::EdgeGpu)
                .unwrap()
                .iter()
                .map(|&s| s as f32)
                .collect();
            let tau = hwpr_metrics::kendall_tau(&scores, &truth).unwrap();
            assert_eq!(
                report.final_val_rank_tau.to_bits(),
                tau.to_bits(),
                "fine-tune epochs: {fusion_finetune_epochs}"
            );
            assert!(report.final_val_rank_tau <= report.val_rank_tau);
        }
    }

    /// A model over both search spaces with dropout on, its 48 rows (24
    /// NAS-Bench-201, then 24 FBNet), and one staged batch of `rows` rows
    /// (at most 48) that interleaves the two spaces.
    fn mixed_model_and_batch(rows: usize) -> (HwPrNas, Vec<Architecture>, Batch) {
        let fbnet = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::FBNet,
            sample_size: Some(24),
            seed: 5,
        });
        let mut entries = bench(24).entries().to_vec();
        entries.extend_from_slice(fbnet.entries());
        let data =
            SurrogateDataset::from_entries(&entries, Dataset::Cifar10, Platform::Pixel3).unwrap();
        let mut model_config = ModelConfig::tiny();
        model_config.dropout = 0.25;
        let archs: Vec<Architecture> = data.samples().iter().map(|s| s.arch.clone()).collect();
        let max_latency = data.max_latency();
        let model = HwPrNas::build(
            Params::new(),
            &model_config,
            EncodingCache::for_mixed(Dataset::Cifar10),
            &archs,
            vec![Platform::Pixel3],
            vec![max_latency],
            Dataset::Cifar10,
        )
        .unwrap();
        let objectives: Vec<Vec<f64>> = data.samples().iter().map(|s| s.objectives()).collect();
        let ranks = MooWorkspace::new()
            .pareto_ranks(&objectives)
            .unwrap()
            .to_vec();
        let indices: Vec<usize> = (0..rows / 2).flat_map(|i| [i, 24 + i]).collect();
        let mut batch = Batch::default();
        let mut rng = LayerRng::seed_from_u64(1);
        batch.stage(data.samples(), &indices, &ranks, max_latency, &mut rng);
        (model, archs, batch)
    }

    /// The one-tape oracle: both encoders, heads, fusion and loss on one
    /// tape, as the trainer recorded them before the branches split.
    fn one_tape_step(
        model: &HwPrNas,
        batch: &mut Batch,
        config: &TrainConfig,
        rng: &mut LayerRng,
        fusion_only: bool,
    ) -> (f32, Vec<Option<Matrix>>) {
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &model.params);
        let (archs, cache) = (&batch.archs, &model.cache);
        let acc_repr = model
            .accuracy_encoder
            .forward(&mut binder, cache, archs)
            .unwrap();
        let accuracy = model
            .accuracy_head
            .forward(&mut binder, acc_repr, rng)
            .unwrap();
        let lat_repr = model
            .latency_encoder
            .forward(&mut binder, cache, archs)
            .unwrap();
        let latency = model.latency_heads[0]
            .forward(&mut binder, lat_repr, rng)
            .unwrap();
        let both = binder.tape().concat_cols(&[accuracy, latency]).unwrap();
        let score = model.fusion.forward(&mut binder, both, rng).unwrap();
        let out = BranchOutputs {
            accuracy,
            latency,
            score,
        };
        let loss = if fusion_only {
            ranking_loss(binder.tape(), score, batch, 1.0, config).unwrap()
        } else {
            joint_loss(binder.tape(), &out, batch, config).unwrap()
        };
        let value = binder.tape().value(loss)[(0, 0)];
        let mut grads = binder.finish(loss).unwrap();
        if fusion_only {
            grads[..model.fusion_param_start].fill_with(|| None);
        }
        (value, grads)
    }

    fn bits(m: &Option<Matrix>) -> Option<Vec<u32>> {
        m.as_ref()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn encoder_rows_do_not_depend_on_their_batch() {
        let (model, archs, _) = mixed_model_and_batch(0);
        // 20-row batches that interleave NAS-Bench-201 and FBNet rows
        let interleaved: Vec<usize> = (0..24).flat_map(|i| [i, 24 + i]).collect();
        let shuffled: Vec<Architecture> = interleaved.iter().map(|&i| archs[i].clone()).collect();
        let mut tape = Tape::new();
        for encoder in [&model.accuracy_encoder, &model.latency_encoder] {
            let mut encode = |archs: &[Architecture], chunk| {
                encoder
                    .encode_rows(&mut tape, &model.params, &model.cache, archs, chunk)
                    .unwrap()
            };
            let whole = encode(&archs, 48);
            let bits =
                |m: &Matrix, row| -> Vec<u32> { m.row(row).iter().map(|v| v.to_bits()).collect() };
            let batched = encode(&shuffled, 20);
            let single = encode(&archs, 1);
            for (at, &row) in interleaved.iter().enumerate() {
                assert_eq!(
                    bits(&batched, at),
                    bits(&whole, row),
                    "row {row}, 20-row batches"
                );
                assert_eq!(
                    bits(&single, row),
                    bits(&whole, row),
                    "row {row}, 1-row passes"
                );
            }
        }
    }

    #[test]
    fn split_step_matches_the_single_tape_step_bit_for_bit() {
        let (model, archs, mut batch) = mixed_model_and_batch(20);
        let config = TrainConfig::tiny();
        let mut tapes = PassTapes::default();
        let mut grads = Vec::new();
        // the fine-tune steps on rows cached in one 48-row pass, not in the
        // batch's own grouping
        let rows = model.encoder_rows(&mut tapes, &archs).unwrap();
        for fusion_only in [false, true] {
            let mut oracle_rng = LayerRng::seed_from_u64(9);
            let (expected_loss, expected) =
                one_tape_step(&model, &mut batch, &config, &mut oracle_rng, fusion_only);
            let mut rng = LayerRng::seed_from_u64(9);
            if fusion_only {
                fusion_step(
                    &model, &mut tapes, &rows, &mut batch, &config, &mut rng, &mut grads,
                )
                .unwrap();
            } else {
                let loss = joint_step(
                    &model, &mut tapes, &mut batch, &config, &mut rng, &mut grads,
                )
                .unwrap();
                assert_eq!(loss.to_bits(), expected_loss.to_bits());
            }
            // dropout drew the same masks in the same order
            assert_eq!(rng.next_u64(), oracle_rng.next_u64());
            assert_eq!(grads.len(), model.params.len());
            for (i, (got, want)) in grads.iter().zip(&expected).enumerate() {
                let name = model.params.name(model.params.id_at(i));
                assert_eq!(bits(got), bits(want), "{name} (fine-tune: {fusion_only})");
                let trained = !fusion_only || i >= model.fusion_param_start;
                assert_eq!(got.is_some(), trained, "{name} (fine-tune: {fusion_only})");
            }
        }
    }

    /// Pins the heap allocations of a warm training step to a constant
    /// that does not grow with the batch: 20 and 40 mixed NAS-Bench-201 +
    /// FBNet rows, dropout on.
    ///
    /// A joint step's count is its two scoped spawns (the encoders'
    /// forward and backward), at what one empty scoped spawn allocates,
    /// plus a fixed remainder. The spawn is measured here because the
    /// harness changes it: 4 on std 1.95 (the scope's shared state, the
    /// thread handle, the result packet, the boxed closure), and 2 more
    /// for libtest's output-capture spawn hook unless the test runs with
    /// `--nocapture`. The remainder (16):
    /// - 3: the binding `Vec` of each tape's `Binder` (accuracy, latency,
    ///   main), sized to the parameter store;
    /// - 2: each encoder's `Vec` of the batch's cached encodings;
    /// - 1: the LSTM encoder's token-id staging `Vec`;
    /// - 2: the GCN encoder's adjacency-borrow `Vec` and its global-node
    ///   row-index `Vec`;
    /// - 3: the GEMM pack buffers of the forward worker thread. They are
    ///   thread-local, so every new thread grows them from empty: the B
    ///   panel once, the A panel twice (the graph product, then the wider
    ///   GCN linear layer);
    /// - 5: the backward worker thread's pack buffers (the B panel twice,
    ///   the A panel three times).
    ///
    /// A fine-tune step runs no encoder and starts no thread: its one
    /// allocation is the main tape's `Binder` binding `Vec`.
    ///
    /// The counts repeat exactly only while every matrix a pass records
    /// comes from its tape's pool. A matrix built outside it enters the
    /// pool at the next reset, so the pool grows by one buffer per step.
    ///
    /// The counter is process-wide: run this test alone, `cargo test -p
    /// hwpr-core --features alloc-count --lib
    /// train::tests::warm_training_steps_allocate_a_fixed_count -- --exact`.
    #[cfg(feature = "alloc-count")]
    #[test]
    fn warm_training_steps_allocate_a_fixed_count() {
        use crate::alloc_count::{allocations, settled_allocations};
        settled_allocations();
        let spawn = || {
            let before = allocations();
            std::thread::scope(|s| {
                s.spawn(|| ());
            });
            allocations() - before
        };
        spawn();
        let spawn = spawn();
        let config = TrainConfig::tiny();
        for rows in [20, 40] {
            let (model, archs, mut batch) = mixed_model_and_batch(rows);
            let mut tapes = PassTapes::default();
            let cached = model.encoder_rows(&mut tapes, &archs).unwrap();
            let mut grads = Vec::new();
            let mut rng = LayerRng::seed_from_u64(9);
            for (fusion_only, expected) in [(false, 2 * spawn + 16), (true, 1)] {
                let mut step = || {
                    let before = allocations();
                    if fusion_only {
                        fusion_step(
                            &model, &mut tapes, &cached, &mut batch, &config, &mut rng, &mut grads,
                        )
                        .unwrap();
                    } else {
                        joint_step(
                            &model, &mut tapes, &mut batch, &config, &mut rng, &mut grads,
                        )
                        .unwrap();
                    }
                    allocations() - before
                };
                // warm-up: tape nodes and pools, gradient buffers
                for _ in 0..4 {
                    step();
                }
                let counts: Vec<u64> = (0..5).map(|_| step()).collect();
                assert_eq!(
                    counts, [expected; 5],
                    "{rows} rows, fine-tune: {fusion_only}, one empty spawn: {spawn}"
                );
            }
        }
    }

    #[test]
    fn fusion_finetune_leaves_every_other_parameter_bit_unchanged() {
        let b = bench(48);
        let data =
            SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let mut model_config = ModelConfig::tiny();
        model_config.dropout = 0.25;
        let mut cfg = TrainConfig::tiny();
        cfg.fusion_finetune_epochs = 0;
        let (before, _) = HwPrNas::fit(&data, &model_config, &cfg).unwrap();
        cfg.fusion_finetune_epochs = 2;
        let (after, _) = HwPrNas::fit(&data, &model_config, &cfg).unwrap();
        let values = |m: &HwPrNas| -> Vec<Option<Vec<u32>>> {
            m.params
                .iter()
                .map(|(_, _, v)| bits(&Some(v.clone())))
                .collect()
        };
        let (before_bits, after_bits) = (values(&before), values(&after));
        let start = after.fusion_param_start;
        assert_eq!(before_bits[..start], after_bits[..start]);
        assert_ne!(
            before_bits[start..],
            after_bits[start..],
            "the fine-tune must train the fusion layer"
        );
    }

    #[test]
    fn multi_platform_training_runs() {
        let b = bench(48);
        let (model, report) = HwPrNas::fit_multi(
            b.entries(),
            Dataset::Cifar10,
            &[Platform::EdgeGpu, Platform::Pixel3],
            &ModelConfig::tiny(),
            &TrainConfig::tiny(),
        )
        .unwrap();
        assert_eq!(model.platforms().len(), 2);
        assert!(report.epochs_run >= 2);
        let archs = vec![b.entries()[0].arch().clone()];
        assert!(model.predict_scores(&archs, Platform::Pixel3).is_ok());
        assert!(model.predict_scores(&archs, Platform::EdgeGpu).is_ok());
        assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    }

    #[test]
    fn fit_multi_rejects_empty() {
        assert!(HwPrNas::fit_multi(
            &[],
            Dataset::Cifar10,
            &[Platform::EdgeGpu],
            &ModelConfig::tiny(),
            &TrainConfig::tiny()
        )
        .is_err());
    }

    #[test]
    fn nb201_fraction_counts() {
        use hwpr_nasbench::FbnetOp;
        let a = Architecture::nb201_from_index(0).unwrap();
        let f = Architecture::fbnet([FbnetOp::Skip; 22]);
        assert_eq!(nb201_fraction(&[a.clone(), f.clone()]), 0.5);
        assert_eq!(nb201_fraction(&[a]), 1.0);
        assert_eq!(nb201_fraction(&[]), 0.0);
    }
}
