//! The HW-PR-NAS surrogate model (§III-B, Fig. 3).

use crate::config::ModelConfig;
use crate::data::EncodingCache;
use crate::encoders::{gather_leaf, EncoderChoice, EncoderSet};
use crate::frozen::FrozenModel;
use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, Dataset};
use hwpr_nn::layers::{LayerRng, Mlp, MlpConfig};
use hwpr_nn::{Binder, Params};
use hwpr_tensor::Matrix;
use parking_lot::RwLock;
use rand_chacha::rand_core::SeedableRng;
use std::sync::Arc;

/// Maximum batch size used during inference (bounds tape memory
/// and sizes the frozen engine's activation arenas).
pub(crate) const INFER_BATCH: usize = 256;

/// Denormalises a predicted accuracy into `accuracy %` (the model
/// regresses accuracy in `[0, 1]`).
pub(crate) fn denorm_accuracy(a: f32) -> f64 {
    (a as f64 * 100.0).clamp(0.0, 100.0)
}

/// Denormalises a predicted latency (regressed relative to the training
/// set's maximum) back into milliseconds.
pub(crate) fn denorm_latency(l: f32, max_latency: f64) -> f64 {
    (l as f64 * max_latency).max(0.0)
}

/// A predicted `(accuracy %, latency ms)` pair.
type ObjectivePair = (f64, f64);

/// The minimisation objectives `[error %, latency ms]` of predicted
/// `(accuracy %, latency ms)` pairs. `100 − acc` of the clamped accuracy
/// equals the clamped `100 − 100·a` bit for bit, so the error column needs
/// no forward of its own.
fn error_objectives(pairs: Vec<ObjectivePair>) -> Vec<Vec<f64>> {
    pairs
        .into_iter()
        .map(|(acc, lat)| vec![100.0 - acc, lat])
        .collect()
}

/// The trained HW-PR-NAS surrogate.
///
/// Built by [`HwPrNas::fit`] (single platform) or [`HwPrNas::fit_multi`]
/// (multi-platform latency head bank); scoring follows Fig. 3: a GCN+AF
/// accuracy branch and an LSTM+AF latency branch whose two predictions a
/// dense fusion layer turns into one Pareto score.
#[derive(Debug)]
pub struct HwPrNas {
    pub(crate) params: Params,
    pub(crate) accuracy_encoder: EncoderSet,
    pub(crate) latency_encoder: EncoderSet,
    pub(crate) accuracy_head: Mlp,
    pub(crate) latency_heads: Vec<Mlp>,
    pub(crate) platforms: Vec<Platform>,
    pub(crate) fusion: Mlp,
    /// Index of the first latency-encoder parameter. The store holds the
    /// accuracy encoder's parameters, then the latency encoder's, then
    /// the heads' and the fusion layer's, so each of the three tapes of a
    /// training pass owns one contiguous range (see [`PassTapes`]).
    pub(crate) latency_param_start: usize,
    /// Index of the first head parameter.
    pub(crate) head_param_start: usize,
    /// Index of the first fusion parameter (everything below is frozen
    /// during the fusion fine-tune phase).
    pub(crate) fusion_param_start: usize,
    pub(crate) cache: EncodingCache,
    pub(crate) max_latency: Vec<f64>,
    pub(crate) dataset: Dataset,
    pub(crate) model_config: ModelConfig,
    /// Lazily compiled tape-free inference engine (see [`crate::frozen`]).
    pub(crate) frozen: RwLock<Option<Arc<FrozenModel>>>,
}

/// The raw branch outputs for one forward pass (on the pass's main tape).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchOutputs {
    /// Normalised accuracy prediction, `[batch, 1]`.
    pub accuracy: Var,
    /// Normalised latency prediction, `[batch, 1]`.
    pub latency: Var,
    /// Fused Pareto score, `[batch, 1]`.
    pub score: Var,
}

impl HwPrNas {
    /// Builds a model whose layers register against `params`: a new
    /// store initialises them (the trainer), a [`Params::restoring`]
    /// store hands them saved values (the loader).
    pub(crate) fn build(
        mut params: Params,
        config: &ModelConfig,
        cache: EncodingCache,
        train_archs: &[Architecture],
        platforms: Vec<Platform>,
        max_latency: Vec<f64>,
        dataset: Dataset,
    ) -> Result<Self> {
        assert_eq!(platforms.len(), max_latency.len());
        let model_config = config.clone();
        let accuracy_encoder = EncoderSet::new(
            &mut params,
            "acc_enc",
            config,
            EncoderChoice::GCN_AF,
            &cache,
            train_archs,
        )?;
        let latency_param_start = params.len();
        let latency_encoder = EncoderSet::new(
            &mut params,
            "lat_enc",
            config,
            EncoderChoice::LSTM_AF,
            &cache,
            train_archs,
        )?;
        let head_param_start = params.len();
        let accuracy_head = Mlp::new(
            &mut params,
            "acc_head",
            &MlpConfig {
                input_dim: accuracy_encoder.output_dim(),
                hidden: config.mlp_hidden.clone(),
                output_dim: 1,
                activation: Default::default(),
                dropout: config.dropout,
                seed: config.seed.wrapping_add(100),
            },
        )?;
        let latency_heads = platforms
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Mlp::new(
                    &mut params,
                    &format!("lat_head.{}", p.name()),
                    &MlpConfig {
                        input_dim: latency_encoder.output_dim(),
                        hidden: config.mlp_hidden.clone(),
                        output_dim: 1,
                        activation: Default::default(),
                        dropout: config.dropout,
                        seed: config.seed.wrapping_add(200 + i as u64),
                    },
                )
            })
            .collect::<hwpr_nn::Result<Vec<_>>>()?;
        let fusion_param_start = params.len();
        // the fusion head combines the two branch predictions into one
        // Pareto score. A purely linear layer would make the score a
        // weighted-sum scalarisation whose maximiser is a single corner of
        // the front; a small nonlinear head lets the ranking loss flatten
        // the score along the front (equal scores within a Pareto rank).
        let fusion = Mlp::new(
            &mut params,
            "fusion",
            &MlpConfig {
                input_dim: 2,
                hidden: vec![16, 16],
                output_dim: 1,
                activation: Default::default(),
                dropout: 0.0,
                seed: config.seed.wrapping_add(300),
            },
        )?;
        Ok(Self {
            params,
            accuracy_encoder,
            latency_encoder,
            accuracy_head,
            latency_heads,
            platforms,
            fusion,
            latency_param_start,
            head_param_start,
            fusion_param_start,
            cache,
            max_latency,
            dataset,
            model_config,
            frozen: RwLock::new(None),
        })
    }

    /// The compiled tape-free inference engine, built on first use.
    /// Weight packing happens exactly once per trained model; repeat
    /// calls share the compiled engine through an [`Arc`].
    pub fn frozen(&self) -> Arc<FrozenModel> {
        if let Some(f) = self.frozen.read().as_ref() {
            return Arc::clone(f);
        }
        let mut slot = self.frozen.write();
        if let Some(f) = slot.as_ref() {
            return Arc::clone(f);
        }
        let f = Arc::new(FrozenModel::compile(self, INFER_BATCH));
        *slot = Some(Arc::clone(&f));
        f
    }

    /// Compiles (and installs) a frozen engine with an explicit chunk
    /// size instead of [`INFER_BATCH`]. Exposed so tests can force uneven
    /// final chunks.
    pub fn freeze_with_batch(&self, batch: usize) -> Arc<FrozenModel> {
        let f = Arc::new(FrozenModel::compile(self, batch.max(1)));
        *self.frozen.write() = Some(Arc::clone(&f));
        f
    }

    /// The platforms this model carries latency heads for.
    pub fn platforms(&self) -> &[Platform] {
        &self.platforms
    }

    /// The image dataset the model was trained for.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The model's shared per-architecture encoding cache. Exposed so
    /// external drivers of the frozen engine (the serving layer) can pair
    /// [`Self::frozen`] with the cache it was compiled against.
    pub fn encoding_cache(&self) -> &EncodingCache {
        &self.cache
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    pub(crate) fn platform_slot(&self, platform: Platform) -> Result<usize> {
        self.platforms
            .iter()
            .position(|&p| p == platform)
            .ok_or_else(|| {
                crate::CoreError::Data(format!(
                    "model has no latency head for {platform}; available: {:?}",
                    self.platforms
                ))
            })
    }

    /// One forward pass over a batch: the pass behind the joint training
    /// step and the `predict_*_tape` oracles. It runs the encoder half,
    /// then the heads half ([`Self::heads`]).
    ///
    /// The two encoders share nothing until the fusion layer (Fig. 3), so
    /// each records on its own tape of `tapes`, concurrently: the accuracy
    /// encoder on a scoped worker thread, the latency encoder on the
    /// calling thread. Each encoder's output is copied into the main tape
    /// as a leaf. The encoders draw nothing from `rng`.
    pub(crate) fn forward<'a>(
        &'a self,
        tapes: &'a mut PassTapes,
        archs: &[Architecture],
        platform_slot: usize,
        rng: &mut LayerRng,
        train: bool,
    ) -> Result<Pass<'a>> {
        let PassTapes {
            main,
            accuracy,
            latency,
        } = tapes;
        let bind = |tape: &'a mut Tape| {
            tape.reset();
            let mut binder = Binder::new(tape, &self.params);
            binder.train = train;
            binder
        };
        let (mut acc_binder, mut lat_binder) = (bind(accuracy), bind(latency));
        let (acc_out, lat_out) = on_two_cores(
            || {
                self.accuracy_encoder
                    .forward(&mut acc_binder, &self.cache, archs)
            },
            || {
                self.latency_encoder
                    .forward(&mut lat_binder, &self.cache, archs)
            },
        );
        let (acc_out, lat_out) = (acc_out?, lat_out?);
        let mut binder = bind(main);
        let acc_repr = binder.input_copy(acc_binder.tape().value(acc_out));
        let lat_repr = binder.input_copy(lat_binder.tape().value(lat_out));
        Ok(Pass {
            heads: self.heads(binder, acc_repr, lat_repr, platform_slot, rng)?,
            accuracy: BranchPass {
                binder: acc_binder,
                out: acc_out,
                leaf: acc_repr,
            },
            latency: BranchPass {
                binder: lat_binder,
                out: lat_out,
                leaf: lat_repr,
            },
        })
    }

    /// The fusion fine-tune's pass (§IV-A), with dropout on: the heads
    /// half alone, on the main tape of `tapes`, over rows `indices` of
    /// encoder outputs cached by [`Self::encoder_rows`]. The encoders are
    /// frozen during the fine-tune, and a row does not depend on the batch
    /// it was encoded in, so the gathered leaves hold the bits the encoder
    /// half would give this batch.
    pub(crate) fn forward_cached<'a>(
        &'a self,
        tapes: &'a mut PassTapes,
        rows: &EncoderRows,
        indices: &[usize],
        platform_slot: usize,
        rng: &mut LayerRng,
    ) -> Result<HeadsPass<'a>> {
        tapes.main.reset();
        let mut binder = Binder::for_training(&mut tapes.main, &self.params);
        let acc_repr = gather_leaf(&mut binder, &rows.accuracy, indices);
        let lat_repr = gather_leaf(&mut binder, &rows.latency, indices);
        self.heads(binder, acc_repr, lat_repr, platform_slot, rng)
    }

    /// The heads half of a pass: the accuracy head on `acc_repr`, the
    /// latency head of `platform_slot` on `lat_repr`, then the fusion
    /// layer, all on `main`'s tape in the one-tape order, so dropout draws
    /// from `rng` in the same sequence (accuracy head, then latency head).
    fn heads<'a>(
        &'a self,
        mut main: Binder<'a, 'a>,
        acc_repr: Var,
        lat_repr: Var,
        platform_slot: usize,
        rng: &mut LayerRng,
    ) -> Result<HeadsPass<'a>> {
        let accuracy = self.accuracy_head.forward(&mut main, acc_repr, rng)?;
        let latency = self.latency_heads[platform_slot].forward(&mut main, lat_repr, rng)?;
        let both = main
            .tape()
            .concat_cols(&[accuracy, latency])
            .map_err(hwpr_nn::NnError::from)?;
        let score = self.fusion.forward(&mut main, both, rng)?;
        Ok(HeadsPass {
            model: self,
            main,
            out: BranchOutputs {
                accuracy,
                latency,
                score,
            },
        })
    }

    /// Both encoders' outputs over `archs`, one row per architecture,
    /// encoded in [`INFER_BATCH`] chunks on the encoder tapes of `tapes`
    /// (the two encoders concurrently, as in [`Self::forward`]).
    pub(crate) fn encoder_rows(
        &self,
        tapes: &mut PassTapes,
        archs: &[Architecture],
    ) -> Result<EncoderRows> {
        let PassTapes {
            accuracy, latency, ..
        } = tapes;
        let encode = |encoder: &EncoderSet, tape: &mut Tape| {
            encoder.encode_rows(tape, &self.params, &self.cache, archs, INFER_BATCH)
        };
        let (accuracy, latency) = on_two_cores(
            || encode(&self.accuracy_encoder, accuracy),
            || encode(&self.latency_encoder, latency),
        );
        Ok(EncoderRows {
            accuracy: accuracy?,
            latency: latency?,
        })
    }

    /// Pareto scores of `archs` on `platform` (higher = closer to the
    /// predicted Pareto front). This is the single call the MOEA makes.
    ///
    /// Runs on the frozen tape-free engine, pinned to
    /// [`Self::predict_scores_tape`] by the documented error budget
    /// (f32 max-abs ≤ 1e-5, τ = 1.0; see `hwpr_nn::infer`), with
    /// differential tests asserting the budget.
    ///
    /// # Errors
    ///
    /// Returns an error when the model has no head for `platform` or an
    /// architecture does not fit the model's encoding (another search
    /// space than the one it was trained on).
    pub fn predict_scores(&self, archs: &[Architecture], platform: Platform) -> Result<Vec<f64>> {
        let slot = self.platform_slot(platform)?;
        self.frozen().predict_scores(&self.cache, archs, slot)
    }

    /// [`Self::predict_scores`] into a caller-held buffer: with a warmed
    /// frozen engine and encoding cache, this steady-state form performs
    /// zero heap allocations (pinned by the `alloc-count` harness in
    /// `hwpr-bench`).
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_scores_into(
        &self,
        archs: &[Architecture],
        platform: Platform,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let slot = self.platform_slot(platform)?;
        self.frozen()
            .predict_into(&self.cache, archs, slot, Some(out), None)
    }

    /// Scores and predicted minimisation objectives `[error %, latency
    /// ms]` from a *single* forward pass — everything Fig. 3 produces in
    /// one surrogate call. Runs on the frozen engine, pinned to
    /// [`Self::predict_full_tape`] by the documented error budget.
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_full(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let slot = self.platform_slot(platform)?;
        let mut scores = Vec::with_capacity(archs.len());
        let mut pairs = Vec::with_capacity(archs.len());
        self.frozen().predict_into(
            &self.cache,
            archs,
            slot,
            Some(&mut scores),
            Some(&mut pairs),
        )?;
        Ok((scores, error_objectives(pairs)))
    }

    /// Predicted `(accuracy %, latency ms)` pairs — the branch outputs
    /// denormalised. Exposed for the predictor-quality studies. Runs on
    /// the frozen engine, pinned to [`Self::predict_objectives_tape`]
    /// by the documented error budget.
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_objectives(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<(f64, f64)>> {
        let slot = self.platform_slot(platform)?;
        self.frozen().predict_objectives(&self.cache, archs, slot)
    }

    /// Reference implementation of [`Self::predict_scores`] on the
    /// recording tape, kept for differential testing. Per-epoch validation
    /// runs the same loop on the fit's own tapes.
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_scores_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<f64>> {
        let mut scores = Vec::with_capacity(archs.len());
        let tapes = &mut PassTapes::default();
        self.tape_into(tapes, archs, platform, Some(&mut scores), None)?;
        Ok(scores)
    }

    /// Reference implementation of [`Self::predict_full`] on the
    /// recording tape.
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_full_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let mut scores = Vec::with_capacity(archs.len());
        let mut pairs = Vec::with_capacity(archs.len());
        let tapes = &mut PassTapes::default();
        self.tape_into(tapes, archs, platform, Some(&mut scores), Some(&mut pairs))?;
        Ok((scores, error_objectives(pairs)))
    }

    /// Reference implementation of [`Self::predict_objectives`] on the
    /// recording tape.
    ///
    /// # Errors
    ///
    /// As [`Self::predict_scores`].
    pub fn predict_objectives_tape(
        &self,
        archs: &[Architecture],
        platform: Platform,
    ) -> Result<Vec<(f64, f64)>> {
        let mut pairs = Vec::with_capacity(archs.len());
        let tapes = &mut PassTapes::default();
        self.tape_into(tapes, archs, platform, None, Some(&mut pairs))?;
        Ok(pairs)
    }

    /// The one tape inference loop behind the `predict_*_tape` oracles and
    /// per-epoch validation: Pareto scores and `(accuracy %, latency ms)`
    /// pairs, one forward per [`INFER_BATCH`] chunk on `tapes`, appended to
    /// whichever of `scores` and `pairs` is given. The oracles pass fresh
    /// tapes; validation passes the fit's warm ones, whose pooled buffers
    /// the passes reuse.
    pub(crate) fn tape_into(
        &self,
        tapes: &mut PassTapes,
        archs: &[Architecture],
        platform: Platform,
        mut scores: Option<&mut Vec<f64>>,
        mut pairs: Option<&mut Vec<ObjectivePair>>,
    ) -> Result<()> {
        let slot = self.platform_slot(platform)?;
        let mut rng = LayerRng::seed_from_u64(0);
        for chunk in archs.chunks(INFER_BATCH) {
            let mut pass = self.forward(tapes, chunk, slot, &mut rng, false)?;
            let out = pass.heads.out;
            let tape = &*pass.heads.tape();
            if let Some(scores) = scores.as_deref_mut() {
                scores.extend(tape.value(out.score).as_slice().iter().map(|&v| v as f64));
            }
            if let Some(pairs) = pairs.as_deref_mut() {
                let acc = tape.value(out.accuracy);
                let lat = tape.value(out.latency);
                pairs.extend(acc.as_slice().iter().zip(lat.as_slice()).map(|(&a, &l)| {
                    (
                        denorm_accuracy(a),
                        denorm_latency(l, self.max_latency[slot]),
                    )
                }));
            }
        }
        Ok(())
    }
}

/// The tapes of a forward/backward pass, reused across passes: the heads,
/// fusion and losses record on the main tape, each encoder branch on its
/// own. The parameter store is laid out so that each tape's parameters
/// form one contiguous range (accuracy encoder, latency encoder, then
/// heads and fusion), which lets the tapes write one gradient buffer
/// concurrently.
#[derive(Debug, Default)]
pub(crate) struct PassTapes {
    main: Tape,
    accuracy: Tape,
    latency: Tape,
}

/// One encoder branch of a recorded [`Pass`].
struct BranchPass<'a> {
    binder: Binder<'a, 'a>,
    /// The encoder output on the branch tape.
    out: Var,
    /// Its copy on the main tape, where the gradient arrives.
    leaf: Var,
}

impl BranchPass<'_> {
    /// Back-propagates the branch from the gradient its main-tape leaf
    /// received, writing the branch's parameter range `first..`.
    fn backward(&mut self, main: &Tape, grads: &mut [Option<Matrix>], first: usize) -> Result<()> {
        let seed = main
            .grad(self.leaf)
            .expect("a branch output feeds its head, so its leaf gets a gradient");
        Ok(self
            .binder
            .finish_range_into(self.out, Some(seed), grads, first)?)
    }
}

/// Encoder outputs cached one row per architecture by
/// [`HwPrNas::encoder_rows`]: what the fusion fine-tune trains on while
/// the encoders are frozen.
#[derive(Debug)]
pub(crate) struct EncoderRows {
    accuracy: Matrix,
    latency: Matrix,
}

/// Runs `accuracy` on a scoped worker thread and `latency` on the calling
/// thread: the two branches share nothing until the fusion layer.
fn on_two_cores<A: Send, L>(
    accuracy: impl FnOnce() -> A + Send,
    latency: impl FnOnce() -> L,
) -> (A, L) {
    std::thread::scope(|s| {
        let worker = s.spawn(accuracy);
        let lat = latency();
        let acc = worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (acc, lat)
    })
}

/// The heads half of a recorded pass, on the main tape: produced alone by
/// [`HwPrNas::forward_cached`] and inside every [`Pass`]. Losses record
/// onto [`HeadsPass::tape`].
pub(crate) struct HeadsPass<'a> {
    model: &'a HwPrNas,
    main: Binder<'a, 'a>,
    /// The heads' and the fusion layer's outputs on the main tape.
    pub(crate) out: BranchOutputs,
}

impl HeadsPass<'_> {
    /// The main tape, where the losses record.
    pub(crate) fn tape(&mut self) -> &mut Tape {
        self.main.tape()
    }

    /// The fusion fine-tune's backward pass (§IV-A): the main tape alone,
    /// writing the fusion layer's gradients and `None` for every other
    /// parameter.
    pub(crate) fn backward_fusion(
        mut self,
        loss: Var,
        grads: &mut Vec<Option<Matrix>>,
    ) -> Result<()> {
        let start = self.model.fusion_param_start;
        grads.resize_with(self.model.params.len(), || None);
        let (frozen, fusion) = grads.split_at_mut(start);
        frozen.fill_with(|| None);
        Ok(self.main.finish_range_into(loss, None, fusion, start)?)
    }
}

/// A recorded forward pass over all three [`PassTapes`], produced by
/// [`HwPrNas::forward`]: the encoder branches and the heads half. A
/// training pass ends in [`Pass::backward`].
pub(crate) struct Pass<'a> {
    pub(crate) heads: HeadsPass<'a>,
    accuracy: BranchPass<'a>,
    latency: BranchPass<'a>,
}

impl Pass<'_> {
    /// The joint step's backward pass: the main tape from `loss` first,
    /// then both encoder tapes concurrently (the accuracy branch on a
    /// scoped worker thread) from the gradients at their leaves. Every
    /// parameter's gradient lands in `grads` (sized to the store), each
    /// tape writing its own range.
    ///
    /// Bit-identical to one tape: a branch output's only consumer is its
    /// head, so the leaf receives exactly the gradient the output would
    /// have, and within a branch nothing is reordered.
    pub(crate) fn backward(self, loss: Var, grads: &mut Vec<Option<Matrix>>) -> Result<()> {
        let Pass {
            mut heads,
            mut accuracy,
            mut latency,
        } = self;
        let model = heads.model;
        grads.resize_with(model.params.len(), || None);
        let (encoders, head_grads) = grads.split_at_mut(model.head_param_start);
        let (acc_grads, lat_grads) = encoders.split_at_mut(model.latency_param_start);
        heads
            .main
            .finish_range_into(loss, None, head_grads, model.head_param_start)?;
        let main = &*heads.tape();
        let (acc, lat) = on_two_cores(
            || accuracy.backward(main, acc_grads, 0),
            || latency.backward(main, lat_grads, model.latency_param_start),
        );
        acc.and(lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use hwpr_nasbench::SearchSpaceId;

    fn tiny_dataset() -> SurrogateDataset {
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(48),
            seed: 3,
        });
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap()
    }

    #[test]
    fn fit_and_predict_shapes() {
        let data = tiny_dataset();
        let (model, report) =
            HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        assert!(report.epochs_run >= 1);
        assert!(model.parameter_count() > 0);
        assert_eq!(model.platforms(), &[Platform::EdgeGpu]);
        assert_eq!(model.dataset(), Dataset::Cifar10);
        let archs: Vec<Architecture> = data.samples().iter().map(|s| s.arch.clone()).collect();
        let scores = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(scores.len(), archs.len());
        assert!(scores.iter().all(|s| s.is_finite()));
        let objs = model.predict_objectives(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(objs.len(), archs.len());
        for (a, l) in objs {
            assert!((0.0..=100.0).contains(&a));
            assert!(l >= 0.0);
        }
    }

    #[test]
    fn unknown_platform_is_an_error() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let archs = vec![data.samples()[0].arch.clone()];
        assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    }

    #[test]
    fn denorm_helpers_clamp() {
        let error = |a| error_objectives(vec![(denorm_accuracy(a), 0.0)])[0][0];
        assert_eq!(error(0.95), 100.0 - 0.95f32 as f64 * 100.0);
        assert_eq!(error(2.0), 0.0); // accuracy above 100% clamps
        assert_eq!(error(-1.0), 100.0);
        assert_eq!(denorm_accuracy(0.5), 50.0);
        assert_eq!(denorm_accuracy(1.5), 100.0);
        assert_eq!(denorm_latency(0.5, 8.0), 4.0);
        assert_eq!(denorm_latency(-0.5, 8.0), 0.0);
    }

    #[test]
    fn freeze_compiles_once() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let a = model.frozen();
        let b = model.frozen();
        assert!(Arc::ptr_eq(&a, &b), "repeat freezes must share the engine");
    }

    #[test]
    fn deterministic_inference() {
        let data = tiny_dataset();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let archs: Vec<Architecture> = data
            .samples()
            .iter()
            .take(5)
            .map(|s| s.arch.clone())
            .collect();
        let a = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        let b = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(a, b);
    }
}
