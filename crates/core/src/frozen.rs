//! The tape-free frozen inference engine behind the MOEA hot path.
//!
//! [`FrozenModel::compile`] is a one-shot freeze pass over a trained
//! [`HwPrNas`]: it copies every trained weight out of the parameter store,
//! packs each GEMM weight into a persistent [`hwpr_tensor::PackedWeight`]
//! panel, and lowers the encoder → branch-head → fusion forward into
//! direct fused-kernel calls. Inference then runs against a reusable
//! activation arena ([`InferArena`]) with **no tape, no op recording, no
//! gradient buffers**, and dropout statically elided.
//!
//! # Error budget
//!
//! The frozen path is pinned to the recording-tape reference
//! implementation (`predict_*_tape` on [`HwPrNas`]) by a documented error
//! budget: max-abs ≤ 1e-5 with Kendall τ = 1.0 on the differential
//! fixtures (see the `hwpr_nn::infer` module docs for the rationale). The
//! implementation currently sits at exact bit-equality — every kernel it
//! calls is either the routine the corresponding tape op runs
//! ([`hwpr_autograd::apply_bias_act`], [`hwpr_autograd::lstm_step_frozen`])
//! or a bit-identical variant (`matmul_prepacked_into` ≡ `matmul`,
//! `block_left_matmul_into` ≡ `block_left_matmul`), with
//! concatenations/gathers as plain copies —
//! but only the budget is contractual. Differential tests in this module
//! and in `tests/frozen_differential.rs` pin the budget for every encoder
//! type and platform.
//!
//! # Arena memory model
//!
//! All activations come from a per-arena [`BufferPool`]; scratch vectors
//! (adjacency copies, LSTM steps and states, token-id staging) live in the
//! arena and keep their capacity across calls, so a warmed
//! [`HwPrNas::predict_scores_into`] loop performs **zero heap
//! allocations** (asserted by the `alloc-count` harness in `hwpr-bench`).
//! Every predict call runs one chunk loop
//! ([`FrozenModel::predict_into_with`]) on the calling thread. Arenas are
//! checked out of a shared pool per call, so islands on different worker
//! lanes that share one engine each get their own arena while sharing
//! the packed weights.

use crate::data::{CachedEncoding, EncodingCache};
use crate::encoders::EncoderSet;
use crate::model::{denorm_accuracy, denorm_latency, HwPrNas};
use crate::Result;
use hwpr_hwmodel::Platform;
use hwpr_nasbench::features::{FeatureNormalizer, ARCH_FEATURE_DIM};
use hwpr_nasbench::Architecture;
use hwpr_nn::infer::{FrozenEmbedding, FrozenGcnLayer, FrozenLstm, FrozenMlp, LstmScratch};
use hwpr_nn::Params;
use hwpr_obs::metrics::{registry, Counter, Histogram};
use hwpr_tensor::{BufferPool, Matrix};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct InferMetrics {
    /// "infer.prepack.reuse": GEMMs served from persistent weight panels
    /// (packed once at freeze time, reused every batch).
    prepack_reuse: Arc<Counter>,
    /// "infer.batch.us": per-batch frozen forward wall time.
    batch_us: Arc<Histogram>,
    /// "infer.batch.size": rows per frozen chunk — shows whether callers
    /// actually fill the compiled batch width or trickle partial chunks.
    batch_size: Arc<Histogram>,
}

fn metrics() -> &'static InferMetrics {
    static METRICS: OnceLock<InferMetrics> = OnceLock::new();
    METRICS.get_or_init(|| InferMetrics {
        prepack_reuse: registry().counter("infer.prepack.reuse"),
        batch_us: registry().histogram(
            "infer.batch.us",
            &Histogram::exponential_bounds(1.0, 4.0, 10),
        ),
        batch_size: registry().histogram(
            "infer.batch.size",
            &Histogram::exponential_bounds(1.0, 2.0, 10),
        ),
    })
}

/// Times one frozen batch. Inert (no clock read, no allocation) when
/// telemetry is off — the property the `alloc-count` harness relies on.
struct ChunkTimer {
    start: Option<Instant>,
}

impl ChunkTimer {
    fn start() -> Self {
        if !hwpr_obs::enabled() {
            return Self { start: None };
        }
        Self {
            start: Some(Instant::now()),
        }
    }

    fn finish(self, prepacked_gemms: u64, rows: usize) {
        if let Some(start) = self.start {
            let m = metrics();
            m.prepack_reuse.add(prepacked_gemms);
            m.batch_us.observe(start.elapsed().as_secs_f64() * 1e6);
            m.batch_size.observe(rows as f64);
        }
    }
}

/// Reusable scratch for one encoder forward: everything keeps its
/// capacity between calls so the warmed path never allocates.
#[derive(Debug, Default)]
struct EncoderScratch {
    /// Pooled `[batch, embed_dim]` timestep inputs for the LSTM part.
    steps: Vec<Matrix>,
    /// Per-layer recurrence working set (states, staging, gates).
    lstm: LstmScratch,
    /// SoA token-id staging: `seq_len * batch` ids laid out step-major, so
    /// each encoding is visited once and every LSTM step reads one
    /// contiguous `[batch]` slice.
    ids: Vec<usize>,
    /// Weight-independent first-layer graph aggregation
    /// `blockdiag(A) @ X` for the current chunk: staged once by the first
    /// encoder that needs it and reused by every other encoder (the
    /// accuracy and latency branches read identical graph inputs), then
    /// recycled into the pool at the next chunk.
    graph_agg: Option<Matrix>,
}

/// One caller's reusable activation storage: a buffer pool plus the
/// encoder scratch vectors and the per-chunk encoding list.
#[derive(Debug, Default)]
pub struct InferArena {
    pool: BufferPool,
    encodings: Vec<Arc<CachedEncoding>>,
    scratch: EncoderScratch,
}

/// An [`EncoderSet`] compiled for tape-free inference: frozen layers plus
/// the fitted AF normaliser. Part order (GCN, LSTM, AF) matches the taped
/// forward exactly.
#[derive(Debug)]
struct FrozenEncoderSet {
    gcn: Vec<FrozenGcnLayer>,
    embedding: Option<FrozenEmbedding>,
    lstm: Option<FrozenLstm>,
    normalizer: Option<FeatureNormalizer>,
    output_dim: usize,
}

impl FrozenEncoderSet {
    fn compile(enc: &EncoderSet, params: &Params) -> Self {
        Self {
            gcn: enc.gcn_layers().iter().map(|l| l.freeze(params)).collect(),
            embedding: enc.embedding().map(|e| e.freeze(params)),
            lstm: enc.lstm().map(|l| l.freeze(params)),
            normalizer: enc.normalizer().cloned(),
            output_dim: enc.output_dim(),
        }
    }

    /// Prepacked GEMMs one forward pass issues (for the reuse counter).
    fn prepacked_gemms(&self, seq_len: usize) -> u64 {
        self.gcn.len() as u64
            + self
                .lstm
                .as_ref()
                .map_or(0, |l| (l.layers() * seq_len) as u64)
    }

    /// Encodes a batch into a pooled `[batch, output_dim]` representation.
    ///
    /// Mirrors [`EncoderSet::forward`] part by part; concatenation becomes
    /// direct writes into column ranges of `repr` (copies are exact, so
    /// the result is bit-identical to the taped `concat_cols`).
    fn forward(
        &self,
        pool: &mut BufferPool,
        scratch: &mut EncoderScratch,
        encodings: &[Arc<CachedEncoding>],
        nodes: usize,
        seq_len: usize,
    ) -> Result<Matrix> {
        let batch = encodings.len();
        // recycle anything a previous erroring call left behind
        for m in scratch.steps.drain(..) {
            pool.put(m);
        }
        // every column range below is written for every row
        let mut repr = pool.take_uninit(batch, self.output_dim);
        let mut col = 0;
        if !self.gcn.is_empty() {
            if scratch.graph_agg.is_none() {
                let feat_cols = encodings[0].graph.features.cols();
                // row-stack each architecture's memoised first-layer
                // aggregation `A @ X` (weight-independent, computed once
                // per architecture by the cache) — every encoder branch
                // starts from the same graph input, so the second branch
                // reuses this staging for free
                let mut agg = pool.take_uninit(batch * nodes, feat_cols);
                for (b, e) in encodings.iter().enumerate() {
                    agg.rows_mut(b * nodes, nodes)
                        .copy_from_slice(e.agg.as_slice());
                }
                scratch.graph_agg = Some(agg);
            }
            let agg = scratch
                .graph_agg
                .as_ref()
                .expect("graph aggregation staged above");
            // first layer consumes the shared pre-aggregated input; each
            // later layer reads every sample's constant adjacency in
            // place — no staging copies, no per-sample GEMM dispatch
            // only each sample's global readout node survives the stack,
            // so the last layer runs the row-pruned kernel; earlier
            // layers still produce every node (their outputs feed the
            // next layer's aggregation in full)
            let last = self.gcn.len() - 1;
            let adj_global_row = |b: usize| {
                let g = &encodings[b].graph;
                g.adjacency.row(g.global_node())
            };
            let h = if last == 0 {
                // single-layer stack: gather each sample's global
                // aggregation row, then run the layer on just those rows
                let feat_cols = encodings[0].graph.features.cols();
                let mut gathered = pool.take_uninit(batch, feat_cols);
                for (b, e) in encodings.iter().enumerate() {
                    gathered
                        .row_mut(b)
                        .copy_from_slice(agg.row(b * nodes + e.graph.global_node()));
                }
                let out = self.gcn[0].forward_from_agg(pool, &gathered)?;
                pool.put(gathered);
                out
            } else {
                let mut h = self.gcn[0].forward_from_agg(pool, agg)?;
                for layer in &self.gcn[1..last] {
                    h = layer.forward_each(
                        pool,
                        h,
                        batch,
                        |b| &encodings[b].graph.adjacency,
                        nodes,
                    )?;
                }
                self.gcn[last].forward_global_each(pool, h, batch, adj_global_row, nodes)?
            };
            let width = self.gcn[last].out_dim();
            for b in 0..batch {
                repr.row_mut(b)[col..col + width].copy_from_slice(h.row(b));
            }
            pool.put(h);
            col += width;
        }
        if let (Some(embedding), Some(lstm)) = (&self.embedding, &self.lstm) {
            // stage all token ids in one pass over the encodings
            // (step-major SoA), then embed each step's contiguous slice
            scratch.ids.clear();
            scratch.ids.resize(seq_len * batch, 0);
            for (b, e) in encodings.iter().enumerate() {
                for (t, &tok) in e.tokens.iter().take(seq_len).enumerate() {
                    scratch.ids[t * batch + b] = tok;
                }
            }
            for t in 0..seq_len {
                let mut step = pool.take_uninit(batch, embedding.dim());
                embedding.forward_into(&scratch.ids[t * batch..(t + 1) * batch], &mut step)?;
                scratch.steps.push(step);
            }
            let h = lstm.forward(pool, &scratch.steps, &mut scratch.lstm)?;
            let width = lstm.hidden_dim();
            for b in 0..batch {
                repr.row_mut(b)[col..col + width].copy_from_slice(h.row(b));
            }
            pool.put(h);
            for m in scratch.steps.drain(..) {
                pool.put(m);
            }
            col += width;
        }
        if let Some(norm) = &self.normalizer {
            for (b, e) in encodings.iter().enumerate() {
                norm.transform_into(&e.af, &mut repr.row_mut(b)[col..col + ARCH_FEATURE_DIM]);
            }
            col += ARCH_FEATURE_DIM;
        }
        debug_assert_eq!(col, self.output_dim, "encoder parts must fill repr");
        Ok(repr)
    }
}

/// A trained [`HwPrNas`] compiled for tape-free inference.
///
/// Compiled once by [`HwPrNas::frozen`]; shared across the search stack
/// through an [`Arc`]. See the [module docs](self) for the memory model
/// and the bit-identity argument.
#[derive(Debug)]
pub struct FrozenModel {
    accuracy_encoder: FrozenEncoderSet,
    latency_encoder: FrozenEncoderSet,
    accuracy_head: FrozenMlp,
    latency_heads: Vec<FrozenMlp>,
    fusion: FrozenMlp,
    platforms: Vec<Platform>,
    max_latency: Vec<f64>,
    nodes: usize,
    seq_len: usize,
    batch: usize,
    /// Prepacked GEMMs per full-batch forward (drives the reuse counter).
    prepacked_gemms: u64,
    /// Reusable arenas; one is checked out per predict call and returned
    /// afterwards, so repeat calls (and concurrent callers on other
    /// threads) reuse warmed buffer pools instead of reallocating.
    arenas: Mutex<Vec<InferArena>>,
}

impl FrozenModel {
    /// Freezes `model`: packs every GEMM weight once and fixes the
    /// inference chunk size to `batch` rows.
    pub(crate) fn compile(model: &HwPrNas, batch: usize) -> Self {
        let accuracy_encoder = FrozenEncoderSet::compile(&model.accuracy_encoder, &model.params);
        let latency_encoder = FrozenEncoderSet::compile(&model.latency_encoder, &model.params);
        let accuracy_head = model.accuracy_head.freeze(&model.params);
        let latency_heads: Vec<FrozenMlp> = model
            .latency_heads
            .iter()
            .map(|h| h.freeze(&model.params))
            .collect();
        let fusion = model.fusion.freeze(&model.params);
        let seq_len = model.cache.seq_len();
        let prepacked_gemms = accuracy_encoder.prepacked_gemms(seq_len)
            + latency_encoder.prepacked_gemms(seq_len)
            + (accuracy_head.depth()
                + latency_heads.first().map_or(0, FrozenMlp::depth)
                + fusion.depth()) as u64;
        Self {
            accuracy_encoder,
            latency_encoder,
            accuracy_head,
            latency_heads,
            fusion,
            platforms: model.platforms.clone(),
            max_latency: model.max_latency.clone(),
            nodes: model.cache.nodes(),
            seq_len,
            batch: batch.max(1),
            prepacked_gemms,
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// The platforms this engine carries latency heads for.
    pub fn platforms(&self) -> &[Platform] {
        &self.platforms
    }

    /// The inference chunk size the engine was compiled with.
    pub fn batch(&self) -> usize {
        self.batch
    }

    fn check_slot(&self, slot: usize) -> Result<()> {
        if slot >= self.latency_heads.len() {
            return Err(crate::CoreError::Data(format!(
                "latency head slot {slot} out of range ({} heads)",
                self.latency_heads.len()
            )));
        }
        Ok(())
    }

    /// One frozen forward over `chunk`, returning pooled
    /// `(score, accuracy, latency)` columns (each `[chunk.len(), 1]`);
    /// the caller returns them to the arena's pool.
    fn forward_chunk(
        &self,
        cache: &EncodingCache,
        arena: &mut InferArena,
        chunk: &[Architecture],
        slot: usize,
    ) -> Result<(Matrix, Matrix, Matrix)> {
        let InferArena {
            pool,
            encodings,
            scratch,
        } = arena;
        cache.encodings_into(chunk, encodings)?;
        // the staged graph aggregation is chunk-specific: recycle the
        // previous chunk's buffer so the first encoder re-stages
        if let Some(agg) = scratch.graph_agg.take() {
            pool.put(agg);
        }
        let batch = chunk.len();
        let accuracy = {
            let _stage = hwpr_obs::span_labeled("infer.encode", "accuracy");
            let acc_repr = self.accuracy_encoder.forward(
                pool,
                scratch,
                encodings,
                self.nodes,
                self.seq_len,
            )?;
            self.accuracy_head.forward(pool, acc_repr)?
        };
        let latency = {
            let _stage = hwpr_obs::span_labeled("infer.encode", "latency");
            let lat_repr =
                self.latency_encoder
                    .forward(pool, scratch, encodings, self.nodes, self.seq_len)?;
            self.latency_heads[slot].forward(pool, lat_repr)?
        };
        // fuse the two branch columns (≡ concat_cols) into the score head
        let mut both = pool.take(batch, 2);
        for r in 0..batch {
            let row = both.row_mut(r);
            row[0] = accuracy[(r, 0)];
            row[1] = latency[(r, 0)];
        }
        let score = self.fusion.forward(pool, both)?;
        Ok((score, accuracy, latency))
    }

    /// Pareto scores for `archs` using latency head `slot`.
    ///
    /// # Errors
    ///
    /// Returns an error when `slot` is out of range, an architecture does
    /// not fit `cache`, or a forward fails.
    pub fn predict_scores(
        &self,
        cache: &EncodingCache,
        archs: &[Architecture],
        slot: usize,
    ) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(archs.len());
        self.predict_into(cache, archs, slot, Some(&mut out), None)?;
        Ok(out)
    }

    /// Predicted `(accuracy %, latency ms)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error when `slot` is out of range, an architecture does
    /// not fit `cache`, or a forward fails.
    pub fn predict_objectives(
        &self,
        cache: &EncodingCache,
        archs: &[Architecture],
        slot: usize,
    ) -> Result<Vec<(f64, f64)>> {
        let mut out = Vec::with_capacity(archs.len());
        self.predict_into(cache, archs, slot, None, Some(&mut out))?;
        Ok(out)
    }

    /// [`Self::predict_into_with`] against an arena checked out of the
    /// engine's pool (a cold one when the pool is empty). The arena goes
    /// back afterwards, so repeat calls — and islands on other lanes
    /// sharing this engine — reuse its warmed buffers.
    pub(crate) fn predict_into(
        &self,
        cache: &EncodingCache,
        archs: &[Architecture],
        slot: usize,
        scores: Option<&mut Vec<f64>>,
        objectives: Option<&mut Vec<(f64, f64)>>,
    ) -> Result<()> {
        let mut arena = self.arenas.lock().pop().unwrap_or_default();
        let result = self.predict_into_with(cache, archs, slot, scores, objectives, &mut arena);
        self.arenas.lock().push(arena);
        result
    }

    /// The engine's one inference loop: Pareto scores and predicted
    /// `(accuracy %, latency ms)` pairs for `archs`, one frozen forward
    /// per compiled-batch chunk on the calling thread, appended to
    /// whichever of `scores` and `objectives` is given. Runs against a
    /// caller-owned arena; the serving workers call this with both
    /// columns so a Scores and an Objectives request for the same rows
    /// share one forward, and keep one warmed arena across model
    /// hot-swaps (arenas hold no model state).
    ///
    /// # Errors
    ///
    /// Returns an error when `slot` is out of range, an architecture does
    /// not fit `cache`, or a forward fails.
    pub fn predict_into_with(
        &self,
        cache: &EncodingCache,
        archs: &[Architecture],
        slot: usize,
        mut scores: Option<&mut Vec<f64>>,
        mut objectives: Option<&mut Vec<(f64, f64)>>,
        arena: &mut InferArena,
    ) -> Result<()> {
        self.check_slot(slot)?;
        let _span = hwpr_obs::span("infer.frozen");
        if let Some(out) = scores.as_deref_mut() {
            out.reserve(archs.len());
        }
        if let Some(out) = objectives.as_deref_mut() {
            out.reserve(archs.len());
        }
        for chunk in archs.chunks(self.batch) {
            let timer = ChunkTimer::start();
            let (score, accuracy, latency) = self.forward_chunk(cache, arena, chunk, slot)?;
            if let Some(out) = scores.as_deref_mut() {
                out.extend(score.as_slice().iter().map(|&v| v as f64));
            }
            if let Some(out) = objectives.as_deref_mut() {
                out.extend(
                    accuracy
                        .as_slice()
                        .iter()
                        .zip(latency.as_slice())
                        .map(|(&a, &l)| {
                            (
                                denorm_accuracy(a),
                                denorm_latency(l, self.max_latency[slot]),
                            )
                        }),
                );
            }
            arena.pool.put(score);
            arena.pool.put(accuracy);
            arena.pool.put(latency);
            timer.finish(self.prepacked_gemms, chunk.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::encoders::EncoderChoice;
    use hwpr_autograd::Tape;
    use hwpr_nasbench::{Dataset, SearchSpaceId};
    use hwpr_nn::Binder;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Frozen encoder output must stay inside the f32 error budget
    /// (max-abs ≤ 1e-5 vs the taped [`EncoderSet::forward`]) for every
    /// encoder combination; reruns over warmed scratch must be
    /// bit-stable.
    fn assert_encoder_within_budget(choice: EncoderChoice) {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let mut arch_rng = ChaCha8Rng::seed_from_u64(7);
        let archs: Vec<Architecture> = (0..5)
            .map(|_| Architecture::random(SearchSpaceId::NasBench201, &mut arch_rng))
            .collect();
        let mut params = Params::new();
        let enc = EncoderSet::new(
            &mut params,
            "enc",
            &ModelConfig::tiny(),
            choice,
            &cache,
            &archs,
        )
        .unwrap();

        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let out = enc.forward(&mut binder, &cache, &archs).unwrap();
        let expected = tape.value(out).clone();

        let frozen = FrozenEncoderSet::compile(&enc, &params);
        let mut arena = InferArena::default();
        let encodings: Vec<_> = archs.iter().map(|a| cache.encoding(a).unwrap()).collect();
        let repr = frozen
            .forward(
                &mut arena.pool,
                &mut arena.scratch,
                &encodings,
                cache.nodes(),
                cache.seq_len(),
            )
            .unwrap();
        assert_eq!(repr.shape(), expected.shape(), "{choice}");
        let worst = repr
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 1e-5, "{choice}: frozen-vs-tape max-abs {worst}");
        let first = repr.as_slice().to_vec();

        // a second pass over warmed scratch must agree with the first
        let again = frozen
            .forward(
                &mut arena.pool,
                &mut arena.scratch,
                &encodings,
                cache.nodes(),
                cache.seq_len(),
            )
            .unwrap();
        assert_eq!(again.as_slice(), first.as_slice(), "{choice} rerun");
    }

    #[test]
    fn frozen_encoder_af_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::AF);
    }

    #[test]
    fn frozen_encoder_lstm_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::LSTM);
    }

    #[test]
    fn frozen_encoder_gcn_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::GCN);
    }

    #[test]
    fn frozen_encoder_lstm_af_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::LSTM_AF);
    }

    #[test]
    fn frozen_encoder_gcn_af_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::GCN_AF);
    }

    #[test]
    fn frozen_encoder_all_matches_tape() {
        assert_encoder_within_budget(EncoderChoice::ALL);
    }

    #[test]
    fn prepack_accounting_counts_every_panel() {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let archs = vec![Architecture::nb201_from_index(0).unwrap()];
        let mut params = Params::new();
        let cfg = ModelConfig::tiny();
        let enc =
            EncoderSet::new(&mut params, "e", &cfg, EncoderChoice::ALL, &cache, &archs).unwrap();
        let frozen = FrozenEncoderSet::compile(&enc, &params);
        let expected = cfg.gcn_layers as u64 + (cfg.lstm_layers * cache.seq_len()) as u64;
        assert_eq!(frozen.prepacked_gemms(cache.seq_len()), expected);
    }
}
