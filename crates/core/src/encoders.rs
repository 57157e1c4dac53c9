//! The three architecture encoders (§III-C) and their combinations.

use crate::config::ModelConfig;
use crate::data::EncodingCache;
use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_nasbench::features::{FeatureNormalizer, ARCH_FEATURE_DIM};
use hwpr_nasbench::graph::NODE_FEATURE_DIM;
use hwpr_nasbench::{tokens, Architecture};
use hwpr_nn::layers::{Embedding, GcnLayer, Lstm};
use hwpr_nn::{Binder, Params};
use hwpr_tensor::Matrix;
use std::fmt;

/// Which encodings feed the predictor — the axis of the Fig. 4 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderChoice {
    /// Manual architecture features.
    pub af: bool,
    /// Embedded-token LSTM encoding.
    pub lstm: bool,
    /// Graph-convolution encoding.
    pub gcn: bool,
}

impl EncoderChoice {
    /// AF only.
    pub const AF: Self = Self {
        af: true,
        lstm: false,
        gcn: false,
    };
    /// LSTM only.
    pub const LSTM: Self = Self {
        af: false,
        lstm: true,
        gcn: false,
    };
    /// GCN only.
    pub const GCN: Self = Self {
        af: false,
        lstm: false,
        gcn: true,
    };
    /// LSTM + AF (the paper's latency encoder).
    pub const LSTM_AF: Self = Self {
        af: true,
        lstm: true,
        gcn: false,
    };
    /// GCN + AF (the paper's accuracy encoder).
    pub const GCN_AF: Self = Self {
        af: true,
        lstm: false,
        gcn: true,
    };
    /// All three concatenated (the scalable variant of §III-F).
    pub const ALL: Self = Self {
        af: true,
        lstm: true,
        gcn: true,
    };

    /// The five combinations studied in Fig. 4, in display order.
    pub const FIG4_VARIANTS: [EncoderChoice; 5] =
        [Self::AF, Self::LSTM, Self::GCN, Self::LSTM_AF, Self::GCN_AF];
}

impl fmt::Display for EncoderChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.gcn {
            parts.push("GCN");
        }
        if self.lstm {
            parts.push("LSTM");
        }
        if self.af {
            parts.push("AF");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        write!(f, "{}", parts.join("+"))
    }
}

/// A concrete encoder stack: any combination of AF, LSTM and GCN whose
/// outputs are concatenated into one representation vector.
#[derive(Debug)]
pub struct EncoderSet {
    choice: EncoderChoice,
    embedding: Option<Embedding>,
    lstm: Option<Lstm>,
    gcn: Vec<GcnLayer>,
    af_normalizer: Option<FeatureNormalizer>,
    output_dim: usize,
}

impl EncoderSet {
    /// Registers the encoder parameters in `params`. The AF normaliser is
    /// fit on `train_archs` (through `cache`) so feature scales match the
    /// training distribution.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Data`] if AF is requested with no
    /// training architectures to fit the normaliser.
    pub fn new(
        params: &mut Params,
        name: &str,
        config: &ModelConfig,
        choice: EncoderChoice,
        cache: &EncodingCache,
        train_archs: &[Architecture],
    ) -> Result<Self> {
        let mut output_dim = 0;
        let (embedding, lstm) = if choice.lstm {
            let embedding = Embedding::new(
                params,
                &format!("{name}.embed"),
                tokens::VOCAB_SIZE,
                config.embed_dim,
                config.seed,
            );
            let lstm = Lstm::new(
                params,
                &format!("{name}.lstm"),
                config.embed_dim,
                config.lstm_hidden,
                config.lstm_layers,
                config.seed.wrapping_add(1),
            );
            output_dim += config.lstm_hidden;
            (Some(embedding), Some(lstm))
        } else {
            (None, None)
        };
        let gcn = if choice.gcn {
            let mut layers = Vec::with_capacity(config.gcn_layers);
            let mut in_dim = NODE_FEATURE_DIM;
            for l in 0..config.gcn_layers {
                layers.push(GcnLayer::new(
                    params,
                    &format!("{name}.gcn{l}"),
                    in_dim,
                    config.gcn_hidden,
                    config.seed.wrapping_add(10 + l as u64),
                ));
                in_dim = config.gcn_hidden;
            }
            output_dim += config.gcn_hidden;
            layers
        } else {
            Vec::new()
        };
        let af_normalizer = if choice.af {
            if train_archs.is_empty() {
                return Err(crate::CoreError::Data(
                    "AF encoder needs training architectures to fit its normaliser".into(),
                ));
            }
            let mut rows = Vec::with_capacity(train_archs.len());
            for arch in train_archs {
                rows.push(cache.encoding(arch)?.af.clone());
            }
            output_dim += ARCH_FEATURE_DIM;
            Some(FeatureNormalizer::fit(&rows))
        } else {
            None
        };
        Ok(Self {
            choice,
            embedding,
            lstm,
            gcn,
            af_normalizer,
            output_dim,
        })
    }

    /// The combination this stack implements.
    pub fn choice(&self) -> EncoderChoice {
        self.choice
    }

    /// The fitted AF normaliser, when the AF encoder is active.
    pub fn normalizer(&self) -> Option<&FeatureNormalizer> {
        self.af_normalizer.as_ref()
    }

    /// Replaces the AF normaliser (used when restoring a saved model).
    pub fn set_normalizer(&mut self, normalizer: FeatureNormalizer) {
        self.af_normalizer = Some(normalizer);
    }

    /// Width of the concatenated representation.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The token embedding, when the LSTM encoder is active (used by the
    /// frozen compile pass).
    pub(crate) fn embedding(&self) -> Option<&Embedding> {
        self.embedding.as_ref()
    }

    /// The LSTM, when active (used by the frozen compile pass).
    pub(crate) fn lstm(&self) -> Option<&Lstm> {
        self.lstm.as_ref()
    }

    /// The GCN stack (empty when the GCN encoder is inactive; used by the
    /// frozen compile pass).
    pub(crate) fn gcn_layers(&self) -> &[GcnLayer] {
        &self.gcn
    }

    /// Encodes a batch of architectures into a `[batch, output_dim]` node.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; panics never (shapes are fixed by
    /// the cache configuration).
    pub fn forward(
        &self,
        binder: &mut Binder<'_, '_>,
        cache: &EncodingCache,
        archs: &[Architecture],
    ) -> Result<Var> {
        let batch = archs.len();
        let mut encodings = Vec::with_capacity(batch);
        for arch in archs {
            encodings.push(cache.encoding(arch)?);
        }
        let mut parts = binder.tape().scratch_vars();
        if !self.gcn.is_empty() {
            let nodes = cache.nodes();
            // every sample's node features, stacked in pooled tape storage
            let mut stacked = binder.tape().alloc(batch * nodes, NODE_FEATURE_DIM);
            for (block, e) in stacked
                .as_mut_slice()
                .chunks_exact_mut(nodes * NODE_FEATURE_DIM)
                .zip(&encodings)
            {
                block.copy_from_slice(e.graph.features.as_slice());
            }
            // shared references into the cache: the layer copies them into
            // pooled tape storage itself, so no deep clones here
            let adjacency: Vec<&Matrix> = encodings.iter().map(|e| &e.graph.adjacency).collect();
            let mut h = binder.input(stacked);
            for layer in &self.gcn {
                h = layer.forward(binder, h, &adjacency, nodes)?;
            }
            // read out each sample's global node
            let rows: Vec<usize> = encodings
                .iter()
                .enumerate()
                .map(|(b, e)| b * nodes + e.graph.global_node())
                .collect();
            let pooled = binder
                .tape()
                .gather_rows(h, &rows)
                .map_err(hwpr_nn::NnError::from)?;
            parts.push(pooled);
        }
        if let (Some(embedding), Some(lstm)) = (&self.embedding, &self.lstm) {
            let seq_len = cache.seq_len();
            // pooled step list + one id staging buffer reused per timestep
            let mut steps = binder.tape().scratch_vars();
            let mut ids: Vec<usize> = Vec::with_capacity(batch);
            for t in 0..seq_len {
                ids.clear();
                ids.extend(encodings.iter().map(|e| e.tokens[t]));
                steps.push(embedding.forward(binder, &ids)?);
            }
            parts.push(lstm.forward(binder, &steps)?);
            binder.tape().recycle_vars(steps);
        }
        if let Some(norm) = &self.af_normalizer {
            let mut af = binder.tape().alloc(batch, ARCH_FEATURE_DIM);
            for (b, e) in encodings.iter().enumerate() {
                norm.transform_into(&e.af, af.row_mut(b));
            }
            parts.push(binder.input(af));
        }
        let out = match parts[..] {
            [only] => only,
            _ => binder
                .tape()
                .concat_cols(&parts)
                .map_err(hwpr_nn::NnError::from)?,
        };
        binder.tape().recycle_vars(parts);
        Ok(out)
    }

    /// Encodes `archs` on `tape`, in chunks of at most `chunk` rows, into
    /// one `[archs.len(), output_dim]` matrix: the representation a head
    /// trains on while this encoder is frozen. No encoder layer mixes
    /// rows, so each row holds the bits [`Self::forward`] gives that
    /// architecture in any batch (pinned by
    /// `encoder_rows_do_not_depend_on_their_batch`).
    ///
    /// # Errors
    ///
    /// As [`Self::forward`].
    pub(crate) fn encode_rows(
        &self,
        tape: &mut Tape,
        params: &Params,
        cache: &EncodingCache,
        archs: &[Architecture],
        chunk: usize,
    ) -> Result<Matrix> {
        let mut rows = Matrix::zeros(archs.len(), self.output_dim);
        for (i, part) in archs.chunks(chunk).enumerate() {
            tape.reset();
            let mut binder = Binder::new(tape, params);
            let out = self.forward(&mut binder, cache, part)?;
            rows.rows_mut(i * chunk, part.len())
                .copy_from_slice(binder.tape().value(out).as_slice());
        }
        Ok(rows)
    }
}

/// A leaf on `binder`'s tape holding rows `indices` of `rows`, in the
/// tape's pooled storage: a batch of encoder rows cached by
/// [`EncoderSet::encode_rows`].
pub(crate) fn gather_leaf(binder: &mut Binder<'_, '_>, rows: &Matrix, indices: &[usize]) -> Var {
    let mut batch = binder.tape().alloc(indices.len(), rows.cols());
    for (b, &i) in indices.iter().enumerate() {
        batch.row_mut(b).copy_from_slice(rows.row(i));
    }
    binder.input(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_nasbench::{Dataset, SearchSpaceId};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(choice: EncoderChoice) -> (Params, EncoderSet, EncodingCache, Vec<Architecture>) {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let archs: Vec<Architecture> = (0..8)
            .map(|_| Architecture::random(SearchSpaceId::NasBench201, &mut rng))
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
        (params, enc, cache, archs)
    }

    fn run(choice: EncoderChoice) -> (usize, usize) {
        let (params, enc, cache, archs) = setup(choice);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let out = enc.forward(&mut binder, &cache, &archs).unwrap();
        let shape = tape.value(out).shape();
        assert_eq!(shape.1, enc.output_dim());
        shape
    }

    #[test]
    fn af_only_outputs_features() {
        let (rows, cols) = run(EncoderChoice::AF);
        assert_eq!((rows, cols), (8, ARCH_FEATURE_DIM));
    }

    #[test]
    fn lstm_only_outputs_hidden() {
        let cfg = ModelConfig::tiny();
        let (rows, cols) = run(EncoderChoice::LSTM);
        assert_eq!((rows, cols), (8, cfg.lstm_hidden));
    }

    #[test]
    fn gcn_only_outputs_hidden() {
        let cfg = ModelConfig::tiny();
        let (rows, cols) = run(EncoderChoice::GCN);
        assert_eq!((rows, cols), (8, cfg.gcn_hidden));
    }

    #[test]
    fn combos_concatenate() {
        let cfg = ModelConfig::tiny();
        let (_, cols) = run(EncoderChoice::GCN_AF);
        assert_eq!(cols, cfg.gcn_hidden + ARCH_FEATURE_DIM);
        let (_, cols) = run(EncoderChoice::LSTM_AF);
        assert_eq!(cols, cfg.lstm_hidden + ARCH_FEATURE_DIM);
        let (_, cols) = run(EncoderChoice::ALL);
        assert_eq!(cols, cfg.gcn_hidden + cfg.lstm_hidden + ARCH_FEATURE_DIM);
    }

    #[test]
    fn af_without_training_archs_errors() {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let mut params = Params::new();
        assert!(EncoderSet::new(
            &mut params,
            "enc",
            &ModelConfig::tiny(),
            EncoderChoice::AF,
            &cache,
            &[],
        )
        .is_err());
    }

    #[test]
    fn distinct_archs_encode_differently() {
        let (params, enc, cache, _) = setup(EncoderChoice::ALL);
        let a = Architecture::nb201_from_index(0).unwrap();
        let b = Architecture::nb201_from_index(15_624).unwrap();
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let out = enc.forward(&mut binder, &cache, &[a, b]).unwrap();
        let v = tape.value(out);
        assert_ne!(v.row(0), v.row(1));
    }

    #[test]
    fn display_labels() {
        assert_eq!(EncoderChoice::AF.to_string(), "AF");
        assert_eq!(EncoderChoice::GCN_AF.to_string(), "GCN+AF");
        assert_eq!(EncoderChoice::LSTM_AF.to_string(), "LSTM+AF");
        assert_eq!(EncoderChoice::ALL.to_string(), "GCN+LSTM+AF");
        assert_eq!(EncoderChoice::FIG4_VARIANTS.len(), 5);
    }

    #[test]
    fn gradients_flow_through_encoders() {
        let (params, enc, cache, archs) = setup(EncoderChoice::ALL);
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &params);
        let out = enc.forward(&mut binder, &cache, &archs).unwrap();
        let loss = binder.tape().mean_all(out);
        let grads = binder.finish(loss).unwrap();
        let live = grads.iter().filter(|g| g.is_some()).count();
        // embedding + lstm (1 layer x 3) + 2 gcn layers x 2 params
        assert!(live >= 7, "only {live} parameters got gradients");
    }
}
