//! Training data containers and the per-architecture encoding cache.

use crate::{CoreError, Result};
use hwpr_hwmodel::{BenchEntry, Platform, SimBench};
use hwpr_nasbench::features::ArchFeatures;
use hwpr_nasbench::graph::{self, ArchGraph};
use hwpr_nasbench::{tokens, Architecture, Dataset, SearchSpaceId};
use hwpr_tensor::Matrix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One labelled architecture: the supervision HW-PR-NAS trains on.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSample {
    /// The architecture.
    pub arch: Architecture,
    /// Measured (here: simulated-benchmark) accuracy in percent.
    pub accuracy: f64,
    /// Measured latency on the target platform in milliseconds.
    pub latency_ms: f64,
    /// Measured energy on the target platform in millijoules.
    pub energy_mj: f64,
}

impl ArchSample {
    /// The minimisation objectives `[error %, latency ms]`.
    pub fn objectives(&self) -> Vec<f64> {
        vec![100.0 - self.accuracy, self.latency_ms]
    }

    /// The three-objective vector `[error %, latency ms, energy mJ]`.
    pub fn objectives3(&self) -> Vec<f64> {
        vec![100.0 - self.accuracy, self.latency_ms, self.energy_mj]
    }
}

/// A labelled dataset bound to one image dataset and one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateDataset {
    samples: Vec<ArchSample>,
    dataset: Dataset,
    platform: Platform,
}

impl SurrogateDataset {
    /// Builds a dataset from benchmark rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] when `bench` is empty.
    pub fn from_simbench(bench: &SimBench, dataset: Dataset, platform: Platform) -> Result<Self> {
        Self::from_entries(bench.entries(), dataset, platform)
    }

    /// Builds a dataset from a subset of benchmark rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] when `entries` is empty.
    pub fn from_entries(
        entries: &[BenchEntry],
        dataset: Dataset,
        platform: Platform,
    ) -> Result<Self> {
        if entries.is_empty() {
            return Err(CoreError::Data("no benchmark entries".into()));
        }
        let samples = entries
            .iter()
            .map(|e| ArchSample {
                arch: e.arch().clone(),
                accuracy: e.accuracy(dataset),
                latency_ms: e.latency_on(dataset, platform),
                energy_mj: e.energy_on(dataset, platform),
            })
            .collect();
        Ok(Self {
            samples,
            dataset,
            platform,
        })
    }

    /// Builds a dataset directly from samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] when `samples` is empty.
    pub fn from_samples(
        samples: Vec<ArchSample>,
        dataset: Dataset,
        platform: Platform,
    ) -> Result<Self> {
        if samples.is_empty() {
            return Err(CoreError::Data("no samples".into()));
        }
        Ok(Self {
            samples,
            dataset,
            platform,
        })
    }

    /// The labelled samples.
    pub fn samples(&self) -> &[ArchSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The image dataset the accuracies refer to.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The platform the latencies refer to.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Largest latency in the set (used to normalise regression targets).
    pub fn max_latency(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.latency_ms)
            .fold(0.0, f64::max)
    }

    /// Deterministic train/validation split.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] if either side would be empty.
    pub fn split(&self, val_fraction: f32, seed: u64) -> Result<(Self, Self)> {
        let (train_idx, val_idx) = hwpr_nn::batch::train_val_split(self.len(), val_fraction, seed);
        if train_idx.is_empty() || val_idx.is_empty() {
            return Err(CoreError::Data(format!(
                "split {val_fraction} of {} samples leaves one side empty",
                self.len()
            )));
        }
        let pick = |idx: &[usize]| Self {
            samples: idx.iter().map(|&i| self.samples[i].clone()).collect(),
            dataset: self.dataset,
            platform: self.platform,
        };
        Ok((pick(&train_idx), pick(&val_idx)))
    }
}

/// All three encodings of one architecture, computed once.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEncoding {
    /// Graph encoding (padded to the cache's node count).
    pub graph: ArchGraph,
    /// Token sequence (padded to the cache's sequence length).
    pub tokens: Vec<usize>,
    /// Raw (unnormalised) architecture features.
    pub af: Vec<f32>,
    /// First-layer GCN aggregation `A @ X` (`nodes x NODE_FEATURE_DIM`):
    /// weight-independent, so it is computed once per architecture here
    /// instead of once per chunk in the inference hot loop. Produced by
    /// the same accumulation kernel the live path runs
    /// ([`Matrix::block_left_matmul_each_into`] on a single block), so
    /// consuming it is bit-identical to aggregating in place.
    pub agg: Matrix,
}

/// Multiply-fold hasher for the cache key. The entries map is probed for
/// every architecture of every inference chunk, and the default SipHash
/// showed up in the frozen sweep profile; the key is a tiny
/// `(space, index)` pair that needs no DoS resistance (indices come from
/// the bounded search spaces, not attacker input).
#[derive(Default)]
struct ArchKeyHasher(u64);

impl ArchKeyHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        // golden-ratio multiply-fold (FxHash-style): two rounds cover the
        // u128 index, one the space discriminant
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(5);
    }
}

impl std::hash::Hasher for ArchKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.fold(v as u64);
    }
}

type ArchKeyMap = HashMap<
    (SearchSpaceId, u128),
    Arc<CachedEncoding>,
    std::hash::BuildHasherDefault<ArchKeyHasher>,
>;

/// Thread-safe memoisation of architecture encodings.
///
/// Encoding an architecture (profiling + graph building) costs far more
/// than a surrogate forward pass, and the MOEA re-scores populations every
/// generation; the cache makes repeat scoring cheap.
#[derive(Debug)]
pub struct EncodingCache {
    dataset: Dataset,
    nodes: usize,
    seq_len: usize,
    entries: Mutex<ArchKeyMap>,
}

impl EncodingCache {
    /// Creates a cache that pads graphs to `nodes` and token sequences to
    /// `seq_len`; `dataset` fixes the input resolution for AF extraction.
    pub fn new(dataset: Dataset, nodes: usize, seq_len: usize) -> Self {
        Self {
            dataset,
            nodes,
            seq_len,
            entries: Mutex::new(ArchKeyMap::default()),
        }
    }

    /// A cache sized for a single search space (natural node count and
    /// sequence length — no padding waste).
    pub fn for_space(space: SearchSpaceId, dataset: Dataset) -> Self {
        match space {
            SearchSpaceId::NasBench201 => Self::new(dataset, graph::NB201_NODES, 6),
            SearchSpaceId::FBNet => Self::new(dataset, graph::FBNET_NODES, 22),
        }
    }

    /// A cache sized to hold both spaces in one batch layout.
    pub fn for_mixed(dataset: Dataset) -> Self {
        Self::new(dataset, graph::FBNET_NODES, tokens::MAX_SEQUENCE_LEN)
    }

    /// Graph node count used by this cache.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Token sequence length used by this cache.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The dataset (input resolution) AF features are extracted at.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// Checks that `arch` fits this cache's padding: its natural graph
    /// and token sequence are no longer than the cache's node count and
    /// sequence length. A single-space cache takes its own space, a
    /// mixed-space cache both.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] for an architecture from a search
    /// space the cache was not sized for.
    pub fn check_fits(&self, arch: &Architecture) -> Result<()> {
        let seq_len = match arch {
            Architecture::Nb201(ops) => ops.len(),
            Architecture::Fbnet(ops) => ops.len(),
        };
        let nodes = graph::natural_nodes(arch);
        if nodes > self.nodes || seq_len > self.seq_len {
            return Err(CoreError::Data(format!(
                "{} architecture ({nodes} nodes, {seq_len} tokens) does not fit \
                 this model's encoding ({} nodes, {} tokens)",
                arch.space(),
                self.nodes,
                self.seq_len
            )));
        }
        Ok(())
    }

    /// The encoding of `arch`, computed on first use.
    ///
    /// Returned behind an [`Arc`] so repeat lookups (every training batch,
    /// every MOEA generation) share one materialised encoding instead of
    /// deep-cloning matrices and token buffers.
    ///
    /// # Errors
    ///
    /// As [`Self::check_fits`], which runs only when `arch` is not cached
    /// yet, so warm lookups pay nothing for it.
    pub fn encoding(&self, arch: &Architecture) -> Result<Arc<CachedEncoding>> {
        let key = (arch.space(), arch.index());
        if let Some(hit) = self.entries.lock().get(&key) {
            return Ok(Arc::clone(hit));
        }
        self.check_fits(arch)?;
        let enc = self.build(arch);
        self.entries.lock().insert(key, Arc::clone(&enc));
        Ok(enc)
    }

    /// The encodings of a whole batch under **one** cache lock.
    ///
    /// The inference hot loop looks up every architecture of every chunk;
    /// taking the entries lock (and paying its fence) per architecture
    /// showed up as a top-three cost in the frozen sweep profile. The
    /// batch form locks once for the warm all-hits case (allocation-free
    /// when `out` keeps its capacity); any miss falls back to the
    /// per-architecture path, which happens at most once per architecture
    /// ever.
    ///
    /// # Errors
    ///
    /// As [`Self::encoding`].
    pub fn encodings_into(
        &self,
        archs: &[Architecture],
        out: &mut Vec<Arc<CachedEncoding>>,
    ) -> Result<()> {
        out.clear();
        out.reserve(archs.len());
        {
            let entries = self.entries.lock();
            for arch in archs {
                match entries.get(&(arch.space(), arch.index())) {
                    Some(hit) => out.push(Arc::clone(hit)),
                    None => break,
                }
            }
        }
        if out.len() == archs.len() {
            return Ok(());
        }
        // cold path: at least one architecture has never been encoded
        out.clear();
        for arch in archs {
            out.push(self.encoding(arch)?);
        }
        Ok(())
    }

    fn build(&self, arch: &Architecture) -> Arc<CachedEncoding> {
        let graph = graph::encode_padded(arch, self.nodes);
        let mut agg = Matrix::zeros(self.nodes, graph.features.cols());
        graph
            .features
            .block_left_matmul_each_into(1, self.nodes, |_| &graph.adjacency, &mut agg)
            .expect("encoding shapes are cache-consistent");
        Arc::new(CachedEncoding {
            graph,
            tokens: tokens::padded_tokens(arch, self.seq_len),
            af: ArchFeatures::extract(arch, self.dataset).to_vec(),
            agg,
        })
    }

    /// Number of memoised architectures.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_hwmodel::SimBenchConfig;

    fn bench() -> SimBench {
        SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(24),
            seed: 1,
        })
    }

    #[test]
    fn dataset_from_simbench() {
        let ds =
            SurrogateDataset::from_simbench(&bench(), Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        assert_eq!(ds.len(), 24);
        assert_eq!(ds.dataset(), Dataset::Cifar10);
        assert_eq!(ds.platform(), Platform::EdgeGpu);
        assert!(ds.max_latency() > 0.0);
        let s = &ds.samples()[0];
        assert_eq!(s.objectives().len(), 2);
        assert_eq!(s.objectives3().len(), 3);
        assert!((s.objectives()[0] - (100.0 - s.accuracy)).abs() < 1e-12);
    }

    #[test]
    fn split_partitions_samples() {
        let ds =
            SurrogateDataset::from_simbench(&bench(), Dataset::Cifar10, Platform::Pixel3).unwrap();
        let (train, val) = ds.split(0.25, 0).unwrap();
        assert_eq!(train.len() + val.len(), 24);
        assert_eq!(val.len(), 6);
        assert!(ds.split(0.0, 0).is_err());
    }

    #[test]
    fn empty_sources_rejected() {
        assert!(SurrogateDataset::from_entries(&[], Dataset::Cifar10, Platform::EdgeGpu).is_err());
        assert!(
            SurrogateDataset::from_samples(vec![], Dataset::Cifar10, Platform::EdgeGpu).is_err()
        );
    }

    #[test]
    fn cache_memoises() {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let arch = Architecture::nb201_from_index(11).unwrap();
        assert!(cache.is_empty());
        let a = cache.encoding(&arch).unwrap();
        let b = cache.encoding(&arch).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(a.tokens.len(), 6);
        assert_eq!(a.graph.node_count(), graph::NB201_NODES);
        assert_eq!(a.af.len(), hwpr_nasbench::features::ARCH_FEATURE_DIM);
    }

    #[test]
    fn mixed_cache_pads_both_spaces() {
        let cache = EncodingCache::for_mixed(Dataset::Cifar100);
        let nb = Architecture::nb201_from_index(0).unwrap();
        let enc = cache.encoding(&nb).unwrap();
        assert_eq!(enc.graph.node_count(), graph::FBNET_NODES);
        assert_eq!(enc.tokens.len(), tokens::MAX_SEQUENCE_LEN);
        assert_eq!(cache.nodes(), graph::FBNET_NODES);
        assert_eq!(cache.seq_len(), 22);
        assert_eq!(cache.dataset(), Dataset::Cifar100);
        let fb = Architecture::fbnet_from_index(0).unwrap();
        assert!(cache.encoding(&fb).is_ok(), "mixed caches take both spaces");
    }

    #[test]
    fn foreign_architectures_are_a_data_error() {
        let cache = EncodingCache::for_space(SearchSpaceId::NasBench201, Dataset::Cifar10);
        let nb = Architecture::nb201_from_index(3).unwrap();
        let fb = Architecture::fbnet_from_index(3).unwrap();
        assert!(matches!(cache.encoding(&fb), Err(CoreError::Data(_))));
        let mut out = Vec::new();
        let batch = [nb, fb];
        assert!(matches!(
            cache.encodings_into(&batch, &mut out),
            Err(CoreError::Data(_))
        ));
        // the architecture before the foreign one is still encoded
        assert_eq!(cache.len(), 1);
        // the smaller NAS-Bench-201 cell pads into an FBNet-sized cache
        let fb_cache = EncodingCache::for_space(SearchSpaceId::FBNet, Dataset::Cifar10);
        assert!(fb_cache.check_fits(&batch[0]).is_ok());
    }
}
