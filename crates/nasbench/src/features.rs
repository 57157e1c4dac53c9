//! Manual Architecture Features (AF) — §III-C(1) of the paper.

use crate::arch::Architecture;
use crate::profile::profile;
use crate::Dataset;
use serde::{Deserialize, Serialize};

/// The eight manual features the paper extracts: FLOPs, parameters,
/// number of convolutions, input size, depth, first/last channel sizes
/// and number of downsampling ops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchFeatures {
    /// Total FLOPs of the network.
    pub flops: f64,
    /// Total trainable parameters.
    pub params: f64,
    /// Number of convolution ops.
    pub conv_count: f64,
    /// Input spatial resolution.
    pub input_size: f64,
    /// Effective depth (data-transforming ops).
    pub depth: f64,
    /// Channel width after the stem.
    pub first_channels: f64,
    /// Channel width before the classifier.
    pub last_channels: f64,
    /// Number of resolution-reducing ops.
    pub downsample_count: f64,
}

/// Dimension of the AF vector.
pub const ARCH_FEATURE_DIM: usize = 8;

impl ArchFeatures {
    /// Extracts the features of `arch` on `dataset` via the profiler.
    pub fn extract(arch: &Architecture, dataset: Dataset) -> Self {
        let p = profile(arch, dataset);
        let first_channels = p
            .ops
            .first()
            .map(|o| o.out_channels as f64)
            .unwrap_or_default();
        let last_channels = p
            .ops
            .last()
            .map(|o| o.in_channels as f64)
            .unwrap_or_default();
        Self {
            flops: p.total_flops(),
            params: p.total_params(),
            conv_count: p.conv_count() as f64,
            input_size: dataset.input_size() as f64,
            depth: p.effective_depth() as f64,
            first_channels,
            last_channels,
            downsample_count: p.downsample_count() as f64,
        }
    }

    /// The features as a raw vector (fixed order, length
    /// [`ARCH_FEATURE_DIM`]).
    pub fn to_vec(self) -> Vec<f32> {
        vec![
            self.flops as f32,
            self.params as f32,
            self.conv_count as f32,
            self.input_size as f32,
            self.depth as f32,
            self.first_channels as f32,
            self.last_channels as f32,
            self.downsample_count as f32,
        ]
    }
}

/// Per-dimension affine normaliser fit on a training set, mapping features
/// to approximately `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureNormalizer {
    mins: Vec<f32>,
    spans: Vec<f32>,
}

impl FeatureNormalizer {
    /// Fits min/max bounds over `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer on no rows");
        let dim = rows[0].len();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for r in rows {
            assert_eq!(r.len(), dim, "ragged feature rows");
            for ((mn, mx), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(r) {
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        let spans = mins
            .iter()
            .zip(&maxs)
            .map(|(&mn, &mx)| if mx > mn { mx - mn } else { 1.0 })
            .collect();
        Self { mins, spans }
    }

    /// Normalises one row into the caller's buffer.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `out` has the wrong dimension.
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(row.len(), self.mins.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mins.len(), "dimension mismatch");
        for (o, (&v, (&mn, &span))) in out
            .iter_mut()
            .zip(row.iter().zip(self.mins.iter().zip(&self.spans)))
        {
            *o = (v - mn) / span;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Nb201Op;
    use crate::SearchSpaceId;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn feature_vector_has_fixed_dim() {
        let arch = Architecture::nb201([Nb201Op::NorConv3x3; 6]);
        let f = ArchFeatures::extract(&arch, Dataset::Cifar10);
        assert_eq!(f.to_vec().len(), ARCH_FEATURE_DIM);
        assert!(f.flops > 0.0);
        assert_eq!(f.input_size, 32.0);
        assert_eq!(f.first_channels, 16.0);
    }

    #[test]
    fn conv_heavy_arch_has_more_convs() {
        let convs = ArchFeatures::extract(
            &Architecture::nb201([Nb201Op::NorConv3x3; 6]),
            Dataset::Cifar10,
        );
        let skips = ArchFeatures::extract(
            &Architecture::nb201([Nb201Op::SkipConnect; 6]),
            Dataset::Cifar10,
        );
        assert!(convs.conv_count > skips.conv_count);
        assert!(convs.depth > skips.depth);
    }

    #[test]
    fn normalizer_maps_to_unit_box() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let rows: Vec<Vec<f32>> = (0..20)
            .map(|_| {
                let a = Architecture::random(SearchSpaceId::NasBench201, &mut rng);
                ArchFeatures::extract(&a, Dataset::Cifar10).to_vec()
            })
            .collect();
        let norm = FeatureNormalizer::fit(&rows);
        let mut out = vec![0.0; ARCH_FEATURE_DIM];
        for r in &rows {
            norm.transform_into(r, &mut out);
            for &v in &out {
                assert!((-1e-6..=1.0 + 1e-6).contains(&v), "out of box: {v}");
            }
        }
    }

    #[test]
    fn normalizer_constant_dim_is_stable() {
        let rows = vec![vec![3.0, 1.0], vec![3.0, 2.0]];
        let norm = FeatureNormalizer::fit(&rows);
        let mut t = [0.0; 2];
        norm.transform_into(&[3.0, 1.5], &mut t);
        assert_eq!(t[0], 0.0); // constant dim maps to 0, no NaN
        assert!((t[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn normalizer_rejects_wrong_dim() {
        let norm = FeatureNormalizer::fit(&[vec![1.0], vec![2.0]]);
        norm.transform_into(&[1.0, 2.0], &mut [0.0; 2]);
    }
}
