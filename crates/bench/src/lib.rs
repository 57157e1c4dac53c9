//! Shared fixtures for the criterion benchmarks (one bench target per
//! experiment kernel; see `benches/`).

#![warn(missing_docs)]
use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small benchmark table reused across bench targets.
pub fn fixture_bench(n: usize) -> SimBench {
    SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(n),
        seed: 1234,
    })
}

/// A training dataset on CIFAR-10 / Edge GPU.
pub fn fixture_dataset(n: usize) -> SurrogateDataset {
    SurrogateDataset::from_simbench(&fixture_bench(n), Dataset::Cifar10, Platform::EdgeGpu)
        .expect("bench is non-empty")
}

/// A quickly trained HW-PR-NAS model for inference benchmarks.
pub fn fixture_model(n: usize) -> HwPrNas {
    let data = fixture_dataset(n);
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny())
        .expect("training fixture failed");
    model
}

/// Deterministic random architectures.
pub fn fixture_archs(space: SearchSpaceId, n: usize) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    (0..n)
        .map(|_| Architecture::random(space, &mut rng))
        .collect()
}

/// Deterministic random objective vectors for MOO kernels.
pub fn fixture_objectives(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut state = 0x1234_5678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64
    };
    (0..n)
        .map(|_| (0..dim).map(|_| next() * 100.0).collect())
        .collect()
}
