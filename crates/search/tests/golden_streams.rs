//! Golden seed streams: seeded `Moea` and `random_search` runs with each
//! of the three fitness kinds, and one `IslandSearch` run, pinned to
//! literal final populations and evaluation counts. A refactor of the
//! selection policy (keys, tournament, survivor rule, fitness buffer)
//! must leave every value here unchanged; the `deterministic_given_seed`
//! unit tests only compare a run with itself.
//!
//! The evaluators are pure functions of the architecture, in integer
//! arithmetic where they can be, so the literals do not depend on the
//! host's vector width.

use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_search::{
    random_search, share_objectives, Evaluator, Fitness, IslandConfig, IslandSearch,
    MeasuredEvaluator, Moea, MoeaConfig, RandomSearchConfig, ScoreEvaluator, SearchClock,
    SearchResult,
};
use std::collections::HashSet;

/// Scores only: a mixing function of the architecture index.
fn score_stub() -> ScoreEvaluator {
    ScoreEvaluator::from_fn(
        "score-stub",
        Box::new(|archs| Ok(archs.iter().map(|a| mix(a.index()) as f64).collect())),
    )
}

/// Objectives: the true benchmark values of a fixed synthetic table.
fn measured() -> MeasuredEvaluator {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(8),
        seed: 2,
    });
    MeasuredEvaluator::for_bench(&bench, Dataset::Cifar10, Platform::EdgeGpu)
}

/// Scores plus two antagonistic objectives from one call, memoised so
/// it reports `calls_made` like the fused surrogate's cache does.
#[derive(Default)]
struct RankedStub {
    seen: HashSet<Architecture>,
}

impl Evaluator for RankedStub {
    fn name(&self) -> String {
        "ranked-stub".to_string()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        _clock: &mut SearchClock,
    ) -> hwpr_search::Result<Fitness> {
        let mut scores = Vec::with_capacity(archs.len());
        let mut objectives = Vec::with_capacity(archs.len());
        for arch in archs {
            self.seen.insert(arch.clone());
            let h = mix(arch.index());
            let x = (h % 1000) as f64;
            scores.push(((h >> 10) % 97) as f64 + x / 1000.0);
            objectives.push(vec![x, 1000.0 - x + ((h >> 20) % 50) as f64]);
        }
        Ok(Fitness::Ranked {
            scores,
            objectives: share_objectives(objectives),
        })
    }

    fn calls_per_arch(&self) -> usize {
        1
    }

    fn calls_made(&self) -> Option<u64> {
        Some(self.seen.len() as u64)
    }
}

/// SplitMix64's finaliser over the low 64 bits of an index.
fn mix(index: u128) -> u64 {
    let mut z = (index as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}

fn moea(seed: u64, spaces: Vec<SearchSpaceId>, evaluator: &mut dyn Evaluator) -> SearchResult {
    let cfg = MoeaConfig {
        population: 8,
        generations: 6,
        spaces,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(seed);
    Moea::new(cfg).unwrap().run(evaluator).unwrap()
}

fn random(seed: u64, spaces: Vec<SearchSpaceId>, evaluator: &mut dyn Evaluator) -> SearchResult {
    // 600 samples: two evaluation chunks (512 + 88)
    let cfg = RandomSearchConfig {
        samples: 600,
        keep: 8,
        spaces,
        ..RandomSearchConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(seed);
    random_search(&cfg, evaluator).unwrap()
}

fn assert_golden(result: &SearchResult, population: &[&str], evaluations: usize, calls: usize) {
    let got: Vec<String> = result
        .population
        .iter()
        .map(Architecture::to_arch_string)
        .collect();
    assert_eq!(got, population, "final population diverged");
    assert_eq!(result.evaluations, evaluations, "evaluations diverged");
    assert_eq!(result.surrogate_calls, calls, "surrogate calls diverged");
}

const NB201: SearchSpaceId = SearchSpaceId::NasBench201;
const FBNET: SearchSpaceId = SearchSpaceId::FBNet;

#[test]
fn moea_scores() {
    assert_golden(
        &moea(3, vec![NB201], &mut score_stub()),
        &[
            "|none~0|+|avg_pool_3x3~0|none~1|+|avg_pool_3x3~0|skip_connect~1|avg_pool_3x3~2|",
            "|none~0|+|avg_pool_3x3~0|none~1|+|nor_conv_3x3~0|skip_connect~1|avg_pool_3x3~2|",
            "|nor_conv_3x3~0|+|none~0|avg_pool_3x3~1|+|nor_conv_1x1~0|nor_conv_1x1~1|none~2|",
            "|avg_pool_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+|none~0|nor_conv_1x1~1|none~2|",
            "|none~0|+|nor_conv_1x1~0|none~1|+|nor_conv_3x3~0|skip_connect~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|none~0|avg_pool_3x3~1|+|nor_conv_1x1~0|nor_conv_1x1~1|none~2|",
            "|none~0|+|avg_pool_3x3~0|none~1|+|nor_conv_3x3~0|skip_connect~1|nor_conv_1x1~2|",
            "|avg_pool_3x3~0|+|avg_pool_3x3~0|skip_connect~1|+|avg_pool_3x3~0|avg_pool_3x3~1|nor_conv_1x1~2|",
        ],
        56,
        56,
    );
}

#[test]
fn moea_objectives() {
    assert_golden(
        &moea(5, vec![NB201], &mut measured()),
        &[
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_3x3~1|+|skip_connect~0|nor_conv_3x3~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|avg_pool_3x3~0|none~1|+|none~0|none~1|none~2|",
            "|none~0|+|none~0|nor_conv_1x1~1|+|skip_connect~0|skip_connect~1|nor_conv_1x1~2|",
            "|nor_conv_3x3~0|+|none~0|nor_conv_1x1~1|+|none~0|none~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_1x1~1|+|skip_connect~0|skip_connect~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_3x3~1|+|skip_connect~0|skip_connect~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_3x3~1|+|skip_connect~0|nor_conv_1x1~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|skip_connect~0|nor_conv_1x1~1|+|skip_connect~0|avg_pool_3x3~1|nor_conv_1x1~2|",
        ],
        56,
        0,
    );
}

#[test]
fn moea_ranked() {
    assert_golden(
        &moea(7, vec![NB201, FBNET], &mut RankedStub::default()),
        &[
            "fbnet:|k3_e6|k5_e3|k5_e6|k3_e1_g2|k5_e1|k5_e1|k3_e1_g2|k5_e6|k5_e6|k5_e1_g2|k3_e1|k5_e3|k5_e6|k5_e6|k3_e1|k3_e1_g2|k5_e6|k3_e1|k3_e1|k5_e1|k5_e1|skip|",
            "|nor_conv_1x1~0|+|none~0|avg_pool_3x3~1|+|nor_conv_3x3~0|none~1|avg_pool_3x3~2|",
            "|nor_conv_1x1~0|+|skip_connect~0|avg_pool_3x3~1|+|nor_conv_3x3~0|nor_conv_3x3~1|nor_conv_1x1~2|",
            "fbnet:|k3_e6|k5_e3|k5_e6|k3_e1_g2|k5_e1|k5_e1|k3_e1_g2|k5_e6|k5_e6|k5_e1_g2|k3_e1|k5_e3|k5_e6|k5_e6|k3_e1|k3_e1_g2|k5_e6|k3_e1|k5_e3|k5_e1|k5_e1|k3_e6|",
            "fbnet:|k3_e6|k5_e3|k5_e6|k3_e1_g2|k5_e1|k5_e1|k3_e1_g2|k5_e6|k3_e1_g2|k5_e1_g2|k3_e1|k5_e3|k5_e6|k5_e6|k3_e1|k3_e1_g2|k5_e6|k3_e1|k3_e1|k5_e1|k5_e1|k3_e6|",
            "|nor_conv_1x1~0|+|avg_pool_3x3~0|avg_pool_3x3~1|+|nor_conv_3x3~0|nor_conv_3x3~1|nor_conv_1x1~2|",
            "fbnet:|k3_e6|k5_e3|k5_e6|k3_e1_g2|k5_e1|k3_e6|k3_e1_g2|k5_e6|k3_e1_g2|k5_e1_g2|k3_e1|k5_e1_g2|k5_e6|k5_e6|k3_e1|k3_e1_g2|k5_e6|k3_e1|k3_e1|k5_e1|k5_e1|k3_e6|",
            "fbnet:|k3_e6|k5_e3|k5_e6|k3_e1_g2|k5_e1|k3_e6|k3_e1_g2|k5_e6|k3_e1_g2|k5_e1_g2|k3_e1|k5_e3|k5_e6|k5_e6|k3_e1|k3_e1_g2|k5_e6|k3_e1|k3_e1|k5_e1|k5_e1|k3_e6|",
        ],
        56,
        51,
    );
}

#[test]
fn random_scores() {
    assert_golden(
        &random(11, vec![NB201], &mut score_stub()),
        &[
            "|none~0|+|avg_pool_3x3~0|none~1|+|avg_pool_3x3~0|nor_conv_3x3~1|none~2|",
            "|avg_pool_3x3~0|+|none~0|nor_conv_1x1~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
            "|avg_pool_3x3~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|avg_pool_3x3~0|nor_conv_1x1~1|none~2|",
            "|skip_connect~0|+|nor_conv_1x1~0|nor_conv_1x1~1|+|none~0|nor_conv_3x3~1|skip_connect~2|",
            "|skip_connect~0|+|none~0|nor_conv_1x1~1|+|avg_pool_3x3~0|none~1|avg_pool_3x3~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|",
            "|avg_pool_3x3~0|+|nor_conv_1x1~0|avg_pool_3x3~1|+|avg_pool_3x3~0|avg_pool_3x3~1|nor_conv_3x3~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_1x1~1|+|nor_conv_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|",
        ],
        600,
        600,
    );
}

#[test]
fn random_objectives() {
    assert_golden(
        &random(13, vec![NB201], &mut measured()),
        &[
            "|none~0|+|avg_pool_3x3~0|none~1|+|none~0|none~1|none~2|",
            "|nor_conv_3x3~0|+|nor_conv_1x1~0|nor_conv_1x1~1|+|nor_conv_3x3~0|nor_conv_3x3~1|nor_conv_3x3~2|",
            "|none~0|+|none~0|skip_connect~1|+|skip_connect~0|none~1|none~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|none~1|+|nor_conv_1x1~0|nor_conv_1x1~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|none~0|nor_conv_1x1~1|+|none~0|nor_conv_1x1~1|nor_conv_1x1~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_3x3~2|",
            "|nor_conv_1x1~0|+|nor_conv_1x1~0|none~1|+|nor_conv_1x1~0|nor_conv_1x1~1|skip_connect~2|",
            "|nor_conv_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|nor_conv_1x1~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        ],
        600,
        0,
    );
}

#[test]
fn random_ranked() {
    assert_golden(
        &random(17, vec![NB201, FBNET], &mut RankedStub::default()),
        &[
            "|none~0|+|nor_conv_3x3~0|none~1|+|skip_connect~0|none~1|none~2|",
            "fbnet:|k5_e3|k5_e3|k3_e1_g2|k5_e1|k3_e6|k5_e3|k5_e3|skip|k3_e6|k3_e1|k3_e1|k3_e1_g2|k3_e6|k3_e1_g2|k5_e1_g2|k5_e1|k3_e1_g2|k3_e6|k5_e1|k5_e3|k5_e3|k3_e6|",
            "fbnet:|k3_e1_g2|skip|k3_e6|skip|k5_e1|k3_e6|k5_e1|k3_e6|skip|k3_e6|k3_e6|skip|k5_e6|skip|k3_e1|k3_e6|skip|k3_e1|k3_e3|k5_e1_g2|k3_e3|k5_e1_g2|",
            "fbnet:|k5_e1_g2|k5_e1_g2|k3_e1|skip|k5_e1|k5_e6|k3_e1|k5_e6|k3_e6|k5_e1_g2|k5_e1|k3_e6|k5_e3|k5_e6|k3_e1|k5_e1|k3_e1|skip|k5_e3|k5_e1_g2|k3_e6|k5_e1|",
            "|skip_connect~0|+|skip_connect~0|none~1|+|avg_pool_3x3~0|none~1|none~2|",
            "|nor_conv_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|nor_conv_3x3~0|nor_conv_3x3~1|avg_pool_3x3~2|",
            "|none~0|+|skip_connect~0|none~1|+|nor_conv_3x3~0|skip_connect~1|nor_conv_3x3~2|",
            "fbnet:|k5_e1_g2|k5_e1_g2|k3_e1|k3_e1|k5_e1_g2|k3_e3|k5_e1_g2|k5_e1_g2|k5_e1_g2|k5_e1|k3_e1_g2|k3_e3|k3_e3|k5_e3|k5_e6|k5_e3|skip|k5_e6|k3_e3|k3_e1|k3_e1|skip|",
        ],
        600,
        596,
    );
}

#[test]
fn islands_ranked() {
    // the island engine runs the same generation step on SplitMix64
    // streams: two islands, ring migration every two generations
    let cfg = IslandConfig {
        spaces: vec![NB201, FBNET],
        ..IslandConfig::small(NB201)
    }
    .with_seed(19);
    let result = IslandSearch::new(cfg)
        .unwrap()
        .run(|_| Box::new(RankedStub::default()))
        .unwrap();
    let got: Vec<String> = result
        .populations
        .iter()
        .flatten()
        .map(Architecture::to_arch_string)
        .collect();
    let expected = [
        "fbnet:|k3_e3|k3_e1|k5_e1|k3_e3|k3_e1|skip|k5_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e3|k3_e3|k3_e3|k3_e6|k5_e1_g2|k5_e6|k5_e6|k5_e3|k3_e1|k5_e3|k3_e6|",
        "|skip_connect~0|+|none~0|avg_pool_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        "fbnet:|k5_e6|k5_e1|k5_e1|k3_e3|skip|skip|k3_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e3|k3_e3|k5_e3|k3_e3|k5_e1_g2|k3_e1|k5_e6|k5_e3|k3_e1|k3_e1|k3_e6|",
        "|none~0|+|skip_connect~0|avg_pool_3x3~1|+|avg_pool_3x3~0|skip_connect~1|avg_pool_3x3~2|",
        "fbnet:|k3_e3|k3_e1|k5_e3|k3_e3|k3_e1_g2|k3_e3|k5_e1_g2|k3_e1|k5_e1|k5_e1|k3_e6|k3_e1_g2|k3_e3|k3_e3|k3_e6|k5_e1|k5_e6|k5_e6|k3_e1|k5_e1|k5_e3|k3_e6|",
        "fbnet:|k5_e6|k5_e1|k5_e1_g2|k3_e3|k3_e1|k5_e1_g2|k5_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e1_g2|k3_e3|k3_e3|k3_e3|k5_e1_g2|k5_e6|k5_e6|k5_e3|k3_e1|k5_e3|k3_e6|",
        "fbnet:|k3_e3|k3_e1|k5_e1|k3_e3|k3_e1_g2|skip|k5_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e3|k3_e3|k3_e3|k3_e6|k5_e1_g2|k5_e6|k5_e6|k5_e3|k3_e1|k5_e3|k3_e6|",
        "|avg_pool_3x3~0|+|none~0|nor_conv_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        "|nor_conv_3x3~0|+|none~0|nor_conv_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        "|nor_conv_1x1~0|+|nor_conv_1x1~0|avg_pool_3x3~1|+|skip_connect~0|avg_pool_3x3~1|nor_conv_3x3~2|",
        "|none~0|+|skip_connect~0|avg_pool_3x3~1|+|avg_pool_3x3~0|skip_connect~1|avg_pool_3x3~2|",
        "|nor_conv_3x3~0|+|none~0|nor_conv_3x3~1|+|nor_conv_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        "fbnet:|k5_e6|k5_e1|k5_e1|k3_e3|skip|skip|k3_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e3|skip|k5_e3|k3_e3|k5_e1_g2|k3_e1|k5_e6|k5_e3|k3_e1|k3_e1|k3_e6|",
        "|skip_connect~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
        "fbnet:|k5_e6|k5_e1|k5_e1|k3_e3|skip|skip|k3_e1_g2|skip|k5_e1|k5_e1|k3_e6|k3_e3|k3_e3|k5_e3|k3_e3|k5_e1_g2|k3_e1|k5_e6|k5_e3|k3_e1|k3_e1|k3_e6|",
        "|skip_connect~0|+|none~0|nor_conv_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_1x1~2|",
    ];
    assert_eq!(got, expected, "island populations diverged");
    assert_eq!(result.evaluations, 112);
    assert_eq!(result.migrants_accepted, 8);
}
