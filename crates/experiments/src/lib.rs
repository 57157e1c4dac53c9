//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper.
//!
//! Each binary (one per table/figure — see `src/bin/`) reads the
//! experiment scale from the `HWPR_SCALE` environment variable:
//!
//! - `smoke` — seconds-long sanity runs (used by integration tests),
//! - `fast` — the default; minutes-long single-core runs that preserve
//!   the paper's comparisons at reduced population/model sizes,
//! - `paper` — the paper's full sizes (Table II hyperparameters,
//!   population 150 × 250 generations). Expect hours on one core.
//!
//! Reports are printed to stdout and written to `results/<name>.md`.

#![warn(missing_docs)]
pub mod exps;

use hwpr_core::baselines::SurrogatePair;
use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_moo::{nadir_reference_point, pareto_front, MooWorkspace};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_search::{
    random_search, HwPrNasEvaluator, MeasuredEvaluator, Moea, MoeaConfig, PairEvaluator,
    RandomSearchConfig, SearchResult,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Experiment sizing preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long runs for CI/integration tests.
    Smoke,
    /// Default single-core scale preserving the paper's comparisons.
    Fast,
    /// The paper's full sizes.
    Paper,
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Smoke => "smoke",
            Scale::Fast => "fast",
            Scale::Paper => "paper",
        })
    }
}

impl Scale {
    /// Reads `HWPR_SCALE` (`smoke` | `fast` | `paper`); unset means
    /// [`Scale::Fast`].
    pub fn from_env() -> Self {
        std::env::var("HWPR_SCALE").map_or(Scale::Fast, |spec| Self::from_spec(&spec))
    }

    /// Parses an `HWPR_SCALE` value. The empty string means the default
    /// scale (so `HWPR_SCALE= cmd` behaves like an unset variable);
    /// anything else unrecognised warns through the telemetry sink and
    /// falls back to [`Scale::Fast`]: a typo must neither silently change
    /// an experiment's configuration nor kill it.
    fn from_spec(spec: &str) -> Self {
        match spec.trim() {
            "smoke" => Scale::Smoke,
            "" | "fast" => Scale::Fast,
            "paper" => Scale::Paper,
            _ => {
                hwpr_obs::warn(format!(
                    "invalid HWPR_SCALE value {spec:?} (expected smoke, fast or paper); \
                     falling back to fast"
                ));
                Scale::Fast
            }
        }
    }

    /// NAS-Bench-201 benchmark rows to materialise.
    pub fn nb201_rows(self) -> usize {
        match self {
            Scale::Smoke => 140,
            Scale::Fast => 900,
            Scale::Paper => 4000,
        }
    }

    /// FBNet benchmark rows to materialise.
    pub fn fbnet_rows(self) -> usize {
        match self {
            Scale::Smoke => 80,
            Scale::Fast => 500,
            Scale::Paper => 4000,
        }
    }

    /// Independent repetitions (the paper uses 5).
    pub fn runs(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Fast => 5,
            Scale::Paper => 5,
        }
    }

    /// Surrogate network sizes.
    pub fn model_config(self) -> ModelConfig {
        match self {
            Scale::Smoke => ModelConfig::tiny(),
            Scale::Fast => ModelConfig {
                gcn_hidden: 64,
                gcn_layers: 2,
                lstm_hidden: 48,
                lstm_layers: 2,
                embed_dim: 20,
                mlp_hidden: vec![48],
                dropout: 0.02,
                seed: 0,
            },
            Scale::Paper => ModelConfig::paper(),
        }
    }

    /// Surrogate training schedule.
    pub fn train_config(self) -> TrainConfig {
        match self {
            Scale::Smoke => TrainConfig::tiny(),
            Scale::Fast => TrainConfig {
                epochs: 20,
                early_stop_patience: 8,
                batch_size: 128,
                learning_rate: 2e-3,
                weight_decay: 3e-4,
                rank_loss_weight: 1.0,
                rmse_loss_weight: 1.0,
                fusion_finetune_epochs: 12,
                tie_regularizer_weight: 0.2,
                seed: 0,
            },
            Scale::Paper => TrainConfig::paper(),
        }
    }

    /// MOEA settings over the given spaces.
    ///
    /// # Panics
    ///
    /// Panics if `spaces` is empty.
    pub fn moea_config(self, spaces: Vec<SearchSpaceId>) -> MoeaConfig {
        assert!(!spaces.is_empty(), "at least one space required");
        let mut cfg = match self {
            Scale::Smoke => MoeaConfig {
                population: 12,
                generations: 6,
                ..MoeaConfig::small(spaces[0])
            },
            Scale::Fast => MoeaConfig {
                population: 40,
                generations: 30,
                mutation_rate: 0.9,
                crossover_rate: 0.5,
                tournament: 2,
                spaces: spaces.clone(),
                budget: Some(Duration::from_secs(24 * 3600)),
                record_populations: false,
                seed_population: Vec::new(),
                seed: 0,
            },
            Scale::Paper => MoeaConfig::paper(spaces[0]),
        };
        cfg.spaces = spaces;
        cfg
    }

    /// Random-search settings matched to the MOEA's evaluation volume.
    pub fn random_config(self, spaces: Vec<SearchSpaceId>) -> RandomSearchConfig {
        let moea = self.moea_config(spaces.clone());
        RandomSearchConfig {
            samples: moea.population * (moea.generations + 1),
            keep: moea.population,
            spaces,
            budget: moea.budget,
            seed: 0,
        }
    }
}

/// Shared context: benchmark tables plus output plumbing.
#[derive(Debug)]
pub struct Harness {
    /// Active scale.
    pub scale: Scale,
    nb201: SimBench,
    fbnet: SimBench,
}

impl Harness {
    /// Builds the harness, materialising both benchmark tables.
    pub fn new() -> Self {
        let scale = Scale::from_env();
        Self::with_scale(scale)
    }

    /// Builds the harness at an explicit scale.
    pub fn with_scale(scale: Scale) -> Self {
        let nb201 = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(scale.nb201_rows()),
            seed: 0xBE0C,
        });
        let fbnet = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::FBNet,
            sample_size: Some(scale.fbnet_rows()),
            seed: 0xFBE7,
        });
        Self {
            scale,
            nb201,
            fbnet,
        }
    }

    /// The NAS-Bench-201 table.
    pub fn nb201(&self) -> &SimBench {
        &self.nb201
    }

    /// The FBNet table.
    pub fn fbnet(&self) -> &SimBench {
        &self.fbnet
    }

    /// Single-space training data for `(dataset, platform)`.
    pub fn dataset(
        &self,
        space: SearchSpaceId,
        dataset: Dataset,
        platform: Platform,
    ) -> SurrogateDataset {
        let bench = match space {
            SearchSpaceId::NasBench201 => &self.nb201,
            SearchSpaceId::FBNet => &self.fbnet,
        };
        SurrogateDataset::from_simbench(bench, dataset, platform).expect("bench is non-empty")
    }

    /// Mixed-space training data (both benchmarks, as in Table III/IV).
    pub fn mixed_dataset(&self, dataset: Dataset, platform: Platform) -> SurrogateDataset {
        let mut entries = self.nb201.entries().to_vec();
        entries.extend_from_slice(self.fbnet.entries());
        SurrogateDataset::from_entries(&entries, dataset, platform).expect("bench is non-empty")
    }

    /// A measured-values evaluator consistent with the benchmark tables.
    pub fn measured(&self, dataset: Dataset, platform: Platform) -> MeasuredEvaluator {
        MeasuredEvaluator::for_bench(&self.nb201, dataset, platform)
    }

    /// Trains HW-PR-NAS on `data` with the scale's configs and `seed`.
    ///
    /// # Panics
    ///
    /// Panics on training failure (configuration is known-good).
    pub fn train_hw_pr_nas(&self, data: &SurrogateDataset, seed: u64) -> HwPrNas {
        let (model, _) = HwPrNas::fit(
            data,
            &self.scale.model_config().with_seed(seed),
            &self.scale.train_config().with_seed(seed),
        )
        .expect("HW-PR-NAS training failed");
        model
    }

    /// Trains a BRP-NAS-style surrogate pair.
    ///
    /// # Panics
    ///
    /// Panics on training failure.
    pub fn train_brp_nas(&self, data: &SurrogateDataset, seed: u64) -> SurrogatePair {
        let (pair, _) = SurrogatePair::brp_nas(
            data,
            &self.scale.model_config().with_seed(seed),
            &self.scale.train_config().with_seed(seed),
        )
        .expect("BRP-NAS training failed");
        pair
    }

    /// Trains a GATES-style surrogate pair.
    ///
    /// # Panics
    ///
    /// Panics on training failure.
    pub fn train_gates(&self, data: &SurrogateDataset, seed: u64) -> SurrogatePair {
        let (pair, _) = SurrogatePair::gates(
            data,
            &self.scale.model_config().with_seed(seed),
            &self.scale.train_config().with_seed(seed),
        )
        .expect("GATES training failed");
        pair
    }

    /// Runs the MOEA with an HW-PR-NAS evaluator.
    ///
    /// # Panics
    ///
    /// Panics on search failure.
    pub fn run_moea_hwpr(
        &self,
        model: HwPrNas,
        platform: Platform,
        spaces: Vec<SearchSpaceId>,
        seed: u64,
    ) -> SearchResult {
        let moea = Moea::new(self.scale.moea_config(spaces).with_seed(seed)).expect("valid config");
        let mut eval = HwPrNasEvaluator::new(model, platform);
        moea.run(&mut eval).expect("search failed")
    }

    /// Runs the MOEA with an HW-PR-NAS evaluator, seeding half the initial
    /// population with the best-scored architectures of `candidates`
    /// (Algorithm 1's "sampling strategy" initialisation; used by the
    /// mixed-space experiments where random initialisation at reduced
    /// population sizes cannot discover both spaces' elite regions).
    ///
    /// # Panics
    ///
    /// Panics on search failure.
    pub fn run_moea_hwpr_seeded(
        &self,
        model: HwPrNas,
        platform: Platform,
        spaces: Vec<SearchSpaceId>,
        candidates: &[Architecture],
        seed: u64,
    ) -> SearchResult {
        let mut config = self.scale.moea_config(spaces).with_seed(seed);
        let scores = model
            .predict_scores(candidates, platform)
            .expect("scoring candidates failed");
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        config.seed_population = order
            .into_iter()
            .take(config.population / 2)
            .map(|i| candidates[i].clone())
            .collect();
        let moea = Moea::new(config).expect("valid config");
        let mut eval = HwPrNasEvaluator::new(model, platform);
        moea.run(&mut eval).expect("search failed")
    }

    /// Runs the MOEA with a two-surrogate evaluator.
    ///
    /// # Panics
    ///
    /// Panics on search failure.
    pub fn run_moea_pair(
        &self,
        pair: SurrogatePair,
        spaces: Vec<SearchSpaceId>,
        seed: u64,
    ) -> SearchResult {
        let moea = Moea::new(self.scale.moea_config(spaces).with_seed(seed)).expect("valid config");
        let mut eval = PairEvaluator::new(pair);
        moea.run(&mut eval).expect("search failed")
    }

    /// Runs the MOEA with true measured values.
    ///
    /// # Panics
    ///
    /// Panics on search failure.
    pub fn run_moea_measured(
        &self,
        dataset: Dataset,
        platform: Platform,
        spaces: Vec<SearchSpaceId>,
        seed: u64,
    ) -> SearchResult {
        let moea = Moea::new(self.scale.moea_config(spaces).with_seed(seed)).expect("valid config");
        let mut eval = self.measured(dataset, platform);
        moea.run(&mut eval).expect("search failed")
    }

    /// Runs random search with any evaluator.
    ///
    /// # Panics
    ///
    /// Panics on search failure.
    pub fn run_random(
        &self,
        evaluator: &mut dyn hwpr_search::Evaluator,
        spaces: Vec<SearchSpaceId>,
        seed: u64,
    ) -> SearchResult {
        let cfg = self.scale.random_config(spaces).with_seed(seed);
        random_search(&cfg, evaluator).expect("random search failed")
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// True objective vectors of a population under the oracle.
pub fn true_objectives(pop: &[Architecture], oracle: &MeasuredEvaluator) -> Vec<Vec<f64>> {
    pop.iter().map(|a| oracle.true_objectives(a)).collect()
}

/// The non-dominated subset of a population's true objectives.
///
/// # Panics
///
/// Panics if `pop` is empty.
pub fn true_front(pop: &[Architecture], oracle: &MeasuredEvaluator) -> Vec<Vec<f64>> {
    let objs = true_objectives(pop, oracle);
    pareto_front(&objs)
        .expect("non-empty population")
        .into_iter()
        .map(|i| objs[i].clone())
        .collect()
}

/// Hypervolume of a population's true Pareto front under `reference`.
///
/// # Panics
///
/// Panics if the reference does not bound the population.
pub fn population_hypervolume(
    pop: &[Architecture],
    oracle: &MeasuredEvaluator,
    reference: &[f64],
) -> f64 {
    // the hypervolume kernel extracts the non-dominated front itself, so
    // the objectives go in directly — one pass instead of front + HV
    let objs = true_objectives(pop, oracle);
    let mut moo = MooWorkspace::new();
    moo.hypervolume(&objs, reference)
        .expect("reference must bound the population")
}

/// A reference point bounding every listed objective set (nadir + 10 %).
///
/// # Panics
///
/// Panics if `sets` is empty or degenerate.
pub fn shared_reference(sets: &[Vec<Vec<f64>>]) -> Vec<f64> {
    let all: Vec<Vec<f64>> = sets.iter().flatten().cloned().collect();
    let nadir = nadir_reference_point(&all, 0.0).expect("non-empty objective sets");
    nadir.iter().map(|v| v * 1.1 + 1e-9).collect()
}

/// Reference objective sets approximating the *true* NAS-Bench-201
/// front for `(dataset, platform)`.
///
/// At [`Scale::Paper`] the whole space (15 625 architectures) is
/// enumerated, as the paper does; at [`Scale::Fast`] a deterministic 1-in-5
/// stratified subsample is enumerated (the resulting front is visually
/// indistinguishable and is noted in the reports); at [`Scale::Smoke`] the
/// materialised benchmark rows stand in.
pub fn nb201_reference_objectives(
    h: &Harness,
    dataset: Dataset,
    platform: Platform,
) -> Vec<Vec<f64>> {
    let oracle = h.measured(dataset, platform);
    let stride = match h.scale {
        Scale::Smoke => return h.nb201().objective_matrix(dataset, platform),
        Scale::Fast => 5,
        Scale::Paper => 1,
    };
    (0..SearchSpaceId::NasBench201.size())
        .step_by(stride)
        .map(|i| {
            let arch = Architecture::nb201_from_index(i).expect("index in range");
            oracle.true_objectives(&arch)
        })
        .collect()
}

/// Formats a duration compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1e3)
    }
}

/// Prints a report and writes it to `results/<name>.md`.
pub fn write_report(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.md"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("[report saved to {}]", path.display());
    }
}

/// The `results/` directory (next to the workspace root when run via
/// cargo, or the current directory otherwise).
pub fn results_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Minimal markdown table builder.
#[derive(Debug, Default, Clone)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets() {
        assert_eq!(Scale::Fast.nb201_rows(), 900);
        assert_eq!(Scale::Smoke.runs(), 2);
        assert_eq!(Scale::Paper.model_config(), ModelConfig::paper());
        assert_eq!(Scale::Paper.train_config(), TrainConfig::paper());
        let rs = Scale::Smoke.random_config(vec![SearchSpaceId::NasBench201]);
        assert_eq!(rs.samples, 12 * 7);
    }

    #[test]
    fn scale_spec_parses_and_falls_back_on_junk() {
        assert_eq!(Scale::from_spec("smoke"), Scale::Smoke);
        assert_eq!(Scale::from_spec(" paper "), Scale::Paper);
        assert_eq!(Scale::from_spec("fast"), Scale::Fast);
        assert_eq!(Scale::from_spec(""), Scale::Fast);
        assert_eq!(Scale::from_spec("huge"), Scale::Fast);
    }

    #[test]
    fn markdown_table_renders() {
        let mut t = MarkdownTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]).row(vec!["3", "4"]);
        let md = t.render();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn fmt_duration_ranges() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.0 s");
        assert_eq!(fmt_duration(Duration::from_secs(120)), "2.0 min");
        assert_eq!(fmt_duration(Duration::from_secs(7200)), "2.0 h");
    }

    #[test]
    fn shared_reference_bounds_inputs() {
        let sets = vec![vec![vec![1.0, 10.0], vec![2.0, 5.0]], vec![vec![3.0, 1.0]]];
        let r = shared_reference(&sets);
        for set in &sets {
            for p in set {
                for (x, rx) in p.iter().zip(&r) {
                    assert!(x < rx);
                }
            }
        }
    }

    #[test]
    fn smoke_harness_builds_and_searches() {
        let h = Harness::with_scale(Scale::Smoke);
        assert_eq!(h.nb201().len(), 140);
        assert_eq!(h.fbnet().len(), 80);
        let data = h.dataset(
            SearchSpaceId::NasBench201,
            Dataset::Cifar10,
            Platform::EdgeGpu,
        );
        let model = h.train_hw_pr_nas(&data, 1);
        let result = h.run_moea_hwpr(
            model,
            Platform::EdgeGpu,
            vec![SearchSpaceId::NasBench201],
            1,
        );
        assert_eq!(result.population.len(), 12);
        let oracle = h.measured(Dataset::Cifar10, Platform::EdgeGpu);
        let objs = true_objectives(&result.population, &oracle);
        let reference = shared_reference(&[objs]);
        let hv = population_hypervolume(&result.population, &oracle, &reference);
        assert!(hv > 0.0);
    }
}
