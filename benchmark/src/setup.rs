//! Input generation and system set-up shared by the workloads.
//!
//! The system under test is the same in every run: one training table
//! and one trained surrogate, derived from [`SYSTEM_SEED`]. The run's
//! `--seed` varies the work sent to it — search seeds, arrival schedules,
//! training seeds — through [`subseed`]. A table drawn per run would make
//! every metric move with the luck of that table (how well its model
//! ranks, how often its searches hit the cache) rather than with the
//! code. The program receives only the generated inputs.

use crate::report::Outcome;
use crate::stats::median;
use crate::Result;
use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig, TrainReport};
use hwpr_hwmodel::{BenchEntry, Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Dataset, SearchSpaceId};
use hwpr_search::SplitMix64;
use hwpr_serve::{ModelRegistry, ServeConfig, Server};
use rand::RngCore;
use std::sync::Arc;
use std::time::Instant;

/// The paper's target: CIFAR-10 accuracy against Edge GPU latency.
pub const DATASET: Dataset = Dataset::Cifar10;
pub const PLATFORM: Platform = Platform::EdgeGpu;
/// The registry name the served model is published under.
pub const MODEL_NAME: &str = "hwpr";
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Rows of the NAS-Bench-201 training table.
const TABLE_ROWS: usize = 1000;
/// The seed of the fixed system under test (tables and model).
pub const SYSTEM_SEED: u64 = 2022;

/// Purposes of the sub-seeds drawn from [`SYSTEM_SEED`] (tables, model)
/// and from the run seed (everything else).
pub mod stream {
    pub const TABLE: u64 = 0;
    pub const MODEL: u64 = 1;
    pub const TRAIN: u64 = 2;
    pub const FBNET_TABLE: u64 = 3;
    pub const SCHEDULE: u64 = 4;
    pub const TRACED_SCHEDULE: u64 = 5;
    pub const HOLDOUT_TABLE: u64 = 6;
    pub const HOLDOUT_FBNET_TABLE: u64 = 7;
    /// Search `i` uses stream `SEARCH + i`.
    pub const SEARCH: u64 = 1_000;
    /// Fit `i` of the training workload uses streams `FIT + 2i` and
    /// `FIT + 2i + 1`.
    pub const FIT: u64 = 2_000_000;
}

/// Sub-seed `stream` of the run seed.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    SplitMix64::stream(seed, stream).next_u64()
}

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e3)
}

/// A sampled benchmark table.
pub fn table(space: SearchSpaceId, rows: usize, seed: u64) -> SimBench {
    SimBench::generate(SimBenchConfig {
        space,
        sample_size: Some(rows),
        seed,
    })
}

/// Trains one model with the fast configurations under `(model, train)`
/// seeds.
pub fn fit(
    data: &SurrogateDataset,
    model_seed: u64,
    train_seed: u64,
) -> Result<(HwPrNas, TrainReport)> {
    HwPrNas::fit(
        data,
        &ModelConfig::fast().with_seed(model_seed),
        &TrainConfig::fast().with_seed(train_seed),
    )
    .map_err(|e| format!("fit failed: {e}"))
}

/// The trained, frozen surrogate (and optionally the server publishing
/// it) that the search and serving workloads run against.
pub struct System {
    pub table_seed: u64,
    pub model: Arc<HwPrNas>,
    pub report: TrainReport,
    pub server: Option<Server>,
}

impl System {
    /// Starts another server on the same model (a traced run needs one
    /// whose root span opens while tracing is on).
    pub fn start_server(&self) -> Result<Server> {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(MODEL_NAME, Arc::clone(&self.model));
        Server::start(registry, ServeConfig::default()).map_err(|e| e.to_string())
    }
}

/// Per-phase set-up times of every repetition.
#[derive(Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub table_ms: Vec<f64>,
    pub fit_ms: Vec<f64>,
    pub freeze_ms: Vec<f64>,
}

impl SetupTimes {
    /// Records `setup_s` and the set-up layers as medians.
    pub fn report(&self, outcome: &mut Outcome) {
        outcome.set("setup_s", median(&self.total_s));
        outcome.set("hwmodel.table_ms", median(&self.table_ms));
        if !self.fit_ms.is_empty() {
            outcome.set("core.fit_ms", median(&self.fit_ms));
            outcome.set("core.freeze_ms", median(&self.freeze_ms));
        }
    }
}

/// The paper pipeline up to the search: table → fit → freeze, and with
/// `serve` a registry publish plus a server on an ephemeral loopback
/// port. Runs [`SETUP_REPEATS`] times (the result is identical each time:
/// every step is deterministic in its seed), keeps the last system and
/// records the set-up metrics in `outcome`.
pub fn surrogate_system(serve: bool, outcome: &mut Outcome) -> Result<System> {
    let table_seed = subseed(SYSTEM_SEED, stream::TABLE);
    let mut times = SetupTimes::default();
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let started = Instant::now();
        let (bench, table_ms) = timed(|| table(SearchSpaceId::NasBench201, TABLE_ROWS, table_seed));
        let data = SurrogateDataset::from_simbench(&bench, DATASET, PLATFORM)
            .map_err(|e| e.to_string())?;
        let (fitted, fit_ms) = timed(|| {
            fit(
                &data,
                subseed(SYSTEM_SEED, stream::MODEL),
                subseed(SYSTEM_SEED, stream::TRAIN),
            )
        });
        let (model, report) = fitted?;
        let model = Arc::new(model);
        let (_, freeze_ms) = timed(|| model.frozen());
        let mut built = System {
            table_seed,
            model,
            report,
            server: None,
        };
        if serve {
            built.server = Some(built.start_server()?);
        }
        times.total_s.push(started.elapsed().as_secs_f64());
        times.table_ms.push(table_ms);
        times.fit_ms.push(fit_ms);
        times.freeze_ms.push(freeze_ms);
        system = Some(built);
    }
    let system = system.ok_or("no set-up ran")?;
    times.report(outcome);
    let epochs = system.report.epochs_run as f64;
    outcome.set("core.epochs", epochs);
    outcome.set("core.epoch_ms", median(&times.fit_ms) / epochs);
    Ok(system)
}

/// A mixed table of 500 NAS-Bench-201 rows and 500 FBNet rows, drawn
/// from the system seed's `(nb201, fbnet)` streams.
pub fn mixed_entries(nb201: u64, fbnet: u64) -> Vec<BenchEntry> {
    let nb201 = table(SearchSpaceId::NasBench201, 500, subseed(SYSTEM_SEED, nb201));
    let fbnet = table(SearchSpaceId::FBNet, 500, subseed(SYSTEM_SEED, fbnet));
    nb201
        .entries()
        .iter()
        .chain(fbnet.entries())
        .cloned()
        .collect()
}
