//! `train`: surrogate training on a mixed NAS-Bench-201 + FBNet table —
//! autograd, tensor and nn do all the work; no search or serving code
//! runs.

use crate::report::Outcome;
use crate::setup::{self, stream, subseed, timed, DATASET, PLATFORM};
use crate::stats::{mean, median, quantile};
use crate::{trace, Result};
use hwpr_core::{HwPrNas, SurrogateDataset, TrainConfig};
use hwpr_nasbench::Architecture;
use std::time::Instant;

/// Fits every run makes, however short `--seconds` is. They are seeded
/// from the system seed, so their held-out τ — the `quality` metric —
/// is the same in every run and moves only when the code does; later
/// fits are seeded from the run seed and only add timing samples.
const REFERENCE_FITS: usize = 2;

/// Architectures the fits never train on, with their true Pareto ranks
/// negated (higher is better, like a score).
struct Holdout {
    archs: Vec<Architecture>,
    truth: Vec<f32>,
}

impl Holdout {
    fn new() -> Result<Self> {
        let entries = setup::mixed_entries(stream::HOLDOUT_TABLE, stream::HOLDOUT_FBNET_TABLE);
        let objectives: Vec<Vec<f64>> = entries
            .iter()
            .map(|e| e.objectives(DATASET, PLATFORM))
            .collect();
        let ranks = hwpr_moo::pareto_ranks(&objectives).map_err(|e| e.to_string())?;
        Ok(Self {
            archs: entries.iter().map(|e| e.arch().clone()).collect(),
            truth: ranks.iter().map(|&r| -(r as f32)).collect(),
        })
    }

    /// Kendall τ of `model`'s scores against the true Pareto ranking —
    /// the quality a user of the trained surrogate gets.
    fn tau(&self, model: &HwPrNas) -> f64 {
        match model.predict_scores(&self.archs, PLATFORM) {
            Ok(scores) if scores.iter().all(|s| s.is_finite()) => {
                let scores: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
                hwpr_metrics::kendall_tau(&scores, &self.truth).unwrap_or(f64::NAN)
            }
            _ => f64::NAN,
        }
    }
}

/// One timed fit.
struct FitRun {
    wall_ms: f64,
    /// Joint epochs run (early stopping applies) plus the fusion
    /// fine-tune epochs: each is one pass over the training split.
    epochs: usize,
}

fn fit_once(data: &SurrogateDataset, seed: u64, index: usize) -> Result<(FitRun, HwPrNas)> {
    let seed = if index < REFERENCE_FITS {
        setup::SYSTEM_SEED
    } else {
        seed
    };
    let base = stream::FIT + 2 * index as u64;
    let (fitted, wall_ms) =
        timed(|| setup::fit(data, subseed(seed, base), subseed(seed, base + 1)));
    let (model, report) = fitted?;
    let run = FitRun {
        wall_ms,
        epochs: report.epochs_run + TrainConfig::fast().fusion_finetune_epochs,
    };
    Ok((run, model))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut times = setup::SetupTimes::default();
    let mut data = None;
    for _ in 0..setup::SETUP_REPEATS {
        let started = Instant::now();
        let (entries, table_ms) =
            timed(|| setup::mixed_entries(stream::TABLE, stream::FBNET_TABLE));
        data = Some(
            SurrogateDataset::from_entries(&entries, DATASET, PLATFORM)
                .map_err(|e| e.to_string())?,
        );
        times.table_ms.push(table_ms);
        times.total_s.push(started.elapsed().as_secs_f64());
    }
    let data = data.ok_or("no set-up ran")?;
    times.report(&mut outcome);
    let holdout = Holdout::new()?;

    // measured phase: consecutive seeded fits until the time is up; each
    // model is frozen and scored on the held-out rows outside its timed
    // fit, then dropped, so memory does not grow with the fit count
    let started = Instant::now();
    let mut runs: Vec<FitRun> = Vec::new();
    let mut freeze_ms = Vec::new();
    let mut taus: Vec<(usize, f64)> = Vec::new();
    let mut index = 0;
    while index < REFERENCE_FITS || started.elapsed().as_secs_f64() < seconds {
        match fit_once(&data, seed, index) {
            Ok((run, model)) => {
                outcome.op(true);
                freeze_ms.push(timed(|| model.frozen()).1);
                taus.push((index, holdout.tau(&model)));
                runs.push(run);
            }
            Err(e) => {
                eprintln!("fit {index} failed: {e}");
                outcome.op(false);
            }
        }
        index += 1;
    }
    outcome.set("peak_rss_mb", crate::provenance::peak_rss_mb());

    let epoch_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms / r.epochs as f64).collect();
    let fit_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    let epochs: Vec<f64> = runs.iter().map(|r| r.epochs as f64).collect();
    outcome.set("op_ms_p50", median(&epoch_ms));
    outcome.set("op_ms_p90", quantile(&epoch_ms, 0.9));
    outcome.set("core.fit_ms", mean(&fit_ms));
    outcome.set("core.epochs", mean(&epochs));
    outcome.set("core.epoch_ms", mean(&epoch_ms));
    outcome.set("core.freeze_ms", median(&freeze_ms));
    let reference: Vec<f64> = taus
        .iter()
        .filter(|(i, _)| *i < REFERENCE_FITS)
        .map(|&(_, t)| t)
        .collect();
    outcome.set("quality", median(&reference));
    outcome.check(
        "every fitted model scores finitely with a positive held-out tau",
        !taus.is_empty() && taus.iter().all(|(_, t)| t.is_finite() && *t > 0.0),
    );

    if traced {
        let n_traced = (runs.len() / 10).max(1);
        let capture = trace::start();
        let mut traced_epoch_ms = Vec::with_capacity(n_traced);
        let mut traced_epochs = 0;
        for i in 0..n_traced {
            let (run, _) = fit_once(&data, seed, i)?;
            traced_epoch_ms.push(run.wall_ms / run.epochs as f64);
            traced_epochs += run.epochs;
        }
        let folded = capture.finish();
        folded.record(&mut outcome, traced_epochs as f64);
        trace::record_overhead(&mut outcome, &traced_epoch_ms, &epoch_ms);
    }
    Ok(outcome)
}
