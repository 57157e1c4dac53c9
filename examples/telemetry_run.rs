//! End-to-end telemetry demo: train the surrogate and run the MOEA with
//! the JSONL recorder installed, then render the run record with the
//! report renderer (the same one behind `hwpr-report`) and export the
//! span tree plus a Chrome Trace file (open it in https://ui.perfetto.dev).
//!
//! ```text
//! cargo run --release --example telemetry_run
//! HWPR_TELEMETRY=jsonl:/tmp/run.jsonl cargo run --release --example telemetry_run
//! ```
//!
//! Without `HWPR_TELEMETRY` the run records to `telemetry_run.jsonl` in
//! the current directory; the Chrome trace lands next to the JSONL with a
//! `.trace.json` suffix.

use hw_pr_nas::core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hw_pr_nas::hwmodel::{Platform, SimBench, SimBenchConfig};
use hw_pr_nas::nasbench::{Dataset, SearchSpaceId};
use hw_pr_nas::obs::config::{TelemetrySpec, TELEMETRY_ENV};
use hw_pr_nas::search::{HwPrNasEvaluator, Moea, MoeaConfig, ScoreCache};
use std::path::PathBuf;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Wire telemetry: honour HWPR_TELEMETRY, defaulting to a JSONL
    //    file next to the working directory so the demo always records.
    let spec = match std::env::var(TELEMETRY_ENV) {
        Ok(value) => TelemetrySpec::parse(&value)?,
        Err(_) => TelemetrySpec::Jsonl(PathBuf::from("telemetry_run.jsonl")),
    };
    // best-effort wiring: an unwritable path degrades to a warning and a
    // plain (unrecorded) run instead of killing the demo
    spec.install_or_warn();
    if let TelemetrySpec::Jsonl(path) = &spec {
        println!("recording telemetry to {}", path.display());
    }

    // 2. Train the surrogate: each epoch emits a `train.epoch` record
    //    with loss, learning rate and both rank correlations.
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(128),
        seed: 7,
    });
    let platform = Platform::EdgeGpu;
    let data = SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, platform)?;
    println!("training HW-PR-NAS on {} architectures ...", data.len());
    let (model, report) = HwPrNas::fit(&data, &ModelConfig::fast(), &TrainConfig::fast())?;
    println!(
        "trained in {} epochs; validation rank tau = {:.3}",
        report.epochs_run, report.val_rank_tau
    );

    // 3. Search: each generation emits `search.generation` (hypervolume,
    //    front size, cache hit rate) and a `search.front` point snapshot.
    let cache = Arc::new(ScoreCache::new());
    let mut evaluator =
        HwPrNasEvaluator::new(Arc::new(model), platform).with_shared_cache(Arc::clone(&cache));
    let moea = Moea::new(MoeaConfig {
        population: 24,
        generations: 8,
        record_populations: true,
        ..MoeaConfig::small(SearchSpaceId::NasBench201)
    })?;
    let result = moea.run(&mut evaluator)?;
    println!(
        "search finished: {} evaluations ({} surrogate calls, cache hit rate {:.1} %)",
        result.evaluations,
        result.surrogate_calls,
        100.0 * cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64
    );

    // 4. Close the run record: the final registry snapshot carries the
    //    closing counter / gauge / histogram totals.
    hw_pr_nas::obs::metrics::registry().emit();
    hw_pr_nas::obs::shutdown();

    // 5. Render the record the way `hwpr-report` would: the summary
    //    tables, the self-time span tree, and a Perfetto-openable Chrome
    //    trace next to the JSONL.
    if let TelemetrySpec::Jsonl(path) = &spec {
        let text = std::fs::read_to_string(path)?;
        let events = hw_pr_nas::obs::report::parse_jsonl(&text)?;
        println!("\n{}", hw_pr_nas::obs::report::summarize(&events));
        println!("{}", hw_pr_nas::obs::trace::span_tree(&events));
        let trace_path = path.with_extension("trace.json");
        std::fs::write(&trace_path, hw_pr_nas::obs::trace::chrome_trace(&events))?;
        let stats = hw_pr_nas::obs::trace::stats(&events);
        println!(
            "chrome trace written to {} ({} spans, {} roots, {} orphans, {} thread lanes) \
             — open in https://ui.perfetto.dev",
            trace_path.display(),
            stats.spans,
            stats.roots,
            stats.orphans,
            stats.threads
        );
    }
    Ok(())
}
