//! Island-model search: train the surrogate once, then run the sharded
//! MOEA across parallel islands with ring migration and a mid-run
//! checkpoint, and verify the resumed run reproduces the uninterrupted
//! one bit-for-bit.
//!
//! ```text
//! cargo run --release --example island_search
//! ```

use hw_pr_nas::core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hw_pr_nas::hwmodel::{Platform, SimBench, SimBenchConfig};
use hw_pr_nas::nasbench::{Dataset, SearchSpaceId};
use hw_pr_nas::search::{Evaluator, HwPrNasEvaluator, IslandConfig, IslandSearch};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the fused surrogate on a synthetic benchmark slice.
    println!("generating benchmark table ...");
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(400),
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
    let model = Arc::new(model);
    let factory = |_id: usize| {
        Box::new(HwPrNasEvaluator::new(Arc::clone(&model), platform)) as Box<dyn Evaluator + Send>
    };

    // 2. Run the island search.
    let checkpoint = std::env::temp_dir().join("hwpr_island_example_snapshot.json");
    let config = IslandConfig {
        islands: 4,
        population: 24,
        generations: 12,
        migration_every: 3,
        migrants: 2,
        checkpoint_every: 2,
        checkpoint_path: Some(checkpoint.to_string_lossy().into_owned()),
        ..IslandConfig::small(SearchSpaceId::NasBench201)
    }
    .with_seed(42);
    println!(
        "running {} islands x {} generations (migrate every {}) ...",
        config.islands, config.generations, config.migration_every
    );
    let result = IslandSearch::new(config)?.run(factory)?;
    println!(
        "search finished: {} evaluations, {} epochs, {} migrants accepted, {:.1} ms wall",
        result.evaluations,
        result.epochs,
        result.migrants_accepted,
        result.wall_time.as_secs_f64() * 1e3
    );

    // 3. The global archive is the union Pareto front over all islands.
    println!("\nglobal archive ({} architectures):", result.archive.len());
    for member in &result.archive {
        println!(
            "  {:6.2} % error @ {:7.3} ms  {}",
            member.objectives[0],
            member.objectives[1],
            member.arch.to_arch_string()
        );
    }
    if let Some(hv) = result.hypervolume {
        println!("hypervolume at budget: {hv:.3}");
    }

    // 4. Resume the checkpoint the run left behind and verify the replay
    //    is exact: same archive, same hypervolume.
    let snapshot = IslandSearch::load_snapshot(&checkpoint)?;
    println!(
        "\nresuming from the generation-{} checkpoint ...",
        snapshot.generations_done
    );
    let resumed = IslandSearch::resume(&snapshot, factory)?;
    assert_eq!(resumed.archive, result.archive, "resume diverged");
    assert_eq!(resumed.hypervolume, result.hypervolume);
    println!(
        "resume replayed generations {}..{} bit-identically",
        snapshot.generations_done, resumed.generations
    );
    std::fs::remove_file(&checkpoint).ok();
    Ok(())
}
