//! Differential fixture: the frozen tape-free inference engine must stay
//! inside the documented error budget against the recording-tape
//! reference path — max-abs ≤ 1e-5 with Kendall τ = 1.0 — for every
//! public predict method, every latency-head platform, and uneven final
//! chunks.
//!
//! (Per-encoder-type differentials — AF / LSTM / GCN and combinations —
//! live as unit tests in `hwpr_core::frozen`; here the full compiled
//! model is exercised end to end.)

use hwpr_core::{CoreError, HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn bench(n: usize) -> SimBench {
    SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(n),
        seed: 3,
    })
}

/// A scoring population larger than the training set, so batch widths
/// 64 and 129 exercise uneven final chunks.
fn eval_archs(n: usize) -> Vec<Architecture> {
    bench(n)
        .entries()
        .iter()
        .map(|e| e.arch().clone())
        .collect()
}

/// Kendall τ, or `None` when either side is constant (`ZeroVariance`) —
/// rank preservation is vacuous on a degenerate column, e.g. the tiny
/// fixture predicting one latency for every architecture.
fn try_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    let af: Vec<f32> = a.iter().map(|&x| x as f32).collect();
    let bf: Vec<f32> = b.iter().map(|&x| x as f32).collect();
    hwpr_metrics::kendall_tau(&af, &bf).ok()
}

fn trained_single() -> (HwPrNas, Vec<Architecture>) {
    let b = bench(48);
    let data = SurrogateDataset::from_simbench(&b, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    let archs = data.samples().iter().map(|s| s.arch.clone()).collect();
    (model, archs)
}

fn trained_multi() -> (HwPrNas, Vec<Architecture>) {
    let b = bench(40);
    let platforms = [Platform::EdgeGpu, Platform::Pixel3];
    let (model, _) = HwPrNas::fit_multi(
        b.entries(),
        Dataset::Cifar10,
        &platforms,
        &ModelConfig::tiny(),
        &TrainConfig::tiny(),
    )
    .unwrap();
    let archs = b.entries().iter().map(|e| e.arch().clone()).collect();
    (model, archs)
}

fn max_abs(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Frozen-vs-tape score budget: max-abs ≤ 1e-5 and τ = 1.0.
fn assert_scores_within_budget(frozen: &[f64], tape: &[f64], what: &str) {
    let worst = max_abs(frozen, tape);
    assert!(worst <= 1e-5, "{what}: max-abs {worst:e} > 1e-5");
    if frozen.len() > 2 {
        if let Some(t) = try_tau(frozen, tape) {
            assert!(t >= 1.0, "{what}: Kendall tau {t:.4} < 1.0");
        }
    }
}

fn assert_within_budget(model: &HwPrNas, archs: &[Architecture], platform: Platform) {
    let frozen_scores = model.predict_scores(archs, platform).unwrap();
    let tape_scores = model.predict_scores_tape(archs, platform).unwrap();
    assert_scores_within_budget(&frozen_scores, &tape_scores, "scores");

    let (ff_scores, ff_objs) = model.predict_full(archs, platform).unwrap();
    let (tf_scores, tf_objs) = model.predict_full_tape(archs, platform).unwrap();
    assert_scores_within_budget(&ff_scores, &tf_scores, "full scores");
    let f_flat: Vec<f64> = ff_objs.iter().flatten().copied().collect();
    let t_flat: Vec<f64> = tf_objs.iter().flatten().copied().collect();
    let worst = max_abs(&f_flat, &t_flat);
    assert!(worst <= 1e-5, "full objectives: max-abs {worst:e} > 1e-5");

    let frozen_objs = model.predict_objectives(archs, platform).unwrap();
    let tape_objs = model.predict_objectives_tape(archs, platform).unwrap();
    let f_flat: Vec<f64> = frozen_objs.iter().flat_map(|&(a, l)| [a, l]).collect();
    let t_flat: Vec<f64> = tape_objs.iter().flat_map(|&(a, l)| [a, l]).collect();
    let worst = max_abs(&f_flat, &t_flat);
    assert!(worst <= 1e-5, "objectives: max-abs {worst:e} > 1e-5");
}

#[test]
fn frozen_engine_stays_within_budget_of_tape() {
    let (model, archs) = trained_single();
    assert_within_budget(&model, &archs, Platform::EdgeGpu);
}

#[test]
fn frozen_engine_matches_tape_on_every_platform() {
    let (model, archs) = trained_multi();
    for &platform in model.platforms() {
        assert_within_budget(&model, &archs, platform);
    }
}

#[test]
fn uneven_final_chunks_stay_within_budget() {
    let (model, archs) = trained_single();
    let tape_scores = model
        .predict_scores_tape(&archs, Platform::EdgeGpu)
        .unwrap();
    // 48 archs in chunks of 7 leaves a final chunk of 6; batch 5 leaves 3
    for batch in [7usize, 5, 48, 64] {
        let frozen = model.freeze_with_batch(batch);
        assert_eq!(frozen.batch(), batch);
        let scores = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        assert_scores_within_budget(&scores, &tape_scores, "chunked scores");
    }
}

/// `predict_full` derives its error column from the accuracy column the
/// objectives call returns: `[100 − acc, lat]` bit for bit, across several
/// chunks at a width that leaves an uneven final chunk.
#[test]
fn full_objectives_derive_from_the_objective_pairs_bit_for_bit() {
    let (model, _) = trained_single();
    let archs = eval_archs(160);
    model.freeze_with_batch(37);
    let (_, full) = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    let pairs = model.predict_objectives(&archs, Platform::EdgeGpu).unwrap();
    assert_eq!(full.len(), pairs.len());
    for (row, &(acc, lat)) in full.iter().zip(&pairs) {
        assert_eq!(row.len(), 2);
        assert_eq!(row[0].to_bits(), (100.0 - acc).to_bits());
        assert_eq!(row[1].to_bits(), lat.to_bits());
    }
}

#[test]
fn batched_engine_matches_serial_bit_identically() {
    let (model, _) = trained_single();
    let archs = eval_archs(160);
    model.freeze_with_batch(1);
    let serial = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
    for batch in [7usize, 64, 129] {
        model.freeze_with_batch(batch);
        let batched = model.predict_full(&archs, Platform::EdgeGpu).unwrap();
        assert_eq!(batched, serial, "batch width {batch} diverges from serial");
    }
}

/// Shared fixture for the proptest below only — proptest cases run
/// sequentially inside one `#[test]`, so reinstalling the frozen engine
/// per case never races with the other tests (which train their own
/// models).
fn proptest_fixture() -> &'static (HwPrNas, Vec<Architecture>, Vec<f64>) {
    static FIX: OnceLock<(HwPrNas, Vec<Architecture>, Vec<f64>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let (model, archs) = trained_single();
        let tape = model
            .predict_scores_tape(&archs, Platform::EdgeGpu)
            .unwrap();
        (model, archs, tape)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Scores are per-architecture, so any prefix scored at any batch
    // width must reproduce the tape reference within the error budget.
    #[test]
    fn any_batch_width_stays_within_budget_of_the_tape(
        batch in 1usize..=160,
        len in 1usize..=48,
    ) {
        let (model, archs, tape) = proptest_fixture();
        model.freeze_with_batch(batch);
        let scores = model
            .predict_scores(&archs[..len], Platform::EdgeGpu)
            .unwrap();
        let worst = max_abs(&scores, &tape[..len]);
        prop_assert!(worst <= 1e-5, "batch {} len {}: max-abs {:e}", batch, len, worst);
    }
}

#[test]
fn unknown_platform_still_fails_fast() {
    let (model, archs) = trained_single();
    assert!(model.predict_scores(&archs, Platform::Eyeriss).is_err());
    assert!(model.predict_full(&archs, Platform::Eyeriss).is_err());
}

/// An FBNet architecture sent to a NAS-Bench-201 model is a data error on
/// the frozen and tape paths alike — not a panic in the graph padding —
/// and the model keeps answering valid requests afterwards.
#[test]
fn foreign_architecture_is_a_data_error() {
    let (model, archs) = trained_single();
    let mut batch = archs[..3].to_vec();
    batch.push(Architecture::fbnet_from_index(7).unwrap());
    let p = Platform::EdgeGpu;
    let is_data = |r: Result<(), CoreError>| matches!(r, Err(CoreError::Data(_)));
    assert!(is_data(model.predict_scores(&batch, p).map(drop)));
    assert!(is_data(model.predict_objectives(&batch, p).map(drop)));
    assert!(is_data(model.predict_full(&batch, p).map(drop)));
    assert!(is_data(model.predict_scores_tape(&batch, p).map(drop)));
    assert!(is_data(model.predict_objectives_tape(&batch, p).map(drop)));
    assert!(is_data(model.predict_full_tape(&batch, p).map(drop)));
    let scores = model.predict_scores(&archs, p).unwrap();
    assert_eq!(scores.len(), archs.len());
}
