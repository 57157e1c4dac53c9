//! Serving gauges under twin batching, with telemetry on. A twin adds
//! rows at admission like any request, but the engine runs its list only
//! once: `serve.inflight.rows` must still drain to 0, and
//! `serve.batch.rows` must record the rows the engine actually ran.
//!
//! Its own test binary: the recorder slot and the serving metrics are
//! process-global, so no other test may push requests meanwhile.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_obs::metrics::registry;
use hwpr_obs::sink::NullSink;
use hwpr_serve::{
    BatchQueue, ModelRegistry, Pending, PredictKind, ReplySink, ServeConfig, WorkerState,
};
use std::sync::Arc;
use std::time::Instant;

struct DropSink;

impl ReplySink for DropSink {
    fn send(&self, _frame: &[u8]) {}
}

#[test]
fn inflight_rows_drain_to_zero_after_a_twin_batch() {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(24),
        seed: 5,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (nas, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    let models = ModelRegistry::new();
    models.publish("m", Arc::new(nas));
    let model = models.get("m").unwrap();

    hwpr_obs::install(Arc::new(NullSink));
    let config = ServeConfig {
        max_batch: 64,
        ..ServeConfig::default()
    };
    let queue = BatchQueue::new(&config);
    let shared: Vec<Architecture> = (0..6)
        .map(|i| Architecture::nb201_from_index(i * 11).unwrap())
        .collect();
    let other: Vec<Architecture> = (0..4)
        .map(|i| Architecture::nb201_from_index(500 + i).unwrap())
        .collect();
    let plan = [
        (PredictKind::Scores, &shared),
        (PredictKind::Scores, &other),
        (PredictKind::Objectives, &shared),
    ];
    let mut group = Vec::new();
    for (id, (kind, rows)) in plan.into_iter().enumerate() {
        let mut archs = queue.take_arch_buf();
        archs.extend_from_slice(rows);
        group.push(Pending {
            request_id: id as u64,
            kind,
            model: Arc::clone(&model),
            slot: 0,
            archs,
            reply: Arc::new(DropSink),
            arrived: Instant::now(),
        });
    }
    assert_eq!(queue.push(&mut group), plan.len());
    let inflight = registry().gauge("serve.inflight.rows");
    assert_eq!(inflight.get(), (2 * shared.len() + other.len()) as f64);

    // admission registered the serving metrics, so this is the live one
    let batch_rows = registry().histogram("serve.batch.rows", &[]);
    let (count, sum) = (batch_rows.count(), batch_rows.sum());
    let mut worker = WorkerState::new(&config, hwpr_obs::SpanContext::NONE);
    assert!(worker.try_run_once(&queue));
    assert!(
        !worker.try_run_once(&queue),
        "the twin rode the first batch"
    );

    assert_eq!(inflight.get(), 0.0, "in-flight rows must drain");
    assert_eq!(batch_rows.count() - count, 1);
    assert_eq!(
        batch_rows.sum() - sum,
        (shared.len() + other.len()) as f64,
        "the engine ran the shared list once"
    );
}
