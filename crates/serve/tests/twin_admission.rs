//! A Scores + Objectives pair that arrives in one write rides one
//! forward even when its rows alone exceed `max_batch`: the connection
//! reader admits both buffered frames as one group, so the Objectives
//! twin is queued before any worker can extract its partner.
//!
//! Its own test binary, with telemetry on: the recorder slot and the
//! serving metrics are process-global, so no other test may push
//! requests meanwhile.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_obs::metrics::registry;
use hwpr_obs::sink::NullSink;
use hwpr_serve::{ModelRegistry, PredictKind, ServeClient, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{pipelined, Reply};

/// Waits until every admitted row has been replied to and its batch
/// recorded (the worker records a batch after sending its replies).
fn drained() {
    let inflight = registry().gauge("serve.inflight.rows");
    let give_up = Instant::now() + Duration::from_secs(10);
    while inflight.get() != 0.0 {
        assert!(Instant::now() < give_up, "in-flight rows never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_pipelined_twin_pair_wider_than_max_batch_runs_one_forward() {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(24),
        seed: 5,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (nas, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    let models = Arc::new(ModelRegistry::new());
    models.publish("default", Arc::new(nas));
    let served = models.get("default").unwrap();
    let slot = served.slot(Platform::EdgeGpu.name()).unwrap();

    hwpr_obs::install(Arc::new(NullSink));
    let config = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&models), config).unwrap();
    // one round trip registers the serving metrics, so the lookups below
    // read the live ones
    ServeClient::connect(server.addr())
        .unwrap()
        .predict_scores(
            "default",
            Platform::EdgeGpu,
            &[Architecture::nb201_from_index(1).unwrap()],
        )
        .unwrap();
    drained();
    let batches = registry().counter("serve.batches");
    let batch_rows = registry().histogram("serve.batch.rows", &[]);
    let (before, count, sum) = (batches.get(), batch_rows.count(), batch_rows.sum());

    let rows: Vec<Architecture> = (0..11)
        .map(|i| Architecture::nb201_from_index(i * 101).unwrap())
        .collect();
    let frozen = served.frozen();
    let direct_scores = bits(&frozen.predict_scores(served.cache(), &rows, slot).unwrap());
    let direct_objectives = pair_bits(
        &frozen
            .predict_objectives(served.cache(), &rows, slot)
            .unwrap(),
    );
    // a worker that found only the Scores frame would run the twin on
    // its own; that race is rare, so send the pair many times
    let pairs = 500;
    for _ in 0..pairs {
        let replies = pipelined(
            server.addr(),
            &[
                (PredictKind::Scores, &rows),
                (PredictKind::Objectives, &rows),
            ],
        );
        let [Reply::Scores(scores), Reply::Objectives(objectives)] = &replies[..] else {
            panic!("unexpected replies {replies:?}");
        };
        assert_eq!(bits(scores), direct_scores);
        assert_eq!(pair_bits(objectives), direct_objectives);
    }
    drained();
    assert_eq!(batches.get() - before, pairs, "a twin ran its own forward");
    assert_eq!(batch_rows.count() - count, pairs);
    assert_eq!(
        batch_rows.sum() - sum,
        (11 * pairs) as f64,
        "the engine ran each pair's 11 rows once"
    );
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn pair_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|(a, l)| (a.to_bits(), l.to_bits())).collect()
}
