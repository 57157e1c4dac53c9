//! Correctness differential: a round trip through the serving stack must
//! return exactly what the frozen engine returns in-process — bit-for-bit
//! (results cross the wire as exact `f64` bit patterns) — including when
//! the server coalesces uneven batches from interleaved clients into one
//! forward. Those clients pipeline their requests in one write, so the
//! server admits each client's requests together and they coalesce.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_serve::{ModelRegistry, PredictKind, ServeClient, ServeConfig, Server};
use std::sync::Arc;

mod common;
use common::{pipelined, Reply};

fn trained(n: usize) -> (Arc<HwPrNas>, Vec<Architecture>) {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(n),
        seed: 11,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    let archs = data.samples().iter().map(|s| s.arch.clone()).collect();
    (Arc::new(model), archs)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn pair_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|(a, l)| (a.to_bits(), l.to_bits())).collect()
}

#[test]
fn round_trip_is_bit_identical_to_direct_frozen_inference_at_f32() {
    let (nas, archs) = trained(48);
    nas.freeze_with_batch(16);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&nas));
    let served = registry.get("default").unwrap();
    let slot = served.slot("Edge GPU").unwrap();

    let direct_scores = served
        .frozen()
        .predict_scores(served.cache(), &archs, slot)
        .unwrap();
    let direct_objectives = served
        .frozen()
        .predict_objectives(served.cache(), &archs, slot)
        .unwrap();

    let server = Server::start(registry, ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &archs)
        .unwrap();
    assert_eq!(bits(&scores), bits(&direct_scores));

    let objectives = client
        .predict_objectives("default", Platform::EdgeGpu, &archs)
        .unwrap();
    assert_eq!(pair_bits(&objectives), pair_bits(&direct_objectives));

    assert_eq!(client.list_models().unwrap(), vec![("default".into(), 1)]);
}

/// Interleaved clients with uneven batch sizes (7 and 13), each
/// pipelining its requests in one write: the server admits each client's
/// requests as one group and merges them into one forward, and every
/// client still gets exactly its own rows, bit-identical to a direct
/// call on its own sub-batch.
#[test]
fn coalesced_uneven_batches_split_back_bit_exactly() {
    let (nas, archs) = trained(80);
    nas.freeze_with_batch(16);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&nas));
    let served = registry.get("default").unwrap();
    let slot = served.slot("Edge GPU").unwrap();

    let config = ServeConfig {
        max_batch: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&registry), config).unwrap();
    let addr = server.addr();

    let sizes: &[&[usize]] = &[&[7, 13, 7], &[13, 7, 13]];
    let mut handles = Vec::new();
    for (worker, plan) in sizes.iter().enumerate() {
        let archs = archs.clone();
        let plan: Vec<usize> = plan.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut offset = worker * 40;
            let mut windows = Vec::new();
            for &n in &plan {
                windows.push(archs[offset..offset + n].to_vec());
                offset += n;
            }
            let requests: Vec<_> = windows
                .iter()
                .map(|w| (PredictKind::Scores, w.as_slice()))
                .collect();
            let replies = pipelined(addr, &requests);
            (windows, replies)
        }));
    }
    for handle in handles {
        let (windows, replies) = handle.join().unwrap();
        assert_eq!(windows.len(), replies.len());
        for (window, reply) in windows.iter().zip(&replies) {
            let Reply::Scores(scores) = reply else {
                panic!("a Scores request got {reply:?}");
            };
            let direct = served
                .frozen()
                .predict_scores(served.cache(), window, slot)
                .unwrap();
            assert_eq!(bits(scores), bits(&direct));
        }
    }
}

/// Two interleaved clients each pipeline a Scores and an Objectives
/// request for the same rows in one write — the pair a search client
/// sends per generation. The server runs each pair's rows once and
/// answers both kinds from that forward; every reply stays bit-identical
/// to a direct call of its own kind.
#[test]
fn scores_and_objectives_twins_split_back_bit_exactly() {
    let (nas, archs) = trained(80);
    nas.freeze_with_batch(16);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&nas));
    let served = registry.get("default").unwrap();
    let slot = served.slot("Edge GPU").unwrap();

    let config = ServeConfig {
        max_batch: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&registry), config).unwrap();
    let addr = server.addr();

    let windows = [archs[..11].to_vec(), archs[40..57].to_vec()];
    let handles: Vec<_> = windows
        .iter()
        .cloned()
        .map(|window| {
            std::thread::spawn(move || {
                pipelined(
                    addr,
                    &[
                        (PredictKind::Scores, &window),
                        (PredictKind::Objectives, &window),
                    ],
                )
            })
        })
        .collect();
    for (window, handle) in windows.iter().zip(handles) {
        let replies = handle.join().unwrap();
        let [Reply::Scores(scores), Reply::Objectives(objectives)] = &replies[..] else {
            panic!("unexpected replies {replies:?}");
        };
        let frozen = served.frozen();
        let direct_scores = frozen.predict_scores(served.cache(), window, slot).unwrap();
        let direct_objectives = frozen
            .predict_objectives(served.cache(), window, slot)
            .unwrap();
        assert_eq!(bits(scores), bits(&direct_scores));
        assert_eq!(pair_bits(objectives), pair_bits(&direct_objectives));
    }
}
