//! Hot-swap semantics under load: publishing v2 while v1 requests are in
//! flight must (a) let every in-flight v1 request finish on v1 weights,
//! (b) route subsequent requests to v2, and (c) produce no errors — each
//! response is bit-identical to one of the two engines' direct output,
//! and the tail of the stream is all v2.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_serve::{ModelRegistry, ServeClient, ServeConfig, Server};
use std::sync::Arc;

fn trained(seed: u64) -> Arc<HwPrNas> {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(40),
        seed,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    model.freeze_with_batch(16);
    Arc::new(model)
}

fn probe(n: usize) -> Vec<Architecture> {
    (0..n as u64)
        .map(|i| Architecture::nb201_from_index(i * 37 % 15625).unwrap())
        .collect()
}

fn direct_bits(nas: &Arc<HwPrNas>, archs: &[Architecture]) -> Vec<u64> {
    let frozen = nas.frozen();
    frozen
        .predict_scores(nas.encoding_cache(), archs, 0)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

#[test]
fn inflight_requests_finish_on_old_weights_and_later_ones_see_new() {
    let v1 = trained(1);
    let v2 = trained(2);
    let archs = probe(12);
    let v1_bits = direct_bits(&v1, &archs);
    let v2_bits = direct_bits(&v2, &archs);
    assert_ne!(v1_bits, v2_bits, "fixtures must be distinguishable");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&v1));
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();
    let addr = server.addr();

    let rounds = 120;
    // the client pauses after this many v1 replies until the publish has
    // returned, so the swap lands mid-stream by construction
    let v1_replies = 10;
    let (v1_seen, publish_now) = std::sync::mpsc::channel();
    let (published, resume) = std::sync::mpsc::channel();
    let client_thread = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).unwrap();
        let mut responses = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let scores = client
                .predict_scores("default", Platform::EdgeGpu, &archs)
                .expect("no request may fail across the swap");
            responses.push(scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>());
            if responses.len() == v1_replies {
                v1_seen.send(()).unwrap();
                resume.recv().unwrap();
            }
        }
        responses
    });

    // let some v1 traffic through, then hot-swap mid-stream
    publish_now.recv().unwrap();
    assert_eq!(registry.publish("default", Arc::clone(&v2)), 2);
    published.send(()).unwrap();

    let responses = client_thread.join().unwrap();
    assert_eq!(responses.len(), rounds);
    assert!(
        responses[..v1_replies].iter().all(|bits| bits == &v1_bits),
        "replies before the publish must come off v1"
    );
    // every response came off exactly one engine — never a torn mix
    let mut v2_seen = false;
    for (i, bits) in responses.iter().enumerate() {
        if bits == &v2_bits {
            v2_seen = true;
        } else {
            assert_eq!(bits, &v1_bits, "response {i} matches neither engine");
            assert!(!v2_seen, "response {i} regressed from v2 back to v1");
        }
    }
    assert!(
        responses[v1_replies..].iter().all(|bits| bits == &v2_bits),
        "requests sent after the publish returned must see v2"
    );
    assert!(v2_seen, "the swap never became visible");
    assert_eq!(registry.get("default").unwrap().version(), 2);
}

#[test]
fn saving_a_watched_path_republishes_the_model() {
    let v1 = trained(3);
    let v2 = trained(4);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&v1));

    let dir = std::env::temp_dir().join(format!("hwpr-serve-republish-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let watched = dir.join("default.json");
    let elsewhere = dir.join("other.json");

    let watch = registry.republish_on_save("default", &watched);
    // a save to some other path must not republish
    v2.save(&elsewhere).unwrap();
    assert_eq!(registry.get("default").unwrap().version(), 1);
    // a save to the watched path hot-swaps
    v2.save(&watched).unwrap();
    let served = registry.get("default").unwrap();
    assert_eq!(served.version(), 2);
    // the republished model is the reloaded v2, not v1: compare against
    // an independently loaded copy (same params, same compile path)
    let archs = probe(8);
    let reloaded_bits: Vec<u64> = served
        .frozen()
        .predict_scores(served.cache(), &archs, 0)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let reference = Arc::new(HwPrNas::load(&watched).unwrap());
    assert_eq!(reloaded_bits, direct_bits(&reference, &archs));
    assert_ne!(reloaded_bits, direct_bits(&v1, &archs));

    // dropping the guard disarms the watch
    drop(watch);
    v1.save(&watched).unwrap();
    assert_eq!(registry.get("default").unwrap().version(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
