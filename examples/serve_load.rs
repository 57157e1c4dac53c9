//! Serving load generator: start the prediction server in-process, drive
//! it with concurrent pipelining clients at batch 1 / 8 / 64, and print a
//! req/s + p99 table comparing work-conserving micro-batching
//! (`max_batch` 64) against the uncoalesced baseline (`max_batch` 1).
//! Finishes with a live hot-swap — republishing a retrained model
//! mid-load — and reports how many requests each version answered
//! (expected: zero failures).
//!
//! ```text
//! cargo run --release --example serve_load
//! ```
//!
//! The workload is deterministic (seeded architecture population, fixed
//! client/round grid); throughput numbers move with the host, the
//! response payloads do not.

use hw_pr_nas::core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hw_pr_nas::hwmodel::{Platform, SimBench, SimBenchConfig};
use hw_pr_nas::nasbench::{Architecture, Dataset, SearchSpaceId};
use hw_pr_nas::obs::config::{TelemetrySpec, TELEMETRY_ENV};
use hw_pr_nas::serve::{ModelRegistry, PredictKind, ServeClient, ServeConfig, Server};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const PIPELINE_DEPTH: usize = 16;

fn train(seed: u64) -> Arc<HwPrNas> {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(64),
        seed,
    });
    let data = SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu)
        .expect("bench is non-empty");
    let (model, _) =
        HwPrNas::fit(&data, &ModelConfig::fast(), &TrainConfig::tiny()).expect("training failed");
    model.freeze_with_batch(64);
    Arc::new(model)
}

fn population(n: usize) -> Arc<Vec<Architecture>> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    Arc::new(
        (0..n)
            .map(|_| Architecture::random(SearchSpaceId::NasBench201, &mut rng))
            .collect(),
    )
}

struct LoadResult {
    requests: usize,
    req_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Drives `clients` pipelining connections, each sending `rounds`
/// batch-`batch` score requests. Latency is measured client-side.
fn drive(
    addr: SocketAddr,
    archs: &Arc<Vec<Architecture>>,
    clients: usize,
    batch: usize,
    rounds: usize,
) -> LoadResult {
    let started = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..clients {
        let archs = Arc::clone(archs);
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            let window = |i: usize| {
                let at = (worker * 31 + i * batch) % (archs.len() - batch);
                &archs[at..at + batch]
            };
            let mut sent_at = vec![Instant::now(); rounds + 1];
            let mut latencies = Vec::with_capacity(rounds);
            let mut scores = Vec::new();
            let mut next = 0usize;
            for _ in 0..PIPELINE_DEPTH.min(rounds) {
                next += 1;
                sent_at[next] = Instant::now();
                client
                    .send_predict(
                        PredictKind::Scores,
                        "default",
                        Platform::EdgeGpu,
                        window(next),
                    )
                    .expect("send");
            }
            for _ in 0..rounds {
                scores.clear();
                let id = client.recv_scores(&mut scores).expect("recv") as usize;
                assert_eq!(scores.len(), batch);
                latencies.push(sent_at[id].elapsed().as_secs_f64() * 1e6);
                if next < rounds {
                    next += 1;
                    sent_at[next] = Instant::now();
                    client
                        .send_predict(
                            PredictKind::Scores,
                            "default",
                            Platform::EdgeGpu,
                            window(next),
                        )
                        .expect("send");
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: usize| latencies[((latencies.len() - 1) * p) / 100];
    LoadResult {
        requests: clients * rounds,
        req_per_sec: (clients * rounds) as f64 / wall.max(1e-9),
        p50_us: pct(50),
        p99_us: pct(99),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // telemetry is optional: HWPR_TELEMETRY=jsonl:/tmp/serve.jsonl records
    // serve.request / serve.batch spans and the serving counters; an
    // unwritable sink warns and the load run continues unrecorded
    if let Ok(value) = std::env::var(TELEMETRY_ENV) {
        TelemetrySpec::parse(&value)?.install_or_warn();
    }

    println!("training serving fixture (fast config) ...");
    let model = train(1);
    let archs = population(256);
    // encode the population once, so the first scenario does not pay the
    // model's encoding-cache fill that every later one skips
    model
        .frozen()
        .predict_scores(model.encoding_cache(), &archs, 0)
        .expect("warm-up prediction");
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&model));

    // two servers, same workload: micro-batching on vs off
    let coalesced_config = ServeConfig {
        max_batch: 64,
        ..ServeConfig::default()
    };
    let uncoalesced_config = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };

    println!("\n  scenario          batch  clients    req/s    p50 us    p99 us");
    let grid: [(&str, usize, usize, usize); 3] =
        [("b1", 1, 8, 150), ("b8", 8, 4, 60), ("b64", 64, 2, 30)];
    let mut coalesced_b1 = 0.0;
    let mut uncoalesced_b1 = 0.0;
    for (label, config, tag) in [
        (&coalesced_config, "coalesced", true),
        (&uncoalesced_config, "uncoalesced", false),
    ]
    .map(|(c, l, t)| (l, c, t))
    {
        let server = Server::start(Arc::clone(&registry), config.clone())?;
        for (name, batch, clients, rounds) in grid {
            // the uncoalesced baseline only matters for the batch-1 grid
            // row the acceptance ratio is defined over
            if !tag && batch != 1 {
                continue;
            }
            let r = drive(server.addr(), &archs, clients, batch, rounds);
            println!(
                "  {label:<12} {name:>8} {clients:>8} {:>8.0} {:>9.0} {:>9.0}",
                r.req_per_sec, r.p50_us, r.p99_us
            );
            if batch == 1 {
                if tag {
                    coalesced_b1 = r.req_per_sec;
                } else {
                    uncoalesced_b1 = r.req_per_sec;
                }
            }
            assert_eq!(r.requests, clients * rounds);
        }
    }
    println!(
        "\nmicro-batching win at client batch 1: {:.1}x",
        coalesced_b1 / uncoalesced_b1.max(1e-9)
    );

    // hot-swap under load: retrain, publish mid-stream, count versions
    println!("\nhot-swap under load: publishing v2 while requests are in flight ...");
    let v2 = train(2);
    let server = Server::start(Arc::clone(&registry), coalesced_config)?;
    let addr = server.addr();
    let probe: Vec<Architecture> = archs[..8].to_vec();
    let reference = |m: &Arc<HwPrNas>| -> Vec<u64> {
        let frozen = m.frozen();
        frozen
            .predict_scores(m.encoding_cache(), &probe, 0)
            .expect("direct prediction")
            .iter()
            .map(|s| s.to_bits())
            .collect()
    };
    let v1_bits = reference(&model);
    // the loader keeps requests flowing and reports after 100 v1
    // replies; the publish then lands mid-stream, and the loader stops
    // once v2 has answered 100 (or after a bounded number of requests)
    let (v1_seen, publish_now) = std::sync::mpsc::channel();
    let loader = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect");
        let mut answered = [0usize; 2];
        for _ in 0..100_000 {
            let scores = client
                .predict_scores("default", Platform::EdgeGpu, &probe)
                .expect("no request may fail across the swap");
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            answered[usize::from(bits != v1_bits)] += 1;
            if answered == [100, 0] {
                v1_seen.send(()).expect("main thread waits for this");
            }
            if answered[1] == 100 {
                break;
            }
        }
        answered
    });
    publish_now.recv()?;
    let version = registry.publish("default", Arc::clone(&v2));
    let answered = loader.join().expect("load thread");
    println!(
        "published v{version}; {} requests answered by v1, {} by v2, 0 failed",
        answered[0], answered[1]
    );

    hw_pr_nas::obs::metrics::registry().emit();
    hw_pr_nas::obs::shutdown();
    Ok(())
}
