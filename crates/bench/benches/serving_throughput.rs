//! Serving throughput: the micro-batching win, measured through the real
//! stack — TCP framing, admission queue, coalesced frozen forward, reply
//! split.
//!
//! The headline comparison pits two configurations against the *same*
//! workload (concurrent batch-1 clients, pipelined):
//!
//! - `coalesced_b1` — `max_batch = 64`: a free worker takes every single
//!   already queued into one wide forward (the queue never waits for
//!   more);
//! - `uncoalesced_b1` — `max_batch = 1`: every request pays a full
//!   single-row forward (what a naive RPC wrapper does).
//!
//! Acceptance (asserted by the last CI bench-smoke step): coalesced
//! req/s >= uncoalesced req/s — coalescing must never lose. The margin
//! comes from the frozen engine's batch-width economics (wide chunks
//! amortise staging + dispatch), so the fixture uses the repo's default
//! `fast()` model size. On a 2-vCPU AVX-512 host, 15 runs read
//! 1.15-2.64x (median 1.49x); the scenarios are short (1 200 requests),
//! and with ten times the rounds the ratio reads 1.9-2.8x.
//!
//! `client_b8` / `client_b64` row the same coalesced server under
//! clients that already batch, bounding what micro-batching still adds.
//! All scenarios also record p99 request latency (queueing + forward +
//! reply, measured client-side from send to receive).

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use hwpr_bench::{fixture_archs, fixture_dataset};
use hwpr_core::{HwPrNas, ModelConfig, TrainConfig};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{Architecture, SearchSpaceId};
use hwpr_serve::{ModelRegistry, PredictKind, ServeClient, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Requests each client keeps in flight. Deep enough that the admission
/// queue always holds coalesce partners for the `coalesced_b1` scenario.
const PIPELINE_DEPTH: usize = 16;

fn fixture() -> Arc<HwPrNas> {
    let data = fixture_dataset(48);
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::fast(), &TrainConfig::tiny())
        .expect("training fixture failed");
    model.freeze_with_batch(64);
    Arc::new(model)
}

fn server_config(coalesce: bool) -> ServeConfig {
    ServeConfig {
        max_batch: if coalesce { 64 } else { 1 },
        ..ServeConfig::default()
    }
}

struct ScenarioResult {
    req_per_sec: f64,
    p99_us: f64,
}

/// Runs `clients` pipelining client threads against a fresh server and
/// returns aggregate request throughput and client-observed p99 latency.
fn run_scenario(
    model: &Arc<HwPrNas>,
    archs: &Arc<Vec<Architecture>>,
    coalesce: bool,
    clients: usize,
    client_batch: usize,
    rounds: usize,
) -> ScenarioResult {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(model));
    let server = Server::start(registry, server_config(coalesce)).expect("server starts");
    let addr = server.addr();

    let started = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..clients {
        let archs = Arc::clone(archs);
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("client connects");
            // deterministic per-client workload: a sliding window over
            // the shared architecture population
            let window = |i: usize| {
                let at = (worker * 31 + i * client_batch) % (archs.len() - client_batch);
                &archs[at..at + client_batch]
            };
            let mut latencies_us = Vec::with_capacity(rounds);
            let mut sent_at = vec![Instant::now(); rounds + 1];
            let depth = PIPELINE_DEPTH.min(rounds);
            let mut scores = Vec::new();
            let mut next = 0usize;
            for _ in 0..depth {
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
                assert_eq!(scores.len(), client_batch);
                latencies_us.push(sent_at[id].elapsed().as_secs_f64() * 1e6);
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
            latencies_us
        }));
    }
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99 = latencies[((latencies.len() - 1) * 99) / 100];
    ScenarioResult {
        req_per_sec: (clients * rounds) as f64 / wall.max(1e-9),
        p99_us: p99,
    }
}

fn bench_serving_throughput(c: &mut Criterion) {
    let model = fixture();

    // one conventional criterion row: a synchronous single-request round
    // trip through a coalescing server (the latency floor a lone,
    // unpipelined client pays)
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", Arc::clone(&model));
    let server = Server::start(registry, server_config(true)).expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("client connects");
    let archs = fixture_archs(SearchSpaceId::NasBench201, 64);
    let one: Vec<Architecture> = archs[..1].to_vec();
    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    group.bench_function("rtt_b1", |b| {
        b.iter(|| {
            client
                .predict_scores("default", Platform::EdgeGpu, &one)
                .expect("round trip")
        })
    });
    group.finish();
    drop(client);
    drop(server);

    // the scenarios share one population and one model: encode it once
    // first, so the grid's first scenario does not pay the encoding-cache
    // fill that every later one skips
    let population = Arc::new(fixture_archs(SearchSpaceId::NasBench201, 256));
    model
        .frozen()
        .predict_scores(model.encoding_cache(), &population, 0)
        .expect("warm-up prediction");

    // the scenario grid: (name, coalesce, clients, per-request batch,
    // rounds per client)
    let scenarios: [(&str, bool, usize, usize, usize); 4] = [
        ("coalesced_b1", true, 8, 1, 150),
        ("uncoalesced_b1", false, 8, 1, 150),
        ("client_b8", true, 4, 8, 60),
        ("client_b64", true, 2, 64, 30),
    ];
    for (name, coalesce, clients, batch, rounds) in scenarios {
        let result = run_scenario(&model, &population, coalesce, clients, batch, rounds);
        record_metric(
            format!("serving_throughput/metrics/req_per_sec_{name}"),
            result.req_per_sec,
        );
        record_metric(
            format!("serving_throughput/metrics/p99_us_{name}"),
            result.p99_us,
        );
        println!(
            "serving_throughput/{name}: {:.0} req/s, p99 {:.0} us",
            result.req_per_sec, result.p99_us
        );
    }
}

criterion_group!(benches, bench_serving_throughput);
criterion_main!(benches);
