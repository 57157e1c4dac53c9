//! Failure-path coverage: malformed frames, hostile frame sizes, clients
//! vanishing mid-request, unknown models/platforms, architectures from
//! another search space, and explicit backpressure. The server must answer what it can answer, drop what it
//! must drop, and keep serving everyone else.

use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_serve::{
    protocol, ModelRegistry, PredictKind, ServeClient, ServeConfig, ServeError, Server,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn trained() -> Arc<HwPrNas> {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(32),
        seed: 21,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    model.freeze_with_batch(8);
    Arc::new(model)
}

fn probe(n: usize) -> Vec<Architecture> {
    (0..n as u64)
        .map(|i| Architecture::nb201_from_index(i * 13 % 15625).unwrap())
        .collect()
}

fn started(config: ServeConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", trained());
    Server::start(registry, config).unwrap()
}

#[test]
fn malformed_requests_get_error_replies_and_the_connection_survives() {
    let server = started(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // bad protocol version
    client.send_raw(&[99, 1, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    let (status, _, message) = client.recv_raw().unwrap();
    assert_eq!(status, protocol::STATUS_ERROR);
    assert!(message.contains("version"), "got: {message}");

    // truncated predict body
    client
        .send_raw(&[protocol::PROTOCOL_VERSION, 1, 7, 0, 0, 0, 0, 0, 0, 0])
        .unwrap();
    let (status, request_id, _) = client.recv_raw().unwrap();
    assert_eq!(status, protocol::STATUS_ERROR);
    assert_eq!(request_id, 7, "error must echo the request id");

    // unknown model / unknown platform are request-level errors
    let archs = probe(3);
    let err = client
        .predict_scores("ghost", Platform::EdgeGpu, &archs)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("ghost")),
        "{err}"
    );
    let err = client
        .predict_scores("default", Platform::RaspberryPi4, &archs)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("latency head")),
        "{err}"
    );

    // ...and the same connection still serves valid requests afterwards
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &archs)
        .unwrap();
    assert_eq!(scores.len(), archs.len());
}

#[test]
fn oversized_frames_drop_the_connection_but_not_the_server() {
    let server = started(ServeConfig::default());
    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    let huge = vec![0u8; protocol::MAX_FRAME + 1];
    // the server must sever this connection rather than buffer the frame;
    // it may close while the frame is still being written, so either the
    // write or the next read fails
    let severed = hostile.send_raw(&huge).is_err() || hostile.recv_raw().is_err();
    assert!(severed);

    // fresh connections are unaffected
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &probe(4))
        .unwrap();
    assert_eq!(scores.len(), 4);
}

#[test]
fn client_disconnect_mid_request_does_not_poison_the_worker() {
    // the queue does not wait, so the reply may reach the socket before
    // or after the client is gone; the unit test next to the TCP reply
    // sink pins the dead-socket path itself
    let server = started(ServeConfig {
        max_batch: 1024,
        ..ServeConfig::default()
    });
    {
        let mut doomed = ServeClient::connect(server.addr()).unwrap();
        doomed
            .send_predict(PredictKind::Scores, "default", Platform::EdgeGpu, &probe(5))
            .unwrap();
        // dropped here, with the request admitted or still on the wire
    }
    std::thread::sleep(Duration::from_millis(120));
    // whether or not its reply met a dead socket, the worker moved on
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &probe(6))
        .unwrap();
    assert_eq!(scores.len(), 6);
}

#[test]
fn a_foreign_architecture_fails_alone_and_the_worker_keeps_serving() {
    // one worker: were the FBNet row to reach it, the graph padding would
    // panic it and nobody would be answered again
    let server = started(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (tx, rx) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let mut foreign = probe(2);
        foreign.push(Architecture::fbnet_from_index(5).unwrap());
        let mut client = ServeClient::connect(addr).unwrap();
        let rejected = client.predict_scores("default", Platform::EdgeGpu, &foreign);
        let mut next = ServeClient::connect(addr).unwrap();
        let answered = next.predict_scores("default", Platform::EdgeGpu, &probe(4));
        tx.send((rejected, answered)).unwrap();
    });
    // read timeout: a request that kills the worker is never answered
    let (rejected, answered) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("no reply within 20 s");
    driver.join().expect("client thread");
    let err = rejected.unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("does not fit")),
        "{err}"
    );
    assert_eq!(answered.unwrap().len(), 4);
}

#[test]
fn full_queue_sheds_with_an_explicit_overloaded_response() {
    let server = started(ServeConfig {
        queue_cap: 1,
        max_batch: 4096,
        ..ServeConfig::default()
    });
    // both requests in one write: the server admits the buffered frames
    // as one group, and a queue with room for one bounces the second
    let archs = probe(2);
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for id in [1, 2] {
        protocol::encode_predict(
            &mut payload,
            PredictKind::Scores,
            id,
            "default",
            Platform::EdgeGpu.name(),
            &archs,
        );
        protocol::write_frame(&mut wire, &payload).unwrap();
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&wire).unwrap();

    // the shed reply and the served one race to the socket: match by id
    let mut frame = Vec::new();
    let mut answered = Vec::new();
    for _ in 0..2 {
        assert!(protocol::read_frame(&mut stream, &mut frame, protocol::MAX_FRAME).unwrap());
        let head = protocol::decode_response_head(&frame).unwrap();
        answered.push(head.request_id);
        if head.request_id == 2 {
            assert_eq!(head.status, protocol::STATUS_OVERLOADED);
            let message = protocol::decode_error_message(head.body);
            assert!(message.contains("queue full"), "got: {message}");
        } else {
            // the admitted request is still served
            assert_eq!(head.status, protocol::STATUS_OK);
            let mut scores = Vec::new();
            protocol::decode_scores(head.body, &mut scores).unwrap();
            assert_eq!(scores.len(), archs.len());
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, [1, 2]);
}

#[test]
fn stopping_the_server_is_idempotent_and_closes_clients_cleanly() {
    let mut server = started(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client
        .predict_scores("default", Platform::EdgeGpu, &probe(3))
        .unwrap();
    server.stop();
    server.stop();
    // the closed connection surfaces as an error, not a hang
    assert!(client
        .predict_scores("default", Platform::EdgeGpu, &probe(3))
        .is_err());
}

#[test]
fn a_server_without_workers_is_a_config_error() {
    let config = ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    };
    let err = Server::start(Arc::new(ModelRegistry::new()), config).unwrap_err();
    assert!(matches!(err, ServeError::Config(_)), "got: {err}");
}
