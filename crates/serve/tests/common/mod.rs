//! Shared by the serving integration tests: a client that pipelines a
//! whole set of requests in one write, so the server's connection reader
//! finds every frame buffered at once and admits them as one group.

use hwpr_hwmodel::Platform;
use hwpr_nasbench::Architecture;
use hwpr_serve::{protocol, PredictKind};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// One successful reply, decoded by the kind its request asked for.
#[derive(Debug)]
pub enum Reply {
    Scores(Vec<f64>),
    Objectives(Vec<(f64, f64)>),
}

/// Sends `requests` (request ids `1..=n`, in order) to `addr` in one
/// write on a fresh connection and returns their replies in request
/// order, whatever order the server answered in. Panics on any
/// non-OK reply.
pub fn pipelined(addr: SocketAddr, requests: &[(PredictKind, &[Architecture])]) -> Vec<Reply> {
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for (id, (kind, archs)) in (1..).zip(requests) {
        let platform = Platform::EdgeGpu.name();
        protocol::encode_predict(&mut payload, *kind, id, "default", platform, archs);
        protocol::write_frame(&mut wire, &payload).unwrap();
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&wire).unwrap();
    let mut replies: Vec<Option<Reply>> = requests.iter().map(|_| None).collect();
    let mut frame = Vec::new();
    for _ in requests {
        assert!(protocol::read_frame(&mut stream, &mut frame, protocol::MAX_FRAME).unwrap());
        let head = protocol::decode_response_head(&frame).unwrap();
        assert_eq!(
            head.status,
            protocol::STATUS_OK,
            "request {}",
            head.request_id
        );
        let at = head.request_id as usize - 1;
        let reply = match requests[at].0 {
            PredictKind::Scores => {
                let mut out = Vec::new();
                protocol::decode_scores(head.body, &mut out).unwrap();
                Reply::Scores(out)
            }
            PredictKind::Objectives => {
                let mut out = Vec::new();
                protocol::decode_objectives(head.body, &mut out).unwrap();
                Reply::Objectives(out)
            }
        };
        assert!(
            replies[at].replace(reply).is_none(),
            "two replies to one id"
        );
    }
    replies.into_iter().map(Option::unwrap).collect()
}
