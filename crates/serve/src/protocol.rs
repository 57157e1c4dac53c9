//! The length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! (capped at [`MAX_FRAME`] bytes) followed by the payload. Payloads are
//! versioned so the framing can evolve without breaking old clients.
//!
//! Request payload:
//!
//! ```text
//! u8  protocol version (= 1)
//! u8  opcode            1 = predict_scores, 2 = predict_objectives,
//!                       3 = list_models
//! u64 request id        echoed verbatim in the response
//! --- predict opcodes only ---
//! u16 model-name length   + UTF-8 bytes
//! u16 platform-name length + UTF-8 bytes
//! u16 architecture count
//! per architecture: u8 space tag (0 = NAS-Bench-201, 1 = FBNet)
//!                   + 6 or 22 op-index bytes
//! ```
//!
//! Response payload:
//!
//! ```text
//! u8  protocol version
//! u8  status            0 = ok, 1 = error, 2 = overloaded
//! u64 request id
//! --- ok bodies ---
//! scores:     u16 count + count x f64
//! objectives: u16 count + count x (f64 accuracy%, f64 latency ms)
//! models:     u16 count + per model (u16 name length + bytes,
//!                                    u32 version)
//! --- error / overloaded body ---
//! u16 message length + UTF-8 bytes
//! ```
//!
//! Architectures travel as raw op indices — 7 bytes for a NAS-Bench-201
//! cell, 23 for an FBNet chain — so a batch-64 request is ~0.5 KiB and
//! decoding is a bounds-checked table lookup per op with no heap
//! allocation beyond the caller's reused buffers. `f64` results cross
//! the wire as exact little-endian bit patterns, so a round-trip through
//! the server is bit-identical to the in-process prediction.

use hwpr_nasbench::{Architecture, FbnetOp, Nb201Op, FBNET_LAYERS, NB201_EDGES};
use std::io::{self, Read, Write};

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on one frame's payload size. A predict request for the
/// largest admissible batch is well under 1 MiB; anything bigger is a
/// corrupt or hostile frame and the connection is dropped.
pub const MAX_FRAME: usize = 1 << 20;

/// Largest architecture batch one request may carry (fits the `u16`
/// count field with headroom and bounds worst-case coalesce memory).
pub const MAX_REQUEST_BATCH: usize = 4096;

/// Opcode: Pareto scores.
pub const OP_PREDICT_SCORES: u8 = 1;
/// Opcode: `(accuracy %, latency ms)` objective pairs.
pub const OP_PREDICT_OBJECTIVES: u8 = 2;
/// Opcode: list the registry's models.
pub const OP_LIST_MODELS: u8 = 3;

/// Status byte: success.
pub const STATUS_OK: u8 = 0;
/// Status byte: request-level failure (message follows).
pub const STATUS_ERROR: u8 = 1;
/// Status byte: request shed by backpressure (message follows).
pub const STATUS_OVERLOADED: u8 = 2;

const SPACE_NB201: u8 = 0;
const SPACE_FBNET: u8 = 1;

/// Which prediction a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictKind {
    /// Fused Pareto scores (one `f64` per architecture).
    Scores,
    /// Denormalised `(accuracy %, latency ms)` pairs.
    Objectives,
}

impl PredictKind {
    /// The wire opcode for this prediction kind.
    pub fn opcode(self) -> u8 {
        match self {
            PredictKind::Scores => OP_PREDICT_SCORES,
            PredictKind::Objectives => OP_PREDICT_OBJECTIVES,
        }
    }
}

/// Writes one frame (length prefix + `payload`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload into `buf`. Returns `Ok(false)` on a clean
/// end-of-stream at a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// Fails on mid-frame end-of-stream, oversized length prefixes
/// (`> max`), and socket errors.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, max: usize) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < len_bytes.len() {
        let n = r.read(&mut len_bytes[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte limit"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// The size, length prefix included, of the frame at the start of `buf`
/// when all of it is there; `None` while it is still partial.
///
/// A connection reader asks this of the bytes it has already buffered
/// to decide whether one more frame can be decoded without touching the
/// socket. The answer agrees with [`read_frame`] on where the frame
/// ends. A prefix claiming more than [`MAX_FRAME`] bytes is never
/// complete: the next [`read_frame`] rejects it.
pub fn buffered_frame_len(buf: &[u8]) -> Option<usize> {
    let prefix = buf.get(..4)?;
    let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
    (len <= MAX_FRAME && buf.len() - 4 >= len).then_some(4 + len)
}

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    push_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn push_arch(buf: &mut Vec<u8>, arch: &Architecture) {
    match arch {
        Architecture::Nb201(ops) => {
            buf.push(SPACE_NB201);
            for op in ops {
                buf.push(op.index() as u8);
            }
        }
        Architecture::Fbnet(ops) => {
            buf.push(SPACE_FBNET);
            for op in ops {
                buf.push(op.index() as u8);
            }
        }
    }
}

/// Encodes a predict request payload into `buf` (cleared first).
pub fn encode_predict(
    buf: &mut Vec<u8>,
    kind: PredictKind,
    request_id: u64,
    model: &str,
    platform: &str,
    archs: &[Architecture],
) {
    debug_assert!(archs.len() <= MAX_REQUEST_BATCH);
    buf.clear();
    buf.push(PROTOCOL_VERSION);
    buf.push(kind.opcode());
    buf.extend_from_slice(&request_id.to_le_bytes());
    push_str(buf, model);
    push_str(buf, platform);
    push_u16(buf, archs.len() as u16);
    for arch in archs {
        push_arch(buf, arch);
    }
}

/// Encodes a list-models request payload into `buf` (cleared first).
pub fn encode_list_models(buf: &mut Vec<u8>, request_id: u64) {
    buf.clear();
    buf.push(PROTOCOL_VERSION);
    buf.push(OP_LIST_MODELS);
    buf.extend_from_slice(&request_id.to_le_bytes());
}

/// A decoded request header; the architectures land in the caller's
/// reused buffer.
#[derive(Debug)]
pub struct RequestHead<'a> {
    /// The request opcode (`OP_*`).
    pub opcode: u8,
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
    /// Registry name of the target model (empty for list requests).
    pub model: &'a str,
    /// Platform display name (empty for list requests).
    pub platform: &'a str,
}

/// A decode failure, carrying the best-effort request id so the error
/// response can still be correlated by the client.
#[derive(Debug)]
pub struct DecodeError {
    /// Request id when the header got far enough to carry one, else 0.
    pub request_id: u64,
    /// What was wrong with the frame.
    pub message: String,
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.data.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

fn read_arch(c: &mut Cursor<'_>) -> std::result::Result<Architecture, String> {
    let tag = c.u8().ok_or("truncated architecture tag")?;
    match tag {
        SPACE_NB201 => {
            let bytes = c.take(NB201_EDGES).ok_or("truncated NB201 ops")?;
            let mut ops = [Nb201Op::None; NB201_EDGES];
            for (slot, &b) in ops.iter_mut().zip(bytes) {
                *slot = Nb201Op::from_index(b as usize)
                    .ok_or_else(|| format!("NB201 op index {b} out of range"))?;
            }
            Ok(Architecture::nb201(ops))
        }
        SPACE_FBNET => {
            let bytes = c.take(FBNET_LAYERS).ok_or("truncated FBNet ops")?;
            let mut ops = [FbnetOp::Skip; FBNET_LAYERS];
            for (slot, &b) in ops.iter_mut().zip(bytes) {
                *slot = FbnetOp::from_index(b as usize)
                    .ok_or_else(|| format!("FBNet op index {b} out of range"))?;
            }
            Ok(Architecture::fbnet(ops))
        }
        other => Err(format!("unknown search-space tag {other}")),
    }
}

/// Decodes a request payload; predict-opcode architectures are appended
/// to `archs` (cleared first).
///
/// # Errors
///
/// Returns a [`DecodeError`] naming the malformation, with the request
/// id when the header was intact enough to carry one.
pub fn decode_request<'a>(
    payload: &'a [u8],
    archs: &mut Vec<Architecture>,
) -> std::result::Result<RequestHead<'a>, DecodeError> {
    archs.clear();
    let mut c = Cursor {
        data: payload,
        at: 0,
    };
    let fail = |request_id: u64, message: String| DecodeError {
        request_id,
        message,
    };
    let version = c
        .u8()
        .ok_or_else(|| fail(0, "empty request payload".into()))?;
    if version != PROTOCOL_VERSION {
        return Err(fail(
            0,
            format!("unsupported protocol version {version} (expected {PROTOCOL_VERSION})"),
        ));
    }
    let opcode = c
        .u8()
        .ok_or_else(|| fail(0, "truncated request: missing opcode".into()))?;
    let request_id = c
        .u64()
        .ok_or_else(|| fail(0, "truncated request: missing request id".into()))?;
    if opcode == OP_LIST_MODELS {
        return Ok(RequestHead {
            opcode,
            request_id,
            model: "",
            platform: "",
        });
    }
    if opcode != OP_PREDICT_SCORES && opcode != OP_PREDICT_OBJECTIVES {
        return Err(fail(request_id, format!("unknown opcode {opcode}")));
    }
    let model = c
        .str()
        .ok_or_else(|| fail(request_id, "malformed model name".into()))?;
    let platform = c
        .str()
        .ok_or_else(|| fail(request_id, "malformed platform name".into()))?;
    let count = c
        .u16()
        .ok_or_else(|| fail(request_id, "truncated request: missing batch count".into()))?
        as usize;
    if count == 0 {
        return Err(fail(request_id, "empty architecture batch".into()));
    }
    if count > MAX_REQUEST_BATCH {
        return Err(fail(
            request_id,
            format!("batch of {count} exceeds the per-request limit of {MAX_REQUEST_BATCH}"),
        ));
    }
    for _ in 0..count {
        archs.push(read_arch(&mut c).map_err(|m| fail(request_id, m))?);
    }
    if c.at != payload.len() {
        return Err(fail(
            request_id,
            format!("{} trailing bytes after request body", payload.len() - c.at),
        ));
    }
    Ok(RequestHead {
        opcode,
        request_id,
        model,
        platform,
    })
}

fn begin_response(buf: &mut Vec<u8>, status: u8, request_id: u64) {
    buf.clear();
    // frame length prefix, patched in finish_frame
    buf.extend_from_slice(&[0; 4]);
    buf.push(PROTOCOL_VERSION);
    buf.push(status);
    buf.extend_from_slice(&request_id.to_le_bytes());
}

fn finish_frame(buf: &mut [u8]) {
    let payload_len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Encodes a complete scores-response frame (length prefix included)
/// into `buf` (cleared first).
pub fn encode_scores_response(buf: &mut Vec<u8>, request_id: u64, scores: &[f64]) {
    begin_response(buf, STATUS_OK, request_id);
    push_u16(buf, scores.len() as u16);
    for s in scores {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    finish_frame(buf);
}

/// Encodes a complete objectives-response frame into `buf`.
pub fn encode_objectives_response(buf: &mut Vec<u8>, request_id: u64, objectives: &[(f64, f64)]) {
    begin_response(buf, STATUS_OK, request_id);
    push_u16(buf, objectives.len() as u16);
    for (a, l) in objectives {
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&l.to_le_bytes());
    }
    finish_frame(buf);
}

/// Encodes a complete model-list response frame into `buf`.
pub fn encode_list_response(buf: &mut Vec<u8>, request_id: u64, models: &[(String, u32)]) {
    begin_response(buf, STATUS_OK, request_id);
    push_u16(buf, models.len() as u16);
    for (name, version) in models {
        push_str(buf, name);
        buf.extend_from_slice(&version.to_le_bytes());
    }
    finish_frame(buf);
}

/// Encodes a complete error/overloaded response frame into `buf`.
pub fn encode_error_response(buf: &mut Vec<u8>, request_id: u64, status: u8, message: &str) {
    debug_assert!(status == STATUS_ERROR || status == STATUS_OVERLOADED);
    begin_response(buf, status, request_id);
    push_str(buf, message);
    finish_frame(buf);
}

/// A decoded response header; the body follows at `body`.
#[derive(Debug)]
pub struct ResponseHead<'a> {
    /// `STATUS_OK`, `STATUS_ERROR` or `STATUS_OVERLOADED`.
    pub status: u8,
    /// The id the request carried.
    pub request_id: u64,
    /// Status-specific body bytes.
    pub body: &'a [u8],
}

/// Splits a response payload into its header and body.
///
/// # Errors
///
/// Returns a message when the payload is truncated or version-mismatched.
pub fn decode_response_head(payload: &[u8]) -> std::result::Result<ResponseHead<'_>, String> {
    let mut c = Cursor {
        data: payload,
        at: 0,
    };
    let version = c.u8().ok_or("empty response payload")?;
    if version != PROTOCOL_VERSION {
        return Err(format!("unsupported response protocol version {version}"));
    }
    let status = c.u8().ok_or("truncated response: missing status")?;
    let request_id = c.u64().ok_or("truncated response: missing request id")?;
    Ok(ResponseHead {
        status,
        request_id,
        body: &payload[c.at..],
    })
}

/// Decodes a scores body into `out` (appended).
///
/// # Errors
///
/// Returns a message when the body length disagrees with its count.
pub fn decode_scores(body: &[u8], out: &mut Vec<f64>) -> std::result::Result<(), String> {
    let mut c = Cursor { data: body, at: 0 };
    let count = c.u16().ok_or("truncated scores body")? as usize;
    for _ in 0..count {
        let bytes = c.take(8).ok_or("truncated scores body")?;
        out.push(f64::from_le_bytes(bytes.try_into().expect("8 bytes")));
    }
    if c.at != body.len() {
        return Err("trailing bytes after scores body".into());
    }
    Ok(())
}

/// Decodes an objectives body into `out` (appended).
///
/// # Errors
///
/// Returns a message when the body length disagrees with its count.
pub fn decode_objectives(
    body: &[u8],
    out: &mut Vec<(f64, f64)>,
) -> std::result::Result<(), String> {
    let mut c = Cursor { data: body, at: 0 };
    let count = c.u16().ok_or("truncated objectives body")? as usize;
    for _ in 0..count {
        let a = c.take(8).ok_or("truncated objectives body")?;
        let l = c.take(8).ok_or("truncated objectives body")?;
        out.push((
            f64::from_le_bytes(a.try_into().expect("8 bytes")),
            f64::from_le_bytes(l.try_into().expect("8 bytes")),
        ));
    }
    if c.at != body.len() {
        return Err("trailing bytes after objectives body".into());
    }
    Ok(())
}

/// Decodes a model-list body.
///
/// # Errors
///
/// Returns a message when the body is truncated.
pub fn decode_model_list(body: &[u8]) -> std::result::Result<Vec<(String, u32)>, String> {
    let mut c = Cursor { data: body, at: 0 };
    let count = c.u16().ok_or("truncated model list")? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = c.str().ok_or("truncated model name")?.to_string();
        let version = c.take(4).ok_or("truncated model version")?;
        out.push((
            name,
            u32::from_le_bytes(version.try_into().expect("4 bytes")),
        ));
    }
    Ok(out)
}

/// Decodes an error/overloaded body's message (best effort).
pub fn decode_error_message(body: &[u8]) -> String {
    let mut c = Cursor { data: body, at: 0 };
    c.str().unwrap_or("<malformed error body>").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_nasbench::SearchSpaceId;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn archs(space: SearchSpaceId, n: usize) -> Vec<Architecture> {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        (0..n)
            .map(|_| Architecture::random(space, &mut rng))
            .collect()
    }

    #[test]
    fn predict_request_round_trips_both_spaces() {
        for space in [SearchSpaceId::NasBench201, SearchSpaceId::FBNet] {
            let batch = archs(space, 9);
            let mut payload = Vec::new();
            encode_predict(
                &mut payload,
                PredictKind::Objectives,
                42,
                "default",
                "Edge GPU",
                &batch,
            );
            let mut decoded = Vec::new();
            let head = decode_request(&payload, &mut decoded).unwrap();
            assert_eq!(head.opcode, OP_PREDICT_OBJECTIVES);
            assert_eq!(head.request_id, 42);
            assert_eq!(head.model, "default");
            assert_eq!(head.platform, "Edge GPU");
            assert_eq!(decoded, batch);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let scores = vec![0.125, -3.5e-17, f64::MIN_POSITIVE, 1.0 / 3.0];
        let mut frame = Vec::new();
        encode_scores_response(&mut frame, 7, &scores);
        let payload = &frame[4..];
        assert_eq!(
            frame.len() - 4,
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize
        );
        let head = decode_response_head(payload).unwrap();
        assert_eq!((head.status, head.request_id), (STATUS_OK, 7));
        let mut out = Vec::new();
        decode_scores(head.body, &mut out).unwrap();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let objectives = vec![(91.25, 3.75), (88.0, 1.0 / 7.0)];
        encode_objectives_response(&mut frame, 9, &objectives);
        let head = decode_response_head(&frame[4..]).unwrap();
        let mut out = Vec::new();
        decode_objectives(head.body, &mut out).unwrap();
        assert_eq!(out, objectives);

        encode_error_response(&mut frame, 11, STATUS_OVERLOADED, "queue full");
        let head = decode_response_head(&frame[4..]).unwrap();
        assert_eq!(head.status, STATUS_OVERLOADED);
        assert_eq!(decode_error_message(head.body), "queue full");

        let models = vec![("default".to_string(), 3u32), ("edge".to_string(), 1)];
        encode_list_response(&mut frame, 13, &models);
        let head = decode_response_head(&frame[4..]).unwrap();
        assert_eq!(decode_model_list(head.body).unwrap(), models);
    }

    #[test]
    fn malformed_requests_are_rejected_with_the_request_id() {
        let mut buf = Vec::new();
        let mut out = Vec::new();

        // junk version
        buf.clear();
        buf.push(99);
        assert!(decode_request(&buf, &mut out).is_err());

        // valid header, bad opcode
        encode_predict(
            &mut buf,
            PredictKind::Scores,
            21,
            "m",
            "p",
            &archs(SearchSpaceId::NasBench201, 1),
        );
        buf[1] = 77;
        let err = decode_request(&buf, &mut out).unwrap_err();
        assert_eq!(err.request_id, 21);
        assert!(err.message.contains("unknown opcode"));

        // op index out of range
        encode_predict(
            &mut buf,
            PredictKind::Scores,
            22,
            "m",
            "p",
            &archs(SearchSpaceId::NasBench201, 1),
        );
        let last = buf.len() - 1;
        buf[last] = 200;
        let err = decode_request(&buf, &mut out).unwrap_err();
        assert_eq!(err.request_id, 22);
        assert!(err.message.contains("out of range"));

        // zero-architecture batch
        encode_predict(&mut buf, PredictKind::Scores, 23, "m", "p", &[]);
        let err = decode_request(&buf, &mut out).unwrap_err();
        assert!(err.message.contains("empty"));

        // truncated body
        encode_predict(
            &mut buf,
            PredictKind::Scores,
            24,
            "m",
            "p",
            &archs(SearchSpaceId::NasBench201, 2),
        );
        buf.truncate(buf.len() - 3);
        assert!(decode_request(&buf, &mut out).is_err());

        // trailing garbage
        encode_predict(
            &mut buf,
            PredictKind::Scores,
            25,
            "m",
            "p",
            &archs(SearchSpaceId::NasBench201, 2),
        );
        buf.push(0);
        let err = decode_request(&buf, &mut out).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn frames_round_trip_and_enforce_the_size_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());
        assert!(buf.is_empty());
        // clean EOF at a boundary
        assert!(!read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());

        // oversized length prefix
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        let err = read_frame(&mut r, &mut buf, MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // mid-header EOF
        let partial = [5u8, 0];
        let mut r = &partial[..];
        let err = read_frame(&mut r, &mut buf, MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // mid-payload EOF
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hwpr_nasbench::SearchSpaceId;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Where `read_frame` says the frame at the start of `bytes` ends:
    /// `Some(consumed)` when it returns a whole frame, else `None`.
    fn read_frame_end(bytes: &[u8]) -> Option<usize> {
        let mut r = bytes;
        let mut buf = Vec::new();
        match read_frame(&mut r, &mut buf, MAX_FRAME) {
            Ok(true) => Some(bytes.len() - r.len()),
            _ => None,
        }
    }

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        collection::vec(0u8..=255, len)
    }

    /// A valid predict request: kind, id, model and platform names, and
    /// 1..12 architectures drawn from both spaces.
    #[derive(Debug)]
    struct Request {
        kind: PredictKind,
        request_id: u64,
        model: String,
        platform: String,
        archs: Vec<Architecture>,
    }

    impl Request {
        fn encode(&self) -> Vec<u8> {
            let mut payload = Vec::new();
            encode_predict(
                &mut payload,
                self.kind,
                self.request_id,
                &self.model,
                &self.platform,
                &self.archs,
            );
            payload
        }
    }

    fn name() -> impl Strategy<Value = String> {
        collection::vec(32u8..127, 0..12).prop_map(|b| String::from_utf8(b).unwrap())
    }

    fn request() -> impl Strategy<Value = Request> {
        let archs = (1usize..12, 0u64..1 << 32).prop_map(|(n, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let spaces = [SearchSpaceId::NasBench201, SearchSpaceId::FBNet];
            (0..n)
                .map(|i| Architecture::random(spaces[i % 2], &mut rng))
                .collect()
        });
        (0u8..2, 0u64..u64::MAX, name(), name(), archs).prop_map(
            |(kind, request_id, model, platform, archs)| Request {
                kind: [PredictKind::Scores, PredictKind::Objectives][kind as usize],
                request_id,
                model,
                platform,
                archs,
            },
        )
    }

    /// Decodes `payload` as a request: it may fail, with a
    /// [`DecodeError`], but must not panic or yield an oversized batch.
    fn decodes_or_fails_cleanly(payload: &[u8]) -> bool {
        let mut archs = Vec::new();
        let ok = decode_request(payload, &mut archs).is_ok();
        assert!(!ok || archs.len() <= MAX_REQUEST_BATCH);
        ok
    }

    #[test]
    fn a_whole_frame_of_exactly_the_cap_is_complete() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![7u8; MAX_FRAME]).unwrap();
        assert_eq!(buffered_frame_len(&wire), Some(wire.len()));
        assert_eq!(read_frame_end(&wire), Some(wire.len()));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_and_agree_with_read_frame(raw in bytes(0..48)) {
            prop_assert_eq!(buffered_frame_len(&raw), read_frame_end(&raw));
        }

        #[test]
        fn small_prefixes_agree_with_read_frame(len in 0u32..40, tail in bytes(0..64)) {
            let mut raw = len.to_le_bytes().to_vec();
            raw.extend_from_slice(&tail);
            let end = buffered_frame_len(&raw);
            prop_assert_eq!(end, read_frame_end(&raw));
            prop_assert_eq!(end.is_some(), tail.len() >= len as usize);
        }

        #[test]
        fn oversized_prefixes_are_never_complete(
            len in (MAX_FRAME as u32 + 1)..=u32::MAX,
            tail in bytes(0..64),
        ) {
            let mut raw = len.to_le_bytes().to_vec();
            raw.extend_from_slice(&tail);
            prop_assert_eq!(buffered_frame_len(&raw), None);
        }

        #[test]
        fn a_whole_frame_over_the_cap_is_never_complete(over in 1usize..64, tail in bytes(0..64)) {
            let len = MAX_FRAME + over;
            let mut raw = (len as u32).to_le_bytes().to_vec();
            raw.resize(4 + len, 7);
            raw.extend_from_slice(&tail);
            prop_assert_eq!(buffered_frame_len(&raw), None);
            prop_assert_eq!(read_frame_end(&raw), None);
        }

        #[test]
        fn arbitrary_bytes_never_panic_as_a_request(opcode in 0u8..5, raw in bytes(0..128)) {
            decodes_or_fails_cleanly(&raw);
            // past the version and opcode bytes, so the body decoder runs
            let mut payload = vec![PROTOCOL_VERSION, opcode];
            payload.extend_from_slice(&raw);
            decodes_or_fails_cleanly(&payload);
        }

        #[test]
        fn a_single_byte_mutation_of_a_request_decodes_or_fails_cleanly(
            req in request(),
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let mut payload = req.encode();
            let at = at % payload.len();
            payload[at] = byte;
            decodes_or_fails_cleanly(&payload);
        }

        #[test]
        fn a_cut_request_is_an_error(req in request(), cut in 0usize..1 << 16) {
            let payload = req.encode();
            prop_assert!(!decodes_or_fails_cleanly(&payload[..cut % payload.len()]));
        }

        #[test]
        fn valid_requests_round_trip(req in request()) {
            let payload = req.encode();
            let mut archs = Vec::new();
            let head = decode_request(&payload, &mut archs).unwrap();
            prop_assert_eq!(head.opcode, req.kind.opcode());
            prop_assert_eq!(head.request_id, req.request_id);
            prop_assert_eq!(head.model, req.model.as_str());
            prop_assert_eq!(head.platform, req.platform.as_str());
            prop_assert_eq!(archs, req.archs);
        }

        #[test]
        fn arbitrary_bytes_never_panic_as_a_response(count in 0u16..8, raw in bytes(0..96)) {
            // a small count reaches the per-item loops; raw bytes mostly do not
            let mut body = count.to_le_bytes().to_vec();
            body.extend_from_slice(&raw);
            for bytes in [&raw, &body] {
                let _ = decode_response_head(bytes);
                let mut scores = Vec::new();
                if decode_scores(bytes, &mut scores).is_ok() {
                    prop_assert_eq!(2 + 8 * scores.len(), bytes.len());
                }
                let mut objectives = Vec::new();
                if decode_objectives(bytes, &mut objectives).is_ok() {
                    prop_assert_eq!(2 + 16 * objectives.len(), bytes.len());
                }
                let _ = decode_model_list(bytes);
            }
        }

        #[test]
        fn a_pipelined_stream_split_anywhere_yields_its_frames(
            payloads in collection::vec(bytes(0..32), 1..8),
            cuts in collection::vec(0usize..400, 0..6),
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.push(wire.len());
            cuts.sort_unstable();
            // feed the stream chunk by chunk, popping every complete frame
            let mut buffered = Vec::new();
            let mut frames = Vec::new();
            let mut at = 0;
            for cut in cuts {
                buffered.extend_from_slice(&wire[at..cut]);
                at = cut;
                while let Some(n) = buffered_frame_len(&buffered) {
                    frames.push(buffered[4..n].to_vec());
                    buffered.drain(..n);
                }
            }
            prop_assert!(buffered.is_empty());
            prop_assert_eq!(frames, payloads);
        }
    }
}
