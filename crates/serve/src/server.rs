//! The blocking TCP runtime: one acceptor thread, one reader thread per
//! connection, and a pool of prediction workers draining the admission
//! queue. Everything is std-only (no async runtime): the workloads this
//! serves are compute-bound microsecond forwards, so thread-per-
//! connection readers + a shared worker pool is the simplest shape that
//! keeps the hot path allocation-free.
//!
//! A reader buffers its socket, decodes every complete frame the buffer
//! holds and admits their predict requests to the queue as one group,
//! so frames a client pipelined in one write never straddle a batch.

use crate::config::ServeConfig;
use crate::protocol::{
    self, DecodeError, RequestHead, MAX_FRAME, OP_LIST_MODELS, OP_PREDICT_OBJECTIVES,
    OP_PREDICT_SCORES, STATUS_ERROR, STATUS_OVERLOADED,
};
use crate::queue::{BatchQueue, Pending, ReplySink, WorkerState};
use crate::registry::{ModelRegistry, RegistryCache};
use crate::telemetry::metrics;
use crate::ServeError;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Shared {
    registry: Arc<ModelRegistry>,
    queue: BatchQueue,
    shutdown: AtomicBool,
    /// Acceptor-side clones of live connections so `stop` can unblock
    /// reader threads parked in `read_frame`; keyed so a finished reader
    /// can drop its own entry.
    conns: parking_lot::Mutex<Vec<(u64, TcpStream)>>,
    next_conn: std::sync::atomic::AtomicU64,
    ctx: hwpr_obs::SpanContext,
}

/// A running prediction server bound to a local TCP port.
///
/// Dropping the server (or calling [`Server::stop`]) shuts down the
/// acceptor, drains the workers and closes every connection.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    _root: Option<hwpr_obs::Span>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Binds to an ephemeral loopback port and starts serving `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> crate::Result<Self> {
        Self::bind("127.0.0.1:0", registry, config)
    }

    /// Binds to `addr` and starts serving `registry`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when `config.workers` is 0, and
    /// [`ServeError::Io`] when binding or spawning a thread fails.
    pub fn bind(
        addr: &str,
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
    ) -> crate::Result<Self> {
        if config.workers == 0 {
            // no worker would ever drain the queue: every request would hang
            return Err(ServeError::Config("workers must be at least 1".into()));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let root = hwpr_obs::span("serve.server");
        let ctx = root.context();
        let shared = Arc::new(Shared {
            registry,
            queue: BatchQueue::new(&config),
            shutdown: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(Vec::new()),
            next_conn: std::sync::atomic::AtomicU64::new(1),
            ctx,
        });
        let mut workers = Vec::new();
        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            let worker_config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hwpr-serve-worker-{i}"))
                    .spawn(move || {
                        let mut state = WorkerState::new(&worker_config, shared.ctx);
                        while state.run_once(&shared.queue) {}
                    })
                    .map_err(ServeError::Io)?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hwpr-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            workers,
            _root: Some(root),
        })
    }

    /// The bound address (use this to connect a [`crate::ServeClient`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server resolves models from. Publishing to it
    /// hot-swaps what subsequent requests see.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Stops accepting, drains the workers and closes every connection.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // the acceptor is parked in accept(): poke it with a throwaway
        // connection so it observes the shutdown flag
        let _ = TcpStream::connect(self.addr);
        self.shared.queue.shutdown();
        for (_, conn) in self.shared.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                hwpr_obs::warn(format!("serve: accept failed: {e}"));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push((conn_id, clone));
        }
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hwpr-serve-conn".to_string())
            .spawn(move || {
                handle_conn(&stream, &shared);
                // close the socket even though `conns` still holds a
                // clone — a peer mid-write must see the connection die,
                // not block against a full buffer nobody drains
                let _ = stream.shutdown(Shutdown::Both);
                shared.conns.lock().retain(|(id, _)| *id != conn_id);
            });
        if let Err(e) = spawned {
            hwpr_obs::warn(format!("serve: could not spawn connection thread: {e}"));
        }
    }
}

/// The write half of a connection, shared by every worker that owes this
/// client a reply. Write failures (client went away mid-request) warn
/// once and drop subsequent frames — the prediction still completes for
/// the batch's other riders.
struct TcpReplySink {
    stream: parking_lot::Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ReplySink for TcpReplySink {
    fn send(&self, frame: &[u8]) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut stream = self.stream.lock();
        if let Err(e) = stream.write_all(frame) {
            if !self.dead.swap(true, Ordering::Relaxed) {
                hwpr_obs::warn(format!("serve: client write failed, dropping replies: {e}"));
            }
        }
    }
}

/// Bytes a connection reader buffers. Enough for a NAS-Bench-201
/// Scores + Objectives pair at the largest request batch (2 × 4096 rows
/// × 7 bytes ≈ 57 KiB), so even such a pair can arrive as one group.
const READ_BUF: usize = 64 * 1024;

fn handle_conn(stream: &TcpStream, shared: &Arc<Shared>) {
    let reply = Arc::new(TcpReplySink {
        stream: parking_lot::Mutex::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(e) => {
                hwpr_obs::warn(format!("serve: could not clone connection: {e}"));
                return;
            }
        }),
        dead: AtomicBool::new(false),
    });
    let mut reader = BufReader::with_capacity(READ_BUF, stream);
    let mut cache = RegistryCache::new();
    let mut frame = Vec::new();
    let mut reply_buf = Vec::new();
    let mut group = Vec::new();
    loop {
        match protocol::read_frame(&mut reader, &mut frame, MAX_FRAME) {
            Ok(true) => {}
            Ok(false) => return, // clean close at a frame boundary
            Err(e) => {
                // mid-frame disconnects and oversized frames end the
                // connection; during shutdown that's expected silence
                if !shared.shutdown.load(Ordering::SeqCst) {
                    hwpr_obs::warn(format!("serve: dropping connection: {e}"));
                }
                return;
            }
        }
        // decode every complete frame already buffered, then admit their
        // predict requests together: a pipelined Scores + Objectives pair
        // reaches the queue as one group, so the twin cannot miss its
        // partner's batch
        handle_frame(
            shared,
            &mut cache,
            &frame,
            &reply,
            &mut reply_buf,
            &mut group,
        );
        while let Some(len) = protocol::buffered_frame_len(reader.buffer()) {
            let payload = &reader.buffer()[4..len];
            handle_frame(
                shared,
                &mut cache,
                payload,
                &reply,
                &mut reply_buf,
                &mut group,
            );
            reader.consume(len);
        }
        shared.queue.push(&mut group);
        for bounced in group.drain(..) {
            if hwpr_obs::enabled() {
                metrics().overloaded.inc();
            }
            protocol::encode_error_response(
                &mut reply_buf,
                bounced.request_id,
                STATUS_OVERLOADED,
                "admission queue full",
            );
            reply.send(&reply_buf);
            shared.queue.recycle_arch_buf(bounced.archs);
        }
    }
}

/// Answers one request frame inline, or resolves a predict request and
/// appends it to `group` for admission.
fn handle_frame(
    shared: &Arc<Shared>,
    cache: &mut RegistryCache,
    frame: &[u8],
    reply: &Arc<TcpReplySink>,
    reply_buf: &mut Vec<u8>,
    group: &mut Vec<Pending>,
) {
    let _span = hwpr_obs::span_with_parent("serve.request", shared.ctx);
    let mut archs = shared.queue.take_arch_buf();
    let head = match protocol::decode_request(frame, &mut archs) {
        Ok(head) => head,
        Err(DecodeError {
            request_id,
            message,
        }) => {
            // request-level garbage: reply with the error, keep the
            // connection (the framing itself was intact)
            if hwpr_obs::enabled() {
                metrics().errors.inc();
            }
            hwpr_obs::warn(format!("serve: malformed request: {message}"));
            protocol::encode_error_response(reply_buf, request_id, STATUS_ERROR, &message);
            reply.send(reply_buf);
            shared.queue.recycle_arch_buf(archs);
            return;
        }
    };
    match head.opcode {
        OP_LIST_MODELS => {
            protocol::encode_list_response(reply_buf, head.request_id, &shared.registry.list());
            reply.send(reply_buf);
            shared.queue.recycle_arch_buf(archs);
        }
        OP_PREDICT_SCORES | OP_PREDICT_OBJECTIVES => {
            if let Some(pending) = resolve(shared, cache, &head, archs, reply, reply_buf) {
                group.push(pending);
            }
        }
        other => {
            // decode_request validated opcodes, so this is
            // unreachable in practice; answer defensively anyway
            protocol::encode_error_response(
                reply_buf,
                head.request_id,
                STATUS_ERROR,
                &format!("unsupported opcode {other}"),
            );
            reply.send(reply_buf);
            shared.queue.recycle_arch_buf(archs);
        }
    }
}

/// Resolves a predict request's model and latency head and checks its
/// architectures against the model's encoding. An unknown model or head,
/// or an architecture from another search space, is answered with an
/// error here and yields `None`.
fn resolve(
    shared: &Arc<Shared>,
    cache: &mut RegistryCache,
    head: &RequestHead<'_>,
    archs: Vec<hwpr_nasbench::Architecture>,
    reply: &Arc<TcpReplySink>,
    reply_buf: &mut Vec<u8>,
) -> Option<Pending> {
    let kind = if head.opcode == OP_PREDICT_SCORES {
        crate::PredictKind::Scores
    } else {
        crate::PredictKind::Objectives
    };
    let model = match cache.resolve(&shared.registry, head.model) {
        Ok(model) => model,
        Err(e) => {
            if hwpr_obs::enabled() {
                metrics().errors.inc();
            }
            protocol::encode_error_response(
                reply_buf,
                head.request_id,
                STATUS_ERROR,
                &e.to_string(),
            );
            reply.send(reply_buf);
            shared.queue.recycle_arch_buf(archs);
            return None;
        }
    };
    let Some(slot) = model.slot(head.platform) else {
        if hwpr_obs::enabled() {
            metrics().errors.inc();
        }
        protocol::encode_error_response(
            reply_buf,
            head.request_id,
            STATUS_ERROR,
            &format!(
                "model {:?} has no latency head for platform {:?}",
                head.model, head.platform
            ),
        );
        reply.send(reply_buf);
        shared.queue.recycle_arch_buf(archs);
        return None;
    };
    // an architecture from a search space the model does not take fails
    // here, alone, instead of panicking the worker its batch would reach
    if let Some(e) = archs.iter().find_map(|a| model.cache().check_fits(a).err()) {
        if hwpr_obs::enabled() {
            metrics().errors.inc();
        }
        protocol::encode_error_response(reply_buf, head.request_id, STATUS_ERROR, &e.to_string());
        reply.send(reply_buf);
        shared.queue.recycle_arch_buf(archs);
        return None;
    }
    Some(Pending {
        request_id: head.request_id,
        kind,
        model,
        slot,
        archs,
        reply: Arc::clone(reply) as Arc<dyn ReplySink>,
        arrived: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_obs::event::Event;
    use hwpr_obs::sink::MemorySink;
    use std::net::TcpListener;

    #[test]
    fn a_reply_to_a_vanished_client_warns_once_and_later_frames_are_skipped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let sink = TcpReplySink {
            stream: parking_lot::Mutex::new(served),
            dead: AtomicBool::new(false),
        };
        // the only test in this binary that installs a recorder; other
        // tests' events land here too, so count this sink's warning only
        let events = Arc::new(MemorySink::new());
        hwpr_obs::install(events.clone());
        drop(client);
        // the first write after the peer closed may still be accepted
        // locally; the peer's reset fails a later one
        let frame = [0u8; 64];
        for _ in 0..1000 {
            sink.send(&frame);
            if sink.dead.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(sink.dead.load(Ordering::Relaxed), "writes never failed");
        // a dead sink returns before touching the socket: with its lock
        // held here, a send that tried to write would never return
        let held = sink.stream.lock();
        for _ in 0..10 {
            sink.send(&frame);
        }
        drop(held);
        hwpr_obs::shutdown();
        let warnings = events
            .events()
            .iter()
            .filter(|e| {
                matches!(e, Event::Warn { message, .. } if message.contains("client write failed"))
            })
            .count();
        assert_eq!(warnings, 1);
    }
}
