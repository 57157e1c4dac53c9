//! The admission queue and its work-conserving micro-batching policy,
//! plus the worker loop that drains it into the frozen engine.
//!
//! # Work-conserving batching
//!
//! A free worker never waits for a batch to fill. It takes the first
//! waiting request (the *leader*) and every compatible request already
//! queued behind it, up to `max_batch` rows, and runs them at once. A
//! lone request therefore pays no coalescing delay, while under load
//! batches still grow: whatever arrives during one forward is waiting
//! when the next worker comes back. When a worker leaves work behind it
//! wakes one more, so every idle worker finds the queued batches.
//!
//! Requests are admitted in groups: a connection reader decodes every
//! complete frame it has buffered and hands them to [`BatchQueue::push`]
//! together, under one lock and with one wake-up. A client's pipelined
//! frames (a search client's Scores + Objectives pair) are therefore in
//! the queue together before any worker can see the first of them.
//!
//! Compatibility is `Arc` identity of the served model plus the latency
//! head slot and prediction kind — so requests split across a hot-swap
//! never share a forward, and a batch's rows all come from one engine.
//!
//! A request of the *other* kind whose architecture list equals one
//! rider's (its *twin*: the Objectives half of a client's Scores +
//! Objectives pair) joins the batch too, whatever its size. It adds no
//! rows — the worker stages each distinct list once and one forward
//! yields both the score and the `(accuracy, latency)` column — so it
//! cannot displace or delay unrelated rows. Twins follow the same model
//! `Arc` and slot rule as riders.
//!
//! Requests are shed with an explicit `Overloaded` reply in two places:
//! at admission when the queue already holds `queue_cap` requests, and
//! at execution when a request sat queued longer than `request_timeout`.
//!
//! The queue recycles request buffers (`Vec<Architecture>`) through an
//! internal pool, and [`WorkerState`] owns its arena and output/frame
//! buffers, so the warm path — admit, coalesce, forward, reply — does
//! zero heap allocations (pinned by the `alloc-count` harness).

use crate::config::ServeConfig;
use crate::protocol::{self, PredictKind, STATUS_ERROR, STATUS_OVERLOADED};
use crate::registry::ServedModel;
use crate::telemetry::metrics;
use hwpr_core::InferArena;
use hwpr_nasbench::Architecture;
use hwpr_obs::SpanContext;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a request's reply frame goes. Abstracted over the transport so
/// the worker loop is testable (and provable allocation-free) without
/// sockets; the TCP implementation lives in the server module.
pub trait ReplySink: Send + Sync {
    /// Delivers one complete response frame. Must not panic; transport
    /// failures are the sink's to swallow (warn + drop).
    fn send(&self, frame: &[u8]);
}

/// One admitted request waiting for a worker.
pub struct Pending {
    /// Client-chosen id echoed in the reply.
    pub request_id: u64,
    /// Which prediction to run.
    pub kind: PredictKind,
    /// The resolved model (pinned: a hot-swap does not retarget this).
    pub model: Arc<ServedModel>,
    /// Latency-head slot resolved at admission.
    pub slot: usize,
    /// The architecture batch (buffer owned by the queue's pool).
    pub archs: Vec<Architecture>,
    /// Reply transport.
    pub reply: Arc<dyn ReplySink>,
    /// Admission timestamp (drives the request timeout and the latency
    /// histogram).
    pub arrived: Instant,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("request_id", &self.request_id)
            .field("kind", &self.kind)
            .field("model", &self.model.name())
            .field("slot", &self.slot)
            .field("rows", &self.archs.len())
            .finish()
    }
}

#[derive(Default)]
struct QueueInner {
    pending: VecDeque<Pending>,
    arch_pool: Vec<Vec<Architecture>>,
    shutdown: bool,
}

/// The bounded admission queue with micro-batch coalescing.
pub struct BatchQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    queue_cap: usize,
    max_batch: usize,
}

impl std::fmt::Debug for BatchQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchQueue")
            .field("queue_cap", &self.queue_cap)
            .field("max_batch", &self.max_batch)
            .finish()
    }
}

impl BatchQueue {
    /// A queue with `config`'s capacity and coalesce target.
    pub fn new(config: &ServeConfig) -> Self {
        Self {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            max_batch: config.max_batch.max(1),
        }
    }

    /// Takes a pooled architecture buffer (empty, capacity retained).
    pub fn take_arch_buf(&self) -> Vec<Architecture> {
        self.inner
            .lock()
            .expect("queue lock")
            .arch_pool
            .pop()
            .unwrap_or_default()
    }

    /// Returns an architecture buffer to the pool.
    pub fn recycle_arch_buf(&self, mut buf: Vec<Architecture>) {
        buf.clear();
        self.inner.lock().expect("queue lock").arch_pool.push(buf);
    }

    /// Admits `group` in order, under one lock and with one wake-up, as
    /// far as the queue has room. What the queue had no room for (or
    /// everything, once it shut down) stays in `group`, in order: the
    /// caller sheds it with `Overloaded` replies. Returns how many
    /// requests were admitted.
    pub fn push(&self, group: &mut Vec<Pending>) -> usize {
        let mut inner = self.inner.lock().expect("queue lock");
        let room = if inner.shutdown {
            0
        } else {
            self.queue_cap.saturating_sub(inner.pending.len())
        };
        let admitted = room.min(group.len());
        let rows: usize = group[..admitted].iter().map(|p| p.archs.len()).sum();
        inner.pending.extend(group.drain(..admitted));
        let depth = inner.pending.len();
        drop(inner);
        if admitted == 0 {
            return 0;
        }
        self.ready.notify_one();
        if hwpr_obs::enabled() {
            let m = metrics();
            m.requests.add(admitted as u64);
            m.queue_depth.set(depth as f64);
            m.inflight_add(rows as i64);
        }
        admitted
    }

    /// Marks the queue shut down and wakes every waiting worker.
    pub fn shutdown(&self) {
        self.inner.lock().expect("queue lock").shutdown = true;
        self.ready.notify_all();
    }

    fn compatible(a: &Pending, b: &Pending) -> bool {
        Arc::ptr_eq(&a.model, &b.model) && a.slot == b.slot && a.kind == b.kind
    }

    /// Whether `p` asks the other kind for exactly the rows of one of
    /// `riders` (which all share the leader's model, slot and kind).
    fn is_twin(p: &Pending, riders: &[Pending]) -> bool {
        let leader = &riders[0];
        Arc::ptr_eq(&p.model, &leader.model)
            && p.slot == leader.slot
            && p.kind != leader.kind
            // slice equality compares lengths before any architecture
            && riders.iter().any(|r| r.archs == p.archs)
    }

    /// Blocks until a request is waiting (or the queue shuts down),
    /// then moves the leader and every compatible request already queued
    /// — up to the coalesce target — and their twins into `out`. Returns
    /// `false` on shutdown.
    pub fn next_batch(&self, out: &mut Vec<Pending>) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.shutdown {
                return false;
            }
            if self.extract(&mut inner, out) {
                let more = !inner.pending.is_empty();
                drop(inner);
                if more {
                    // the group's wake-up reached one worker; pass the
                    // rest of the work on to another
                    self.ready.notify_one();
                }
                return true;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Non-blocking variant of [`Self::next_batch`]: returns `false` when
    /// the queue is empty. Test and drain harnesses use this; the server
    /// workers use the blocking form.
    pub fn try_next_batch(&self, out: &mut Vec<Pending>) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        self.extract(&mut inner, out)
    }

    /// Moves the leader + compatible followers into `out`, then every
    /// twin of one of them; `false` when nothing is pending.
    fn extract(&self, inner: &mut QueueInner, out: &mut Vec<Pending>) -> bool {
        out.clear();
        let Some(leader) = inner.pending.pop_front() else {
            return false;
        };
        let mut rows = leader.archs.len();
        out.push(leader);
        let mut i = 0;
        while i < inner.pending.len() && rows < self.max_batch {
            if Self::compatible(&inner.pending[i], &out[0]) {
                let follower = inner.pending.remove(i).expect("index in range");
                rows += follower.archs.len();
                out.push(follower);
            } else {
                i += 1;
            }
        }
        let riders = out.len();
        let mut i = 0;
        while i < inner.pending.len() {
            if Self::is_twin(&inner.pending[i], &out[..riders]) {
                out.push(inner.pending.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        if hwpr_obs::enabled() {
            metrics().queue_depth.set(inner.pending.len() as f64);
        }
        true
    }
}

/// One prediction worker's reusable state: an engine-independent arena,
/// the coalesced batch staging, output columns and the reply frame.
pub struct WorkerState {
    arena: InferArena,
    batch: Vec<Pending>,
    archs: Vec<Architecture>,
    /// Per request in the batch: where its rows start in `archs`.
    offsets: Vec<usize>,
    scores: Vec<f64>,
    objectives: Vec<(f64, f64)>,
    frame: Vec<u8>,
    parent: SpanContext,
    request_timeout: Duration,
}

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState")
            .field("request_timeout", &self.request_timeout)
            .finish()
    }
}

impl WorkerState {
    /// A fresh worker. `parent` is the server's root span context so
    /// batch spans land in the serving trace.
    pub fn new(config: &ServeConfig, parent: SpanContext) -> Self {
        Self {
            arena: InferArena::default(),
            batch: Vec::new(),
            archs: Vec::new(),
            offsets: Vec::new(),
            scores: Vec::new(),
            objectives: Vec::new(),
            frame: Vec::new(),
            parent,
            request_timeout: config.request_timeout,
        }
    }

    /// Blocks for the next batch and serves it. Returns `false` once the
    /// queue shuts down.
    pub fn run_once(&mut self, queue: &BatchQueue) -> bool {
        // move the batch out of self so `execute` can borrow freely
        let mut batch = std::mem::take(&mut self.batch);
        if !queue.next_batch(&mut batch) {
            self.batch = batch;
            return false;
        }
        self.execute(queue, &mut batch);
        self.batch = batch;
        true
    }

    /// Serves whatever is already queued without waiting. Returns
    /// `false` when the queue was empty.
    pub fn try_run_once(&mut self, queue: &BatchQueue) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        if !queue.try_next_batch(&mut batch) {
            self.batch = batch;
            return false;
        }
        self.execute(queue, &mut batch);
        self.batch = batch;
        true
    }

    /// Runs one coalesced forward and replies to every request in
    /// `batch`, recycling the request buffers into `queue`'s pool.
    fn execute(&mut self, queue: &BatchQueue, batch: &mut Vec<Pending>) {
        let telemetry = hwpr_obs::enabled();
        // shed requests that aged out while queued
        let mut i = 0;
        while i < batch.len() {
            if batch[i].arrived.elapsed() > self.request_timeout {
                let shed = batch.swap_remove(i);
                protocol::encode_error_response(
                    &mut self.frame,
                    shed.request_id,
                    STATUS_OVERLOADED,
                    "request timed out in the admission queue",
                );
                shed.reply.send(&self.frame);
                if telemetry {
                    let m = metrics();
                    m.overloaded.inc();
                    m.inflight_add(-(shed.archs.len() as i64));
                }
                queue.recycle_arch_buf(shed.archs);
            } else {
                i += 1;
            }
        }
        if batch.is_empty() {
            return;
        }
        let _span = hwpr_obs::span_with_parent("serve.batch", self.parent);
        let started = if telemetry {
            Some(Instant::now())
        } else {
            None
        };
        // stage the coalesced rows in request order; a request whose list
        // equals an earlier one's (a twin) reuses that request's rows
        self.archs.clear();
        self.offsets.clear();
        for (i, p) in batch.iter().enumerate() {
            let offset = match batch[..i].iter().position(|q| q.archs == p.archs) {
                Some(j) => self.offsets[j],
                None => {
                    let at = self.archs.len();
                    self.archs.extend_from_slice(&p.archs);
                    at
                }
            };
            self.offsets.push(offset);
        }
        let model = &batch[0].model;
        self.scores.clear();
        self.objectives.clear();
        let (archs, scores, objectives) = (&self.archs, &mut self.scores, &mut self.objectives);
        let result = guarded_forward(&mut self.arena, |arena| {
            model.frozen().predict_into_with(
                model.cache(),
                archs,
                batch[0].slot,
                Some(scores),
                Some(objectives),
                arena,
            )
        });
        match result {
            Ok(()) => {
                // split the output columns back per request
                for (p, &offset) in batch.iter().zip(&self.offsets) {
                    let rows = offset..offset + p.archs.len();
                    match p.kind {
                        PredictKind::Scores => protocol::encode_scores_response(
                            &mut self.frame,
                            p.request_id,
                            &self.scores[rows],
                        ),
                        PredictKind::Objectives => protocol::encode_objectives_response(
                            &mut self.frame,
                            p.request_id,
                            &self.objectives[rows],
                        ),
                    }
                    p.reply.send(&self.frame);
                }
            }
            Err(message) => {
                // slot and architectures were validated at admission, so
                // this is a genuine engine failure: every rider gets the
                // error, the worker survives
                for p in batch.iter() {
                    protocol::encode_error_response(
                        &mut self.frame,
                        p.request_id,
                        STATUS_ERROR,
                        &format!("prediction failed: {message}"),
                    );
                    p.reply.send(&self.frame);
                }
                if telemetry {
                    metrics().errors.add(batch.len() as u64);
                }
            }
        }
        if let Some(start) = started {
            let m = metrics();
            m.batches.inc();
            m.batch_rows.observe(self.archs.len() as f64);
            m.batch_us.observe(start.elapsed().as_secs_f64() * 1e6);
            let mut admitted = 0;
            for p in batch.iter() {
                m.request_us
                    .observe(p.arrived.elapsed().as_secs_f64() * 1e6);
                admitted += p.archs.len() as i64;
            }
            // release what admission added per request, not the
            // deduplicated rows the engine ran
            m.inflight_add(-admitted);
        }
        for mut p in batch.drain(..) {
            queue.recycle_arch_buf(std::mem::take(&mut p.archs));
        }
    }
}

/// Runs one batch's forward on `arena`, turning an engine error or a
/// panic into an error message. A panic would otherwise end the worker
/// thread while the acceptor keeps queueing requests nobody drains, so
/// every later client would wait forever. A forward cut short by a panic
/// may leave the arena in any state, so it is replaced.
fn guarded_forward(
    arena: &mut InferArena,
    forward: impl FnOnce(&mut InferArena) -> hwpr_core::Result<()>,
) -> Result<(), String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| forward(&mut *arena))) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => {
            *arena = InferArena::default();
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Err(format!("the engine panicked: {what}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;

    struct CountingSink {
        frames: PlMutex<Vec<Vec<u8>>>,
    }

    impl CountingSink {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                frames: PlMutex::new(Vec::new()),
            })
        }
    }

    impl ReplySink for CountingSink {
        fn send(&self, frame: &[u8]) {
            self.frames.lock().push(frame.to_vec());
        }
    }

    fn tiny_served() -> Arc<ServedModel> {
        use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
        use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
        use hwpr_nasbench::{Dataset, SearchSpaceId};
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(24),
            seed: 5,
        });
        let data =
            SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        let registry = crate::ModelRegistry::new();
        registry.publish("m", Arc::new(model));
        registry.get("m").unwrap()
    }

    fn cells(first: u64, n: usize) -> Vec<Architecture> {
        (first..first + n as u64)
            .map(|i| Architecture::nb201_from_index(i).unwrap())
            .collect()
    }

    fn request(
        model: &Arc<ServedModel>,
        queue: &BatchQueue,
        sink: &Arc<CountingSink>,
        id: u64,
        kind: PredictKind,
        rows: &[Architecture],
    ) -> Pending {
        let mut archs = queue.take_arch_buf();
        archs.extend_from_slice(rows);
        Pending {
            request_id: id,
            kind,
            model: Arc::clone(model),
            slot: 0,
            archs,
            reply: Arc::clone(sink) as Arc<dyn ReplySink>,
            arrived: Instant::now(),
        }
    }

    fn pending(
        model: &Arc<ServedModel>,
        queue: &BatchQueue,
        sink: &Arc<CountingSink>,
        id: u64,
        n: usize,
    ) -> Pending {
        let rows = cells(id * 100, n);
        request(model, queue, sink, id, PredictKind::Scores, &rows)
    }

    fn ids(batch: &[Pending]) -> Vec<u64> {
        batch.iter().map(|p| p.request_id).collect()
    }

    fn twin_config(max_batch: usize) -> ServeConfig {
        ServeConfig {
            max_batch,
            ..ServeConfig::default()
        }
    }

    /// Admits a request for `rows` asking for `kind`, as a group of one.
    fn push(
        queue: &BatchQueue,
        model: &Arc<ServedModel>,
        sink: &Arc<CountingSink>,
        id: u64,
        kind: PredictKind,
        rows: &[Architecture],
    ) {
        let mut group = vec![request(model, queue, sink, id, kind, rows)];
        assert_eq!(queue.push(&mut group), 1);
    }

    #[test]
    fn a_panicking_forward_is_an_error_and_the_next_forward_runs() {
        let model = tiny_served();
        let rows = cells(7, 5);
        let forward = |arena: &mut InferArena, out: &mut Vec<f64>| {
            out.clear();
            model
                .frozen()
                .predict_into_with(model.cache(), &rows, 0, Some(out), None, arena)
        };
        let mut arena = InferArena::default();
        let mut expected = Vec::new();
        guarded_forward(&mut arena, |a| forward(a, &mut expected)).unwrap();
        let err = guarded_forward(&mut arena, |a| {
            let mut partial = Vec::new();
            forward(a, &mut partial).unwrap();
            panic!("injected after {} rows", partial.len())
        })
        .unwrap_err();
        assert!(err.contains("panicked: injected after 5 rows"), "{err}");
        let mut again = Vec::new();
        guarded_forward(&mut arena, |a| forward(a, &mut again)).unwrap();
        assert_eq!(again, expected);
        let err = guarded_forward(&mut arena, |_| panic!("{}", String::from("owned"))).unwrap_err();
        assert!(err.ends_with("owned"), "{err}");
    }

    #[test]
    fn a_twin_rides_its_partners_batch_past_the_row_target() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let queue = BatchQueue::new(&twin_config(3));
        let rows = cells(40, 3);
        // the Scores leader fills the row target on its own: the other
        // Scores request must wait, but the Objectives twin rides along
        push(&queue, &model, &sink, 1, PredictKind::Scores, &rows);
        assert_eq!(
            queue.push(&mut vec![pending(&model, &queue, &sink, 2, 3)]),
            1
        );
        push(&queue, &model, &sink, 3, PredictKind::Objectives, &rows);
        let mut batch = Vec::new();
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [1, 3]);
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [2]);
    }

    #[test]
    fn other_kind_requests_with_different_lists_stay_queued() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let queue = BatchQueue::new(&twin_config(64));
        let rows = cells(40, 4);
        let mut one_off = rows.clone();
        one_off[2] = Architecture::nb201_from_index(900).unwrap();
        let shorter = &rows[..3];
        push(&queue, &model, &sink, 1, PredictKind::Scores, &rows);
        push(&queue, &model, &sink, 2, PredictKind::Objectives, &one_off);
        push(&queue, &model, &sink, 3, PredictKind::Objectives, shorter);
        let mut batch = Vec::new();
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [1]);
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [2, 3]);
    }

    #[test]
    fn twins_never_join_across_a_model_swap() {
        let v1 = tiny_served();
        // republishing the same weights still resolves to a new `Arc`
        let registry = crate::ModelRegistry::new();
        registry.publish("m", Arc::clone(v1.nas()));
        let v2 = registry.get("m").unwrap();
        assert!(!Arc::ptr_eq(&v1, &v2));
        let sink = CountingSink::new();
        let queue = BatchQueue::new(&twin_config(64));
        let rows = cells(40, 4);
        push(&queue, &v1, &sink, 1, PredictKind::Scores, &rows);
        push(&queue, &v2, &sink, 2, PredictKind::Objectives, &rows);
        let mut batch = Vec::new();
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [1]);
        assert!(queue.try_next_batch(&mut batch));
        assert_eq!(ids(&batch), [2]);
    }

    #[test]
    fn full_queue_sheds_and_batches_coalesce_to_the_target() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let config = ServeConfig {
            max_batch: 8,
            queue_cap: 2,
            ..ServeConfig::default()
        };
        let queue = BatchQueue::new(&config);
        let mut group: Vec<Pending> = (1..=3)
            .map(|id| pending(&model, &queue, &sink, id, 3))
            .collect();
        // the group fills the queue to its cap: the third request is
        // bounced back to the caller
        assert_eq!(queue.push(&mut group), 2);
        assert_eq!(ids(&group), [3]);
        assert_eq!(queue.push(&mut group), 0, "a full queue admits nothing");
        assert_eq!(ids(&group), [3]);

        let mut worker = WorkerState::new(&config, SpanContext::NONE);
        assert!(worker.try_run_once(&queue));
        // both compatible requests rode one batch: two reply frames
        assert_eq!(sink.frames.lock().len(), 2);
        assert!(!worker.try_run_once(&queue), "queue must be drained");
    }

    #[test]
    fn timed_out_requests_get_an_overloaded_reply() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let config = ServeConfig {
            max_batch: 8,
            request_timeout: Duration::ZERO,
            ..ServeConfig::default()
        };
        let queue = BatchQueue::new(&config);
        assert_eq!(
            queue.push(&mut vec![pending(&model, &queue, &sink, 1, 2)]),
            1
        );
        let mut worker = WorkerState::new(&config, SpanContext::NONE);
        assert!(worker.try_run_once(&queue));
        let frames = sink.frames.lock();
        assert_eq!(frames.len(), 1);
        let head = protocol::decode_response_head(&frames[0][4..]).unwrap();
        assert_eq!(head.status, STATUS_OVERLOADED);
        assert_eq!(head.request_id, 1);
    }

    #[test]
    fn shutdown_unblocks_next_batch() {
        let config = ServeConfig::default();
        let queue = Arc::new(BatchQueue::new(&config));
        let q = Arc::clone(&queue);
        let waiter = std::thread::spawn(move || {
            let mut out = Vec::new();
            q.next_batch(&mut out)
        });
        std::thread::sleep(Duration::from_millis(20));
        queue.shutdown();
        assert!(!waiter.join().unwrap(), "shutdown must return false");
        // pushes after shutdown bounce
        let model = tiny_served();
        let sink = CountingSink::new();
        let mut group = vec![pending(&model, &queue, &sink, 1, 1)];
        assert_eq!(queue.push(&mut group), 0);
        assert_eq!(ids(&group), [1]);
    }

    #[test]
    fn a_lone_request_ships_without_waiting_for_partners() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let queue = Arc::new(BatchQueue::new(&twin_config(64)));
        let q = Arc::clone(&queue);
        let waiter = std::thread::spawn(move || {
            let mut out = Vec::new();
            assert!(q.next_batch(&mut out));
            ids(&out)
        });
        // one row against a 64-row target: a worker blocked in
        // `next_batch` takes it as soon as it is admitted
        push(&queue, &model, &sink, 1, PredictKind::Scores, &cells(40, 1));
        assert_eq!(waiter.join().unwrap(), [1]);
    }

    #[test]
    fn a_group_of_two_batches_reaches_two_idle_workers() {
        let model = tiny_served();
        let sink = CountingSink::new();
        let queue = Arc::new(BatchQueue::new(&twin_config(64)));
        // each worker takes one batch and reports it; the second batch
        // reaches the second worker only if the first one passes the
        // group's single wake-up on
        let (done, taken) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (q, done) = (Arc::clone(&queue), done.clone());
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    assert!(q.next_batch(&mut out));
                    done.send(ids(&out)).unwrap();
                })
            })
            .collect();
        // give both workers time to block in `next_batch`; correct code
        // passes whether or not they did
        std::thread::sleep(Duration::from_millis(20));
        // two kinds for different rows: two batches, one wake-up
        let mut group = vec![
            request(&model, &queue, &sink, 1, PredictKind::Scores, &cells(40, 2)),
            request(
                &model,
                &queue,
                &sink,
                2,
                PredictKind::Objectives,
                &cells(60, 2),
            ),
        ];
        assert_eq!(queue.push(&mut group), 2);
        let mut got: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                taken
                    .recv_timeout(Duration::from_secs(10))
                    .expect("an idle worker was never woken")
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        got.sort();
        assert_eq!(got, [[1], [2]]);
    }
}
