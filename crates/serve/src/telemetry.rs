//! Serving metrics, registered once in the shared `hwpr-obs` registry
//! (and therefore rendered by `hwpr-report` like every other subsystem).
//!
//! The coalesce ratio is `serve.requests / serve.batches`; queue depth
//! and in-flight rows are gauges sampled at admission/batch boundaries.
//! All recording is gated on `hwpr_obs::enabled()` so the disabled cost
//! is one relaxed load and the warm serving loop stays allocation-free.

use hwpr_obs::metrics::{registry, Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

pub(crate) struct ServeMetrics {
    /// "serve.requests": requests admitted to the queue.
    pub requests: Arc<Counter>,
    /// "serve.batches": coalesced forwards executed; the coalesce ratio
    /// is requests / batches.
    pub batches: Arc<Counter>,
    /// "serve.overloaded": requests shed by backpressure or timeout.
    pub overloaded: Arc<Counter>,
    /// "serve.errors": malformed frames and request-level failures.
    pub errors: Arc<Counter>,
    /// "serve.publishes": registry publishes (hot-swaps included).
    pub publishes: Arc<Counter>,
    /// "serve.request.us": admission-to-reply latency per request.
    pub request_us: Arc<Histogram>,
    /// "serve.batch.us": wall time of one coalesced forward + replies.
    pub batch_us: Arc<Histogram>,
    /// "serve.batch.rows": rows the engine actually ran per coalesced
    /// forward — shows whether micro-batching fills the engine's batch
    /// width. A twin's list is staged once, so it adds nothing here.
    pub batch_rows: Arc<Histogram>,
    /// "serve.queue.depth": requests waiting in the admission queue.
    pub queue_depth: Arc<Gauge>,
    /// "serve.inflight.rows": rows admitted but not yet replied to,
    /// counted per request as admitted. A batch releases every rider's
    /// own rows, twins included, so the gauge drains to 0 even though
    /// the engine ran fewer rows.
    pub inflight: Arc<Gauge>,
    inflight_rows: AtomicI64,
}

impl ServeMetrics {
    /// Tracks admitted-but-unreplied rows and mirrors them to the gauge.
    pub fn inflight_add(&self, rows: i64) {
        let now = self.inflight_rows.fetch_add(rows, Ordering::Relaxed) + rows;
        self.inflight.set(now as f64);
    }
}

pub(crate) fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        requests: registry().counter("serve.requests"),
        batches: registry().counter("serve.batches"),
        overloaded: registry().counter("serve.overloaded"),
        errors: registry().counter("serve.errors"),
        publishes: registry().counter("serve.publishes"),
        request_us: registry().histogram(
            "serve.request.us",
            &Histogram::exponential_bounds(1.0, 4.0, 12),
        ),
        batch_us: registry().histogram(
            "serve.batch.us",
            &Histogram::exponential_bounds(1.0, 4.0, 12),
        ),
        batch_rows: registry().histogram(
            "serve.batch.rows",
            &Histogram::exponential_bounds(1.0, 2.0, 10),
        ),
        queue_depth: registry().gauge("serve.queue.depth"),
        inflight: registry().gauge("serve.inflight.rows"),
        inflight_rows: AtomicI64::new(0),
    })
}
