//! GEMM kernel instrumentation: call/FLOP counters and timing histograms.
//!
//! Every hook is gated on [`hwpr_obs::enabled`] before touching a clock or
//! a metric handle, so with telemetry off the cost per GEMM is one relaxed
//! atomic load and zero allocation — the property the `alloc-count`
//! harness in `hwpr-bench` asserts for the training hot path. The handles
//! themselves are named registry metrics created lazily on the first
//! *enabled* call.

use hwpr_obs::metrics::{registry, Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct GemmMetrics {
    /// "tensor.gemm.calls": GEMM driver invocations (packed + unpacked).
    calls: Arc<Counter>,
    /// "tensor.gemm.flops": multiply-add work, `2 * m * n * k` per call.
    flops: Arc<Counter>,
    /// "tensor.pack.calls": full `B` prepack invocations.
    pack_calls: Arc<Counter>,
    /// "tensor.gemm.us": per-call wall time in microseconds.
    time_us: Arc<Histogram>,
}

fn metrics() -> &'static GemmMetrics {
    static METRICS: OnceLock<GemmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| GemmMetrics {
        calls: registry().counter("tensor.gemm.calls"),
        flops: registry().counter("tensor.gemm.flops"),
        pack_calls: registry().counter("tensor.pack.calls"),
        time_us: registry().histogram(
            "tensor.gemm.us",
            &Histogram::exponential_bounds(1.0, 4.0, 10),
        ),
    })
}

/// RAII timer around one GEMM driver call. Inert (no clock read, no
/// allocation) when telemetry is off.
pub(crate) struct KernelTimer {
    start: Option<Instant>,
}

impl KernelTimer {
    /// Starts timing a `(m, n, k)` GEMM and counts its FLOPs.
    pub(crate) fn gemm((m, n, k): (usize, usize, usize)) -> Self {
        if !hwpr_obs::enabled() {
            return Self { start: None };
        }
        let metrics = metrics();
        metrics.calls.inc();
        metrics.flops.add(2 * (m * n * k) as u64);
        Self {
            start: Some(Instant::now()),
        }
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            metrics()
                .time_us
                .observe(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// Counts one full-`B` prepack (no timing: packing is memory-bound and
/// already covered by the surrounding GEMM span).
pub(crate) fn note_pack() {
    if hwpr_obs::enabled() {
        metrics().pack_calls.inc();
    }
}
