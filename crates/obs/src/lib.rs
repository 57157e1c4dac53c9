//! Zero-overhead structured telemetry for the HW-PR-NAS workspace.
//!
//! The crate provides three primitives behind one process-global switch:
//!
//! - **Spans** ([`span`]) — hierarchical, monotonically timed regions
//!   ("search.moea" contains "search.generation" contains the evaluator
//!   call), emitted as start/end event pairs. Fan-outs stay connected
//!   across threads through explicit [`SpanContext`] propagation
//!   ([`current_context`] → [`span_with_parent`]); the whole process
//!   shares one [`trace_id`], and the [`trace`] module renders a capture
//!   as a Chrome Trace Event file, a self-time-attributed span tree or
//!   folded flamegraph stacks.
//! - **Metrics** ([`metrics`]) — typed counters, gauges and histograms in
//!   a process-global [`metrics::Registry`]; instrumented subsystems hold
//!   `Arc` handles and the registry can snapshot every live metric into
//!   the event stream.
//! - **Events** ([`Event`]) — a JSON-lines record stream behind the
//!   [`Recorder`] trait ([`sink::JsonlSink`] writes to a file or stderr);
//!   free-form [`Event::Record`] rows carry per-epoch training metrics
//!   and per-generation search metrics.
//!
//! # Overhead model
//!
//! Telemetry is off until a [`Recorder`] is installed. Every
//! instrumentation point is gated on [`enabled`], a single relaxed atomic
//! load, so a disabled instrumentation point costs one predictable branch
//! and performs **no heap allocation** — the property the `alloc-count`
//! harness in `hwpr-bench` asserts for the training hot path. With a
//! recorder installed, instrumentation points may allocate (event
//! construction, JSON encoding); the `telemetry_overhead` bench bounds
//! that cost.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(hwpr_obs::sink::MemorySink::new());
//! hwpr_obs::install(sink.clone());
//! {
//!     let _outer = hwpr_obs::span("demo.outer");
//!     let _inner = hwpr_obs::span("demo.inner");
//! }
//! hwpr_obs::warn("something odd");
//! hwpr_obs::shutdown();
//! assert_eq!(sink.events().len(), 5); // 2 starts, 2 ends, 1 warning
//! ```
//!
//! Run-level wiring goes through [`TelemetrySpec`], which parses the
//! `HWPR_TELEMETRY` environment variable (`jsonl:PATH`, `stderr`, `off`).

#![warn(missing_docs)]

pub mod benchdiff;
pub mod config;
pub mod event;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;
pub mod trace;

pub use config::{init_from_env, TelemetrySpec};
pub use event::Event;
pub use serde::Value;
pub use sink::Recorder;
pub use span::{
    current_context, span, span_labeled, span_labeled_with, span_with_parent,
    span_with_parent_labeled, thread_id, Span, SpanContext,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Process-global on/off switch, mirrored from "a recorder is installed".
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a recorder is installed. One relaxed atomic load — this is the
/// branch every instrumentation point pays when telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn recorder_slot() -> &'static RwLock<Option<Arc<dyn Recorder>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Recorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The process-wide event timeline origin; every event timestamp is
/// microseconds since this instant ([`Instant`] is monotonic, so event
/// times never run backwards).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry epoch (monotonic).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The process-wide trace id: every span this process emits belongs to
/// one logical trace, identified by this value. Fixed for the process
/// lifetime; derived from wall clock and pid (then bit-mixed) so two runs
/// practically never collide, and never 0.
pub fn trace_id() -> u64 {
    static TRACE_ID: OnceLock<u64> = OnceLock::new();
    *TRACE_ID.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        // splitmix64 finalizer spreads the timestamp/pid bits
        let mut z = nanos ^ ((std::process::id() as u64) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)).max(1)
    })
}

/// Emits the run-identifying `trace.meta` record (trace id + pid). Called
/// by [`TelemetrySpec::install`] right after the sink goes live so every
/// JSONL capture opens with it; trace exporters read it back into the
/// exported trace's metadata. A no-op when telemetry is off.
pub fn emit_run_metadata() {
    record_with("trace.meta", || {
        vec![
            field("trace_id", format!("{:016x}", trace_id())),
            field("pid", std::process::id() as u64),
        ]
    });
}

/// Installs `recorder` as the process-global event sink and turns
/// telemetry on. Replaces (and flushes) any previous recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    epoch(); // pin the timeline origin before the first event
    let previous = recorder_slot()
        .write()
        .expect("recorder lock poisoned")
        .replace(recorder);
    ENABLED.store(true, Ordering::SeqCst);
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Removes the installed recorder (flushing it) and turns telemetry off.
pub fn shutdown() {
    ENABLED.store(false, Ordering::SeqCst);
    let previous = recorder_slot()
        .write()
        .expect("recorder lock poisoned")
        .take();
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Flushes the installed recorder, if any.
pub fn flush() {
    if let Some(recorder) = recorder_slot()
        .read()
        .expect("recorder lock poisoned")
        .as_ref()
    {
        recorder.flush();
    }
}

/// Hands `event` to the installed recorder. A no-op (one relaxed load)
/// when telemetry is off.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = recorder_slot()
        .read()
        .expect("recorder lock poisoned")
        .as_ref()
    {
        recorder.record(&event);
    }
}

/// Emits a [`Event::Warn`] when telemetry is on; otherwise prints the
/// warning to stderr so it is never silently dropped.
pub fn warn(message: impl Into<String>) {
    let message = message.into();
    if enabled() {
        emit(Event::Warn {
            t_us: now_us(),
            message,
        });
    } else {
        eprintln!("[hwpr warn] {message}");
    }
}

/// Emits a free-form [`Event::Record`] named `name`; `fields` is only
/// evaluated when telemetry is on, so call sites can defer all field
/// construction (and its allocation) behind the enabled branch.
pub fn record_with(name: &str, fields: impl FnOnce() -> Vec<(String, serde::Value)>) {
    if !enabled() {
        return;
    }
    emit(Event::Record {
        name: name.to_string(),
        t_us: now_us(),
        fields: fields(),
    });
}

/// Builds a `(key, value)` record field from anything serialisable.
pub fn field(key: &str, value: impl serde::Serialize) -> (String, serde::Value) {
    (key.to_string(), value.serialize_value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_inert() {
        // other tests in this binary install recorders behind a lock; this
        // one only checks that emitting without a recorder never panics
        emit(Event::Warn {
            t_us: 0,
            message: "dropped".into(),
        });
        flush();
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn field_serialises_primitives() {
        assert_eq!(field("x", 3u64), ("x".to_string(), serde::Value::UInt(3)));
        assert_eq!(
            field("y", 0.5f64),
            ("y".to_string(), serde::Value::Float(0.5))
        );
    }
}
