//! Hierarchical timed spans with explicit cross-thread propagation.
//!
//! A [`Span`] is an RAII guard: creating it emits [`Event::SpanStart`],
//! dropping it emits [`Event::SpanEnd`] with a monotonic duration.
//! Nesting is tracked per thread, so `span("a")` inside `span("b")`
//! records `b` as the parent.
//!
//! Worker threads do **not** inherit the spawning thread's current span —
//! a thread-local cannot cross a `spawn`. To keep a fan-out connected,
//! capture a [`SpanContext`] on the spawning thread ([`current_context`]
//! or [`Span::context`]) and open the worker's root with
//! [`span_with_parent`]; everything the worker nests inside that span
//! then hangs off the same trace tree. Span events also carry a small
//! dense per-thread id ([`thread_id`]) so exporters can lay spans out in
//! per-thread lanes.
//!
//! With telemetry off, every entry point here is one relaxed atomic load
//! and returns an inert guard (or [`SpanContext::NONE`]) — no clock read,
//! no allocation, no thread-local touch.

use crate::event::Event;
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-unique span id source (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Dense per-thread lane id source (0 is reserved for "unassigned").
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost open span on this thread (0 at the root).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };

    /// This thread's lane id (0 until first assigned).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// A small dense id for the calling thread, assigned on first use (the
/// first thread to emit — in practice the main thread — gets 1). Recorded
/// on every span event so trace exporters can render per-thread lanes.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|slot| {
        let id = slot.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        slot.set(id);
        id
    })
}

/// A copyable handle to a span, safe to send across threads. Capture it
/// on the spawning thread and hand it to [`span_with_parent`] inside the
/// worker so the worker's spans join the spawning thread's trace tree
/// instead of opening orphan roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    span: u64,
}

impl SpanContext {
    /// No enclosing span (workers opened under it become roots).
    pub const NONE: SpanContext = SpanContext { span: 0 };

    /// The referenced span id (0 when there is none).
    pub fn id(&self) -> u64 {
        self.span
    }

    /// Whether the context references no span.
    pub fn is_none(&self) -> bool {
        self.span == 0
    }
}

/// The calling thread's innermost open span as a sendable handle.
/// Returns [`SpanContext::NONE`] (after one relaxed load) when telemetry
/// is off.
pub fn current_context() -> SpanContext {
    if !crate::enabled() {
        return SpanContext::NONE;
    }
    SpanContext {
        span: CURRENT_SPAN.with(Cell::get),
    }
}

/// An open span; the region ends (and the end event is emitted) when the
/// guard drops.
#[must_use = "a span measures the region until the guard is dropped"]
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    id: u64,
    /// Parent recorded on the events (explicit context or the thread's
    /// previous current span).
    parent: u64,
    /// The thread-local current span to restore on drop. Differs from
    /// `parent` for spans opened with an explicit cross-thread context.
    prev: u64,
    name: &'static str,
    label: Option<Cow<'static, str>>,
    start: Instant,
}

/// Opens a span named `name`. Inert (and allocation-free) when telemetry
/// is off.
pub fn span(name: &'static str) -> Span {
    open(name, None, None)
}

/// Opens a span named `name` carrying a variant `label` (e.g. the encoder
/// branch of an `"infer.encode"` span). The label rides on both the
/// start and end events and is rendered as `name[label]` by the report.
/// Inert (and allocation-free) when telemetry is off.
pub fn span_labeled(name: &'static str, label: &'static str) -> Span {
    open(name, Some(Cow::Borrowed(label)), None)
}

/// [`span_labeled`] with a computed label (e.g. the island id of a
/// `"search.island"` span). The closure runs only when telemetry is on,
/// so the disabled path stays one relaxed load with no formatting and no
/// allocation.
pub fn span_labeled_with(name: &'static str, label: impl FnOnce() -> String) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    open(name, Some(Cow::Owned(label())), None)
}

/// Opens a span whose parent is the explicitly supplied `parent` context
/// instead of the calling thread's current span — the cross-thread
/// propagation primitive. The new span still becomes the thread's current
/// span, so spans nested inside the worker parent correctly. Inert (and
/// allocation-free) when telemetry is off.
pub fn span_with_parent(name: &'static str, parent: SpanContext) -> Span {
    open(name, None, Some(parent))
}

/// [`span_with_parent`] with a computed label — the worker-thread variant
/// of [`span_labeled_with`]: the span joins `parent`'s trace tree and the
/// label closure runs only when telemetry is on.
pub fn span_with_parent_labeled(
    name: &'static str,
    parent: SpanContext,
    label: impl FnOnce() -> String,
) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    open(name, Some(Cow::Owned(label())), Some(parent))
}

fn open(
    name: &'static str,
    label: Option<Cow<'static, str>>,
    explicit: Option<SpanContext>,
) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT_SPAN.with(|current| current.replace(id));
    let parent = explicit.map_or(prev, |ctx| ctx.span);
    crate::emit(Event::SpanStart {
        id,
        parent,
        name: name.to_string(),
        label: label.as_ref().map(|l| l.clone().into_owned()),
        tid: thread_id(),
        t_us: crate::now_us(),
    });
    Span {
        inner: Some(SpanInner {
            id,
            parent,
            prev,
            name,
            label,
            start: Instant::now(),
        }),
    }
}

impl Span {
    /// The span id (`None` when telemetry was off at creation).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|inner| inner.id)
    }

    /// A sendable handle to this span for cross-thread propagation
    /// ([`SpanContext::NONE`] when telemetry was off at creation).
    pub fn context(&self) -> SpanContext {
        SpanContext {
            span: self.inner.as_ref().map_or(0, |inner| inner.id),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        CURRENT_SPAN.with(|current| current.set(inner.prev));
        crate::emit(Event::SpanEnd {
            id: inner.id,
            parent: inner.parent,
            name: inner.name.to_string(),
            label: inner.label.map(Cow::into_owned),
            tid: thread_id(),
            t_us: crate::now_us(),
            dur_us: inner.start.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        // no recorder installed in this unit-test context
        let guard = span("t.disabled");
        assert_eq!(guard.id(), None);
        assert!(guard.context().is_none());
        drop(guard);
        CURRENT_SPAN.with(|current| assert_eq!(current.get(), 0));
    }

    #[test]
    fn disabled_context_and_worker_span_are_inert() {
        let ctx = current_context();
        assert_eq!(ctx, SpanContext::NONE);
        let guard = span_with_parent("t.worker", ctx);
        assert_eq!(guard.id(), None);
        drop(guard);
        CURRENT_SPAN.with(|current| assert_eq!(current.get(), 0));
    }

    #[test]
    fn thread_ids_are_stable_per_thread_and_distinct_across_threads() {
        let mine = thread_id();
        assert!(mine > 0);
        assert_eq!(thread_id(), mine, "lane id must be sticky");
        let other = std::thread::spawn(thread_id).join().expect("worker runs");
        assert_ne!(other, mine);
        assert!(other > 0);
    }
}
