//! Trace-level views over a run record: Chrome Trace Event export,
//! a self-time-attributed span tree, and folded flamegraph stacks.
//!
//! The event stream stores spans flat (start/end pairs with `parent`
//! ids); this module reassembles them into the causal tree and renders
//! it three ways:
//!
//! - [`chrome_trace`] — Chrome Trace Event JSON, openable in Perfetto or
//!   `chrome://tracing`, with one lane per recorded thread id;
//! - [`span_tree`] — an indented plain-text tree aggregating spans by
//!   path, attributing **self time** (span duration minus the duration of
//!   its direct children) versus child time;
//! - [`folded_stacks`] — `root;child;leaf <self µs>` lines, the input
//!   format of standard flamegraph tooling (`flamegraph.pl`, inferno).
//!
//! [`stats`] reports connectivity: a healthy capture of one process has
//! exactly one root span per top-level operation and **zero orphans**
//! (spans whose recorded parent never appears in the capture — the
//! signature of a worker thread that failed to propagate its
//! [`crate::SpanContext`]).
//!
//! Self time is wall-clock per span: when children run concurrently on
//! worker threads (e.g. the `search.island` spans of islands running on
//! parallel worker lanes under one `search.islands`), their summed duration
//! can exceed the parent's wall time, in which case the parent's self
//! time clamps to zero — the tree shows where time is spent, the Chrome
//! view shows how it overlaps.

use crate::event::Event;
use crate::report::{fmt_us, table};
use serde::Value;
use std::collections::BTreeMap;

/// One reassembled span occurrence.
#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: u64,
    name: String,
    label: Option<String>,
    tid: u64,
    start_us: u64,
    dur_us: u64,
}

impl SpanRec {
    /// Display name: `name[label]` for labeled spans.
    fn shown(&self) -> String {
        match &self.label {
            Some(label) => format!("{}[{}]", self.name, label),
            None => self.name.clone(),
        }
    }
}

/// Pairs start/end events into span records. Spans still open at capture
/// end (an end event never arrived) are synthesised from their start with
/// a duration running to the last event timestamp, so a killed run still
/// renders.
fn collect_spans(events: &[Event]) -> Vec<SpanRec> {
    let t_max = events.iter().map(Event::t_us).max().unwrap_or(0);
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    for event in events {
        match event {
            Event::SpanStart {
                id,
                parent,
                name,
                label,
                tid,
                t_us,
            } => {
                open.insert(*id, spans.len());
                spans.push(SpanRec {
                    id: *id,
                    parent: *parent,
                    name: name.clone(),
                    label: label.clone(),
                    tid: *tid,
                    start_us: *t_us,
                    // provisional: refined by the end event, else runs to
                    // the end of the capture
                    dur_us: t_max.saturating_sub(*t_us),
                });
            }
            Event::SpanEnd {
                id,
                parent,
                name,
                label,
                tid,
                t_us,
                dur_us,
            } => {
                if let Some(i) = open.remove(id) {
                    spans[i].dur_us = *dur_us;
                } else {
                    // end without a start (capture began mid-span):
                    // reconstruct the start from the monotonic duration
                    spans.push(SpanRec {
                        id: *id,
                        parent: *parent,
                        name: name.clone(),
                        label: label.clone(),
                        tid: *tid,
                        start_us: t_us.saturating_sub(*dur_us),
                        dur_us: *dur_us,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// The run's trace id as recorded by the `trace.meta` record, if any.
fn recorded_trace_id(events: &[Event]) -> Option<String> {
    events.iter().find_map(|e| match e {
        Event::Record { name, fields, .. } if name == "trace.meta" => {
            fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("trace_id", Value::String(s)) => Some(s.clone()),
                _ => None,
            })
        }
        _ => None,
    })
}

/// Trace connectivity statistics for a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total span occurrences (open spans count too).
    pub spans: usize,
    /// Spans with parent id 0 — intentional tree roots.
    pub roots: usize,
    /// Spans whose non-zero parent id appears nowhere in the capture:
    /// broken cross-thread propagation.
    pub orphans: usize,
    /// Distinct thread lanes that emitted spans.
    pub threads: usize,
}

/// Computes [`TraceStats`] for a capture.
pub fn stats(events: &[Event]) -> TraceStats {
    let spans = collect_spans(events);
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    TraceStats {
        spans: spans.len(),
        roots: spans.iter().filter(|s| s.parent == 0).count(),
        orphans: spans
            .iter()
            .filter(|s| s.parent != 0 && !ids.contains(&s.parent))
            .count(),
        threads: tids.len(),
    }
}

/// Renders the capture as Chrome Trace Event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto and
/// `chrome://tracing`. Spans become complete (`"ph":"X"`) events laid out
/// in one lane per recorded thread id; counters and gauges become counter
/// tracks; warnings become global instant events.
pub fn chrome_trace(events: &[Event]) -> String {
    let spans = collect_spans(events);
    let mut trace_events: Vec<Value> = Vec::new();
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };

    // one metadata row per lane so Perfetto names the tracks
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        let lane = if tid <= 1 {
            // lane 1 is the first thread to emit (the main thread in
            // practice); lane 0 only appears in pre-tracing captures
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        trace_events.push(obj(vec![
            ("name", Value::String("thread_name".into())),
            ("ph", Value::String("M".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(tid)),
            ("args", obj(vec![("name", Value::String(lane))])),
        ]));
    }

    for span in &spans {
        let mut args = vec![
            ("span_id", Value::UInt(span.id)),
            ("parent", Value::UInt(span.parent)),
        ];
        if let Some(label) = &span.label {
            args.push(("label", Value::String(label.clone())));
        }
        trace_events.push(obj(vec![
            ("name", Value::String(span.shown())),
            ("cat", Value::String("span".into())),
            ("ph", Value::String("X".into())),
            ("ts", Value::UInt(span.start_us)),
            ("dur", Value::UInt(span.dur_us)),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(span.tid)),
            ("args", obj(args)),
        ]));
    }

    for event in events {
        match event {
            Event::Counter { name, value, t_us } => {
                trace_events.push(obj(vec![
                    ("name", Value::String(name.clone())),
                    ("ph", Value::String("C".into())),
                    ("ts", Value::UInt(*t_us)),
                    ("pid", Value::UInt(1)),
                    ("args", obj(vec![("value", Value::UInt(*value))])),
                ]));
            }
            Event::Gauge { name, value, t_us } => {
                trace_events.push(obj(vec![
                    ("name", Value::String(name.clone())),
                    ("ph", Value::String("C".into())),
                    ("ts", Value::UInt(*t_us)),
                    ("pid", Value::UInt(1)),
                    ("args", obj(vec![("value", Value::Float(*value))])),
                ]));
            }
            Event::Warn { message, t_us } => {
                trace_events.push(obj(vec![
                    ("name", Value::String("warn".into())),
                    ("ph", Value::String("i".into())),
                    ("s", Value::String("g".into())),
                    ("ts", Value::UInt(*t_us)),
                    ("pid", Value::UInt(1)),
                    (
                        "args",
                        obj(vec![("message", Value::String(message.clone()))]),
                    ),
                ]));
            }
            _ => {}
        }
    }

    let mut top = vec![
        ("displayTimeUnit", Value::String("ms".into())),
        ("traceEvents", Value::Array(trace_events)),
    ];
    if let Some(trace_id) = recorded_trace_id(events) {
        top.push((
            "otherData",
            obj(vec![("trace_id", Value::String(trace_id))]),
        ));
    }
    serde_json::to_string(&obj(top)).expect("trace serialisation is infallible")
}

/// Aggregated node of the rendered span tree: spans grouped by
/// (path, name, label).
#[derive(Debug, Default)]
struct TreeNode {
    count: u64,
    total_us: u64,
    self_us: u64,
    children: BTreeMap<String, TreeNode>,
}

/// Self time of one span occurrence: wall duration minus direct
/// children's wall duration, clamped at zero for concurrent fan-outs.
fn self_us(span: &SpanRec, child_total: u64) -> u64 {
    span.dur_us.saturating_sub(child_total)
}

/// Builds the aggregated tree; orphan spans (recorded parent missing from
/// the capture) are grouped under a synthetic `(orphan)` root so broken
/// propagation is loud, not invisible.
fn build_tree(spans: &[SpanRec]) -> TreeNode {
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children_of: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut top: Vec<(String, usize)> = Vec::new(); // (group key, span idx)
    for (i, span) in spans.iter().enumerate() {
        if span.parent != 0 && ids.contains(&span.parent) {
            children_of.entry(span.parent).or_default().push(i);
        } else if span.parent == 0 {
            top.push((span.shown(), i));
        } else {
            top.push((format!("(orphan) {}", span.shown()), i));
        }
    }

    fn insert(
        node: &mut TreeNode,
        key: String,
        idx: usize,
        spans: &[SpanRec],
        children_of: &BTreeMap<u64, Vec<usize>>,
    ) {
        let span = &spans[idx];
        let child_idxs = children_of.get(&span.id);
        let child_total: u64 = child_idxs
            .map(|c| c.iter().map(|&i| spans[i].dur_us).sum())
            .unwrap_or(0);
        let entry = node.children.entry(key).or_default();
        entry.count += 1;
        entry.total_us += span.dur_us;
        entry.self_us += self_us(span, child_total);
        if let Some(child_idxs) = child_idxs {
            for &child in child_idxs {
                insert(entry, spans[child].shown(), child, spans, children_of);
            }
        }
    }

    let mut root = TreeNode::default();
    for (key, idx) in top {
        insert(&mut root, key, idx, spans, &children_of);
    }
    root
}

/// Renders the capture as an indented span tree with per-path counts and
/// total/self-time attribution — a dependency-free flamegraph substitute.
pub fn span_tree(events: &[Event]) -> String {
    let spans = collect_spans(events);
    let st = stats(events);
    let mut out = String::new();
    if let Some(trace_id) = recorded_trace_id(events) {
        out.push_str(&format!("trace {trace_id}\n"));
    }
    out.push_str(&format!(
        "spans: {} total, {} roots, {} orphans, {} thread lanes\n",
        st.spans, st.roots, st.orphans, st.threads
    ));
    if spans.is_empty() {
        return out;
    }

    let tree = build_tree(&spans);
    let mut rows: Vec<Vec<String>> = Vec::new();
    fn render(node: &TreeNode, depth: usize, rows: &mut Vec<Vec<String>>) {
        // widest subtree first reads like a profile
        let mut children: Vec<(&String, &TreeNode)> = node.children.iter().collect();
        children.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        for (name, child) in children {
            let self_pct = if child.total_us > 0 {
                100.0 * child.self_us as f64 / child.total_us as f64
            } else {
                100.0
            };
            rows.push(vec![
                format!("{}{}", "  ".repeat(depth), name),
                child.count.to_string(),
                fmt_us(child.total_us),
                fmt_us(child.self_us),
                format!("{self_pct:.0}%"),
            ]);
            render(child, depth + 1, rows);
        }
    }
    render(&tree, 0, &mut rows);
    out.push_str(&table(&["span", "count", "total", "self", "self%"], &rows));
    out
}

/// Renders folded stacks (`root;child;leaf <self µs>` per line, stacks
/// sorted), the input format of `flamegraph.pl` and inferno. The counted
/// value is self time in microseconds.
pub fn folded_stacks(events: &[Event]) -> String {
    let spans = collect_spans(events);
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_total: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &spans {
        if span.parent != 0 && ids.contains(&span.parent) {
            *child_total.entry(span.parent).or_default() += span.dur_us;
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for span in &spans {
        // walk ancestry up to the root (or to an orphaned parent)
        let mut stack = vec![span.shown()];
        let mut parent = span.parent;
        while parent != 0 {
            match by_id.get(&parent) {
                Some(&i) => {
                    stack.push(spans[i].shown());
                    parent = spans[i].parent;
                }
                None => {
                    stack.push("(orphan)".to_string());
                    break;
                }
            }
        }
        stack.reverse();
        let own = self_us(span, child_total.get(&span.id).copied().unwrap_or(0));
        if own > 0 {
            *folded.entry(stack.join(";")).or_default() += own;
        }
    }
    let mut out = String::new();
    for (stack, us) in folded {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: u64, name: &str, tid: u64, t_us: u64) -> Event {
        Event::SpanStart {
            id,
            parent,
            name: name.into(),
            label: None,
            tid,
            t_us,
        }
    }

    fn end(id: u64, parent: u64, name: &str, tid: u64, t_us: u64, dur_us: u64) -> Event {
        Event::SpanEnd {
            id,
            parent,
            name: name.into(),
            label: None,
            tid,
            t_us,
            dur_us,
        }
    }

    /// main: root(1) { a(2) { b(3) } }, worker lane: w(4) parented to a.
    fn connected_capture() -> Vec<Event> {
        vec![
            start(1, 0, "root", 1, 0),
            start(2, 1, "a", 1, 10),
            start(3, 2, "b", 1, 20),
            end(3, 2, "b", 1, 50, 30),
            start(4, 2, "w", 2, 25),
            end(4, 2, "w", 2, 55, 30),
            end(2, 1, "a", 1, 90, 80),
            end(1, 0, "root", 1, 100, 100),
        ]
    }

    #[test]
    fn stats_counts_roots_orphans_and_lanes() {
        let st = stats(&connected_capture());
        assert_eq!(
            st,
            TraceStats {
                spans: 4,
                roots: 1,
                orphans: 0,
                threads: 2
            }
        );

        // break propagation: the worker's parent never appears
        let mut broken = connected_capture();
        broken.push(end(9, 7777, "lost", 3, 60, 5));
        let st = stats(&broken);
        assert_eq!(st.orphans, 1);
        assert_eq!(st.roots, 1);
    }

    #[test]
    fn chrome_trace_lays_spans_in_thread_lanes() {
        let json = chrome_trace(&connected_capture());
        let value: Value = serde_json::from_str(&json).expect("valid JSON");
        let top = value.as_object().expect("object form");
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        // 2 thread_name metadata rows + 4 complete span events
        let metas: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "ph"))
                    .is_some_and(|(_, v)| *v == Value::String("M".into()))
            })
            .collect();
        assert_eq!(metas.len(), 2, "{json}");
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "ph"))
                    .is_some_and(|(_, v)| *v == Value::String("X".into()))
            })
            .collect();
        assert_eq!(complete.len(), 4, "{json}");
        assert!(json.contains("\"tid\":2"), "worker lane present: {json}");
        // span "a": ts from its start event, dur from its end event
        assert!(json.contains("\"name\":\"a\""), "{json}");
        assert!(json.contains("\"dur\":80"), "{json}");
    }

    #[test]
    fn chrome_trace_carries_trace_meta_and_counters() {
        let mut events = connected_capture();
        events.push(Event::Record {
            name: "trace.meta".into(),
            t_us: 0,
            fields: vec![("trace_id".into(), Value::String("00c0ffee00c0ffee".into()))],
        });
        events.push(Event::Counter {
            name: "tensor.gemm.calls".into(),
            value: 7,
            t_us: 60,
        });
        let json = chrome_trace(&events);
        assert!(json.contains("\"trace_id\":\"00c0ffee00c0ffee\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("tensor.gemm.calls"), "{json}");
    }

    #[test]
    fn span_tree_attributes_self_vs_child_time() {
        let text = span_tree(&connected_capture());
        assert!(text.contains("1 roots, 0 orphans"), "{text}");
        // root: 100 total, children (a: 80) -> self 20
        // a: 80 total, children (b: 30, w: 30) -> self 20
        let root_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("root"))
            .unwrap();
        assert!(root_line.contains("100us"), "{root_line}");
        assert!(root_line.contains("20us"), "{root_line}");
        let a_line = text
            .lines()
            .find(|l| l.trim_start().starts_with('a'))
            .unwrap();
        assert!(a_line.contains("80us"), "{a_line}");
        assert!(a_line.contains("20us"), "{a_line}");
        // children are indented under their parents
        assert!(text.contains("  a"), "{text}");
        assert!(text.contains("    b"), "{text}");
    }

    #[test]
    fn span_tree_clamps_concurrent_fanout_self_time() {
        // two workers of 80us each inside a 100us parent: child wall time
        // (160us) exceeds the parent's, self clamps to 0
        let events = vec![
            start(1, 0, "parent", 1, 0),
            end(2, 1, "w", 2, 80, 80),
            end(3, 1, "w", 3, 90, 80),
            end(1, 0, "parent", 1, 100, 100),
        ];
        let text = span_tree(&events);
        let parent = text
            .lines()
            .find(|l| l.trim_start().starts_with("parent"))
            .unwrap();
        assert!(parent.contains("0us"), "{parent}");
        let w = text
            .lines()
            .find(|l| l.trim_start().starts_with('w'))
            .unwrap();
        assert!(w.contains("160us"), "aggregated worker total: {w}");
    }

    #[test]
    fn folded_stacks_sum_self_time_per_path() {
        let text = folded_stacks(&connected_capture());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"root 20"), "{text}");
        assert!(lines.contains(&"root;a 20"), "{text}");
        assert!(lines.contains(&"root;a;b 30"), "{text}");
        assert!(lines.contains(&"root;a;w 30"), "{text}");
    }

    #[test]
    fn orphans_are_grouped_loudly() {
        let events = vec![end(9, 7777, "lost", 1, 60, 5)];
        let tree = span_tree(&events);
        assert!(tree.contains("1 orphans"), "{tree}");
        assert!(tree.contains("(orphan) lost"), "{tree}");
        let folded = folded_stacks(&events);
        assert!(folded.contains("(orphan);lost 5"), "{folded}");
    }

    #[test]
    fn open_spans_render_to_capture_end() {
        // start without end: a killed run still produces a usable trace
        let events = vec![
            start(1, 0, "root", 1, 0),
            Event::Warn {
                message: "killed".into(),
                t_us: 40,
            },
        ];
        let st = stats(&events);
        assert_eq!(st.spans, 1);
        assert_eq!(st.roots, 1);
        let json = chrome_trace(&events);
        assert!(json.contains("\"dur\":40"), "{json}");
    }
}
