//! Turns a JSONL run record into a human-readable summary.
//!
//! Used by the `hwpr-report` binary:
//!
//! ```text
//! cargo run -p hwpr-obs --bin hwpr-report -- telemetry.jsonl
//! ```

use crate::event::Event;
use serde::Value;
use std::collections::BTreeMap;

/// Parses a JSONL run record (one event per line; blank lines skipped).
///
/// # Errors
///
/// Returns the first malformed line's error, with its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| Event::from_json(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders the run summary: header, warnings, span aggregates, final
/// metric values and one table per record stream.
pub fn summarize(events: &[Event]) -> String {
    let mut out = String::new();
    let t_min = events.iter().map(Event::t_us).min().unwrap_or(0);
    let t_max = events.iter().map(Event::t_us).max().unwrap_or(0);
    out.push_str(&format!(
        "run record: {} events over {}\n",
        events.len(),
        fmt_us(t_max.saturating_sub(t_min))
    ));

    let warnings: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Warn { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    if !warnings.is_empty() {
        out.push_str(&format!("\nwarnings ({}):\n", warnings.len()));
        for w in &warnings {
            out.push_str(&format!("  ! {w}\n"));
        }
    }

    // span aggregates: count, total, mean, max per (name, label) variant;
    // labeled spans render as `name[label]`
    let mut spans: BTreeMap<(&str, Option<&str>), (u64, u64, u64)> = BTreeMap::new();
    for event in events {
        if let Event::SpanEnd {
            name,
            label,
            dur_us,
            ..
        } = event
        {
            let entry = spans.entry((name, label.as_deref())).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += dur_us;
            entry.2 = entry.2.max(*dur_us);
        }
    }
    if !spans.is_empty() {
        let rows: Vec<Vec<String>> = spans
            .iter()
            .map(|((name, label), (count, total, max))| {
                let shown = match label {
                    Some(label) => format!("{name}[{label}]"),
                    None => name.to_string(),
                };
                vec![
                    shown,
                    count.to_string(),
                    fmt_us(*total),
                    fmt_us(total / count.max(&1)),
                    fmt_us(*max),
                ]
            })
            .collect();
        out.push_str("\nspans:\n");
        out.push_str(&table(&["span", "count", "total", "mean", "max"], &rows));
    }

    // final counter / gauge values (last event per name wins)
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, f64> = BTreeMap::new();
    for event in events {
        match event {
            Event::Counter { name, value, .. } => {
                counters.insert(name, *value);
            }
            Event::Gauge { name, value, .. } => {
                gauges.insert(name, *value);
            }
            _ => {}
        }
    }
    if !counters.is_empty() || !gauges.is_empty() {
        let mut rows: Vec<Vec<String>> = counters
            .iter()
            .map(|(name, value)| vec![name.to_string(), "counter".into(), fmt_u64(*value)])
            .collect();
        rows.extend(
            gauges
                .iter()
                .map(|(name, value)| vec![name.to_string(), "gauge".into(), fmt_f64(*value)]),
        );
        out.push_str("\nmetrics:\n");
        out.push_str(&table(&["metric", "kind", "value"], &rows));
    }

    // histograms: last snapshot per name
    let mut hists: BTreeMap<&str, &Event> = BTreeMap::new();
    for event in events {
        if let Event::Hist { name, .. } = event {
            hists.insert(name, event);
        }
    }
    if !hists.is_empty() {
        let rows: Vec<Vec<String>> = hists
            .values()
            .filter_map(|event| {
                let Event::Hist {
                    name,
                    count,
                    sum,
                    bounds,
                    counts,
                    ..
                } = event
                else {
                    return None;
                };
                let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
                let q = |q: f64| quantile(bounds, counts, q).map_or("-".into(), fmt_f64);
                Some(vec![
                    name.clone(),
                    count.to_string(),
                    fmt_f64(mean),
                    q(0.5),
                    q(0.95),
                ])
            })
            .collect();
        out.push_str("\nhistograms:\n");
        out.push_str(&table(
            &["histogram", "count", "mean", "~p50", "~p95"],
            &rows,
        ));
    }

    // record streams: one table per name, columns in first-seen order
    let mut streams: Vec<(&str, Vec<&Event>)> = Vec::new();
    for event in events {
        if let Event::Record { name, .. } = event {
            match streams.iter_mut().find(|(n, _)| *n == name) {
                Some((_, rows)) => rows.push(event),
                None => streams.push((name, vec![event])),
            }
        }
    }
    for (name, records) in &streams {
        let mut columns: Vec<&str> = Vec::new();
        for record in records {
            if let Event::Record { fields, .. } = record {
                for (key, _) in fields {
                    if !columns.contains(&key.as_str()) {
                        columns.push(key);
                    }
                }
            }
        }
        const MAX_ROWS: usize = 48;
        let mut rows: Vec<Vec<String>> = Vec::new();
        for record in records.iter().take(MAX_ROWS) {
            if let Event::Record { fields, .. } = record {
                rows.push(
                    columns
                        .iter()
                        .map(|col| {
                            fields
                                .iter()
                                .find(|(k, _)| k == col)
                                .map_or(String::new(), |(_, v)| fmt_value(v))
                        })
                        .collect(),
                );
            }
        }
        out.push_str(&format!("\n{name} ({} rows):\n", records.len()));
        let headers: Vec<&str> = columns.clone();
        out.push_str(&table(&headers, &rows));
        if records.len() > MAX_ROWS {
            out.push_str(&format!("  ... {} more rows\n", records.len() - MAX_ROWS));
        }
    }
    out
}

/// Approximate quantile from cumulative bucket counts: the upper bound of
/// the bucket holding the q-th observation. Returns `None` when the value
/// is unknowable — an empty histogram, or a quantile landing in the
/// overflow bucket of a histogram with no finite bounds. A quantile in
/// the overflow bucket of a bounded histogram reports the last finite
/// bound (a lower bound for the true quantile — the same direction of
/// approximation every bucket gives).
fn quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // clamp into [1, total] so q = 0 and fp round-up past 1.0 stay valid
    let target = ((q * total as f64).ceil().max(1.0) as u64).min(total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return match bounds.get(i) {
                Some(&bound) => Some(bound),
                // overflow bucket: best available is the last finite bound
                None => bounds.last().copied(),
            };
        }
    }
    // counts summed to < target can only happen with inconsistent input;
    // report the weakest valid answer rather than panicking
    bounds.last().copied()
}

fn fmt_value(value: &Value) -> String {
    match value {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => fmt_u64(*u),
        Value::Float(f) => fmt_f64(*f),
        Value::String(s) => s.clone(),
        Value::Array(items) => format!("[{} items]", items.len()),
        Value::Object(pairs) => format!("{{{} fields}}", pairs.len()),
    }
}

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

pub(crate) fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 && v.abs() < 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Renders an aligned plain-text table.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        out.push_str("  ");
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        // no trailing padding spaces
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    render(&header_cells, &widths, &mut out);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render(&rule, &widths, &mut out);
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        let good = "{\"type\":\"warn\",\"message\":\"m\",\"t_us\":1}\n";
        assert_eq!(parse_jsonl(good).unwrap().len(), 1);
        let bad = format!("{good}not json\n");
        let err = parse_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn summarize_renders_all_sections() {
        let events = vec![
            Event::SpanStart {
                id: 1,
                parent: 0,
                name: "search.moea".into(),
                label: None,
                tid: 1,
                t_us: 0,
            },
            Event::SpanEnd {
                id: 1,
                parent: 0,
                name: "search.moea".into(),
                label: None,
                tid: 1,
                t_us: 900,
                dur_us: 900,
            },
            Event::Counter {
                name: "tensor.gemm.calls".into(),
                value: 42,
                t_us: 950,
            },
            Event::Gauge {
                name: "autograd.tape.nodes".into(),
                value: 123.0,
                t_us: 950,
            },
            Event::Hist {
                name: "search.eval_ms".into(),
                count: 3,
                sum: 6.0,
                bounds: vec![1.0, 10.0],
                counts: vec![1, 2, 0],
                t_us: 950,
            },
            Event::Warn {
                message: "invalid HWPR_SCALE".into(),
                t_us: 10,
            },
            Event::Record {
                name: "search.generation".into(),
                t_us: 500,
                fields: vec![
                    ("gen".into(), Value::UInt(0)),
                    ("hv".into(), Value::Float(0.75)),
                ],
            },
        ];
        let text = summarize(&events);
        assert!(text.contains("7 events"));
        assert!(text.contains("search.moea"));
        assert!(text.contains("tensor.gemm.calls"));
        assert!(text.contains("autograd.tape.nodes"));
        assert!(text.contains("search.eval_ms"));
        assert!(text.contains("invalid HWPR_SCALE"));
        assert!(text.contains("search.generation (1 rows):"));
        assert!(text.contains("0.75"));
    }

    #[test]
    fn summarize_surfaces_frozen_inference_metrics() {
        // the frozen engine's span, prepack-reuse counter and per-batch
        // latency histogram must all land in their renderer sections
        let events = vec![
            Event::SpanStart {
                id: 1,
                parent: 0,
                name: "infer.frozen".into(),
                label: Some("int8".into()),
                tid: 2,
                t_us: 0,
            },
            Event::SpanEnd {
                id: 1,
                parent: 0,
                name: "infer.frozen".into(),
                label: Some("int8".into()),
                tid: 2,
                t_us: 400,
                dur_us: 400,
            },
            Event::Counter {
                name: "infer.prepack.reuse".into(),
                value: 96,
                t_us: 450,
            },
            Event::Hist {
                name: "infer.batch.us".into(),
                count: 4,
                sum: 800.0,
                bounds: vec![100.0, 1000.0],
                counts: vec![3, 1, 0],
                t_us: 450,
            },
        ];
        let text = summarize(&events);
        assert!(text.contains("infer.frozen[int8]"), "{text}");
        assert!(text.contains("infer.prepack.reuse"), "{text}");
        assert!(text.contains("96"), "{text}");
        assert!(text.contains("infer.batch.us"), "{text}");
    }

    #[test]
    fn summarize_surfaces_moo_kernel_metrics() {
        // the Pareto-kernel workspace emits sort/hv latency histograms, a
        // workspace-reuse counter and the incremental-vs-full hypervolume
        // split; all must land in their renderer sections
        let events = vec![
            Event::Counter {
                name: "moo.workspace.reuse".into(),
                value: 58,
                t_us: 10,
            },
            Event::Counter {
                name: "moo.hv.incremental".into(),
                value: 27,
                t_us: 10,
            },
            Event::Counter {
                name: "moo.hv.full".into(),
                value: 3,
                t_us: 10,
            },
            Event::Hist {
                name: "moo.sort.us".into(),
                count: 30,
                sum: 420.0,
                bounds: vec![1.0, 4.0, 16.0],
                counts: vec![12, 15, 3, 0],
                t_us: 20,
            },
            Event::Hist {
                name: "moo.hv.us".into(),
                count: 30,
                sum: 95.0,
                bounds: vec![1.0, 4.0, 16.0],
                counts: vec![25, 5, 0, 0],
                t_us: 20,
            },
        ];
        let text = summarize(&events);
        assert!(text.contains("moo.workspace.reuse"), "{text}");
        assert!(text.contains("58"), "{text}");
        assert!(text.contains("moo.hv.incremental"), "{text}");
        assert!(text.contains("moo.hv.full"), "{text}");
        assert!(text.contains("moo.sort.us"), "{text}");
        assert!(text.contains("moo.hv.us"), "{text}");
    }

    #[test]
    fn quantile_walks_buckets() {
        let bounds = [1.0, 2.0, 4.0];
        let counts = [5, 4, 1, 0];
        assert_eq!(quantile(&bounds, &counts, 0.5), Some(1.0));
        assert_eq!(quantile(&bounds, &counts, 0.9), Some(2.0));
        assert_eq!(quantile(&bounds, &counts, 0.95), Some(4.0));
        assert_eq!(quantile(&bounds, &counts, 1.0), Some(4.0));
    }

    #[test]
    fn quantile_empty_histogram_is_unknown() {
        assert_eq!(quantile(&[1.0, 2.0, 4.0], &[0, 0, 0, 0], 0.5), None);
        assert_eq!(quantile(&[], &[], 0.5), None);
        assert_eq!(quantile(&[], &[0], 0.99), None);
    }

    #[test]
    fn quantile_single_sample_reports_its_bucket_for_every_q() {
        let bounds = [1.0, 2.0, 4.0];
        let counts = [0, 1, 0, 0];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile(&bounds, &counts, q), Some(2.0), "q={q}");
        }
    }

    #[test]
    fn quantile_all_in_overflow_reports_last_finite_bound() {
        // every observation past the last bound: the honest answer is a
        // lower bound, never a division by zero or a panic
        let bounds = [1.0, 2.0, 4.0];
        let counts = [0, 0, 0, 7];
        assert_eq!(quantile(&bounds, &counts, 0.5), Some(4.0));
        assert_eq!(quantile(&bounds, &counts, 0.99), Some(4.0));
        // a histogram with only the overflow bucket has no finite bound
        assert_eq!(quantile(&[], &[3], 0.5), None);
    }

    #[test]
    fn summarize_renders_degenerate_histograms_without_panicking() {
        let events = vec![
            Event::Hist {
                name: "t.empty".into(),
                count: 0,
                sum: 0.0,
                bounds: vec![1.0, 10.0],
                counts: vec![0, 0, 0],
                t_us: 1,
            },
            Event::Hist {
                name: "t.overflow".into(),
                count: 4,
                sum: 400.0,
                bounds: vec![1.0, 10.0],
                counts: vec![0, 0, 4],
                t_us: 1,
            },
            Event::Hist {
                name: "t.single".into(),
                count: 1,
                sum: 5.0,
                bounds: vec![1.0, 10.0],
                counts: vec![0, 1, 0],
                t_us: 1,
            },
        ];
        let text = summarize(&events);
        // empty histogram: unknown quantiles render as "-", mean as 0
        assert!(text.contains("t.empty"), "{text}");
        assert!(text.contains('-'), "{text}");
        // all-in-overflow: last finite bound, not inf/NaN
        assert!(text.contains("t.overflow"), "{text}");
        assert!(!text.to_lowercase().contains("inf"), "{text}");
        assert!(!text.to_lowercase().contains("nan"), "{text}");
        assert!(text.contains("t.single"), "{text}");
    }
}
