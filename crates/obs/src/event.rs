//! The telemetry event model and its JSON-lines encoding.
//!
//! Every event renders to one flat JSON object with a `"type"` tag, so a
//! run record is a plain JSONL file any log tooling can consume. The
//! encoding round-trips: [`Event::to_json`] followed by
//! [`Event::from_json`] rebuilds the event (integral floats inside
//! free-form [`Event::Record`] fields come back as integers — the JSON
//! text does not distinguish `3.0` from `3`).

use serde::Value;

/// One telemetry event. Timestamps (`t_us`) are microseconds since the
/// process telemetry epoch and are monotonic within a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`parent` is 0 for root spans).
    SpanStart {
        /// Process-unique span id (> 0).
        id: u64,
        /// Enclosing span id, 0 at the root.
        parent: u64,
        /// Span name, e.g. `"search.moea"`.
        name: String,
        /// Optional variant label, e.g. the encoder branch of an
        /// `"infer.encode"` span. Omitted from the JSON when absent.
        label: Option<String>,
        /// Dense lane id of the emitting thread (0 in pre-tracing
        /// captures; see [`crate::thread_id`]).
        tid: u64,
        /// Start time.
        t_us: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id from the matching [`Event::SpanStart`].
        id: u64,
        /// Enclosing span id, 0 at the root.
        parent: u64,
        /// Span name.
        name: String,
        /// Optional variant label from the matching start event.
        label: Option<String>,
        /// Dense lane id of the emitting thread (0 in pre-tracing
        /// captures; see [`crate::thread_id`]).
        tid: u64,
        /// End time.
        t_us: u64,
        /// Span duration (monotonic, so `t_us >= start.t_us + dur_us` is
        /// never violated by clock steps).
        dur_us: u64,
    },
    /// A monotonic counter's current value.
    Counter {
        /// Metric name.
        name: String,
        /// Current count.
        value: u64,
        /// Snapshot time.
        t_us: u64,
    },
    /// A gauge's current value.
    Gauge {
        /// Metric name.
        name: String,
        /// Current value.
        value: f64,
        /// Snapshot time.
        t_us: u64,
    },
    /// A histogram snapshot: cumulative `counts[i]` observations fell in
    /// `(bounds[i-1], bounds[i]]`; the final slot is the overflow bucket.
    Hist {
        /// Metric name.
        name: String,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
        /// Bucket upper bounds (sorted ascending).
        bounds: Vec<f64>,
        /// Per-bucket counts; `bounds.len() + 1` entries.
        counts: Vec<u64>,
        /// Snapshot time.
        t_us: u64,
    },
    /// A warning surfaced through the sink (misconfiguration, fallbacks).
    Warn {
        /// Human-readable message.
        message: String,
        /// Emission time.
        t_us: u64,
    },
    /// A free-form structured row, e.g. per-epoch training metrics
    /// (`"train.epoch"`) or per-generation search metrics
    /// (`"search.generation"`). Field keys must not collide with the
    /// reserved `"type"` / `"name"` / `"t_us"` keys.
    Record {
        /// Record stream name.
        name: String,
        /// Emission time.
        t_us: u64,
        /// Named payload fields, rendered inline into the JSON object.
        fields: Vec<(String, Value)>,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn t_us(&self) -> u64 {
        match self {
            Event::SpanStart { t_us, .. }
            | Event::SpanEnd { t_us, .. }
            | Event::Counter { t_us, .. }
            | Event::Gauge { t_us, .. }
            | Event::Hist { t_us, .. }
            | Event::Warn { t_us, .. }
            | Event::Record { t_us, .. } => *t_us,
        }
    }

    /// Renders the event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("event serialisation is infallible")
    }

    /// Parses one JSON object produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a missing/unknown `"type"`
    /// tag, or missing required fields.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        Self::from_value(&value)
    }

    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        let mut put = |k: &str, v: Value| pairs.push((k.to_string(), v));
        match self {
            Event::SpanStart {
                id,
                parent,
                name,
                label,
                tid,
                t_us,
            } => {
                put("type", Value::String("span_start".into()));
                put("id", Value::UInt(*id));
                put("parent", Value::UInt(*parent));
                put("name", Value::String(name.clone()));
                if let Some(label) = label {
                    put("label", Value::String(label.clone()));
                }
                put("tid", Value::UInt(*tid));
                put("t_us", Value::UInt(*t_us));
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
                put("type", Value::String("span_end".into()));
                put("id", Value::UInt(*id));
                put("parent", Value::UInt(*parent));
                put("name", Value::String(name.clone()));
                if let Some(label) = label {
                    put("label", Value::String(label.clone()));
                }
                put("tid", Value::UInt(*tid));
                put("t_us", Value::UInt(*t_us));
                put("dur_us", Value::UInt(*dur_us));
            }
            Event::Counter { name, value, t_us } => {
                put("type", Value::String("counter".into()));
                put("name", Value::String(name.clone()));
                put("value", Value::UInt(*value));
                put("t_us", Value::UInt(*t_us));
            }
            Event::Gauge { name, value, t_us } => {
                put("type", Value::String("gauge".into()));
                put("name", Value::String(name.clone()));
                put("value", Value::Float(*value));
                put("t_us", Value::UInt(*t_us));
            }
            Event::Hist {
                name,
                count,
                sum,
                bounds,
                counts,
                t_us,
            } => {
                put("type", Value::String("hist".into()));
                put("name", Value::String(name.clone()));
                put("count", Value::UInt(*count));
                put("sum", Value::Float(*sum));
                put(
                    "bounds",
                    Value::Array(bounds.iter().map(|&b| Value::Float(b)).collect()),
                );
                put(
                    "counts",
                    Value::Array(counts.iter().map(|&c| Value::UInt(c)).collect()),
                );
                put("t_us", Value::UInt(*t_us));
            }
            Event::Warn { message, t_us } => {
                put("type", Value::String("warn".into()));
                put("message", Value::String(message.clone()));
                put("t_us", Value::UInt(*t_us));
            }
            Event::Record { name, t_us, fields } => {
                put("type", Value::String("record".into()));
                put("name", Value::String(name.clone()));
                put("t_us", Value::UInt(*t_us));
                for (k, v) in fields {
                    pairs.push((k.clone(), v.clone()));
                }
            }
        }
        Value::Object(pairs)
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let pairs = value.as_object().ok_or("event is not a JSON object")?;
        let get = |key: &str| -> Result<&Value, String> {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            match get(key)? {
                Value::String(s) => Ok(s.clone()),
                other => Err(format!(
                    "field `{key}`: expected string, got {}",
                    other.kind()
                )),
            }
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            match get(key)? {
                Value::UInt(u) => Ok(*u),
                Value::Int(i) if *i >= 0 => Ok(*i as u64),
                other => Err(format!(
                    "field `{key}`: expected unsigned integer, got {}",
                    other.kind()
                )),
            }
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            match get(key)? {
                Value::Float(f) => Ok(*f),
                Value::Int(i) => Ok(*i as f64),
                Value::UInt(u) => Ok(*u as f64),
                other => Err(format!(
                    "field `{key}`: expected number, got {}",
                    other.kind()
                )),
            }
        };
        // absent on spans written before labels existed (and on unlabeled
        // spans), so failure to find the key is not an error
        let get_label = || -> Result<Option<String>, String> {
            match pairs.iter().find(|(k, _)| k == "label").map(|(_, v)| v) {
                None => Ok(None),
                Some(Value::String(s)) => Ok(Some(s.clone())),
                Some(other) => Err(format!(
                    "field `label`: expected string, got {}",
                    other.kind()
                )),
            }
        };
        // absent on spans written before thread lanes existed; 0 keeps
        // old captures loadable (exporters fold lane 0 into one lane)
        let get_tid = || -> Result<u64, String> {
            match pairs.iter().find(|(k, _)| k == "tid") {
                None => Ok(0),
                Some(_) => get_u64("tid"),
            }
        };
        let kind = get_str("type")?;
        Ok(match kind.as_str() {
            "span_start" => Event::SpanStart {
                id: get_u64("id")?,
                parent: get_u64("parent")?,
                name: get_str("name")?,
                label: get_label()?,
                tid: get_tid()?,
                t_us: get_u64("t_us")?,
            },
            "span_end" => Event::SpanEnd {
                id: get_u64("id")?,
                parent: get_u64("parent")?,
                name: get_str("name")?,
                label: get_label()?,
                tid: get_tid()?,
                t_us: get_u64("t_us")?,
                dur_us: get_u64("dur_us")?,
            },
            "counter" => Event::Counter {
                name: get_str("name")?,
                value: get_u64("value")?,
                t_us: get_u64("t_us")?,
            },
            "gauge" => Event::Gauge {
                name: get_str("name")?,
                value: get_f64("value")?,
                t_us: get_u64("t_us")?,
            },
            "hist" => {
                let bounds = match get("bounds")? {
                    Value::Array(items) => items
                        .iter()
                        .map(|v| match v {
                            Value::Float(f) => Ok(*f),
                            Value::Int(i) => Ok(*i as f64),
                            Value::UInt(u) => Ok(*u as f64),
                            other => Err(format!("bucket bound: {}", other.kind())),
                        })
                        .collect::<Result<Vec<f64>, String>>()?,
                    other => return Err(format!("field `bounds`: {}", other.kind())),
                };
                let counts = match get("counts")? {
                    Value::Array(items) => items
                        .iter()
                        .map(|v| match v {
                            Value::UInt(u) => Ok(*u),
                            Value::Int(i) if *i >= 0 => Ok(*i as u64),
                            other => Err(format!("bucket count: {}", other.kind())),
                        })
                        .collect::<Result<Vec<u64>, String>>()?,
                    other => return Err(format!("field `counts`: {}", other.kind())),
                };
                Event::Hist {
                    name: get_str("name")?,
                    count: get_u64("count")?,
                    sum: get_f64("sum")?,
                    bounds,
                    counts,
                    t_us: get_u64("t_us")?,
                }
            }
            "warn" => Event::Warn {
                message: get_str("message")?,
                t_us: get_u64("t_us")?,
            },
            "record" => Event::Record {
                name: get_str("name")?,
                t_us: get_u64("t_us")?,
                fields: pairs
                    .iter()
                    .filter(|(k, _)| k != "type" && k != "name" && k != "t_us")
                    .cloned()
                    .collect(),
            },
            other => return Err(format!("unknown event type `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_events_round_trip() {
        let start = Event::SpanStart {
            id: 7,
            parent: 3,
            name: "search.moea".into(),
            label: None,
            tid: 1,
            t_us: 120,
        };
        let end = Event::SpanEnd {
            id: 7,
            parent: 3,
            name: "search.moea".into(),
            label: None,
            tid: 1,
            t_us: 950,
            dur_us: 830,
        };
        for ev in [start, end] {
            let json = ev.to_json();
            assert!(!json.contains("label"), "unlabeled span leaks the key");
            assert_eq!(Event::from_json(&json).unwrap(), ev);
        }
    }

    #[test]
    fn labeled_span_events_round_trip() {
        let start = Event::SpanStart {
            id: 9,
            parent: 0,
            name: "infer.frozen".into(),
            label: Some("int8".into()),
            tid: 4,
            t_us: 5,
        };
        let end = Event::SpanEnd {
            id: 9,
            parent: 0,
            name: "infer.frozen".into(),
            label: Some("int8".into()),
            tid: 4,
            t_us: 55,
            dur_us: 50,
        };
        for ev in [start, end] {
            let json = ev.to_json();
            assert!(json.contains("\"label\":\"int8\""));
            assert!(json.contains("\"tid\":4"));
            assert_eq!(Event::from_json(&json).unwrap(), ev);
        }
    }

    #[test]
    fn pre_tracing_span_events_parse_with_lane_zero() {
        // captures written before thread lanes existed carry no `tid`
        let ev = Event::from_json(
            "{\"type\":\"span_end\",\"id\":2,\"parent\":1,\
             \"name\":\"train.loop\",\"t_us\":80,\"dur_us\":70}",
        )
        .unwrap();
        assert_eq!(
            ev,
            Event::SpanEnd {
                id: 2,
                parent: 1,
                name: "train.loop".into(),
                label: None,
                tid: 0,
                t_us: 80,
                dur_us: 70,
            }
        );
    }

    #[test]
    fn record_keeps_field_order_and_values() {
        let ev = Event::Record {
            name: "train.epoch".into(),
            t_us: 42,
            fields: vec![
                ("epoch".into(), Value::UInt(3)),
                ("loss".into(), Value::Float(0.125)),
                ("note".into(), Value::String("tie \"quoted\"".into())),
            ],
        };
        assert_eq!(Event::from_json(&ev.to_json()).unwrap(), ev);
    }

    #[test]
    fn unknown_type_is_rejected() {
        assert!(Event::from_json("{\"type\":\"nope\",\"t_us\":0}").is_err());
        assert!(Event::from_json("[1,2]").is_err());
        assert!(Event::from_json("{\"t_us\":0}").is_err());
    }
}
