//! The metric catalogue and the result line every run ends with.
//!
//! Every workload reports every end-to-end metric (the same user-visible
//! quantities, measured on that workload's unit of work) and every
//! per-layer metric; a layer a workload never enters reads 0.
//! `BENCHMARK.json` mirrors both lists — a unit test keeps them in step.

use std::collections::BTreeMap;

/// One catalogued metric: name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// The metrics a user of the system sees, printed by an untraced run.
/// `op` is the workload's unit of work: one search, one request, or one
/// training epoch.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("op_ms_p50", "ms"),
    m("op_ms_p90", "ms"),
    m("quality", "ratio"),
];

/// Spans folded into `trace.self_us.<span>` by a traced run.
pub const TRACED_SPANS: &[&str] = &[
    "search.islands",
    "search.island",
    "search.migration",
    "search.eval",
    "infer.frozen",
    "infer.worker",
    "infer.encode",
    "infer.lstm",
    "infer.gcn",
    "infer.mlp",
    "serve.request",
    "serve.batch",
    "train.loop",
];

/// The per-layer metrics, printed by a traced run (`--trace 1`). Every
/// `trace.*` value is per op unless its name says otherwise; the span
/// self times are listed separately in [`TRACED_SPANS`].
pub const PER_LAYER: &[Metric] = &[
    m("hwmodel.table_ms", "ms"),
    m("core.fit_ms", "ms"),
    m("core.freeze_ms", "ms"),
    m("core.epochs", "count"),
    m("core.epoch_ms", "ms"),
    m("search.eval_calls", "count"),
    m("search.eval_ms", "ms"),
    m("search.eval_share", "ratio"),
    m("search.rows", "count"),
    m("search.surrogate_rows", "count"),
    m("search.cache_hit_ratio", "ratio"),
    m("serve.rtt_us_p50", "us"),
    m("serve.rtt_us_p90", "us"),
    m("serve.rows_per_request", "count"),
    m("serve.goodput_rps", "1/s"),
    m("serve.b1_us_p50", "us"),
    m("serve.b1_us_p99", "us"),
    m("serve.wide_us_p50", "us"),
    m("serve.wide_us_p99", "us"),
    m("loadgen.lag_us_p99", "us"),
    m("trace.tensor.gemm.calls", "count"),
    m("trace.tensor.gemm.flops", "count"),
    m("trace.serve.coalesce_ratio", "ratio"),
    m("trace.serve.batch_rows_mean", "count"),
    m("trace.serve.request_us_mean", "us"),
    m("trace.serve.batch_us_mean", "us"),
    m("trace.serve.wait_us_mean", "us"),
    m("trace.serve.overloaded", "count"),
    m("trace.moo.sort_us", "us"),
    m("trace.overhead_pct", "%"),
    m("trace.orphans", "count"),
];

/// The name of the self-time metric for `span`.
pub fn self_time_metric(span: &str) -> String {
    format!("trace.self_us.{span}")
}

/// Every per-layer metric name with its unit, span self times included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(TRACED_SPANS.iter().map(|s| (self_time_metric(s), "us")))
        .collect()
}

/// Whether `name` obeys the metric-name rule: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one attempted operation (a search, a request, a fit).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Runs one correctness check; a failed check counts as a failed
    /// attempt and makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, for the error report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// All recorded values, for the human-readable report.
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// The result line: end-to-end metrics for an untraced run, per-layer
    /// metrics for a traced one. A per-layer metric nobody set belongs to
    /// a layer this workload does not enter and reads 0; a missing or
    /// non-finite end-to-end value fails the run.
    pub fn result_line(&mut self, traced: bool) -> String {
        let listed: Vec<(String, &'static str)> = if traced {
            per_layer_metrics()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        };
        let mut metrics = Vec::with_capacity(listed.len());
        for (name, unit) in listed {
            debug_assert!(valid_name(&name), "{name}");
            let value = match self.values.get(&name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.check(format!("{name} is finite"), false);
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.check(format!("{name} was measured"), false);
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("search.eval_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("bad/name"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer_metrics().into_iter().map(|(n, _)| n));
        for name in all {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let end_to_end =
            &spec[spec.find("\"end_to_end\"").unwrap()..spec.find("\"per_layer\"").unwrap()];
        let per_layer = &spec[spec.find("\"per_layer\"").unwrap()..];
        for m in END_TO_END {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(end_to_end.contains(&entry), "{entry} missing");
        }
        for (name, unit) in per_layer_metrics() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} missing");
        }
        let listed = |s: &str| s.matches("\"name\":").count();
        assert_eq!(listed(end_to_end), END_TO_END.len());
        assert_eq!(listed(per_layer), per_layer_metrics().len());
    }

    #[test]
    fn result_line_lists_exactly_the_catalogue() {
        let mut outcome = Outcome::default();
        for m in END_TO_END {
            outcome.set(m.name, 1.5);
        }
        outcome.op(true);
        let line = outcome.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = outcome.result_line(true);
        assert_eq!(
            traced.matches("\"unit\"").count(),
            per_layer_metrics().len()
        );

        let mut missing = Outcome::default();
        missing.result_line(false);
        assert!(!missing.correct());
    }
}
