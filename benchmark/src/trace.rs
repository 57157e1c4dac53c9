//! The traced run: an in-memory capture of the spans the crates already
//! emit, folded into per-op self times, plus registry counter deltas.

use crate::report::{self_time_metric, Outcome, TRACED_SPANS};
use hwpr_obs::metrics::{registry, Snapshot};
use hwpr_obs::sink::MemorySink;
use hwpr_obs::Event;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A live capture; telemetry is on until [`Capture::finish`].
pub struct Capture {
    sink: Arc<MemorySink>,
    before: Snapshot,
}

/// Turns telemetry on with an in-memory sink.
pub fn start() -> Capture {
    let before = registry().snapshot();
    let sink = Arc::new(MemorySink::new());
    hwpr_obs::install(Arc::clone(&sink) as Arc<dyn hwpr_obs::Recorder>);
    Capture { sink, before }
}

/// What a capture recorded.
pub struct Folded {
    /// Self time per span name (labels folded together), µs.
    self_us: BTreeMap<String, u64>,
    orphans: usize,
    /// Counter increments during the capture.
    counters: BTreeMap<String, u64>,
    /// Histogram `(count, sum)` increments during the capture.
    hists: BTreeMap<String, (u64, f64)>,
}

impl Capture {
    /// Turns telemetry off and folds the capture.
    pub fn finish(self) -> Folded {
        hwpr_obs::shutdown();
        let after = registry().snapshot();
        let events = self.sink.events();
        let mut self_us = BTreeMap::new();
        for line in hwpr_obs::trace::folded_stacks(&events).lines() {
            let Some((stack, us)) = line.rsplit_once(' ') else {
                continue;
            };
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            let name = leaf.split('[').next().unwrap_or(leaf);
            *self_us.entry(name.to_string()).or_default() += us.parse::<u64>().unwrap_or(0);
        }
        Folded {
            self_us,
            orphans: hwpr_obs::trace::stats(&events).orphans,
            counters: counter_deltas(&self.before, &after),
            hists: hist_deltas(&self.before, &after),
        }
    }
}

fn counter_deltas(before: &Snapshot, after: &Snapshot) -> BTreeMap<String, u64> {
    let old: BTreeMap<&str, u64> = before
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    after
        .counters
        .iter()
        .map(|(n, v)| {
            let base = old.get(n.as_str()).copied().unwrap_or(0);
            (n.clone(), v.saturating_sub(base))
        })
        .collect()
}

fn hist_totals(snapshot: &Snapshot) -> BTreeMap<String, (u64, f64)> {
    let mut totals: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for event in &snapshot.histograms {
        if let Event::Hist {
            name, count, sum, ..
        } = event
        {
            let t = totals.entry(name.clone()).or_default();
            t.0 += count;
            t.1 += sum;
        }
    }
    totals
}

fn hist_deltas(before: &Snapshot, after: &Snapshot) -> BTreeMap<String, (u64, f64)> {
    let old = hist_totals(before);
    hist_totals(after)
        .into_iter()
        .map(|(name, (count, sum))| {
            let (c0, s0) = old.get(&name).copied().unwrap_or_default();
            (name, (count.saturating_sub(c0), sum - s0))
        })
        .collect()
}

impl Folded {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean of a histogram over the capture, when it observed anything.
    fn hist_mean(&self, name: &str) -> Option<f64> {
        self.hists
            .get(name)
            .filter(|(count, _)| *count > 0)
            .map(|(count, sum)| sum / *count as f64)
    }

    /// Records the traced per-layer metrics, normalised per op (`ops`
    /// units of work ran under the capture).
    pub fn record(&self, outcome: &mut Outcome, ops: f64) {
        for span in TRACED_SPANS {
            let us = self.self_us.get(*span).copied().unwrap_or(0);
            outcome.set(&self_time_metric(span), us as f64 / ops);
        }
        // static-shape GEMMs bypass the driver's call counter but are
        // counted separately; both are GEMM calls
        let calls = self.counter("tensor.gemm.calls") + self.counter("tensor.gemm.static_calls");
        outcome.set("trace.tensor.gemm.calls", calls as f64 / ops);
        outcome.set(
            "trace.tensor.gemm.flops",
            self.counter("tensor.gemm.flops") as f64 / ops,
        );
        let batches = self.counter("serve.batches");
        if batches > 0 {
            outcome.set(
                "trace.serve.coalesce_ratio",
                self.counter("serve.requests") as f64 / batches as f64,
            );
        }
        let request_us = self.hist_mean("serve.request.us");
        let batch_us = self.hist_mean("serve.batch.us");
        if let Some(rows) = self.hist_mean("serve.batch.rows") {
            outcome.set("trace.serve.batch_rows_mean", rows);
        }
        if let (Some(request), Some(batch)) = (request_us, batch_us) {
            outcome.set("trace.serve.request_us_mean", request);
            outcome.set("trace.serve.batch_us_mean", batch);
            outcome.set("trace.serve.wait_us_mean", request - batch);
        }
        outcome.set(
            "trace.serve.overloaded",
            self.counter("serve.overloaded") as f64 / ops,
        );
        // the workspace times every sort while telemetry is on; the sum
        // is the layer's busy time
        let sort_us = self.hists.get("moo.sort.us").map_or(0.0, |&(_, sum)| sum);
        outcome.set("trace.moo.sort_us", sort_us / ops);
        outcome.set("trace.orphans", self.orphans as f64);
    }
}

/// `trace.overhead_pct`: how much slower the median op ran traced than
/// untraced.
pub fn record_overhead(outcome: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    let ratio = crate::stats::median(traced) / crate::stats::median(untraced);
    outcome.set("trace.overhead_pct", (ratio - 1.0) * 100.0);
}
