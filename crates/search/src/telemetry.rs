//! Search telemetry: evaluator latency and per-generation MOEA records.
//!
//! Everything here is gated on [`hwpr_obs::enabled`] before any clock
//! read, front sort or hypervolume computation, so a search with
//! telemetry off pays one relaxed atomic load per generation.

use crate::evaluator::SharedObjectives;
use hwpr_moo::{nadir_reference_point, IncrementalHv2, MooWorkspace};
use hwpr_obs::metrics::{registry, Histogram};
use hwpr_obs::Value;
use std::time::Instant;

/// Times one [`crate::Evaluator::evaluate`] call into the
/// `search.eval_ms` histogram. Inert when telemetry is off.
pub(crate) struct EvalTimer {
    start: Option<Instant>,
}

/// Starts an evaluation timer (a no-op timer with telemetry off).
pub(crate) fn eval_timer() -> EvalTimer {
    EvalTimer {
        start: hwpr_obs::enabled().then(Instant::now),
    }
}

impl EvalTimer {
    /// Stops the timer, recording the latency; returns the elapsed
    /// milliseconds for inclusion in the generation record.
    pub(crate) fn finish(self) -> Option<f64> {
        let start = self.start?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        registry()
            .histogram(
                "search.eval_ms",
                &Histogram::exponential_bounds(0.1, 4.0, 12),
            )
            .observe(ms);
        Some(ms)
    }
}

/// Times one island generation into the `search.island.gen.us`
/// histogram (microsecond buckets — island generations are much shorter
/// than whole evaluator batches). Inert when telemetry is off.
pub(crate) struct IslandGenTimer {
    start: Option<Instant>,
}

/// Starts an island-generation timer (a no-op with telemetry off).
pub(crate) fn island_gen_timer() -> IslandGenTimer {
    IslandGenTimer {
        start: hwpr_obs::enabled().then(Instant::now),
    }
}

impl IslandGenTimer {
    /// Stops the timer, recording the latency in microseconds.
    pub(crate) fn finish(self) {
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_secs_f64() * 1e6;
        registry()
            .histogram(
                "search.island.gen.us",
                &Histogram::exponential_bounds(10.0, 4.0, 12),
            )
            .observe(us);
    }
}

/// Everything one generation record needs, gathered by the MOEA loop.
pub(crate) struct GenerationRecord<'a> {
    /// Generation index (0-based).
    pub generation: usize,
    /// Total evaluator calls so far.
    pub evaluations: usize,
    /// Wall + simulated time consumed so far, in milliseconds.
    pub elapsed_ms: f64,
    /// Latency of this generation's offspring evaluation, when timed.
    pub eval_ms: Option<f64>,
    /// The surviving population's objectives (empty for score-only
    /// fitness).
    pub objectives: &'a [SharedObjectives],
    /// `(hits, misses)` from a cache-backed evaluator.
    pub cache: Option<(u64, u64)>,
    /// Also emit the Pareto-front point set (`search.front`).
    pub snapshot_front: bool,
}

/// Per-run state for generation records: the hypervolume reference point
/// is fixed from the first front seen (coordinate-wise nadir plus a 10 %
/// margin), so per-generation hypervolumes are comparable within a run.
///
/// Two-objective runs (the paper's configuration) keep an
/// [`IncrementalHv2`] archive across generations: when the surviving
/// front matches the archive — the common elitist case — the recorded
/// hypervolume is an O(Δ log N) fold of the new points instead of a full
/// sort + sweep (`moo.hv.incremental` counts the recomputes avoided,
/// `moo.hv.full` the fallbacks).
#[derive(Default)]
pub(crate) struct GenerationTelemetry {
    reference: Option<Vec<f64>>,
    moo: MooWorkspace,
    archive: Option<IncrementalHv2>,
}

impl GenerationTelemetry {
    /// Emits `search.generation` (and optionally `search.front`) for one
    /// completed generation. A no-op with telemetry off.
    pub(crate) fn record(&mut self, rec: GenerationRecord<'_>) {
        if !hwpr_obs::enabled() {
            return;
        }
        let mut front_points: Vec<Vec<f64>> = Vec::new();
        let objs = rec.objectives;
        if !objs.is_empty() {
            if let Ok(front) = self.moo.pareto_front(objs) {
                front_points = front.iter().map(|&i| objs[i].as_ref().clone()).collect();
            }
        }
        let hv = self.hypervolume_of(&front_points);
        hwpr_obs::record_with("search.generation", || {
            let mut fields = vec![
                hwpr_obs::field("gen", rec.generation as u64),
                hwpr_obs::field("evaluations", rec.evaluations as u64),
                hwpr_obs::field("elapsed_ms", rec.elapsed_ms),
            ];
            if let Some(ms) = rec.eval_ms {
                fields.push(hwpr_obs::field("eval_ms", ms));
            }
            if !front_points.is_empty() {
                fields.push(hwpr_obs::field("front_size", front_points.len() as u64));
            }
            if let Some(hv) = hv {
                fields.push(hwpr_obs::field("hypervolume", hv));
            }
            if let Some((hits, misses)) = rec.cache {
                fields.push(hwpr_obs::field("cache_hits", hits));
                fields.push(hwpr_obs::field("cache_misses", misses));
                let total = hits + misses;
                if total > 0 {
                    fields.push(hwpr_obs::field(
                        "cache_hit_rate",
                        hits as f64 / total as f64,
                    ));
                }
            }
            fields
        });
        if rec.snapshot_front && !front_points.is_empty() {
            let points = Value::Array(
                front_points
                    .iter()
                    .map(|p| Value::Array(p.iter().map(|&x| Value::Float(x)).collect()))
                    .collect(),
            );
            hwpr_obs::record_with("search.front", || {
                vec![
                    hwpr_obs::field("gen", rec.generation as u64),
                    ("points".to_string(), points),
                ]
            });
        }
    }

    /// Hypervolume of `front` against the run's fixed reference point.
    /// Points past the reference (worse than the first generation's nadir
    /// plus margin) are clipped out rather than failing the computation.
    fn hypervolume_of(&mut self, front: &[Vec<f64>]) -> Option<f64> {
        if front.is_empty() {
            return None;
        }
        if self.reference.is_none() {
            let spread = front
                .iter()
                .flat_map(|p| p.iter().map(|v| v.abs()))
                .fold(0.0f64, f64::max);
            self.reference = nadir_reference_point(front, 0.1 * spread.max(1e-9)).ok();
        }
        let reference = self.reference.as_ref()?;
        let bounded: Vec<Vec<f64>> = front
            .iter()
            .filter(|p| p.len() == reference.len() && p.iter().zip(reference).all(|(x, r)| x <= r))
            .cloned()
            .collect();
        if bounded.is_empty() {
            return Some(0.0);
        }
        if reference.len() == 2 {
            if self.archive.is_none() {
                self.archive = Some(IncrementalHv2::new(reference).ok()?);
            }
            let archive = self.archive.as_mut().expect("archive just initialised");
            let mut on_archive = true;
            for p in &bounded {
                // bounded points are finite and inside the box: insert
                // cannot fail
                archive.insert(p[0], p[1]).ok()?;
                on_archive &= archive.contains(p[0], p[1]);
            }
            // `bounded` is mutually non-dominated, so its staircase is its
            // distinct points; when the archive front is exactly that set,
            // the archived hypervolume IS the current front's hypervolume
            let distinct = bounded
                .iter()
                .enumerate()
                .filter(|(i, p)| !bounded[..*i].contains(p))
                .count();
            if on_archive && archive.front_len() == distinct {
                registry().counter("moo.hv.incremental").inc();
                return Some(archive.hypervolume());
            }
            // the population front regressed below the archive: rebuild
            // from the current front so the recorded value keeps meaning
            // "hypervolume of this generation's front"
            registry().counter("moo.hv.full").inc();
            return archive.reset_from(&bounded).ok();
        }
        registry().counter("moo.hv.full").inc();
        self.moo.hypervolume(&bounded, reference).ok()
    }
}
