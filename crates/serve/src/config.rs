//! Server tuning knobs and their `HWPR_SERVE_*` environment overrides.
//!
//! A batch's size follows the load, capped by `max_batch`: the
//! admission queue is work-conserving (see [`crate::queue`]).
//!
//! Every variable follows the workspace warn-and-default policy
//! (`hwpr_obs::env_or_else`): junk values warn through the telemetry
//! sink and fall back — a typo must never silently change serving
//! behaviour, and must never kill the server either.

use std::time::Duration;

/// `HWPR_SERVE_MAX_BATCH`: most rows one coalesced forward takes from
/// the queue (twins ride on top).
pub const MAX_BATCH_ENV: &str = "HWPR_SERVE_MAX_BATCH";
/// `HWPR_SERVE_WORKERS`: prediction worker threads (`0` = one per
/// available core).
pub const WORKERS_ENV: &str = "HWPR_SERVE_WORKERS";
/// `HWPR_SERVE_QUEUE_CAP`: admission-queue capacity in requests; pushes
/// beyond it are shed with an `Overloaded` response.
pub const QUEUE_CAP_ENV: &str = "HWPR_SERVE_QUEUE_CAP";

/// Default coalesce target. Matches the frozen engine's sweet spot: PR 6
/// measured batch 64 at ~4.9x the per-architecture throughput of batch 1.
pub const DEFAULT_MAX_BATCH: usize = 64;
/// Default worker-thread count. On a 2-vCPU host, one worker per core
/// served the benchmark's search and open-loop traffic no faster.
pub const DEFAULT_WORKERS: usize = 1;
/// Default admission-queue capacity.
pub const DEFAULT_QUEUE_CAP: usize = 1024;
/// Hard ceiling on the worker count, mirroring the island-count cap.
const MAX_WORKERS: usize = 256;

/// Runtime configuration for a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Coalesce target: a free worker takes at most this many rows for
    /// one (model, platform, kind) key from what is already queued.
    pub max_batch: usize,
    /// Prediction worker threads (`0` = one per available core).
    pub workers: usize,
    /// Admission-queue capacity (requests) before shedding.
    pub queue_cap: usize,
    /// Requests older than this are shed with `Overloaded` instead of
    /// being served stale results late.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: DEFAULT_MAX_BATCH,
            workers: DEFAULT_WORKERS,
            queue_cap: DEFAULT_QUEUE_CAP,
            request_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// Applies any set `HWPR_SERVE_*` environment overrides
    /// (warn-and-default on junk, like every other `HWPR_*` knob).
    pub fn with_env_overrides(mut self) -> Self {
        if std::env::var(MAX_BATCH_ENV).is_ok() {
            self.max_batch = max_batch();
        }
        if std::env::var(WORKERS_ENV).is_ok() {
            self.workers = worker_override();
        }
        if std::env::var(QUEUE_CAP_ENV).is_ok() {
            self.queue_cap = queue_cap();
        }
        self
    }

    /// The defaults with every environment override applied.
    pub fn from_env() -> Self {
        Self::default().with_env_overrides()
    }

    /// The concrete worker-thread count (`workers`, resolving `0` to the
    /// machine's available parallelism).
    pub fn worker_count(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_WORKERS)
        } else {
            self.workers
        }
    }
}

/// Coalesce target: `HWPR_SERVE_MAX_BATCH` when set to a positive
/// integer, otherwise [`DEFAULT_MAX_BATCH`] (also the junk fallback,
/// with a warning).
pub fn max_batch() -> usize {
    hwpr_obs::env_or_else(
        MAX_BATCH_ENV,
        "a positive integer",
        parse_positive,
        || DEFAULT_MAX_BATCH,
        DEFAULT_MAX_BATCH,
    )
}

/// Worker threads: `HWPR_SERVE_WORKERS` when set to an integer in
/// `0..=256` (`0` = one per core), otherwise [`DEFAULT_WORKERS`].
pub fn worker_override() -> usize {
    hwpr_obs::env_or_else(
        WORKERS_ENV,
        "an integer in 0..=256 (0 = one per core)",
        parse_workers,
        || DEFAULT_WORKERS,
        DEFAULT_WORKERS,
    )
}

/// Queue capacity: `HWPR_SERVE_QUEUE_CAP` when set to a positive
/// integer, otherwise [`DEFAULT_QUEUE_CAP`].
pub fn queue_cap() -> usize {
    hwpr_obs::env_or_else(
        QUEUE_CAP_ENV,
        "a positive integer",
        parse_positive,
        || DEFAULT_QUEUE_CAP,
        DEFAULT_QUEUE_CAP,
    )
}

fn parse_positive(spec: &str) -> Option<usize> {
    spec.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

fn parse_workers(spec: &str) -> Option<usize> {
    spec.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n <= MAX_WORKERS)
}

/// Spec-level parsers for the warn-and-default tests (no env mutation).
#[cfg(test)]
pub(crate) mod spec {
    pub(crate) fn max_batch(spec: &str) -> usize {
        hwpr_obs::spec_or(
            super::MAX_BATCH_ENV,
            "a positive integer",
            spec,
            super::parse_positive,
            super::DEFAULT_MAX_BATCH,
        )
    }

    pub(crate) fn workers(spec: &str) -> usize {
        hwpr_obs::spec_or(
            super::WORKERS_ENV,
            "an integer in 0..=256 (0 = one per core)",
            spec,
            super::parse_workers,
            super::DEFAULT_WORKERS,
        )
    }

    pub(crate) fn queue_cap(spec: &str) -> usize {
        hwpr_obs::spec_or(
            super::QUEUE_CAP_ENV,
            "a positive integer",
            spec,
            super::parse_positive,
            super::DEFAULT_QUEUE_CAP,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3-variable parse matrix (mirrors the `HWPR_ISLANDS` /
    /// `HWPR_MIGRATION_EVERY` / `HWPR_CHECKPOINT_EVERY` matrix from the
    /// island-search PR): every knob accepts its grammar and
    /// warn-falls-back to its documented default on junk.
    #[test]
    fn serve_env_specs_warn_and_default_on_junk() {
        // HWPR_SERVE_MAX_BATCH: positive integer
        assert_eq!(spec::max_batch("1"), 1);
        assert_eq!(spec::max_batch(" 128 "), 128);
        assert_eq!(spec::max_batch("0"), DEFAULT_MAX_BATCH);
        assert_eq!(spec::max_batch("-8"), DEFAULT_MAX_BATCH);
        assert_eq!(spec::max_batch("lots"), DEFAULT_MAX_BATCH);
        assert_eq!(spec::max_batch(""), DEFAULT_MAX_BATCH);

        // HWPR_SERVE_WORKERS: 0..=256 (0 = auto)
        assert_eq!(spec::workers("0"), 0);
        assert_eq!(spec::workers("4"), 4);
        assert_eq!(spec::workers("256"), 256);
        assert_eq!(spec::workers("257"), DEFAULT_WORKERS);
        assert_eq!(spec::workers("-2"), DEFAULT_WORKERS);
        assert_eq!(spec::workers("many"), DEFAULT_WORKERS);

        // HWPR_SERVE_QUEUE_CAP: positive integer
        assert_eq!(spec::queue_cap("1"), 1);
        assert_eq!(spec::queue_cap("4096"), 4096);
        assert_eq!(spec::queue_cap("0"), DEFAULT_QUEUE_CAP);
        assert_eq!(spec::queue_cap("deep"), DEFAULT_QUEUE_CAP);
    }

    #[test]
    fn worker_count_resolves_auto() {
        let auto = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(auto.worker_count() >= 1);
        let fixed = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(fixed.worker_count(), 3);
    }
}
