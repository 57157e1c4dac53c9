//! Server tuning knobs.
//!
//! A batch's size follows the load, capped by `max_batch`: the
//! admission queue is work-conserving (see [`crate::queue`]). The
//! defaults are the settings the end-to-end benchmark measures.

use std::time::Duration;

/// Default coalesce target. Matches the frozen engine's sweet spot: PR 6
/// measured batch 64 at ~4.9x the per-architecture throughput of batch 1.
pub const DEFAULT_MAX_BATCH: usize = 64;
/// Default worker-thread count. On a 2-vCPU host, one worker per core
/// served the benchmark's search and open-loop traffic no faster.
pub const DEFAULT_WORKERS: usize = 1;
/// Default admission-queue capacity.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Runtime configuration for a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Coalesce target: a free worker takes at most this many rows for
    /// one (model, platform, kind) key from what is already queued.
    pub max_batch: usize,
    /// Prediction worker threads (at least 1).
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
