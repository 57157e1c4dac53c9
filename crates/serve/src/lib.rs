//! **Surrogate-as-a-service**: a dependency-free prediction server that
//! puts the frozen HW-PR-NAS engine behind a long-running TCP endpoint.
//!
//! The single-process frozen path is fast (PRs 4–7), and its profile says
//! the remaining per-sweep cost is staging + small-GEMM dispatch — so the
//! serving layer's job is to **batch across requests** before entering
//! the engine. The pieces:
//!
//! - [`protocol`] — a versioned length-prefixed binary protocol over TCP
//!   (`predict_scores` / `predict_objectives` batches keyed by model
//!   name, plus model listing);
//! - [`registry`] — a model registry holding `Arc`-shared frozen engines
//!   with atomic hot-swap when a retrained model is published or
//!   persisted (in-flight batches finish on the old `Arc`; the hot path
//!   never takes the registry lock);
//! - [`queue`] — a **work-conserving** admission queue: a free worker
//!   takes every queued request for the same (model, platform, kind), up
//!   to `max_batch` rows, into one batched SoA forward and
//!   never waits for more, so batches grow with the load and a lone
//!   request pays no coalescing delay; a request of the other kind for
//!   an identical row list rides the same forward at no extra row cost;
//! - [`server`] / [`client`] — the blocking TCP acceptor/worker runtime
//!   (buffered connection readers that admit every complete pipelined
//!   frame as one group) and a pipelining-capable client.
//!
//! Worker loops own pooled [`hwpr_core::InferArena`]s and recycle every
//! request buffer, so the warm serving loop performs zero heap
//! allocations (pinned by the `alloc-count` harness in `hwpr-bench`).
//! Telemetry follows the workspace conventions: `serve.request` /
//! `serve.batch` spans under one `serve.server` trace, latency
//! histograms, queue-depth/in-flight gauges and coalesce counters, all
//! rendered by `hwpr-report`.

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod protocol;
pub mod queue;
pub mod registry;
pub(crate) mod telemetry;

mod server;

pub use client::ServeClient;
pub use config::ServeConfig;
pub use protocol::PredictKind;
pub use queue::{BatchQueue, Pending, ReplySink, WorkerState};
pub use registry::{ModelRegistry, ServedModel};
pub use server::Server;

use std::error::Error;
use std::fmt;
use std::io;

/// Error produced by the serving client and server plumbing.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(io::Error),
    /// A [`ServeConfig`] the server cannot run with.
    Config(String),
    /// A frame violated the wire protocol.
    Protocol(String),
    /// The server shed the request (queue full or request timeout).
    Overloaded,
    /// The server reported a request-level error (unknown model,
    /// unknown platform, malformed batch).
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Protocol(msg) => write!(f, "serve protocol error: {msg}"),
            ServeError::Overloaded => write!(f, "server overloaded: request shed"),
            ServeError::Remote(msg) => write!(f, "server rejected request: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Convenience alias for fallible serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = ServeError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(Error::source(&e).is_some());
        assert!(ServeError::Overloaded.to_string().contains("overloaded"));
        assert!(ServeError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
        assert!(Error::source(&ServeError::Remote("x".into())).is_none());
    }
}
