//! Run-level telemetry wiring: the `HWPR_TELEMETRY` environment variable.
//!
//! | value            | effect                                   |
//! |------------------|------------------------------------------|
//! | unset, `off`, `0`| telemetry disabled (the default)         |
//! | `stderr`         | JSONL events to stderr                   |
//! | `jsonl:PATH`     | JSONL events to the file at `PATH`       |

use crate::sink::JsonlSink;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// The environment variable consulted by [`TelemetrySpec::from_env`].
pub const TELEMETRY_ENV: &str = "HWPR_TELEMETRY";

/// A parsed telemetry destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetrySpec {
    /// Telemetry disabled.
    Off,
    /// JSONL to stderr.
    Stderr,
    /// JSONL to a file.
    Jsonl(PathBuf),
}

impl TelemetrySpec {
    /// Parses a `HWPR_TELEMETRY` value.
    ///
    /// # Errors
    ///
    /// Returns a message for unrecognised specs (including `jsonl:` with
    /// an empty path).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        match spec {
            "" | "off" | "0" | "none" => Ok(Self::Off),
            "stderr" | "jsonl:stderr" => Ok(Self::Stderr),
            _ => match spec.strip_prefix("jsonl:") {
                Some("") => Err("HWPR_TELEMETRY=jsonl: needs a file path".to_string()),
                Some(path) => Ok(Self::Jsonl(PathBuf::from(path))),
                None => Err(format!(
                    "unrecognised HWPR_TELEMETRY value {spec:?} \
                     (expected off | stderr | jsonl:PATH)"
                )),
            },
        }
    }

    /// Reads and parses [`TELEMETRY_ENV`]; unset means [`Self::Off`].
    ///
    /// # Errors
    ///
    /// Propagates [`Self::parse`] errors.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(TELEMETRY_ENV) {
            Ok(value) => Self::parse(&value),
            Err(_) => Ok(Self::Off),
        }
    }

    /// Installs the matching sink as the global recorder and opens the
    /// run record with the `trace.meta` event ([`crate::trace_id`] +
    /// pid). Returns whether telemetry ended up enabled.
    ///
    /// Missing parent directories of a [`Self::Jsonl`] path are created.
    ///
    /// # Errors
    ///
    /// Propagates directory-/file-creation failures for [`Self::Jsonl`].
    /// Prefer [`Self::install_or_warn`] in binaries: telemetry is
    /// best-effort and must not kill the run it observes.
    pub fn install(&self) -> io::Result<bool> {
        match self {
            Self::Off => Ok(false),
            Self::Stderr => {
                crate::install(Arc::new(JsonlSink::to_stderr()));
                crate::emit_run_metadata();
                Ok(true)
            }
            Self::Jsonl(path) => {
                crate::install(Arc::new(JsonlSink::to_file(path)?));
                crate::emit_run_metadata();
                Ok(true)
            }
        }
    }

    /// [`Self::install`], degraded to a stderr warning on failure: an
    /// unwritable `jsonl:PATH` leaves telemetry off and the run alive.
    /// Returns whether telemetry ended up enabled.
    pub fn install_or_warn(&self) -> bool {
        match self.install() {
            Ok(enabled) => enabled,
            Err(err) => {
                eprintln!(
                    "[hwpr warn] could not open telemetry sink ({self:?}): {err}; \
                     telemetry disabled"
                );
                false
            }
        }
    }
}

/// One-call wiring for binaries: parse `HWPR_TELEMETRY` and install the
/// sink. Configuration problems are reported on stderr (never fatal — a
/// bad telemetry spec must not kill an experiment) and leave telemetry
/// off. Returns whether telemetry is enabled.
pub fn init_from_env() -> bool {
    match TelemetrySpec::from_env() {
        Ok(spec) => spec.install_or_warn(),
        Err(err) => {
            eprintln!("[hwpr warn] {err}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_forms() {
        assert_eq!(TelemetrySpec::parse("off").unwrap(), TelemetrySpec::Off);
        assert_eq!(TelemetrySpec::parse("").unwrap(), TelemetrySpec::Off);
        assert_eq!(TelemetrySpec::parse("0").unwrap(), TelemetrySpec::Off);
        assert_eq!(
            TelemetrySpec::parse("stderr").unwrap(),
            TelemetrySpec::Stderr
        );
        assert_eq!(
            TelemetrySpec::parse("jsonl:/tmp/run.jsonl").unwrap(),
            TelemetrySpec::Jsonl(PathBuf::from("/tmp/run.jsonl"))
        );
        assert_eq!(
            TelemetrySpec::parse(" jsonl:run.jsonl ").unwrap(),
            TelemetrySpec::Jsonl(PathBuf::from("run.jsonl"))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TelemetrySpec::parse("jsonl:").is_err());
        assert!(TelemetrySpec::parse("csv:/tmp/x").is_err());
    }
}
