//! The end-to-end benchmark of the HW-PR-NAS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <search_inproc|search_served|serve_open|train> \
//!     --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! The work sent to a fixed system under test (one table, one trained
//! surrogate) is generated from `--seed`. The program is driven only
//! through each crate's public API, at its defaults. The run
//! prints a provenance line, then one JSON result line: the end-to-end
//! metrics untraced, or the per-layer metrics with `--trace 1`. It exits
//! non-zero when a correctness check fails. See README.md.

mod provenance;
mod report;
mod search;
mod serve_open;
mod setup;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

/// Errors that end a run without a result.
pub type Result<T> = std::result::Result<T, String>;

const WORKLOADS: &[&str] = &["search_inproc", "search_served", "serve_open", "train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = provenance::hwpr_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set: these knobs change what is measured",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    println!("{}", provenance::provenance_json(args.seed, &args.workload));
    let outcome = match args.workload.as_str() {
        "search_inproc" => search::run(
            search::Backend::InProcess,
            args.seed,
            args.seconds,
            args.traced,
        ),
        "search_served" => search::run(
            search::Backend::Served,
            args.seed,
            args.seconds,
            args.traced,
        ),
        "serve_open" => serve_open::run(args.seed, args.seconds, args.traced),
        _ => train::run(args.seed, args.seconds, args.traced),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = outcome.result_line(args.traced);
    for (name, value) in outcome.values() {
        eprintln!("{name:<34} {value}");
    }
    for failure in outcome.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
