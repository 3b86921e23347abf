//! Observability layer for the PREM compiler reproduction.
//!
//! The hermetic-build rule of this repository (the tier-1 verify must pass
//! with the crates.io index unreachable) means no `serde`, no `serde_json`,
//! no tracing framework: everything here is hand-rolled on `std` alone.
//!
//! Four pieces:
//!
//! * [`json`] — a small ordered JSON value model with a writer and a strict
//!   parser, the substrate for every other module;
//! * [`chrome`] — a builder for Chrome Trace Format JSON (the
//!   `traceEvents` array Perfetto and `chrome://tracing` ingest), used to
//!   export simulated PREM timelines and compile-pipeline phase timings;
//! * [`telemetry`] — structured optimizer search telemetry: one
//!   [`SearchCounters`] record summed at every level of the search, plus
//!   per-sweep best-makespan convergence curves;
//! * [`report`] — machine-readable run reports the bench binaries write
//!   under `results/`, plus [`phase::PhaseTimings`] for wall-clock per
//!   compile-pipeline phase;
//! * [`env`] — centralized parsing of the `PREM_*` environment overrides,
//!   warning loudly on invalid values instead of silently ignoring them.

#![warn(missing_docs)]

pub mod chrome;
pub mod env;
pub mod json;
pub mod phase;
pub mod report;
pub mod telemetry;

pub use chrome::{ChromeTrace, TraceSpan};
pub use env::{env_flag, env_u64};
pub use json::{Json, JsonError};
pub use phase::{PhaseTimings, Stopwatch};
pub use report::RunReport;
pub use telemetry::{AssignmentTelemetry, SearchCounters, SearchTelemetry};
