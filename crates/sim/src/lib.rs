//! Architectural simulator substrate for the PREM compiler reproduction —
//! the gem5 stand-in (§6.1).
//!
//! Three pieces:
//!
//! * [`GroundTruthCpu`] / [`SimCost`] — deterministic execution timing with a
//!   super-linear component, driving the paper's *measure → constrained
//!   least-squares fit* workflow for the analytic execution model;
//! * [`simulate`] — timed discrete-event simulation of the PREM machine
//!   (cores, dual-partition SPMs, skipping round-robin DMA), validating the
//!   analytic makespan model within the paper's 5 % bound;
//! * [`run_app_prem`] — functional execution of the *transformed* program on
//!   concrete data through SPM buffers, proving transformation legality
//!   end-to-end against the plain interpreter.

#![warn(missing_docs)]

pub mod funcsim;
pub mod groundtruth;
pub mod machine;
pub mod trace;

pub use funcsim::{run_app_prem, FuncSimError, FuncStats, PlannedComponent};
pub use groundtruth::{GroundTruthCpu, SimCost};
pub use machine::{simulate, PhaseKind, SimReport, TraceEvent};
pub use trace::{merged_chrome, render_gantt, trace_to_chrome};
