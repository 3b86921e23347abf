//! PREM compiler core: the primary contribution of *"Optimizing parallel
//! PREM compilation over nested loop structures"* (Gu & Pellizzoni,
//! DAC 2022).
//!
//! Given a nested-loop kernel in the [`prem_ir`] representation, this crate:
//!
//! 1. builds the **loop tree** application model with `parallel`/`tilable`
//!    legality flags ([`looptree`], §3.3, §5.2.1);
//! 2. extracts **tilable components** with per-array canonical-range
//!    machinery and buffer attributes ([`component`], §3.4, §5.3);
//! 3. lays out the **parallel streaming PREM schedule** — segments,
//!    `SegmentToSwap`, double-buffered memory batches on a round-robin DMA
//!    ([`tiling`], [`segments`], §3.5);
//! 4. evaluates the schedule's **makespan** through a phase-DAG longest path
//!    ([`schedule`], §4.2) with execution/memory **timing models**
//!    ([`timing`]);
//! 5. searches for the best tile sizes and thread-group assignments with the
//!    paper's **heuristic** (Algorithm 1, [`optimizer`]) composed over the
//!    loop tree (Algorithm 2, [`app`]), alongside the **greedy** baseline
//!    and an **exhaustive** validator.
//!
//! # Example
//!
//! ```
//! use prem_core::{ideal_makespan, optimize_app, AnalyticCost, LoopTree, OptimizerOptions, Platform};
//! use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};
//!
//! // y[i][j] += 2 * x[i][j]
//! let mut b = ProgramBuilder::new("scale");
//! let x = b.array("x", vec![128, 128], ElemType::F32);
//! let y = b.array("y", vec![128, 128], ElemType::F32);
//! let i = b.begin_loop("i", 0, 1, 128);
//! let j = b.begin_loop("j", 0, 1, 128);
//! b.stmt(
//!     y,
//!     vec![IdxExpr::var(i), IdxExpr::var(j)],
//!     AssignKind::AddAssign,
//!     Expr::mul(Expr::load(x, vec![IdxExpr::var(i), IdxExpr::var(j)]), Expr::Const(2.0)),
//! );
//! b.end_loop();
//! b.end_loop();
//! let program = b.finish();
//!
//! let tree = LoopTree::build(&program).unwrap();
//! let cost = AnalyticCost::new(&program);
//! let out = optimize_app(&tree, &program, &Platform::default(), &cost, &OptimizerOptions::default());
//! assert!(out.makespan_ns >= ideal_makespan(&tree, &cost) / 8.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod app;
pub mod component;
pub mod config;
pub mod cost;
pub mod looptree;
pub mod optimizer;
pub mod schedule;
mod scheduler;
pub mod segments;
pub mod tiling;
pub mod timing;

pub use analysis::{
    makespan_lower_bound, CombineXfer, ComponentAnalysis, CoordinateDelta, CoreAnalysis,
    MakespanScratch, SwapEntry,
};
pub use app::{
    greedy_component, ideal_makespan, optimize_app, optimize_app_greedy, optimize_app_timed,
    optimize_app_with_budget, AppOutcome, ComponentReport,
};
pub use component::{
    ArrayUse, BufferAttr, CompLevel, Component, ComponentDep, ComponentFingerprint, OuterTerm,
    StmtWork,
};
pub use config::{ApiCosts, Platform};
pub use cost::{AnalyticCost, CostProvider};
pub use looptree::{LoopTree, LoopTreeNode};
pub use optimizer::{
    default_budget, find_minimum, nondominated_thread_groups, optimize_component,
    optimize_exhaustive, select_tile_sizes, MakespanEvaluator, OptimizeOutcome, OptimizerOptions,
    SearchEngine,
};
pub use schedule::{build_dag, evaluate, PhaseDag, PhaseNode, ScheduleResult};
pub use segments::{
    build_schedule, materialize_schedule, Batch, ComponentSchedule, CorePlan, MemOp,
};
pub use tiling::{Infeasible, Solution, TilePlan, SEGMENT_CAP};
pub use timing::{
    fit_exec_model, transfer_time_from_lines, transfer_time_ns, ExecModel, ExecSample,
    TransferShape,
};
