//! `prem` — facade crate for the reproduction of *"Optimizing parallel PREM
//! compilation over nested loop structures"* (Gu & Pellizzoni, DAC 2022).
//!
//! Re-exports the whole workspace:
//!
//! * [`polyhedral`] — affine/dependence analysis substrate (isl substitute);
//! * [`ir`] — loop-nest IR, builder and functional interpreter;
//! * [`frontend`] — C-subset parser (pet substitute);
//! * [`core`] — loop tree, tilable components, streaming PREM schedule,
//!   timing models and the optimization heuristics (the paper's
//!   contribution);
//! * [`codegen`] — PREM-compliant C emission;
//! * [`sim`] — architectural simulator (gem5 substitute) with functional
//!   PREM execution;
//! * [`kernels`] — the PolyBench-NN evaluation kernels;
//! * [`serve`] — the long-lived optimization server (`prem-serve`): JSON
//!   over HTTP with request coalescing and a bounded compute pool.
//!
//! # Quickstart
//!
//! ```
//! use prem::core::{optimize_app, LoopTree, OptimizerOptions, Platform};
//! use prem::sim::SimCost;
//!
//! let program = prem::kernels::CnnConfig::small().build();
//! let tree = LoopTree::build(&program)?;
//! let cost = SimCost::new(&program);
//! let platform = Platform::default().with_spm_bytes(8 * 1024);
//! let out = optimize_app(&tree, &program, &platform, &cost, &OptimizerOptions::default());
//! assert!(out.makespan_ns.is_finite());
//! # Ok::<(), prem::ir::LowerError>(())
//! ```

#![warn(missing_docs)]

pub use prem_codegen as codegen;
pub use prem_core as core;
pub use prem_frontend as frontend;
pub use prem_ir as ir;
pub use prem_kernels as kernels;
pub use prem_obs as obs;
pub use prem_polyhedral as polyhedral;
pub use prem_serve as serve;
pub use prem_sim as sim;
