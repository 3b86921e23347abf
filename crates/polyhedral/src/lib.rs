//! Polyhedral substrate for the PREM nested-loop compiler.
//!
//! This crate is the reproduction's replacement for the isl/pet/PPCG stack
//! used by *"Optimizing parallel PREM compilation over nested loop
//! structures"* (Gu & Pellizzoni, DAC 2022). It implements exactly the slice
//! of polyhedral machinery the paper's restricted program class needs
//! (§3.2: constant-bound, uniform-stride loop nests with affine accesses and
//! affine guards):
//!
//! * [`AffExpr`] — affine expressions over normalized loop counters, with
//!   exact bound analysis over rectangular domains;
//! * [`StmtPoly`] — per-statement domains, guards, textual positions and
//!   access relations;
//! * [`analyze_dependences`] — dependence analysis producing
//!   lexicographically decomposed distance boxes ([`Dependence`]);
//! * [`legality`] — parallelization and rectangular-tiling legality checks
//!   (§5.2.1);
//! * [`access_hull`] — rectangular hulls of accessed regions, the *canonical
//!   data element ranges* of §5.3.1.
//!
//! # Example
//!
//! ```
//! use prem_polyhedral::{
//!     analyze_dependences, is_level_parallel, AccessInfo, AffExpr, LoopInfo, StmtPoly,
//! };
//!
//! // for i { for j { c[i] = c[i] + a[i][j] * b[j]; } }
//! let stmt = StmtPoly {
//!     id: 0,
//!     loops: vec![LoopInfo::new(0, 100), LoopInfo::new(1, 100)],
//!     guards: vec![],
//!     position: vec![0, 0, 0],
//!     accesses: vec![
//!         AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
//!         AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
//!         AccessInfo::read(1, vec![AffExpr::var(0, 2), AffExpr::var(1, 2)]),
//!         AccessInfo::read(2, vec![AffExpr::var(1, 2)]),
//!     ],
//! };
//! let deps = analyze_dependences(std::slice::from_ref(&stmt));
//! assert!(is_level_parallel(deps.iter(), 0)); // i is parallel
//! assert!(!is_level_parallel(deps.iter(), 1)); // j carries the reduction
//! ```

#![warn(missing_docs)]

pub mod affine;
pub mod dependence;
pub mod domain;
pub mod hull;
pub mod interval;
pub mod legality;

pub use affine::{AffExpr, RemapError};
pub use dependence::{
    analyze_dependences, analyze_dependences_with, classify_reductions, dependences_between, Carry,
    DepKind, Dependence, ReduceOp, ReductionHints,
};
pub use domain::{AccessInfo, CmpKind, Guard, LoopInfo, StmtPoly};
pub use hull::{access_hull, ranges_overlap, shape, union_hull, volume};
pub use interval::{div_ceil, div_floor, mod_floor, Interval};
pub use legality::{
    can_be_lex_negative, is_active_within, is_level_parallel, is_level_parallel_with_reductions,
    tilable_prefix, verify_tiling, TilingViolation,
};
