//! Loop-nest intermediate representation for the PREM compiler.
//!
//! Programs are trees of constant-bound, uniform-stride loops, affine `if`
//! guards and assignment statements with affine array accesses — exactly the
//! SCoP class accepted by the paper (§3.2). The crate provides:
//!
//! * [`ProgramBuilder`] — ergonomic construction of kernels;
//! * [`lower()`](lower::lower) — extraction of polyhedral statement summaries (the *pet*
//!   substitute);
//! * [`run_program`] / [`MemStore`] — a functional interpreter used as the
//!   ground truth when validating PREM transformations.
//!
//! # Example
//!
//! ```
//! use prem_ir::{
//!     lower, run_program, AssignKind, ElemType, Expr, IdxExpr, MemStore, ProgramBuilder,
//! };
//!
//! let mut b = ProgramBuilder::new("scale");
//! let a = b.array("a", vec![8], ElemType::F32);
//! let i = b.begin_loop("i", 0, 1, 8);
//! b.stmt(
//!     a,
//!     vec![IdxExpr::var(i)],
//!     AssignKind::Assign,
//!     Expr::Index(IdxExpr::var(i).scale(2).plus_const(1)),
//! );
//! b.end_loop();
//! let prog = b.finish();
//!
//! let mut store = MemStore::zeroed(&prog);
//! run_program(&prog, &mut store);
//! assert_eq!(store.raw(a)[3], 7.0);
//! assert_eq!(lower(&prog).unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod expr;
pub mod interp;
pub mod lower;
pub mod program;
pub mod types;

pub use expr::{Access, BinOp, CmpOp, Cond, CondAtom, Env, Expr, IdxExpr};
pub use interp::{eval_expr, run_block, run_program, DataStore, InterpStats, MemStore};
pub use lower::{lower, reduction_hints, LowerError};
pub use prem_polyhedral::{ReduceOp, ReductionHints};
pub use program::{
    guarded_span, AssignKind, IfNode, Loop, LoopName, LoopTable, Node, Program, ProgramBuilder,
    Statement,
};
pub use types::{ArrayDecl, ArrayId, ElemType};
