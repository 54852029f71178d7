//! # swacc — the Sunway OpenACC analog
//!
//! The paper's first migration stage refactored all of CAM with a customized
//! OpenACC compiler plus two source-to-source tools (Section 7.2). This
//! crate reproduces that stage as a library:
//!
//! * [`ir`] — a loop-nest abstraction (loops, dependences, array references)
//!   standing in for the Fortran source the real tools parsed.
//! * [`transform`] — the *loop transformation tool*: selects and collapses
//!   the loop levels that feed the 64-CPE cluster.
//! * [`footprint`] — the *memory footprint analysis and reduction tool*:
//!   fits frequently-accessed arrays into the 64 KB LDM, tiling serial loops
//!   (the paper's 32-level blocking) and demoting what cannot fit.
//! * [`exec`] — the directive executor: runs a compiled region on the
//!   [`sw26010`] cluster with the schedule the directive compiler would
//!   emit, including its characteristic inefficiencies (per-iteration
//!   re-transfer of collapse-invariant arrays, scalar-only compute, spawn
//!   overhead per region). Those modeled inefficiencies are what the
//!   Athread redesign of the `homme` crate then removes — reproducing the
//!   paper's Table 1 / Figure 5 gaps.

#![forbid(unsafe_code)]

pub mod exec;
pub mod footprint;
pub mod ir;
pub mod transform;

pub use exec::AccRegion;
pub use footprint::{analyze, ArrayFootprint, FootprintReport, Placement, LDM_RESERVE};
pub use ir::{ArrayRef, Intent, Loop, LoopNest};
pub use transform::{plan, ParallelPlan, PlanError};
