//! # homme — the CAM-SE spectral-element dynamical core
//!
//! A from-scratch Rust implementation of the HOMME/CAM-SE hydrostatic
//! primitive-equation dynamical core, structured around the exact kernels
//! the paper's Table 1 names:
//!
//! * [`rhs`] — `compute_and_apply_rhs` (vector-invariant RHS with the
//!   pressure/geopotential/omega column scans).
//! * [`euler`] — `euler_step` (SSP-RK2 tracer advection + limiter).
//! * [`remap`] — `vertical_remap` (monotone PPM back to reference levels).
//! * [`hypervis`] — `hypervis_dp1` / `hypervis_dp2` / `biharmonic_dp3d`.
//! * [`dss`] / [`bndry`] — Direct Stiffness Summation, serial and
//!   distributed; the distributed path implements both HOMME's original
//!   pack/unpack `bndry_exchangev` and the paper's redesigned overlapped,
//!   copy-free version (Section 7.6).
//! * [`prim`] — the `prim_run` driver: 5-stage Kinnmark–Gray RK dynamics,
//!   subcycled hyperviscosity, tracer advection, vertical remap. All state
//!   lives in the flat SoA arena of [`state`], all temporaries in the
//!   persistent [`workspace`], and per-element loops run across host
//!   cores on the [`sched`] worker pool. There is one stage loop; the
//!   kernel set ([`KernelPath`]) only picks each sweep's element kernels.
//!   The scalar set is the step's one equivalence oracle: the default
//!   blocked kernels must match it bitwise, and both must hit the seed
//!   driver's trajectory hashes pinned in `tests/state_arena.rs`.
//! * [`kernels`] — the four implementation variants of every Table-1
//!   kernel: Reference ("Intel"), MPE, OpenACC, and the Athread redesign
//!   with register-communication scans and shuffle transposition
//!   (Sections 7.3–7.5), all verified to produce identical answers.
//!
//! Raw-pointer code lives in [`sched`] alone: the pool's job publication
//! and the one function that cuts a sweep's element windows (its module
//! doc carries the argument), plus the gather sweep's unchecked source
//! read in [`prim`].

#![deny(unsafe_code)]

pub mod bndry;
pub mod deriv;
pub mod diagnostics;
pub mod dist;
pub mod dss;
pub mod euler;
pub mod health;
pub mod hypervis;
pub mod kernels;
pub mod prim;
pub mod remap;
pub mod rhs;
#[allow(unsafe_code)]
pub mod sched;
pub mod state;
pub mod vert;
pub mod workspace;

pub use bndry::{CopyStats, ExchangeBuffers, ExchangeMode, ExchangePlan};
pub use deriv::{build_ops, ElemOps};
pub use diagnostics::{budgets, Budgets};
pub use dist::{DistDycore, DistError, EPOCH_SHIFT};
pub use dss::Dss;
pub use health::{DegradePolicy, HealthConfig, HealthError, PhysicsFault, StepHealth, TRACER_STAGE};
pub use hypervis::{
    laplacian_lambda_max, ElemHypervisPlan, HypervisConfig, HypervisError, HypervisStability,
    MIN_GLL_GAP_METERS,
};
pub use kernels::blocked::{BlockedOps, KernelPath, StageCombine};
pub use prim::{Dycore, DycoreConfig, KG5_COEFFS};
pub use remap::{ElemRemapPlan, RemapApplyScratch, RemapError};
pub use rhs::{ElemTend, Rhs, RhsScratch};
pub use sched::ElemScheduler;
pub use state::{Dims, ElemMut, ElemRef, State};
pub use vert::VertCoord;
pub use workspace::{EnsembleWorkspace, MemberKernelPath, StepWorkspace};
