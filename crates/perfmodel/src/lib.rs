//! # perfmodel — machine + scaling model for the paper's evaluation
//!
//! Regenerates the quantitative side of the paper's Section 8: Table 1
//! (kernel timings), Figure 5 (kernel speedups), Figure 6 (whole-model
//! SYPD), Figures 7/8 (strong/weak scaling to 10M cores), and Table 3
//! (NGGPS comparison). Kernel unit costs are *measured* on the simulated
//! SW26010 ([`machine::Calibration`]); full-machine numbers compose those
//! measurements with analytic workload sizes and the two-level TaihuLight
//! network model. Two documented calibration constants anchor absolute
//! scales (the skeleton-to-full-CAM work factor and the per-round jitter
//! coefficient); every *shape* claim is model-derived.

#![forbid(unsafe_code)]

pub mod machine;
pub mod nggps;
pub mod report;
pub mod scaling;
pub mod stepmodel;
pub mod sypd;

pub use machine::{Calibration, Machine};
pub use nggps::{homme_runtime, NggpsCase, CASES, NGGPS_QSIZE};
pub use scaling::{figure_model, strong_scaling, weak_scaling, HommeWorkload, ScalePoint};
pub use stepmodel::{RankWork, StepModel};
pub use sypd::{cam_step_seconds, sypd, CamRun, AMDAHL_SERIAL, CAM_WORK_FACTOR, DAYS_PER_YEAR};
