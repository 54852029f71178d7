//! # swcam-core — the redesigned CAM-SE on (simulated) Sunway, as a library
//!
//! The public facade of the reproduction of *Redesigning CAM-SE for
//! Peta-Scale Climate Modeling Performance and Ultra-High Resolution on
//! Sunway TaihuLight* (SC'17): build a configured model
//! ([`ModelConfig`] -> [`Swcam`]), initialize it analytically, step it, and
//! read diagnostics. The heavy machinery lives in the substrate crates:
//!
//! * [`sw26010`] — the simulated processor (CPE cluster, LDM, DMA,
//!   register communication).
//! * [`swacc`] — the OpenACC-analog refactoring tools and executor.
//! * [`swmpi`] — the in-process rank runtime + TaihuLight network model.
//! * [`cubesphere`] — the spectral-element cubed sphere.
//! * [`homme`] — the dynamical core with Reference/MPE/OpenACC/Athread
//!   kernel variants.
//! * [`swphysics`] — the reduced physics suites.
//!
//! ```
//! use swcam_core::{ModelConfig, SuiteChoice, Swcam};
//!
//! let mut cfg = ModelConfig::for_ne(2);
//! cfg.nlev = 6;
//! cfg.qsize = 0;
//! cfg.suite = SuiteChoice::None;
//! let mut model = Swcam::new(cfg);
//! model.run_steps(1);
//! assert!(model.sim_days() > 0.0);
//! ```

pub mod checkpoint;
pub mod config;
pub mod coupling;
pub mod ensemble;
pub mod history;
pub mod model;
pub mod resilient;

pub use checkpoint::{CheckpointError, CheckpointMeta};
pub use config::{
    seeded_unit, InitFn, ModelConfig, Planet, ScenarioRegistry, ScenarioSpec, SuiteChoice,
};
pub use coupling::{apply_physics_checked, physics_health_error};
pub use ensemble::{Ensemble, EnsembleConfig, MemberReport, MemberStatus};
pub use homme::MemberKernelPath;
pub use history::{surface_temperature_raster, History};
pub use model::{build_dycore, build_suite, init_columns, reset_state, resting_init, Swcam};
pub use resilient::{
    run_resilient, run_resilient_elastic, run_resilient_with, ResilienceConfig,
    ResilienceExhausted, ResilientReport,
};

// Re-export the substrate crates so downstream users need only one import.
pub use cubesphere;
pub use homme;
pub use swacc;
pub use swmpi;
pub use swphysics;
pub use sw26010;
