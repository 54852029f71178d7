//! # katrina — the hurricane-Katrina lifecycle experiment
//!
//! Reproduction of the paper's Section 9 / Figure 9: simulate the storm at
//! 100 km-class ("ne30") and 25 km-class ("ne120") effective resolution and
//! compare track and intensity against the NOAA/NHC observed best track.
//! The coarse run fails to maintain/intensify the cyclone; the fine run
//! captures a trackable, intensifying storm — the paper's central
//! scientific claim for ultra-high resolution.
//!
//! Substitutions relative to the paper (documented in DESIGN.md): analytic
//! Reed–Jablonowski vortex seed instead of analysis data, reduced-radius
//! planet instead of a full ne120 Earth mesh, observed-motion steering
//! instead of a real synoptic environment.

#![forbid(unsafe_code)]

pub mod besttrack;
pub mod experiment;
pub mod scenario;
pub mod tracker;
pub mod vortex;

pub use besttrack::{observed_position, observed_steering, BestTrackPoint, KT_PER_MS, OBSERVED};
pub use experiment::{run, EarthFix, KatrinaConfig, KatrinaResult};
pub use scenario::{model_config, register_scenario, scenario};
pub use tracker::{find_storm, TrackPoint};
pub use vortex::VortexParams;
