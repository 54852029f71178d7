//! # swphysics — simplified CAM physics suite
//!
//! The paper ports all of CAM5's physics via tool-driven OpenACC
//! refactoring; a from-scratch reproduction substitutes the community's
//! standard reduced suites, which preserve the two behaviours the paper's
//! evaluation depends on:
//!
//! * **Held–Suarez forcing** ([`held_suarez`]) — the dry climatology
//!   benchmark behind the Figure-4 control/test surface-temperature
//!   comparison.
//! * **Reed–Jablonowski simple physics** ([`simple`]) with optional
//!   **Kessler microphysics** ([`kessler`]) and **gray radiation**
//!   ([`radiation`]) — the DCMIP tropical-cyclone configuration that powers
//!   the hurricane-Katrina experiment (surface latent-heat fluxes over a
//!   warm ocean, condensational heating, boundary-layer drag).
//!
//! All schemes are column-local ([`column::Column`]), mirroring CAM's
//! physics data layout (and the reason its OpenACC port parallelizes over
//! columns).

#![forbid(unsafe_code)]

pub mod column;
pub mod convection;
pub mod driver;
pub mod held_suarez;
pub mod kessler;
pub mod pbl;
pub mod radiation;
pub mod simple;

pub use column::{sat_mixing_ratio, sat_vapor_pressure, saturation_adjust, Column};
pub use convection::BettsMiller;
pub use driver::{validate_column, PhysicsDiag, PhysicsError, PhysicsSuite, MOISTURE_FLOOR};
pub use held_suarez::HeldSuarez;
pub use kessler::Kessler;
pub use radiation::GrayRadiation;
pub use simple::{SimpleDiag, SimplePhysics};
