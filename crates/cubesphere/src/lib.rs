//! # cubesphere — the CAM-SE cubed-sphere spectral-element mesh
//!
//! The horizontal discretization substrate of the reproduction: an
//! equiangular gnomonic cubed sphere tiled with `np = 4`
//! Gauss–Lobatto–Legendre spectral elements, exactly the mesh family of the
//! paper's Table 2 (`ne64` … `ne4096`).
//!
//! * [`gll`] — GLL nodes, weights, derivative matrix.
//! * [`face`] — the six equiangular faces and their sphere mappings.
//! * [`metric`] — Jacobians and velocity-transform matrices at GLL points.
//! * [`grid`] — assembled elements with the global DSS map (built by
//!   geometric hashing, so cube-edge orientation cases cannot be miscoded).
//! * [`sfc`] — Hilbert/snake space-filling-curve partitioning and the halo
//!   statistics that feed the scaling performance model.
//! * [`consts`] — physical constants (CESM `shr_const` values).

#![forbid(unsafe_code)]

pub mod consts;
pub mod face;
pub mod geom;
pub mod gll;
pub mod grid;
pub mod metric;
pub mod regrid;
pub mod sfc;

pub use consts::{resolution_km, EARTH_RADIUS, GRAV, KAPPA, OMEGA, P0, RD};
pub use face::{Face, NUM_FACES};
pub use geom::Vec3;
pub use gll::{GllBasis, NP};
pub use grid::{pidx, CubedSphere, Element, NPTS};
pub use metric::PointMetric;
pub use regrid::{ascii_map, LatLonGrid, Regridder};
pub use sfc::{HaloStats, Partition};
