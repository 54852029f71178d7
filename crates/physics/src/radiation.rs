//! Gray-gas longwave radiation (Frierson-style two-stream).
//!
//! A stand-in for the CAM long/short-wave packages with the same structure:
//! a downward and an upward flux sweep over the column and a heating rate
//! from the flux divergence. Optical depth follows
//! `tau(p) = tau0 (p/p0)^4` (water-vapour-like concentration near the
//! surface) plus a linear stratospheric term.

use crate::column::{zeroed, Column, ColumnScratch};
use cubesphere::consts::{CP, GRAV, P0};

/// Stefan–Boltzmann constant, W/(m^2 K^4).
pub const SIGMA: f64 = 5.670_374e-8;

/// Gray radiation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayRadiation {
    /// Surface optical depth at the equator.
    pub tau0: f64,
    /// Linear (stratospheric) optical-depth fraction.
    pub f_lin: f64,
}

impl Default for GrayRadiation {
    fn default() -> Self {
        GrayRadiation { tau0: 4.0, f_lin: 0.1 }
    }
}

impl GrayRadiation {
    /// Optical depth at pressure `p`.
    pub fn tau(&self, p: f64) -> f64 {
        let x = p / P0;
        self.tau0 * (self.f_lin * x + (1.0 - self.f_lin) * x.powi(4))
    }

    /// One radiation step: computes LW fluxes, applies heating over `dt`.
    /// Returns the outgoing longwave radiation (OLR) at the top, W/m^2.
    pub fn step(&self, col: &mut Column, dt: f64) -> f64 {
        let nlev = col.nlev();
        let Column { p_int, dp, t, ts, scratch, .. } = col;
        let ColumnScratch { tau, dflux, uflux, .. } = scratch;
        // Interface optical depths (top -> surface).
        tau.clear();
        tau.extend(p_int.iter().map(|&p| self.tau(p)));

        // Downward sweep: D(0) = 0; dD = (B - D) dtau.
        let dflux = zeroed(dflux, nlev + 1);
        for k in 0..nlev {
            let b = SIGMA * t[k].powi(4);
            let dtau = tau[k + 1] - tau[k];
            let e = (-dtau).exp();
            dflux[k + 1] = dflux[k] * e + b * (1.0 - e);
        }
        // Upward sweep: U(surface) = sigma Ts^4.
        let uflux = zeroed(uflux, nlev + 1);
        uflux[nlev] = SIGMA * ts.powi(4);
        for k in (0..nlev).rev() {
            let b = SIGMA * t[k].powi(4);
            let dtau = tau[k + 1] - tau[k];
            let e = (-dtau).exp();
            uflux[k] = uflux[k + 1] * e + b * (1.0 - e);
        }

        // Heating: dT/dt = -g/cp d(U - D)/dp.
        for k in 0..nlev {
            let net_top = uflux[k] - dflux[k];
            let net_bot = uflux[k + 1] - dflux[k + 1];
            let heat = GRAV / CP * (net_bot - net_top) / dp[k];
            t[k] += dt * heat;
        }
        uflux[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optical_depth_monotone() {
        let g = GrayRadiation::default();
        assert_eq!(g.tau(0.0), 0.0);
        assert!(g.tau(50_000.0) < g.tau(100_000.0));
        assert!((g.tau(P0) - g.tau0).abs() < 1e-12);
    }

    #[test]
    fn olr_close_to_surface_emission_for_thin_atmosphere() {
        let g = GrayRadiation { tau0: 0.01, f_lin: 0.1 };
        let mut col = Column::isothermal(20, 1000.0, 101_000.0, 280.0);
        col.ts = 300.0;
        let olr = g.step(&mut col, 1.0);
        let surf = SIGMA * 300.0f64.powi(4);
        assert!((olr - surf).abs() < 0.05 * surf, "olr {olr} vs {surf}");
    }

    #[test]
    fn opaque_atmosphere_olr_comes_from_upper_levels() {
        let g = GrayRadiation { tau0: 50.0, f_lin: 0.1 };
        let mut col = Column::isothermal(20, 1000.0, 101_000.0, 250.0);
        col.ts = 320.0; // hot surface hidden by the optically thick column
        let olr = g.step(&mut col, 1.0);
        let atm = SIGMA * 250.0f64.powi(4);
        assert!((olr - atm).abs() < 0.15 * atm, "olr {olr} vs {atm}");
    }

    #[test]
    fn isolated_warm_layer_cools() {
        let g = GrayRadiation::default();
        let mut col = Column::isothermal(20, 1000.0, 101_000.0, 260.0);
        col.ts = 260.0;
        col.t[10] = 290.0;
        let t0 = col.t[10];
        g.step(&mut col, 3600.0);
        assert!(col.t[10] < t0, "anomalously warm layer must radiate away heat");
    }

    #[test]
    fn hot_surface_warms_the_lowest_layer() {
        let g = GrayRadiation::default();
        let mut col = Column::isothermal(20, 1000.0, 101_000.0, 260.0);
        col.ts = 320.0;
        let t0 = col.t[19];
        g.step(&mut col, 3600.0);
        assert!(col.t[19] > t0, "surface emission must heat the air above");
    }
}
