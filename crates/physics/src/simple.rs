//! Reed–Jablonowski "simple physics" (DCMIP): bulk-aerodynamic surface
//! fluxes, boundary-layer diffusion and large-scale condensation.
//!
//! This is the community-standard reduced physics suite for idealized
//! tropical-cyclone experiments — exactly the capability the paper's
//! Katrina simulation needs from CAM5 physics. Over a warm ocean it
//! supplies the latent-heat flux that powers intensification.

use crate::column::{saturation_adjust, Column};
use crate::pbl::diffuse_column;
use cubesphere::consts::{CP, GRAV, LATVAP, RD};

/// Simple-physics parameters (Reed & Jablonowski 2012 values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplePhysics {
    /// Sea-surface temperature, K (RJ uses 302.15 K for TC tests).
    pub sst: f64,
    /// Sensible/latent exchange coefficient.
    pub c_e: f64,
    /// Pressure above which boundary-layer mixing decays, Pa.
    pub p_pbl: f64,
    /// Decay scale of the mixing above `p_pbl`, Pa.
    pub p_strato: f64,
}

impl Default for SimplePhysics {
    fn default() -> Self {
        SimplePhysics { sst: 302.15, c_e: 0.0011, p_pbl: 85_000.0, p_strato: 10_000.0 }
    }
}

/// Diagnostics of one physics step on one column.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimpleDiag {
    /// Large-scale precipitation produced, kg/m^2.
    pub precip: f64,
    /// Surface latent heat flux, W/m^2 (positive upward).
    pub lhf: f64,
    /// Surface sensible heat flux, W/m^2.
    pub shf: f64,
}

impl SimplePhysics {
    /// Drag coefficient for momentum (wind-speed dependent, capped).
    pub fn c_d(&self, wind: f64) -> f64 {
        if wind < 20.0 {
            7.0e-4 + 6.5e-5 * wind
        } else {
            2.0e-3
        }
    }

    /// Apply one physics step of length `dt` to `col`.
    pub fn step(&self, col: &mut Column, dt: f64) -> SimpleDiag {
        let nlev = col.nlev();
        let ks = nlev - 1; // lowest layer
        let mut diag = SimpleDiag::default();

        // ---- surface fluxes (implicit in the lowest layer) ---------------
        let wind = (col.u[ks] * col.u[ks] + col.v[ks] * col.v[ks]).sqrt();
        let cd = self.c_d(wind);
        let za = col.za().max(1.0);
        // Momentum: u^{n+1} = u^n / (1 + Cd |v| dt / za).
        let mom = 1.0 / (1.0 + cd * wind * dt / za);
        col.u[ks] *= mom;
        col.v[ks] *= mom;
        // Sensible heat toward SST.
        let rho_a = col.p_mid[ks] / (RD * col.t[ks]);
        let t_new = (col.t[ks] + self.c_e * wind * dt / za * self.sst)
            / (1.0 + self.c_e * wind * dt / za);
        diag.shf = rho_a * CP * self.c_e * wind * (self.sst - col.t[ks]);
        col.t[ks] = t_new;
        // Latent heat: evaporation toward saturation at the SST.
        let qsat_s = crate::column::sat_mixing_ratio(self.sst, col.ps());
        let q_new = (col.qv[ks] + self.c_e * wind * dt / za * qsat_s)
            / (1.0 + self.c_e * wind * dt / za);
        diag.lhf = rho_a * LATVAP * self.c_e * wind * (qsat_s - col.qv[ks]);
        col.qv[ks] = q_new;

        // ---- boundary-layer diffusion ------------------------------------
        // Eddy diffusivity: constant in the PBL, exponential decay above.
        // Borrowed out of the column's scratch for the solve, then returned.
        let mut ke = std::mem::take(&mut col.scratch.ke);
        ke.clear();
        ke.extend(col.p_int.iter().map(|&p| {
            let k0 = self.c_e * 20.0 * za; // ~ C_E |v| za scale
            if p > self.p_pbl {
                k0
            } else {
                k0 * (-((self.p_pbl - p) / self.p_strato).powi(2)).exp()
            }
        }));
        diffuse_column(col, &ke, dt);
        col.scratch.ke = ke;

        // ---- large-scale condensation ------------------------------------
        for k in 0..nlev {
            let before_qc = col.qc[k];
            let dq = saturation_adjust(&mut col.t[k], &mut col.qv[k], &mut col.qc[k], col.p_mid[k]);
            let _ = dq;
            // Simple physics rains all condensate out immediately.
            let condensed = col.qc[k] - before_qc;
            if condensed > 0.0 {
                diag.precip += condensed * col.dp[k] / GRAV;
                col.qc[k] = before_qc;
            }
        }
        diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tropical_column() -> Column {
        let mut c = Column::isothermal(20, 2000.0, 101_500.0, 280.0);
        // A rough tropical profile: warm below, cold aloft.
        let nlev = c.nlev();
        for k in 0..nlev {
            let frac = c.p_mid[k] / c.ps();
            c.t[k] = 200.0 + 100.0 * frac.powf(0.6);
            c.qv[k] = 0.016 * frac.powi(3);
        }
        c.ts = 302.15;
        c
    }

    #[test]
    fn drag_coefficient_profile() {
        let sp = SimplePhysics::default();
        assert!((sp.c_d(0.0) - 7.0e-4).abs() < 1e-12);
        assert!(sp.c_d(10.0) > sp.c_d(1.0));
        assert!((sp.c_d(25.0) - 2.0e-3).abs() < 1e-12);
    }

    #[test]
    fn warm_ocean_moistens_and_heats_surface_layer() {
        let sp = SimplePhysics::default();
        let mut col = tropical_column();
        col.u[19] = 15.0; // wind drives the fluxes
        let (t0, q0) = (col.t[19], col.qv[19]);
        let diag = sp.step(&mut col, 600.0);
        assert!(col.qv[19] > q0, "evaporation must moisten");
        assert!(col.t[19] > t0, "SST warmer than air must heat");
        assert!(diag.lhf > 0.0 && diag.shf > 0.0);
    }

    #[test]
    fn surface_drag_slows_the_wind() {
        let sp = SimplePhysics::default();
        let mut col = tropical_column();
        col.u[19] = 30.0;
        col.v[19] = -10.0;
        sp.step(&mut col, 600.0);
        assert!(col.u[19] < 30.0 && col.u[19] > 0.0);
        assert!(col.v[19] > -10.0 && col.v[19] < 0.0);
    }

    #[test]
    fn supersaturated_layer_precipitates() {
        let sp = SimplePhysics::default();
        let mut col = tropical_column();
        col.qv[15] = 0.05; // strongly super-saturated
        let t_before = col.t[15];
        let diag = sp.step(&mut col, 600.0);
        assert!(diag.precip > 0.0, "must rain");
        assert!(col.t[15] > t_before, "latent heating");
        assert!(col.qc.iter().all(|&x| x.abs() < 1e-12), "no cloud retained");
    }

    #[test]
    fn calm_dry_column_is_nearly_inert() {
        let sp = SimplePhysics::default();
        let mut col = Column::isothermal(10, 2000.0, 101_000.0, 302.15);
        let before = col.clone();
        let diag = sp.step(&mut col, 600.0);
        // No wind -> no fluxes; no moisture -> no rain.
        assert_eq!(diag.precip, 0.0);
        for k in 0..10 {
            assert!((col.u[k] - before.u[k]).abs() < 1e-12);
            assert!((col.t[k] - before.t[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_steps_approach_moist_equilibrium_not_blowup() {
        let sp = SimplePhysics::default();
        let mut col = tropical_column();
        col.u[19] = 10.0;
        for _ in 0..200 {
            sp.step(&mut col, 600.0);
        }
        assert!(col.t.iter().all(|&t| t > 150.0 && t < 350.0), "{:?}", col.t);
        assert!(col.qv.iter().all(|&q| (0.0..0.05).contains(&q)));
    }
}
