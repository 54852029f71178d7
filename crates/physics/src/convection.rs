//! Betts–Miller-style convective adjustment.
//!
//! A reduced stand-in for CAM5's deep-convection scheme: where a column is
//! conditionally unstable and moist enough, temperature and moisture relax
//! toward a moist-adiabatic reference profile over a fixed timescale, and
//! the moisture removed falls as convective rain. This is the classic
//! Betts–Miller (1986) structure with the Frierson (2007) simplifications.

use crate::column::{sat_mixing_ratio, Column};
use cubesphere::consts::{CP, GRAV, LATVAP, RD};

/// Scheme parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BettsMiller {
    /// Relaxation timescale, s.
    pub tau: f64,
    /// Reference relative humidity of the post-convective profile.
    pub rh_ref: f64,
}

impl Default for BettsMiller {
    fn default() -> Self {
        BettsMiller { tau: 2.0 * 3600.0, rh_ref: 0.8 }
    }
}

impl BettsMiller {
    /// Moist-adiabat reference temperature profile lifted from the lowest
    /// layer: conserves the parcel's moist static energy `cp T + g z + L q`
    /// with saturation at each level (a first-order pseudo-adiabat),
    /// written over `t_ref`.
    fn reference_profile(&self, col: &Column, t_ref: &mut Vec<f64>) {
        let nlev = col.nlev();
        let ks = nlev - 1;
        // Parcel properties from the sub-cloud layer.
        let h_parcel = CP * col.t[ks] + LATVAP * col.qv[ks];
        t_ref.clear();
        for k in 0..nlev {
            // Height of level k above the surface (hydrostatic, isothermal
            // approximation per layer).
            let z = RD * col.t[k] / GRAV * (col.ps() / col.p_mid[k]).ln();
            // Solve cp T + g z + L qsat(T, p) = h_parcel by a few Newton
            // steps (the saturation term is the only nonlinearity).
            let mut t = col.t[k];
            for _ in 0..8 {
                let qs = sat_mixing_ratio(t, col.p_mid[k]);
                let f = CP * t + GRAV * z + LATVAP * qs - h_parcel;
                // dqs/dT ~ L qs / (Rv T^2); Rv = 461.5.
                let dqs = LATVAP * qs / (461.5 * t * t);
                let df = CP + LATVAP * dqs;
                t -= f / df;
            }
            t_ref.push(t);
        }
    }

    /// Convective available instability proxy: mass-weighted excess of the
    /// reference (parcel) profile over the environment, K.
    pub fn instability(&self, col: &Column) -> f64 {
        let mut t_ref = Vec::with_capacity(col.nlev());
        self.reference_profile(col, &mut t_ref);
        let mut acc = 0.0;
        let mut mass = 0.0;
        for k in 0..col.nlev() {
            acc += (t_ref[k] - col.t[k]) * col.dp[k];
            mass += col.dp[k];
        }
        acc / mass
    }

    /// Apply one adjustment step; returns convective rain, kg/m^2.
    ///
    /// Columns with no positive instability are untouched (the scheme is
    /// trigger-based, like its CAM counterpart).
    pub fn step(&self, col: &mut Column, dt: f64) -> f64 {
        // Borrowed out of the column's scratch, then returned.
        let mut t_ref = std::mem::take(&mut col.scratch.t_ref);
        self.reference_profile(col, &mut t_ref);
        let rain = self.relax(col, &t_ref, dt);
        col.scratch.t_ref = t_ref;
        rain
    }

    /// Relax `col` toward the reference profile `t_ref`; returns the rain.
    fn relax(&self, col: &mut Column, t_ref: &[f64], dt: f64) -> f64 {
        // Trigger: the lifted parcel must be warmer than the environment
        // somewhere above the boundary layer.
        let unstable = (0..col.nlev().saturating_sub(1)).any(|k| t_ref[k] > col.t[k] + 0.1);
        if !unstable {
            return 0.0;
        }
        let w = (dt / self.tau).min(1.0);
        let mut dq_total = 0.0; // column moisture removed, Pa kg/kg
        let mut dh_total = 0.0; // column enthalpy added by T adjustment
        for k in 0..col.nlev() {
            let q_ref = self.rh_ref * sat_mixing_ratio(t_ref[k], col.p_mid[k]);
            let dt_k = w * (t_ref[k] - col.t[k]);
            let dq_k = w * (q_ref - col.qv[k]);
            col.t[k] += dt_k;
            col.qv[k] = (col.qv[k] + dq_k).max(0.0);
            dq_total += -dq_k * col.dp[k];
            dh_total += CP * dt_k * col.dp[k];
        }
        // Energy closure (Betts-Miller): the latent heat of the net rained
        // moisture must pay for the enthalpy change; rescale the rain to
        // balance and never allow negative precipitation.
        (dq_total / GRAV).max(dh_total / (LATVAP * GRAV)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unstable_column() -> Column {
        let mut c = Column::isothermal(12, 5_000.0, 100_000.0, 260.0);
        // Hot, very moist boundary layer under a cold free troposphere.
        let ks = c.nlev() - 1;
        c.t[ks] = 303.0;
        c.t[ks - 1] = 295.0;
        c.qv[ks] = 0.02;
        c.qv[ks - 1] = 0.015;
        c
    }

    #[test]
    fn stable_column_is_untouched() {
        let bm = BettsMiller::default();
        // Strongly stable: warm aloft, cold below, dry.
        let mut c = Column::isothermal(8, 5_000.0, 100_000.0, 280.0);
        for k in 0..8 {
            c.t[k] = 320.0 - 4.0 * k as f64; // inversion everywhere
        }
        let before = c.clone();
        let rain = bm.step(&mut c, 1800.0);
        assert_eq!(rain, 0.0);
        assert_eq!(c, before);
    }

    #[test]
    fn unstable_column_rains_and_stabilizes() {
        let bm = BettsMiller::default();
        let mut c = unstable_column();
        let inst0 = bm.instability(&c);
        let mut rain = 0.0;
        for _ in 0..20 {
            rain += bm.step(&mut c, 1800.0);
        }
        let inst1 = bm.instability(&c);
        assert!(rain > 0.0, "convection must rain");
        assert!(inst1 < inst0, "instability must be consumed: {inst0} -> {inst1}");
        assert!(c.t.iter().all(|&t| (180.0..330.0).contains(&t)));
        assert!(c.qv.iter().all(|&q| q >= 0.0));
    }

    #[test]
    fn adjustment_heats_the_free_troposphere() {
        let bm = BettsMiller::default();
        let mut c = unstable_column();
        let t_mid_before = c.t[6];
        bm.step(&mut c, 3600.0);
        assert!(c.t[6] > t_mid_before, "latent heating aloft");
    }

    #[test]
    fn relaxation_rate_scales_with_dt() {
        let bm = BettsMiller::default();
        let mut fast = unstable_column();
        let mut slow = unstable_column();
        bm.step(&mut fast, 3600.0);
        bm.step(&mut slow, 360.0);
        // Larger dt moves the column further toward the reference.
        let ks = fast.nlev() - 1;
        assert!((fast.t[ks] - 303.0).abs() > (slow.t[ks] - 303.0).abs() * 0.99);
    }

    #[test]
    fn reference_profile_is_a_cooling_adiabat() {
        let bm = BettsMiller::default();
        let c = unstable_column();
        let mut t_ref = Vec::new();
        bm.reference_profile(&c, &mut t_ref);
        // Monotone decrease with height (pressure decreasing index order is
        // top-first, so t_ref increases with k).
        for k in 1..c.nlev() {
            assert!(t_ref[k] >= t_ref[k - 1] - 1.0, "level {k}: {:?}", &t_ref[k - 1..=k]);
        }
    }
}
