//! Column state and moist-thermodynamics helpers.
//!
//! CAM physics is column-independent ("embarrassingly parallel over
//! columns", which is why the paper's physics port was tool-driven rather
//! than hand-rewritten). Every parameterization in this crate operates on a
//! [`Column`]: one vertical profile of the model state plus its pressure
//! geometry, and the scheme temporaries stepping it needs.

use cubesphere::consts::{CP, GRAV, LATVAP, RD, RV};

/// Every temporary a physics scheme needs, carried by the [`Column`] so that
/// stepping a reused column never allocates (the Xeon-Phi convection port's
/// "hoist per-column temporaries out of the column loop"). Each scheme
/// overwrites the buffers it uses before reading them.
#[derive(Debug, Clone)]
pub(crate) struct ColumnScratch {
    /// PBL interface eddy diffusivity, `nlev + 1`.
    pub ke: Vec<f64>,
    /// PBL interface exchange coefficient, `nlev + 1`.
    pub coeff: Vec<f64>,
    /// Tridiagonal sub-diagonal, `nlev`.
    pub a: Vec<f64>,
    /// Tridiagonal diagonal, `nlev`.
    pub b: Vec<f64>,
    /// Tridiagonal super-diagonal, `nlev`.
    pub c: Vec<f64>,
    /// Thomas-algorithm modified super-diagonal, `nlev`.
    pub cp: Vec<f64>,
    /// Radiation interface optical depth, `nlev + 1`.
    pub tau: Vec<f64>,
    /// Downward longwave flux, `nlev + 1`.
    pub dflux: Vec<f64>,
    /// Upward longwave flux, `nlev + 1`.
    pub uflux: Vec<f64>,
    /// Betts–Miller reference temperature profile, `nlev`.
    pub t_ref: Vec<f64>,
}

impl ColumnScratch {
    fn with_capacity(nlev: usize) -> Self {
        let v = || Vec::with_capacity(nlev + 1);
        ColumnScratch {
            ke: v(),
            coeff: v(),
            a: v(),
            b: v(),
            c: v(),
            cp: v(),
            tau: v(),
            dflux: v(),
            uflux: v(),
            t_ref: v(),
        }
    }
}

/// Scratch is not column state: two columns whose fields agree are equal
/// whatever their scheme temporaries last held.
impl PartialEq for ColumnScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// `buf` as `n` zeros, reusing its storage.
pub(crate) fn zeroed(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

/// One atmospheric column (level 0 = model top).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Layer midpoint pressures, Pa.
    pub p_mid: Vec<f64>,
    /// Interface pressures, Pa (`nlev + 1`).
    pub p_int: Vec<f64>,
    /// Layer thickness, Pa.
    pub dp: Vec<f64>,
    /// Temperature, K.
    pub t: Vec<f64>,
    /// Eastward wind, m/s.
    pub u: Vec<f64>,
    /// Northward wind, m/s.
    pub v: Vec<f64>,
    /// Water-vapour mixing ratio, kg/kg.
    pub qv: Vec<f64>,
    /// Cloud-water mixing ratio, kg/kg.
    pub qc: Vec<f64>,
    /// Rain-water mixing ratio, kg/kg.
    pub qr: Vec<f64>,
    /// Latitude, radians (for Coriolis-dependent schemes).
    pub lat: f64,
    /// Surface (skin / sea-surface) temperature, K.
    pub ts: f64,
    pub(crate) scratch: ColumnScratch,
}

impl Column {
    /// Number of layers.
    #[inline]
    pub fn nlev(&self) -> usize {
        self.t.len()
    }

    /// An empty column with room for `nlev` layers: every field and every
    /// scheme temporary is reserved up front, so refilling it with `clear`
    /// + `push` and stepping it never allocates.
    pub fn with_capacity(nlev: usize) -> Self {
        let v = || Vec::with_capacity(nlev);
        Column {
            p_mid: v(),
            p_int: Vec::with_capacity(nlev + 1),
            dp: v(),
            t: v(),
            u: v(),
            v: v(),
            qv: v(),
            qc: v(),
            qr: v(),
            lat: 0.0,
            ts: 0.0,
            scratch: ColumnScratch::with_capacity(nlev),
        }
    }

    /// Construct an isothermal, resting, dry test column over `nlev` layers
    /// between `ptop` and `ps`.
    pub fn isothermal(nlev: usize, ptop: f64, ps: f64, t0: f64) -> Self {
        let dp_val = (ps - ptop) / nlev as f64;
        let p_int: Vec<f64> = (0..=nlev).map(|k| ptop + k as f64 * dp_val).collect();
        let p_mid: Vec<f64> = (0..nlev).map(|k| 0.5 * (p_int[k] + p_int[k + 1])).collect();
        Column {
            p_mid,
            p_int,
            dp: vec![dp_val; nlev],
            t: vec![t0; nlev],
            u: vec![0.0; nlev],
            v: vec![0.0; nlev],
            qv: vec![0.0; nlev],
            qc: vec![0.0; nlev],
            qr: vec![0.0; nlev],
            lat: 0.0,
            ts: t0,
            scratch: ColumnScratch::with_capacity(nlev),
        }
    }

    /// Surface pressure.
    #[inline]
    pub fn ps(&self) -> f64 {
        *self.p_int.last().expect("column has interfaces")
    }

    /// Geometric thickness of layer `k`, m (hydrostatic, dry).
    #[inline]
    pub fn dz(&self, k: usize) -> f64 {
        RD * self.t[k] * self.dp[k] / (self.p_mid[k] * GRAV)
    }

    /// Height of the lowest model level above the surface, m.
    pub fn za(&self) -> f64 {
        let k = self.nlev() - 1;
        RD * self.t[k] / GRAV * (self.p_int[k + 1] / self.p_mid[k]).ln()
    }

    /// Column-integrated water (vapour + cloud + rain), kg/m^2.
    pub fn total_water(&self) -> f64 {
        (0..self.nlev())
            .map(|k| (self.qv[k] + self.qc[k] + self.qr[k]) * self.dp[k] / GRAV)
            .sum()
    }

    /// Column moist static enthalpy proxy `cp T + L qv`, J/kg weighted by
    /// mass (conserved by condensation/evaporation).
    pub fn moist_enthalpy(&self) -> f64 {
        (0..self.nlev())
            .map(|k| (CP * self.t[k] + LATVAP * self.qv[k]) * self.dp[k] / GRAV)
            .sum()
    }
}

/// Saturation vapour pressure over liquid water, Pa
/// (Bolton/Clausius–Clapeyron form used by the DCMIP simple physics).
#[inline]
pub fn sat_vapor_pressure(t: f64) -> f64 {
    610.78 * (LATVAP / RV * (1.0 / 273.16 - 1.0 / t)).exp()
}

/// Saturation mixing ratio at `(t, p)`, kg/kg.
#[inline]
pub fn sat_mixing_ratio(t: f64, p: f64) -> f64 {
    let es = sat_vapor_pressure(t).min(0.9 * p);
    let eps = RD / RV;
    eps * es / (p - es)
}

/// Saturation adjustment: condense super-saturation (or evaporate cloud
/// into sub-saturation) with the latent-heat feedback linearized — the
/// large-scale condensation core shared by simple-physics and Kessler.
/// Returns the condensed amount (negative = evaporation), kg/kg.
pub fn saturation_adjust(t: &mut f64, qv: &mut f64, qc: &mut f64, p: f64) -> f64 {
    let qsat = sat_mixing_ratio(*t, p);
    let gamma = LATVAP * LATVAP * qsat / (CP * RV * *t * *t);
    let mut dq = (*qv - qsat) / (1.0 + gamma);
    if dq < 0.0 {
        // Evaporate at most the available cloud water.
        dq = dq.max(-*qc);
    }
    *qv -= dq;
    *qc += dq;
    *t += LATVAP / CP * dq;
    dq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isothermal_column_geometry() {
        let c = Column::isothermal(10, 1000.0, 101_000.0, 280.0);
        assert_eq!(c.nlev(), 10);
        assert!((c.ps() - 101_000.0).abs() < 1e-9);
        assert!(c.za() > 0.0 && c.za() < 2000.0);
        for k in 0..10 {
            assert!(c.dz(k) > 0.0);
            assert!(c.p_mid[k] > c.p_int[k] && c.p_mid[k] < c.p_int[k + 1]);
        }
    }

    #[test]
    fn esat_reference_points() {
        // ~611 Pa at freezing, ~2.3-2.4 kPa at 20 C, ~4.2-4.3 kPa at 30 C.
        assert!((sat_vapor_pressure(273.16) - 610.78).abs() < 1.0);
        let e20 = sat_vapor_pressure(293.15);
        assert!(e20 > 2100.0 && e20 < 2500.0, "{e20}");
        let e30 = sat_vapor_pressure(303.15);
        assert!(e30 > 3900.0 && e30 < 4600.0, "{e30}");
    }

    #[test]
    fn qsat_increases_with_temperature_decreases_with_pressure() {
        let q1 = sat_mixing_ratio(290.0, 90_000.0);
        let q2 = sat_mixing_ratio(300.0, 90_000.0);
        let q3 = sat_mixing_ratio(300.0, 70_000.0);
        assert!(q2 > q1);
        assert!(q3 > q2);
    }

    #[test]
    fn saturation_adjust_conserves_enthalpy_and_water() {
        let p = 85_000.0;
        let (mut t, mut qv, mut qc) = (290.0, 0.02, 0.0);
        let h0 = CP * t + LATVAP * qv;
        let w0 = qv + qc;
        let dq = saturation_adjust(&mut t, &mut qv, &mut qc, p);
        assert!(dq > 0.0, "super-saturated column must condense");
        assert!(t > 290.0, "condensation heats");
        assert!((CP * t + LATVAP * qv - h0).abs() < 1e-6 * h0);
        assert!((qv + qc - w0).abs() < 1e-15);
        // After adjustment the state is (nearly) exactly saturated.
        let rel = qv / sat_mixing_ratio(t, p);
        assert!((rel - 1.0).abs() < 0.05, "rel hum {rel}");
    }

    #[test]
    fn saturation_adjust_evaporates_no_more_than_cloud() {
        let p = 85_000.0;
        let (mut t, mut qv, mut qc) = (300.0, 0.001, 0.0005);
        let dq = saturation_adjust(&mut t, &mut qv, &mut qc, p);
        assert!(dq < 0.0, "sub-saturated with cloud must evaporate");
        assert!(qc >= 0.0, "cannot evaporate more cloud than exists");
        assert!(t < 300.0, "evaporation cools");
    }

    #[test]
    fn water_and_enthalpy_diagnostics() {
        let mut c = Column::isothermal(4, 1000.0, 101_000.0, 280.0);
        c.qv = vec![0.01; 4];
        c.qc = vec![0.001; 4];
        let tw = c.total_water();
        let expect = 0.011 * (101_000.0 - 1000.0) / GRAV;
        assert!((tw - expect).abs() < 1e-9 * expect);
        assert!(c.moist_enthalpy() > 0.0);
    }
}
