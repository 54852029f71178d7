//! `compute_and_apply_rhs`: the right-hand side of the hydrostatic
//! primitive equations in vector-invariant form.
//!
//! Per element and per Runge–Kutta stage this kernel:
//!
//! 1. scans the column for interface/midpoint pressures
//!    (`p(k) = p(k-1) + dp(k)` — the dependency chain the paper
//!    parallelizes with register communication, Section 7.4/Figure 2);
//! 2. integrates the hydrostatic equation upward for the geopotential
//!    (a second scan);
//! 3. evaluates horizontal gradients, vorticity and flux divergences;
//! 4. accumulates the `(u, v, T, dp3d)` tendencies.
//!
//! The caller applies the tendencies (`state += dt * tend`) and performs the
//! DSS — "compute the RHS, accumulate into velocity and apply DSS"
//! (Table 1). Column temporaries live in a caller-owned [`RhsScratch`] so
//! steady-state evaluation allocates nothing (one scratch per scheduler
//! worker in the parallel driver).

use crate::deriv::ElemOps;
use crate::kernels::blocked::load_rows;
use crate::state::{Dims, ElemRef};
use crate::vert::VertCoord;
use cubesphere::consts::{CP, RD};
use cubesphere::{NP, NPTS};
use sw26010::V4F64;

/// Tendencies of one element's prognostic dynamics fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemTend {
    /// du/dt, `[nlev][NPTS]`.
    pub u: Vec<f64>,
    /// dv/dt.
    pub v: Vec<f64>,
    /// dT/dt.
    pub t: Vec<f64>,
    /// d(dp3d)/dt.
    pub dp3d: Vec<f64>,
}

impl ElemTend {
    /// Zero tendency container.
    pub fn zeros(dims: Dims) -> Self {
        let n = dims.field_len();
        ElemTend { u: vec![0.0; n], v: vec![0.0; n], t: vec![0.0; n], dp3d: vec![0.0; n] }
    }
}

/// Reusable column temporaries for one RHS evaluation. Every buffer is
/// fully overwritten by [`element_rhs_raw`], so a scratch can be reused
/// across elements and steps without re-zeroing.
#[derive(Debug, Clone)]
pub struct RhsScratch {
    /// Interface pressures, `[nlev+1][NPTS]`.
    pub p_int: Vec<f64>,
    /// Midpoint pressures, `[nlev][NPTS]`.
    pub p_mid: Vec<f64>,
    /// Midpoint geopotential, `[nlev][NPTS]`.
    pub phi_mid: Vec<f64>,
    /// `div(v dp)` per level, `[nlev][NPTS]`.
    pub divdp: Vec<f64>,
    /// `v . grad p` per level, `[nlev][NPTS]`.
    pub vgrad_p: Vec<f64>,
    /// `omega / p` per level, `[nlev][NPTS]`.
    pub omega_p: Vec<f64>,
}

impl RhsScratch {
    /// Scratch sized for `nlev` layers.
    pub fn new(nlev: usize) -> Self {
        RhsScratch {
            p_int: vec![0.0; (nlev + 1) * NPTS],
            p_mid: vec![0.0; nlev * NPTS],
            phi_mid: vec![0.0; nlev * NPTS],
            divdp: vec![0.0; nlev * NPTS],
            vgrad_p: vec![0.0; nlev * NPTS],
            omega_p: vec![0.0; nlev * NPTS],
        }
    }
}

/// Column scan: interface and midpoint pressures from layer thicknesses.
///
/// `dp` is `[nlev][NPTS]`; `p_int` gets `[nlev+1][NPTS]`, `p_mid`
/// `[nlev][NPTS]`. This is the sequential reference for the paper's
/// three-stage register-communication scan.
pub fn pressure_scan(nlev: usize, ptop: f64, dp: &[f64], p_int: &mut [f64], p_mid: &mut [f64]) {
    debug_assert_eq!(dp.len(), nlev * NPTS);
    debug_assert_eq!(p_int.len(), (nlev + 1) * NPTS);
    debug_assert_eq!(p_mid.len(), nlev * NPTS);
    for p in 0..NPTS {
        p_int[p] = ptop;
    }
    for k in 0..nlev {
        for p in 0..NPTS {
            let below = p_int[k * NPTS + p] + dp[k * NPTS + p];
            p_int[(k + 1) * NPTS + p] = below;
            p_mid[k * NPTS + p] = p_int[k * NPTS + p] + 0.5 * dp[k * NPTS + p];
        }
    }
}

/// Blocked pressure scan, structured as the host form of the paper's
/// three-stage scan (§6.3): per level-tile, (1) a bounds-check-free load of
/// the 16-lane thickness row, (2) the sequential partial-sum chain with the
/// carry resident in one 16-lane register tile across the whole column, and
/// (3) the fix-up stores of the interface/midpoint rows. The carry chain is
/// deliberately *not* reassociated across levels — the paper's CPE scan
/// trades bit-reproducibility for parallelism, but this layer's contract is
/// bitwise identity with [`pressure_scan`], so the win comes from the
/// register-resident carry and the elided bounds checks (the earlier
/// 4-wide-struct formulation lost to the scalar loop's autovectorization).
pub fn pressure_scan_blocked(
    nlev: usize,
    ptop: f64,
    dp: &[f64],
    p_int: &mut [f64],
    p_mid: &mut [f64],
) {
    debug_assert_eq!(dp.len(), nlev * NPTS);
    debug_assert_eq!(p_int.len(), (nlev + 1) * NPTS);
    debug_assert_eq!(p_mid.len(), nlev * NPTS);
    let mut carry = [ptop; NPTS];
    p_int[..NPTS].copy_from_slice(&carry);
    for ((dpk, pik), pmk) in dp
        .chunks_exact(NPTS)
        .zip(p_int[NPTS..].chunks_exact_mut(NPTS))
        .zip(p_mid.chunks_exact_mut(NPTS))
    {
        for p in 0..NPTS {
            // Midpoint before the carry update: `p_int[k] + 0.5*dp`, then
            // `p_int[k+1] = p_int[k] + dp` — the scalar scan's exact order.
            pmk[p] = carry[p] + 0.5 * dpk[p];
            carry[p] += dpk[p];
        }
        pik.copy_from_slice(&carry);
    }
}

/// Reverse column scan: hydrostatic geopotential at layer midpoints.
///
/// `phi_mid(k) = phis + sum_{l>k} Rd T(l) ln(p_int(l+1)/p_int(l))
///             + Rd T(k) ln(p_int(k+1)/p_mid(k))`.
pub fn geopotential_scan(
    nlev: usize,
    phis: &[f64],
    t: &[f64],
    p_int: &[f64],
    p_mid: &[f64],
    phi_mid: &mut [f64],
) {
    debug_assert_eq!(phis.len(), NPTS);
    let mut phi_below = [0.0; NPTS];
    phi_below.copy_from_slice(phis);
    for k in (0..nlev).rev() {
        for p in 0..NPTS {
            let i = k * NPTS + p;
            let tk = t[i];
            phi_mid[i] = phi_below[p] + RD * tk * (p_int[(k + 1) * NPTS + p] / p_mid[i]).ln();
            phi_below[p] += RD * tk * (p_int[(k + 1) * NPTS + p] / p_int[k * NPTS + p]).ln();
        }
    }
}

/// Blocked geopotential scan: the running `phi_below` accumulator lives in
/// four row registers across the reverse sweep. Bitwise identical to
/// [`geopotential_scan`] (the shared `Rd T` product is computed once; IEEE
/// evaluation of the identical expression yields identical bits).
pub fn geopotential_scan_blocked(
    nlev: usize,
    phis: &[f64],
    t: &[f64],
    p_int: &[f64],
    p_mid: &[f64],
    phi_mid: &mut [f64],
) {
    debug_assert_eq!(phis.len(), NPTS);
    let rd = V4F64::splat(RD);
    let mut phi_below = load_rows(phis);
    for k in (0..nlev).rev() {
        let o = k * NPTS;
        let tr = load_rows(&t[o..]);
        let pm = load_rows(&p_mid[o..]);
        let pi_k = load_rows(&p_int[o..]);
        let pi_next = load_rows(&p_int[o + NPTS..]);
        for r in 0..NP {
            let rdt = rd * tr[r];
            (phi_below[r] + rdt * (pi_next[r] / pm[r]).ln()).store(&mut phi_mid[o + r * NP..]);
            phi_below[r] = phi_below[r] + rdt * (pi_next[r] / pi_k[r]).ln();
        }
    }
}

/// The RHS evaluator (owns the vertical coordinate).
#[derive(Debug, Clone)]
pub struct Rhs {
    /// Vertical coordinate tables.
    pub vert: VertCoord,
    /// Problem dimensions.
    pub dims: Dims,
}

impl Rhs {
    /// Construct; `vert.nlev` must match `dims.nlev`.
    pub fn new(vert: VertCoord, dims: Dims) -> Self {
        assert_eq!(vert.nlev, dims.nlev, "vertical tables disagree with dims");
        Rhs { vert, dims }
    }

    /// Evaluate the dynamics tendencies of one element into `tend`.
    pub fn element_tend(
        &self,
        op: &ElemOps,
        es: ElemRef<'_>,
        tend: &mut ElemTend,
        scratch: &mut RhsScratch,
    ) {
        element_rhs_raw(
            op,
            self.dims.nlev,
            self.vert.ptop(),
            es.u,
            es.v,
            es.t,
            es.dp3d,
            es.phis,
            &mut tend.u,
            &mut tend.v,
            &mut tend.t,
            &mut tend.dp3d,
            scratch,
        );
    }
}

/// The raw `compute_and_apply_rhs` math on flat `[nlev][NPTS]` slices —
/// shared by the dycore driver and every kernel variant. All column
/// temporaries come from `scratch`; nothing is allocated.
#[allow(clippy::too_many_arguments)]
pub fn element_rhs_raw(
    op: &ElemOps,
    nlev: usize,
    ptop: f64,
    es_u: &[f64],
    es_v: &[f64],
    es_t: &[f64],
    es_dp3d: &[f64],
    es_phis: &[f64],
    tend_u: &mut [f64],
    tend_v: &mut [f64],
    tend_t: &mut [f64],
    tend_dp3d: &mut [f64],
    scratch: &mut RhsScratch,
) {
    // --- column scans -------------------------------------------------
    let RhsScratch { p_int, p_mid, phi_mid, divdp, vgrad_p, omega_p } = scratch;
    pressure_scan(nlev, ptop, es_dp3d, p_int, p_mid);
    geopotential_scan(nlev, es_phis, es_t, p_int, p_mid, phi_mid);

    // --- per-level horizontal operators -------------------------------
    // div(v dp) per level, needed by the omega scan and the dp tendency.
    for k in 0..nlev {
        let r = k * NPTS..(k + 1) * NPTS;
        let u = &es_u[r.clone()];
        let v = &es_v[r.clone()];
        let dp = &es_dp3d[r.clone()];
        let mut udp = [0.0; NPTS];
        let mut vdp = [0.0; NPTS];
        for p in 0..NPTS {
            udp[p] = u[p] * dp[p];
            vdp[p] = v[p] * dp[p];
        }
        let mut div = [0.0; NPTS];
        op.divergence_sphere(&udp, &vdp, &mut div);
        divdp[r.clone()].copy_from_slice(&div);

        let mut gpx = [0.0; NPTS];
        let mut gpy = [0.0; NPTS];
        op.gradient_sphere(&p_mid[r.clone()], &mut gpx, &mut gpy);
        for p in 0..NPTS {
            vgrad_p[k * NPTS + p] = u[p] * gpx[p] + v[p] * gpy[p];
        }
    }

    // --- omega/p scan --------------------------------------------------
    // omega/p(k) = (vgrad_p(k) - sum_{l<k} divdp(l) - 0.5 divdp(k)) / pmid(k)
    let mut acc = [0.0; NPTS];
    for k in 0..nlev {
        for p in 0..NPTS {
            let i = k * NPTS + p;
            omega_p[i] = (vgrad_p[i] - acc[p] - 0.5 * divdp[i]) / p_mid[i];
            acc[p] += divdp[i];
        }
    }

    // --- tendencies -----------------------------------------------------
    let kappa = RD / CP;
    for k in 0..nlev {
        let r = k * NPTS..(k + 1) * NPTS;
        let u = &es_u[r.clone()];
        let v = &es_v[r.clone()];
        let t = &es_t[r.clone()];

        let mut vort = [0.0; NPTS];
        op.vorticity_sphere(u, v, &mut vort);

        // Energy E = phi + KE; grad E.
        let mut energy = [0.0; NPTS];
        for p in 0..NPTS {
            energy[p] = phi_mid[k * NPTS + p] + 0.5 * (u[p] * u[p] + v[p] * v[p]);
        }
        let mut gex = [0.0; NPTS];
        let mut gey = [0.0; NPTS];
        op.gradient_sphere(&energy, &mut gex, &mut gey);

        let mut gpx = [0.0; NPTS];
        let mut gpy = [0.0; NPTS];
        op.gradient_sphere(&p_mid[r.clone()], &mut gpx, &mut gpy);

        let mut gtx = [0.0; NPTS];
        let mut gty = [0.0; NPTS];
        op.gradient_sphere(t, &mut gtx, &mut gty);

        for p in 0..NPTS {
            let i = k * NPTS + p;
            let abs_vort = op.fcor[p] + vort[p];
            let rtp = RD * t[p] / p_mid[i];
            tend_u[i] = abs_vort * v[p] - gex[p] - rtp * gpx[p];
            tend_v[i] = -abs_vort * u[p] - gey[p] - rtp * gpy[p];
            tend_t[i] = -(u[p] * gtx[p] + v[p] * gty[p]) + kappa * t[p] * omega_p[i];
            tend_dp3d[i] = -divdp[i];
        }
    }
}

/// The scalar twin of
/// [`element_rhs_apply_blocked`](crate::kernels::blocked::element_rhs_apply_blocked),
/// with the same arguments: [`element_rhs_raw`] of `eval` into `out`, then
/// `out = base + c_dt * out` in place. Bitwise the blocked kernel.
#[allow(clippy::too_many_arguments)]
pub fn element_rhs_apply(
    op: &ElemOps,
    nlev: usize,
    ptop: f64,
    eval_u: &[f64],
    eval_v: &[f64],
    eval_t: &[f64],
    eval_dp3d: &[f64],
    phis: &[f64],
    base_u: &[f64],
    base_v: &[f64],
    base_t: &[f64],
    base_dp3d: &[f64],
    c_dt: f64,
    out_u: &mut [f64],
    out_v: &mut [f64],
    out_t: &mut [f64],
    out_dp3d: &mut [f64],
    scratch: &mut RhsScratch,
) {
    element_rhs_raw(
        op, nlev, ptop, eval_u, eval_v, eval_t, eval_dp3d, phis, out_u, out_v, out_t, out_dp3d,
        scratch,
    );
    let outs = [out_u, out_v, out_t, out_dp3d];
    for (out, base) in outs.into_iter().zip([base_u, base_v, base_t, base_dp3d]) {
        for (o, b) in out[..nlev * NPTS].iter_mut().zip(base) {
            *o = b + c_dt * *o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deriv::build_ops;
    use crate::state::State;
    use cubesphere::consts::{EARTH_RADIUS, OMEGA, P0};
    use cubesphere::CubedSphere;

    fn resting_isothermal(grid: &CubedSphere, vert: &VertCoord, dims: Dims) -> State {
        let mut st = State::zeros(dims, grid.nelem());
        for es in st.elems_mut() {
            for k in 0..dims.nlev {
                for p in 0..NPTS {
                    es.t[dims.at(k, p)] = 300.0;
                    es.dp3d[dims.at(k, p)] = vert.dp_ref(k, P0);
                }
            }
        }
        st
    }

    #[test]
    fn pressure_scan_matches_direct_sum() {
        let nlev = 8;
        let dp: Vec<f64> = (0..nlev * NPTS).map(|i| 100.0 + (i % 7) as f64).collect();
        let mut p_int = vec![0.0; (nlev + 1) * NPTS];
        let mut p_mid = vec![0.0; nlev * NPTS];
        pressure_scan(nlev, 50.0, &dp, &mut p_int, &mut p_mid);
        for p in 0..NPTS {
            let mut acc = 50.0;
            for k in 0..nlev {
                assert!((p_int[k * NPTS + p] - acc).abs() < 1e-12);
                assert!((p_mid[k * NPTS + p] - (acc + 0.5 * dp[k * NPTS + p])).abs() < 1e-12);
                acc += dp[k * NPTS + p];
            }
            assert!((p_int[nlev * NPTS + p] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn blocked_scans_match_scalar_scans_bitwise() {
        for nlev in [1usize, 3, 26, 128] {
            let dp: Vec<f64> =
                (0..nlev * NPTS).map(|i| 150.0 + 37.0 * ((i * 2654435761) % 97) as f64).collect();
            let t: Vec<f64> =
                (0..nlev * NPTS).map(|i| 230.0 + ((i * 40503) % 80) as f64).collect();
            let phis: Vec<f64> = (0..NPTS).map(|p| 11.0 * p as f64).collect();
            let ptop = 225.0;

            let mut p_int_s = vec![0.0; (nlev + 1) * NPTS];
            let mut p_mid_s = vec![0.0; nlev * NPTS];
            pressure_scan(nlev, ptop, &dp, &mut p_int_s, &mut p_mid_s);
            let mut p_int_b = vec![0.0; (nlev + 1) * NPTS];
            let mut p_mid_b = vec![0.0; nlev * NPTS];
            pressure_scan_blocked(nlev, ptop, &dp, &mut p_int_b, &mut p_mid_b);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p_int_s), bits(&p_int_b), "p_int nlev={nlev}");
            assert_eq!(bits(&p_mid_s), bits(&p_mid_b), "p_mid nlev={nlev}");

            let mut phi_s = vec![0.0; nlev * NPTS];
            geopotential_scan(nlev, &phis, &t, &p_int_s, &p_mid_s, &mut phi_s);
            let mut phi_b = vec![0.0; nlev * NPTS];
            geopotential_scan_blocked(nlev, &phis, &t, &p_int_b, &p_mid_b, &mut phi_b);
            assert_eq!(bits(&phi_s), bits(&phi_b), "phi_mid nlev={nlev}");
        }
    }

    #[test]
    fn geopotential_of_isothermal_column_is_analytic() {
        // Isothermal: phi(p) = phis + Rd T ln(ps / p).
        let nlev = 16;
        let vert = VertCoord::standard(nlev, 200.0);
        let t0 = 280.0;
        let dp: Vec<f64> = (0..nlev)
            .flat_map(|k| std::iter::repeat_n(vert.dp_ref(k, P0), NPTS))
            .collect();
        let t = vec![t0; nlev * NPTS];
        let phis = vec![123.0; NPTS];
        let mut p_int = vec![0.0; (nlev + 1) * NPTS];
        let mut p_mid = vec![0.0; nlev * NPTS];
        pressure_scan(nlev, vert.ptop(), &dp, &mut p_int, &mut p_mid);
        let mut phi = vec![0.0; nlev * NPTS];
        geopotential_scan(nlev, &phis, &t, &p_int, &p_mid, &mut phi);
        for k in 0..nlev {
            for p in 0..NPTS {
                let expect = 123.0 + RD * t0 * (P0 / p_mid[k * NPTS + p]).ln();
                let got = phi[k * NPTS + p];
                assert!(
                    (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                    "k={k}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn resting_isothermal_atmosphere_is_steady() {
        let grid = CubedSphere::new(2);
        let ops = build_ops(&grid);
        let dims = Dims { nlev: 8, qsize: 0 };
        let vert = VertCoord::standard(8, 200.0);
        let st = resting_isothermal(&grid, &vert, dims);
        let rhs = Rhs::new(vert, dims);
        let mut tend = ElemTend::zeros(dims);
        let mut scratch = RhsScratch::new(dims.nlev);
        for (e, op) in ops.iter().enumerate() {
            rhs.element_tend(op, st.elem(e), &mut tend, &mut scratch);
            for i in 0..dims.field_len() {
                assert!(tend.u[i].abs() < 1e-12, "du = {}", tend.u[i]);
                assert!(tend.v[i].abs() < 1e-12, "dv = {}", tend.v[i]);
                assert!(tend.t[i].abs() < 1e-12, "dT = {}", tend.t[i]);
                assert!(tend.dp3d[i].abs() < 1e-12, "ddp = {}", tend.dp3d[i]);
            }
        }
    }

    #[test]
    fn balanced_solid_body_rotation_has_small_residual() {
        // u = u0 cos(lat), T = T0, ps = p0 exp(-(a O u0 + u0^2/2) sin^2(lat)
        // / (Rd T0)) is an exact steady state; the discrete residual must be
        // small relative to the Coriolis term and shrink with resolution.
        let t0 = 300.0;
        let u0 = 40.0;
        let c = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) / (RD * t0);
        let residual = |ne: usize| -> f64 {
            let grid = CubedSphere::new(ne);
            let ops = build_ops(&grid);
            let nlev = 6;
            let dims = Dims { nlev, qsize: 0 };
            let vert = VertCoord::standard(nlev, 200.0);
            let mut st = State::zeros(dims, grid.nelem());
            for (es, el) in st.elems_mut().zip(&grid.elements) {
                for p in 0..NPTS {
                    let lat = el.metric[p].lat;
                    let ps = P0 * (-c * lat.sin() * lat.sin()).exp();
                    for k in 0..nlev {
                        es.u[dims.at(k, p)] = u0 * lat.cos();
                        es.t[dims.at(k, p)] = t0;
                        es.dp3d[dims.at(k, p)] = vert.dp_ref(k, ps);
                    }
                }
            }
            let rhs = Rhs::new(vert, dims);
            let mut tend = ElemTend::zeros(dims);
            let mut scratch = RhsScratch::new(nlev);
            let mut worst: f64 = 0.0;
            for (e, op) in ops.iter().enumerate() {
                rhs.element_tend(op, st.elem(e), &mut tend, &mut scratch);
                for i in 0..dims.field_len() {
                    worst = worst.max(tend.u[i].abs().max(tend.v[i].abs()));
                }
            }
            worst
        };
        let coriolis_scale = 2.0 * OMEGA * u0; // ~ 6e-3 m/s^2
        let r4 = residual(4);
        let r8 = residual(8);
        assert!(r4 < 0.05 * coriolis_scale, "ne4 residual {r4}");
        assert!(r8 < r4 / 3.0, "no convergence: {r4} -> {r8}");
    }
}
