//! Host-side 4-wide blocked kernels — the vectorized kernel layer.
//!
//! The paper's redesign (Sections 5–6) vectorizes CAM-SE's element kernels
//! over the 256-bit lanes of the SW26010 CPE and keeps per-element operator
//! tables resident in LDM across the tracer loop. This module is the host
//! analogue: every horizontal operator and both vertical scans are expressed
//! over [`V4F64`] rows of the 4x4 GLL quadrature grid, with **lanes mapped to
//! independent columns** (the four points of one `i`-row). Because a lane
//! never mixes with its neighbours except through the same reduction order
//! the scalar operators use, every kernel here is **bitwise identical** to
//! its scalar reference in [`crate::deriv::ElemOps`] / [`crate::rhs`] — the
//! scalar path stays in the tree as the parity oracle, and the proptest
//! suite pins the equivalence across shapes.
//!
//! On top of the lane mapping, the layer fuses the way the paper fuses:
//!
//! * [`element_rhs_apply_blocked`] runs both column scans, every horizontal
//!   operator, the omega scan, and the `state += dt * tend` apply in **one
//!   pass per level**, eliminating the `divdp`/`vgrad_p`/`omega_p` arrays,
//!   the per-element tendency buffers, and a duplicated `grad(p_mid)`
//!   evaluation of the scalar pipeline.
//! * [`euler_stage_element_blocked`] hoists the `u*dp`/`v*dp` mass fluxes
//!   out of the `qsize` loop (the paper's LDM data reuse across tracers)
//!   and folds the SSP Runge–Kutta stage combination into the same pass.
//!
//! All of it is pure data movement plus reorderings that IEEE-754 makes
//! exact (multiplication commutes bitwise; identical expressions evaluate
//! to identical bits), so the blocked path can be the **default** without
//! perturbing a single pinned trajectory.

use crate::deriv::ElemOps;
use crate::remap::{ElemRemapPlan, RemapApplyScratch, REMAP_CHUNK};
use crate::rhs::{geopotential_scan_blocked, pressure_scan_blocked, RhsScratch};
use cubesphere::consts::{CP, RD};
use cubesphere::{pidx, NP, NPTS};
use sw26010::{transpose4x4, V4F64};

/// Which kernel implementation a dycore driver dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Scalar reference kernels — retained as the bitwise parity oracle.
    Scalar,
    /// 4-wide blocked kernels (bitwise identical to `Scalar`).
    #[default]
    Blocked,
}

/// How a blocked Euler tracer stage combines its advected value with the
/// stage-0 tracer mass (the SSP RK3 stage weights of the scalar driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageCombine {
    /// Stage 1: `out = t`.
    Replace,
    /// Stage 2: `out = 3/4 q0 + 1/4 t`.
    Ssp2,
    /// Stage 3: `out = q0/3 + 2/3 t`.
    Ssp3,
}

/// Load a 16-point field as four row vectors (`rows[i]`, lanes `j`).
#[inline(always)]
pub fn load_rows(s: &[f64]) -> [V4F64; NP] {
    [
        V4F64::load(&s[0..]),
        V4F64::load(&s[NP..]),
        V4F64::load(&s[2 * NP..]),
        V4F64::load(&s[3 * NP..]),
    ]
}

/// Store four row vectors back to a 16-point field.
#[inline(always)]
pub fn store_rows(rows: &[V4F64; NP], dst: &mut [f64]) {
    for (i, r) in rows.iter().enumerate() {
        r.store(&mut dst[i * NP..]);
    }
}

/// Per-element operator tables repacked for row-blocked evaluation: the
/// metric tensors become four-lane vectors indexed `[..][row]`, and the GLL
/// derivative matrix is kept in both row-major (`dvv`) and transposed
/// (`dvvt`) form so either tensor contraction direction is a row operation.
#[derive(Debug, Clone)]
pub struct BlockedOps {
    /// Derivative matrix rows: `dvv[i]` lane `k` = `L_k'(x_i)`.
    pub dvv: [V4F64; NP],
    /// Transposed derivative matrix: `dvvt[k]` lane `j` = `dvv[j][k]`.
    pub dvvt: [V4F64; NP],
    /// Reference-to-cube derivative scale.
    pub dscale: f64,
    /// `dinv[a][b][row]` lane `j` = `ElemOps::dinv[pidx(row, j)][a][b]`.
    pub dinv: [[[V4F64; NP]; 2]; 2],
    /// `d[a][b][row]` likewise.
    pub d: [[[V4F64; NP]; 2]; 2],
    /// Jacobian determinant rows.
    pub metdet: [V4F64; NP],
    /// `1 / metdet` rows.
    pub rmetdet: [V4F64; NP],
    /// Coriolis parameter rows.
    pub fcor: [V4F64; NP],
    /// DSS/quadrature weight rows.
    pub spheremp: [V4F64; NP],
}

impl BlockedOps {
    /// Repack one element's scalar operator tables.
    pub fn new(op: &ElemOps) -> Self {
        let dvv = load_rows(&op.dvv);
        let dvvt = transpose4x4(dvv);
        let mut dinv = [[[V4F64::zero(); NP]; 2]; 2];
        let mut d = [[[V4F64::zero(); NP]; 2]; 2];
        for a in 0..2 {
            for b in 0..2 {
                for r in 0..NP {
                    for j in 0..NP {
                        dinv[a][b][r][j] = op.dinv[pidx(r, j)][a][b];
                        d[a][b][r][j] = op.d[pidx(r, j)][a][b];
                    }
                }
            }
        }
        let pack = |src: &[f64; NPTS]| load_rows(src);
        BlockedOps {
            dvv,
            dvvt,
            dscale: op.dscale,
            dinv,
            d,
            metdet: pack(&op.metdet),
            rmetdet: pack(&op.rmetdet),
            fcor: pack(&op.fcor),
            spheremp: pack(&op.spheremp),
        }
    }

    /// `d/dalpha` and `d/dbeta` of a row-blocked nodal field.
    ///
    /// Lane-exact image of [`ElemOps::deriv_ab`]: the alpha contraction uses
    /// a lane-invariant coefficient (`dvv[i][k]` splatted), the beta
    /// contraction a lane-varying one (`dvvt[k]`), each accumulated in the
    /// scalar order `k = 0..NP`.
    #[inline]
    pub fn deriv_ab(&self, s: &[V4F64; NP]) -> ([V4F64; NP], [V4F64; NP]) {
        let mut da = [V4F64::zero(); NP];
        let mut db = [V4F64::zero(); NP];
        for i in 0..NP {
            let mut acc_a = V4F64::zero();
            let mut acc_b = V4F64::zero();
            for k in 0..NP {
                acc_a = acc_a + V4F64::splat(self.dvv[i][k]) * s[k];
                acc_b = acc_b + self.dvvt[k] * V4F64::splat(s[i][k]);
            }
            da[i] = acc_a * self.dscale;
            db[i] = acc_b * self.dscale;
        }
        (da, db)
    }

    /// Physical gradient of a row-blocked scalar ([`ElemOps::gradient_sphere`]).
    #[inline]
    pub fn gradient(&self, s: &[V4F64; NP]) -> ([V4F64; NP], [V4F64; NP]) {
        let (da, db) = self.deriv_ab(s);
        let mut gx = [V4F64::zero(); NP];
        let mut gy = [V4F64::zero(); NP];
        for r in 0..NP {
            gx[r] = self.dinv[0][0][r] * da[r] + self.dinv[1][0][r] * db[r];
            gy[r] = self.dinv[0][1][r] * da[r] + self.dinv[1][1][r] * db[r];
        }
        (gx, gy)
    }

    /// Divergence of a row-blocked vector field ([`ElemOps::divergence_sphere`]).
    ///
    /// The scalar kernel interleaves both contraction directions in a single
    /// accumulator per `k`; that exact order is preserved.
    #[inline]
    pub fn divergence(&self, u: &[V4F64; NP], v: &[V4F64; NP]) -> [V4F64; NP] {
        let mut gv1 = [V4F64::zero(); NP];
        let mut gv2 = [V4F64::zero(); NP];
        for r in 0..NP {
            let c1 = self.dinv[0][0][r] * u[r] + self.dinv[0][1][r] * v[r];
            let c2 = self.dinv[1][0][r] * u[r] + self.dinv[1][1][r] * v[r];
            gv1[r] = self.metdet[r] * c1;
            gv2[r] = self.metdet[r] * c2;
        }
        let mut div = [V4F64::zero(); NP];
        for i in 0..NP {
            let mut acc = V4F64::zero();
            for k in 0..NP {
                acc = acc + V4F64::splat(self.dvv[i][k]) * gv1[k];
                acc = acc + self.dvvt[k] * V4F64::splat(gv2[i][k]);
            }
            div[i] = acc * self.dscale * self.rmetdet[i];
        }
        div
    }

    /// Relative vorticity of a row-blocked vector field
    /// ([`ElemOps::vorticity_sphere`]): separate accumulators per direction.
    #[inline]
    pub fn vorticity(&self, u: &[V4F64; NP], v: &[V4F64; NP]) -> [V4F64; NP] {
        let mut ucov = [V4F64::zero(); NP];
        let mut vcov = [V4F64::zero(); NP];
        for r in 0..NP {
            ucov[r] = self.d[0][0][r] * u[r] + self.d[1][0][r] * v[r];
            vcov[r] = self.d[0][1][r] * u[r] + self.d[1][1][r] * v[r];
        }
        let mut vort = [V4F64::zero(); NP];
        for i in 0..NP {
            let mut dv_da = V4F64::zero();
            let mut du_db = V4F64::zero();
            for k in 0..NP {
                dv_da = dv_da + V4F64::splat(self.dvv[i][k]) * vcov[k];
                du_db = du_db + self.dvvt[k] * V4F64::splat(ucov[i][k]);
            }
            vort[i] = (dv_da - du_db) * self.dscale * self.rmetdet[i];
        }
        vort
    }

    /// Weak-form scalar Laplacian ([`ElemOps::laplace_sphere_wk`]): the two
    /// contraction loops stay sequential (all `i` terms, then all `j`
    /// terms), matching the scalar accumulation order.
    #[inline]
    pub fn laplace_wk(&self, s: &[V4F64; NP]) -> [V4F64; NP] {
        let (gx, gy) = self.gradient(s);
        let mut c1 = [V4F64::zero(); NP];
        let mut c2 = [V4F64::zero(); NP];
        for r in 0..NP {
            c1[r] = self.spheremp[r] * (self.dinv[0][0][r] * gx[r] + self.dinv[0][1][r] * gy[r]);
            c2[r] = self.spheremp[r] * (self.dinv[1][0][r] * gx[r] + self.dinv[1][1][r] * gy[r]);
        }
        let mut out = [V4F64::zero(); NP];
        for a in 0..NP {
            let mut acc = V4F64::zero();
            for i in 0..NP {
                acc = acc + V4F64::splat(self.dvv[i][a]) * c1[i];
            }
            for j in 0..NP {
                acc = acc + self.dvv[j] * V4F64::splat(c2[a][j]);
            }
            out[a] = acc * (-self.dscale) / self.spheremp[a];
        }
        out
    }

    /// Curl of a row-blocked scalar field ([`ElemOps::curl_sphere`]).
    #[inline]
    pub fn curl(&self, psi: &[V4F64; NP]) -> ([V4F64; NP], [V4F64; NP]) {
        let (da, db) = self.deriv_ab(psi);
        let mut cx = [V4F64::zero(); NP];
        let mut cy = [V4F64::zero(); NP];
        for r in 0..NP {
            let c1 = db[r] * self.rmetdet[r];
            let c2 = -da[r] * self.rmetdet[r];
            cx[r] = self.d[0][0][r] * c1 + self.d[0][1][r] * c2;
            cy[r] = self.d[1][0][r] * c1 + self.d[1][1][r] * c2;
        }
        (cx, cy)
    }

    /// Vector Laplacian via `grad(div) - curl(vort)` ([`ElemOps::vlaplace_sphere`]).
    #[inline]
    pub fn vlaplace(&self, u: &[V4F64; NP], v: &[V4F64; NP]) -> ([V4F64; NP], [V4F64; NP]) {
        let div = self.divergence(u, v);
        let vort = self.vorticity(u, v);
        let (gdx, gdy) = self.gradient(&div);
        let (cx, cy) = self.curl(&vort);
        let mut lu = [V4F64::zero(); NP];
        let mut lv = [V4F64::zero(); NP];
        for r in 0..NP {
            lu[r] = gdx[r] - cx[r];
            lv[r] = gdy[r] - cy[r];
        }
        (lu, lv)
    }
}

/// Repack the operator tables of every element.
pub fn build_blocked_ops(ops: &[ElemOps]) -> Vec<BlockedOps> {
    ops.iter().map(BlockedOps::new).collect()
}

/// Fused blocked RHS: scans + horizontal operators + omega scan + tendency
/// apply for one element, in one pass per level.
///
/// Replaces `element_rhs_raw` followed by the `out = base + c_dt * tend`
/// apply loop. Only the scan buffers of `scratch` are used; the
/// `divdp`/`vgrad_p`/`omega_p` arrays and the tendency buffers of the
/// scalar pipeline never materialize.
#[allow(clippy::too_many_arguments)]
pub fn element_rhs_apply_blocked(
    bop: &BlockedOps,
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
    pressure_scan_blocked(nlev, ptop, eval_dp3d, &mut scratch.p_int, &mut scratch.p_mid);
    geopotential_scan_blocked(
        nlev,
        phis,
        eval_t,
        &scratch.p_int,
        &scratch.p_mid,
        &mut scratch.phi_mid,
    );

    let kappa = RD / CP;
    let half = V4F64::splat(0.5);
    // Running omega accumulator: sum of divdp over the levels above.
    let mut acc = [V4F64::zero(); NP];
    for k in 0..nlev {
        let o = k * NPTS;
        let u = load_rows(&eval_u[o..]);
        let v = load_rows(&eval_v[o..]);
        let t = load_rows(&eval_t[o..]);
        let dp = load_rows(&eval_dp3d[o..]);
        let pm = load_rows(&scratch.p_mid[o..]);
        let phi = load_rows(&scratch.phi_mid[o..]);

        let mut energy = [V4F64::zero(); NP];
        let mut gv1 = [V4F64::zero(); NP];
        let mut gv2 = [V4F64::zero(); NP];
        let mut ucov = [V4F64::zero(); NP];
        let mut vcov = [V4F64::zero(); NP];
        for r in 0..NP {
            let udp = u[r] * dp[r];
            let vdp = v[r] * dp[r];
            energy[r] = phi[r] + half * (u[r] * u[r] + v[r] * v[r]);
            let c1 = bop.dinv[0][0][r] * udp + bop.dinv[0][1][r] * vdp;
            let c2 = bop.dinv[1][0][r] * udp + bop.dinv[1][1][r] * vdp;
            gv1[r] = bop.metdet[r] * c1;
            gv2[r] = bop.metdet[r] * c2;
            ucov[r] = bop.d[0][0][r] * u[r] + bop.d[1][0][r] * v[r];
            vcov[r] = bop.d[0][1][r] * u[r] + bop.d[1][1][r] * v[r];
        }
        // Fused contraction: the five operator evaluations of the level
        // body (divergence of the mass flux, vorticity, and the gradients
        // of p_mid, energy and t — one grad(p_mid) feeds both the omega
        // term and the pressure force, which the scalar pipeline evaluates
        // twice) share a single (i, k) coefficient walk. Each output keeps
        // its own accumulators updated in the standalone operator's exact
        // order, so the committed bits are unchanged; fusing amortizes the
        // coefficient broadcasts and hands the CPU nine independent
        // dependency chains to pipeline instead of one or two.
        let mut divdp = [V4F64::zero(); NP];
        let mut vort = [V4F64::zero(); NP];
        let mut gpx = [V4F64::zero(); NP];
        let mut gpy = [V4F64::zero(); NP];
        let mut gex = [V4F64::zero(); NP];
        let mut gey = [V4F64::zero(); NP];
        let mut gtx = [V4F64::zero(); NP];
        let mut gty = [V4F64::zero(); NP];
        for i in 0..NP {
            let mut acc_div = V4F64::zero();
            let mut dv_da = V4F64::zero();
            let mut du_db = V4F64::zero();
            let mut pm_a = V4F64::zero();
            let mut pm_b = V4F64::zero();
            let mut en_a = V4F64::zero();
            let mut en_b = V4F64::zero();
            let mut t_a = V4F64::zero();
            let mut t_b = V4F64::zero();
            for kk in 0..NP {
                let ca = V4F64::splat(bop.dvv[i][kk]);
                let cb = bop.dvvt[kk];
                acc_div = acc_div + ca * gv1[kk];
                acc_div = acc_div + cb * V4F64::splat(gv2[i][kk]);
                dv_da = dv_da + ca * vcov[kk];
                du_db = du_db + cb * V4F64::splat(ucov[i][kk]);
                pm_a = pm_a + ca * pm[kk];
                pm_b = pm_b + cb * V4F64::splat(pm[i][kk]);
                en_a = en_a + ca * energy[kk];
                en_b = en_b + cb * V4F64::splat(energy[i][kk]);
                t_a = t_a + ca * t[kk];
                t_b = t_b + cb * V4F64::splat(t[i][kk]);
            }
            divdp[i] = acc_div * bop.dscale * bop.rmetdet[i];
            vort[i] = (dv_da - du_db) * bop.dscale * bop.rmetdet[i];
            let (da, db) = (pm_a * bop.dscale, pm_b * bop.dscale);
            gpx[i] = bop.dinv[0][0][i] * da + bop.dinv[1][0][i] * db;
            gpy[i] = bop.dinv[0][1][i] * da + bop.dinv[1][1][i] * db;
            let (da, db) = (en_a * bop.dscale, en_b * bop.dscale);
            gex[i] = bop.dinv[0][0][i] * da + bop.dinv[1][0][i] * db;
            gey[i] = bop.dinv[0][1][i] * da + bop.dinv[1][1][i] * db;
            let (da, db) = (t_a * bop.dscale, t_b * bop.dscale);
            gtx[i] = bop.dinv[0][0][i] * da + bop.dinv[1][0][i] * db;
            gty[i] = bop.dinv[0][1][i] * da + bop.dinv[1][1][i] * db;
        }

        for r in 0..NP {
            let ro = o + r * NP;
            let vgrad = u[r] * gpx[r] + v[r] * gpy[r];
            let omega = (vgrad - acc[r] - half * divdp[r]) / pm[r];
            acc[r] = acc[r] + divdp[r];
            let abs_vort = bop.fcor[r] + vort[r];
            let rtp = V4F64::splat(RD) * t[r] / pm[r];
            let tend_u = abs_vort * v[r] - gex[r] - rtp * gpx[r];
            let tend_v = -abs_vort * u[r] - gey[r] - rtp * gpy[r];
            let tend_t = -(u[r] * gtx[r] + v[r] * gty[r]) + V4F64::splat(kappa) * t[r] * omega;
            let tend_dp = -divdp[r];
            (V4F64::load(&base_u[ro..]) + tend_u * c_dt).store(&mut out_u[ro..]);
            (V4F64::load(&base_v[ro..]) + tend_v * c_dt).store(&mut out_v[ro..]);
            (V4F64::load(&base_t[ro..]) + tend_t * c_dt).store(&mut out_t[ro..]);
            (V4F64::load(&base_dp3d[ro..]) + tend_dp * c_dt).store(&mut out_dp3d[ro..]);
        }
    }
}

/// Tracers per flux-divergence batch of [`euler_stage_element_blocked`],
/// and per chunk of the driver's cache-resident tracer stage
/// ([`crate::prim::Dycore::euler_step_tracers`]).
pub(crate) const QCHUNK: usize = 4;

/// One blocked Euler tracer stage over one element: flux divergence,
/// forward-Euler update, and SSP stage combination fused into a single
/// pass, with the `u*dp`/`v*dp` mass fluxes hoisted out of the tracer loop.
///
/// `qdp_in` is the stage input, `q0` the stage-0 tracer mass (ignored for
/// [`StageCombine::Replace`]), `qdp_out` the combined stage output. Slices
/// are `[qsize][nlev][NPTS]` for the tracer arenas and `[nlev][NPTS]` for
/// the dynamics fields.
#[allow(clippy::too_many_arguments)]
pub fn euler_stage_element_blocked(
    bop: &BlockedOps,
    nlev: usize,
    qsize: usize,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp_in: &[f64],
    q0: &[f64],
    dt: f64,
    combine: StageCombine,
    qdp_out: &mut [f64],
) {
    for k in 0..nlev {
        let o = k * NPTS;
        let ur = load_rows(&u[o..]);
        let vr = load_rows(&v[o..]);
        let dpr = load_rows(&dp[o..]);
        let mut udp = [V4F64::zero(); NP];
        let mut vdp = [V4F64::zero(); NP];
        for r in 0..NP {
            udp[r] = ur[r] * dpr[r];
            vdp[r] = vr[r] * dpr[r];
        }
        // Tracers go through the divergence QCHUNK at a time, one (i, k)
        // coefficient walk per chunk. Each tracer keeps its own interleaved
        // accumulator updated in the one-tracer kernel's exact order, so
        // the committed bits don't move. The width buys little speed:
        // widths 1 and 2 time within noise of 4, and 8 is slower
        // (DESIGN.md §5.12); 4 is kept as the driver's chunk width.
        let mut q = 0;
        while q < qsize {
            let m = (qsize - q).min(QCHUNK);
            let mut qin = [[V4F64::zero(); NP]; QCHUNK];
            let mut gv1 = [[V4F64::zero(); NP]; QCHUNK];
            let mut gv2 = [[V4F64::zero(); NP]; QCHUNK];
            for t in 0..m {
                let qo = ((q + t) * nlev + k) * NPTS;
                let qr = load_rows(&qdp_in[qo..]);
                for r in 0..NP {
                    let qv = qr[r] / dpr[r];
                    let fx = udp[r] * qv;
                    let fy = vdp[r] * qv;
                    let c1 = bop.dinv[0][0][r] * fx + bop.dinv[0][1][r] * fy;
                    let c2 = bop.dinv[1][0][r] * fx + bop.dinv[1][1][r] * fy;
                    gv1[t][r] = bop.metdet[r] * c1;
                    gv2[t][r] = bop.metdet[r] * c2;
                }
                qin[t] = qr;
            }
            for i in 0..NP {
                let mut acc = [V4F64::zero(); QCHUNK];
                for kk in 0..NP {
                    let ca = V4F64::splat(bop.dvv[i][kk]);
                    let cb = bop.dvvt[kk];
                    for (t, a) in acc.iter_mut().enumerate().take(m) {
                        *a = *a + ca * gv1[t][kk];
                        *a = *a + cb * V4F64::splat(gv2[t][i][kk]);
                    }
                }
                for (t, a) in acc.iter().enumerate().take(m) {
                    let div = *a * bop.dscale * bop.rmetdet[i];
                    let stage = qin[t][i] + (-div) * dt;
                    let qo = ((q + t) * nlev + k) * NPTS + i * NP;
                    let out = match combine {
                        StageCombine::Replace => stage,
                        StageCombine::Ssp2 => {
                            let q0r = V4F64::load(&q0[qo..]);
                            q0r * 0.75 + stage * 0.25
                        }
                        StageCombine::Ssp3 => {
                            let q0r = V4F64::load(&q0[qo..]);
                            q0r / V4F64::splat(3.0) + stage * (2.0 / 3.0)
                        }
                    };
                    out.store(&mut qdp_out[qo..]);
                }
            }
            q += m;
        }
    }
}

/// In-place blocked weak Laplacian over every level of one element field.
pub fn laplace_levels_blocked(bop: &BlockedOps, nlev: usize, field: &mut [f64]) {
    for k in 0..nlev {
        let o = k * NPTS;
        let rows = load_rows(&field[o..]);
        let lap = bop.laplace_wk(&rows);
        store_rows(&lap, &mut field[o..]);
    }
}

/// In-place blocked vector Laplacian over every level of one element's
/// `(u, v)` fields.
pub fn vlaplace_levels_blocked(bop: &BlockedOps, nlev: usize, u: &mut [f64], v: &mut [f64]) {
    for k in 0..nlev {
        let o = k * NPTS;
        let ur = load_rows(&u[o..]);
        let vr = load_rows(&v[o..]);
        let (lu, lv) = bop.vlaplace(&ur, &vr);
        store_rows(&lu, &mut u[o..]);
        store_rows(&lv, &mut v[o..]);
    }
}

/// Fused hyperviscosity Laplacian: the vector Laplacian of `(u, v)` and
/// `NS` scalar weak Laplacians through **two** shared coefficient walks
/// instead of the 2 + 2·NS walks of the standalone operators.
///
/// This is the paper's `hypervis_dp1/dp2` data-reuse move on the host: one
/// subcycle pass touches four fields (u, v, t, dp3d), and every one of them
/// contracts against the same `dvv`/`dvvt` tables and the same
/// metric rows. Walk 1 evaluates the divergence/vorticity contractions and
/// each scalar's `deriv_ab` under one `(i, kk)` coefficient broadcast, then
/// finishes the scalars' first weak-form contraction (`spheremp`-weighted
/// contravariant flux) per output row. Walk 2 evaluates the scalars' second
/// weak-form contraction together with `grad(div)` and `curl(vort)` under
/// one `(a, i)` broadcast (plus the scalars' trailing `j` contraction).
///
/// Every accumulator is private to one output and is updated in its
/// standalone operator's exact term order — `divergence` and `vorticity`
/// interleave their two contraction directions per `kk`, `laplace_wk` keeps
/// its `i`-terms strictly before its `j`-terms, `deriv_ab` interleaves per
/// `k` — so the committed bits are identical to calling [`BlockedOps::vlaplace`]
/// and [`BlockedOps::laplace_wk`] back to back. The fusion only amortizes
/// coefficient broadcasts and hands the CPU 2 + 3·NS independent dependency
/// chains per walk.
#[inline]
pub fn vlaplace_scalars_blocked<const NS: usize>(
    bop: &BlockedOps,
    u: &[V4F64; NP],
    v: &[V4F64; NP],
    s: &[[V4F64; NP]; NS],
) -> ([V4F64; NP], [V4F64; NP], [[V4F64; NP]; NS]) {
    // Walk-1 prologue: contravariant mass flux of (u, v) for the divergence
    // and the covariant components for the vorticity, per row.
    let mut gv1 = [V4F64::zero(); NP];
    let mut gv2 = [V4F64::zero(); NP];
    let mut ucov = [V4F64::zero(); NP];
    let mut vcov = [V4F64::zero(); NP];
    for r in 0..NP {
        let c1 = bop.dinv[0][0][r] * u[r] + bop.dinv[0][1][r] * v[r];
        let c2 = bop.dinv[1][0][r] * u[r] + bop.dinv[1][1][r] * v[r];
        gv1[r] = bop.metdet[r] * c1;
        gv2[r] = bop.metdet[r] * c2;
        ucov[r] = bop.d[0][0][r] * u[r] + bop.d[1][0][r] * v[r];
        vcov[r] = bop.d[0][1][r] * u[r] + bop.d[1][1][r] * v[r];
    }
    // Walk 1: div + vort + every scalar's weak-gradient fluxes under one
    // coefficient broadcast.
    let mut div = [V4F64::zero(); NP];
    let mut vort = [V4F64::zero(); NP];
    let mut c1s = [[V4F64::zero(); NP]; NS];
    let mut c2s = [[V4F64::zero(); NP]; NS];
    for i in 0..NP {
        let mut acc_div = V4F64::zero();
        let mut dv_da = V4F64::zero();
        let mut du_db = V4F64::zero();
        let mut s_a = [V4F64::zero(); NS];
        let mut s_b = [V4F64::zero(); NS];
        for kk in 0..NP {
            let ca = V4F64::splat(bop.dvv[i][kk]);
            let cb = bop.dvvt[kk];
            acc_div = acc_div + ca * gv1[kk];
            acc_div = acc_div + cb * V4F64::splat(gv2[i][kk]);
            dv_da = dv_da + ca * vcov[kk];
            du_db = du_db + cb * V4F64::splat(ucov[i][kk]);
            for t in 0..NS {
                s_a[t] = s_a[t] + ca * s[t][kk];
                s_b[t] = s_b[t] + cb * V4F64::splat(s[t][i][kk]);
            }
        }
        div[i] = acc_div * bop.dscale * bop.rmetdet[i];
        vort[i] = (dv_da - du_db) * bop.dscale * bop.rmetdet[i];
        for t in 0..NS {
            let (da, db) = (s_a[t] * bop.dscale, s_b[t] * bop.dscale);
            let gx = bop.dinv[0][0][i] * da + bop.dinv[1][0][i] * db;
            let gy = bop.dinv[0][1][i] * da + bop.dinv[1][1][i] * db;
            c1s[t][i] = bop.spheremp[i] * (bop.dinv[0][0][i] * gx + bop.dinv[0][1][i] * gy);
            c2s[t][i] = bop.spheremp[i] * (bop.dinv[1][0][i] * gx + bop.dinv[1][1][i] * gy);
        }
    }
    // Walk 2: the scalars' second weak-form contraction, grad(div) and
    // curl(vort) under one coefficient broadcast. The scalar `laplace_wk`
    // keeps its two contraction loops sequential (all `i` terms, then all
    // `j` terms) — `acc` honours that; `grad`/`curl` interleave per index
    // exactly as `deriv_ab` does.
    let mut lu = [V4F64::zero(); NP];
    let mut lv = [V4F64::zero(); NP];
    let mut ls = [[V4F64::zero(); NP]; NS];
    for a in 0..NP {
        let mut acc = [V4F64::zero(); NS];
        let mut d_a = V4F64::zero();
        let mut d_b = V4F64::zero();
        let mut v_a = V4F64::zero();
        let mut v_b = V4F64::zero();
        for i in 0..NP {
            let ci = V4F64::splat(bop.dvv[i][a]);
            for t in 0..NS {
                acc[t] = acc[t] + ci * c1s[t][i];
            }
            let ca = V4F64::splat(bop.dvv[a][i]);
            let cb = bop.dvvt[i];
            d_a = d_a + ca * div[i];
            d_b = d_b + cb * V4F64::splat(div[a][i]);
            v_a = v_a + ca * vort[i];
            v_b = v_b + cb * V4F64::splat(vort[a][i]);
        }
        for j in 0..NP {
            let cj = bop.dvv[j];
            for t in 0..NS {
                acc[t] = acc[t] + cj * V4F64::splat(c2s[t][a][j]);
            }
        }
        for t in 0..NS {
            ls[t][a] = acc[t] * (-bop.dscale) / bop.spheremp[a];
        }
        let (da, db) = (d_a * bop.dscale, d_b * bop.dscale);
        let gdx = bop.dinv[0][0][a] * da + bop.dinv[1][0][a] * db;
        let gdy = bop.dinv[0][1][a] * da + bop.dinv[1][1][a] * db;
        let (da, db) = (v_a * bop.dscale, v_b * bop.dscale);
        let cc1 = db * bop.rmetdet[a];
        let cc2 = -da * bop.rmetdet[a];
        let cx = bop.d[0][0][a] * cc1 + bop.d[0][1][a] * cc2;
        let cy = bop.d[1][0][a] * cc1 + bop.d[1][1][a] * cc2;
        lu[a] = gdx - cx;
        lv[a] = gdy - cy;
    }
    (lu, lv, ls)
}

/// One fused hyperviscosity Laplacian pass over every level of one element,
/// out of place: `(ou, ov, ot, odp) = (vlaplace(su, sv), lap(st), lap(sdp))`
/// with all four fields batched through the two shared coefficient walks of
/// [`vlaplace_scalars_blocked`]. Bitwise identical to
/// [`vlaplace_levels_blocked`] + 2× [`laplace_levels_blocked`] on copies.
#[allow(clippy::too_many_arguments)]
pub fn hypervis_pass_element_blocked(
    bop: &BlockedOps,
    nlev: usize,
    su: &[f64],
    sv: &[f64],
    st: &[f64],
    sdp: &[f64],
    ou: &mut [f64],
    ov: &mut [f64],
    ot: &mut [f64],
    odp: &mut [f64],
) {
    for k in 0..nlev {
        let o = k * NPTS;
        let u = load_rows(&su[o..]);
        let v = load_rows(&sv[o..]);
        let s = [load_rows(&st[o..]), load_rows(&sdp[o..])];
        let (lu, lv, ls) = vlaplace_scalars_blocked(bop, &u, &v, &s);
        store_rows(&lu, &mut ou[o..]);
        store_rows(&lv, &mut ov[o..]);
        store_rows(&ls[0], &mut ot[o..]);
        store_rows(&ls[1], &mut odp[o..]);
    }
}

/// In-place variant of [`hypervis_pass_element_blocked`] for the second
/// (biharmonic) pass, where the DSS'd first-pass Laplacians are overwritten
/// with their own Laplacians.
pub fn hypervis_pass_levels_blocked(
    bop: &BlockedOps,
    nlev: usize,
    u: &mut [f64],
    v: &mut [f64],
    t: &mut [f64],
    dp: &mut [f64],
) {
    for k in 0..nlev {
        let o = k * NPTS;
        let ur = load_rows(&u[o..]);
        let vr = load_rows(&v[o..]);
        let s = [load_rows(&t[o..]), load_rows(&dp[o..])];
        let (lu, lv, ls) = vlaplace_scalars_blocked(bop, &ur, &vr, &s);
        store_rows(&lu, &mut u[o..]);
        store_rows(&lv, &mut v[o..]);
        store_rows(&ls[0], &mut t[o..]);
        store_rows(&ls[1], &mut dp[o..]);
    }
}

/// Fused sponge-layer Laplacian over the top `ks` levels of one element,
/// out of place: the vector Laplacian of `(su, sv)` and the weak Laplacian
/// of `st` share the two coefficient walks (`NS = 1`). Bitwise identical to
/// [`vlaplace_levels_blocked`] + [`laplace_levels_blocked`] on copies.
#[allow(clippy::too_many_arguments)]
pub fn sponge_pass_element_blocked(
    bop: &BlockedOps,
    ks: usize,
    su: &[f64],
    sv: &[f64],
    st: &[f64],
    ou: &mut [f64],
    ov: &mut [f64],
    ot: &mut [f64],
) {
    for k in 0..ks {
        let o = k * NPTS;
        let u = load_rows(&su[o..]);
        let v = load_rows(&sv[o..]);
        let s = [load_rows(&st[o..])];
        let (lu, lv, ls) = vlaplace_scalars_blocked(bop, &u, &v, &s);
        store_rows(&lu, &mut ou[o..]);
        store_rows(&lv, &mut ov[o..]);
        store_rows(&ls[0], &mut ot[o..]);
    }
}

/// PPM reconstruction coefficients of one field from a prebuilt
/// [`ElemRemapPlan`], 4-wide over the GLL points: the interface values come
/// from the plan's precomputed interpolation weights (the per-interface
/// division the oracle repeats for every field is already paid), then the
/// monotonicity limiter runs per lane and the parabola is stored in the
/// apply form `a_l` / `0.5*(a_r - a_l)` / `a6` — exactly the products the
/// oracle's `cell_mass` forms first, so the walk stays bitwise identical.
fn ppm_coeffs_planned(
    plan: &ElemRemapPlan,
    nlev: usize,
    vals: &[f64],
    ae: &mut [f64],
    a_l: &mut [f64],
    hda: &mut [f64],
    a6: &mut [f64],
) {
    // Interface values: ae[0]/ae[nlev] copy the boundary cells; interior
    // interfaces are the thickness-weighted interpolation, one V4F64 row at
    // a time in the native [nlev][NPTS] layout (no transposition needed —
    // four adjacent GLL points are already contiguous).
    ae[..NPTS].copy_from_slice(&vals[..NPTS]);
    ae[nlev * NPTS..(nlev + 1) * NPTS].copy_from_slice(&vals[(nlev - 1) * NPTS..nlev * NPTS]);
    for k in 1..nlev {
        let o = k * NPTS;
        for r in 0..NP {
            let wl = V4F64::load(&plan.wl[o + r * NP..]);
            let wr = V4F64::load(&plan.wr[o + r * NP..]);
            let above = V4F64::load(&vals[o - NPTS + r * NP..]);
            let below = V4F64::load(&vals[o + r * NP..]);
            (wl * above + wr * below).store(&mut ae[o + r * NP..]);
        }
    }
    // Monotonicity limiter + coefficient extraction (branchy, so per lane;
    // the expressions are the oracle's character for character).
    for i in 0..nlev * NPTS {
        let a = vals[i];
        let mut l = ae[i];
        let mut r = ae[i + NPTS];
        if (r - a) * (a - l) <= 0.0 {
            // Local extremum: flatten.
            l = a;
            r = a;
        } else {
            let d = r - l;
            let c = a - 0.5 * (l + r);
            if d * c > d * d / 6.0 {
                l = 3.0 * a - 2.0 * r;
            } else if -(d * d) / 6.0 > d * c {
                r = 3.0 * a - 2.0 * l;
            }
        }
        a_l[i] = l;
        hda[i] = 0.5 * (r - l);
        a6[i] = 6.0 * (a - 0.5 * (l + r));
    }
}

/// Mass of source cell `k` (thickness `sdp`) from its top down to local
/// coordinate `xi`, with the geometry polynomial `q` pre-evaluated by the
/// plan: `sdp * ((a_l*xi + (0.5*da*xi)*xi) + a6*q)` — the oracle's
/// `cell_mass` with identical association.
#[inline(always)]
fn seg_mass(sdp: f64, al: f64, hd: f64, a6: f64, xi: f64, q: f64) -> f64 {
    sdp * ((al * xi + (hd * xi) * xi) + a6 * q)
}

/// Integrate up to [`REMAP_CHUNK`] dynamics fields through one shared
/// geometry walk: every overlap segment is visited once and its `cell_mass`
/// difference applied to all batched fields (the paper's §6 tracer-loop
/// data reuse). `outs[t]` receives `mass/dp_dst` in place.
fn apply_walk_fields(
    plan: &ElemRemapPlan,
    nlev: usize,
    src_dp: &[f64],
    a_l: &[f64],
    hda: &[f64],
    a6: &[f64],
    outs: &mut [&mut [f64]],
) {
    let m = outs.len();
    debug_assert!(m <= REMAP_CHUNK);
    let fl = nlev * NPTS;
    let mut s0 = 0usize;
    for p in 0..NPTS {
        for j in 0..nlev {
            let end = plan.seg_end[p * nlev + j] as usize;
            let mut mass = [0.0f64; REMAP_CHUNK];
            for seg in &plan.segs[s0..end] {
                let i = seg.k as usize * NPTS + p;
                let sdp = src_dp[i];
                for (t, acc) in mass[..m].iter_mut().enumerate() {
                    let o = t * fl + i;
                    *acc += seg_mass(sdp, a_l[o], hda[o], a6[o], seg.xi2, seg.q2)
                        - seg_mass(sdp, a_l[o], hda[o], a6[o], seg.xi1, seg.q1);
                }
            }
            s0 = end;
            let o = j * NPTS + p;
            let dpj = plan.dst_dp[o];
            for (t, out) in outs.iter_mut().enumerate() {
                out[o] = mass[t] / dpj;
            }
        }
    }
}

/// Tracer variant of [`apply_walk_fields`]: `out` is a contiguous
/// `[m][nlev][NPTS]` tracer-mass window and each remapped mixing ratio is
/// scaled back to mass by the target thickness, exactly as the oracle does
/// (`(mass/dp) * dp` is kept as division-then-multiply for bit parity).
#[allow(clippy::too_many_arguments)]
fn apply_walk_tracers(
    plan: &ElemRemapPlan,
    nlev: usize,
    src_dp: &[f64],
    m: usize,
    a_l: &[f64],
    hda: &[f64],
    a6: &[f64],
    out: &mut [f64],
) {
    debug_assert!(m <= REMAP_CHUNK);
    let fl = nlev * NPTS;
    let mut s0 = 0usize;
    for p in 0..NPTS {
        for j in 0..nlev {
            let end = plan.seg_end[p * nlev + j] as usize;
            let mut mass = [0.0f64; REMAP_CHUNK];
            for seg in &plan.segs[s0..end] {
                let i = seg.k as usize * NPTS + p;
                let sdp = src_dp[i];
                for (t, acc) in mass[..m].iter_mut().enumerate() {
                    let o = t * fl + i;
                    *acc += seg_mass(sdp, a_l[o], hda[o], a6[o], seg.xi2, seg.q2)
                        - seg_mass(sdp, a_l[o], hda[o], a6[o], seg.xi1, seg.q1);
                }
            }
            s0 = end;
            let o = j * NPTS + p;
            let dpj = plan.dst_dp[o];
            for (t, &acc) in mass[..m].iter().enumerate() {
                out[t * fl + o] = (acc / dpj) * dpj;
            }
        }
    }
}

/// Planned per-element vertical remap: the coefficient-apply pass over a
/// prebuilt [`ElemRemapPlan`]. `u`/`v`/`t` share one geometry walk; tracers
/// are divided to mixing ratio 4-wide, batched [`REMAP_CHUNK`] at a time
/// through further shared walks (mirroring
/// [`euler_stage_element_blocked`]'s tracer chunking), and scaled back to
/// mass; finally the plan's target thicknesses become the new `dp3d`.
/// Infallible — every verdict was raised by [`ElemRemapPlan::build`].
/// Bitwise identical to [`crate::remap::remap_element_scalar`].
#[allow(clippy::too_many_arguments)]
pub fn remap_element_planned(
    plan: &ElemRemapPlan,
    nlev: usize,
    qsize: usize,
    u: &mut [f64],
    v: &mut [f64],
    t: &mut [f64],
    dp3d: &mut [f64],
    qdp: &mut [f64],
    s: &mut RemapApplyScratch,
) {
    debug_assert_eq!(plan.nlev, nlev);
    let fl = nlev * NPTS;
    // Dynamics fields: three coefficient passes, one shared geometry walk.
    // The walk reads only the extracted coefficients and `dp3d` (still the
    // source grid), so writing u/v/t in place is safe.
    ppm_coeffs_planned(plan, nlev, u, &mut s.ae, &mut s.a_l[..fl], &mut s.hda[..fl], &mut s.a6[..fl]);
    ppm_coeffs_planned(
        plan,
        nlev,
        v,
        &mut s.ae,
        &mut s.a_l[fl..2 * fl],
        &mut s.hda[fl..2 * fl],
        &mut s.a6[fl..2 * fl],
    );
    ppm_coeffs_planned(
        plan,
        nlev,
        t,
        &mut s.ae,
        &mut s.a_l[2 * fl..3 * fl],
        &mut s.hda[2 * fl..3 * fl],
        &mut s.a6[2 * fl..3 * fl],
    );
    apply_walk_fields(plan, nlev, dp3d, &s.a_l, &s.hda, &s.a6, &mut [u, v, t]);
    // Tracers, REMAP_CHUNK per walk, remapped as mixing ratio so tracer
    // *mass* is conserved.
    let mut q0 = 0;
    while q0 < qsize {
        let m = REMAP_CHUNK.min(qsize - q0);
        for c in 0..m {
            let val = &mut s.val[c * fl..(c + 1) * fl];
            let qsrc = &qdp[(q0 + c) * fl..(q0 + c + 1) * fl];
            for ((o, &qv), &dv) in val.iter_mut().zip(qsrc).zip(dp3d.iter()) {
                *o = qv / dv;
            }
        }
        for c in 0..m {
            let (al, hd, a6) = (
                &mut s.a_l[c * fl..(c + 1) * fl],
                &mut s.hda[c * fl..(c + 1) * fl],
                &mut s.a6[c * fl..(c + 1) * fl],
            );
            ppm_coeffs_planned(plan, nlev, &s.val[c * fl..(c + 1) * fl], &mut s.ae, al, hd, a6);
        }
        apply_walk_tracers(
            plan,
            nlev,
            dp3d,
            m,
            &s.a_l,
            &s.hda,
            &s.a6,
            &mut qdp[q0 * fl..(q0 + m) * fl],
        );
        q0 += m;
    }
    // Install the target grid.
    dp3d.copy_from_slice(&plan.dst_dp[..fl]);
}

/// Single-field planned apply (the [`crate::remap::remap_field_with`]
/// back end): one coefficient pass, one walk, in place. `src_dp` must be
/// the `[nlev][NPTS]` source-thickness arena the plan was built from.
pub fn remap_field_planned(
    plan: &ElemRemapPlan,
    nlev: usize,
    src_dp: &[f64],
    field: &mut [f64],
    s: &mut RemapApplyScratch,
) {
    debug_assert_eq!(plan.nlev, nlev);
    let fl = nlev * NPTS;
    ppm_coeffs_planned(plan, nlev, field, &mut s.ae, &mut s.a_l[..fl], &mut s.hda[..fl], &mut s.a6[..fl]);
    apply_walk_fields(plan, nlev, src_dp, &s.a_l, &s.hda, &s.a6, &mut [field]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deriv::build_ops;
    use crate::euler::tracer_flux_divergence;
    use crate::rhs::element_rhs_raw;
    use cubesphere::CubedSphere;

    /// Deterministic pseudo-random field values in a physical-ish range.
    fn lcg_field(n: usize, seed: &mut u64, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((*seed >> 11) as f64) / ((1u64 << 53) as f64);
                lo + u * (hi - lo)
            })
            .collect()
    }

    fn test_ops() -> Vec<ElemOps> {
        build_ops(&CubedSphere::new(2))
    }

    #[test]
    fn horizontal_operators_match_scalar_bitwise() {
        let ops = test_ops();
        let mut seed = 0x1234_5678_9abc_def0u64;
        for op in &ops {
            let bop = BlockedOps::new(op);
            let s = lcg_field(NPTS, &mut seed, -50.0, 50.0);
            let u = lcg_field(NPTS, &mut seed, -40.0, 40.0);
            let v = lcg_field(NPTS, &mut seed, -40.0, 40.0);

            let mut da = [0.0; NPTS];
            let mut db = [0.0; NPTS];
            op.deriv_ab(&s, &mut da, &mut db);
            let srows = load_rows(&s);
            let (bda, bdb) = bop.deriv_ab(&srows);
            let mut got = [0.0; NPTS];
            store_rows(&bda, &mut got);
            assert_eq!(da.map(f64::to_bits), got.map(f64::to_bits), "deriv da");
            store_rows(&bdb, &mut got);
            assert_eq!(db.map(f64::to_bits), got.map(f64::to_bits), "deriv db");

            let mut gx = [0.0; NPTS];
            let mut gy = [0.0; NPTS];
            op.gradient_sphere(&s, &mut gx, &mut gy);
            let (bgx, bgy) = bop.gradient(&srows);
            store_rows(&bgx, &mut got);
            assert_eq!(gx.map(f64::to_bits), got.map(f64::to_bits), "grad x");
            store_rows(&bgy, &mut got);
            assert_eq!(gy.map(f64::to_bits), got.map(f64::to_bits), "grad y");

            let urows = load_rows(&u);
            let vrows = load_rows(&v);
            let mut div = [0.0; NPTS];
            op.divergence_sphere(&u, &v, &mut div);
            store_rows(&bop.divergence(&urows, &vrows), &mut got);
            assert_eq!(div.map(f64::to_bits), got.map(f64::to_bits), "div");

            let mut vort = [0.0; NPTS];
            op.vorticity_sphere(&u, &v, &mut vort);
            store_rows(&bop.vorticity(&urows, &vrows), &mut got);
            assert_eq!(vort.map(f64::to_bits), got.map(f64::to_bits), "vort");

            let mut lap = [0.0; NPTS];
            op.laplace_sphere_wk(&s, &mut lap);
            store_rows(&bop.laplace_wk(&srows), &mut got);
            assert_eq!(lap.map(f64::to_bits), got.map(f64::to_bits), "laplace_wk");

            let mut cx = [0.0; NPTS];
            let mut cy = [0.0; NPTS];
            op.curl_sphere(&s, &mut cx, &mut cy);
            let (bcx, bcy) = bop.curl(&srows);
            store_rows(&bcx, &mut got);
            assert_eq!(cx.map(f64::to_bits), got.map(f64::to_bits), "curl x");
            store_rows(&bcy, &mut got);
            assert_eq!(cy.map(f64::to_bits), got.map(f64::to_bits), "curl y");

            let mut lu = [0.0; NPTS];
            let mut lv = [0.0; NPTS];
            op.vlaplace_sphere(&u, &v, &mut lu, &mut lv);
            let (blu, blv) = bop.vlaplace(&urows, &vrows);
            store_rows(&blu, &mut got);
            assert_eq!(lu.map(f64::to_bits), got.map(f64::to_bits), "vlaplace u");
            store_rows(&blv, &mut got);
            assert_eq!(lv.map(f64::to_bits), got.map(f64::to_bits), "vlaplace v");
        }
    }

    #[test]
    fn fused_rhs_matches_scalar_raw_plus_apply_bitwise() {
        let ops = test_ops();
        let mut seed = 0xfeed_cafe_d00d_f00du64;
        for nlev in [1usize, 3, 26] {
            let n = nlev * NPTS;
            let op = &ops[seed as usize % ops.len()];
            let bop = BlockedOps::new(op);
            let u = lcg_field(n, &mut seed, -30.0, 30.0);
            let v = lcg_field(n, &mut seed, -30.0, 30.0);
            let t = lcg_field(n, &mut seed, 220.0, 310.0);
            let dp = lcg_field(n, &mut seed, 200.0, 900.0);
            let phis = lcg_field(NPTS, &mut seed, 0.0, 5000.0);
            let base_u = lcg_field(n, &mut seed, -30.0, 30.0);
            let base_v = lcg_field(n, &mut seed, -30.0, 30.0);
            let base_t = lcg_field(n, &mut seed, 220.0, 310.0);
            let base_dp = lcg_field(n, &mut seed, 200.0, 900.0);
            let (ptop, c_dt) = (225.0, 37.5);

            let mut scratch = RhsScratch::new(nlev);
            let mut tu = vec![0.0; n];
            let mut tv = vec![0.0; n];
            let mut tt = vec![0.0; n];
            let mut tdp = vec![0.0; n];
            element_rhs_raw(
                op, nlev, ptop, &u, &v, &t, &dp, &phis, &mut tu, &mut tv, &mut tt, &mut tdp,
                &mut scratch,
            );
            let apply = |b: &[f64], tn: &[f64]| -> Vec<f64> {
                b.iter().zip(tn).map(|(&b, &t)| b + c_dt * t).collect()
            };
            let (eu, ev, et, edp) =
                (apply(&base_u, &tu), apply(&base_v, &tv), apply(&base_t, &tt), apply(&base_dp, &tdp));

            let mut ou = vec![0.0; n];
            let mut ov = vec![0.0; n];
            let mut ot = vec![0.0; n];
            let mut odp = vec![0.0; n];
            element_rhs_apply_blocked(
                &bop, nlev, ptop, &u, &v, &t, &dp, &phis, &base_u, &base_v, &base_t, &base_dp,
                c_dt, &mut ou, &mut ov, &mut ot, &mut odp, &mut scratch,
            );
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&eu), bits(&ou), "nlev={nlev} u");
            assert_eq!(bits(&ev), bits(&ov), "nlev={nlev} v");
            assert_eq!(bits(&et), bits(&ot), "nlev={nlev} t");
            assert_eq!(bits(&edp), bits(&odp), "nlev={nlev} dp3d");
        }
    }

    /// The fused 4-field hypervis pass and the 3-field sponge pass are
    /// bitwise identical to the standalone blocked Laplacians they replace
    /// (which are themselves pinned against the scalar oracle above).
    #[test]
    fn fused_hypervis_pass_matches_unfused_blocked_bitwise() {
        let ops = test_ops();
        let mut seed = 0xbadc_ab1e_5eedu64;
        for nlev in [1usize, 3, 26] {
            let n = nlev * NPTS;
            let op = &ops[seed as usize % ops.len()];
            let bop = BlockedOps::new(op);
            let u = lcg_field(n, &mut seed, -40.0, 40.0);
            let v = lcg_field(n, &mut seed, -40.0, 40.0);
            let t = lcg_field(n, &mut seed, 220.0, 310.0);
            let dp = lcg_field(n, &mut seed, 200.0, 900.0);

            let (mut eu, mut ev, mut et, mut edp) =
                (u.clone(), v.clone(), t.clone(), dp.clone());
            vlaplace_levels_blocked(&bop, nlev, &mut eu, &mut ev);
            laplace_levels_blocked(&bop, nlev, &mut et);
            laplace_levels_blocked(&bop, nlev, &mut edp);

            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

            // Out-of-place pass.
            let mut ou = vec![0.0; n];
            let mut ov = vec![0.0; n];
            let mut ot = vec![0.0; n];
            let mut odp = vec![0.0; n];
            hypervis_pass_element_blocked(
                &bop, nlev, &u, &v, &t, &dp, &mut ou, &mut ov, &mut ot, &mut odp,
            );
            assert_eq!(bits(&eu), bits(&ou), "nlev={nlev} u");
            assert_eq!(bits(&ev), bits(&ov), "nlev={nlev} v");
            assert_eq!(bits(&et), bits(&ot), "nlev={nlev} t");
            assert_eq!(bits(&edp), bits(&odp), "nlev={nlev} dp3d");

            // In-place pass.
            let (mut iu, mut iv, mut it, mut idp) =
                (u.clone(), v.clone(), t.clone(), dp.clone());
            hypervis_pass_levels_blocked(&bop, nlev, &mut iu, &mut iv, &mut it, &mut idp);
            assert_eq!(bits(&eu), bits(&iu), "in-place nlev={nlev} u");
            assert_eq!(bits(&ev), bits(&iv), "in-place nlev={nlev} v");
            assert_eq!(bits(&et), bits(&it), "in-place nlev={nlev} t");
            assert_eq!(bits(&edp), bits(&idp), "in-place nlev={nlev} dp3d");

            // Sponge pass (3 fields, top `ks` levels only).
            for ks in [1usize, nlev] {
                let mut su = vec![0.0; ks * NPTS];
                let mut sv = vec![0.0; ks * NPTS];
                let mut stf = vec![0.0; ks * NPTS];
                sponge_pass_element_blocked(
                    &bop, ks, &u, &v, &t, &mut su, &mut sv, &mut stf,
                );
                assert_eq!(bits(&eu[..ks * NPTS]), bits(&su), "sponge nlev={nlev} ks={ks} u");
                assert_eq!(bits(&ev[..ks * NPTS]), bits(&sv), "sponge nlev={nlev} ks={ks} v");
                assert_eq!(bits(&et[..ks * NPTS]), bits(&stf), "sponge nlev={nlev} ks={ks} t");
            }
        }
    }

    #[test]
    fn euler_stage_matches_scalar_substep_and_combines_bitwise() {
        let ops = test_ops();
        let mut seed = 0x0dd_ba11u64;
        for (nlev, qsize) in [(1usize, 1usize), (3, 4), (26, 2)] {
            let n = nlev * NPTS;
            let tn = qsize * n;
            let op = &ops[(seed as usize) % ops.len()];
            let bop = BlockedOps::new(op);
            let u = lcg_field(n, &mut seed, -25.0, 25.0);
            let v = lcg_field(n, &mut seed, -25.0, 25.0);
            let dp = lcg_field(n, &mut seed, 300.0, 800.0);
            let qdp_in = lcg_field(tn, &mut seed, 0.0, 5.0);
            let q0 = lcg_field(tn, &mut seed, 0.0, 5.0);
            let dt = 45.0;

            // Scalar reference: per-tracer flux divergence, Euler update,
            // then the driver's stage-combination loop.
            let mut expect = vec![0.0; tn];
            for q in 0..qsize {
                for k in 0..nlev {
                    let r = k * NPTS..(k + 1) * NPTS;
                    let qo = (q * nlev + k) * NPTS;
                    let mut tend = [0.0; NPTS];
                    tracer_flux_divergence(
                        op,
                        &u[r.clone()],
                        &v[r.clone()],
                        &dp[r.clone()],
                        &qdp_in[qo..qo + NPTS],
                        &mut tend,
                    );
                    for p in 0..NPTS {
                        expect[qo + p] = qdp_in[qo + p] + dt * tend[p];
                    }
                }
            }
            for combine in [StageCombine::Replace, StageCombine::Ssp2, StageCombine::Ssp3] {
                let combined: Vec<f64> = match combine {
                    StageCombine::Replace => expect.clone(),
                    StageCombine::Ssp2 => {
                        q0.iter().zip(&expect).map(|(&q0, &t)| 0.75 * q0 + 0.25 * t).collect()
                    }
                    StageCombine::Ssp3 => {
                        q0.iter().zip(&expect).map(|(&q0, &t)| q0 / 3.0 + 2.0 / 3.0 * t).collect()
                    }
                };
                let mut got = vec![0.0; tn];
                euler_stage_element_blocked(
                    &bop, nlev, qsize, &u, &v, &dp, &qdp_in, &q0, dt, combine, &mut got,
                );
                assert_eq!(
                    combined.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "nlev={nlev} qsize={qsize} {combine:?}"
                );
            }
        }
    }
}
