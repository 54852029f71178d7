//! `euler_step`: tracer advection.
//!
//! "construct strong stability preserving (SSP) second order Runge–Kutta
//! method" (Table 1). Tracer mass `qdp` advances with the flux-form
//! equation `d(qdp)/dt = -div(v q dp)` in a 3-stage SSP-RK2 scheme, with an
//! optional sign-preserving mass-conserving limiter. Each stage ends with a
//! DSS — the "3 sub-cycles edge packing/unpacking and boundary exchange"
//! whose communication cost Section 7.6 attacks.

use crate::deriv::ElemOps;
use crate::kernels::blocked::{euler_stage_element_blocked, BlockedOps, StageCombine};
use crate::sched::{Arena, ElemScheduler};
use crate::state::Dims;
use cubesphere::NPTS;
use std::ops::Range;

/// Element-local tracer tendency: `out = -div(u q dp, v q dp)` for one
/// level of one tracer. `q` is derived point-wise as `qdp / dp`.
pub fn tracer_flux_divergence(
    op: &ElemOps,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp: &[f64],
    out: &mut [f64; NPTS],
) {
    let mut fx = [0.0; NPTS];
    let mut fy = [0.0; NPTS];
    for p in 0..NPTS {
        let q = qdp[p] / dp[p];
        fx[p] = u[p] * dp[p] * q;
        fy[p] = v[p] * dp[p] * q;
    }
    let mut div = [0.0; NPTS];
    op.divergence_sphere(&fx, &fy, &mut div);
    for p in 0..NPTS {
        out[p] = -div[p];
    }
}

/// One forward-Euler sub-step of all tracers of all elements:
/// `qdp_out = qdp_in + dt * RHS(qdp_in)` (no DSS; the caller assembles).
#[allow(clippy::too_many_arguments)]
pub fn euler_substep(
    ops: &[ElemOps],
    dims: Dims,
    u: &[Vec<f64>],
    v: &[Vec<f64>],
    dp: &[Vec<f64>],
    qdp_in: &[Vec<f64>],
    dt: f64,
    qdp_out: &mut [Vec<f64>],
) {
    for (e, op) in ops.iter().enumerate() {
        for q in 0..dims.qsize {
            for k in 0..dims.nlev {
                let r = dims.at(k, 0)..dims.at(k, 0) + NPTS;
                let rq = dims.atq(q, k, 0)..dims.atq(q, k, 0) + NPTS;
                let mut tend = [0.0; NPTS];
                tracer_flux_divergence(
                    op,
                    &u[e][r.clone()],
                    &v[e][r.clone()],
                    &dp[e][r.clone()],
                    &qdp_in[e][rq.clone()],
                    &mut tend,
                );
                for p in 0..NPTS {
                    qdp_out[e][rq.start + p] = qdp_in[e][rq.start + p] + dt * tend[p];
                }
            }
        }
    }
}

/// Flat-arena forward-Euler sub-step: `u`/`v`/`dp` are `[nelem][nlev]
/// [NPTS]` arenas, `qdp_in`/`qdp_out` are `[nelem][qsize][nlev][NPTS]`
/// arenas (the state-arena layout). Elements run across the scheduler's
/// workers; arithmetic is identical to [`euler_substep`] and the call is
/// allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn euler_substep_flat(
    ops: &[ElemOps],
    dims: Dims,
    sched: &ElemScheduler,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp_in: &[f64],
    dt: f64,
    qdp_out: &mut [f64],
) {
    let fl = dims.field_len();
    let tl = dims.tracer_len();
    sched.run_windows(0..ops.len(), Arena::new(qdp_out, tl, tl), |e, qout| {
        let op = &ops[e];
        let ue = &u[e * fl..(e + 1) * fl];
        let ve = &v[e * fl..(e + 1) * fl];
        let dpe = &dp[e * fl..(e + 1) * fl];
        let qin = &qdp_in[e * tl..(e + 1) * tl];
        for q in 0..dims.qsize {
            for k in 0..dims.nlev {
                let r = dims.at(k, 0)..dims.at(k, 0) + NPTS;
                let rq = dims.atq(q, k, 0)..dims.atq(q, k, 0) + NPTS;
                let mut tend = [0.0; NPTS];
                tracer_flux_divergence(
                    op,
                    &ue[r.clone()],
                    &ve[r.clone()],
                    &dpe[r.clone()],
                    &qin[rq.clone()],
                    &mut tend,
                );
                for p in 0..NPTS {
                    qout[rq.start + p] = qin[rq.start + p] + dt * tend[p];
                }
            }
        }
    });
}

/// One blocked Euler stage of the tracer chunk `qs` over the elements
/// `elems`:
/// flux divergence, forward-Euler update and SSP stage combination fused
/// per element, with mass fluxes hoisted across the tracer loop (see
/// [`euler_stage_element_blocked`]). Element `e`'s stage input for the
/// chunk starts at `e * istride` of `qdp_in` (so a full tracer arena is
/// passed from the chunk's first tracer on, with stride `tracer_len`, and
/// a one-chunk buffer whole, with its own stride); `q0` is a full tracer
/// arena (`[nelem][qsize][nlev][NPTS]`) read at the chunk's tracers.
/// Element `e`'s raw output for the chunk lands at the start of its
/// `ostride`-wide window of `qdp_out`. Elements run across the
/// scheduler's workers; the call is allocation-free and bitwise identical
/// to [`euler_substep_flat`] followed by the driver's combination loop,
/// restricted to the chunk.
///
/// # Panics
/// If the chunk does not fit in an `istride`- or `ostride`-wide window or
/// past the arenas' tracers, or `qdp_out` ends inside `elems`' windows.
#[allow(clippy::too_many_arguments)]
pub fn euler_stage_flat_blocked(
    bops: &[BlockedOps],
    dims: Dims,
    sched: &ElemScheduler,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp_in: &[f64],
    istride: usize,
    q0: &[f64],
    dt: f64,
    combine: StageCombine,
    qs: Range<usize>,
    qdp_out: &mut [f64],
    ostride: usize,
    elems: Range<usize>,
) {
    let fl = dims.field_len();
    let tl = dims.tracer_len();
    let lw = dims.nlev * NPTS;
    let (off, len) = (qs.start * lw, qs.len() * lw);
    assert!(
        qs.end <= dims.qsize && len <= istride && len <= ostride,
        "euler_stage_flat_blocked: chunk {qs:?}"
    );
    sched.run_windows(elems, Arena::new(qdp_out, ostride, len), |e, qout| {
        let chunk = e * tl + off..e * tl + off + len;
        euler_stage_element_blocked(
            &bops[e],
            dims.nlev,
            qs.len(),
            &u[e * fl..(e + 1) * fl],
            &v[e * fl..(e + 1) * fl],
            &dp[e * fl..(e + 1) * fl],
            &qdp_in[e * istride..e * istride + len],
            &q0[chunk],
            dt,
            combine,
            qout,
        );
    });
}

/// Sign-preserving limiter: eliminate negative `qdp` within one element
/// level while conserving the element-level mass (the spirit of HOMME's
/// `limiter_optim_iter_full`, reduced to its non-iterative core).
///
/// Negative values are clipped to zero and the created mass is removed
/// proportionally from the positive values. If the level's total mass is
/// negative nothing can be conserved positively; values clip to zero.
///
/// A level with no value `< 0.0` returns before the mass sums: on such a
/// level the sums would only add to `positive_mass`, leave `deficit` at
/// exactly `0.0` and return without writing, so skipping them keeps every
/// bit. NaN and `−0.0` are not negative here either way. A negative value
/// whose mass `spheremp · q` underflows to `−0.0` still counts: it is
/// clipped to zero although the deficit stays `0.0`.
pub fn limit_nonnegative(spheremp: &[f64; NPTS], qdp: &mut [f64]) {
    debug_assert_eq!(qdp.len(), NPTS);
    // The one test of negativity, shared by the fast check and the sums.
    let negative = |x: f64| x < 0.0;
    if !qdp.iter().any(|&x| negative(x)) {
        return;
    }
    let mut deficit = 0.0;
    let mut positive_mass = 0.0;
    for p in 0..NPTS {
        let m = spheremp[p] * qdp[p];
        if negative(qdp[p]) {
            deficit += -m;
            qdp[p] = 0.0;
        } else {
            positive_mass += m;
        }
    }
    if deficit == 0.0 {
        return;
    }
    if positive_mass <= deficit {
        for v in qdp.iter_mut() {
            *v = 0.0;
        }
        return;
    }
    let scale = (positive_mass - deficit) / positive_mass;
    for v in qdp.iter_mut() {
        *v *= scale;
    }
}

/// Apply [`limit_nonnegative`] to every whole level of one element's tracer
/// window `qe`: its full `[qsize][nlev][NPTS]` window, or any run of
/// (tracer, level) slabs of it, such as one tracer chunk.
pub fn limit_tracer_element(op: &ElemOps, qe: &mut [f64]) {
    debug_assert_eq!(qe.len() % NPTS, 0, "limit_tracer_element: partial level");
    let mut spheremp = [0.0; NPTS];
    spheremp.copy_from_slice(&op.spheremp);
    for level in qe.chunks_exact_mut(NPTS) {
        limit_nonnegative(&spheremp, level);
    }
}

/// [`limit_tracer_element`] over every element of a flat tracer arena
/// (`[nelem][qsize][nlev][NPTS]`): the scalar oracle's limiter, bitwise
/// the blocked step's per-element epilogue.
pub fn limit_tracer_arena(ops: &[ElemOps], dims: Dims, qdp: &mut [f64]) {
    let tl = dims.tracer_len();
    for (op, qe) in ops.iter().zip(qdp.chunks_exact_mut(tl.max(1))) {
        limit_tracer_element(op, &mut qe[..tl]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deriv::build_ops;
    use cubesphere::CubedSphere;

    #[test]
    fn flux_divergence_of_uniform_q_matches_dp_flux() {
        // With q = 2 everywhere, tendency must equal 2 x (-div(v dp)).
        let grid = CubedSphere::new(3);
        let ops = build_ops(&grid);
        for (el, op) in grid.elements.iter().zip(&ops).take(8) {
            let u: Vec<f64> = el.metric.iter().map(|m| 10.0 * m.lat.cos()).collect();
            let v: Vec<f64> = el.metric.iter().map(|m| 3.0 * m.lon.sin()).collect();
            let dp: Vec<f64> = el.metric.iter().map(|m| 850.0 + 5.0 * m.lat.sin()).collect();
            let qdp: Vec<f64> = dp.iter().map(|d| 2.0 * d).collect();
            let mut tend_q = [0.0; NPTS];
            tracer_flux_divergence(op, &u, &v, &dp, &qdp, &mut tend_q);
            // Reference: -div(u dp, v dp) scaled by 2.
            let mut fx = [0.0; NPTS];
            let mut fy = [0.0; NPTS];
            for p in 0..NPTS {
                fx[p] = u[p] * dp[p];
                fy[p] = v[p] * dp[p];
            }
            let mut div = [0.0; NPTS];
            op.divergence_sphere(&fx, &fy, &mut div);
            for p in 0..NPTS {
                assert!(
                    (tend_q[p] + 2.0 * div[p]).abs() < 1e-9 * div[p].abs().max(1e-6),
                    "{} vs {}",
                    tend_q[p],
                    -2.0 * div[p]
                );
            }
        }
    }

    #[test]
    fn flat_substep_matches_per_element_substep() {
        let grid = CubedSphere::new(2);
        let ops = build_ops(&grid);
        let dims = Dims { nlev: 3, qsize: 2 };
        let nelem = grid.nelem();
        let fl = dims.field_len();
        let tl = dims.tracer_len();
        let mk = |s: usize, len: usize| -> Vec<Vec<f64>> {
            (0..nelem)
                .map(|e| (0..len).map(|i| 800.0 + ((e * 31 + i * 7 + s) % 23) as f64).collect())
                .collect()
        };
        let u = mk(0, fl);
        let v = mk(1, fl);
        let dp = mk(2, fl);
        let qdp = mk(3, tl);
        let mut out_pe = vec![vec![0.0; tl]; nelem];
        euler_substep(&ops, dims, &u, &v, &dp, &qdp, 7.0, &mut out_pe);

        let flat = |f: &[Vec<f64>]| -> Vec<f64> { f.iter().flatten().copied().collect() };
        let sched = ElemScheduler::new(3);
        let mut out_flat = vec![0.0; nelem * tl];
        euler_substep_flat(
            &ops,
            dims,
            &sched,
            &flat(&u),
            &flat(&v),
            &flat(&dp),
            &flat(&qdp),
            7.0,
            &mut out_flat,
        );
        for (e, pe) in out_pe.iter().enumerate() {
            assert_eq!(pe.as_slice(), &out_flat[e * tl..(e + 1) * tl], "element {e}");
        }
    }

    #[test]
    fn limiter_clips_and_conserves() {
        let spheremp = [1.0; NPTS];
        let mut qdp = [1.0; NPTS];
        qdp[3] = -0.5;
        qdp[7] = -0.3;
        let mass_before: f64 = qdp.iter().sum();
        limit_nonnegative(&spheremp, &mut qdp);
        let mass_after: f64 = qdp.iter().sum();
        assert!(qdp.iter().all(|&x| x >= 0.0));
        assert!((mass_before - mass_after).abs() < 1e-12);
    }

    #[test]
    fn limiter_weighted_conservation() {
        let mut spheremp = [0.0; NPTS];
        for (i, w) in spheremp.iter_mut().enumerate() {
            *w = 1.0 + (i % 4) as f64;
        }
        let mut qdp = [0.5; NPTS];
        qdp[0] = -1.0;
        let before: f64 = spheremp.iter().zip(&qdp).map(|(w, q)| w * q).sum();
        limit_nonnegative(&spheremp, &mut qdp);
        let after: f64 = spheremp.iter().zip(&qdp).map(|(w, q)| w * q).sum();
        assert!((before - after).abs() < 1e-12);
        assert!(qdp.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn limiter_all_negative_floors_to_zero() {
        let spheremp = [1.0; NPTS];
        let mut qdp = [-1.0; NPTS];
        limit_nonnegative(&spheremp, &mut qdp);
        assert!(qdp.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn limiter_keeps_bits_of_levels_without_negatives() {
        let mut spheremp = [0.0; NPTS];
        for (i, w) in spheremp.iter_mut().enumerate() {
            *w = 0.5 + i as f64;
        }
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY];
        for (s, &x) in specials.iter().enumerate() {
            // The special value alone, and mixed with positives.
            let mut levels = vec![[x; NPTS]];
            let mut mixed = [1.5; NPTS];
            mixed[s] = x;
            mixed[NPTS - 1 - s] = x;
            levels.push(mixed);
            for level in levels {
                let mut qdp = level;
                limit_nonnegative(&spheremp, &mut qdp);
                let bits = |l: &[f64; NPTS]| l.map(f64::to_bits);
                assert_eq!(bits(&qdp), bits(&level), "{x} level changed");
            }
        }
    }

    #[test]
    fn limiter_zeroes_a_negative_whose_mass_underflows() {
        // spheremp * q underflows to -0.0, so the deficit stays exactly 0.0;
        // the value must still be clipped, and nothing else scaled.
        let spheremp = [1e-300_f64; NPTS];
        let mut qdp = [0.25_f64; NPTS];
        qdp[5] = -1e-300;
        assert_eq!((spheremp[5] * qdp[5]).to_bits(), (-0.0_f64).to_bits());
        limit_nonnegative(&spheremp, &mut qdp);
        assert_eq!(qdp[5].to_bits(), 0.0f64.to_bits());
        assert!(qdp.iter().enumerate().all(|(p, &x)| p == 5 || x == 0.25));
    }

    #[test]
    fn limiter_noop_when_nonnegative() {
        let spheremp = [1.0; NPTS];
        let mut qdp = [0.25; NPTS];
        let before = qdp;
        limit_nonnegative(&spheremp, &mut qdp);
        assert_eq!(qdp, before);
    }
}
