//! Kernel-level scalar-vs-blocked microbenchmarks for the vectorized
//! kernel layer.
//!
//! Times one full sweep over every element of an ne8 / 26-level / 4-tracer
//! grid for each hot kernel, in both implementations:
//!
//! * the column scans (pressure forward scan, geopotential reverse scan),
//! * the fused RK RHS tendency + apply (`element_rhs_apply_blocked` vs
//!   `element_rhs_raw` + the driver's apply loop),
//! * one fused SSP Euler tracer stage (flux divergence + update + stage
//!   combination, mass fluxes hoisted across the tracer loop),
//! * the hyperviscosity Laplacians (scalar and vector),
//! * the planned biharmonic pass (`biharmonic_planned`: the fused 4-wide
//!   (u, v, T, dp3d) del^4 element sweep — both Laplacian passes sharing
//!   one coefficient walk per pass — against the per-field scalar walks),
//! * the full planned hyperviscosity application (`hypervis_fullpass`:
//!   `Dycore::apply_hypervis` end to end — plan build, sponge, subcycled
//!   del^4, DSS-fused applies — Blocked vs Scalar kernel path),
//! * the planned vertical remap (`vertical_remap` times the production
//!   path — plan build + coefficient apply — while `vertical_remap_planned`
//!   times the apply pass alone over prebuilt plans, isolating the
//!   coefficient-apply share from the per-element geometry cost).
//!
//! Every pair is asserted bitwise identical before it is timed — the
//! blocked path is a reordering-free re-expression of the scalar math.
//! Emits `BENCH_kernels.json`. The PR's target is >= 1.5x on the RHS
//! tendency, the Euler tracer stage and the planned vertical remap. Run
//! with `cargo run --release -p swcam-bench --bin kernels` (`--smoke` runs
//! a single iteration of everything, for CI).

use std::time::Instant;

use cubesphere::consts::P0;
use cubesphere::{CubedSphere, NPTS};
use homme::euler::tracer_flux_divergence;
use homme::kernels::blocked::{
    build_blocked_ops, element_rhs_apply_blocked, euler_stage_element_blocked,
    hypervis_pass_element_blocked, hypervis_pass_levels_blocked, laplace_levels_blocked,
    remap_element_planned, vlaplace_levels_blocked,
};
use homme::remap::{remap_element_scalar, ElemRemapPlan, RemapApplyScratch, RemapScratch};
use homme::rhs::{
    element_rhs_raw, geopotential_scan, geopotential_scan_blocked, pressure_scan,
    pressure_scan_blocked, RhsScratch,
};
use homme::{build_ops, Dims, Dycore, DycoreConfig, KernelPath, StageCombine, VertCoord};

const NE: usize = 8;
const NLEV: usize = 26;
const QSIZE: usize = 4;
const PTOP: f64 = 200.0;
const C_DT: f64 = 100.0;
const TARGET_SPEEDUP: f64 = 1.5;

struct Arenas {
    u: Vec<f64>,
    v: Vec<f64>,
    t: Vec<f64>,
    dp3d: Vec<f64>,
    phis: Vec<f64>,
    qdp: Vec<f64>,
}

fn build_arenas(grid: &CubedSphere) -> Arenas {
    let nelem = grid.nelem();
    let fl = NLEV * NPTS;
    let tl = QSIZE * NLEV * NPTS;
    let vert = VertCoord::standard(NLEV, PTOP);
    let mut a = Arenas {
        u: vec![0.0; nelem * fl],
        v: vec![0.0; nelem * fl],
        t: vec![0.0; nelem * fl],
        dp3d: vec![0.0; nelem * fl],
        phis: vec![0.0; nelem * NPTS],
        qdp: vec![0.0; nelem * tl],
    };
    for (e, el) in grid.elements.iter().enumerate() {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let lon = el.metric[p].lon;
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            a.phis[e * NPTS + p] = 200.0 * (2.0 * lon).cos() * lat.cos();
            for k in 0..NLEV {
                let i = e * fl + k * NPTS + p;
                a.u[i] = 20.0 * lat.cos();
                a.v[i] = 2.0 * lon.sin();
                a.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                a.dp3d[i] = vert.dp_ref(k, ps);
                for q in 0..QSIZE {
                    a.qdp[e * tl + (q * NLEV + k) * NPTS + p] =
                        (0.01 + 0.002 * q as f64) * a.dp3d[i];
                }
            }
        }
    }
    a
}

/// Wall time (ms) of one sweep of `run`, averaged over the measured
/// iterations after warm-up.
fn time_sweeps(warmup: usize, measure: usize, mut run: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        run();
    }
    let t0 = Instant::now();
    for _ in 0..measure {
        run();
    }
    t0.elapsed().as_secs_f64() * 1e3 / measure as f64
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: blocked diverged from scalar at [{i}]: {x:e} vs {y:e}"
        );
    }
}

/// The five prognostic arenas (u, v, t, dp3d, qdp) as one remap workset.
type Fields5 = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

struct Row {
    name: &'static str,
    scalar_ms: f64,
    blocked_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.blocked_ms
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warmup, measure) = if smoke { (0, 1) } else { (2, 10) };
    // The sub-millisecond column scans need far more sweeps than the heavy
    // kernels before the timing rises above scheduler noise.
    let (warmup_scan, measure_scan) = if smoke { (0, 1) } else { (10, 200) };
    let grid = CubedSphere::new(NE);
    let ops = build_ops(&grid);
    let bops = build_blocked_ops(&ops);
    let vert = VertCoord::standard(NLEV, PTOP);
    let arenas = build_arenas(&grid);
    let nelem = grid.nelem();
    let fl = NLEV * NPTS;
    let tl = QSIZE * NLEV * NPTS;
    println!(
        "kernels: ne{NE} ({nelem} elements), nlev {NLEV}, qsize {QSIZE}, \
         {measure} sweeps per timing{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, name: &'static str, scalar_ms: f64, blocked_ms: f64| {
        let speedup = scalar_ms / blocked_ms;
        println!("  {name:<18}: scalar {scalar_ms:8.3} ms  blocked {blocked_ms:8.3} ms  ({speedup:.2}x)");
        rows.push(Row { name, scalar_ms, blocked_ms });
    };

    // --- column scans --------------------------------------------------
    {
        let il = (NLEV + 1) * NPTS;
        let mut pint_s = vec![0.0; nelem * il];
        let mut pmid_s = vec![0.0; nelem * fl];
        let mut pint_b = vec![0.0; nelem * il];
        let mut pmid_b = vec![0.0; nelem * fl];
        let scalar = |pint: &mut [f64], pmid: &mut [f64]| {
            for e in 0..nelem {
                pressure_scan(
                    NLEV,
                    PTOP,
                    &arenas.dp3d[e * fl..(e + 1) * fl],
                    &mut pint[e * il..(e + 1) * il],
                    &mut pmid[e * fl..(e + 1) * fl],
                );
            }
        };
        let blocked = |pint: &mut [f64], pmid: &mut [f64]| {
            for e in 0..nelem {
                pressure_scan_blocked(
                    NLEV,
                    PTOP,
                    &arenas.dp3d[e * fl..(e + 1) * fl],
                    &mut pint[e * il..(e + 1) * il],
                    &mut pmid[e * fl..(e + 1) * fl],
                );
            }
        };
        scalar(&mut pint_s, &mut pmid_s);
        blocked(&mut pint_b, &mut pmid_b);
        assert_bitwise(&pint_s, &pint_b, "pressure_scan p_int");
        assert_bitwise(&pmid_s, &pmid_b, "pressure_scan p_mid");
        let s = time_sweeps(warmup_scan, measure_scan, || scalar(&mut pint_s, &mut pmid_s));
        let b = time_sweeps(warmup_scan, measure_scan, || blocked(&mut pint_b, &mut pmid_b));
        push(&mut rows, "pressure_scan", s, b);

        let mut phi_s = vec![0.0; nelem * fl];
        let mut phi_b = vec![0.0; nelem * fl];
        let scalar = |phi: &mut [f64]| {
            for e in 0..nelem {
                geopotential_scan(
                    NLEV,
                    &arenas.phis[e * NPTS..(e + 1) * NPTS],
                    &arenas.t[e * fl..(e + 1) * fl],
                    &pint_s[e * il..(e + 1) * il],
                    &pmid_s[e * fl..(e + 1) * fl],
                    &mut phi[e * fl..(e + 1) * fl],
                );
            }
        };
        let blocked = |phi: &mut [f64]| {
            for e in 0..nelem {
                geopotential_scan_blocked(
                    NLEV,
                    &arenas.phis[e * NPTS..(e + 1) * NPTS],
                    &arenas.t[e * fl..(e + 1) * fl],
                    &pint_s[e * il..(e + 1) * il],
                    &pmid_s[e * fl..(e + 1) * fl],
                    &mut phi[e * fl..(e + 1) * fl],
                );
            }
        };
        scalar(&mut phi_s);
        blocked(&mut phi_b);
        assert_bitwise(&phi_s, &phi_b, "geopotential_scan");
        let s = time_sweeps(warmup_scan, measure_scan, || scalar(&mut phi_s));
        let b = time_sweeps(warmup_scan, measure_scan, || blocked(&mut phi_b));
        push(&mut rows, "geopotential_scan", s, b);
    }

    // --- RK RHS tendency + apply --------------------------------------
    {
        let mut scratch = RhsScratch::new(NLEV);
        let mut tend_u = vec![0.0; fl];
        let mut tend_v = vec![0.0; fl];
        let mut tend_t = vec![0.0; fl];
        let mut tend_dp = vec![0.0; fl];
        let mut out_s = [
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
        ];
        let mut out_b = out_s.clone();
        let a = &arenas;
        let scalar = |out: &mut [Vec<f64>; 4],
                          scratch: &mut RhsScratch,
                          tu: &mut [f64],
                          tv: &mut [f64],
                          tt: &mut [f64],
                          tdp: &mut [f64]| {
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                element_rhs_raw(
                    &ops[e],
                    NLEV,
                    PTOP,
                    &a.u[r.clone()],
                    &a.v[r.clone()],
                    &a.t[r.clone()],
                    &a.dp3d[r.clone()],
                    &a.phis[e * NPTS..(e + 1) * NPTS],
                    tu,
                    tv,
                    tt,
                    tdp,
                    scratch,
                );
                // The driver's apply loop: out = base + c*dt * tend.
                let [ou, ov, ot, odp] = out;
                for (i, g) in r.enumerate() {
                    ou[g] = a.u[g] + C_DT * tu[i];
                    ov[g] = a.v[g] + C_DT * tv[i];
                    ot[g] = a.t[g] + C_DT * tt[i];
                    odp[g] = a.dp3d[g] + C_DT * tdp[i];
                }
            }
        };
        let blocked = |out: &mut [Vec<f64>; 4], scratch: &mut RhsScratch| {
            let [ou, ov, ot, odp] = out;
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                element_rhs_apply_blocked(
                    &bops[e],
                    NLEV,
                    PTOP,
                    &a.u[r.clone()],
                    &a.v[r.clone()],
                    &a.t[r.clone()],
                    &a.dp3d[r.clone()],
                    &a.phis[e * NPTS..(e + 1) * NPTS],
                    &a.u[r.clone()],
                    &a.v[r.clone()],
                    &a.t[r.clone()],
                    &a.dp3d[r.clone()],
                    C_DT,
                    &mut ou[r.clone()],
                    &mut ov[r.clone()],
                    &mut ot[r.clone()],
                    &mut odp[r.clone()],
                    scratch,
                );
            }
        };
        scalar(&mut out_s, &mut scratch, &mut tend_u, &mut tend_v, &mut tend_t, &mut tend_dp);
        blocked(&mut out_b, &mut scratch);
        for (i, name) in ["u", "v", "t", "dp3d"].iter().enumerate() {
            assert_bitwise(&out_s[i], &out_b[i], &format!("rhs tendency {name}"));
        }
        let s = time_sweeps(warmup, measure, || {
            scalar(&mut out_s, &mut scratch, &mut tend_u, &mut tend_v, &mut tend_t, &mut tend_dp)
        });
        let b = time_sweeps(warmup, measure, || blocked(&mut out_b, &mut scratch));
        push(&mut rows, "rhs_tendency", s, b);
    }

    // --- Euler tracer stage (SSP stage 2: 3/4 q0 + 1/4 (q + dt L q)) ---
    {
        let a = &arenas;
        let mut qtmp = vec![0.0; nelem * tl];
        let mut qout_s = vec![0.0; nelem * tl];
        let mut qout_b = vec![0.0; nelem * tl];
        let scalar = |qtmp: &mut [f64], qout: &mut [f64]| {
            // The scalar driver's shape: a flux-divergence substep into a
            // temporary, then a separate arena-wide combination pass.
            for e in 0..nelem {
                let r0 = e * fl;
                let q0 = e * tl;
                for q in 0..QSIZE {
                    for k in 0..NLEV {
                        let r = r0 + k * NPTS..r0 + (k + 1) * NPTS;
                        let rq = q0 + (q * NLEV + k) * NPTS..q0 + (q * NLEV + k + 1) * NPTS;
                        let mut tend = [0.0; NPTS];
                        tracer_flux_divergence(
                            &ops[e],
                            &a.u[r.clone()],
                            &a.v[r.clone()],
                            &a.dp3d[r.clone()],
                            &a.qdp[rq.clone()],
                            &mut tend,
                        );
                        for (p, g) in rq.enumerate() {
                            qtmp[g] = a.qdp[g] + C_DT * tend[p];
                        }
                    }
                }
            }
            for (o, (q0, t)) in qout.iter_mut().zip(a.qdp.iter().zip(qtmp.iter())) {
                *o = 0.75 * q0 + 0.25 * t;
            }
        };
        let blocked = |qout: &mut [f64]| {
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                let rq = e * tl..(e + 1) * tl;
                euler_stage_element_blocked(
                    &bops[e],
                    NLEV,
                    QSIZE,
                    &a.u[r.clone()],
                    &a.v[r.clone()],
                    &a.dp3d[r],
                    &a.qdp[rq.clone()],
                    &a.qdp[rq.clone()],
                    C_DT,
                    StageCombine::Ssp2,
                    &mut qout[rq],
                );
            }
        };
        scalar(&mut qtmp, &mut qout_s);
        blocked(&mut qout_b);
        assert_bitwise(&qout_s, &qout_b, "euler stage");
        let s = time_sweeps(warmup, measure, || scalar(&mut qtmp, &mut qout_s));
        let b = time_sweeps(warmup, measure, || blocked(&mut qout_b));
        push(&mut rows, "euler_stage", s, b);
    }

    // --- hyperviscosity Laplacians ------------------------------------
    {
        let a = &arenas;
        let mut work_s = a.t.clone();
        let mut work_b = a.t.clone();
        let scalar = |work: &mut Vec<f64>| {
            work.copy_from_slice(&a.t);
            for e in 0..nelem {
                let f = &mut work[e * fl..(e + 1) * fl];
                for k in 0..NLEV {
                    let r = k * NPTS..(k + 1) * NPTS;
                    let mut lap = [0.0; NPTS];
                    ops[e].laplace_sphere_wk(&f[r.clone()], &mut lap);
                    f[r].copy_from_slice(&lap);
                }
            }
        };
        let blocked = |work: &mut Vec<f64>| {
            work.copy_from_slice(&a.t);
            for e in 0..nelem {
                laplace_levels_blocked(&bops[e], NLEV, &mut work[e * fl..(e + 1) * fl]);
            }
        };
        scalar(&mut work_s);
        blocked(&mut work_b);
        assert_bitwise(&work_s, &work_b, "laplace");
        let s = time_sweeps(warmup, measure, || scalar(&mut work_s));
        let b = time_sweeps(warmup, measure, || blocked(&mut work_b));
        push(&mut rows, "laplace", s, b);

        let mut us = a.u.clone();
        let mut vs = a.v.clone();
        let mut ub = a.u.clone();
        let mut vb = a.v.clone();
        let scalar = |u: &mut Vec<f64>, v: &mut Vec<f64>| {
            u.copy_from_slice(&a.u);
            v.copy_from_slice(&a.v);
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                let (ue, ve) = (&mut u[r.clone()], &mut v[r]);
                for k in 0..NLEV {
                    let r = k * NPTS..(k + 1) * NPTS;
                    let mut lu = [0.0; NPTS];
                    let mut lv = [0.0; NPTS];
                    ops[e].vlaplace_sphere(&ue[r.clone()], &ve[r.clone()], &mut lu, &mut lv);
                    ue[r.clone()].copy_from_slice(&lu);
                    ve[r].copy_from_slice(&lv);
                }
            }
        };
        let blocked = |u: &mut Vec<f64>, v: &mut Vec<f64>| {
            u.copy_from_slice(&a.u);
            v.copy_from_slice(&a.v);
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                vlaplace_levels_blocked(&bops[e], NLEV, &mut u[r.clone()], &mut v[r]);
            }
        };
        scalar(&mut us, &mut vs);
        blocked(&mut ub, &mut vb);
        assert_bitwise(&us, &ub, "vlaplace u");
        assert_bitwise(&vs, &vb, "vlaplace v");
        let s = time_sweeps(warmup, measure, || scalar(&mut us, &mut vs));
        let b = time_sweeps(warmup, measure, || blocked(&mut ub, &mut vb));
        push(&mut rows, "vlaplace", s, b);
    }

    // --- planned biharmonic element sweep (4-wide fused walks) --------
    //
    // The hypervis plan's per-element compute: del^4 of the full
    // (u, v, T, dp3d) batch as two passes, each a single coefficient walk
    // shared by the vector Laplacian and both scalar Laplacians. The
    // scalar side is the per-field shape the old driver ran: three
    // independent walks per pass per level.
    {
        let a = &arenas;
        let mut out_s = [
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
            vec![0.0; nelem * fl],
        ];
        let mut out_b = out_s.clone();
        let scalar = |out: &mut [Vec<f64>; 4]| {
            let [ou, ov, ot, odp] = out;
            for e in 0..nelem {
                let r0 = e * fl;
                let mut lu = [0.0; NPTS];
                let mut lv = [0.0; NPTS];
                let mut lt = [0.0; NPTS];
                let mut ldp = [0.0; NPTS];
                // Pass 1: state -> Laplacian, out of place.
                for k in 0..NLEV {
                    let r = r0 + k * NPTS..r0 + (k + 1) * NPTS;
                    ops[e].vlaplace_sphere(&a.u[r.clone()], &a.v[r.clone()], &mut lu, &mut lv);
                    ops[e].laplace_sphere_wk(&a.t[r.clone()], &mut lt);
                    ops[e].laplace_sphere_wk(&a.dp3d[r.clone()], &mut ldp);
                    ou[r.clone()].copy_from_slice(&lu);
                    ov[r.clone()].copy_from_slice(&lv);
                    ot[r.clone()].copy_from_slice(&lt);
                    odp[r].copy_from_slice(&ldp);
                }
                // Pass 2: Laplacian of the Laplacian, in place.
                for k in 0..NLEV {
                    let r = r0 + k * NPTS..r0 + (k + 1) * NPTS;
                    ops[e].vlaplace_sphere(&ou[r.clone()], &ov[r.clone()], &mut lu, &mut lv);
                    ops[e].laplace_sphere_wk(&ot[r.clone()], &mut lt);
                    ops[e].laplace_sphere_wk(&odp[r.clone()], &mut ldp);
                    ou[r.clone()].copy_from_slice(&lu);
                    ov[r.clone()].copy_from_slice(&lv);
                    ot[r.clone()].copy_from_slice(&lt);
                    odp[r].copy_from_slice(&ldp);
                }
            }
        };
        let blocked = |out: &mut [Vec<f64>; 4]| {
            let [ou, ov, ot, odp] = out;
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                hypervis_pass_element_blocked(
                    &bops[e],
                    NLEV,
                    &a.u[r.clone()],
                    &a.v[r.clone()],
                    &a.t[r.clone()],
                    &a.dp3d[r.clone()],
                    &mut ou[r.clone()],
                    &mut ov[r.clone()],
                    &mut ot[r.clone()],
                    &mut odp[r.clone()],
                );
                hypervis_pass_levels_blocked(
                    &bops[e],
                    NLEV,
                    &mut ou[r.clone()],
                    &mut ov[r.clone()],
                    &mut ot[r.clone()],
                    &mut odp[r],
                );
            }
        };
        scalar(&mut out_s);
        blocked(&mut out_b);
        for (i, name) in ["u", "v", "t", "dp3d"].iter().enumerate() {
            assert_bitwise(&out_s[i], &out_b[i], &format!("biharmonic planned {name}"));
        }
        let s = time_sweeps(warmup, measure, || scalar(&mut out_s));
        let b = time_sweeps(warmup, measure, || blocked(&mut out_b));
        push(&mut rows, "biharmonic_planned", s, b);
    }

    // --- full planned hyperviscosity application ----------------------
    //
    // `Dycore::apply_hypervis` end to end on one worker: plan build,
    // top-of-model sponge, subcycled del^4 with DSS between and after the
    // Laplacian passes, and the DSS-fused forward-Euler applies. Scalar
    // vs Blocked kernel path; both trajectories advance in lockstep from
    // the same start, so every sweep stays bitwise comparable.
    {
        let dims = Dims { nlev: NLEV, qsize: QSIZE };
        let mut dy = Dycore::new(NE, dims, PTOP, DycoreConfig::for_ne(NE));
        dy.set_threads(1);
        let mut st_s = dy.zero_state();
        st_s.u.copy_from_slice(&arenas.u);
        st_s.v.copy_from_slice(&arenas.v);
        st_s.t.copy_from_slice(&arenas.t);
        st_s.dp3d.copy_from_slice(&arenas.dp3d);
        let mut st_b = st_s.clone();
        dy.kernels = KernelPath::Scalar;
        dy.apply_hypervis(&mut st_s).expect("hypervis plan (scalar)");
        dy.kernels = KernelPath::Blocked;
        dy.apply_hypervis(&mut st_b).expect("hypervis plan (blocked)");
        assert_bitwise(&st_s.u, &st_b.u, "hypervis fullpass u");
        assert_bitwise(&st_s.v, &st_b.v, "hypervis fullpass v");
        assert_bitwise(&st_s.t, &st_b.t, "hypervis fullpass t");
        assert_bitwise(&st_s.dp3d, &st_b.dp3d, "hypervis fullpass dp3d");
        dy.kernels = KernelPath::Scalar;
        let s = time_sweeps(warmup, measure, || {
            dy.apply_hypervis(&mut st_s).expect("hypervis plan (scalar)");
        });
        dy.kernels = KernelPath::Blocked;
        let b = time_sweeps(warmup, measure, || {
            dy.apply_hypervis(&mut st_b).expect("hypervis plan (blocked)");
        });
        // Same sweep count on both sides — the trajectories are still
        // twins, so the parity assert holds after the timed runs too.
        assert_bitwise(&st_s.u, &st_b.u, "hypervis fullpass u (post-timing)");
        assert_bitwise(&st_s.dp3d, &st_b.dp3d, "hypervis fullpass dp3d (post-timing)");
        push(&mut rows, "hypervis_fullpass", s, b);
    }

    // --- vertical remap (geometry-reuse plan) -------------------------
    {
        let a = &arenas;
        let mut scratch = RemapScratch::new(NLEV);
        let mut plan = ElemRemapPlan::new(NLEV);
        let mut apply = RemapApplyScratch::new(NLEV);
        let mut col_src = vec![0.0; NLEV];
        let mut col_dst = vec![0.0; NLEV];
        let mut col_val = vec![0.0; NLEV];
        let mut col_out = vec![0.0; NLEV];
        let mut fields_s =
            (a.u.clone(), a.v.clone(), a.t.clone(), a.dp3d.clone(), a.qdp.clone());
        let mut fields_b = fields_s.clone();
        let vert_ref = &vert;
        let scalar = |f: &mut Fields5,
                          scratch: &mut RemapScratch,
                          cs: &mut [f64],
                          cd: &mut [f64],
                          cv: &mut [f64],
                          co: &mut [f64]| {
            f.0.copy_from_slice(&a.u);
            f.1.copy_from_slice(&a.v);
            f.2.copy_from_slice(&a.t);
            f.3.copy_from_slice(&a.dp3d);
            f.4.copy_from_slice(&a.qdp);
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                let rq = e * tl..(e + 1) * tl;
                remap_element_scalar(
                    vert_ref,
                    NLEV,
                    QSIZE,
                    &mut f.0[r.clone()],
                    &mut f.1[r.clone()],
                    &mut f.2[r.clone()],
                    &mut f.3[r],
                    &mut f.4[rq],
                    cs,
                    cd,
                    cv,
                    co,
                    scratch,
                )
                .expect("remap");
            }
        };
        // The production Blocked path: build the dp3d-only plan for each
        // element, then stream all seven fields through its apply pass.
        let planned = |f: &mut Fields5,
                           plan: &mut ElemRemapPlan,
                           apply: &mut RemapApplyScratch| {
            f.0.copy_from_slice(&a.u);
            f.1.copy_from_slice(&a.v);
            f.2.copy_from_slice(&a.t);
            f.3.copy_from_slice(&a.dp3d);
            f.4.copy_from_slice(&a.qdp);
            for e in 0..nelem {
                let r = e * fl..(e + 1) * fl;
                let rq = e * tl..(e + 1) * tl;
                plan.build(vert_ref, NLEV, &f.3[r.clone()]).expect("plan");
                remap_element_planned(
                    plan,
                    NLEV,
                    QSIZE,
                    &mut f.0[r.clone()],
                    &mut f.1[r.clone()],
                    &mut f.2[r.clone()],
                    &mut f.3[r],
                    &mut f.4[rq],
                    apply,
                );
            }
        };
        scalar(&mut fields_s, &mut scratch, &mut col_src, &mut col_dst, &mut col_val, &mut col_out);
        planned(&mut fields_b, &mut plan, &mut apply);
        assert_bitwise(&fields_s.0, &fields_b.0, "remap u");
        assert_bitwise(&fields_s.1, &fields_b.1, "remap v");
        assert_bitwise(&fields_s.2, &fields_b.2, "remap t");
        assert_bitwise(&fields_s.3, &fields_b.3, "remap dp3d");
        assert_bitwise(&fields_s.4, &fields_b.4, "remap qdp");
        let s = time_sweeps(warmup, measure, || {
            scalar(
                &mut fields_s,
                &mut scratch,
                &mut col_src,
                &mut col_dst,
                &mut col_val,
                &mut col_out,
            )
        });
        let b = time_sweeps(warmup, measure, || planned(&mut fields_b, &mut plan, &mut apply));
        push(&mut rows, "vertical_remap", s, b);

        // Apply pass alone over prebuilt per-element plans: the reuse
        // ceiling — what every field after the first costs once the
        // geometry is paid (the plan build share is the row above minus
        // this one).
        let mut plans: Vec<ElemRemapPlan> = (0..nelem).map(|_| ElemRemapPlan::new(NLEV)).collect();
        for (e, pl) in plans.iter_mut().enumerate() {
            pl.build(vert_ref, NLEV, &a.dp3d[e * fl..(e + 1) * fl]).expect("plan");
        }
        let apply_only = |f: &mut Fields5, apply: &mut RemapApplyScratch| {
            f.0.copy_from_slice(&a.u);
            f.1.copy_from_slice(&a.v);
            f.2.copy_from_slice(&a.t);
            f.3.copy_from_slice(&a.dp3d);
            f.4.copy_from_slice(&a.qdp);
            for (e, pl) in plans.iter().enumerate() {
                let r = e * fl..(e + 1) * fl;
                let rq = e * tl..(e + 1) * tl;
                remap_element_planned(
                    pl,
                    NLEV,
                    QSIZE,
                    &mut f.0[r.clone()],
                    &mut f.1[r.clone()],
                    &mut f.2[r.clone()],
                    &mut f.3[r],
                    &mut f.4[rq],
                    apply,
                );
            }
        };
        apply_only(&mut fields_b, &mut apply);
        assert_bitwise(&fields_s.3, &fields_b.3, "remap planned dp3d");
        assert_bitwise(&fields_s.4, &fields_b.4, "remap planned qdp");
        let bp = time_sweeps(warmup, measure, || apply_only(&mut fields_b, &mut apply));
        push(&mut rows, "vertical_remap_planned", s, bp);
    }

    // --- report --------------------------------------------------------
    let get = |name: &str| rows.iter().find(|r| r.name == name).expect("row");
    let rhs_speedup = get("rhs_tendency").speedup();
    let euler_speedup = get("euler_stage").speedup();
    let remap_speedup = get("vertical_remap").speedup();
    let hypervis_speedup = get("hypervis_fullpass").speedup();
    let meets = rhs_speedup >= TARGET_SPEEDUP
        && euler_speedup >= TARGET_SPEEDUP
        && remap_speedup >= TARGET_SPEEDUP
        && hypervis_speedup >= TARGET_SPEEDUP;
    println!(
        "  target {TARGET_SPEEDUP:.1}x on rhs_tendency ({rhs_speedup:.2}x), euler_stage \
         ({euler_speedup:.2}x), vertical_remap ({remap_speedup:.2}x) and hypervis_fullpass \
         ({hypervis_speedup:.2}x): {}",
        if meets { "met" } else { "NOT met" }
    );

    let mut kernels_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        kernels_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {:.4}, \"blocked_ms\": {:.4}, \
             \"speedup\": {:.3}}}{}\n",
            r.name,
            r.scalar_ms,
            r.blocked_ms,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"ne\": {NE},\n  \"nlev\": {NLEV},\n  \
         \"qsize\": {QSIZE},\n  \"nelem\": {nelem},\n  \"sweeps_measured\": {measure},\n  \
         \"smoke\": {smoke},\n  \"kernels\": [\n{kernels_json}  ],\n  \
         \"target_speedup\": {TARGET_SPEEDUP},\n  \
         \"rhs_tendency_speedup\": {rhs_speedup:.3},\n  \
         \"euler_stage_speedup\": {euler_speedup:.3},\n  \
         \"vertical_remap_speedup\": {remap_speedup:.3},\n  \
         \"hypervis_fullpass_speedup\": {hypervis_speedup:.3},\n  \"meets_target\": {meets}\n}}\n"
    );
    // A smoke run exists to exercise the kernels and their in-bench parity
    // asserts, not to time them — don't clobber the real artifact with
    // single-sweep noise.
    if smoke {
        println!("smoke mode: skipping BENCH_kernels.json");
    } else {
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json");
    }
}
