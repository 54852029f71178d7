//! Driver-level contracts of the per-element hyperviscosity plan
//! (DESIGN.md §5.7): the fused Blocked path is a bitwise re-expression of
//! the scalar oracle across level counts and sponge depths, the subcycled
//! del^4 damping conserves dp3d mass, the subcycle count is derived from
//! the element-local bound on the assembled Laplacian's `lambda_max`
//! (tight against the true stability edge from both sides, within 2% above
//! the converged assembled value, bit-identical on every rank), and a
//! corrupt element or an unstable
//! explicit count is rejected by the plan build as a typed error before
//! any state is touched.

use cubesphere::consts::{EARTH_RADIUS, OMEGA, P0, RD};
use cubesphere::{CubedSphere, Partition, NPTS};
use homme::hypervis::{biharmonic_flat, laplace_flat, laplacian_norms, vlaplace_flat};
use homme::{
    build_ops, laplacian_lambda_max, Dims, DistDycore, Dss, Dycore, DycoreConfig, ElemOps,
    ElemScheduler, ExchangeMode, HealthConfig, HealthError, HypervisConfig, HypervisError,
    KernelPath, State,
};
use swmpi::run_ranks;

const NE: usize = 2;

/// A full dissipation config: distinct `nu`/`nu_p`, active sponge when
/// `sponge_layers > 0`, a fixed subcycle floor.
fn hv_config(sponge_layers: usize) -> DycoreConfig {
    DycoreConfig {
        dt: 300.0,
        hypervis: HypervisConfig {
            nu: 1.0e15,
            nu_p: 1.7e15,
            subcycles: 3,
            nu_top: 2.5e5,
            sponge_layers,
        },
        limiter: false,
        rsplit: 1,
    }
}

fn initial_state(dy: &Dycore) -> State {
    let d = dy.dims;
    let vert = dy.rhs.vert.clone();
    let elems = dy.grid.elements.clone();
    let mut st = dy.zero_state();
    for (es, el) in st.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let lon = el.metric[p].lon;
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            for k in 0..d.nlev {
                let i = k * NPTS + p;
                es.u[i] = 20.0 * lat.cos();
                es.v[i] = 2.0 * lon.sin();
                es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, ps);
            }
        }
    }
    st
}

fn assert_fields_bitwise(a: &State, b: &State, what: &str) {
    for (name, fa, fb) in
        [("u", &a.u, &b.u), ("v", &a.v, &b.v), ("t", &a.t, &b.t), ("dp3d", &a.dp3d, &b.dp3d)]
    {
        for (i, (x, y)) in fa.iter().zip(fb.iter()).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{what}: {name}[{i}] differs: {x:e} vs {y:e}");
        }
    }
}

/// The planned Blocked path against the scalar oracle over the dimension
/// space the plan specializes on: every level count the fused sweeps must
/// handle (single level, the two-level edge, a deep 128-level column)
/// crossed with sponge off and a sponge deeper than the shallow columns
/// (the `ks = min(sponge_layers, nlev)` clamp). Ten subcycled
/// applications stay bitwise identical.
#[test]
fn planned_hypervis_matches_scalar_across_dims_bitwise() {
    for &nlev in &[1usize, 2, 3, 26, 128] {
        for &sponge in &[0usize, 3] {
            let dims = Dims { nlev, qsize: 0 };
            let run = |path: KernelPath| {
                let mut dy = Dycore::new(NE, dims, 2000.0, hv_config(sponge));
                dy.kernels = path;
                let mut st = initial_state(&dy);
                for _ in 0..10 {
                    dy.apply_hypervis_n(&mut st, 3).expect("plan accepted");
                }
                st
            };
            let scalar = run(KernelPath::Scalar);
            let blocked = run(KernelPath::Blocked);
            assert_fields_bitwise(&scalar, &blocked, &format!("nlev={nlev} sponge={sponge}"));
        }
    }
}

/// The weak-form del^4 damping of dp3d is a pure redistribution: the
/// DSS-assembled weak Laplacian sums to zero over the closed sphere, so
/// total `spheremp`-weighted mass survives ten subcycled applications to
/// round-off on both kernel paths.
#[test]
fn subcycled_hypervis_conserves_dp3d_mass() {
    let dims = Dims { nlev: 8, qsize: 0 };
    for path in [KernelPath::Scalar, KernelPath::Blocked] {
        let mut dy = Dycore::new(NE, dims, 2000.0, hv_config(3));
        dy.kernels = path;
        let mut st = initial_state(&dy);
        let mass = |dy: &Dycore, st: &State| -> f64 {
            let fl = dims.field_len();
            let mut total = 0.0;
            for (e, ops) in dy.ops.iter().enumerate() {
                for k in 0..dims.nlev {
                    for p in 0..NPTS {
                        total += ops.spheremp[p] * st.dp3d[e * fl + k * NPTS + p];
                    }
                }
            }
            total
        };
        let m0 = mass(&dy, &st);
        for _ in 0..10 {
            dy.apply_hypervis(&mut st).expect("plan accepted");
        }
        let m1 = mass(&dy, &st);
        let rel = ((m1 - m0) / m0).abs();
        assert!(rel < 1e-12, "{path:?}: dp3d mass drifted by {rel:e} ({m0} -> {m1})");
    }
}

/// Shallow-column regression (serial + distributed): a sponge deeper than
/// the column (`sponge_layers = 3`, `nlev` in {1, 2}) clamps to the
/// available levels instead of indexing past them, actually damps, and
/// the distributed driver commits the serial one's bits.
#[test]
fn shallow_level_sponge_clamps_serial_and_distributed() {
    let ne = 3;
    for &nlev in &[1usize, 2] {
        let dims = Dims { nlev, qsize: 0 };
        let cfg = hv_config(3);
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        let initial = st.clone();
        serial.apply_hypervis_n(&mut st, 3).expect("plan accepted");
        assert!(st.t.iter().all(|x| x.is_finite()), "nlev={nlev}: non-finite after sponge");
        assert!(
            st.t.iter().zip(&initial.t).any(|(a, b)| a != b),
            "nlev={nlev}: hyperviscosity was a no-op"
        );

        let grid = CubedSphere::new(ne);
        let part = Partition::new(&grid, 4);
        let results = run_ranks(4, |ctx| {
            let mut dist =
                DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, ExchangeMode::Redesigned);
            let mut local = dist.local_state(&initial);
            dist.apply_hypervis_n(ctx, &mut local, 3).expect("plan accepted");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (dist.plan.owned.clone(), local)
        });
        for (owned, local) in results {
            for (li, &e) in owned.iter().enumerate() {
                let es = local.elem(li);
                let rs = st.elem(e);
                for i in 0..dims.field_len() {
                    assert!(
                        es.u[i].to_bits() == rs.u[i].to_bits()
                            && es.v[i].to_bits() == rs.v[i].to_bits()
                            && es.t[i].to_bits() == rs.t[i].to_bits()
                            && es.dp3d[i].to_bits() == rs.dp3d[i].to_bits(),
                        "nlev={nlev} elem {e}[{i}] diverged from serial"
                    );
                }
            }
        }
    }
}

/// The subcycle count, derived. One forward-Euler subcycle multiplies the
/// mode with Laplacian eigenvalue `lambda` by `1 - nu lambda^2 dt / n`;
/// it grows past `nu lambda^2 dt / n = 2` and decays monotonically below 1.
/// `laplacian_lambda_max` bounds the stiffest `lambda` of the assembled
/// operator (4.015e-11 / 1.582e-10 / 6.305e-10 / 2.220e-9 m^-2 at ne 4 /
/// 8 / 16 / 30, i.e. `lambda_max (R dab/2)^2 ~ 62` at every resolution),
/// and `DycoreConfig::for_ne` couples `nu ~ ne^-3.2`, `dt ~ ne^-1` against
/// `lambda_max^2 ~ ne^4`, so `nu lambda_max^2 dt` = 2.29 / 1.94 / 1.67 /
/// 1.48 shrinks slowly with refinement. `subcycles_for` targets 1 per
/// subcycle: the operator alone asks for ceil of those — 3 / 2 / 2 / 2 —
/// and HOMME's production floor of 3 decides every default configuration.
#[test]
fn subcycle_counts_derived_from_the_measured_operator() {
    for &(ne, unfloored) in &[(4usize, 3usize), (8, 2), (16, 2), (30, 2)] {
        let cfg = DycoreConfig::for_ne(ne);
        let lambda_max = laplacian_lambda_max(&CubedSphere::new(ne));
        let bare = HypervisConfig { subcycles: 1, ..cfg.hypervis };
        assert_eq!(bare.subcycles_for(lambda_max, cfg.dt), unfloored, "ne{ne} un-floored");
        assert_eq!(cfg.hypervis.subcycles_for(lambda_max, cfg.dt), 3, "ne{ne} production floor");
    }
}

/// Top eigenvalue magnitude of one assembled one-level operator: `apply`
/// runs the element kernels and the DSS on the `x.len()` fields, and the
/// iteration runs in the mass (`spheremp`) norm. Every estimate
/// `|P A x| / |x|` is at most `|A|_M`, converged or not.
fn assembled_lambda(ops: &[ElemOps], mut x: Vec<Vec<f64>>, mut apply: impl FnMut(&mut [Vec<f64>])) -> f64 {
    let norm = |x: &[Vec<f64>]| -> f64 {
        let weighted = |f: &Vec<f64>| -> f64 {
            let per_elem = f.chunks_exact(NPTS).zip(ops);
            per_elem.map(|(fe, op)| fe.iter().zip(&op.spheremp).map(|(v, w)| w * v * v).sum::<f64>()).sum()
        };
        x.iter().map(weighted).sum::<f64>().sqrt()
    };
    let mut lambda = 0.0;
    for _ in 0..400 {
        let size = norm(&x);
        x.iter_mut().flatten().for_each(|v| *v /= size);
        apply(&mut x);
        lambda = norm(&x);
    }
    lambda
}

/// The `lambda_max` bound is rigorous and tight. It is `max_e |A_e|_M`
/// over the cube's symmetry wedge (face 0, `ei <= ej < ceil(ne/2)`); the
/// DSS is the mass-orthogonal projection, so it cannot be below the
/// assembled operator's top eigenvalue, here converged by power iteration
/// on the scalar weak Laplacian and on the vector Laplacian. It sits
/// within 2% of that value, the wedge holds the all-element maximum of
/// both blocks, the vector block never decides, and
/// `lambda_max (R dab/2)^2` is the same number at every resolution.
#[test]
fn lambda_max_bound_sits_just_above_the_assembled_operator() {
    for ne in [4usize, 8, 16] {
        let grid = CubedSphere::new(ne);
        let bound = laplacian_lambda_max(&grid);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let sched = ElemScheduler::new(1);
        let noise = |salt: usize| -> Vec<f64> {
            (0..ops.len() * NPTS).map(|i| (((i + salt) * 7919 % 1013) as f64) / 1013.0 - 0.5).collect()
        };
        let scalar = assembled_lambda(&ops, vec![noise(0)], |x| {
            laplace_flat(&ops, &mut dss, &sched, 1, &mut x[0]);
        });
        let vector = assembled_lambda(&ops, vec![noise(1), noise(2)], |x| {
            let [u, v] = x else { unreachable!() };
            vlaplace_flat(&ops, &mut dss, &sched, 1, u, v);
        });
        let assembled = scalar.max(vector);
        assert!(
            assembled <= bound && bound <= 1.02 * assembled,
            "ne{ne}: bound {bound:e} vs assembled {assembled:e}"
        );

        let half = ne.div_ceil(2);
        let mut all = [0.0_f64; 2];
        let mut wedge = [0.0_f64; 2];
        for (el, op) in grid.elements.iter().zip(&ops) {
            let norms = laplacian_norms(op);
            let in_wedge = el.face == 0 && el.ei <= el.ej && el.ej < half;
            for b in 0..2 {
                all[b] = all[b].max(norms[b]);
                if in_wedge {
                    wedge[b] = wedge[b].max(norms[b]);
                }
            }
        }
        for (b, block) in ["scalar", "vector"].iter().enumerate() {
            let rel = (all[b] - wedge[b]).abs() / all[b];
            assert!(rel <= 1e-12, "ne{ne} {block}: wedge {:e} vs all elements {:e}", wedge[b], all[b]);
        }
        assert_eq!(bound.to_bits(), wedge[0].max(wedge[1]).to_bits(), "ne{ne}: the bound is the wedge max");
        assert!(wedge[1] < wedge[0], "ne{ne}: vector bound {:e} >= scalar {:e}", wedge[1], wedge[0]);

        let half_width = EARTH_RADIUS * grid.elements[0].dab / 2.0;
        let scaled = bound * half_width * half_width;
        assert!((scaled / 61.7 - 1.0).abs() < 0.03, "ne{ne}: lambda_max (R dab/2)^2 = {scaled}");
    }
}

/// The bound is tight, not merely safe. Seed the `lambda_max` eigenvector
/// as T and scale nu so `nu lambda_max^2 dt / n` sits 5% either side of the
/// forward-Euler limit 2: just inside, 20 applications shrink the mode;
/// just outside, `apply_hypervis_n` rejects the count with the state
/// bitwise untouched *and* 20 raw forward-Euler applications of the weak
/// biharmonic at the same coefficient grow it. So the bound is within 5%
/// of the true stability edge from both sides.
#[test]
fn measured_lambda_max_is_within_5_percent_of_the_stability_edge() {
    let dims = Dims { nlev: 1, qsize: 0 };
    let dt = 300.0;
    for ne in [4usize, 8] {
        let cfg = DycoreConfig {
            dt,
            hypervis: HypervisConfig { subcycles: 1, ..HypervisConfig::off() },
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(ne, dims, 2000.0, cfg);
        let lambda_max = dy.hypervis_stability().lambda_max;
        // Converged top eigenvector of DSS . laplace_sphere_wk.
        let mut mode: Vec<f64> =
            (0..dy.grid.nelem() * NPTS).map(|i| ((i * 7919 % 1013) as f64) / 1013.0 - 0.5).collect();
        let amplitude = |x: &[f64]| x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for _ in 0..300 {
            laplace_flat(&dy.ops, &mut dy.dss, &dy.sched, 1, &mut mode);
            let a = amplitude(&mode);
            mode.iter_mut().for_each(|v| *v /= a);
        }
        let mut seeded = dy.zero_state();
        seeded.t.copy_from_slice(&mode);
        seeded.dp3d.fill(1.0);

        for n in [1usize, 3] {
            let nu_at = |edge: f64| 2.0 * edge * n as f64 / (lambda_max * lambda_max * dt);

            let nu = nu_at(0.95);
            dy.cfg.hypervis.nu = nu;
            dy.cfg.hypervis.nu_p = nu;
            let mut st = seeded.clone();
            for _ in 0..20 {
                dy.apply_hypervis_n(&mut st, n).expect("inside the limit");
            }
            assert!(amplitude(&st.t) < 0.5, "ne{ne} n={n}: 0.95 of the limit did not decay");

            let nu = nu_at(1.05);
            dy.cfg.hypervis.nu = nu;
            dy.cfg.hypervis.nu_p = nu;
            let mut st = seeded.clone();
            let err = dy.apply_hypervis_n(&mut st, n).unwrap_err();
            let needed = (2.1 * n as f64).ceil() as usize;
            assert!(
                matches!(
                    err,
                    HealthError::Hypervis(HypervisError::UnstableSubcycles { requested, needed: k })
                        if requested == n && k == needed
                ),
                "ne{ne} n={n}: got {err:?}"
            );
            assert_fields_bitwise(&seeded, &st, "state after rejected subcycle count");
            let mut t = mode.clone();
            let mut lap2 = vec![0.0; t.len()];
            for _ in 0..20 {
                lap2.copy_from_slice(&t);
                biharmonic_flat(&dy.ops, &mut dy.dss, &dy.sched, 1, &mut lap2);
                for (x, l) in t.iter_mut().zip(&lap2) {
                    *x -= nu * dt / n as f64 * l;
                }
            }
            assert!(amplitude(&t) > 2.0, "ne{ne} n={n}: 1.05 of the limit did not grow");
        }
    }
}

/// Three subcycles forecast what thirty-six did: the old heuristic count
/// and the derived one are two time-discretisations of the same damping
/// (nu untouched), so 40 steps of a perturbed balanced jet at ne4 keep the
/// same maximum wind to 0.1 m/s and the same dry mass to round-off.
#[test]
fn three_subcycles_track_thirty_six() {
    let dims = Dims { nlev: 4, qsize: 0 };
    let run = |subcycles: usize| {
        let mut dy = Dycore::new(4, dims, 2000.0, DycoreConfig::for_ne(4));
        let vert = dy.rhs.vert.clone();
        let elems = dy.grid.elements.clone();
        let mut st = dy.zero_state();
        let (t0, u0) = (300.0, 30.0);
        let c = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) / (RD * t0);
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
                let ps = P0 * (-c * lat.sin() * lat.sin()).exp();
                for k in 0..dims.nlev {
                    let i = k * NPTS + p;
                    es.u[i] = u0 * lat.cos();
                    es.t[i] = t0 + 2.0 * lat.cos().powi(2) * (2.0 * lon).sin();
                    es.dp3d[i] = vert.dp_ref(k, ps);
                }
            }
        }
        let mass0 = dy.total_mass(&st);
        for _ in 0..40 {
            dy.dynamics_step(&mut st);
            dy.apply_hypervis_n(&mut st, subcycles).expect("plan accepted");
            dy.vertical_remap(&mut st).expect("remap");
        }
        (dy.max_wind(&st), (dy.total_mass(&st) - mass0) / mass0)
    };
    let (wind3, drift3) = run(3);
    let (wind36, drift36) = run(36);
    assert!((wind3 - wind36).abs() < 0.1, "max wind {wind3} at 3 subcycles vs {wind36} at 36");
    assert!(wind3 > 25.0 && wind3 < 40.0, "jet lost: {wind3} m/s");
    assert!(drift3.abs() < 1e-12 && drift36.abs() < 1e-12, "dry mass drift {drift3:e} / {drift36:e}");
}

/// Serial and distributed drivers agree on the `lambda_max` bound to
/// the bit, and so on the subcycle count, on every rank of every partition
/// — the count is part of the exchange schedule, so a disagreement would
/// deadlock the fused hyperviscosity exchanges, and no message is spent
/// agreeing on it.
#[test]
fn subcycle_count_agrees_between_serial_and_distributed() {
    for &ne in &[4usize, 8] {
        let dims = Dims { nlev: 3, qsize: 0 };
        let cfg = DycoreConfig::for_ne(ne);
        let serial = Dycore::new(ne, dims, 2000.0, cfg);
        let want = serial.hypervis_stability();
        assert_eq!(want.subcycles, serial.hypervis_subcycles());
        let grid = CubedSphere::new(ne);
        for nranks in [2usize, 5] {
            let part = Partition::new(&grid, nranks);
            let got = run_ranks(nranks, |ctx| {
                let dist = DistDycore::new(
                    &grid,
                    &part,
                    ctx.rank(),
                    dims,
                    2000.0,
                    cfg,
                    ExchangeMode::Redesigned,
                );
                assert_eq!(dist.hypervis_stability().subcycles, dist.hypervis_subcycles());
                dist.hypervis_stability()
            });
            for (rank, got) in got.into_iter().enumerate() {
                assert_eq!(
                    got.lambda_max.to_bits(),
                    want.lambda_max.to_bits(),
                    "ne{ne} rank {rank}/{nranks}: lambda_max differs from serial"
                );
                assert_eq!(got, want, "ne{ne} rank {rank}/{nranks} disagrees with serial");
            }
        }
    }
}

/// A corrupt element is rejected by the plan build as a typed
/// [`HypervisError::BadGeometry`] naming the element and GLL point —
/// before any sweep runs, so the state is bitwise untouched and the
/// caller can retry from it after repairing the geometry.
#[test]
fn corrupt_geometry_rejected_before_any_state_mutation() {
    let dims = Dims { nlev: 4, qsize: 0 };
    let mut dy = Dycore::new(NE, dims, 2000.0, hv_config(3));
    let mut st = initial_state(&dy);
    dy.ops[5].spheremp[7] = f64::NAN;
    let before = st.clone();
    let err = dy.apply_hypervis(&mut st).unwrap_err();
    assert!(
        matches!(err, HealthError::Hypervis(HypervisError::BadGeometry { elem: 5, point: 7 })),
        "got {err:?}"
    );
    assert_fields_bitwise(&before, &st, "state after rejected plan");
}

/// The same rejection routes through the guarded step driver as a typed
/// [`HealthError::Hypervis`], the rollback signal `step_checked` callers
/// act on (restore from checkpoint, repair, retry).
#[test]
fn guarded_step_surfaces_hypervis_rejection_as_typed_error() {
    let dims = Dims { nlev: 4, qsize: 0 };
    let mut dy = Dycore::new(NE, dims, 2000.0, hv_config(3));
    dy.health = HealthConfig::on();
    let mut st = initial_state(&dy);
    dy.ops[2].spheremp[0] = -1.0;
    let err = dy.step_checked(&mut st).unwrap_err();
    assert!(matches!(err, HealthError::Hypervis(HypervisError::BadGeometry { elem: 2, .. })), "got {err:?}");
}

/// A non-finite timestep (e.g. inherited from a corrupted restart) is
/// caught as [`HypervisError::NonFiniteCoef`] instead of silently
/// poisoning every field through the damping coefficients.
#[test]
fn non_finite_dt_rejected_as_typed_coef_error() {
    let dims = Dims { nlev: 4, qsize: 0 };
    let mut dy = Dycore::new(NE, dims, 2000.0, hv_config(0));
    let mut st = initial_state(&dy);
    dy.cfg.dt = f64::NAN;
    let err = dy.apply_hypervis(&mut st).unwrap_err();
    assert!(matches!(err, HealthError::Hypervis(HypervisError::NonFiniteCoef { .. })), "got {err:?}");
}
