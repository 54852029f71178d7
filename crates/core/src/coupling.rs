//! Physics–dynamics coupling: one element-parallel sweep that loads each
//! GLL column of the spectral-element state into a worker-owned [`Column`],
//! runs the column physics, and stores the updated fields back.
//!
//! Tracer convention: tracer 0 = water vapour `qv`, 1 = cloud water `qc`,
//! 2 = rain water `qr` (all stored as mass `q * dp3d`).

use crate::config::ModelConfig;
use cubesphere::NPTS;
use homme::sched::Arena;
use homme::{Dims, Dycore, ElemMut, ElemRef, HealthError, PhysicsFault, State};
use std::sync::Mutex;
use swphysics::{Column, PhysicsDiag, PhysicsError, PhysicsSuite};

/// Load GLL column `p` of element `es` into `col` with `clear` + `push`, so
/// a column built by [`Column::with_capacity`] for `dims.nlev` layers never
/// allocates. Moisture tracers beyond `dims.qsize` load as zero.
fn load_column(
    col: &mut Column,
    es: ElemRef<'_>,
    dims: Dims,
    ptop: f64,
    p: usize,
    lat: f64,
    sst: f64,
) {
    let Dims { nlev, qsize } = dims;
    let Column { p_mid, p_int, dp, t, u, v, qv, qc, qr, .. } = col;
    for f in [&mut *p_mid, &mut *p_int, &mut *dp, &mut *t, &mut *u, &mut *v] {
        f.clear();
    }
    let mut pi = ptop;
    p_int.push(pi);
    for k in 0..nlev {
        let i = k * NPTS + p;
        let d = es.dp3d[i];
        dp.push(d);
        p_mid.push(pi + 0.5 * d);
        pi += d;
        p_int.push(pi);
        t.push(es.t[i]);
        u.push(es.u[i]);
        v.push(es.v[i]);
    }
    for (q, field) in [qv, qc, qr].into_iter().enumerate() {
        field.clear();
        field.extend((0..nlev).map(|k| {
            if q < qsize {
                es.qdp[(q * nlev + k) * NPTS + p] / es.dp3d[k * NPTS + p]
            } else {
                0.0
            }
        }));
    }
    col.lat = lat;
    col.ts = sst;
}

/// Store a physics-updated column back into GLL column `p` of element `es`
/// (`t`, `u`, `v`, and the moisture tracers the state carries, as mass).
fn store_column(col: &Column, es: &mut ElemMut<'_>, dims: Dims, p: usize) {
    let Dims { nlev, qsize } = dims;
    for k in 0..nlev {
        let i = k * NPTS + p;
        es.t[i] = col.t[k];
        es.u[i] = col.u[k];
        es.v[i] = col.v[k];
        let dp = es.dp3d[i];
        for (q, field) in [&col.qv, &col.qc, &col.qr].into_iter().enumerate() {
            if q < qsize {
                es.qdp[(q * nlev + k) * NPTS + p] = field[k] * dp;
            }
        }
    }
}

/// Translate a physics column rejection into the dycore's rollback-capable
/// error type (the `RemapError` precedent: a typed error the health
/// machinery can snapshot-restore on).
pub fn physics_health_error(e: usize, p: usize, err: &PhysicsError) -> HealthError {
    let fault = match err {
        PhysicsError::NonFinite { .. } => PhysicsFault::NonFinite,
        PhysicsError::NegativeMoisture { .. } => PhysicsFault::NegativeMoisture,
    };
    HealthError::Physics { elem: e, point: p, fault }
}

/// Run the physics suite over every column, vetting each before and after
/// its step ([`PhysicsSuite::step_checked`]). Diagnostics are written into
/// the caller's `diags` slice (`nelem * NPTS` long, indexed `e * NPTS + p`).
///
/// Elements run in parallel on the dycore's scheduler, one job per element:
/// the job loads each of the element's 16 columns into a [`Column`] owned by
/// its worker ([`homme::ElemScheduler::with_scratch`]), steps it, and
/// stores it back. Every column sees exactly the arithmetic of a serial
/// column loop, so the state is bitwise independent of the worker count, and
/// after the pool's first call nothing here allocates.
/// [`PhysicsSuite::None`] short-circuits: no column is loaded, so the state
/// is untouched bitwise (a load/store round trip would re-quantize `qdp`
/// through `(q/dp)*dp`).
///
/// A rejected column is **never** stored: its bad values do not reach the
/// state. An element stops at its first rejected column; the other elements
/// finish. On `Err` the state therefore holds a partially stepped mix and
/// the caller must roll back (exactly what the ensemble driver and the
/// resilient runner do — the same contract as [`Dycore::vertical_remap`]).
///
/// # Errors
/// The rejected column with the lowest `e * NPTS + p`, as
/// [`HealthError::Physics`] — the column a serial loop would have stopped
/// at, whatever the worker count.
///
/// # Panics
/// Panics if `diags` is shorter than `nelem * NPTS`.
pub fn apply_physics_checked(
    dy: &Dycore,
    state: &mut State,
    suite: &PhysicsSuite,
    dt: f64,
    sst: f64,
    diags: &mut [PhysicsDiag],
) -> Result<(), HealthError> {
    let nelem = state.nelem();
    assert!(diags.len() >= nelem * NPTS, "diags slice too short");
    if matches!(suite, PhysicsSuite::None) {
        diags[..nelem * NPTS].fill(PhysicsDiag::default());
        return Ok(());
    }
    let dims = dy.dims;
    let (fl, tl) = (dims.field_len(), dims.tracer_len());
    let ptop = dy.rhs.vert.ptop();
    let elements = &dy.grid.elements;
    // Lowest rejected `e * NPTS + p` so far, with its error.
    let first: Mutex<Option<(usize, HealthError)>> = Mutex::new(None);
    let State { u, v, t, dp3d, qdp, phis, .. } = state;
    let arenas = (
        [u, v, t, dp3d].map(|f| Arena::new(f, fl, fl)),
        (Arena::new(qdp, tl, tl), Arena::new(phis, NPTS, NPTS)),
        Arena::new(diags, NPTS, NPTS),
    );
    let make = || Column::with_capacity(dims.nlev);
    dy.sched.with_scratch(make, |cols| {
        dy.sched.run_windows(0..nelem, (cols, arenas), |e, (col, windows)| {
            let ([u, v, t, dp3d], (qdp, phis), diag) = windows;
            let mut es = ElemMut { u, v, t, dp3d, qdp, phis };
            for p in 0..NPTS {
                load_column(col, es.as_ref(), dims, ptop, p, elements[e].metric[p].lat, sst);
                match suite.step_checked(col, dt) {
                    Ok(d) => diag[p] = d,
                    Err(err) => {
                        let at = e * NPTS + p;
                        let mut first = first.lock().unwrap_or_else(|poison| poison.into_inner());
                        if first.as_ref().is_none_or(|&(lowest, _)| at < lowest) {
                            *first = Some((at, physics_health_error(e, p, &err)));
                        }
                        return;
                    }
                }
                store_column(col, &mut es, dims, p);
            }
        })
    });
    match first.into_inner().unwrap_or_else(|poison| poison.into_inner()) {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}

/// One coupled step of a model or an ensemble member: the dycore's checked
/// step ([`Dycore::step_checked`]), then — when `step`, the 1-based number
/// of the step being taken, is a multiple of `config.nsplit` — the physics
/// over the accumulated interval, with its precipitation added to `precip`.
///
/// On a reduced-radius planet the physics interval is multiplied by the
/// reduction factor ("diabatic scaling", standard DCMIP small-planet
/// practice): advective timescales contract by `X` while physical rate
/// constants (evaporation, condensation relaxation) do not, so the diabatic
/// forcing must be accelerated by `X` to preserve the dynamics-to-physics
/// balance of the full-size planet.
///
/// # Errors
/// The dycore's or the physics' typed rejection. The state may then hold a
/// partially stepped mix and the caller must roll back or give up.
pub(crate) fn coupled_step(
    dycore: &mut Dycore,
    state: &mut State,
    suite: &PhysicsSuite,
    config: &ModelConfig,
    step: usize,
    diags: &mut [PhysicsDiag],
    precip: &mut [f64],
) -> Result<(), HealthError> {
    dycore.step_checked(state)?;
    if step.is_multiple_of(config.nsplit) {
        let phys_dt = dycore.cfg.dt * config.nsplit as f64 * config.planet.reduction();
        apply_physics_checked(dycore, state, suite, phys_dt, config.sst, diags)?;
        for (acc, d) in precip.iter_mut().zip(diags.iter()) {
            *acc += d.precip;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesphere::consts::P0;
    use homme::{DycoreConfig, HypervisConfig};

    fn test_dycore() -> (Dycore, State) {
        let dims = Dims { nlev: 8, qsize: 3 };
        let cfg = DycoreConfig {
            dt: 300.0,
            hypervis: HypervisConfig::off(),
            limiter: true,
            rsplit: 1,
        };
        let dy = Dycore::new(2, dims, 2000.0, cfg);
        let mut st = dy.zero_state();
        let vert = dy.rhs.vert.clone();
        for es in st.elems_mut() {
            for k in 0..8 {
                for p in 0..NPTS {
                    es.t[k * NPTS + p] = 280.0 + k as f64;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, P0);
                    es.u[k * NPTS + p] = 5.0;
                    es.qdp[(k) * NPTS + p] = 0.005 * es.dp3d[k * NPTS + p]; // qv
                }
            }
        }
        (dy, st)
    }

    fn load(dy: &Dycore, st: &State, e: usize, p: usize, col: &mut Column) {
        let (ptop, lat) = (dy.rhs.vert.ptop(), dy.grid.elements[e].metric[p].lat);
        load_column(col, st.elem(e), dy.dims, ptop, p, lat, 300.0);
    }

    #[test]
    fn column_roundtrip_is_identity() {
        let (dy, mut st) = test_dycore();
        let before = st.clone();
        let mut col = Column::with_capacity(dy.dims.nlev);
        for e in 0..st.nelem() {
            for p in 0..NPTS {
                load(&dy, &st, e, p, &mut col);
                store_column(&col, &mut st.elem_mut(e), dy.dims, p);
            }
        }
        assert!(st.max_abs_diff(&before) < 1e-14);
    }

    #[test]
    fn extracted_column_geometry_is_consistent() {
        let (dy, st) = test_dycore();
        let mut col = Column::with_capacity(dy.dims.nlev);
        load(&dy, &st, 3, 5, &mut col);
        assert_eq!(col.nlev(), 8);
        assert!((col.ps() - P0).abs() < 1e-6);
        assert!((col.p_int[0] - 2000.0).abs() < 1e-9);
        assert_eq!(col.qv[0], 0.005);
        assert_eq!(col.qc[0], 0.0);
        assert_eq!(col.u[2], 5.0);
    }

    #[test]
    fn physics_none_is_identity() {
        let (dy, mut st) = test_dycore();
        let before = st.clone();
        let mut diags = vec![PhysicsDiag { precip: 1.0, ..Default::default() }; st.nelem() * NPTS];
        apply_physics_checked(&dy, &mut st, &PhysicsSuite::None, 600.0, 300.0, &mut diags)
            .expect("None suite never rejects");
        assert!(st.max_abs_diff(&before) < 1e-14);
        assert!(diags.iter().all(|d| *d == PhysicsDiag::default()));
    }

    #[test]
    fn physics_none_is_bitwise_identity_and_checked_agrees() {
        let (dy, mut st) = test_dycore();
        let before = st.clone();
        let mut diags = vec![PhysicsDiag::default(); st.nelem() * NPTS];
        apply_physics_checked(&dy, &mut st, &PhysicsSuite::None, 600.0, 300.0, &mut diags)
            .expect("None suite never rejects");
        assert_eq!(st.max_abs_diff(&before), 0.0, "None suite must not touch bits");
    }

    /// The sweep is bitwise the serial column loop with the unchecked
    /// suite: load, `step`, store, element-major.
    #[test]
    fn checked_physics_matches_unchecked_on_healthy_state() {
        let (mut dy, mut a) = test_dycore();
        let b = a.clone();
        let suite = PhysicsSuite::Simple(swphysics::SimplePhysics::default());
        let mut col = Column::with_capacity(dy.dims.nlev);
        let mut da = Vec::new();
        for e in 0..a.nelem() {
            for p in 0..NPTS {
                let (ptop, lat) = (dy.rhs.vert.ptop(), dy.grid.elements[e].metric[p].lat);
                load_column(&mut col, a.elem(e), dy.dims, ptop, p, lat, 302.15);
                da.push(suite.step(&mut col, 1800.0));
                store_column(&col, &mut a.elem_mut(e), dy.dims, p);
            }
        }
        for threads in [1, 3] {
            dy.set_threads(threads);
            let mut sb = b.clone();
            let mut db = vec![PhysicsDiag::default(); b.nelem() * NPTS];
            apply_physics_checked(&dy, &mut sb, &suite, 1800.0, 302.15, &mut db)
                .expect("healthy state must pass");
            assert_eq!(a.max_abs_diff(&sb), 0.0, "checked path must be bitwise identical");
            assert_eq!(da, db);
        }
    }

    #[test]
    fn checked_physics_rejects_poisoned_column_without_inserting_it() {
        let (dy, mut st) = test_dycore();
        let (bad_e, bad_p) = (3, 5);
        st.elem_mut(bad_e).t[2 * NPTS + bad_p] = f64::NAN;
        let before = st.clone();
        let suite = PhysicsSuite::Simple(swphysics::SimplePhysics::default());
        let mut diags = vec![PhysicsDiag::default(); st.nelem() * NPTS];
        let err = apply_physics_checked(&dy, &mut st, &suite, 1800.0, 302.15, &mut diags)
            .expect_err("NaN column must be rejected");
        assert_eq!(
            err,
            HealthError::Physics { elem: bad_e, point: bad_p, fault: PhysicsFault::NonFinite }
        );
        // The rejected column itself was never written back.
        let es = st.elem(bad_e);
        let was = before.elem(bad_e);
        for k in 0..dy.dims.nlev {
            assert_eq!(es.u[k * NPTS + bad_p].to_bits(), was.u[k * NPTS + bad_p].to_bits());
        }
    }

    #[test]
    fn checked_physics_rejects_corrupt_moisture() {
        let (dy, mut st) = test_dycore();
        let dp = st.elem(1).dp3d[4 * NPTS + 7];
        st.elem_mut(1).qdp[4 * NPTS + 7] = -0.5 * dp; // qv = -0.5 kg/kg
        let suite = PhysicsSuite::Simple(swphysics::SimplePhysics::default());
        let mut diags = vec![PhysicsDiag::default(); st.nelem() * NPTS];
        let err = apply_physics_checked(&dy, &mut st, &suite, 1800.0, 302.15, &mut diags)
            .expect_err("corrupt moisture must be rejected");
        assert_eq!(
            err,
            HealthError::Physics { elem: 1, point: 7, fault: PhysicsFault::NegativeMoisture }
        );
    }

    #[test]
    fn simple_physics_moistens_over_warm_ocean() {
        let (dy, mut st) = test_dycore();
        let suite = PhysicsSuite::Simple(swphysics::SimplePhysics::default());
        let qv_before = dy.total_tracer_mass(&st, 0);
        let mut diags = vec![PhysicsDiag::default(); st.nelem() * NPTS];
        apply_physics_checked(&dy, &mut st, &suite, 1800.0, 302.15, &mut diags)
            .expect("healthy state must pass");
        let qv_after = dy.total_tracer_mass(&st, 0);
        assert!(qv_after > qv_before, "evaporation must add vapour mass");
    }
}
