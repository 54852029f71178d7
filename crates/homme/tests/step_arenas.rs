//! Contracts of the lean default step (DESIGN.md §5.13): the blocked KG5
//! loop reads `u_0` from the state and overwrites one stage arena in place,
//! plain and guarded stepping share that one loop, and the tracer step runs
//! all three SSP stages of a tracer chunk before the next chunk.
//!
//! - Guarded and plain stepping give the same bits at the nggps shape
//!   (ne8, nlev 26) with 25 tracers, over several steps, at 1, 2 and 3
//!   workers.
//! - A non-finite value that first shows up at RK stages 1–4 is rejected
//!   with the state bitwise equal to its pre-step value; one first seen at
//!   stage 5 leaves the rejected `u_5` in the state. Both kernel paths.

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::{
    DegradePolicy, Dims, Dycore, DycoreConfig, HealthConfig, HealthError, KernelPath, State,
};

/// Sheared winds, a temperature ripple and 25 tracers of both signs, so the
/// limiter acts and every phase of the step does real work.
fn nggps_like_state(dy: &Dycore) -> State {
    let d = dy.dims;
    let vert = dy.rhs.vert.clone();
    let mut st = dy.zero_state();
    for (e, el) in dy.grid.elements.iter().enumerate() {
        let es = st.elem_mut(e);
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            for k in 0..d.nlev {
                let i = k * NPTS + p;
                es.u[i] = 30.0 * lat.cos() + 0.5 * k as f64;
                es.v[i] = 8.0 * (2.0 * lon).sin() * lat.cos();
                es.t[i] = 250.0 + 20.0 * lat.cos() + 0.3 * ((i % 7) as f64 - 3.0);
                es.dp3d[i] = vert.dp_ref(k, P0 * (1.0 - 0.002 * lat.sin()));
                for q in 0..d.qsize {
                    let mix = 0.01 * (3.0 * lon + q as f64).sin() * lat.cos() + 0.002;
                    es.qdp[(q * d.nlev + k) * NPTS + p] = mix * es.dp3d[i];
                }
            }
        }
    }
    st
}

fn bits(st: &State) -> Vec<u64> {
    [&st.u, &st.v, &st.t, &st.dp3d, &st.qdp]
        .iter()
        .flat_map(|f| f.iter())
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn guarded_step_matches_plain_step_at_the_nggps_shape() {
    let dims = Dims { nlev: 26, qsize: 25 };
    let cfg = DycoreConfig::for_ne(8);
    let mut plain = Dycore::new(8, dims, 200.0, cfg);
    let mut guarded = Dycore::new(8, dims, 200.0, cfg);
    guarded.health = HealthConfig::on();
    let start = nggps_like_state(&plain);
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 3] {
        plain.set_threads(threads);
        guarded.set_threads(threads);
        let (mut a, mut b) = (start.clone(), start.clone());
        for step in 0..3 {
            plain.step(&mut a);
            let health = guarded.step_checked(&mut b).expect("healthy step");
            assert!(health.checked && !health.degraded, "step {step}: {health:?}");
        }
        let got = bits(&b);
        assert!(bits(&a) == got, "threads={threads}: guards changed the trajectory");
        match &reference {
            None => reference = Some(got),
            Some(r) => assert!(*r == got, "threads={threads}: worker count changed the bits"),
        }
    }
}

/// Scale the winds until the guarded step rejects a non-finite stage: from
/// 10^0 to 10^4 in tenths of a decade the first non-finite value turns up
/// at every stage from 2 to 5, and at 10^150 already at stage 1 (`u²`
/// overflows). Each rejection must leave the state as documented, on both
/// kernel paths.
#[test]
fn rk_stage_rejection_leaves_the_state_as_documented() {
    let dims = Dims { nlev: 3, qsize: 2 };
    let amps = (0..=40).map(|tenth| 10f64.powf(tenth as f64 / 10.0)).chain([1e150]);
    for path in [KernelPath::Blocked, KernelPath::Scalar] {
        let mut dy = Dycore::new(2, dims, 200.0, DycoreConfig::for_ne(2));
        dy.kernels = path;
        dy.health = HealthConfig { min_dp3d: f64::NEG_INFINITY, ..HealthConfig::on() };
        // Every probe is one full-dt step: a CFL breach must not split the
        // next probe into two half steps, the first of which would commit.
        dy.degrade = DegradePolicy { halve_dt_steps: 0 };
        let start = nggps_like_state(&dy);
        let mut seen = [false; 5];
        for amp in amps.clone() {
            let mut st = start.clone();
            for (u, v) in st.u.iter_mut().zip(st.v.iter_mut()) {
                *u *= amp;
                *v *= amp;
            }
            let before = st.clone();
            let stage = match dy.step_checked(&mut st) {
                Err(HealthError::NonFinite { stage, .. }) => stage,
                _ => continue,
            };
            seen[stage] = true;
            if stage < 4 {
                assert!(
                    bits(&st) == bits(&before),
                    "{path:?} x{amp:e}: stage {stage} wrote the state"
                );
            } else {
                // The rejected u_5 is in the state: exactly what the plain
                // RK loop computes, with nothing after it applied.
                let mut u5 = before;
                dy.dynamics_step(&mut u5);
                assert!(bits(&st) == bits(&u5), "{path:?} x{amp:e}: the state is not u_5");
            }
        }
        assert_eq!(seen, [true; 5], "{path:?}: not every RK stage was the first to fail");
    }
}
