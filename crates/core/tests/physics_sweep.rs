//! The coupled step's physics runs as one element-parallel sweep
//! (`coupling::apply_physics_checked`). These tests pin it bitwise:
//!
//! * every registered scenario (the builtins plus `katrina`, and the
//!   aquaplanet under the full suite, the only user of radiation and
//!   convection) takes ten coupled steps to the same state and
//!   precipitation at 1, 2, 3 and 5 workers — and to the hashes the serial,
//!   allocating column loop it replaced produced, recorded below;
//! * with two poisoned columns the error names the lower `e·16 + p` at
//!   every worker count, and neither column is written.
//!
//! The worker count is set per dycore with `Dycore::set_threads`, so no
//! test here reads or writes `SWCAM_THREADS`.

use swcam_core::cubesphere::NPTS;
use swcam_core::homme::{HealthError, PhysicsFault, State};
use swcam_core::swphysics::PhysicsDiag;
use swcam_core::{apply_physics_checked, ScenarioRegistry, ScenarioSpec, SuiteChoice};

const STEPS: usize = 10;
const WORKERS: [usize; 4] = [1, 2, 3, 5];
const SEED: u64 = 11;

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn state_hash(st: &State) -> u64 {
    fnv([&st.u, &st.v, &st.t, &st.dp3d, &st.qdp]
        .into_iter()
        .flatten()
        .map(|x| x.to_bits()))
}

/// `(state hash, precipitation hash)` after `STEPS` coupled steps.
fn run(spec: &ScenarioSpec, workers: usize) -> (u64, u64) {
    let mut model = spec.build_model(SEED);
    model.dycore.set_threads(workers);
    model.run_steps(STEPS);
    (
        state_hash(&model.state),
        fnv(model.precip_accum.iter().map(|x| x.to_bits())),
    )
}

fn assert_pinned(spec: &ScenarioSpec, pinned: (u64, u64)) {
    for workers in WORKERS {
        assert_eq!(
            run(spec, workers),
            pinned,
            "{} at {workers} workers",
            spec.name
        );
    }
}

fn builtin(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .get(name)
        .expect("builtin scenario")
        .clone()
}

#[test]
fn resting_matches_the_serial_loop_at_every_worker_count() {
    assert_pinned(
        &builtin("resting"),
        (0x9e8a_663c_0a3a_c85b, 0x7e8e_0fa7_8435_1325),
    );
}

#[test]
fn aquaplanet_matches_the_serial_loop_at_every_worker_count() {
    assert_pinned(
        &builtin("aquaplanet"),
        (0xf91b_b134_5727_c68b, 0x6e43_1751_526d_e325),
    );
}

#[test]
fn full_suite_aquaplanet_matches_the_serial_loop_at_every_worker_count() {
    let mut spec = builtin("aquaplanet");
    spec.config.suite = SuiteChoice::Full;
    assert_pinned(&spec, (0x18c3_aa1b_8b02_9ef5, 0x029b_9e7a_3599_893a));
}

#[test]
fn held_suarez_matches_the_serial_loop_at_every_worker_count() {
    assert_pinned(
        &builtin("held-suarez"),
        (0x0956_4c55_36ef_85d6, 0x6e43_1751_526d_e325),
    );
}

#[test]
fn nggps_matches_the_serial_loop_at_every_worker_count() {
    assert_pinned(
        &builtin("nggps"),
        (0xa51d_cee9_e616_4f02, 0x68c0_0ea4_9d51_2325),
    );
}

#[test]
fn katrina_matches_the_serial_loop_at_every_worker_count() {
    let mut reg = ScenarioRegistry::builtin();
    katrina::register_scenario(&mut reg);
    assert_pinned(
        reg.get("katrina").expect("registered"),
        (0x4d28_f00e_8318_1e38, 0x6e43_1751_526d_e325),
    );
}

#[test]
fn lowest_rejected_column_is_named_and_no_rejected_column_is_written() {
    let spec = builtin("aquaplanet");
    let mut model = spec.build_model(SEED);
    let bad = [(17, 2), (3, 5)];
    for &(e, p) in &bad {
        model.state.elem_mut(e).t[4 * NPTS + p] = f64::NAN;
    }
    let before = model.state.clone();
    let nlev = model.dycore.dims.nlev;
    for workers in WORKERS {
        model.dycore.set_threads(workers);
        let mut state = before.clone();
        let mut diags = vec![PhysicsDiag::default(); state.nelem() * NPTS];
        let err = apply_physics_checked(
            &model.dycore,
            &mut state,
            &model.suite,
            1800.0,
            302.15,
            &mut diags,
        )
        .expect_err("NaN columns must be rejected");
        assert_eq!(
            err,
            HealthError::Physics {
                elem: 3,
                point: 5,
                fault: PhysicsFault::NonFinite
            },
            "{workers} workers"
        );
        for &(e, p) in &bad {
            let (now, was) = (state.elem(e), before.elem(e));
            for k in 0..nlev {
                let i = k * NPTS + p;
                for (f, a, b) in [
                    ("t", now.t, was.t),
                    ("u", now.u, was.u),
                    ("v", now.v, was.v),
                ] {
                    assert_eq!(
                        a[i].to_bits(),
                        b[i].to_bits(),
                        "{workers} workers: {f} of ({e},{p}) written"
                    );
                }
            }
            for (a, b) in now.qdp.iter().zip(was.qdp).skip(p).step_by(NPTS) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: qdp of ({e},{p}) written"
                );
            }
        }
    }
}
