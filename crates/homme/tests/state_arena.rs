//! Equivalence suite for the flat SoA state-arena pipeline.
//!
//! The refactored [`Dycore::step`] (flat arena + persistent workspace +
//! element scheduler) must reproduce the seed per-element-`Vec` driver,
//! preserved verbatim in [`homme::SeedStepper`], bitwise: both paths run
//! identical per-element arithmetic and identical DSS accumulation order,
//! so every intermediate is the same f64 and no tolerance is needed.

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::hypervis::HypervisConfig;
use homme::{Dims, Dycore, DycoreConfig, SeedStepper, State};
use proptest::prelude::*;

/// A dynamically interesting initial condition: a balanced-ish zonal jet,
/// a wavenumber-`modulus` temperature perturbation, and tracers with
/// distinct spatial structure per index.
fn initial_state(dy: &Dycore, amp: f64, modulus: usize) -> State {
    let dims = dy.dims;
    let vert = dy.rhs.vert.clone();
    let elems: Vec<_> = dy.grid.elements.clone();
    let mut st = dy.zero_state();
    for (es, el) in st.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let lon = el.metric[p].lon;
            for k in 0..dims.nlev {
                let i = k * NPTS + p;
                es.u[i] = 20.0 * lat.cos();
                es.v[i] = 0.0;
                es.t[i] = 300.0 + amp * ((modulus as f64) * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, P0);
                for q in 0..dims.qsize {
                    let iq = (q * dims.nlev + k) * NPTS + p;
                    let shape = 0.5 + 0.5 * ((q + 1) as f64 * lon).cos() * lat.cos();
                    es.qdp[iq] = 0.01 * shape * es.dp3d[i];
                }
            }
        }
    }
    st
}

/// Hyperviscosity strong enough to exercise the sponge and the subcycle
/// loop but weak enough that the derived count stays at the configured
/// two-subcycle floor (`nu lambda_max^2 dt` is ~1e-3 here), which keeps a
/// debug-mode equivalence run against the seed reference quick.
fn test_hypervis() -> HypervisConfig {
    HypervisConfig { nu: 1.0e15, nu_p: 1.0e15, subcycles: 2, nu_top: 2.5e5, sponge_layers: 3 }
}

/// Ten full steps at the paper-like column configuration
/// (ne4, nlev = 26, qsize = 4): flat pipeline vs seed reference, bitwise.
/// `rsplit = 2` so the trajectory covers both remap and no-remap steps.
#[test]
fn ten_steps_match_seed_reference_bitwise() {
    let dims = Dims { nlev: 26, qsize: 4 };
    let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 2 };
    let mut dy = Dycore::new(4, dims, 200.0, cfg);

    let init = initial_state(&dy, 2.0, 3);
    let mut flat = init.clone();
    for _ in 0..10 {
        dy.step(&mut flat);
    }

    let mut seed = init.clone();
    let mut oracle = SeedStepper::new();
    for _ in 0..10 {
        oracle.step(&mut dy, &mut seed);
    }

    // Guard against a trivially-passing test: the flow must have evolved.
    assert!(flat.max_abs_diff(&init) > 1e-3, "state never evolved");
    let diff = flat.max_abs_diff(&seed);
    assert_eq!(diff, 0.0, "flat pipeline diverged from seed reference by {diff:e}");
}

/// The remap cadence counter must agree between the two drivers: with
/// `rsplit = 3`, steps 3, 6, 9, ... remap and the others do not.
#[test]
fn remap_cadence_matches_seed_reference() {
    let dims = Dims { nlev: 8, qsize: 1 };
    let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 3 };
    let mut dy = Dycore::new(2, dims, 200.0, cfg);

    let init = initial_state(&dy, 1.0, 2);
    let mut flat = init.clone();
    let mut seed = init.clone();
    let mut oracle = SeedStepper::new();
    for step in 1..=7 {
        dy.step(&mut flat);
        oracle.step(&mut dy, &mut seed);
        assert_eq!(flat.max_abs_diff(&seed), 0.0, "divergence at step {step}");
    }
}

proptest! {
    /// Workspace reuse never leaks state between runs: a dycore whose
    /// [`homme::StepWorkspace`] is dirty from stepping an unrelated
    /// trajectory must advance a fresh state bitwise identically to a
    /// freshly-built dycore. Randomizes the decoy trajectory, the target
    /// state, and how many steps dirty the workspace.
    #[test]
    fn workspace_reuse_never_leaks_stale_data(
        decoy_amp in 0.5f64..8.0,
        decoy_modulus in 2usize..9,
        target_amp in 0.5f64..8.0,
        target_modulus in 2usize..9,
        dirty_steps in 1usize..4,
    ) {
        let dims = Dims { nlev: 5, qsize: 1 };
        let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 1 };

        let mut dirty_dy = Dycore::new(2, dims, 200.0, cfg);
        let mut decoy = initial_state(&dirty_dy, decoy_amp, decoy_modulus);
        for _ in 0..dirty_steps {
            dirty_dy.step(&mut decoy);
        }

        let target = initial_state(&dirty_dy, target_amp, target_modulus);
        let mut from_dirty = target.clone();
        dirty_dy.step(&mut from_dirty);

        let mut fresh_dy = Dycore::new(2, dims, 200.0, cfg);
        let mut from_fresh = target.clone();
        fresh_dy.step(&mut from_fresh);

        let diff = from_dirty.max_abs_diff(&from_fresh);
        prop_assert!(diff == 0.0, "dirty workspace leaked into the step: diff {diff:e}");
    }
}
