//! Bitwise contract of the ensemble engine, which steps its members one
//! after another through the shared dycore (each member's whole coupled
//! step before the next member's): member m of an N-member batch is
//! bit-for-bit equal to a standalone run of the same scenario and seed —
//! for every batch width from 1 to 5, across column depths from a single
//! level to a 128-level stratosphere-resolving stack, dry and moist, with
//! members admitted and retired mid-run, and with a poisoned member's NaNs
//! never reaching the members stepped beside it.

use swcam_core::homme::HealthError;
use swcam_core::{
    Ensemble, EnsembleConfig, MemberKernelPath, MemberStatus, ScenarioRegistry, ScenarioSpec,
    Swcam,
};

/// Shrink a registry scenario to test scale at a chosen column depth.
fn shrunk(name: &str, nlev: usize) -> ScenarioSpec {
    let mut spec = ScenarioRegistry::builtin().get(name).expect("builtin scenario").clone();
    spec.config.ne = 2;
    spec.config.nlev = nlev;
    spec.config.dt = 300.0;
    spec
}

/// Engine config naming the member path explicitly.
fn lane_cfg(lanes: usize) -> EnsembleConfig {
    EnsembleConfig { lanes, member_kernel_path: MemberKernelPath::Lanes, ..Default::default() }
}

/// Standalone oracle: the exact member trajectory a serial run produces.
fn standalone(spec: &ScenarioSpec, seed: u64, steps: usize) -> Swcam {
    let mut model = spec.build_model(seed);
    model.run_steps(steps);
    model
}

/// One batch of `n` members against `n` standalone runs, bit for bit.
fn pin_batch(spec: &ScenarioSpec, n: usize, steps: usize) {
    let mut ens = Ensemble::new(spec.clone(), lane_cfg(n));
    let seeds: Vec<u64> = (0..n as u64).map(|m| 1000 + 17 * m).collect();
    for &seed in &seeds {
        ens.submit(seed, steps);
    }
    let reports = ens.run_all().expect("batch must run");
    assert_eq!(reports.len(), n);
    for (r, &seed) in reports.iter().zip(&seeds) {
        assert_eq!(r.status, MemberStatus::Finished);
        assert_eq!(r.seed, seed);
        assert_eq!(r.steps, steps);
        let oracle = standalone(spec, seed, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "{} nlev {}: member seed {seed} diverged from standalone at N = {n}",
            spec.name,
            spec.config.nlev
        );
        for (a, b) in r.precip_accum.iter().zip(&oracle.precip_accum) {
            assert_eq!(a.to_bits(), b.to_bits(), "{}: precip drifted", spec.name);
        }
    }
}

#[test]
fn sequential_members_match_standalone_bitwise_dry() {
    // Adiabatic dycore-only scenario: every batch width against every
    // short-to-operational column depth.
    for nlev in [1usize, 3, 26] {
        let spec = shrunk("resting", nlev);
        for n in [1usize, 2, 3, 4, 5] {
            pin_batch(&spec, n, 2);
        }
    }
}

#[test]
fn sequential_members_match_standalone_bitwise_deep_column() {
    // 128-level stack: the column scans run a long sequential recurrence —
    // kept to two widths to bound runtime.
    let spec = shrunk("resting", 128);
    for n in [3usize, 5] {
        pin_batch(&spec, n, 1);
    }
}

#[test]
fn sequential_members_match_standalone_bitwise_moist() {
    // Moist aquaplanet: tracers + physics exercise the full coupled step
    // of each member.
    for nlev in [3usize, 26] {
        let spec = shrunk("aquaplanet", nlev);
        for n in [1usize, 2, 3, 4, 5] {
            pin_batch(&spec, n, 2);
        }
    }
}

#[test]
fn sequential_admit_and_retire_mid_run_is_deterministic() {
    // 5 members through 3 lanes with different step targets: lane
    // occupancy shifts every few steps (3 running, then 2, then 1) as
    // members retire and queued members are admitted. Every
    // member must still match its standalone trajectory bitwise.
    let spec = shrunk("resting", 6);
    let jobs: [(u64, usize); 5] = [(11, 2), (22, 4), (33, 3), (44, 2), (55, 3)];
    let mut ens = Ensemble::new(spec.clone(), lane_cfg(3));
    for &(seed, steps) in &jobs {
        ens.submit(seed, steps);
    }
    let reports = ens.run_all().expect("staggered batch must run");
    assert_eq!(reports.len(), jobs.len());
    for (r, &(seed, steps)) in reports.iter().zip(&jobs) {
        assert_eq!(r.status, MemberStatus::Finished);
        assert_eq!((r.seed, r.steps), (seed, steps));
        let oracle = standalone(&spec, seed, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "mid-run admitted member seed {seed} diverged from standalone"
        );
    }
}

#[test]
fn poisoned_member_never_contaminates_the_members_stepped_beside_it() {
    // Three members share one engine step; member 1's hook injects NaN into
    // both its wind field (so the NaN runs through the RK and hypervis
    // sweeps between two healthy members' steps on the shared workspace)
    // and its vapour tracer (so the step's checks deterministically reject
    // the member — the NaN reaches dp3d through the RK tendencies and the
    // vertical remap refuses the column). No workspace buffer carries
    // anything from one call to the next, so the poison must stay in its
    // member: member 1 rolls back alone to its clean pre-step snapshot and
    // every member finishes bit-identical to a clean standalone run.
    let spec = shrunk("aquaplanet", 6);
    let steps = 3usize;
    let mut ens = Ensemble::new(spec.clone(), lane_cfg(3));
    let ids: Vec<u64> = (5..8).map(|seed| ens.submit(seed, steps)).collect();
    let poisoned_id = ids[1];
    let mut poisoned = false;
    let mut calls = 0usize;
    while !ens.is_idle() {
        calls += 1;
        assert!(calls < 20, "ensemble failed to converge after rollback");
        let inject = calls == 2 && !poisoned;
        ens.step_with(&mut |id, state| {
            if inject && id == poisoned_id {
                state.u[0] = f64::NAN;
                state.qdp[0] = f64::NAN;
                poisoned = true;
            }
        })
        .expect("step");
    }
    assert!(poisoned, "hook never fired");
    let reports = ens.collect();
    assert_eq!(reports.len(), 3);
    for (r, (i, &id)) in reports.iter().zip(ids.iter().enumerate()) {
        assert_eq!(r.id, id);
        assert_eq!(r.status, MemberStatus::Finished);
        if i == 1 {
            assert_eq!(r.rollbacks, 1, "poisoned member must roll back exactly once");
            assert!(
                matches!(
                    r.last_error,
                    Some(HealthError::Physics { .. } | HealthError::Remap(_))
                ),
                "rollback must be driven by a typed in-step verdict, got {:?}",
                r.last_error
            );
        } else {
            assert_eq!(r.rollbacks, 0, "healthy member {i} must never roll back");
        }
        let oracle = standalone(&spec, 5 + i as u64, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "seed {} must finish bitwise equal to a clean run",
            5 + i
        );
    }
}
