//! Four members stepped through [`Ensemble`] are bitwise independent of the
//! scheduler's worker count: every DSS is an element-parallel gather sweep,
//! and the sum a point receives must not depend on which worker forms it.
//!
//! The engine sizes its pool from `SWCAM_THREADS` at construction, so this
//! file holds exactly one test — nothing else in the process reads the
//! environment while it is being changed.

use swcam_core::{Ensemble, EnsembleConfig, MemberKernelPath, MemberStatus, ScenarioRegistry};

/// Every prognostic value of a member's final state, as raw bits.
fn state_bits(st: &swcam_core::homme::State) -> Vec<u64> {
    [&st.u, &st.v, &st.t, &st.dp3d, &st.qdp].iter().flat_map(|f| f.iter().map(|x| x.to_bits())).collect()
}

#[test]
fn lane_group_is_bitwise_independent_of_worker_count() {
    let mut spec = ScenarioRegistry::builtin().get("held-suarez").expect("builtin").clone();
    spec.config.ne = 3;
    spec.config.nlev = 6;
    spec.config.dt = 300.0;
    let hv = spec.config.dycore_config().hypervis;
    assert!(hv.nu > 0.0 && hv.nu_top > 0.0 && hv.sponge_layers > 0, "hypervis + sponge must be on");

    let run = |threads: usize| -> Vec<Vec<u64>> {
        std::env::set_var("SWCAM_THREADS", threads.to_string());
        let cfg =
            EnsembleConfig { lanes: 4, member_kernel_path: MemberKernelPath::Lanes, ..Default::default() };
        let mut ens = Ensemble::new(spec.clone(), cfg);
        assert_eq!(ens.dycore().sched.nthreads(), threads);
        for m in 0..4u64 {
            ens.submit(500 + 13 * m, 3);
        }
        let reports = ens.run_all().expect("batch must run");
        assert_eq!(reports.len(), 4);
        reports
            .iter()
            .map(|r| {
                assert_eq!(r.status, MemberStatus::Finished);
                state_bits(&r.state)
            })
            .collect()
    };

    let serial = run(1);
    assert_ne!(serial[0], serial[1], "members must differ for the pin to mean anything");
    for threads in [2usize, 3, 5] {
        assert_eq!(serial, run(threads), "threads={threads} diverged from the 1-thread run");
    }
}
