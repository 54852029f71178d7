//! Unified kernel dispatch and cross-variant verification.
//!
//! [`run`] executes any (kernel, variant) pair on a workspace and returns
//! both the functional outputs (left in the workspace) and the *modeled*
//! execution time — Intel/MPE via roofline pricing of the analytic op
//! counts, OpenACC/Athread via the simulator's cycle accounting. The
//! benchmark harness (Table 1 / Figure 5) is a thin loop over this
//! function; the tests here pin the variant equivalences the paper's
//! correctness story depends on.

use super::{athread, op_count, openacc, reference, KernelData, KernelId, Variant};
use sw26010::{ChipConfig, Counters, CpeCluster, CpuCoreModel, Mpe};

/// Execution environment shared across kernel runs.
pub struct KernelEnv {
    /// The simulated CPE cluster (OpenACC/Athread variants).
    pub cluster: CpeCluster,
    /// One conventional CPU core (the Table-1 "Intel" column).
    pub cpu: CpuCoreModel,
}

impl Default for KernelEnv {
    fn default() -> Self {
        KernelEnv { cluster: CpeCluster::new(ChipConfig::default()), cpu: CpuCoreModel::default() }
    }
}

/// Result of one kernel invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Modeled wall time, seconds.
    pub seconds: f64,
    /// Retired-operation counters (simulator variants; roofline variants
    /// report the analytic counts).
    pub counters: Counters,
}

/// Tracer sub-step dt used by the kernel benchmarks.
pub const BENCH_DT: f64 = 150.0;

/// Run `kernel` in `variant` on `data`.
pub fn run(kernel: KernelId, variant: Variant, data: &mut KernelData, env: &KernelEnv) -> RunResult {
    data.clear_outputs();
    match variant {
        Variant::Reference => {
            run_functional(kernel, data);
            let oc = op_count(kernel, data.shape());
            RunResult {
                seconds: env.cpu.seconds(oc.flops, oc.bytes),
                counters: Counters { sflops: oc.flops, gld_bytes: oc.bytes, ..Default::default() },
            }
        }
        Variant::Mpe => {
            run_functional(kernel, data);
            let oc = op_count(kernel, data.shape());
            let mut mpe = Mpe::new();
            mpe.charge_flops(oc.flops);
            mpe.charge_mem(oc.bytes);
            RunResult {
                seconds: mpe.seconds(&env.cluster.config().cost),
                counters: mpe.counters(),
            }
        }
        Variant::OpenAcc => {
            let report = match kernel {
                KernelId::ComputeAndApplyRhs => openacc::compute_and_apply_rhs(&env.cluster, data),
                KernelId::EulerStep => openacc::euler_step(&env.cluster, data, BENCH_DT),
                KernelId::VerticalRemap => openacc::vertical_remap(&env.cluster, data),
                KernelId::HypervisDp1 => openacc::hypervis_dp1(&env.cluster, data),
                KernelId::HypervisDp2 => openacc::hypervis_dp2(&env.cluster, data),
                KernelId::BiharmonicDp3d => openacc::biharmonic_dp3d(&env.cluster, data),
            };
            RunResult {
                seconds: report.seconds(env.cluster.config()),
                counters: report.counters,
            }
        }
        Variant::Athread => {
            let report = match kernel {
                KernelId::ComputeAndApplyRhs => athread::compute_and_apply_rhs(&env.cluster, data),
                KernelId::EulerStep => athread::euler_step(&env.cluster, data, BENCH_DT),
                KernelId::VerticalRemap => athread::vertical_remap(&env.cluster, data),
                KernelId::HypervisDp1 => athread::hypervis_dp1(&env.cluster, data),
                KernelId::HypervisDp2 => athread::hypervis_dp2(&env.cluster, data),
                KernelId::BiharmonicDp3d => athread::biharmonic_dp3d(&env.cluster, data),
            };
            RunResult {
                seconds: report.seconds(env.cluster.config()),
                counters: report.counters,
            }
        }
    }
}

fn run_functional(kernel: KernelId, data: &mut KernelData) {
    match kernel {
        KernelId::ComputeAndApplyRhs => reference::compute_and_apply_rhs(data),
        KernelId::EulerStep => reference::euler_step(data, BENCH_DT),
        KernelId::VerticalRemap => reference::vertical_remap(data),
        KernelId::HypervisDp1 => reference::hypervis_dp1(data),
        KernelId::HypervisDp2 => reference::hypervis_dp2(data),
        KernelId::BiharmonicDp3d => reference::biharmonic_dp3d(data),
    }
}

/// Maximum absolute output difference between two workspaces after running
/// the same kernel.
pub fn output_diff(kernel: KernelId, a: &KernelData, b: &KernelData) -> f64 {
    let pairs: Vec<(&[f64], &[f64])> = match kernel {
        KernelId::ComputeAndApplyRhs => vec![
            (&a.tend_u, &b.tend_u),
            (&a.tend_v, &b.tend_v),
            (&a.tend_t, &b.tend_t),
            (&a.tend_dp, &b.tend_dp),
        ],
        KernelId::EulerStep => vec![(&a.out_a, &b.out_a)],
        KernelId::VerticalRemap => vec![
            (&a.tend_u, &b.tend_u),
            (&a.tend_v, &b.tend_v),
            (&a.tend_t, &b.tend_t),
            (&a.tend_dp, &b.tend_dp),
            (&a.out_a, &b.out_a),
        ],
        KernelId::HypervisDp1 | KernelId::HypervisDp2 => vec![
            (&a.tend_u, &b.tend_u),
            (&a.tend_v, &b.tend_v),
            (&a.tend_t, &b.tend_t),
        ],
        KernelId::BiharmonicDp3d => vec![(&a.tend_dp, &b.tend_dp)],
    };
    pairs
        .into_iter()
        .flat_map(|(x, y)| x.iter().zip(y).map(|(a, b)| (a - b).abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workspace sized so every variant's constraints hold
    /// (nlev % 32 == 0 for the Athread remap transposition).
    fn workspace() -> KernelData {
        KernelData::synth(16, 32, 3, 1234)
    }

    #[test]
    fn all_variants_agree_on_every_kernel() {
        let env = KernelEnv::default();
        for kernel in KernelId::ALL {
            let mut reference = workspace();
            run(kernel, Variant::Reference, &mut reference, &env);
            for variant in [Variant::Mpe, Variant::OpenAcc, Variant::Athread] {
                let mut other = workspace();
                run(kernel, variant, &mut other, &env);
                let diff = output_diff(kernel, &reference, &other);
                assert!(
                    diff < 1e-8,
                    "{} {variant:?} diverges from reference by {diff}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn modeled_times_reproduce_table1_ordering() {
        // The paper's Table 1 structure: MPE slower than Intel; Athread
        // faster than OpenACC; Athread beats Intel for every kernel.
        let env = KernelEnv::default();
        for kernel in KernelId::ALL {
            let mut d = workspace();
            let t_ref = run(kernel, Variant::Reference, &mut d, &env).seconds;
            let t_mpe = run(kernel, Variant::Mpe, &mut d, &env).seconds;
            let t_acc = run(kernel, Variant::OpenAcc, &mut d, &env).seconds;
            let t_ath = run(kernel, Variant::Athread, &mut d, &env).seconds;
            assert!(t_mpe > t_ref, "{}: MPE {t_mpe} vs Intel {t_ref}", kernel.name());
            assert!(t_ath < t_acc, "{}: Athread {t_ath} vs OpenACC {t_acc}", kernel.name());
            assert!(t_ath < t_ref, "{}: Athread {t_ath} vs Intel {t_ref}", kernel.name());
        }
    }

    #[test]
    fn athread_transfers_are_a_fraction_of_openacc() {
        // Section 7.3: "total data transfer size has been decreased to 10%
        // compared with the OpenACC solution". The exact ratio depends on
        // qsize; with 25 tracers the q-invariant re-reads dominate.
        let env = KernelEnv::default();
        let mut acc = KernelData::synth(16, 32, 25, 9);
        let mut ath = KernelData::synth(16, 32, 25, 9);
        let r_acc = run(KernelId::EulerStep, Variant::OpenAcc, &mut acc, &env);
        let r_ath = run(KernelId::EulerStep, Variant::Athread, &mut ath, &env);
        let ratio = r_ath.counters.mem_bytes() as f64 / r_acc.counters.mem_bytes() as f64;
        // Paper: "decreased to 10%" with the full Fortran array inventory;
        // with the six modeled q-invariant fields the reproduction reaches
        // ~0.15-0.2. EXPERIMENTS.md records the measured value.
        assert!(ratio < 0.25, "athread/openacc transfer ratio = {ratio}");
    }

    #[test]
    fn athread_flop_counters_match_analytic_formulas() {
        // The PERF-style counters retire exactly the flops the analytic
        // op_count charges (the formulas drive the roofline pricing, so
        // they must stay in sync with the kernels).
        let env = KernelEnv::default();
        for kernel in [KernelId::HypervisDp1, KernelId::BiharmonicDp3d] {
            let mut d = workspace();
            let oc = op_count(kernel, &d);
            let r = run(kernel, Variant::Athread, &mut d, &env);
            assert_eq!(r.counters.vflops, oc.flops, "{}", kernel.name());
        }
    }
}
