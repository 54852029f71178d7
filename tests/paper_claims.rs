//! Capstone: one test per headline claim of the paper, each asserting the
//! reproduced *shape* (orderings and factor bands, not absolute seconds).
//! This file is the executable summary of EXPERIMENTS.md.

use homme::kernels::Variant;
use perfmodel::scaling::{figure_model, strong_scaling, weak_scaling, HommeWorkload};
use perfmodel::{homme_runtime, sypd, CamRun, Machine, CASES};
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::taihulight)
}

/// Abstract: "achieve a sustainable double-precision performance of 3.3
/// PFlops for a 750 m global simulation when using 10,075,000 cores".
#[test]
fn claim_petascale_at_ten_million_cores() {
    let model = figure_model(machine());
    let full = weak_scaling(&model, 650, 128, perfmodel::NGGPS_QSIZE, &[155_000]);
    assert_eq!(full[0].cores, 10_075_000, "the headline core count");
    assert!(
        full[0].pflops > 1.0 && full[0].pflops < 12.0,
        "PFlops-scale sustained performance, got {}",
        full[0].pflops
    );
    // A few percent of machine peak, like the paper's 3.3/125.
    let peak_pflops = 155_000.0 * 742.4e9 / 1e15;
    let frac = full[0].pflops / peak_pflops;
    assert!(frac > 0.01 && frac < 0.10, "fraction of peak {frac}");
}

/// Abstract: "3.4 SYPD for ne120 ... 21.5 SYPD for ne30".
#[test]
fn claim_sypd_magnitudes() {
    let ne30 = sypd(machine(), CamRun::ne30(), Variant::Athread, 5_400);
    assert!((7.0..60.0).contains(&ne30), "ne30 athread SYPD {ne30} (paper 21.5)");
    let ne120 = sypd(machine(), CamRun::ne120(), Variant::OpenAcc, 28_800);
    assert!((0.5..12.0).contains(&ne120), "ne120 openacc SYPD {ne120} (paper 3.4)");
}

/// Section 7.1: "we achieve up to 22x speedup for the compute-intensive
/// kernels" (OpenACC over MPE) and "the fine-grained Athread approach ...
/// can further improve the major kernels by another 10 to 15 times".
#[test]
fn claim_kernel_speedup_bands() {
    use homme::kernels::{verify, KernelData, KernelId};
    let env = verify::KernelEnv::default();
    let mut best_acc_over_mpe = 0.0f64;
    let mut best_ath_over_acc = 0.0f64;
    for kernel in KernelId::ALL {
        let mut d = KernelData::synth(16, 32, 4, 5150);
        let t_mpe = verify::run(kernel, Variant::Mpe, &mut d, &env).seconds;
        let t_acc = verify::run(kernel, Variant::OpenAcc, &mut d, &env).seconds;
        let t_ath = verify::run(kernel, Variant::Athread, &mut d, &env).seconds;
        best_acc_over_mpe = best_acc_over_mpe.max(t_mpe / t_acc);
        best_ath_over_acc = best_ath_over_acc.max(t_acc / t_ath);
    }
    assert!(
        best_acc_over_mpe > 5.0,
        "compute-dense kernels must see double-digit-class OpenACC gains, got {best_acc_over_mpe}"
    );
    assert!(
        best_ath_over_acc > 5.0,
        "Athread must multiply the best kernels again, got {best_ath_over_acc}"
    );
}

/// Section 7.2/Implications: one CG lands in the "7 to 46 Intel CPU cores"
/// equivalence band for the redesigned kernels.
#[test]
fn claim_cg_worth_many_intel_cores() {
    use homme::kernels::{verify, KernelData, KernelId};
    let env = verify::KernelEnv::default();
    for kernel in [KernelId::HypervisDp2, KernelId::VerticalRemap, KernelId::EulerStep] {
        let mut d = KernelData::synth(16, 32, 4, 5151);
        let t_ref = verify::run(kernel, Variant::Reference, &mut d, &env).seconds;
        let t_ath = verify::run(kernel, Variant::Athread, &mut d, &env).seconds;
        let equiv_cores = t_ref / t_ath;
        assert!(
            (2.0..80.0).contains(&equiv_cores),
            "{}: one CG worth {equiv_cores} Intel cores (paper band 7-46)",
            kernel.name()
        );
    }
}

/// Table 3: "the performance advantage is even better [at 3 km], and is
/// 2.1 times ... better than FV3".
#[test]
fn claim_nggps_win_grows_with_resolution() {
    let m = machine();
    let r12 = CASES[0].fv3_seconds / homme_runtime(m, &CASES[0]);
    let r3 = CASES[1].fv3_seconds / homme_runtime(m, &CASES[1]);
    assert!(r12 > 1.0, "must beat FV3 at 12.5 km ({r12})");
    assert!(r3 > r12, "advantage must grow at 3 km ({r12} -> {r3})");
    assert!(r3 > 1.5 && r3 < 8.0, "3 km factor {r3} (paper 2.1)");
}

/// Figure 7: strong-scaling efficiency collapses for ne256 but stays much
/// higher for ne1024 at 131,072 processes.
#[test]
fn claim_strong_scaling_shape() {
    let model = figure_model(machine());
    let ranks = [4096usize, 131_072];
    let ne256 = strong_scaling(&model, HommeWorkload { ne: 256, nlev: 128, qsize: 10 }, &ranks);
    let ranks2 = [8192usize, 131_072];
    let ne1024 =
        strong_scaling(&model, HommeWorkload { ne: 1024, nlev: 128, qsize: 10 }, &ranks2);
    let e256 = ne256.last().unwrap().efficiency;
    let e1024 = ne1024.last().unwrap().efficiency;
    assert!(e256 < 0.45, "ne256 efficiency collapse, got {e256} (paper 21.7%)");
    assert!(e1024 > e256 + 0.2, "ne1024 much healthier: {e1024} vs {e256}");
}

/// Section 7.3: the Athread rewrite cuts euler_step transfers to a small
/// fraction of the OpenACC version (paper: "to 10%").
#[test]
fn claim_transfer_reduction() {
    use homme::kernels::{verify, KernelData, KernelId};
    let env = verify::KernelEnv::default();
    let mut acc = KernelData::synth(16, 32, 25, 5152);
    let mut ath = KernelData::synth(16, 32, 25, 5152);
    let b_acc = verify::run(KernelId::EulerStep, Variant::OpenAcc, &mut acc, &env)
        .counters
        .mem_bytes();
    let b_ath = verify::run(KernelId::EulerStep, Variant::Athread, &mut ath, &env)
        .counters
        .mem_bytes();
    let ratio = b_ath as f64 / b_acc as f64;
    assert!(ratio < 0.25, "transfer ratio {ratio} (paper 0.10)");
}

/// Section 7.6: the redesigned exchange cuts the modeled large-scale step
/// time by double-digit percent (paper: "23% in the best cases").
#[test]
fn claim_overlap_gain() {
    use homme::ExchangeMode;
    use perfmodel::stepmodel::{RankWork, StepModel};
    let m = machine();
    let w = RankWork { elems: 4, nlev: 128, qsize: 25 };
    let t_orig = StepModel::new(m, Variant::Athread, ExchangeMode::Original).step_seconds(w, 131_072);
    let t_new = StepModel::new(m, Variant::Athread, ExchangeMode::Redesigned).step_seconds(w, 131_072);
    let gain = 1.0 - t_new / t_orig;
    assert!(gain > 0.10 && gain < 0.5, "overlap gain {gain} (paper up to 0.23)");
}
