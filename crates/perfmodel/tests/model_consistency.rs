//! Internal-consistency checks of the performance model: the projections
//! must be self-consistent (PFlops = flops / time), monotone where physics
//! demands it, and stable under recalibration.

use homme::kernels::Variant;
use homme::ExchangeMode;
use perfmodel::scaling::{figure_model, strong_scaling, weak_scaling, HommeWorkload};
use perfmodel::stepmodel::{RankWork, StepModel};
use perfmodel::{sypd, CamRun, Machine};
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::taihulight)
}

#[test]
fn pflops_equals_flops_over_time() {
    let model = figure_model(machine());
    let wl = HommeWorkload { ne: 256, nlev: 128, qsize: 10 };
    let pts = strong_scaling(&model, wl, &[4096, 16384]);
    for p in &pts {
        let w = RankWork {
            elems: wl.nelem(),
            nlev: wl.nlev,
            qsize: wl.qsize,
        };
        let expect = model.step_flops(w) / p.step_seconds / 1e15;
        assert!(
            (p.pflops - expect).abs() < 1e-9 * expect,
            "{} vs {expect}",
            p.pflops
        );
    }
}

#[test]
fn weak_scaling_time_is_nearly_flat_and_monotone() {
    let model = figure_model(machine());
    let pts = weak_scaling(&model, 192, 128, 10, &[512, 4096, 32768, 131072]);
    for w in pts.windows(2) {
        assert!(
            w[1].step_seconds >= w[0].step_seconds,
            "weak-scaling step time must not shrink with machine size"
        );
    }
    let spread = pts.last().unwrap().step_seconds / pts[0].step_seconds;
    assert!(spread < 1.3, "weak scaling nearly flat, spread {spread}");
}

#[test]
fn sypd_is_monotone_in_ranks_for_every_variant() {
    let m = machine();
    for variant in [Variant::Mpe, Variant::OpenAcc, Variant::Athread] {
        let mut prev = 0.0;
        for &n in &[216usize, 600, 1350, 5400] {
            let s = sypd(m, CamRun::ne30(), variant, n);
            assert!(s > prev, "{variant:?} at {n}: {s} <= {prev}");
            prev = s;
        }
    }
}

#[test]
fn more_tracers_cost_more_time() {
    let m = machine();
    let model = StepModel::new(m, Variant::Athread, ExchangeMode::Redesigned);
    let t10 = model.compute_seconds(RankWork { elems: 64, nlev: 128, qsize: 10 });
    let t25 = model.compute_seconds(RankWork { elems: 64, nlev: 128, qsize: 25 });
    assert!(t25 > t10 * 1.3, "{t10} vs {t25}");
}

#[test]
fn sync_overhead_grows_logarithmically() {
    let m = machine();
    let model = StepModel::new(m, Variant::Athread, ExchangeMode::Redesigned);
    let w = RankWork { elems: 64, nlev: 128, qsize: 10 };
    let s1 = model.sync_seconds(w, 1024);
    let s2 = model.sync_seconds(w, 1024 * 1024);
    assert!((s2 / s1 - 2.0).abs() < 1e-9, "log2 scaling: {s1} vs {s2}");
    assert_eq!(model.sync_seconds(w, 1), 0.0);
}

#[test]
fn calibration_is_reproducible() {
    // Two independent calibrations of the simulator agree exactly (the
    // cycle model is deterministic).
    use homme::kernels::KernelId;
    let a = perfmodel::Calibration::measure();
    let b = perfmodel::Calibration::measure();
    for kernel in KernelId::ALL {
        for variant in [Variant::Reference, Variant::Mpe, Variant::OpenAcc, Variant::Athread] {
            let ta = a.kernel_seconds(kernel, variant, 64, 128, 25);
            let tb = b.kernel_seconds(kernel, variant, 64, 128, 25);
            assert_eq!(ta, tb, "{} {variant:?}", kernel.name());
        }
    }
}
