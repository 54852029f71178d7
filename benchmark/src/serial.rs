//! `hv_ne8` and `tracers_ne8`: one standalone `Swcam` on a fixed number of
//! worker threads, stepped in a closed loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cubesphere::{CubedSphere, NPTS};
use homme::kernels::{op_count, KernelData, KernelId};
use homme::{Dims, Dycore, HealthError};
use swcam_core::{apply_physics_checked, ModelConfig, ScenarioSpec, Swcam};
use swphysics::PhysicsDiag;

use crate::alloc::counted;
use crate::host;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{chrome_trace, Recorder};
use crate::workloads::{
    check_hash, check_mass, check_state, hash_state, pinned_threads, serial_workload, Args, Report,
    SerialWorkload, Window, SETUP_REPS, WARMUP_STEPS,
};

/// Shares of `--seconds` the traced run gives its passes; the rest goes to
/// the probes (DSS, triad) that are counted in repetitions, not seconds.
const PAIRED_SHARE: f64 = 0.60;
const ONE_THREAD_SHARE: f64 = 0.20;

/// Build the model cold and take its first step.
fn construct(spec: &ScenarioSpec, seed: u64, threads: usize) -> Swcam {
    let mut model = spec.build_model(seed);
    assert_eq!(
        model.dycore.sched.nthreads(),
        threads,
        "SWCAM_THREADS did not pin the worker pool"
    );
    model.step();
    model
}

/// One model step; a panic (the standalone model's only failure channel)
/// counts as a failed step.
fn try_step(model: &mut Swcam) -> bool {
    catch_unwind(AssertUnwindSafe(|| model.step())).is_ok()
}

/// Step until the window closes. Returns per-step wall times (ms) and the
/// window's wall time (s).
///
/// # Errors
/// The first failed step: the state after it is not worth stepping, and a
/// run with a failed step reports nothing.
fn measure(model: &mut Swcam, window: Window) -> Result<(Vec<f64>, f64), String> {
    let mut samples = Vec::with_capacity(window.capacity());
    let started = Instant::now();
    while !window.done(started, samples.len()) {
        let t0 = Instant::now();
        if !try_step(model) {
            return Err(format!(
                "step {} of the measured window failed",
                samples.len() + 1
            ));
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((samples, started.elapsed().as_secs_f64()))
}

/// Span names of one by-hand pass over the phases of a step.
struct PhaseNames {
    step: &'static str,
    rk: &'static str,
    hypervis: &'static str,
    tracer: &'static str,
    remap: &'static str,
    physics: &'static str,
}

const PHASES: PhaseNames = PhaseNames {
    step: "step",
    rk: "prim.rk",
    hypervis: "prim.hypervis",
    tracer: "prim.tracer",
    remap: "prim.remap",
    physics: "physics.apply",
};

/// The same phases on one worker thread, for `sched.*`.
const PHASES_T1: PhaseNames = PhaseNames {
    step: "t1.step",
    rk: "t1.rk",
    hypervis: "t1.hypervis",
    tracer: "t1.tracer",
    remap: "t1.remap",
    physics: "t1.physics",
};

/// One model step as `Swcam::step` takes it (remap every step, physics
/// every step: `rsplit` and `nsplit` are 1 on these workloads), phase by
/// phase through the layers' public functions, one span each.
fn traced_step(
    model: &mut Swcam,
    diags: &mut [PhysicsDiag],
    rec: &mut Recorder,
    names: &PhaseNames,
) -> Result<(), HealthError> {
    let Swcam {
        config,
        dycore,
        suite,
        state,
        precip_accum,
        ..
    } = model;
    let step = rec.begin(names.step);
    rec.span(names.rk, || dycore.dynamics_step(state));
    rec.span(names.hypervis, || dycore.apply_hypervis(state))?;
    rec.span(names.tracer, || dycore.euler_step_tracers(state));
    rec.span(names.remap, || dycore.vertical_remap(state))?;
    let phys_dt = dycore.cfg.dt * config.nsplit as f64 * config.planet.reduction();
    rec.span(names.physics, || {
        apply_physics_checked(dycore, state, suite, phys_dt, config.sst, diags)
    })?;
    for (acc, d) in precip_accum.iter_mut().zip(diags.iter()) {
        *acc += d.precip;
    }
    rec.end(step);
    Ok(())
}

/// Step until the window closes, taking every other step by hand with
/// spans when `paired`, every step otherwise. Untraced and traced steps
/// alternate so that both see the same machine: their medians differ by the
/// tracing overhead and not by whatever else the host was doing. Returns
/// the untraced step times (ms), the traced step count and the allocations
/// made inside traced steps.
fn traced_pass(
    model: &mut Swcam,
    diags: &mut [PhysicsDiag],
    rec: &mut Recorder,
    names: &PhaseNames,
    window: Window,
    paired: bool,
) -> Result<(Vec<f64>, usize, u64), String> {
    let mut untraced = Vec::with_capacity(window.capacity());
    let (mut traced, mut allocs) = (0, 0);
    let started = Instant::now();
    while !window.done(started, untraced.len() + traced) {
        if paired && untraced.len() <= traced {
            let t0 = Instant::now();
            if !try_step(model) {
                return Err("an untraced step of the paired pass failed".into());
            }
            untraced.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            rec.set_step(traced as u32);
            counted(&mut allocs, || traced_step(model, diags, rec, names))
                .map_err(|e| format!("traced step {traced} failed: {e}"))?;
            traced += 1;
        }
    }
    Ok((untraced, traced, allocs))
}

/// Documented operation counts of one model step, from `kernels::op_count`
/// times the calls the step makes: 5 RHS evaluations (Kinnmark–Gray RK5),
/// 3 `euler_step` stages (SSP-RK2), 1 remap, and per hyperviscosity
/// subcycle one `hypervis_dp2` plus one `biharmonic_dp3d`.
pub struct StepOps {
    pub rhs_flops: f64,
    pub hypervis_flops: f64,
    pub euler_bytes: f64,
    pub remap_bytes: f64,
}

pub fn step_ops(dims: Dims, nelem: usize, subcycles: usize) -> StepOps {
    // `op_count` reads only the three sizes.
    let shape = KernelData {
        nelem,
        nlev: dims.nlev,
        qsize: dims.qsize,
        u: Vec::new(),
        v: Vec::new(),
        t: Vec::new(),
        dp3d: Vec::new(),
        qdp: Vec::new(),
        phis: Vec::new(),
        ops: Vec::new(),
        ptop: 0.0,
        tend_u: Vec::new(),
        tend_v: Vec::new(),
        tend_t: Vec::new(),
        tend_dp: Vec::new(),
        out_a: Vec::new(),
        out_b: Vec::new(),
    };
    let count = |k| op_count(k, &shape);
    let per_subcycle = count(KernelId::HypervisDp2).flops + count(KernelId::BiharmonicDp3d).flops;
    StepOps {
        rhs_flops: 5.0 * count(KernelId::ComputeAndApplyRhs).flops as f64,
        hypervis_flops: subcycles as f64 * per_subcycle as f64,
        euler_bytes: 3.0 * count(KernelId::EulerStep).bytes as f64,
        remap_bytes: count(KernelId::VerticalRemap).bytes as f64,
    }
}

/// Set the `prim.*`, `hypervis.*`, `physics.*` and computed-rate metrics
/// from per-step phase medians (ms).
#[allow(clippy::too_many_arguments)]
pub fn set_phase_metrics(
    m: &mut Metrics,
    dycore: &Dycore,
    members: usize,
    rk: f64,
    hypervis: f64,
    tracer: f64,
    remap: f64,
    physics: f64,
) {
    let subcycles = dycore.hypervis_subcycles();
    m.set("prim.rk_ms", rk);
    m.set("prim.hypervis_ms", hypervis);
    m.set("prim.tracer_ms", tracer);
    m.set("prim.remap_ms", remap);
    m.set("physics.apply_ms", physics);
    m.set(
        "prim.phase_sum_ms",
        rk + hypervis + tracer + remap + physics,
    );
    m.set("hypervis.subcycles", subcycles as f64);
    m.set("hypervis.ms_per_subcycle", hypervis / subcycles as f64);
    let nelem = dycore.grid.nelem();
    if physics > 0.0 {
        m.set(
            "physics.columns_per_s",
            (members * nelem * NPTS) as f64 / (physics * 1e-3),
        );
    }
    let ops = step_ops(dycore.dims, nelem, subcycles);
    let per_ms = members as f64 * 1e-6; // (ops / ms) -> G ops / s, all members
    m.set("rhs.gflops_computed", ops.rhs_flops * per_ms / rk);
    m.set(
        "hypervis.gflops_computed",
        ops.hypervis_flops * per_ms / hypervis,
    );
    if tracer > 0.0 {
        m.set("euler.gbps_computed", ops.euler_bytes * per_ms / tracer);
    }
    m.set("remap.gbps_computed", ops.remap_bytes * per_ms / remap);
}

/// Build the grid and the dycore on their own, one span each, and set the
/// two set-up metrics every workload shares.
pub fn setup_probe(rec: &mut Recorder, cfg: &ModelConfig, m: &mut Metrics) {
    let grid = rec.span("cubesphere.grid_build", || {
        CubedSphere::new_planet(cfg.ne, cfg.planet.radius, cfg.planet.omega)
    });
    let dims = Dims {
        nlev: cfg.nlev,
        qsize: cfg.qsize,
    };
    let dycore = rec.span("prim.build", || {
        Dycore::from_grid(grid, dims, cfg.ptop, cfg.dycore_config())
    });
    drop(dycore);
    m.set(
        "cubesphere.grid_build_ms",
        rec.durations_ms("cubesphere.grid_build")[0],
    );
    m.set("prim.build_ms", rec.durations_ms("prim.build")[0]);
}

/// Median wall time (ms) of `Dss::apply_flat4` over the four dynamics
/// fields at full depth, on copies of the state.
fn dss_probe(model: &mut Swcam, reps: usize) -> f64 {
    let Swcam { dycore, state, .. } = model;
    let nlev = dycore.dims.nlev;
    let (mut u, mut v, mut t, mut dp) = (
        state.u.clone(),
        state.v.clone(),
        state.t.clone(),
        state.dp3d.clone(),
    );
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            dycore
                .dss
                .apply_flat4([&mut u, &mut v, &mut t, &mut dp], nlev);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    std::hint::black_box((&u, &v, &t, &dp));
    median(&times)
}

/// The output checks both modes run once the measured window is over.
/// Returns the mass drift and a line saying what passed.
fn check_outputs(
    workload: &SerialWorkload,
    seed: u64,
    threads: usize,
    model: &Swcam,
    warm_hash: u64,
    mass_before: f64,
) -> Result<(f64, String), String> {
    let wind = check_state(&model.dycore, &model.state)?;
    let drift = check_mass(mass_before, model.dycore.total_mass(&model.state))?;
    let mut passed = format!("  checks: max wind {wind:.1} m/s, dry-mass drift {drift:.1e}");
    if let Some(expected) = workload.expect_subcycles {
        let ran = model.dycore.hypervis_subcycles();
        if ran != expected {
            return Err(format!(
                "ran {ran} hypervis subcycles, not the {expected} it exists to run"
            ));
        }
        passed.push_str(&format!(", ran the {expected}-subcycle floor"));
    }
    if threads > 1 {
        // Results must not depend on the worker count, to the bit.
        let mut oracle = workload.spec.build_model(seed);
        oracle.dycore.set_threads(1);
        oracle.run_steps(1 + WARMUP_STEPS);
        check_hash(
            "1-thread run after warm-up",
            hash_state(&oracle.state),
            warm_hash,
        )?;
        passed.push_str(&format!(
            ", {threads}-thread state bitwise equal to 1-thread"
        ));
    }
    Ok((drift, passed))
}

/// Run `hv_ne8` or `tracers_ne8`.
///
/// # Errors
/// A failed output check, in words; the caller exits non-zero.
pub fn run(args: &Args) -> Result<Report, String> {
    let workload = serial_workload(&args.workload).expect("serial workload");
    let threads = pinned_threads(&args.workload);
    if args.trace {
        run_traced(args, &workload, threads)
    } else {
        run_untraced(args, &workload, threads)
    }
}

fn run_untraced(args: &Args, workload: &SerialWorkload, threads: usize) -> Result<Report, String> {
    let spec = &workload.spec;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut timed_construct = || {
        let t0 = Instant::now();
        let model = construct(spec, args.seed, threads);
        setups.push(t0.elapsed().as_secs_f64());
        model
    };
    for _ in 1..SETUP_REPS {
        drop(timed_construct()); // one model alive at a time
    }
    let mut model = timed_construct();
    model.run_steps(WARMUP_STEPS);
    let warm_hash = hash_state(&model.state);
    let mass_before = model.dycore.total_mass(&model.state);

    let (samples, wall_s) = measure(&mut model, Window::of(args, 1.0))?;
    let peak_rss = host::peak_rss_mib();
    let attempted = samples.len() as u64;

    let (_, passed) = check_outputs(workload, args.seed, threads, &model, warm_hash, mass_before)?;

    let s = Summary::of(&samples);
    let mut metrics = Metrics::zeros(END_TO_END);
    metrics.set("setup_s", median(&setups));
    metrics.set("step_ms_p50", s.median);
    metrics.set(
        "sypd",
        attempted as f64 * model.dycore.cfg.dt / wall_s / 365.0,
    );
    metrics.set("peak_rss_mb", peak_rss);
    let notes = vec![
        format!(
            "{}: ne{} nlev {} qsize {}, {threads} thread(s), {} hypervis subcycles",
            args.workload,
            spec.config.ne,
            spec.config.nlev,
            spec.config.qsize,
            model.dycore.hypervis_subcycles()
        ),
        format!(
            "  {} steps in {wall_s:.2} s; step ms p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2}",
            s.n, s.q1, s.median, s.q3, s.p90
        ),
        passed,
    ];
    Ok(Report {
        attempted,
        failed: 0,
        metrics,
        notes,
        trace: None,
    })
}

fn run_traced(args: &Args, workload: &SerialWorkload, threads: usize) -> Result<Report, String> {
    let spec = &workload.spec;
    let epoch = Instant::now();
    let span_capacity = 6 * 2 * Window::of(args, 1.0).capacity() + 64;
    let mut rec = Recorder::new(epoch, 0, span_capacity);
    let mut m = Metrics::zeros(PER_LAYER);

    // Set-up, layer by layer, then the model the passes below step.
    let setup = rec.begin("setup");
    setup_probe(&mut rec, &spec.config, &mut m);
    let mut model = rec.span("model.build_and_first_step", || {
        construct(spec, args.seed, threads)
    });
    rec.end(setup);

    model.run_steps(WARMUP_STEPS);
    let warm_hash = hash_state(&model.state);
    let mass_before = model.dycore.total_mass(&model.state);
    let mut diags = vec![PhysicsDiag::default(); model.state.nelem() * NPTS];

    // The by-hand phase sequence must be the step the model takes.
    let before = model.state.clone();
    let mut scratch = Recorder::new(epoch, 0, 8);
    traced_step(&mut model, &mut diags, &mut scratch, &PHASES)
        .map_err(|e| format!("by-hand step failed: {e}"))?;
    let by_hand = hash_state(&model.state);
    model.state.copy_from(&before);
    drop(before);
    model.step();
    check_hash(
        "by-hand phases vs Swcam::step",
        by_hand,
        hash_state(&model.state),
    )?;

    let (reference, traced_steps, allocs) = traced_pass(
        &mut model,
        &mut diags,
        &mut rec,
        &PHASES,
        Window::of(args, PAIRED_SHARE),
        true,
    )?;
    if reference.is_empty() || traced_steps == 0 {
        return Err("the paired pass needs at least two steps".into());
    }

    let med = |rec: &Recorder, name: &str| median(&rec.durations_ms(name));
    let step = Summary::of(&rec.durations_ms(PHASES.step));
    let (rk, hv, tr, rm, ph) = (
        med(&rec, PHASES.rk),
        med(&rec, PHASES.hypervis),
        med(&rec, PHASES.tracer),
        med(&rec, PHASES.remap),
        med(&rec, PHASES.physics),
    );
    set_phase_metrics(&mut m, &model.dycore, 1, rk, hv, tr, rm, ph);
    m.set("alloc.per_step", allocs as f64 / traced_steps as f64);
    m.set("run.step_ms_p90", step.p90);
    m.set("run.step_ms_iqr", step.iqr());
    m.set("run.samples", step.n as f64);
    m.set(
        "trace.overhead_frac",
        step.median / median(&reference) - 1.0,
    );
    m.set("run.failed_frac", 0.0);

    // homme::dss on its own, and its share of the hyperviscosity phase
    // (two DSS walks per subcycle).
    let dss_ms = dss_probe(&mut model, 12);
    m.set("dss.apply4_ms", dss_ms);
    m.set(
        "dss.share_of_hypervis",
        2.0 * model.dycore.hypervis_subcycles() as f64 * dss_ms / hv,
    );

    // homme::sched: the same phases on one worker.
    if threads > 1 {
        model.dycore.set_threads(1);
        let window = Window::of(args, ONE_THREAD_SHARE);
        traced_pass(&mut model, &mut diags, &mut rec, &PHASES_T1, window, false)?;
        let t1_step = med(&rec, PHASES_T1.step);
        m.set(
            "sched.parallel_efficiency",
            t1_step / (threads as f64 * step.median),
        );
        m.set("sched.phase_speedup.rk", med(&rec, PHASES_T1.rk) / rk);
        m.set(
            "sched.phase_speedup.hypervis",
            med(&rec, PHASES_T1.hypervis) / hv,
        );
        m.set(
            "sched.phase_speedup.tracer",
            med(&rec, PHASES_T1.tracer) / tr,
        );
        m.set("sched.phase_speedup.remap", med(&rec, PHASES_T1.remap) / rm);
    } else {
        // One worker: the pool has nothing to scale.
        for name in [
            "sched.parallel_efficiency",
            "sched.phase_speedup.rk",
            "sched.phase_speedup.hypervis",
            "sched.phase_speedup.tracer",
            "sched.phase_speedup.remap",
        ] {
            m.set(name, 1.0);
        }
    }

    let (drift, passed) =
        check_outputs(workload, args.seed, threads, &model, warm_hash, mass_before)?;
    m.set("check.mass_drift_rel", drift);

    let triad = host::triad(5);
    m.set("host.triad_gbps", triad.gbps);

    let notes = vec![
        format!(
            "{} traced: {traced_steps} traced steps (p50 {:.2} ms) alternating with {} untraced (p50 {:.2} ms)",
            args.workload,
            step.median,
            reference.len(),
            median(&reference)
        ),
        format!(
            "  phases ms: rk {rk:.2} hypervis {hv:.2} tracer {tr:.2} remap {rm:.2} physics {ph:.2}; \
             step self time {:.3} ms",
            median(&rec.self_times_ms(PHASES.step))
        ),
        triad.note(),
        passed + ", by-hand phases bitwise equal to Swcam::step",
    ];
    let trace = chrome_trace(&[&rec], host::fingerprint(args.seed));
    Ok(Report {
        attempted: traced_steps as u64,
        failed: 0,
        metrics: m,
        notes,
        trace: Some(trace),
    })
}
