//! `ens_aqua_l4`: the member-batched ensemble engine, four lanes, fed from
//! a seeded request stream so lanes retire and re-admit all through the
//! measured window.

use std::time::Instant;

use cubesphere::NPTS;
use homme::{EnsembleWorkspace, HealthError, State};
use swcam_core::{
    apply_physics_checked, build_dycore, build_suite, Ensemble, EnsembleConfig, MemberKernelPath,
    MemberStatus, ScenarioSpec,
};
use swphysics::PhysicsDiag;

use crate::alloc::counted;
use crate::host;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::serial::{set_phase_metrics, setup_probe};
use crate::stats::{median, Summary};
use crate::trace::{chrome_trace, Recorder};
use crate::workloads::{
    check_hash, check_mass, check_state, ens_request, ens_workload, hash_state, Args, Report,
    Window, ENS_LANES, SETUP_REPS, WARMUP_STEPS,
};

const PAIRED_SHARE: f64 = 0.55;
const PHASE_PROBE_SHARE: f64 = 0.15;

fn engine_config() -> EnsembleConfig {
    EnsembleConfig {
        lanes: ENS_LANES,
        max_rollbacks: 2,
        member_kernel_path: MemberKernelPath::Lanes,
    }
}

/// The engine plus the position in the request stream and what its retired
/// members reported.
struct Driver {
    engine: Ensemble,
    seed: u64,
    next_request: u64,
    engine_steps: u64,
    member_steps: u64,
    rollbacks: u64,
    members_failed: u64,
    /// (member seed, steps, state hash) of the first member that finished.
    first_finished: Option<(u64, usize, u64)>,
}

impl Driver {
    /// Build the engine cold, queue the head of the stream, take one step.
    fn construct(spec: &ScenarioSpec, seed: u64) -> Result<Driver, HealthError> {
        let mut d = Driver {
            engine: Ensemble::new(spec.clone(), engine_config()),
            seed,
            next_request: 0,
            engine_steps: 0,
            member_steps: 0,
            rollbacks: 0,
            members_failed: 0,
            first_finished: None,
        };
        d.step()?;
        Ok(d)
    }

    /// Keep a full batch waiting, so a lane never idles for want of work.
    fn top_up(&mut self) {
        while self.engine.pending() < ENS_LANES {
            let (member_seed, steps) = ens_request(self.seed, self.next_request);
            self.engine.submit(member_seed, steps);
            self.next_request += 1;
        }
    }

    /// Retire finished members and count what they did.
    fn retire(&mut self) {
        let reports = self.engine.collect();
        // Every lane that was running during the step either still is, or
        // has just been collected.
        self.member_steps += (self.engine.active() + reports.len()) as u64;
        for r in reports {
            self.rollbacks += r.rollbacks as u64;
            if r.status == MemberStatus::Failed {
                self.members_failed += 1;
            } else if self.first_finished.is_none() {
                self.first_finished = Some((r.seed, r.steps, hash_state(&r.state)));
            }
        }
    }

    /// One engine step with its admission and retirement; returns the wall
    /// time (ms) of `Ensemble::step` alone.
    fn step(&mut self) -> Result<f64, HealthError> {
        self.top_up();
        let t0 = Instant::now();
        self.engine.step()?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.engine_steps += 1;
        self.retire();
        Ok(ms)
    }

    fn measure(&mut self, window: Window) -> Result<(Vec<f64>, f64, u64), String> {
        let mut samples = Vec::with_capacity(window.capacity());
        let members_before = self.member_steps;
        let started = Instant::now();
        while !window.done(started, samples.len()) {
            samples.push(
                self.step()
                    .map_err(|e| format!("engine step failed: {e}"))?,
            );
        }
        Ok((
            samples,
            started.elapsed().as_secs_f64(),
            self.member_steps - members_before,
        ))
    }

    /// The engine's member must be the standalone model's run, to the bit;
    /// the standalone run also carries the state and mass checks. A window
    /// too short for any member to finish (`--smoke`) is followed by
    /// untimed steps until one does.
    fn check_outputs(&mut self, spec: &ScenarioSpec) -> Result<(f64, f64), String> {
        while self.first_finished.is_none() && self.members_failed == 0 {
            self.step()
                .map_err(|e| format!("engine step failed: {e}"))?;
        }
        if self.members_failed > 0 {
            return Err(format!(
                "{} members ended in MemberStatus::Failed",
                self.members_failed
            ));
        }
        let (member_seed, steps, hash) = self.first_finished.expect("loop above");
        let mut oracle = spec.build_model(member_seed);
        let mass_before = oracle.dycore.total_mass(&oracle.state);
        oracle.run_steps(steps);
        check_hash(
            "engine member vs standalone Swcam",
            hash,
            hash_state(&oracle.state),
        )?;
        let wind = check_state(&oracle.dycore, &oracle.state)?;
        let drift = check_mass(mass_before, oracle.dycore.total_mass(&oracle.state))?;
        Ok((wind, drift))
    }
}

/// Run `ens_aqua_l4`.
///
/// # Errors
/// A failed output check, in words; the caller exits non-zero.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = ens_workload();
    if args.trace {
        run_traced(args, &spec)
    } else {
        run_untraced(args, &spec)
    }
}

fn run_untraced(args: &Args, spec: &ScenarioSpec) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut timed_construct = || {
        let t0 = Instant::now();
        let driver = Driver::construct(spec, args.seed).map_err(|e| format!("first step: {e}"));
        setups.push(t0.elapsed().as_secs_f64());
        driver
    };
    for _ in 1..SETUP_REPS {
        drop(timed_construct()?); // one engine alive at a time
    }
    let mut d = timed_construct()?;
    for _ in 0..WARMUP_STEPS {
        d.step().map_err(|e| format!("warm-up step failed: {e}"))?;
    }
    let rollbacks_before = d.rollbacks;

    let (samples, wall_s, member_steps) = d.measure(Window::of(args, 1.0))?;
    let peak_rss = host::peak_rss_mib();
    let (wind, drift) = d.check_outputs(spec)?;

    let s = Summary::of(&samples);
    let mut metrics = Metrics::zeros(END_TO_END);
    metrics.set("setup_s", median(&setups));
    metrics.set("step_ms_p50", s.median);
    metrics.set(
        "sypd",
        member_steps as f64 * d.engine.dycore().cfg.dt / wall_s / 365.0,
    );
    metrics.set("peak_rss_mb", peak_rss);
    let notes = vec![
        format!(
            "ens_aqua_l4: ne{} nlev {} qsize {}, {ENS_LANES} lanes, lane kernels, 2 threads, \
             {} hypervis subcycles",
            spec.config.ne,
            spec.config.nlev,
            spec.config.qsize,
            d.engine.dycore().hypervis_subcycles()
        ),
        format!(
            "  {} engine steps, {member_steps} member-steps in {wall_s:.2} s ({:.2} member-steps/s); \
             engine step ms p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2}",
            s.n,
            member_steps as f64 / wall_s,
            s.q1,
            s.median,
            s.q3,
            s.p90
        ),
        format!(
            "  checks: member bitwise equal to standalone, max wind {wind:.1} m/s, \
             dry-mass drift {drift:.1e}"
        ),
    ];
    // A rolled-back member-step is a failed one; members still in flight
    // when the window closes have not reported theirs yet.
    let failed = d.rollbacks - rollbacks_before;
    Ok(Report {
        attempted: member_steps,
        failed,
        metrics,
        notes,
        trace: None,
    })
}

/// The engine's step, by hand through the member-batched public functions
/// of `homme::prim`, one span per phase. Returns the steps run and member
/// 0's final state hash and seed.
fn phase_probe(
    spec: &ScenarioSpec,
    seed: u64,
    rec: &mut Recorder,
    window: Window,
) -> Result<(usize, u64, u64), String> {
    let mut dycore = build_dycore(&spec.config);
    dycore.member_kernels = MemberKernelPath::Lanes;
    let suite = build_suite(&spec.config);
    let nelem = dycore.grid.nelem();
    let mut ws = EnsembleWorkspace::new(dycore.dims, nelem, ENS_LANES);
    let mut states: Vec<State> = (0..ENS_LANES).map(|_| dycore.zero_state()).collect();
    for (lane, state) in states.iter_mut().enumerate() {
        spec.apply(&dycore, state, ens_request(seed, lane as u64).0);
    }
    let members: Vec<usize> = (0..ENS_LANES).collect();
    let mut diags = vec![PhysicsDiag::default(); nelem * NPTS];
    let subcycles = dycore.hypervis_subcycles();
    let phys_dt = dycore.cfg.dt * spec.config.nsplit as f64 * spec.config.planet.reduction();
    let fail = |e: HealthError| format!("member-batched phase probe failed: {e}");

    let started = Instant::now();
    let mut steps = 0;
    while !window.done(started, steps) {
        rec.set_step(steps as u32);
        let step = rec.begin("members.step");
        rec.span("prim.rk", || {
            dycore.dynamics_step_members(&mut states, &members, &mut ws)
        });
        rec.span("prim.hypervis", || {
            dycore.apply_hypervis_members(&mut states, &members, &mut ws, subcycles)
        })
        .map_err(fail)?;
        rec.span("prim.tracer", || {
            for state in &mut states {
                dycore.euler_step_tracers(state);
            }
        });
        rec.span("prim.remap", || {
            states.iter_mut().try_for_each(|s| dycore.vertical_remap(s))
        })
        .map_err(fail)?;
        rec.span("physics.apply", || {
            states.iter_mut().try_for_each(|s| {
                apply_physics_checked(&dycore, s, &suite, phys_dt, spec.config.sst, &mut diags)
            })
        })
        .map_err(fail)?;
        rec.end(step);
        steps += 1;
    }
    Ok((steps, hash_state(&states[0]), ens_request(seed, 0).0))
}

fn run_traced(args: &Args, spec: &ScenarioSpec) -> Result<Report, String> {
    let epoch = Instant::now();
    let span_capacity = 8 * Window::of(args, 1.0).capacity() + 64;
    let mut rec = Recorder::new(epoch, 0, span_capacity);
    let mut m = Metrics::zeros(PER_LAYER);

    let setup = rec.begin("setup");
    setup_probe(&mut rec, &spec.config, &mut m);
    let engine = rec.span("ensemble.construction", || {
        Ensemble::new(spec.clone(), engine_config())
    });
    rec.end(setup);
    drop(engine);
    m.set(
        "ensemble.construction_ms",
        rec.durations_ms("ensemble.construction")[0],
    );

    let mut d = Driver::construct(spec, args.seed).map_err(|e| format!("first step: {e}"))?;
    for _ in 0..WARMUP_STEPS {
        d.step().map_err(|e| format!("warm-up step failed: {e}"))?;
    }

    // Paired pass: plain engine steps alternate with traced ones (the
    // engine's public surface is submit / step / collect), so both medians
    // see the same machine.
    let window = Window::of(args, PAIRED_SHARE);
    let (steps_before, members_before) = (d.engine_steps, d.member_steps);
    let mut reference = Vec::with_capacity(window.capacity());
    let mut allocs = 0;
    let mut traced_steps = 0;
    let started = Instant::now();
    while !window.done(started, reference.len() + traced_steps) {
        if reference.len() <= traced_steps {
            reference.push(d.step().map_err(|e| format!("engine step failed: {e}"))?);
            continue;
        }
        rec.set_step(traced_steps as u32);
        let outer = rec.begin("ensemble.cycle");
        rec.span("ensemble.submit", || d.top_up());
        let stepped = rec.span("ensemble.step", || counted(&mut allocs, || d.engine.step()));
        stepped.map_err(|e| format!("traced engine step failed: {e}"))?;
        d.engine_steps += 1;
        rec.span("ensemble.collect", || d.retire());
        rec.end(outer);
        traced_steps += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    if traced_steps == 0 {
        return Err("the paired pass needs at least two steps".into());
    }

    let step = Summary::of(&rec.durations_ms("ensemble.step"));
    let engine_steps = d.engine_steps - steps_before;
    let member_steps = d.member_steps - members_before;
    m.set("ensemble.member_steps_per_s", member_steps as f64 / wall_s);
    m.set(
        "ensemble.lane_occupancy",
        member_steps as f64 / (engine_steps * ENS_LANES as u64) as f64,
    );
    m.set("ensemble.rollbacks", d.rollbacks as f64);
    m.set("ensemble.members_failed", d.members_failed as f64);
    m.set(
        "run.failed_frac",
        d.rollbacks as f64 / d.member_steps as f64,
    );
    m.set("alloc.per_step", allocs as f64 / traced_steps as f64);
    m.set("run.step_ms_p90", step.p90);
    m.set("run.step_ms_iqr", step.iqr());
    m.set("run.samples", step.n as f64);
    m.set(
        "trace.overhead_frac",
        step.median / median(&reference) - 1.0,
    );

    let (wind, drift) = d.check_outputs(spec)?;
    m.set("check.mass_drift_rel", drift);
    let engine_dycore_subcycles = d.engine.dycore().hypervis_subcycles();
    let failed = d.rollbacks;
    drop(d);

    // Phases of the member-batched step, by hand, and the standalone model
    // they must agree with.
    let (probe_steps, probe_hash, member_seed) = phase_probe(
        spec,
        args.seed,
        &mut rec,
        Window::of(args, PHASE_PROBE_SHARE),
    )?;
    let med = |name: &str| median(&rec.durations_ms(name));
    let mut standalone = spec.build_model(member_seed);
    let standalone_ms: Vec<f64> = (0..probe_steps)
        .map(|_| {
            let t0 = Instant::now();
            standalone.step();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    check_hash(
        "member-batched phases vs standalone Swcam",
        probe_hash,
        hash_state(&standalone.state),
    )?;
    set_phase_metrics(
        &mut m,
        &standalone.dycore,
        ENS_LANES,
        med("prim.rk"),
        med("prim.hypervis"),
        med("prim.tracer"),
        med("prim.remap"),
        med("physics.apply"),
    );
    assert_eq!(m.get("hypervis.subcycles"), engine_dycore_subcycles as f64);
    let standalone_p50 = median(&standalone_ms);
    m.set(
        "ensemble.speedup_vs_standalone",
        standalone_p50 / (median(&reference) / ENS_LANES as f64),
    );

    let triad = host::triad(5);
    m.set("host.triad_gbps", triad.gbps);

    let notes = vec![
        format!(
            "ens_aqua_l4 traced: {traced_steps} traced engine steps (p50 {:.2} ms) alternating with {} \
             untraced (p50 {:.2} ms); standalone member-step p50 {standalone_p50:.2} ms",
            step.median,
            reference.len(),
            median(&reference)
        ),
        format!(
            "  member-batched phases ms ({probe_steps} steps, {ENS_LANES} members): rk {:.2} hypervis {:.2} \
             tracer {:.2} remap {:.2} physics {:.2}",
            med("prim.rk"),
            med("prim.hypervis"),
            med("prim.tracer"),
            med("prim.remap"),
            med("physics.apply")
        ),
        triad.note(),
        format!(
            "  checks: member bitwise equal to standalone (engine and by-hand), max wind {wind:.1} m/s, \
             dry-mass drift {drift:.1e}"
        ),
    ];
    let trace = chrome_trace(&[&rec], host::fingerprint(args.seed));
    Ok(Report {
        attempted: member_steps,
        failed,
        metrics: m,
        notes,
        trace: Some(trace),
    })
}
