//! `dist_ne8_r2tcp`: the distributed driver on two ranks of one thread
//! each, every halo message framed, CRC'd and sent over a loopback socket.

use std::time::{Duration, Instant};

use cubesphere::{CubedSphere, Partition};
use homme::{CopyStats, DistDycore, Dycore, ExchangeBuffers, ExchangeMode, State};
use swcam_core::{build_dycore, ScenarioSpec};
use swmpi::{
    run_ranks_tcp, run_ranks_with, CommConfig, CommStats, RankCtx, ReduceOp, WorldOptions,
};

use crate::alloc;
use crate::host;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{chrome_trace, Recorder};
use crate::workloads::{
    check_hash, check_mass, check_state, dist_workload, hash_state, Args, Report, Window,
    DIST_RANKS, SETUP_REPS, WARMUP_STEPS,
};

const PAIRED_SHARE: f64 = 0.55;
const MAILBOX_SHARE: f64 = 0.20;
/// Bare exchanges timed by the wire-cost probe.
const EXCHANGE_REPS: u64 = 40;
/// Extra oracle steps the traced run times for `dist.parallel_efficiency`.
const ORACLE_TIMED_STEPS: usize = 6;
/// Probe tags sit far above the driver's running tag and below its epoch
/// bits, so the two never match each other's messages.
const PROBE_TAG: u64 = 1 << 40;
/// Round-off between two summation orders over a few steps; a wrong halo
/// shows up ten orders of magnitude above this.
const SERIAL_TOLERANCE: f64 = 1e-10;

/// A failed exchange must end the run well inside the harness's limit.
fn world_options() -> WorldOptions {
    let comm = CommConfig {
        recv_timeout: Duration::from_secs(20),
        ..CommConfig::default()
    };
    WorldOptions { comm, faults: None }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    Tcp,
    Mailbox,
}

/// What the passes of one world do after construction.
#[derive(Clone, Copy)]
struct Plan {
    /// Untraced measured window (whole `DistDycore::step` calls).
    measured: Option<Window>,
    /// Paired window (whole steps alternating with phases by hand, so both
    /// see the same machine).
    traced: Option<Window>,
    /// Time bare exchanges once the windows are over.
    probe_exchange: bool,
}

struct RankOut {
    connect_ms: f64,
    build_ms: f64,
    /// Seconds from the start of this construction to the end of this
    /// rank's first step.
    setup_s: f64,
    owned: Vec<usize>,
    peers: usize,
    warm_hash: u64,
    /// Copy of the local state after warm-up, for the serial comparison.
    warm_state: State,
    samples: Vec<f64>,
    wall_s: f64,
    traced_steps: usize,
    copy: CopyStats,
    counted_steps: u64,
    comm: CommStats,
    /// Receive polls inside the window `copy` covers.
    retries: u64,
    unmatched: usize,
    exchange_ms: f64,
    allocs: u64,
    rec: Option<Recorder>,
    state: State,
}

/// Everything a construction shares between ranks.
struct Shared<'a> {
    grid: &'a CubedSphere,
    part: &'a Partition,
    spec: &'a ScenarioSpec,
    init: &'a State,
    /// Start of this construction (before the grid was built).
    started: Instant,
    /// Just before the world was launched.
    launched: Instant,
    epoch: Instant,
}

/// All ranks leave the loop on the same step: the slowest clock decides.
fn window_closed(ctx: &RankCtx, window: Window, started: Instant, steps: usize) -> bool {
    let mine = if window.done(started, steps) {
        1.0
    } else {
        0.0
    };
    ctx.coll.allreduce_scalar(mine, ReduceOp::Max) > 0.0
}

fn delta(after: CopyStats, before: CopyStats) -> CopyStats {
    CopyStats {
        staged_bytes: after.staged_bytes - before.staged_bytes,
        sent_bytes: after.sent_bytes - before.sent_bytes,
        msgs_sent: after.msgs_sent - before.msgs_sent,
    }
}

/// Median wall time (ms) of a bare four-field, full-depth aggregated DSS:
/// pack, send, receive, unpack, and no compute between them.
fn exchange_probe(ctx: &mut RankCtx, dist: &DistDycore, state: &State) -> f64 {
    let nlev = dist.dims.nlev;
    let (mut u, mut v, mut t, mut dp) = (
        state.u.clone(),
        state.v.clone(),
        state.t.clone(),
        state.dp3d.clone(),
    );
    let mut bufs = ExchangeBuffers::new();
    let mut stats = CopyStats::default();
    let mut times = Vec::with_capacity(EXCHANGE_REPS as usize);
    for i in 0..EXCHANGE_REPS {
        ctx.coll.barrier();
        let t0 = Instant::now();
        dist.plan
            .dss_aggregated(
                ctx,
                &mut [&mut u, &mut v, &mut t, &mut dp],
                nlev,
                PROBE_TAG + i,
                &mut bufs,
                &mut stats,
            )
            .expect("probe exchange");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

fn rank_body(ctx: &mut RankCtx, sh: &Shared, plan: Plan) -> RankOut {
    let connect_ms = sh.launched.elapsed().as_secs_f64() * 1e3;
    let cfg = &sh.spec.config;
    let t0 = Instant::now();
    let mut dist = DistDycore::new(
        sh.grid,
        sh.part,
        ctx.rank(),
        homme::Dims {
            nlev: cfg.nlev,
            qsize: cfg.qsize,
        },
        cfg.ptop,
        cfg.dycore_config(),
        ExchangeMode::Redesigned,
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut state = dist.local_state(sh.init);
    dist.step(ctx, &mut state).expect("first step");
    let setup_s = sh.started.elapsed().as_secs_f64();

    let mut out = RankOut {
        connect_ms,
        build_ms,
        setup_s,
        owned: dist.plan.owned.clone(),
        peers: dist.plan.links.len(),
        warm_hash: 0,
        warm_state: State::zeros(dist.dims, 0),
        samples: Vec::new(),
        wall_s: 0.0,
        traced_steps: 0,
        copy: CopyStats::default(),
        counted_steps: 0,
        comm: CommStats::default(),
        retries: 0,
        unmatched: 0,
        exchange_ms: 0.0,
        allocs: 0,
        rec: None,
        state: State::zeros(dist.dims, 0),
    };
    if plan.measured.is_none() && plan.traced.is_none() {
        return out; // a throwaway construction ends with its first step
    }

    for _ in 0..WARMUP_STEPS {
        dist.step(ctx, &mut state).expect("warm-up step");
    }
    out.warm_hash = hash_state(&state);
    out.warm_state = state.clone();

    if let Some(window) = plan.measured {
        out.samples.reserve(window.capacity());
        let before = dist.stats;
        ctx.coll.barrier();
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            dist.step(ctx, &mut state).expect("measured step");
            out.samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if window_closed(ctx, window, started, out.samples.len()) {
                break;
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.copy = delta(dist.stats, before);
        out.counted_steps = out.samples.len() as u64;
    }

    if let Some(window) = plan.traced {
        let mut rec = Recorder::new(sh.epoch, ctx.rank() as u32, 5 * window.capacity() + 8);
        out.samples.reserve(window.capacity());
        let before = dist.stats;
        let retries_before = ctx.comm.stats().retry_attempts;
        // The collective swaps two buffers; both reach the size of the
        // per-step stop vote here, not inside the counted window.
        for _ in 0..2 {
            ctx.coll.allreduce_scalar(0.0, ReduceOp::Max);
        }
        // Rank 0 arms the process-wide allocation counter while every rank
        // is parked between two barriers, and disarms it the same way.
        ctx.coll.barrier();
        let mark = if ctx.rank() == 0 { alloc::arm() } else { 0 };
        ctx.coll.barrier();
        let started = Instant::now();
        loop {
            if out.samples.len() <= out.traced_steps {
                let t0 = Instant::now();
                dist.step(ctx, &mut state).expect("untraced step");
                out.samples.push(t0.elapsed().as_secs_f64() * 1e3);
            } else {
                rec.set_step(out.traced_steps as u32);
                let step = rec.begin("dist.step");
                rec.span("dist.rk", || dist.dynamics_step(ctx, &mut state))
                    .expect("traced rk");
                rec.span("dist.hypervis", || dist.apply_hypervis(ctx, &mut state))
                    .expect("traced hypervis");
                rec.span("dist.tracer", || dist.euler_step_tracers(ctx, &mut state))
                    .expect("traced tracers");
                rec.span("dist.remap", || dist.vertical_remap(&mut state))
                    .expect("traced remap");
                rec.end(step);
                out.traced_steps += 1;
            }
            if window_closed(ctx, window, started, out.samples.len() + out.traced_steps) {
                break;
            }
        }
        ctx.coll.barrier();
        if ctx.rank() == 0 {
            out.allocs = alloc::disarm(mark);
        }
        ctx.coll.barrier();
        out.copy = delta(dist.stats, before);
        out.counted_steps = (out.samples.len() + out.traced_steps) as u64;
        out.retries = ctx.comm.stats().retry_attempts - retries_before;
        out.rec = Some(rec);
    }
    if plan.probe_exchange {
        out.exchange_ms = exchange_probe(ctx, &dist, &state);
    }

    out.comm = ctx.comm.stats();
    out.unmatched = ctx.comm.unmatched();
    out.state = state;
    out
}

/// One construction: grid, partition, seeded global initial state, world,
/// per-rank drivers, first step; then whatever `plan` asks for.
struct Construction {
    grid_ms: f64,
    partition_ms: f64,
    oracle: Dycore,
    init: State,
    ranks: Vec<RankOut>,
}

fn construct(
    spec: &ScenarioSpec,
    seed: u64,
    transport: Transport,
    plan: Plan,
    epoch: Instant,
) -> Construction {
    let started = Instant::now();
    let grid = CubedSphere::new(spec.config.ne);
    let grid_ms = started.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let part = Partition::new(&grid, DIST_RANKS);
    let partition_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The scenario writes its initial condition through a serial dycore;
    // the same dycore is the oracle of the output checks afterwards.
    let oracle = build_dycore(&spec.config);
    let mut init = oracle.zero_state();
    spec.apply(&oracle, &mut init, seed);
    let launched = Instant::now();
    let sh = Shared {
        grid: &grid,
        part: &part,
        spec,
        init: &init,
        started,
        launched,
        epoch,
    };
    let body = |ctx: &mut RankCtx| rank_body(ctx, &sh, plan);
    let ranks = match transport {
        Transport::Tcp => run_ranks_tcp(DIST_RANKS, world_options(), body),
        Transport::Mailbox => run_ranks_with(DIST_RANKS, world_options(), body),
    };
    Construction {
        grid_ms,
        partition_ms,
        oracle,
        init,
        ranks,
    }
}

/// The global state whose element `owned[li]` is element `li` of the local
/// state `pick` chooses from each rank (the inverse of
/// `DistDycore::local_state`).
fn gather(oracle: &Dycore, ranks: &[RankOut], pick: impl Fn(&RankOut) -> &State) -> State {
    let mut global = oracle.zero_state();
    for r in ranks {
        for (li, &e) in r.owned.iter().enumerate() {
            let (src, dst) = (pick(r).elem(li), global.elem_mut(e));
            dst.u.copy_from_slice(src.u);
            dst.v.copy_from_slice(src.v);
            dst.t.copy_from_slice(src.t);
            dst.dp3d.copy_from_slice(src.dp3d);
            dst.qdp.copy_from_slice(src.qdp);
            dst.phis.copy_from_slice(src.phis);
        }
    }
    global
}

/// Largest difference between two states, each field relative to its own
/// largest magnitude; infinite if anything is not finite.
fn max_rel_diff(state: &State, reference: &State) -> f64 {
    let fields = [
        (&state.u, &reference.u),
        (&state.v, &reference.v),
        (&state.t, &reference.t),
        (&state.dp3d, &reference.dp3d),
        (&state.qdp, &reference.qdp),
    ];
    let mut worst: f64 = 0.0;
    for (x, y) in fields {
        let scale = y.iter().fold(0.0f64, |m, q| m.max(q.abs()));
        let diff = x
            .iter()
            .zip(y)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        if x.iter().any(|p| !p.is_finite()) {
            return f64::INFINITY;
        }
        if scale > 0.0 {
            worst = worst.max(diff / scale);
        }
    }
    worst
}

/// Per-step maximum over ranks: a step is over when its slowest rank is.
fn slowest_rank(ranks: &[RankOut]) -> Vec<f64> {
    let n = ranks.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| ranks.iter().map(|r| r.samples[i]).fold(0.0, f64::max))
        .collect()
}

fn max_of(ranks: &[RankOut], f: impl Fn(&RankOut) -> f64) -> f64 {
    ranks.iter().map(f).fold(0.0, f64::max)
}

/// Oracle comparison and the output checks on the gathered final state.
/// Returns (max wind, mass drift, serial one-thread step ms, largest
/// relative difference from the serial state).
fn check_outputs(c: &mut Construction, timed_steps: usize) -> Result<(f64, f64, f64, f64), String> {
    let Construction {
        oracle,
        init,
        ranks,
        ..
    } = c;
    for r in ranks.iter() {
        if r.copy.staged_bytes != 0 {
            return Err(format!(
                "redesigned exchange staged {} bytes",
                r.copy.staged_bytes
            ));
        }
        if r.unmatched != 0 {
            return Err(format!(
                "{} orphaned messages at the end of the run",
                r.unmatched
            ));
        }
    }
    let mass_before = oracle.total_mass(init);

    // Gather the ranks' final states and check them as one.
    let global = gather(oracle, ranks, |r| &r.state);
    let wind = check_state(oracle, &global)?;
    let drift = check_mass(mass_before, oracle.total_mass(&global))?;
    drop(global);

    // The serial driver (one thread: this workload pins `SWCAM_THREADS`
    // to 1) must reach the same state. Not the same bits: a rank sums its
    // own contributions to a shared point before adding its peer's, the
    // serial DSS sums them in element order.
    let mut serial = init.clone();
    for _ in 0..1 + WARMUP_STEPS {
        oracle.step(&mut serial);
    }
    let worst = max_rel_diff(&gather(oracle, ranks, |r| &r.warm_state), &serial);
    if worst.is_nan() || worst > SERIAL_TOLERANCE {
        return Err(format!(
            "distributed state differs from the serial Dycore by {worst:e} after warm-up \
             (limit {SERIAL_TOLERANCE:e})"
        ));
    }
    let times: Vec<f64> = (0..timed_steps)
        .map(|_| {
            let t0 = Instant::now();
            oracle.step(&mut serial);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let serial_ms = if times.is_empty() {
        0.0
    } else {
        median(&times)
    };
    Ok((wind, drift, serial_ms, worst))
}

/// Run `dist_ne8_r2tcp`.
///
/// # Errors
/// A failed output check, in words; the caller exits non-zero.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = dist_workload();
    if args.trace {
        run_traced(args, &spec)
    } else {
        run_untraced(args, &spec)
    }
}

fn run_untraced(args: &Args, spec: &ScenarioSpec) -> Result<Report, String> {
    let epoch = Instant::now();
    let throwaway = Plan {
        measured: None,
        traced: None,
        probe_exchange: false,
    };
    let kept = Plan {
        measured: Some(Window::of(args, 1.0)),
        traced: None,
        probe_exchange: false,
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let c = construct(spec, args.seed, Transport::Tcp, throwaway, epoch);
        setups.push(max_of(&c.ranks, |r| r.setup_s));
    }
    let mut c = construct(spec, args.seed, Transport::Tcp, kept, epoch);
    setups.push(max_of(&c.ranks, |r| r.setup_s));
    let peak_rss = host::peak_rss_mib();

    let samples = slowest_rank(&c.ranks);
    let wall_s = max_of(&c.ranks, |r| r.wall_s);
    let (wind, drift, _, vs_serial) = check_outputs(&mut c, 0)?;

    let s = Summary::of(&samples);
    let attempted = samples.len() as u64;
    let mut metrics = Metrics::zeros(END_TO_END);
    metrics.set("setup_s", median(&setups));
    metrics.set("step_ms_p50", s.median);
    metrics.set("sypd", attempted as f64 * c.oracle.cfg.dt / wall_s / 365.0);
    metrics.set("peak_rss_mb", peak_rss);
    let notes = vec![
        format!(
            "dist_ne8_r2tcp: ne{} nlev {} qsize {}, {DIST_RANKS} ranks x 1 thread over loopback TCP, \
             {} hypervis subcycles",
            spec.config.ne,
            spec.config.nlev,
            spec.config.qsize,
            c.oracle.hypervis_subcycles()
        ),
        format!(
            "  {} steps in {wall_s:.2} s; step ms (slowest rank) p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2}",
            s.n, s.q1, s.median, s.q3, s.p90
        ),
        format!(
            "  checks: max wind {wind:.1} m/s, dry-mass drift {drift:.1e}, {vs_serial:.1e} from the \
             serial Dycore, 0 staged bytes, 0 orphaned messages"
        ),
    ];
    Ok(Report {
        attempted,
        failed: 0,
        metrics,
        notes,
        trace: None,
    })
}

fn run_traced(args: &Args, spec: &ScenarioSpec) -> Result<Report, String> {
    let epoch = Instant::now();
    let plan = Plan {
        measured: None,
        traced: Some(Window::of(args, PAIRED_SHARE)),
        probe_exchange: true,
    };
    let mut c = construct(spec, args.seed, Transport::Tcp, plan, epoch);
    let mut m = Metrics::zeros(PER_LAYER);
    m.set("cubesphere.grid_build_ms", c.grid_ms);
    m.set("cubesphere.partition_ms", c.partition_ms);
    m.set("dist.build_ms", max_of(&c.ranks, |r| r.build_ms));
    m.set("swmpi.world_connect_ms", max_of(&c.ranks, |r| r.connect_ms));

    let reference = median(&slowest_rank(&c.ranks));
    let recs: Vec<&Recorder> = c
        .ranks
        .iter()
        .map(|r| r.rec.as_ref().expect("traced"))
        .collect();
    // Per step, the slowest rank's span; then the median over steps.
    let slowest = |name: &str| -> Vec<f64> {
        let per_rank: Vec<Vec<f64>> = recs.iter().map(|r| r.durations_ms(name)).collect();
        let n = per_rank.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| per_rank.iter().map(|d| d[i]).fold(0.0, f64::max))
            .collect()
    };
    let step = Summary::of(&slowest("dist.step"));
    let hv = median(&slowest("dist.hypervis"));
    m.set("dist.rk_ms", median(&slowest("dist.rk")));
    m.set("dist.hypervis_ms", hv);
    m.set("dist.tracer_ms", median(&slowest("dist.tracer")));
    m.set("dist.remap_ms", median(&slowest("dist.remap")));
    let subcycles = c.oracle.hypervis_subcycles();
    m.set("hypervis.subcycles", subcycles as f64);
    m.set("hypervis.ms_per_subcycle", hv / subcycles as f64);
    m.set("run.step_ms_p90", step.p90);
    m.set("run.step_ms_iqr", step.iqr());
    m.set("run.samples", step.n as f64);
    m.set("trace.overhead_frac", step.median / reference - 1.0);
    m.set("run.failed_frac", 0.0);

    let nranks = c.ranks.len() as f64;
    let steps = c.ranks[0].counted_steps as f64;
    let per_step_rank = |f: &dyn Fn(&RankOut) -> u64| {
        c.ranks.iter().map(|r| f(r) as f64).sum::<f64>() / nranks / steps
    };
    let msgs = per_step_rank(&|r| r.copy.msgs_sent);
    m.set("bndry.msgs_per_step", msgs);
    m.set(
        "bndry.payload_bytes_per_step",
        per_step_rank(&|r| r.copy.sent_bytes),
    );
    m.set(
        "bndry.staged_bytes_per_step",
        per_step_rank(&|r| r.copy.staged_bytes),
    );
    let total =
        |f: &dyn Fn(&CommStats) -> u64| c.ranks.iter().map(|r| f(&r.comm) as f64).sum::<f64>();
    // Polls of blocked receives: waiting, so per step and not exact.
    m.set("swmpi.retry_attempts", per_step_rank(&|r| r.retries));
    m.set("swmpi.recovered", total(&|s| s.recovered));
    m.set("swmpi.stale_dropped", total(&|s| s.stale_dropped));
    m.set("alloc.per_step", c.ranks[0].allocs as f64 / nranks / steps);
    let exchange_ms = max_of(&c.ranks, |r| r.exchange_ms);
    m.set("bndry.exchange_ms", exchange_ms);
    let exchanges_per_step = msgs / c.ranks[0].peers as f64;
    m.set(
        "dist.exchange_share",
        exchanges_per_step * exchange_ms / step.median,
    );

    let trace = chrome_trace(&recs, host::fingerprint(args.seed));
    let tcp_hashes: Vec<u64> = c.ranks.iter().map(|r| r.warm_hash).collect();
    let (wind, drift, serial_ms, vs_serial) = check_outputs(&mut c, ORACLE_TIMED_STEPS)?;
    m.set("check.mass_drift_rel", drift);
    m.set("dist.parallel_efficiency", serial_ms / (nranks * reference));
    drop(c);

    // The same step over the in-process mailbox: what the wire costs.
    let mailbox_plan = Plan {
        measured: Some(Window::of(args, MAILBOX_SHARE)),
        traced: None,
        probe_exchange: true,
    };
    let mb = construct(spec, args.seed, Transport::Mailbox, mailbox_plan, epoch);
    for (rank, (r, &tcp)) in mb.ranks.iter().zip(&tcp_hashes).enumerate() {
        check_hash(
            &format!("rank {rank}, mailbox vs TCP after warm-up"),
            r.warm_hash,
            tcp,
        )?;
    }
    let mailbox_ms = median(&slowest_rank(&mb.ranks));
    m.set(
        "bndry.exchange_ms_mailbox",
        max_of(&mb.ranks, |r| r.exchange_ms),
    );
    m.set("swmpi.tcp_over_mailbox", reference / mailbox_ms);

    let triad = host::triad(5);
    m.set("host.triad_gbps", triad.gbps);

    let notes = vec![
        format!(
            "dist_ne8_r2tcp traced: {} traced steps (p50 {:.2} ms) alternating with untraced p50 {reference:.2} ms; \
             mailbox p50 {mailbox_ms:.2} ms; serial 1-thread step {serial_ms:.2} ms",
            step.n, step.median
        ),
        format!(
            "  {exchanges_per_step:.0} exchanges/step/rank, bare exchange {exchange_ms:.3} ms over TCP, \
             {:.3} ms over the mailbox",
            m.get("bndry.exchange_ms_mailbox")
        ),
        triad.note(),
        format!(
            "  checks: max wind {wind:.1} m/s, dry-mass drift {drift:.1e}, {vs_serial:.1e} from the \
             serial Dycore, mailbox and TCP bitwise equal"
        ),
    ];
    Ok(Report {
        attempted: step.n as u64,
        failed: 0,
        metrics: m,
        notes,
        trace: Some(trace),
    })
}
