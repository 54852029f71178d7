//! The TCP / multi-process backend against the in-process mailbox:
//!
//! 1. **Loopback TCP parity** — the same 4-rank distributed run over real
//!    loopback sockets ([`swmpi::run_ranks_tcp`]) commits bitwise the
//!    same state as the pooled in-process mailbox backend;
//! 2. **multi-process parity** — ranks as real child processes
//!    ([`swmpi::process_world`]: supervisor + hub + socket mesh) commit
//!    bitwise the same state again;
//! 3. **elastic resilience** — the multi-process world running the
//!    elastic resilient driver ([`swcam_core::run_resilient_elastic`],
//!    `SWCKPT02` checkpoint files) matches the in-process resilient
//!    driver bitwise; and when [`swmpi::FaultPlan::kill_process`]
//!    SIGKILLs one rank mid-step, the supervisor respawns it from its
//!    checkpoint, the world re-admits it at the agreed epoch, and the run
//!    still commits the same bits as an undisturbed resilient run.

use std::time::Duration;

use cubesphere::consts::P0;
use cubesphere::{CubedSphere, Partition, NPTS};
use homme::hypervis::HypervisConfig;
use homme::{Dims, DistDycore, Dycore, DycoreConfig, ExchangeMode, HealthConfig, State};
use swcam_core::{run_resilient, run_resilient_elastic, ResilienceConfig};
use swmpi::{
    process_world, run_ranks_tcp, run_ranks_with, CommConfig, FaultPlan, RankCtx, WorldOptions,
};

const NRANKS: usize = 4;

/// One model scale: the small one keeps the process worlds quick; the
/// parity one is the issue's ne4 / nlev26 / qsize4 / 10-step prescription.
#[derive(Clone, Copy)]
struct Scale {
    ne: usize,
    nlev: usize,
    qsize: usize,
    nsteps: u64,
}

const SMALL: Scale = Scale { ne: 3, nlev: 4, qsize: 2, nsteps: 6 };
const PARITY: Scale = Scale { ne: 4, nlev: 26, qsize: 4, nsteps: 10 };

impl Scale {
    fn config(&self) -> DycoreConfig {
        let nu = HypervisConfig::for_ne(self.ne).nu;
        DycoreConfig {
            dt: 300.0 * 30.0 / self.ne as f64,
            hypervis: HypervisConfig {
                nu,
                nu_p: nu,
                subcycles: 3,
                nu_top: 2.5e5,
                sponge_layers: 2,
            },
            limiter: true,
            rsplit: 1,
        }
    }

    fn dims(&self) -> Dims {
        Dims { nlev: self.nlev, qsize: self.qsize }
    }

    fn initial_state(&self, dy: &Dycore) -> State {
        let d = dy.dims;
        let vert = dy.rhs.vert.clone();
        let elems: Vec<_> = dy.grid.elements.clone();
        let mut st = dy.zero_state();
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let lon = el.metric[p].lon;
                let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
                for k in 0..d.nlev {
                    let i = k * NPTS + p;
                    es.u[i] = 20.0 * lat.cos();
                    es.v[i] = 2.0 * lon.sin();
                    es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                    es.dp3d[i] = vert.dp_ref(k, ps);
                    for q in 0..d.qsize {
                        es.qdp[(q * d.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                    }
                }
            }
        }
        st
    }
}

/// Canonical bitwise serialization of one rank's outcome: incarnation
/// byte, owned element ids, then every state field as raw f64 bits. Two
/// runs agree iff these byte strings agree — and the byte string is what
/// a child process can ship to the supervisor.
fn encode_result(incarnation: u32, owned: &[usize], s: &State) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(incarnation.min(u8::MAX as u32) as u8);
    out.extend_from_slice(&(owned.len() as u64).to_le_bytes());
    for &e in owned {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    for field in [&s.u, &s.v, &s.t, &s.dp3d, &s.qdp, &s.phis] {
        out.extend_from_slice(&(field.len() as u64).to_le_bytes());
        for &x in field.iter() {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    out
}

fn assert_same_state(a: &[Vec<u8>], b: &[Vec<u8>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: world sizes differ");
    for (rank, (ra, rb)) in a.iter().zip(b).enumerate() {
        // Byte 0 is the incarnation — runs legitimately differ there.
        assert_eq!(
            ra[1..],
            rb[1..],
            "{what}: rank {rank} state bytes differ (inc {} vs {})",
            ra[0],
            rb[0]
        );
    }
}

/// The plain distributed step loop every backend runs; returns the
/// canonical serialization of this rank's outcome.
fn step_body(ctx: &mut RankCtx, scale: Scale, grid: &CubedSphere, part: &Partition, init: &State) -> Vec<u8> {
    let mut dist = DistDycore::new(
        grid,
        part,
        ctx.rank(),
        scale.dims(),
        2000.0,
        scale.config(),
        ExchangeMode::Redesigned,
    );
    let mut local = dist.local_state(init);
    for step in 0..scale.nsteps {
        ctx.set_step(step);
        dist.step(ctx, &mut local).expect("step");
    }
    assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
    let inc = ctx.elastic().map_or(0, |l| l.incarnation());
    encode_result(inc, &dist.plan.owned, &local)
}

/// The elastic resilient body (file checkpoints, hub verdicts, readmit on
/// rollback) used by the process worlds.
fn elastic_body(
    ctx: &mut RankCtx,
    scale: Scale,
    grid: &CubedSphere,
    part: &Partition,
    init: &State,
) -> Vec<u8> {
    let mut dist = DistDycore::new(
        grid,
        part,
        ctx.rank(),
        scale.dims(),
        2000.0,
        scale.config(),
        ExchangeMode::Redesigned,
    );
    dist.health = HealthConfig::on();
    let mut local = dist.local_state(init);
    let rcfg = ResilienceConfig { checkpoint_interval: 2, max_rollbacks_per_step: 3 };
    run_resilient_elastic(ctx, &mut dist, &mut local, scale.nsteps, &rcfg)
        .expect("elastic resilient run");
    let inc = ctx.elastic().map_or(0, |l| l.incarnation());
    encode_result(inc, &dist.plan.owned, &local)
}

/// In-process mailbox reference for the resilient scenarios: the existing
/// thread-world `run_resilient` with in-memory snapshots.
fn thread_resilient_reference(scale: Scale, grid: &CubedSphere, part: &Partition, init: &State) -> Vec<Vec<u8>> {
    run_ranks_with(NRANKS, WorldOptions::default(), |ctx| {
        let mut dist = DistDycore::new(
            grid,
            part,
            ctx.rank(),
            scale.dims(),
            2000.0,
            scale.config(),
            ExchangeMode::Redesigned,
        );
        dist.health = HealthConfig::on();
        let mut local = dist.local_state(init);
        let rcfg = ResilienceConfig { checkpoint_interval: 2, max_rollbacks_per_step: 3 };
        let report = run_resilient(ctx, &mut dist, &mut local, scale.nsteps, &rcfg)
            .expect("thread resilient run");
        assert_eq!(report.rollbacks, 0, "the reference run must be undisturbed");
        encode_result(0, &dist.plan.owned, &local)
    })
}

/// The loopback TCP backend (threads-as-ranks, every message over a real
/// socket) commits bitwise the same 10-step ne4/nlev26/qsize4 trajectory
/// as the pooled in-process mailbox backend.
#[test]
fn tcp_backend_matches_mailbox_backend() {
    let scale = PARITY;
    let grid = CubedSphere::new(scale.ne);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(scale.ne, scale.dims(), 2000.0, scale.config());
    let init = scale.initial_state(&serial);

    let mailbox = run_ranks_with(NRANKS, WorldOptions::default(), |ctx| {
        step_body(ctx, scale, &grid, &part, &init)
    });
    let tcp = run_ranks_tcp(NRANKS, WorldOptions::default(), |ctx| {
        step_body(ctx, scale, &grid, &part, &init)
    });
    assert_same_state(&mailbox, &tcp, "tcp vs mailbox");
}

/// Real child processes (supervisor + hub + full socket mesh) commit
/// bitwise the same trajectory as the in-process mailbox world.
#[test]
fn multi_process_tcp_matches_in_process_mailbox() {
    let scale = SMALL;
    let grid = CubedSphere::new(scale.ne);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(scale.ne, scale.dims(), 2000.0, scale.config());
    let init = scale.initial_state(&serial);

    // In a child process this call runs the body and never returns.
    let procs = process_world(
        "multi_process_tcp_matches_in_process_mailbox",
        NRANKS,
        WorldOptions::default(),
        |ctx| step_body(ctx, scale, &grid, &part, &init),
    );

    let mailbox = run_ranks_with(NRANKS, WorldOptions::default(), |ctx| {
        step_body(ctx, scale, &grid, &part, &init)
    });
    assert_same_state(&mailbox, &procs, "multi-process tcp vs mailbox");
    assert!(procs.iter().all(|r| r[0] == 0), "no rank should have been respawned");
}

/// The elastic resilient driver over an undisturbed multi-process world
/// matches the in-process resilient driver bitwise (file checkpoints and
/// hub verdicts change nothing).
#[test]
fn clean_elastic_run_matches_thread_resilient_run() {
    let scale = SMALL;
    let grid = CubedSphere::new(scale.ne);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(scale.ne, scale.dims(), 2000.0, scale.config());
    let init = scale.initial_state(&serial);

    let procs = process_world(
        "clean_elastic_run_matches_thread_resilient_run",
        NRANKS,
        WorldOptions::default(),
        |ctx| elastic_body(ctx, scale, &grid, &part, &init),
    );

    let reference = thread_resilient_reference(scale, &grid, &part, &init);
    assert_same_state(&reference, &procs, "clean elastic vs thread resilient");
    assert!(procs.iter().all(|r| r[0] == 0), "no rank should have been respawned");
}

/// One rank's process is SIGKILLed mid-run; its peers see the dead
/// sockets, fail the step verdict (absent rank), and roll back to their
/// checkpoint files while the supervisor respawns the rank from ITS
/// checkpoint file; the re-admission round re-assembles the world at one
/// agreed epoch and the replay commits the same bits as an undisturbed
/// resilient run.
#[test]
fn kill_and_respawn_recovers_bitwise() {
    let scale = SMALL;
    let grid = CubedSphere::new(scale.ne);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(scale.ne, scale.dims(), 2000.0, scale.config());
    let init = scale.initial_state(&serial);

    // Rank 1 is killed at the start of step 3; the checkpoint interval is
    // 2, so everyone replays from the step-2 files.
    let opts = WorldOptions {
        comm: CommConfig { recv_timeout: Duration::from_secs(20), ..CommConfig::default() },
        faults: Some(FaultPlan::seeded(9).kill_process(1, 3)),
    };
    let procs = process_world("kill_and_respawn_recovers_bitwise", NRANKS, opts, |ctx| {
        elastic_body(ctx, scale, &grid, &part, &init)
    });

    // The kill must actually have happened: rank 1 finished as a respawned
    // incarnation, everyone else as the original.
    assert_eq!(procs[1][0], 1, "rank 1 must have been respawned exactly once");
    for (rank, r) in procs.iter().enumerate() {
        if rank != 1 {
            assert_eq!(r[0], 0, "rank {rank} must not have been respawned");
        }
    }

    let reference = thread_resilient_reference(scale, &grid, &part, &init);
    assert_same_state(&reference, &procs, "killed+respawned vs clean resilient");
}
