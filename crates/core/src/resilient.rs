//! Fault-tolerant distributed stepping: checkpoint, detect, roll back,
//! retry.
//!
//! [`run_resilient`] wraps [`DistDycore::step_checked`] in the protocol a
//! peta-scale run needs to survive a flaky interconnect or a dying node:
//!
//! 1. every rank keeps a **snapshot** of its local state (re-taken every
//!    [`ResilienceConfig::checkpoint_interval`] committed steps,
//!    [`checkpoint`] codec, bitwise-exact, with the remap phase and the
//!    degradation countdown);
//! 2. each step attempt ends in exactly ONE global verdict reduction
//!    ([`StepHealth::reduce_global`]), executed by **every** rank —
//!    including ranks whose step aborted on a
//!    [`CommError`](swmpi::CommError) timeout or a tripped health guard.
//!    The verdict merges the failure flag with the worst-case
//!    [`StepHealth`] so all ranks reach the same decision;
//! 3. on failure, ranks flush any withheld sends, meet at the rollback
//!    rendezvous (after which no stale-epoch message can still be
//!    deposited), enter the next rollback epoch ([`DistDycore::set_epoch`]
//!    — the epoch lives in the high tag bits), purge every sub-floor
//!    message ([`swmpi::Comm::purge_below`]), restore the snapshot, and
//!    re-run from the checkpointed step;
//! 4. on success, a CFL breach in the *global* verdict arms the
//!    degradation policy on every rank in lockstep
//!    ([`homme::Dycore::arm_degradation`]).
//!
//! [`run_resilient`] and [`run_resilient_elastic`] run the same commit
//! loop; they differ only in where the snapshot lives (memory or a file)
//! and in the rendezvous (a barrier or the hub's re-admission round).
//!
//! Because the snapshot restore is bitwise and every rank takes identical
//! decisions, a run that survives injected faults (message drops,
//! duplicates, delays, a crashed rank) commits the **same bits** as an
//! undisturbed run — the property the `fault_injection` tests pin down.

use std::path::PathBuf;
use std::sync::Arc;

use crate::checkpoint::{self, CheckpointMeta};
use homme::{DistDycore, State, StepHealth};
use swmpi::{ElasticLink, RankCtx};

/// Knobs for [`run_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Re-snapshot the local state every this many committed steps (the
    /// initial state is always snapshotted before step 0).
    pub checkpoint_interval: u64,
    /// How many consecutive rollbacks of the same step to tolerate before
    /// giving up (bounds the retry loop when a failure is deterministic,
    /// e.g. a NaN that reappears on every replay).
    pub max_rollbacks_per_step: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { checkpoint_interval: 5, max_rollbacks_per_step: 3 }
    }
}

/// What a resilient run went through.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilientReport {
    /// Step attempts committed. A rollback restores the last snapshot, so
    /// steps between the snapshot and the failure are committed *again* on
    /// replay and count twice; `steps` >= the requested step count.
    pub steps: u64,
    /// Rollbacks performed (checkpoint restores).
    pub rollbacks: u32,
    /// Committed steps that ran under the degradation policy.
    pub degraded_steps: u64,
    /// Rollback epoch the run finished in.
    pub final_epoch: u64,
    /// Worst CFL number seen in any committed step.
    pub worst_cfl: f64,
}

/// Terminal failure of a resilient run (retries exhausted).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceExhausted {
    /// Rank reporting (all ranks report identically).
    pub rank: usize,
    /// The step that kept failing.
    pub step: u64,
    /// Rollbacks spent on it.
    pub rollbacks: u32,
}

impl std::fmt::Display for ResilienceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {}: step {} still failing after {} rollbacks",
            self.rank, self.step, self.rollbacks
        )
    }
}

impl std::error::Error for ResilienceExhausted {}

/// Where a rank keeps its rollback snapshot, and how the ranks meet before
/// restoring it.
enum Snapshot {
    /// In-process world: `SWCKPT02` bytes in memory; the rendezvous is a
    /// barrier, and the next epoch is the current one plus one.
    Memory(Vec<u8>),
    /// Elastic multi-process world: an atomically written `SWCKPT02` file
    /// (it must outlive the process); the rendezvous is the hub's
    /// re-admission round, which also returns the world-agreed epoch.
    File(Arc<ElasticLink>, PathBuf),
}

impl Snapshot {
    /// Snapshot `state` and the driver's cadences as committed after `step`.
    fn save(&mut self, dist: &DistDycore, state: &State, step: u64, rank: u32) {
        let meta = CheckpointMeta {
            step,
            remap_phase: dist.remap_phase() as u32,
            degrade_pending: dist.degrade_pending() as u32,
            rank,
            epoch: dist.epoch(),
            time: step as f64 * dist.cfg.dt,
        };
        match self {
            Snapshot::Memory(buf) => checkpoint::encode_into(state, &meta, buf),
            Snapshot::File(_, path) => checkpoint::write_file(path, state, &meta)
                .unwrap_or_else(|e| panic!("rank {rank}: checkpoint write failed: {e:?}")),
        }
    }

    /// Flush withheld sends, meet every rank, enter the agreed epoch, purge
    /// the aborted attempt's messages and restore the snapshot. Returns the
    /// step to replay from.
    fn roll_back(&self, ctx: &mut RankCtx, dist: &mut DistDycore, state: &mut State) -> u64 {
        // Deposit any withheld (fault-delayed) sends, then make sure every
        // rank has done so before anyone purges: after the rendezvous no
        // stale-epoch message can still appear.
        ctx.comm.flush_delayed();
        let epoch = match self {
            Snapshot::Memory(_) => {
                ctx.coll.barrier();
                dist.epoch() + 1
            }
            // The admit round completes only when all n ranks are in, so a
            // killed rank's replacement is already meshed and admitted
            // when this returns.
            Snapshot::File(link, _) => link.readmit().expect("rollback re-admission"),
        };
        dist.set_epoch(epoch);
        ctx.comm.purge_below(dist.tag_floor());
        let meta = match self {
            Snapshot::Memory(buf) => {
                checkpoint::decode(buf, state).expect("in-memory checkpoint cannot be corrupt")
            }
            Snapshot::File(_, path) => checkpoint::read_file(path, state)
                .unwrap_or_else(|e| panic!("rank {}: restore failed: {e:?}", ctx.rank())),
        };
        dist.set_remap_phase(meta.remap_phase as usize);
        dist.set_degrade_pending(meta.degrade_pending as usize);
        meta.step
    }
}

/// Advance `state` by `nsteps` committed steps, surviving message faults,
/// rank crashes at step boundaries, and tripped health guards. See the
/// module docs for the protocol. Returns the rank-identical report, or
/// [`ResilienceExhausted`] once one step has been rolled back more than
/// [`ResilienceConfig::max_rollbacks_per_step`] times in a row.
pub fn run_resilient(
    ctx: &mut RankCtx,
    dist: &mut DistDycore,
    state: &mut State,
    nsteps: u64,
    cfg: &ResilienceConfig,
) -> Result<ResilientReport, ResilienceExhausted> {
    run_resilient_with(ctx, dist, state, nsteps, cfg, |_, _, _| {})
}

/// [`run_resilient`] with a hook run just before every step *attempt*
/// (crashed attempts excluded), receiving the driver, the local state and
/// the step about to run. Fault-injection tests use it to corrupt state
/// mid-run; keying the injection off [`DistDycore::epoch`] makes it
/// one-shot, so the post-rollback replay runs clean and the test can
/// assert recovery rather than retry exhaustion.
pub fn run_resilient_with(
    ctx: &mut RankCtx,
    dist: &mut DistDycore,
    state: &mut State,
    nsteps: u64,
    cfg: &ResilienceConfig,
    before_attempt: impl FnMut(&mut DistDycore, &mut State, u64),
) -> Result<ResilientReport, ResilienceExhausted> {
    let mut snapshot = Snapshot::Memory(Vec::new());
    snapshot.save(dist, state, 0, ctx.rank() as u32);
    commit_loop(ctx, dist, state, nsteps, cfg, &mut snapshot, 0, before_attempt)
}

/// [`run_resilient`] for the **elastic multi-process world**
/// ([`swmpi::process_world`]): ranks are real child processes, checkpoints
/// live in `SWCKPT02` *files* (they must outlive the process), and rank
/// death is survivable — not just message faults.
///
/// Differences from the in-process protocol:
///
/// * **Checkpoints are files** under the supervisor's checkpoint directory
///   ([`swmpi::ElasticLink::checkpoint_path`]), written atomically
///   (tmp + rename) at the same committed steps on every rank, so any
///   incarnation of any rank restores a mutually consistent cut.
/// * **The verdict tolerates the dead**: the hub completes the reduction
///   among live admitted ranks and reports how many were absent
///   ([`swmpi::Collectives::allreduce_checked`]); `absent > 0` fails the
///   step like any local failure, so survivors roll back instead of
///   deadlocking on a rank that no longer exists.
/// * **The rollback barrier is the re-admission round**: instead of a
///   plain barrier + local epoch bump, every rank enters
///   [`swmpi::ElasticLink::readmit`], which completes only when ALL `n`
///   ranks are present — including a freshly respawned one — and returns
///   the world-agreed epoch to tag-purge against. The respawned rank
///   enters the same round from its bootstrap path, restores its own
///   checkpoint file, and replays alongside the survivors.
///
/// Because survivors and the respawned rank restore the same committed
/// cut and replay under one agreed epoch, a run that loses a whole
/// process to SIGKILL commits the same bits as an undisturbed run.
///
/// Per-rank [`ResilientReport`]s are **not** identical across ranks in a
/// killed run (a respawned rank never saw the rollbacks before its
/// death), so callers should compare state, not reports.
pub fn run_resilient_elastic(
    ctx: &mut RankCtx,
    dist: &mut DistDycore,
    state: &mut State,
    nsteps: u64,
    cfg: &ResilienceConfig,
) -> Result<ResilientReport, ResilienceExhausted> {
    let link = Arc::clone(
        ctx.elastic()
            .expect("run_resilient_elastic requires a process_world rank (elastic link)"),
    );
    let path = link.checkpoint_path();
    let respawned = link.is_respawned();
    let mut snapshot = Snapshot::File(link, path);
    let step = if respawned {
        // This process replaces a dead incarnation: rejoin the world at
        // the agreed epoch, then resume from the checkpoint the previous
        // incarnation committed.
        snapshot.roll_back(ctx, dist, state)
    } else {
        snapshot.save(dist, state, 0, ctx.rank() as u32);
        0
    };
    commit_loop(ctx, dist, state, nsteps, cfg, &mut snapshot, step, |_, _, _| {})
}

/// The one commit loop: attempt, verdict, then either roll back or commit,
/// degrade and snapshot.
#[allow(clippy::too_many_arguments)]
fn commit_loop(
    ctx: &mut RankCtx,
    dist: &mut DistDycore,
    state: &mut State,
    nsteps: u64,
    cfg: &ResilienceConfig,
    snapshot: &mut Snapshot,
    mut step: u64,
    mut before_attempt: impl FnMut(&mut DistDycore, &mut State, u64),
) -> Result<ResilientReport, ResilienceExhausted> {
    assert!(cfg.checkpoint_interval > 0, "checkpoint interval must be positive");
    let rank = ctx.rank() as u32;
    let mut report = ResilientReport::default();
    let mut consecutive_rollbacks = 0u32;
    while step < nsteps {
        // In a first-incarnation child of the elastic world a scheduled
        // kill_process fires here and never returns (SIGKILL).
        let crashed = ctx.begin_step(step);
        let mut failed = crashed;
        let mut local = StepHealth::unchecked();
        if !crashed {
            before_attempt(dist, state, step);
            match dist.step_checked(ctx, state) {
                Ok(h) => local = h,
                Err(_) => failed = true,
            }
        }
        // The one global decision point per attempt: every rank arrives
        // here no matter how its step went, so generations never mix.
        let (any_failed, global) = local.reduce_global(failed, &ctx.coll);
        if any_failed {
            consecutive_rollbacks += 1;
            report.rollbacks += 1;
            if consecutive_rollbacks > cfg.max_rollbacks_per_step {
                return Err(ResilienceExhausted {
                    rank: rank as usize,
                    step,
                    rollbacks: consecutive_rollbacks,
                });
            }
            step = snapshot.roll_back(ctx, dist, state);
            continue;
        }
        consecutive_rollbacks = 0;
        step += 1;
        report.steps += 1;
        if global.degraded {
            report.degraded_steps += 1;
        }
        if global.cfl > report.worst_cfl {
            report.worst_cfl = global.cfl;
        }
        // Degradation is armed from the GLOBAL verdict so every rank
        // halves dt for the same steps.
        if global.checked && global.cfl > dist.health.cfl_limit {
            dist.arm_degradation();
        }
        if step.is_multiple_of(cfg.checkpoint_interval) {
            snapshot.save(dist, state, step, rank);
        }
    }
    report.final_epoch = dist.epoch();
    Ok(report)
}
