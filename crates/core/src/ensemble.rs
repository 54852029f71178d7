//! The ensemble engine: one shared dycore, many members (ROADMAP item 4).
//!
//! Climate forecasting runs *ensembles* — the same scenario integrated from
//! N seeded perturbations of one initial condition. Run as separate models,
//! N members repeat every piece of member-independent setup N times: grid
//! generation, DSS assembly-map construction, blocked-operator precompute
//! and step workspaces. The ensemble driver holds **one** dycore and steps
//! every running member through it, one after another:
//!
//! * geometry, DSS plans, blocked operators and scratch are built once and
//!   shared; members step member-major, each through the one coupled step
//!   [`Swcam::step`](crate::Swcam::step) also takes (the dycore's checked
//!   step at the member's own remap phase, then the physics at its
//!   `nsplit` cadence), whose phases are element-parallel sweeps on the
//!   shared dycore's scheduler;
//! * members are admitted from a request queue into free lanes between
//!   steps and retired as they reach their step targets, like a batch
//!   inference server;
//! * a member whose step fails its health checks (vertical remap rejection,
//!   physics column rejection as [`HealthError::Physics`]) is rolled back
//!   to its pre-step snapshot **alone** — the other members never notice.
//!
//! Bitwise contract: member *m* of an N-member batch is bit-for-bit equal
//! to a standalone [`Swcam`]-equivalent run of the same
//! [`ScenarioSpec`] and seed. That holds by construction: a member runs the
//! standalone step, and no workspace buffer carries anything from one call
//! to the next. Members are not batched through shared kernels: with SIMD
//! lanes as members that measured 0.99–1.02× end to end on a host whose
//! spatial kernels are already 4-wide SIMD (DESIGN.md §5.10).
//!
//! The steady-state step loop performs no heap allocation (admission
//! included); only [`Ensemble::submit`] and [`Ensemble::collect`] allocate.

use crate::config::ScenarioSpec;
use crate::coupling::coupled_step;
use crate::model::{build_dycore, build_suite};
use cubesphere::NPTS;
use homme::{Dycore, HealthError, MemberKernelPath, State};
use std::collections::VecDeque;
use swphysics::{PhysicsDiag, PhysicsSuite};

/// Batch-driver knobs.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleConfig {
    /// Concurrent members ("lanes": a state and a snapshot each).
    /// Submissions beyond this wait in the queue.
    pub lanes: usize,
    /// Consecutive failed steps a member may roll back before it is marked
    /// [`MemberStatus::Failed`] and retired.
    pub max_rollbacks: usize,
    /// The member path: [`MemberKernelPath::Lanes`], the only one, which
    /// steps members one after another. It selects nothing and stays only
    /// because the `benchmark/` crate names it (ROADMAP item 6).
    pub member_kernel_path: MemberKernelPath,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            lanes: 4,
            max_rollbacks: 2,
            member_kernel_path: MemberKernelPath::default(),
        }
    }
}

/// Lifecycle of a member lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Lane is free for admission.
    Empty,
    /// Member is being stepped.
    Running,
    /// Member reached its step target; waiting for [`Ensemble::collect`].
    Finished,
    /// Member exceeded its rollback budget; waiting for collection.
    Failed,
}

/// What a retired member hands back.
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// Submission id ([`Ensemble::submit`] return value).
    pub id: u64,
    /// The member's perturbation seed.
    pub seed: u64,
    /// Terminal status ([`MemberStatus::Finished`] or
    /// [`MemberStatus::Failed`]).
    pub status: MemberStatus,
    /// Coupled steps completed.
    pub steps: usize,
    /// Simulated time, s.
    pub time: f64,
    /// Total single-step rollbacks over the member's life.
    pub rollbacks: usize,
    /// The error behind the most recent rollback, if any.
    pub last_error: Option<HealthError>,
    /// Final prognostic state.
    pub state: State,
    /// Accumulated precipitation per (element, point), kg/m^2.
    pub precip_accum: Vec<f64>,
}

/// Per-step bookkeeping that must be restored on rollback, exactly the
/// values a standalone run would still hold had the step never happened.
#[derive(Debug, Clone, Copy, Default)]
struct SlotMeta {
    steps_done: usize,
    steps_since_remap: usize,
    time: f64,
}

#[derive(Debug)]
struct Slot {
    status: MemberStatus,
    id: u64,
    seed: u64,
    target: usize,
    meta: SlotMeta,
    rollbacks: usize,
    consecutive: usize,
    last_error: Option<HealthError>,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            status: MemberStatus::Empty,
            id: 0,
            seed: 0,
            target: 0,
            meta: SlotMeta::default(),
            rollbacks: 0,
            consecutive: 0,
            last_error: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Submission {
    id: u64,
    seed: u64,
    steps: usize,
}

/// The ensemble driver. See the module docs for the model.
pub struct Ensemble {
    spec: ScenarioSpec,
    cfg: EnsembleConfig,
    dycore: Dycore,
    suite: PhysicsSuite,
    states: Vec<State>,
    snaps: Vec<State>,
    slots: Vec<Slot>,
    saved: Vec<SlotMeta>,
    precip: Vec<Vec<f64>>,
    diags: Vec<PhysicsDiag>,
    idx: Vec<usize>,
    queue: VecDeque<Submission>,
    next_id: u64,
}

impl Ensemble {
    /// Build the engine for one scenario: the dycore, the per-lane state and
    /// snapshot arenas and all step scratch are allocated here, once —
    /// everything after this is reused.
    ///
    /// # Panics
    /// Panics on an invalid scenario configuration or `lanes == 0`.
    pub fn new(spec: ScenarioSpec, cfg: EnsembleConfig) -> Self {
        assert!(cfg.lanes > 0, "ensemble needs at least one lane");
        spec.config.validate().expect("invalid scenario configuration");
        let mut dycore = build_dycore(&spec.config);
        dycore.member_kernels = cfg.member_kernel_path;
        let suite = build_suite(&spec.config);
        let nelem = dycore.grid.elements.len();
        let npts = nelem * NPTS;
        let states: Vec<State> = (0..cfg.lanes).map(|_| dycore.zero_state()).collect();
        let snaps: Vec<State> = (0..cfg.lanes).map(|_| dycore.zero_state()).collect();
        Ensemble {
            spec,
            cfg,
            dycore,
            suite,
            states,
            snaps,
            slots: (0..cfg.lanes).map(|_| Slot::empty()).collect(),
            saved: vec![SlotMeta::default(); cfg.lanes],
            precip: (0..cfg.lanes).map(|_| vec![0.0; npts]).collect(),
            diags: vec![PhysicsDiag::default(); npts],
            idx: Vec::with_capacity(cfg.lanes),
            queue: VecDeque::new(),
            next_id: 0,
        }
    }

    /// Queue a member: perturbation seed `seed`, run for `steps` coupled
    /// steps. Returns the submission id. The member starts at the next
    /// [`Ensemble::step`] with a free lane.
    pub fn submit(&mut self, seed: u64, steps: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Submission { id, seed, steps });
        id
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The shared dycore (diagnostics such as
    /// [`homme::Dycore::total_mass`]).
    pub fn dycore(&self) -> &Dycore {
        &self.dycore
    }

    /// Members waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Members currently being stepped.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.status == MemberStatus::Running).count()
    }

    /// True when nothing is queued and nothing is running (retired members
    /// may still await collection).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active() == 0
    }

    /// Advance every running member by one coupled step; admits queued
    /// members into free lanes first. Allocation-free.
    ///
    /// # Errors
    /// Only batch-wide failures surface here (the shared hyperviscosity
    /// plan rejecting the grid/configuration — member-independent, so it
    /// would fail every member identically). Every running member is then
    /// restored to its pre-step state and bookkeeping before the error is
    /// returned (a member this call admitted stays admitted, at its initial
    /// state). Per-member failures roll back that member alone and are
    /// reported through [`MemberReport`].
    pub fn step(&mut self) -> Result<(), HealthError> {
        self.step_with(&mut |_, _| {})
    }

    /// [`Ensemble::step`] with a test hook run on each running member's
    /// state after its pre-step snapshot is taken (so whatever the hook
    /// writes is undone by a rollback) and before dynamics.
    ///
    /// # Errors
    /// As [`Ensemble::step`].
    pub fn step_with(
        &mut self,
        hook: &mut dyn FnMut(u64, &mut State),
    ) -> Result<(), HealthError> {
        let Ensemble {
            spec,
            cfg,
            dycore,
            suite,
            states,
            snaps,
            slots,
            saved,
            precip,
            diags,
            idx,
            queue,
            ..
        } = self;

        // Admission: fill free lanes from the queue. `ScenarioSpec::apply`
        // re-initializes the lane in place (no allocation).
        for (s, slot) in slots.iter_mut().enumerate() {
            if slot.status != MemberStatus::Empty {
                continue;
            }
            let Some(sub) = queue.pop_front() else { break };
            spec.apply(dycore, &mut states[s], sub.seed);
            precip[s].fill(0.0);
            *slot = Slot {
                status: MemberStatus::Running,
                id: sub.id,
                seed: sub.seed,
                target: sub.steps,
                meta: SlotMeta::default(),
                rollbacks: 0,
                consecutive: 0,
                last_error: None,
            };
        }

        idx.clear();
        for (s, slot) in slots.iter().enumerate() {
            if slot.status == MemberStatus::Running {
                idx.push(s);
            }
        }
        if idx.is_empty() {
            return Ok(());
        }

        // Snapshot every running member, then run the hook on it (so a
        // rollback undoes whatever the hook writes).
        for &s in idx.iter() {
            snaps[s].copy_from(&states[s]);
            saved[s] = slots[s].meta;
            hook(slots[s].id, &mut states[s]);
        }

        // Member after member, the coupled step through the shared dycore
        // at the member's own remap phase. A hypervis error is
        // member-independent (grid/configuration), hence batch-wide — it
        // fails the first member, before any member has stepped: put every
        // running member back as it was before the step, then report.
        for &s in idx.iter() {
            let slot = &mut slots[s];
            let step = slot.meta.steps_done + 1;
            dycore.set_remap_phase(slot.meta.steps_since_remap);
            let state = &mut states[s];
            match coupled_step(dycore, state, suite, &spec.config, step, diags, &mut precip[s]) {
                Ok(()) => {
                    slot.meta = SlotMeta {
                        steps_done: step,
                        steps_since_remap: dycore.remap_phase(),
                        time: slot.meta.time + dycore.cfg.dt,
                    };
                    slot.consecutive = 0;
                    if step >= slot.target {
                        slot.status = MemberStatus::Finished;
                    }
                }
                Err(e @ HealthError::Hypervis(_)) => {
                    for &s in idx.iter() {
                        states[s].copy_from(&snaps[s]);
                        slots[s].meta = saved[s];
                    }
                    return Err(e);
                }
                Err(e) => {
                    // Member-only rollback: restore the pre-step snapshot
                    // and bookkeeping; every other member keeps its step.
                    states[s].copy_from(&snaps[s]);
                    slot.meta = saved[s];
                    slot.rollbacks += 1;
                    slot.consecutive += 1;
                    slot.last_error = Some(e);
                    if slot.consecutive > cfg.max_rollbacks {
                        slot.status = MemberStatus::Failed;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drain retired (finished or failed) members, freeing their lanes for
    /// queued submissions. Reports are sorted by submission id. Allocates
    /// (state clones) — call between armed step windows, not inside them.
    pub fn collect(&mut self) -> Vec<MemberReport> {
        let mut out = Vec::new();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if !matches!(slot.status, MemberStatus::Finished | MemberStatus::Failed) {
                continue;
            }
            out.push(MemberReport {
                id: slot.id,
                seed: slot.seed,
                status: slot.status,
                steps: slot.meta.steps_done,
                time: slot.meta.time,
                rollbacks: slot.rollbacks,
                last_error: slot.last_error,
                state: self.states[s].clone(),
                precip_accum: self.precip[s].clone(),
            });
            *slot = Slot::empty();
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// Run the whole queue to completion — step, retire, admit — and return
    /// every member's report, sorted by submission id.
    ///
    /// # Errors
    /// As [`Ensemble::step`] (batch-wide configuration failures only).
    pub fn run_all(&mut self) -> Result<Vec<MemberReport>, HealthError> {
        let mut out = self.collect();
        while !self.is_idle() {
            self.step()?;
            out.append(&mut self.collect());
        }
        out.sort_by_key(|r| r.id);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioRegistry;

    fn resting_spec() -> ScenarioSpec {
        ScenarioRegistry::builtin().get("resting").expect("builtin").clone()
    }

    #[test]
    fn queue_admits_up_to_lanes_and_backfills() {
        let mut ens =
            Ensemble::new(
                resting_spec(),
                EnsembleConfig { lanes: 2, ..EnsembleConfig::default() },
            );
        let ids: Vec<u64> = (0..3).map(|m| ens.submit(100 + m, 2)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(ens.pending(), 3);
        ens.step().unwrap();
        assert_eq!(ens.active(), 2, "two lanes admitted");
        assert_eq!(ens.pending(), 1, "third member waits");
        let reports = ens.run_all().unwrap();
        assert_eq!(reports.len(), 3);
        for (r, id) in reports.iter().zip(ids) {
            assert_eq!(r.id, id);
            assert_eq!(r.status, MemberStatus::Finished);
            assert_eq!(r.steps, 2);
        }
        assert!(ens.is_idle());
    }

    /// A batch-wide error leaves no member half-stepped: a hypervis plan
    /// that rejects the step (non-finite `nu`) makes `step` fail, and every
    /// running member keeps its pre-step state to the bit and its step
    /// count.
    #[test]
    fn batch_wide_error_restores_every_member() {
        let mut ens = Ensemble::new(resting_spec(), EnsembleConfig::default());
        for m in 0..3 {
            ens.submit(40 + m, 5);
        }
        ens.step().unwrap();
        ens.step().unwrap();
        let running: Vec<usize> = (0..ens.slots.len())
            .filter(|&s| ens.slots[s].status == MemberStatus::Running)
            .collect();
        assert_eq!(running.len(), 3);
        let before: Vec<(State, usize)> =
            running.iter().map(|&s| (ens.states[s].clone(), ens.slots[s].meta.steps_done)).collect();

        ens.dycore.cfg.hypervis.nu = f64::NAN;
        assert!(matches!(ens.step(), Err(HealthError::Hypervis(_))), "poisoned plan must fail the step");

        let bits = |st: &State| -> Vec<u64> {
            [&st.u, &st.v, &st.t, &st.dp3d, &st.qdp, &st.phis]
                .iter()
                .flat_map(|f| f.iter().map(|x| x.to_bits()))
                .collect()
        };
        for (&s, (state, steps)) in running.iter().zip(&before) {
            assert!(bits(&ens.states[s]) == bits(state), "member in lane {s} was left half-stepped");
            assert_eq!(ens.slots[s].meta.steps_done, *steps, "member in lane {s} step count moved");
        }
    }

    #[test]
    fn collect_is_empty_until_members_finish() {
        let mut ens = Ensemble::new(resting_spec(), EnsembleConfig::default());
        ens.submit(7, 3);
        ens.step().unwrap();
        assert!(ens.collect().is_empty(), "member still running");
        ens.step().unwrap();
        ens.step().unwrap();
        let reports = ens.collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].steps, 3);
        assert_eq!(reports[0].rollbacks, 0);
        assert!(ens.is_idle());
    }
}
