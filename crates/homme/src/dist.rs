//! Distributed `prim_run`: the serial [`Dycore`]'s stage loop on one rank's
//! patch of the grid, with the halo exchange as its one seam.
//!
//! Each rank owns a space-filling-curve patch of elements, its boundary
//! elements first ([`ExchangePlan`]). The rank's driver is a [`Dycore`] over
//! that patch (it derefs to it) whose DSS gather reads the sharers other
//! ranks own — *ghosts* — straight from their messages. Every DSS'd phase of
//! the step (each RK stage, the sponge, both Laplacians of each
//! hyperviscosity subcycle, each tracer chunk's three stages) is one
//! exchange, scheduled as Section 7.6 prescribes in `Redesigned` mode:
//!
//! 1. compute the **boundary** elements first;
//! 2. post one receive per peer and send ONE message per peer with the raw
//!    values of all the phase's fields at every level it shares;
//! 3. compute the **interior** elements, and gather them (they have no
//!    ghost sharers) *while the messages are in flight*;
//! 4. wait, and gather the boundary elements, reading every ghost in place
//!    from its receive buffer.
//!
//! The `Original` mode runs the same numerics without overlap or
//! aggregation: all compute first, then one staged message per (field,
//! level) per peer — the legacy `bndry_exchangev` message pattern the
//! paper's Figure 11 starts from — gathered by the same code.
//!
//! Every point sums its sharers in global element order whoever owns them,
//! so both modes, at any rank and thread count, commit the serial
//! [`Dycore`]'s bits — limiter, full hyperviscosity configuration (`nu_p`,
//! `nu_top`, sponge layers) and tracer chunks included. The rank steps on
//! the serial step's lean working set ([`crate::workspace::StepWorkspace`],
//! sized for its patch) and performs zero heap allocations after a warm-up
//! step (send buffers are pooled by the communicator; enforced by the
//! `dist_alloc` test). A rank runs one worker unless
//! [`Dycore::set_threads`] makes it a hybrid rank.

use crate::bndry::{CopyStats, ExchangeBuffers, ExchangeMode, ExchangePlan, Halo, RankHalo};
use crate::health::{HealthError, StepHealth};
use crate::prim::{Dycore, DycoreConfig};
use crate::state::{Dims, State};
use cubesphere::{CubedSphere, Partition};
use std::ops::{Deref, DerefMut};
use swmpi::{CommError, RankCtx};

/// Why a distributed step could not be committed. Both variants mean the
/// local state may be partially advanced: the resilient driver restores
/// the last checkpoint before retrying.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A halo exchange failed (peer timed out or a rank died).
    Comm(CommError),
    /// An in-step health guard tripped.
    Health(HealthError),
}

impl From<CommError> for DistError {
    fn from(e: CommError) -> Self {
        DistError::Comm(e)
    }
}

impl From<HealthError> for DistError {
    fn from(e: HealthError) -> Self {
        DistError::Health(e)
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Comm(e) => write!(f, "halo exchange failed: {e}"),
            DistError::Health(e) => write!(f, "health guard tripped: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// How many low bits of the message tag carry the in-epoch sequence
/// number; the bits above carry the rollback epoch, so one `purge_below`
/// with [`DistDycore::tag_floor`] discards every stale-epoch message.
pub const EPOCH_SHIFT: u32 = 48;

/// Per-rank distributed dynamics driver: the rank's [`Dycore`] (its
/// `cfg`, `health`, `dims`, remap cadence and degradation state are the
/// core's, reached through `Deref`) plus the exchange.
pub struct DistDycore {
    /// Exchange plan (owned elements, peers, the ghosted gather).
    pub plan: ExchangePlan,
    /// Exchange schedule.
    pub mode: ExchangeMode,
    /// Accumulated staging-copy / message statistics.
    pub stats: CopyStats,
    core: Dycore,
    ex: ExchangeBuffers,
    epoch: u64,
    tag: u64,
}

impl Deref for DistDycore {
    type Target = Dycore;

    fn deref(&self) -> &Dycore {
        &self.core
    }
}

impl DerefMut for DistDycore {
    fn deref_mut(&mut self) -> &mut Dycore {
        &mut self.core
    }
}

/// The exchange error of a stage that runs no health guard.
fn comm_only(r: Result<(), DistError>) -> Result<(), CommError> {
    r.map_err(|e| match e {
        DistError::Comm(c) => c,
        DistError::Health(h) => unreachable!("an unguarded stage tripped a guard: {h}"),
    })
}

impl DistDycore {
    /// Build the driver for `rank` of `part` on `grid`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &CubedSphere,
        part: &Partition,
        rank: usize,
        dims: Dims,
        ptop: f64,
        cfg: DycoreConfig,
        mode: ExchangeMode,
    ) -> Self {
        let plan = ExchangePlan::new(grid, part, rank);
        let core = Dycore::for_patch(grid, &plan.owned, plan.gather.clone(), dims, ptop, cfg);
        DistDycore {
            plan,
            mode,
            stats: CopyStats::default(),
            core,
            ex: ExchangeBuffers::new(),
            epoch: 0,
            tag: 0,
        }
    }

    /// The rank's core and the halo its stage loop exchanges through.
    fn on<'a>(&'a mut self, ctx: &'a mut RankCtx) -> (&'a mut Dycore, Halo<'a>) {
        let DistDycore { plan, mode, stats, core, ex, tag, .. } = self;
        let halo = RankHalo { ctx, plan, mode: *mode, bufs: ex, stats, tag };
        (core, Halo::Rank(halo))
    }

    /// Extract this rank's elements from a global state arena into a local
    /// arena (local index `li` = position in `plan.owned`).
    pub fn local_state(&self, global: &State) -> State {
        let mut local = State::zeros(self.dims, self.plan.owned.len());
        for (li, &e) in self.plan.owned.iter().enumerate() {
            let src = global.elem(e);
            let dst = local.elem_mut(li);
            dst.u.copy_from_slice(src.u);
            dst.v.copy_from_slice(src.v);
            dst.t.copy_from_slice(src.t);
            dst.dp3d.copy_from_slice(src.dp3d);
            dst.qdp.copy_from_slice(src.qdp);
            dst.phis.copy_from_slice(src.phis);
        }
        local
    }

    /// Advance the dynamics by one `dt` with the 5-stage Kinnmark–Gray RK
    /// ([`Dycore::dynamics_step`]): one exchange per stage.
    pub fn dynamics_step(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), CommError> {
        let (core, mut halo) = self.on(ctx);
        comm_only(core.dynamics_step_guarded(&mut halo, state, None))
    }

    /// Subcycled biharmonic hyperviscosity ([`Dycore::apply_hypervis`]):
    /// one exchange for the sponge and two per subcycle.
    pub fn apply_hypervis(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), DistError> {
        let subcycles = self.hypervis_subcycles();
        self.apply_hypervis_n(ctx, state, subcycles)
    }

    /// [`DistDycore::apply_hypervis`] with an explicit subcycle count
    /// ([`Dycore::apply_hypervis_n`]): a rejected plan surfaces as
    /// [`DistError::Health`] before any field or message is touched.
    pub fn apply_hypervis_n(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut State,
        subcycles: usize,
    ) -> Result<(), DistError> {
        let (core, mut halo) = self.on(ctx);
        core.apply_hypervis_on(&mut halo, state, subcycles)
    }

    /// 3-stage SSP-RK2 tracer advection ([`Dycore::euler_step_tracers`]):
    /// one exchange per (tracer chunk, stage).
    pub fn euler_step_tracers(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), CommError> {
        let (core, mut halo) = self.on(ctx);
        comm_only(core.euler_step_tracers_on(&mut halo, state))
    }

    /// One full distributed model step mirroring
    /// [`Dycore::step`](crate::prim::Dycore::step): dynamics RK +
    /// hyperviscosity + tracer advection + (every `rsplit` steps)
    /// vertical remap.
    pub fn step(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), DistError> {
        let (core, mut halo) = self.on(ctx);
        core.step_on(&mut halo, state, false).map(drop)
    }

    /// [`DistDycore::step`] with in-step health guards and the degradation
    /// policy, mirroring [`Dycore::step_checked`] decision-for-decision. The
    /// returned report is **rank-local**: the driver must merge it (one
    /// [`StepHealth::reduce_global`] verdict per step attempt, executed by
    /// every rank, failed or not) before acting on it, and a CFL breach
    /// arms nothing here — the driver calls [`Dycore::arm_degradation`] on
    /// every rank after the global verdict, so all ranks take identical
    /// degradation decisions.
    ///
    /// On `Err` the state may hold a partially advanced step; restore a
    /// checkpoint before continuing.
    /// A guard tripped on some ranks only stalls the others a full
    /// `CommConfig::recv_timeout` (60 s by default) before the verdict:
    /// the failing rank skips the step's remaining exchanges (DESIGN §5.3).
    pub fn step_checked(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<StepHealth, DistError> {
        let (core, mut halo) = self.on(ctx);
        let guarded = core.health.enabled;
        core.step_on(&mut halo, state, guarded)
    }

    /// Current rollback epoch (high bits of every message tag).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enter rollback epoch `epoch`: future exchanges tag their messages
    /// `(epoch << EPOCH_SHIFT) | seq` with the sequence restarting at 1,
    /// so a `Comm::purge_below(tag_floor())` after the epoch bump discards
    /// every in-flight message from the aborted attempt.
    pub fn set_epoch(&mut self, epoch: u64) {
        assert!(epoch >= self.epoch, "epochs only move forward");
        self.epoch = epoch;
        self.tag = epoch << EPOCH_SHIFT;
    }

    /// Smallest tag a current-epoch message can carry; anything below is
    /// stale and safe to purge.
    pub fn tag_floor(&self) -> u64 {
        self.epoch << EPOCH_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::hypervis::HypervisConfig;
    use crate::kernels::blocked::{KernelPath, QCHUNK};
    use crate::prim::{Dycore, DycoreConfig};
    use crate::state::State;
    use cubesphere::consts::P0;
    use cubesphere::NPTS;
    use swmpi::run_ranks;

    fn initial_state(dy: &Dycore) -> State {
        let mut st = dy.zero_state();
        let elems = dy.grid.elements.clone();
        let vert = dy.rhs.vert.clone();
        let nlev = dy.dims.nlev;
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let lon = el.metric[p].lon;
                let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
                for k in 0..nlev {
                    es.u[k * NPTS + p] = 12.0 * lat.cos();
                    es.v[k * NPTS + p] = 2.0 * lon.sin();
                    es.t[k * NPTS + p] = 280.0 + 5.0 * lat.cos() + k as f64;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
        st
    }

    fn seed_tracers(dy: &Dycore, st: &mut State) {
        let elems = dy.grid.elements.clone();
        let dims = dy.dims;
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                for q in 0..dims.qsize {
                    for k in 0..dims.nlev {
                        es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.004
                            * es.dp3d[k * NPTS + p]
                            * (1.0 + 0.3 * el.metric[p].lat.sin() + 0.1 * q as f64);
                    }
                }
            }
        }
    }

    /// The distributed dynamics step (both schedules) commits the serial
    /// Dycore's bits after two full RK steps — and the redesigned schedule
    /// sends exactly one message per peer per RK substep.
    #[test]
    fn distributed_dynamics_matches_serial() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 300.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        let initial = st.clone();
        serial.dynamics_step(&mut st);
        serial.dynamics_step(&mut st);

        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            let nranks = 5;
            let grid = CubedSphere::new(ne);
            let part = Partition::new(&grid, nranks);
            let results = run_ranks(nranks, |ctx| {
                let mut dist =
                    DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, mode);
                let mut local = dist.local_state(&initial);
                dist.dynamics_step(ctx, &mut local).expect("dynamics step");
                dist.dynamics_step(ctx, &mut local).expect("dynamics step");
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                let npeers = dist.plan.links.len() as u64;
                if mode == ExchangeMode::Redesigned {
                    assert_eq!(dist.stats.staged_bytes, 0, "redesign stages nothing");
                    // 2 steps x 5 RK substeps, ONE message per peer each.
                    assert_eq!(dist.stats.msgs_sent, 10 * npeers);
                    assert_eq!(ctx.comm.stats().sends, 10 * npeers);
                } else {
                    // Legacy: one message per peer per (field, level).
                    assert_eq!(dist.stats.msgs_sent, 10 * 4 * dims.nlev as u64 * npeers);
                }
                (dist.plan.owned.clone(), local)
            });
            for (owned, local) in results {
                assert_states_bitwise(&owned, &local, &st, dims);
            }
        }
    }

    /// Every prognostic of every owned element equals the serial state's to
    /// the last bit.
    fn assert_states_bitwise(owned: &[usize], local: &State, reference: &State, dims: Dims) {
        assert_eq!(local.qdp.len(), owned.len() * dims.tracer_len());
        for (li, &e) in owned.iter().enumerate() {
            let (es, rs) = (local.elem(li), reference.elem(e));
            for (name, x, y) in [
                ("u", es.u, rs.u),
                ("v", es.v, rs.v),
                ("t", es.t, rs.t),
                ("dp3d", es.dp3d, rs.dp3d),
                ("qdp", es.qdp, rs.qdp),
            ] {
                for (i, (a, b)) in x.iter().zip(y).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "elem {e} {name}[{i}]: {a:e} vs {b:e}");
                }
            }
        }
    }

    /// The complete distributed step — dynamics + hyperviscosity + tracer
    /// advection + vertical remap — commits the serial driver's bits.
    #[test]
    fn full_distributed_step_matches_serial() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 1 };
        let nu = 1.0e15;
        let hv = HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 0.0, sponge_layers: 0 };
        let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: false, rsplit: 1 };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        seed_tracers(&serial, &mut st);
        let initial = st.clone();
        serial.step(&mut st);

        let nranks = 4;
        let grid = CubedSphere::new(ne);
        let part = Partition::new(&grid, nranks);
        let results = run_ranks(nranks, |ctx| {
            let mut dist = DistDycore::new(
                &grid,
                &part,
                ctx.rank(),
                dims,
                2000.0,
                cfg,
                ExchangeMode::Redesigned,
            );
            let mut local = dist.local_state(&initial);
            dist.step(ctx, &mut local).expect("step");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (dist.plan.owned.clone(), local)
        });
        for (owned, local) in results {
            assert_states_bitwise(&owned, &local, &st, dims);
        }
    }

    /// Same, with the previously-broken configuration: limiter on and a
    /// full hyperviscosity config with `nu_p != nu`, `nu_top > 0` and
    /// active sponge layers. Both exchange schedules must commit the serial
    /// driver's bits.
    #[test]
    fn full_distributed_step_matches_serial_with_limiter_and_sponge() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 2 };
        let nu = 1.0e15;
        let hv = HypervisConfig {
            nu,
            nu_p: 1.7 * nu,
            subcycles: 3,
            nu_top: 2.5e5,
            sponge_layers: 2,
        };
        let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: true, rsplit: 1 };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        seed_tracers(&serial, &mut st);
        let initial = st.clone();
        serial.step(&mut st);
        serial.step(&mut st);

        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            let nranks = 4;
            let grid = CubedSphere::new(ne);
            let part = Partition::new(&grid, nranks);
            let results = run_ranks(nranks, |ctx| {
                let mut dist =
                    DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, mode);
                assert_eq!(
                    dist.hypervis_subcycles(),
                    3,
                    "distributed subcycles must match the serial formula"
                );
                let mut local = dist.local_state(&initial);
                dist.step(ctx, &mut local).expect("step");
                dist.step(ctx, &mut local).expect("step");
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                (dist.plan.owned.clone(), local)
            });
            for (owned, local) in results {
                assert_states_bitwise(&owned, &local, &st, dims);
            }
        }
    }

    /// Message accounting across the whole step: the redesigned schedule
    /// aggregates every exchange (RK substeps, sponge, hyperviscosity
    /// Laplacians, each tracer chunk's stages) into exactly one message per
    /// peer, sends each peer one raw value per shared (element, point) per
    /// field-level, and stages zero bytes. One tracer fits one chunk; six
    /// take two.
    #[test]
    fn redesigned_step_sends_one_message_per_peer_per_exchange() {
        for qsize in [1, 6] {
            let ne = 3;
            let dims = Dims { nlev: 4, qsize };
            let nu = 1.0e15;
            let hv = HypervisConfig { nu, nu_p: nu, subcycles: 2, nu_top: 2.5e5, sponge_layers: 2 };
            let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: true, rsplit: 1 };
            let grid = CubedSphere::new(ne);
            let nranks = 4;
            let part = Partition::new(&grid, nranks);
            let serial = Dycore::new(ne, dims, 2000.0, cfg);
            let mut init = initial_state(&serial);
            seed_tracers(&serial, &mut init);
            run_ranks(nranks, |ctx| {
                let mut dist = DistDycore::new(
                    &grid,
                    &part,
                    ctx.rank(),
                    dims,
                    2000.0,
                    cfg,
                    ExchangeMode::Redesigned,
                );
                let mut local = dist.local_state(&init);
                dist.step(ctx, &mut local).expect("step");
                // Exchanges per step: 5 RK substeps + 1 sponge + 2 Laplacian
                // applications per hypervis subcycle + 3 stages per tracer
                // chunk.
                let subcycles = dist.hypervis_subcycles();
                let chunks = qsize.div_ceil(QCHUNK);
                let n_exchanges = (5 + 1 + 2 * subcycles + 3 * chunks) as u64;
                let npeers = dist.plan.links.len() as u64;
                assert_eq!(dist.stats.msgs_sent, n_exchanges * npeers);
                assert_eq!(ctx.comm.stats().sends, n_exchanges * npeers);
                // Field-levels per step: 4 x nlev per RK stage and per
                // Laplacian, 3 x the sponge depth, qsize x nlev per stage.
                let nlev = dims.nlev;
                let field_levels =
                    5 * 4 * nlev + 3 * 2 + 2 * subcycles * 4 * nlev + 3 * qsize * nlev;
                let raw: usize = dist.plan.sends.iter().map(Vec::len).sum();
                assert_eq!(dist.stats.sent_bytes, (raw * field_levels * 8) as u64);
                assert_eq!(dist.stats.staged_bytes, 0);
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            });
        }
    }

    /// Limiter, sponge, `nu_p != nu`, tracers and a mid-run remap
    /// (`rsplit` 2) all on.
    fn full_cfg() -> (Dims, DycoreConfig) {
        let nu = 1.0e15;
        let hv = HypervisConfig {
            nu,
            nu_p: 1.7 * nu,
            subcycles: 3,
            nu_top: 2.5e5,
            sponge_layers: 2,
        };
        (
            Dims { nlev: 4, qsize: 2 },
            DycoreConfig { dt: 300.0, hypervis: hv, limiter: true, rsplit: 2 },
        )
    }

    /// Three steps on 4 ranks of an ne3 grid through `step_checked` with
    /// the health guards on (`checked`) or through the plain `step`.
    fn run_dist(checked: bool) -> Vec<(Vec<usize>, State)> {
        let ne = 3;
        let (dims, cfg) = full_cfg();
        let serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut init = initial_state(&serial);
        seed_tracers(&serial, &mut init);
        let nranks = 4;
        let grid = CubedSphere::new(ne);
        let part = Partition::new(&grid, nranks);
        run_ranks(nranks, |ctx| {
            let mut dist = DistDycore::new(
                &grid,
                &part,
                ctx.rank(),
                dims,
                2000.0,
                cfg,
                ExchangeMode::Redesigned,
            );
            if checked {
                dist.health = HealthConfig::on();
            }
            let mut local = dist.local_state(&init);
            for _ in 0..3 {
                if checked {
                    dist.step_checked(ctx, &mut local).expect("checked step");
                } else {
                    dist.step(ctx, &mut local).expect("step");
                }
            }
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            // One message per peer per pipeline stage, nothing staged.
            let n_exchanges = (5 + 1 + 2 * dist.hypervis_subcycles() + 3) as u64;
            let npeers = dist.plan.links.len() as u64;
            assert_eq!(dist.stats.msgs_sent, 3 * n_exchanges * npeers);
            assert_eq!(dist.stats.staged_bytes, 0);
            (dist.plan.owned.clone(), local)
        })
    }

    /// The guarded distributed loop (`step_checked` with health on) runs
    /// the same stages as the plain `step` and commits the same bits on
    /// every rank, with the same traffic.
    #[test]
    fn distributed_checked_step_matches_plain_step_bitwise() {
        let (dims, _) = full_cfg();
        let plain = run_dist(false);
        let checked = run_dist(true);
        for ((owned, p), (_, c)) in plain.iter().zip(&checked) {
            for (li, &e) in owned.iter().enumerate() {
                let ps = p.elem(li);
                let cs = c.elem(li);
                for i in 0..dims.field_len() {
                    assert_eq!(ps.u[i].to_bits(), cs.u[i].to_bits(), "elem {e} u[{i}]");
                    assert_eq!(ps.v[i].to_bits(), cs.v[i].to_bits(), "elem {e} v[{i}]");
                    assert_eq!(ps.t[i].to_bits(), cs.t[i].to_bits(), "elem {e} t[{i}]");
                    assert_eq!(ps.dp3d[i].to_bits(), cs.dp3d[i].to_bits(), "elem {e} dp3d[{i}]");
                }
                for i in 0..dims.tracer_len() {
                    assert_eq!(ps.qdp[i].to_bits(), cs.qdp[i].to_bits(), "elem {e} qdp[{i}]");
                }
            }
        }
    }

    /// The scalar kernel set picks element kernels inside the one stage
    /// loop, so it runs behind a halo like the blocked set: 2 and 5 mailbox
    /// ranks stepping with `KernelPath::Scalar` (hyperviscosity, sponge,
    /// tracers, the limiter and a mid-run remap on) commit the serial
    /// blocked `Dycore`'s bits.
    #[test]
    fn scalar_kernel_set_on_ranks_matches_serial_blocked() {
        let ne = 3;
        let (dims, cfg) = full_cfg();
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        assert_eq!(serial.kernels, KernelPath::Blocked);
        let mut st = initial_state(&serial);
        seed_tracers(&serial, &mut st);
        let init = st.clone();
        for _ in 0..3 {
            serial.step(&mut st);
        }
        let grid = CubedSphere::new(ne);
        for nranks in [2usize, 5] {
            let part = Partition::new(&grid, nranks);
            let results = run_ranks(nranks, |ctx| {
                let mode = ExchangeMode::Redesigned;
                let mut dist = DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, mode);
                dist.core.kernels = KernelPath::Scalar;
                let mut local = dist.local_state(&init);
                for _ in 0..3 {
                    dist.step(ctx, &mut local).expect("step");
                }
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                (dist.plan.owned.clone(), local)
            });
            for (owned, local) in results {
                assert_states_bitwise(&owned, &local, &st, dims);
            }
        }
    }

    /// Only boundary elements exchange anything: an interior element has
    /// no ghost sharer to wait for and no point a peer reads, which is what
    /// lets the interior be computed and gathered while messages fly.
    #[test]
    fn shared_points_live_only_on_boundary_elements() {
        let grid = CubedSphere::new(4);
        for nranks in [3usize, 6, 10] {
            let part = Partition::new(&grid, nranks);
            for rank in 0..nranks {
                let plan = ExchangePlan::new(&grid, &part, rank);
                let nb = plan.boundary.len();
                for &li in &plan.interior {
                    assert!(li >= nb, "interior element {li} inside the boundary range");
                    assert!(!plan.gather.is_ghosted(li), "interior element {li} has a ghost sharer");
                }
                for &c in plan.sends.iter().flatten() {
                    assert!((c as usize) / NPTS < nb, "a peer reads interior point {c}");
                }
            }
        }
    }
}
