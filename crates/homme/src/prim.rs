//! `prim_run`: the dynamics driver.
//!
//! One dynamics step is the paper's kernel pipeline end to end:
//! a 5-stage Kinnmark–Gray second-order Runge–Kutta loop over
//! `compute_and_apply_rhs` (each stage followed by DSS), subcycled
//! hyperviscosity, the 3-stage SSP-RK2 `euler_step` for tracers, and
//! `vertical_remap` back to reference levels.
//!
//! The driver runs every per-element loop across the host cores through
//! the persistent [`ElemScheduler`] — including the DSS of the RK stages,
//! the hyperviscosity sweeps and the tracer stages, which is a per-element
//! canonical-order gather ([`DssGather`]) rather than a serial scatter, so
//! no phase has a serial section and results stay bitwise independent of
//! thread count. All temporaries live in the [`StepWorkspace`] owned by
//! the dycore — `step` allocates nothing on the heap (see the
//! `alloc_regression` test).
//!
//! [`KernelPath::Scalar`] is the step's one equivalence oracle: per-field
//! scalar element kernels and the serial [`Dss`] scatter walks, which the
//! default blocked step matches bitwise. Both hit the trajectory hashes
//! recorded from the original per-element-`Vec` seed driver and pinned in
//! `tests/state_arena.rs`.

use crate::bndry::Halo;
use crate::deriv::{build_ops, ElemOps};
use crate::dist::DistError;
use crate::dss::{no_ghosts, Dss, DssGather};
use crate::euler::{
    euler_stage_flat_blocked, euler_substep_flat, limit_tracer_arena, limit_tracer_element,
};
use crate::health::{
    commit_scan, scan_stage, DegradePolicy, HealthConfig, HealthError, StepHealth, TRACER_STAGE,
};
use crate::hypervis::{
    biharmonic_flat, laplace_flat, laplacian_lambda_max, min_gll_gap, vlaplace_flat,
    ElemHypervisPlan, HypervisConfig, HypervisStability,
};
use crate::kernels::blocked::{
    build_blocked_ops, element_rhs_apply_blocked, hypervis_pass_element_blocked,
    hypervis_pass_element_members_blocked,
    hypervis_pass_levels_blocked, hypervis_pass_levels_members_blocked,
    sponge_pass_element_blocked, BlockedOps, KernelPath, StageCombine,
};
use crate::kernels::blocked::{remap_element_planned, QCHUNK};
use crate::kernels::member_lanes::{
    element_rhs_apply_member_lanes, gather_member_tile, hypervis_pass_levels_member_lanes,
    hypervis_pass_member_lanes, scatter_member_tile, sponge_pass_member_lanes, MemberKernelPath,
};
use crate::remap::{remap_element_scalar, RemapError};
use crate::rhs::{element_rhs_raw, Rhs};
use crate::sched::{Arena, ElemScheduler, PerWorker};
use crate::state::{Dims, State};
use crate::vert::VertCoord;
use crate::workspace::{qchunk_width, DynFields, LaneFields, MemberLanes, StepWorkspace, WorkerScratch};
use cubesphere::{CubedSphere, NPTS};
use std::ops::Range;
use std::sync::Mutex;
use sw26010::V4F64;
use swmpi::CommError;

/// Kinnmark–Gray 5-stage RK coefficients: stage `i` computes
/// `u_i = u_0 + c_i dt RHS(u_{i-1})`.
pub const KG5_COEFFS: [f64; 5] = [1.0 / 5.0, 1.0 / 5.0, 1.0 / 3.0, 1.0 / 2.0, 1.0];

/// Dycore configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DycoreConfig {
    /// Dynamics time step, s.
    pub dt: f64,
    /// Hyperviscosity settings.
    pub hypervis: HypervisConfig,
    /// Apply the sign-preserving tracer limiter.
    pub limiter: bool,
    /// Apply vertical remap every `rsplit` dynamics steps.
    pub rsplit: usize,
}

impl DycoreConfig {
    /// Reasonable defaults for resolution `ne`: dt scaled from the CAM-SE
    /// rule of thumb (ne30 -> 300 s dynamics step).
    pub fn for_ne(ne: usize) -> Self {
        DycoreConfig {
            dt: 300.0 * 30.0 / ne as f64,
            hypervis: HypervisConfig::for_ne(ne),
            limiter: true,
            rsplit: 1,
        }
    }
}

/// The assembled dynamical core: the whole grid on one rank, or — as the
/// core of a [`crate::dist::DistDycore`] — one rank's patch of it. Both run
/// the same stage loop; only where a DSS finds off-rank sharers differs
/// (the stage loop's `Halo`).
pub struct Dycore {
    /// The horizontal grid. A rank's core holds its patch: the owned
    /// elements in local order (neighbour lists keep global ids).
    pub grid: CubedSphere,
    /// Per-element operator tables.
    pub ops: Vec<ElemOps>,
    /// The scalar oracle's serial scatter DSS (of the patch alone on a
    /// rank's core, which never runs the scalar oracle).
    pub dss: Dss,
    /// RHS evaluator (owns the vertical coordinate).
    pub rhs: Rhs,
    /// Dimensions.
    pub dims: Dims,
    /// Configuration.
    pub cfg: DycoreConfig,
    /// Element scheduler (persistent worker pool).
    pub sched: ElemScheduler,
    /// In-step health guard configuration ([`Dycore::step_checked`]).
    pub health: HealthConfig,
    /// What a CFL breach does to the following steps.
    pub degrade: DegradePolicy,
    /// Which kernel implementation the step pipeline dispatches to
    /// (blocked by default; the scalar path is the parity oracle).
    pub kernels: KernelPath,
    /// Which member-batched kernel family the ensemble drivers use when
    /// several members are resident: the lane-transposed tiles (default —
    /// `V4F64` lanes are members, coefficients splat) or the pair-wise
    /// chunked row kernels kept as the A/B baseline. Single-member calls
    /// always take the standalone path; the scalar [`KernelPath`] ignores
    /// this knob entirely.
    pub member_kernels: MemberKernelPath,
    gather: DssGather,
    bops: Vec<BlockedOps>,
    ws: StepWorkspace,
    steps_since_remap: usize,
    degrade_pending: usize,
    char_dx: f64,
    /// Largest eigenvalue of the grid's assembled Laplacian, measured once
    /// at construction ([`laplacian_lambda_max`]).
    lambda_max: f64,
}

/// Default worker count: `SWCAM_THREADS` if set, else available
/// parallelism capped at 8 (tests build many dycores; the cap keeps the
/// idle-thread count sane while the cap can be lifted per dycore with
/// [`Dycore::set_threads`]).
fn default_threads() -> usize {
    std::env::var("SWCAM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
        })
        .max(1)
}

impl Dycore {
    /// Build a dycore on an `ne` cubed sphere (Earth radius and rotation).
    pub fn new(ne: usize, dims: Dims, ptop: f64, cfg: DycoreConfig) -> Self {
        Self::from_grid(CubedSphere::new(ne), dims, ptop, cfg)
    }

    /// Build a dycore on an arbitrary (e.g. reduced-radius "small planet")
    /// grid.
    pub fn from_grid(grid: CubedSphere, dims: Dims, ptop: f64, cfg: DycoreConfig) -> Self {
        let dss = Dss::new(&grid);
        let gather = DssGather::new(&dss);
        let global = (min_gll_gap(&grid.elements[0]), laplacian_lambda_max(&grid));
        Self::assemble(grid, dss, gather, dims, ptop, cfg, default_threads(), global)
    }

    /// The core of one rank's distributed driver: a dycore over the patch
    /// of `grid` made of the `owned` elements (in that local order), whose
    /// DSS is `gather` (with ghost sharers into the peers' messages). It
    /// runs one worker unless [`Dycore::set_threads`] says otherwise. The
    /// CFL spacing and `lambda_max` come from the whole grid, exactly as
    /// the serial driver computes them, so every rank judges stability and
    /// runs the subcycle count (it is the exchange schedule) identically
    /// with no message exchanged to agree on it.
    pub(crate) fn for_patch(
        grid: &CubedSphere,
        owned: &[usize],
        gather: DssGather,
        dims: Dims,
        ptop: f64,
        cfg: DycoreConfig,
    ) -> Self {
        let patch = CubedSphere {
            ne: grid.ne,
            basis: grid.basis.clone(),
            elements: owned.iter().map(|&e| grid.elements[e].clone()).collect(),
            nglobal: grid.nglobal,
            inv_mass: grid.inv_mass.clone(),
            multiplicity: grid.multiplicity.clone(),
            edge_neighbors: owned.iter().map(|&e| grid.edge_neighbors[e]).collect(),
            all_neighbors: owned.iter().map(|&e| grid.all_neighbors[e].clone()).collect(),
        };
        let dss = Dss::new(&patch);
        let global = (min_gll_gap(&grid.elements[0]), laplacian_lambda_max(grid));
        let mut core = Self::assemble(patch, dss, gather, dims, ptop, cfg, 1, global);
        core.ws.drop_oracle_buffers();
        core
    }

    /// `(char_dx, lambda_max)` are the whole grid's CFL spacing (the
    /// smallest GLL gap on a representative element) and assembled
    /// Laplacian eigenvalue bound.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        grid: CubedSphere,
        dss: Dss,
        gather: DssGather,
        dims: Dims,
        ptop: f64,
        cfg: DycoreConfig,
        threads: usize,
        (char_dx, lambda_max): (f64, f64),
    ) -> Self {
        let ops = build_ops(&grid);
        let bops = build_blocked_ops(&ops);
        let vert = VertCoord::standard(dims.nlev, ptop);
        let rhs = Rhs::new(vert, dims);
        let sched = ElemScheduler::new(threads);
        let ws = StepWorkspace::new(dims, grid.nelem(), cfg.hypervis.sponge_layers, sched.nthreads());
        Dycore {
            grid,
            ops,
            dss,
            rhs,
            dims,
            cfg,
            sched,
            health: HealthConfig::default(),
            degrade: DegradePolicy::default(),
            kernels: KernelPath::default(),
            member_kernels: MemberKernelPath::default(),
            gather,
            bops,
            ws,
            steps_since_remap: 0,
            degrade_pending: 0,
            char_dx,
            lambda_max,
        }
    }

    /// Replace the scheduler with an `n`-worker pool (and per-worker
    /// scratch to match). `n = 1` forces serial execution.
    pub fn set_threads(&mut self, n: usize) {
        self.sched = ElemScheduler::new(n.max(1));
        let dims = self.dims;
        self.ws.workers = PerWorker::new(self.sched.nthreads(), || WorkerScratch::new(dims));
    }

    /// Fresh zero state sized for this dycore.
    pub fn zero_state(&self) -> State {
        State::zeros(self.dims, self.grid.nelem())
    }

    /// Advance the dynamics (u, v, T, dp3d) by one dt with the 5-stage RK.
    ///
    /// Stage `i` is `u_i = u_0 + c_i dt RHS(u_{i-1})`, then DSS. Both kernel
    /// paths read `u_0` from the state, which no stage writes before the
    /// last. The blocked path takes no copy of the state: each stage is an
    /// RHS sweep from `u_{i-1}` (the state for `i = 1`, else
    /// `StepWorkspace::stage`) into the raw arenas `hyp`, then a gather
    /// sweep that reads only `hyp` and so can write `stage` in place — or,
    /// for `i = 5`, the state's dynamics fields. Two dynamics arenas are
    /// touched besides the state. The scalar oracle keeps its
    /// `stage` / `next` ping-pong and copies `u_5` into the state.
    pub fn dynamics_step(&mut self, state: &mut State) {
        serial(self.dynamics_step_guarded(&mut Halo::Serial, state, None))
            .expect("an unguarded RK stage cannot fail");
    }

    /// Hyperviscosity subcycles a step of the current `cfg.dt` runs:
    /// [`HypervisConfig::subcycles_for`] the grid's measured `lambda_max`.
    pub fn hypervis_subcycles(&self) -> usize {
        self.cfg.hypervis.subcycles_for(self.lambda_max, self.cfg.dt)
    }

    /// The measured `lambda_max`, the damping number and the count they
    /// give — what a run prints once so the count explains itself.
    pub fn hypervis_stability(&self) -> HypervisStability {
        self.cfg.hypervis.stability(self.lambda_max, self.cfg.dt)
    }

    /// Apply subcycled biharmonic hyperviscosity to u, v, T, dp3d.
    ///
    /// # Errors
    /// [`HealthError::Hypervis`] when the per-step plan rejects a corrupt
    /// element metric or a non-finite step coefficient; the state is
    /// untouched on `Err` (the plan is built before any field is written).
    pub fn apply_hypervis(&mut self, state: &mut State) -> Result<(), HealthError> {
        let subcycles = self.hypervis_subcycles();
        self.apply_hypervis_n(state, subcycles)
    }

    /// [`Dycore::apply_hypervis`] with an explicit subcycle count (the
    /// degradation policy adds extra subcycles on top of the derived count).
    /// A count that leaves the grid's stiffest mode past the forward-Euler
    /// limit is rejected as `HypervisError::UnstableSubcycles` (inside
    /// [`HealthError::Hypervis`]) with the state untouched, like a corrupt
    /// element.
    ///
    /// Both kernel paths vet the grid and hoist the subcycle/sponge
    /// coefficient products through [`ElemHypervisPlan`] once per step, so
    /// a corrupt element is rejected identically either way. The blocked
    /// path then runs each subcycle as three element-parallel sweeps with
    /// no serial code between them: the fused first Laplacian of all four
    /// fields (state → `hyp`), the DSS gather of `hyp` with the second
    /// Laplacian on the assembled window (→ `stage`, idle outside RK), and
    /// the DSS gather of `stage` with the forward-Euler damping folded in
    /// (→ state) — see [`DssGather::gather_elem`]. The scalar path keeps
    /// the seed's copy +
    /// per-field Laplacian + serial scatter DSS + separate apply structure
    /// as the bitwise oracle.
    pub fn apply_hypervis_n(
        &mut self,
        state: &mut State,
        subcycles: usize,
    ) -> Result<(), HealthError> {
        serial(self.apply_hypervis_on(&mut Halo::Serial, state, subcycles))
    }

    /// [`Dycore::apply_hypervis_n`] with its DSS gathers' off-rank sharers
    /// behind `halo`. Each gather sweep is one exchange: the arena it reads
    /// is sent once its boundary elements are computed.
    pub(crate) fn apply_hypervis_on(
        &mut self,
        halo: &mut Halo,
        state: &mut State,
        subcycles: usize,
    ) -> Result<(), DistError> {
        let hv = self.cfg.hypervis;
        if hv.nu == 0.0 && hv.nu_p == 0.0 {
            return Ok(());
        }
        let lambda_max = self.lambda_max;
        let Dycore { ops, dss, dims, cfg, sched, ws, kernels, bops, gather, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        ws.hv_plan.build(&hv, cfg.dt, subcycles, lambda_max, nlev, ops).map_err(HealthError::from)?;
        if let KernelPath::Blocked = kernels {
            let StepWorkspace { hv_plan: plan, hyp, stage, sponge_u, sponge_v, sponge_t, .. } = ws;
            let nelem = ops.len();
            // Top-of-model sponge: ordinary Laplacian damping on the top
            // layers (sign +nu_top lap, i.e. diffusion). The fused element
            // pass reads the state directly (no staging copy) and the
            // damping increment rides the DSS gather of all three fields.
            let (bnd, int) = halo.split(nelem);
            if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
                let ks = plan.ks;
                let sl = ks * NPTS;
                let (su, sv, st): (&[f64], &[f64], &[f64]) = (&state.u, &state.v, &state.t);
                let pass = |out: [&mut [f64]; 3], elems: Range<usize>| {
                    let out = out.map(|o| Arena::new(o, sl, sl));
                    sched.run_windows(elems, out, |e, [ou, ov, ot]| {
                        sponge_pass_element_blocked(
                            &bops[e],
                            ks,
                            &su[e * fl..e * fl + sl],
                            &sv[e * fl..e * fl + sl],
                            &st[e * fl..e * fl + sl],
                            ou,
                            ov,
                            ot,
                        );
                    });
                };
                pass([sponge_u, sponge_v, sponge_t], bnd.clone());
                halo.send([&sponge_u[..], &sponge_v[..], &sponge_t[..]], ks, sl);
                pass([sponge_u, sponge_v, sponge_t], int.clone());
                halo_sweep(
                    halo,
                    sched,
                    gather,
                    ks,
                    [&sponge_u[..], &sponge_v[..], &sponge_t[..]],
                    sl,
                    Some([&plan.sponge[..]; 3]),
                    [&mut state.u[..], &mut state.v[..], &mut state.t[..]],
                    fl,
                    |_, _| {},
                )?;
            }
            for _ in 0..subcycles {
                // First Laplacian of (u, v, T, dp3d): one fused coefficient
                // walk per element, straight from the state into the hyp
                // arenas (the per-subcycle state copy is gone).
                let [su, sv, st, sdp] = state.dyn_fields();
                let pass = |hyp: &mut DynFields, elems: Range<usize>| {
                    let out = hyp.fields_mut().map(|o| Arena::new(o, fl, fl));
                    sched.run_windows(elems, out, |e, [ou, ov, ot, odp]| {
                        let r = e * fl..(e + 1) * fl;
                        hypervis_pass_element_blocked(
                            &bops[e],
                            nlev,
                            &su[r.clone()],
                            &sv[r.clone()],
                            &st[r.clone()],
                            &sdp[r],
                            ou,
                            ov,
                            ot,
                            odp,
                        );
                    });
                };
                pass(hyp, bnd.clone());
                halo.send(hyp.fields(), nlev, fl);
                pass(hyp, int.clone());
                // DSS of the first Laplacians, gathered per element into
                // the (idle outside RK) `stage` arenas, with the second
                // Laplacian (del^4 = lap(lap)) run on the element's freshly
                // assembled window in the same job.
                halo_sweep(
                    halo,
                    sched,
                    gather,
                    nlev,
                    hyp.fields(),
                    fl,
                    None,
                    stage.fields_mut(),
                    fl,
                    |e, [u, v, t, dp]| hypervis_pass_levels_blocked(&bops[e], nlev, u, v, t, dp),
                )?;
                // Final DSS fused with the forward-Euler apply: the plan's
                // negated `dt_sub * nu` coefficients turn `x -= c * lap`
                // into the gather's `x += (-c) * lap` bitwise-identically,
                // and all four fields ride one walk of the gather plan.
                halo.send(stage.fields(), nlev, fl);
                halo_sweep(
                    halo,
                    sched,
                    gather,
                    nlev,
                    stage.fields(),
                    fl,
                    Some(plan.damp()),
                    state.dyn_fields_mut(),
                    fl,
                    |_, _| {},
                )?;
            }
            return Ok(());
        }
        assert!(halo.is_serial(), "the scalar oracle runs on one rank only");
        // Top-of-model sponge: ordinary Laplacian damping on the top
        // layers (sign +nu_top lap, i.e. diffusion).
        if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
            let ks = hv.sponge_layers.min(nlev);
            let sl = ks * NPTS;
            for e in 0..ops.len() {
                ws.sponge_u[e * sl..(e + 1) * sl].copy_from_slice(&state.u[e * fl..e * fl + sl]);
                ws.sponge_v[e * sl..(e + 1) * sl].copy_from_slice(&state.v[e * fl..e * fl + sl]);
                ws.sponge_t[e * sl..(e + 1) * sl].copy_from_slice(&state.t[e * fl..e * fl + sl]);
            }
            vlaplace_flat(ops, dss, sched, ks, &mut ws.sponge_u, &mut ws.sponge_v);
            laplace_flat(ops, dss, sched, ks, &mut ws.sponge_t);
            for e in 0..ops.len() {
                for (k_rel, damp) in (0..ks).map(|k| (k, 1.0 / (1 << k) as f64)) {
                    for p in 0..NPTS {
                        let i = k_rel * NPTS + p;
                        let si = e * sl + i;
                        let gi = e * fl + i;
                        state.u[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_u[si];
                        state.v[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_v[si];
                        state.t[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_t[si];
                    }
                }
            }
        }
        let dt_sub = cfg.dt / subcycles as f64;
        for _ in 0..subcycles {
            ws.hyp.copy_from_state(state);
            // del^4 via two Laplacians with DSS (vector Laplacian for wind).
            vlaplace_flat(ops, dss, sched, nlev, &mut ws.hyp.u, &mut ws.hyp.v);
            vlaplace_flat(ops, dss, sched, nlev, &mut ws.hyp.u, &mut ws.hyp.v);
            biharmonic_flat(ops, dss, sched, nlev, &mut ws.hyp.t);
            biharmonic_flat(ops, dss, sched, nlev, &mut ws.hyp.dp3d);
            for (x, l) in state.u.iter_mut().zip(&ws.hyp.u) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.v.iter_mut().zip(&ws.hyp.v) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.t.iter_mut().zip(&ws.hyp.t) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.dp3d.iter_mut().zip(&ws.hyp.dp3d) {
                *x -= dt_sub * hv.nu_p * l;
            }
        }
        Ok(())
    }

    /// Member-batched hyperviscosity: apply the subcycled biharmonic
    /// operator to the listed `members` of `states` with the step plan
    /// built **once** and every coefficient walk shared across members
    /// (ROADMAP item 4's "lane dimension = member"). With
    /// [`MemberKernelPath::Lanes`] (the default), each *full* group of four
    /// members runs on lane-transposed tiles — one `V4F64` per grid value
    /// whose lanes are members, coefficients splat — so the per-output
    /// working set never spills regardless of batch width; the ragged tail
    /// (N mod 4 members) rides the width-proportional chunk kernels, since
    /// a partial lane group pays the whole 4-wide arithmetic.
    /// [`MemberKernelPath::Chunked`] keeps the pair-wise row kernels for
    /// everything as the A/B baseline (wider row chunks spill registers —
    /// see the chunk-width comment in the body).
    ///
    /// `members` must be strictly increasing indices into `states`, at most
    /// `ens.lanes()` of them. Member `m`'s result is bitwise identical to
    /// [`Dycore::apply_hypervis_n`] on member `m` alone: the batched kernels
    /// keep each member's accumulation order unchanged, the shared
    /// [`ElemHypervisPlan`] depends only on the grid and step configuration
    /// (never on member state), and every DSS is the standalone path's
    /// gather kernel, per member or per lane. On the scalar kernel path
    /// this falls back to the per-member oracle loop.
    ///
    /// # Errors
    /// [`HealthError::Hypervis`] when the shared plan rejects a corrupt
    /// element metric or non-finite coefficient; no member is touched on
    /// `Err` (the plan is built before any field is written).
    pub fn apply_hypervis_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut crate::workspace::EnsembleWorkspace,
        subcycles: usize,
    ) -> Result<(), HealthError> {
        let hv = self.cfg.hypervis;
        if members.is_empty() || (hv.nu == 0.0 && hv.nu_p == 0.0) {
            return Ok(());
        }
        assert!(members.len() <= ens.lanes(), "more members than ensemble lanes");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]) && *members.last().unwrap() < states.len(),
            "members must be strictly increasing indices into states"
        );
        if let KernelPath::Scalar = self.kernels {
            for &m in members {
                self.apply_hypervis_n(&mut states[m], subcycles)?;
            }
            return Ok(());
        }
        let use_lanes =
            matches!(self.member_kernels, MemberKernelPath::Lanes) && members.len() >= 4;
        let lambda_max = self.lambda_max;
        let Dycore { ops, dims, cfg, sched, ws, bops, gather, .. } = self;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        ws.hv_plan.build(&hv, cfg.dt, subcycles, lambda_max, nlev, ops)?;
        let nelem = ops.len();
        let mut done = 0;
        if use_lanes {
            // Lane-transposed path: sweep members in *full* groups of four,
            // each sweep gathering its members into the shared lane tiles.
            // A partial group would still pay the full 4-wide vector
            // arithmetic (the dead lanes compute too — a 2-member lane
            // sweep costs as much as a 4-member one), so the ragged tail
            // falls through to the width-proportional chunk kernels below;
            // the duplicated-dead-lane tail path stays available (and
            // pinned by the kernel tests) for targets where a lane sweep
            // is cheaper than a chunk pass at any width.
            while members.len() - done >= 4 {
                let chunk = pick(states, &members[done..done + 4]);
                hypervis_members_lanes::<4>(
                    sched, gather, bops, &ws.hv_plan, &hv, nlev, fl, nelem, &mut ens.tiles, chunk,
                    subcycles,
                );
                done += 4;
            }
            if done == members.len() {
                return Ok(());
            }
        }
        while done < members.len() {
            let left = members.len() - done;
            // Chunk width is capped at 2: the M=4 variant keeps four members'
            // [[V4F64; NP]; M] working sets live through each fused Laplacian
            // pass, which spills out of the 16 ymm registers and runs ~2x
            // slower *per member* than M=2 on this target (measured on the
            // ne4 aquaplanet: 118 ms/member at M=4 vs 55 ms at M=2 vs 60 ms
            // serial). M=2 shares the coefficient walk without spilling.
            let take = if left >= 2 { 2 } else { 1 };
            let idx = &members[done..done + take];
            let lanes = &mut ens.lanes[done..];
            let sponge = (&mut ws.sponge_u[..], &mut ws.sponge_v[..], &mut ws.sponge_t[..]);
            match take {
                2 => hypervis_members_chunk::<2>(
                    sched, gather, bops, &ws.hv_plan, &hv, nlev, fl, nelem, sponge, pick(states, idx),
                    lanes.first_chunk_mut().unwrap().each_mut(), [&mut ws.next, &mut ws.stage], subcycles,
                ),
                _ => hypervis_members_chunk::<1>(
                    sched, gather, bops, &ws.hv_plan, &hv, nlev, fl, nelem, sponge, pick(states, idx),
                    [&mut lanes[0]], [&mut ws.next], subcycles,
                ),
            }
            done += take;
        }
        Ok(())
    }

    /// Member-batched dynamics: advance the listed `members` of `states`
    /// by one dt of the 5-stage RK, batching up to four members per sweep
    /// through the lane-transposed RHS kernel
    /// ([`element_rhs_apply_member_lanes`]) so one coefficient walk and one
    /// DSS gather walk serve the whole sweep. Member `m`'s result is
    /// bitwise identical to [`Dycore::dynamics_step`] on member `m` alone:
    /// lane `m` replays the blocked kernel's exact per-member scalar
    /// sequence and the lane DSS keeps the canonical accumulation order
    /// per lane. Falls back to the per-member step on the scalar kernel
    /// path, under [`MemberKernelPath::Chunked`], or with fewer than two
    /// members.
    pub fn dynamics_step_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut crate::workspace::EnsembleWorkspace,
    ) {
        if members.is_empty() {
            return;
        }
        assert!(
            members.windows(2).all(|w| w[0] < w[1]) && *members.last().unwrap() < states.len(),
            "members must be strictly increasing indices into states"
        );
        let use_lanes = matches!(self.kernels, KernelPath::Blocked)
            && matches!(self.member_kernels, MemberKernelPath::Lanes)
            && members.len() >= 4;
        let mut done = 0;
        if use_lanes {
            let dt = self.cfg.dt;
            let Dycore { rhs, dims, sched, ws, bops, gather, .. } = self;
            let nlev = dims.nlev;
            let fl = dims.field_len();
            let ptop = rhs.vert.ptop();
            let nelem = bops.len();
            // Full groups of four only — a partial lane group pays the whole
            // 4-wide arithmetic, so the ragged tail steps member-serially
            // below instead.
            while members.len() - done >= 4 {
                let chunk = pick(states, &members[done..done + 4]);
                dynamics_members_lanes::<4>(
                    sched,
                    gather,
                    bops,
                    &mut ws.workers,
                    nlev,
                    fl,
                    nelem,
                    ptop,
                    dt,
                    &mut ens.tiles,
                    chunk,
                );
                done += 4;
            }
        }
        for &m in &members[done..] {
            self.dynamics_step(&mut states[m]);
        }
    }

    /// Advance tracers by one dt with 3-stage SSP-RK2 (`euler_step`).
    ///
    /// Both kernel paths read the step-input `q0` straight from
    /// `state.qdp`: nothing writes a tracer's `q0` before its last stage's
    /// output lands there, so no copy of it is taken.
    ///
    /// The blocked path runs all three stages of one [`QCHUNK`]-tracer chunk
    /// before it starts the next chunk, two element-parallel sweeps per
    /// stage: the fused stage kernel writes the chunk's raw (pre-DSS) output
    /// into the one-chunk-wide `qchunk`, and one DSS gather sweep assembles
    /// it into the stage's destination, with the limiter as the sweep's
    /// epilogue on the freshly assembled element window. For chunk `qs`,
    /// stage 1 goes `state.qdp[qs] → qchunk ⇒ qstage`, stage 2 `qstage →
    /// qchunk ⇒ qstage` in place, stage 3 `qstage → qchunk ⇒ state.qdp[qs]`.
    /// Stage 3's gather writes that window only after the chunk's kernel
    /// sweep has finished, and later chunks read only their own tracers.
    /// Since `u`, `v` and `dp3d` are fixed for the whole tracer step and
    /// the kernel, gather and limiter each work per (tracer, level), every
    /// value gets the same operations in the same order as stage-major
    /// order would give it. One full tracer arena (the state's) and two
    /// chunk-wide buffers are touched, none of them serially. The scalar
    /// path keeps the seed's serial
    /// scatter DSS + arena-wide limiter as the bitwise oracle; it writes
    /// stages 1 and 2 into `q2` and substeps through `qtmp`.
    pub fn euler_step_tracers(&mut self, state: &mut State) {
        serial(self.euler_step_tracers_on(&mut Halo::Serial, state))
            .expect("a one-rank tracer step cannot fail");
    }

    /// [`Dycore::euler_step_tracers`] with its DSS gathers' off-rank sharers
    /// behind `halo`: one exchange per (tracer chunk, stage).
    pub(crate) fn euler_step_tracers_on(
        &mut self,
        halo: &mut Halo,
        state: &mut State,
    ) -> Result<(), DistError> {
        if self.dims.qsize == 0 {
            return Ok(());
        }
        let dt = self.cfg.dt;
        let Dycore { ops, dss, dims, cfg, sched, ws, kernels, bops, gather, .. } = self;
        let dims = *dims;
        let limiter = cfg.limiter;
        let StepWorkspace { qchunk, qstage, q2, qtmp, .. } = ws;

        match kernels {
            KernelPath::Blocked => {
                let State { u, v, dp3d, qdp, .. } = state;
                let tl = dims.tracer_len();
                let lw = dims.nlev * NPTS;
                let cw = qchunk_width(dims) * lw;
                let limit = |e: usize, [w]: [&mut [f64]; 1]| {
                    if limiter {
                        limit_tracer_element(&ops[e], w);
                    }
                };
                let (bnd, int) = halo.split(ops.len());
                for q in (0..dims.qsize).step_by(QCHUNK) {
                    let qs = q..(q + QCHUNK).min(dims.qsize);
                    let levels = qs.len() * dims.nlev;
                    // Stage 1: q0 + dt L(q0); stage 2: 3/4 q0 + 1/4 (q1 +
                    // dt L(q1)); stage 3: 1/3 q0 + 2/3 (q2 + dt L(q2)).
                    for combine in [StageCombine::Replace, StageCombine::Ssp2, StageCombine::Ssp3] {
                        let (qin, istride) = match combine {
                            StageCombine::Replace => (&qdp[q * lw..], tl),
                            _ => (&qstage[..], cw),
                        };
                        let stage = |qchunk: &mut [f64], elems: Range<usize>| {
                            euler_stage_flat_blocked(
                                bops,
                                dims,
                                sched,
                                u,
                                v,
                                dp3d,
                                qin,
                                istride,
                                qdp,
                                dt,
                                combine,
                                qs.clone(),
                                qchunk,
                                cw,
                                elems,
                            )
                        };
                        stage(qchunk, bnd.clone());
                        halo.send([&qchunk[..]], levels, cw);
                        stage(qchunk, int.clone());
                        let (dst, ds) = match combine {
                            StageCombine::Ssp3 => (&mut qdp[q * lw..], tl),
                            _ => (&mut qstage[..], cw),
                        };
                        halo_sweep(halo, sched, gather, levels, [qchunk], cw, None, [dst], ds, limit)?;
                    }
                }
            }
            KernelPath::Scalar => {
                assert!(halo.is_serial(), "the scalar oracle runs on one rank only");
                let (u, v, dp3d) = (&state.u[..], &state.v[..], &state.dp3d[..]);
                // Stage 1: q2 = q0 + dt L(q0)
                euler_substep_flat(ops, dims, sched, u, v, dp3d, &state.qdp, dt, q2);
                finish_tracer_stage(ops, dss, dims, limiter, q2);
                // Stage 2: q2 = 3/4 q0 + 1/4 (q2 + dt L(q2))
                euler_substep_flat(ops, dims, sched, u, v, dp3d, q2, dt, qtmp);
                for (q2, (q0, t)) in q2.iter_mut().zip(state.qdp.iter().zip(qtmp.iter())) {
                    *q2 = 0.75 * q0 + 0.25 * t;
                }
                finish_tracer_stage(ops, dss, dims, limiter, q2);
                // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
                euler_substep_flat(ops, dims, sched, u, v, dp3d, q2, dt, qtmp);
                for (qf, t) in state.qdp.iter_mut().zip(qtmp.iter()) {
                    *qf = *qf / 3.0 + 2.0 / 3.0 * t;
                }
                finish_tracer_stage(ops, dss, dims, limiter, &mut state.qdp);
            }
        }
        Ok(())
    }

    /// Remap the column back to reference hybrid levels (`vertical_remap`).
    ///
    /// # Errors
    /// A collapsed Lagrangian layer or mass-inconsistent column surfaces as
    /// [`HealthError::Remap`] instead of panicking a worker thread, so the
    /// resilient driver can roll back to a checkpoint. On `Err` the state
    /// may hold partially remapped elements.
    pub fn vertical_remap(&mut self, state: &mut State) -> Result<(), HealthError> {
        let Dycore { ops, rhs, dims, sched, ws, kernels, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let qsize = dims.qsize;
        let fl = dims.field_len();
        let tl = dims.tracer_len();
        let vert = &rhs.vert;
        // The failing element with the lowest index, with its error: the
        // one a serial loop would have stopped at, whatever the worker
        // count (workers cannot propagate `?` through the scheduler
        // closure).
        let failure: Mutex<Option<(usize, RemapError)>> = Mutex::new(None);
        let State { u, v, t, dp3d, qdp, .. } = state;
        let arenas = (
            &mut ws.workers,
            [u, v, t, dp3d].map(|f| Arena::new(f, fl, fl)),
            Arena::new(qdp, tl, tl),
        );
        sched.run_windows(0..ops.len(), arenas, |e, (scratch, [u, v, t, dp3d], qdp)| {
            let res = match kernels {
                KernelPath::Blocked => {
                    // Build the dp3d-only plan once, then stream u/v/t and
                    // every tracer through its coefficient-apply pass.
                    let WorkerScratch { plan, apply, .. } = scratch;
                    plan.build(vert, nlev, dp3d).map(|()| {
                        remap_element_planned(plan, nlev, qsize, u, v, t, dp3d, qdp, apply)
                    })
                }
                KernelPath::Scalar => {
                    let WorkerScratch { remap, col_src, col_dst, col_val, col_out, .. } = scratch;
                    remap_element_scalar(
                        vert, nlev, qsize, u, v, t, dp3d, qdp, col_src, col_dst, col_val, col_out,
                        remap,
                    )
                }
            };
            if let Err(err) = res {
                let mut first = failure.lock().unwrap_or_else(|poison| poison.into_inner());
                if first.as_ref().is_none_or(|&(lowest, _)| e < lowest) {
                    *first = Some((e, err));
                }
            }
        });
        match failure.into_inner().unwrap_or_else(|poison| poison.into_inner()) {
            Some((_, err)) => Err(HealthError::from(err)),
            None => Ok(()),
        }
    }

    /// One full model step: dynamics RK + hyperviscosity + tracer advection
    /// + (every `rsplit` steps) vertical remap. Heap-allocation-free.
    pub fn step(&mut self, state: &mut State) {
        // The unguarded driver has no rollback path to route a verdict
        // into: a grid the hyperviscosity plan rejects or a broken column
        // is fatal here.
        if let Err(e) = serial(self.step_on(&mut Halo::Serial, state)) {
            panic!("serial step failed: {e}");
        }
    }

    /// [`Dycore::step`] with its DSS gathers' off-rank sharers behind
    /// `halo`, errors returned instead of fatal.
    pub(crate) fn step_on(&mut self, halo: &mut Halo, state: &mut State) -> Result<(), DistError> {
        self.dynamics_step_guarded(halo, state, None)?;
        let subcycles = self.hypervis_subcycles();
        self.apply_hypervis_on(halo, state, subcycles)?;
        self.euler_step_tracers_on(halo, state)?;
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            self.vertical_remap(state)?;
            self.steps_since_remap = 0;
        }
        Ok(())
    }

    /// [`Dycore::step`] with in-step health guards: every RK stage is
    /// scanned for non-finite values and collapsed layers, and the step's
    /// advective CFL number is estimated afterwards. A CFL breach arms the
    /// degradation policy, so the next [`DegradePolicy::halve_dt_steps`]
    /// steps run as two `dt/2` substeps with extra hyperviscosity
    /// subcycles. With guards disabled this is exactly [`Dycore::step`].
    ///
    /// On `Err` the state may hold a partially advanced step and must be
    /// restored from a checkpoint before continuing. (An RK stage rejected
    /// at stages 1–4 leaves the state as the step found it; one rejected
    /// at stage 5 leaves the rejected `u_5` in it.)
    pub fn step_checked(&mut self, state: &mut State) -> Result<StepHealth, HealthError> {
        serial(self.step_checked_on(&mut Halo::Serial, state))
    }

    /// [`Dycore::step_checked`] with its DSS gathers' off-rank sharers
    /// behind `halo`. On a rank the report is rank-local, so a CFL breach
    /// does not arm the degradation policy here: ranks would diverge (each
    /// sees its own winds). The distributed driver reduces the verdict and
    /// calls [`Dycore::arm_degradation`] on every rank in lockstep.
    pub(crate) fn step_checked_on(
        &mut self,
        halo: &mut Halo,
        state: &mut State,
    ) -> Result<StepHealth, DistError> {
        if !self.health.enabled {
            self.step_on(halo, state)?;
            return Ok(StepHealth::unchecked());
        }
        let full_dt = self.cfg.dt;
        let (splits, extra) = if self.degrade_pending > 0 {
            self.degrade_pending -= 1;
            (2usize, self.degrade.extra_subcycles)
        } else {
            (1usize, 0)
        };
        let mut health = StepHealth::begin();
        health.degraded = splits > 1;
        self.cfg.dt = full_dt / splits as f64;
        for _ in 0..splits {
            let subcycles = self.hypervis_subcycles() + extra;
            let split = self
                .dynamics_step_guarded(halo, state, Some(&mut health))
                .and_then(|()| self.apply_hypervis_on(halo, state, subcycles))
                .and_then(|()| self.euler_step_tracers_on(halo, state))
                .and_then(|()| {
                    // Post-advection scan covers the tracer arenas, which
                    // the RK stage scans never see.
                    let scan = scan_stage(&state.u, &state.v, &state.t, &state.dp3d, &state.qdp);
                    Ok(commit_scan(&mut health, &self.health, TRACER_STAGE, scan)?)
                });
            if let Err(e) = split {
                self.cfg.dt = full_dt;
                return Err(e);
            }
        }
        self.cfg.dt = full_dt;
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            self.vertical_remap(state)?;
            self.steps_since_remap = 0;
        }
        // CFL is judged against the nominal dt: while winds stay too fast
        // for the full step, degraded (halved-dt) stepping keeps re-arming.
        health.cfl = health.max_wind * full_dt / self.char_dx;
        if halo.is_serial() && health.cfl > self.health.cfl_limit {
            self.arm_degradation();
        }
        Ok(health)
    }

    /// Arm the degradation policy: the next
    /// [`DegradePolicy::halve_dt_steps`] checked steps run degraded. The
    /// distributed driver calls this after the *global* verdict breaches
    /// the CFL limit, so every rank degrades in lockstep even when only one
    /// rank saw the breach.
    pub fn arm_degradation(&mut self) {
        self.degrade_pending = self.degrade_pending.max(self.degrade.halve_dt_steps);
    }

    /// The KG5 loop of [`Dycore::dynamics_step`]; with `health`, each stage
    /// ends with a health scan of `u_i` (of `stage`, or of the state after
    /// stage 5), committed under the stage's index 0..5.
    ///
    /// Each stage is one exchange behind `halo`: the RHS of the boundary
    /// elements, the send, the RHS of the interior ones, then the gather.
    ///
    /// On `Err` at stages 1–4 the state is untouched (nothing writes it
    /// before stage 5's gather). On `Err` at stage 5 the state holds the
    /// rejected `u_5`.
    pub(crate) fn dynamics_step_guarded(
        &mut self,
        halo: &mut Halo,
        state: &mut State,
        mut health: Option<&mut StepHealth>,
    ) -> Result<(), DistError> {
        let dt = self.cfg.dt;
        let hcfg = self.health;
        let Dycore { ops, dss, rhs, dims, sched, ws, kernels, bops, gather, .. } = self;
        let StepWorkspace { stage, next, hyp, workers, .. } = ws;
        let (nlev, fl) = (dims.nlev, dims.field_len());
        let last = KG5_COEFFS.len() - 1;
        for (i, &c) in KG5_COEFFS.iter().enumerate() {
            let eval = if i == 0 { state.dyn_fields() } else { stage.fields() };
            match kernels {
                KernelPath::Blocked => {
                    let (bnd, int) = halo.split(bops.len());
                    let base = state.dyn_fields();
                    let mut rk = |hyp: &mut DynFields, elems: Range<usize>| {
                        rk_rhs_sweep(bops, rhs, nlev, sched, workers, base, eval, &state.phis, c * dt, hyp, elems)
                    };
                    rk(hyp, bnd);
                    halo.send(hyp.fields(), nlev, fl);
                    rk(hyp, int);
                    let dst = if i == last { state.dyn_fields_mut() } else { stage.fields_mut() };
                    halo_sweep(halo, sched, gather, nlev, hyp.fields(), fl, None, dst, fl, |_, _| {})?;
                }
                KernelPath::Scalar => {
                    assert!(halo.is_serial(), "the scalar oracle runs on one rank only");
                    rk_substep_scalar(
                        ops,
                        dss,
                        rhs,
                        *dims,
                        sched,
                        workers,
                        state.dyn_fields(),
                        eval,
                        &state.phis,
                        c * dt,
                        next,
                    );
                    std::mem::swap(stage, next);
                    if i == last {
                        for (to, from) in state.dyn_fields_mut().into_iter().zip(stage.fields()) {
                            to.copy_from_slice(from);
                        }
                    }
                }
            }
            if let Some(health) = health.as_deref_mut() {
                let [u, v, t, dp3d] = if i == last { state.dyn_fields() } else { stage.fields() };
                commit_scan(health, &hcfg, i, scan_stage(u, v, t, dp3d, &[]))?;
            }
        }
        Ok(())
    }

    /// How many dynamics steps have run since the last vertical remap.
    /// Checkpoints record this so a restart resumes the remap cadence
    /// bitwise-identically.
    pub fn remap_phase(&self) -> usize {
        self.steps_since_remap
    }

    /// Restore the remap cadence (checkpoint restart).
    pub fn set_remap_phase(&mut self, phase: usize) {
        self.steps_since_remap = phase;
    }

    /// Steps still owed to the degradation policy (0 = healthy cadence).
    pub fn degrade_pending(&self) -> usize {
        self.degrade_pending
    }

    /// Global dry-air mass (`integral of sum_k dp3d dA`), Pa m^2.
    pub fn total_mass(&self, state: &State) -> f64 {
        let fields: Vec<Vec<f64>> = state
            .elems()
            .map(|es| {
                (0..NPTS)
                    .map(|p| (0..self.dims.nlev).map(|k| es.dp3d[k * NPTS + p]).sum())
                    .collect()
            })
            .collect();
        self.grid.global_integral(&fields)
    }

    /// Global mass of tracer `q`.
    pub fn total_tracer_mass(&self, state: &State, q: usize) -> f64 {
        let nlev = self.dims.nlev;
        let fields: Vec<Vec<f64>> = state
            .elems()
            .map(|es| {
                (0..NPTS)
                    .map(|p| (0..nlev).map(|k| es.qdp[(q * nlev + k) * NPTS + p]).sum())
                    .collect()
            })
            .collect();
        self.grid.global_integral(&fields)
    }

    /// Maximum wind speed (stability diagnostic).
    pub fn max_wind(&self, state: &State) -> f64 {
        let mut m: f64 = 0.0;
        for (u, v) in state.u.iter().zip(&state.v) {
            m = m.max((u * u + v * v).sqrt());
        }
        m
    }
}

/// One element-parallel DSS sweep on the scheduler: every element gathers
/// its own `[levels][NPTS]` window of the `F` fields of `src` (per-element
/// stride `sstride`) in canonical order ([`DssGather::gather_elem`]) into
/// its `[levels][NPTS]` window of `dst` (stride `dstride`) — stored, or with
/// `coefs` accumulated as `dst += coefs[f][k] * assembled` — and then runs
/// `then` on the freshly written windows (work that only needs the
/// element's own assembled values, e.g. the second hyperviscosity
/// Laplacian, or the tracer limiter).
///
/// This is the blocked step's DSS: no accumulator, no serial section, and
/// bitwise the scatter walk of [`Dss::apply_flat`] at any worker count,
/// because each point's sum runs in the plan's fixed order whichever worker
/// computes it. `src` and `dst` are distinct borrows, so a sweep can never
/// read an arena it writes. One rank only: the member-batched paths.
///
/// # Panics
/// If a source or destination arena is shorter than the sweep reaches
/// ([`DssGather::span`]), or a window is wider than its element's stride.
#[allow(clippy::too_many_arguments)]
fn dss_sweep<L: crate::dss::Lane + Send + Sync + 'static, const F: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    levels: usize,
    src: [&[L]; F],
    sstride: usize,
    coefs: Option<[&[f64]; F]>,
    mut dst: [&mut [L]; F],
    dstride: usize,
    then: impl Fn(usize, [&mut [L]; F]) + Sync,
) {
    let all = 0..gather.nelem();
    sweep_elems(sched, gather, all, levels, src, sstride, coefs, &mut dst, dstride, no_ghosts, &then);
}

/// [`dss_sweep`] on a rank: the one exchange of `src` behind `halo`
/// completes around it. The original schedule exchanges now (every element
/// is computed); then the interior elements, which have no ghost sharers,
/// are gathered while the redesigned schedule's messages fly; then the
/// boundary elements, reading their ghosts in place from the landed
/// messages. On one rank this is one sweep over every element.
#[allow(clippy::too_many_arguments)]
fn halo_sweep<const F: usize>(
    halo: &mut Halo,
    sched: &ElemScheduler,
    gather: &DssGather,
    levels: usize,
    src: [&[f64]; F],
    sstride: usize,
    coefs: Option<[&[f64]; F]>,
    mut dst: [&mut [f64]; F],
    dstride: usize,
    then: impl Fn(usize, [&mut [f64]; F]) + Sync,
) -> Result<(), CommError> {
    let (bnd, int) = halo.split(gather.nelem());
    halo.land(src, levels, sstride)?;
    sweep_elems(sched, gather, int, levels, src, sstride, coefs, &mut dst, dstride, no_ghosts, &then);
    halo.wait()?;
    let msgs = halo.landed();
    let ghost = |f: usize, k: usize, g: usize| gather.ghost_value(msgs, levels, f, k, g);
    sweep_elems(sched, gather, bnd, levels, src, sstride, coefs, &mut dst, dstride, ghost, &then);
    halo.release();
    Ok(())
}

/// The gather sweep of [`dss_sweep`] over the elements `elems`.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)]
fn sweep_elems<L: crate::dss::Lane + Send + Sync + 'static, const F: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    elems: Range<usize>,
    levels: usize,
    src: [&[L]; F],
    sstride: usize,
    coefs: Option<[&[f64]; F]>,
    dst: &mut [&mut [L]; F],
    dstride: usize,
    ghost: impl Fn(usize, usize, usize) -> L + Sync,
    then: &(impl Fn(usize, [&mut [L]; F]) + Sync),
) {
    assert!(src.iter().all(|s| s.len() >= gather.span(levels, sstride)), "dss_sweep: short source");
    let dst = dst.each_mut().map(|d| Arena::new(d, dstride, levels * NPTS));
    sched.run_windows(elems, dst, |e, mut win| {
        // Rebind the captured tables to locals, so the gather loop does not
        // reload them from the closure after every store to the window.
        let (src, coefs) = (src, coefs);
        // A single-field sweep keeps the checked read: its scalar loads beat
        // the hardware gather the compiler emits for an unchecked indexed
        // load. A multi-field sweep needs the unchecked read, or the bounds
        // checks keep the field loop rolled and its accumulator tile spills
        // (DESIGN.md §5.12).
        let read = |f: usize, i: usize| {
            if F == 1 {
                src[f][i]
            } else {
                // SAFETY: the plan only yields indices below
                // `gather.span(levels, sstride)`, which every source covers
                // (asserted above).
                unsafe { *src[f].get_unchecked(i) }
            }
        };
        gather.gather_elem(e, levels, sstride, read, &ghost, coefs, &mut win);
        then(e, win);
    });
}

/// The RHS sweep of one blocked RK stage over the elements `elems`:
/// `raw = base + c dt RHS(eval)` per element, pre-DSS, with the fused
/// blocked kernel on the scheduler and per-worker scratch. The caller
/// assembles `raw` with a gather sweep.
#[allow(clippy::too_many_arguments)]
fn rk_rhs_sweep(
    bops: &[BlockedOps],
    rhs: &Rhs,
    nlev: usize,
    sched: &ElemScheduler,
    workers: &mut PerWorker<WorkerScratch>,
    base: [&[f64]; 4],
    eval: [&[f64]; 4],
    phis: &[f64],
    c_dt: f64,
    raw: &mut DynFields,
    elems: Range<usize>,
) {
    let fl = nlev * NPTS;
    let ptop = rhs.vert.ptop();
    let [bu, bv, bt, bdp] = base;
    let [eu, ev, et, edp] = eval;
    let out = raw.fields_mut().map(|o| Arena::new(o, fl, fl));
    sched.run_windows(elems, (workers, out), |e, (scratch, [ou, ov, ot, odp])| {
        let r = e * fl..(e + 1) * fl;
        element_rhs_apply_blocked(
            &bops[e],
            nlev,
            ptop,
            &eu[r.clone()],
            &ev[r.clone()],
            &et[r.clone()],
            &edp[r.clone()],
            &phis[e * NPTS..(e + 1) * NPTS],
            &bu[r.clone()],
            &bv[r.clone()],
            &bt[r.clone()],
            &bdp[r],
            c_dt,
            ou,
            ov,
            ot,
            odp,
            &mut scratch.rhs,
        );
    });
}

/// One explicit sub-step of the scalar oracle across all elements:
/// `out = base + c dt RHS(eval)` from the raw tendency + apply pair on the
/// scheduler, then the in-place serial scatter DSS of the four fields.
/// Bitwise [`rk_rhs_sweep`] followed by its gather sweep.
#[allow(clippy::too_many_arguments)]
fn rk_substep_scalar(
    ops: &[ElemOps],
    dss: &mut Dss,
    rhs: &Rhs,
    dims: Dims,
    sched: &ElemScheduler,
    workers: &mut PerWorker<WorkerScratch>,
    base: [&[f64]; 4],
    eval: [&[f64]; 4],
    phis: &[f64],
    c_dt: f64,
    out: &mut DynFields,
) {
    let nlev = dims.nlev;
    let fl = dims.field_len();
    let ptop = rhs.vert.ptop();
    let [bu, bv, bt, bdp] = base;
    let [eu, ev, et, edp] = eval;
    let arenas = (workers, out.fields_mut().map(|o| Arena::new(o, fl, fl)));
    sched.run_windows(0..ops.len(), arenas, |e, (scratch, [ou, ov, ot, odp])| {
        let WorkerScratch { tend, rhs: rhs_scratch, .. } = scratch;
        let r = e * fl..(e + 1) * fl;
        element_rhs_raw(
            &ops[e],
            nlev,
            ptop,
            &eu[r.clone()],
            &ev[r.clone()],
            &et[r.clone()],
            &edp[r.clone()],
            &phis[e * NPTS..(e + 1) * NPTS],
            &mut tend.u,
            &mut tend.v,
            &mut tend.t,
            &mut tend.dp3d,
            rhs_scratch,
        );
        for i in 0..fl {
            ou[i] = bu[r.start + i] + c_dt * tend.u[i];
            ov[i] = bv[r.start + i] + c_dt * tend.v[i];
            ot[i] = bt[r.start + i] + c_dt * tend.t[i];
            odp[i] = bdp[r.start + i] + c_dt * tend.dp3d[i];
        }
    });
    for f in out.fields_mut() {
        dss.apply_flat(f, nlev);
    }
}

/// The scalar oracle's end of a tracer stage on a flat tracer arena: the
/// serial scatter DSS, then the optional limiter.
fn finish_tracer_stage(ops: &[ElemOps], dss: &mut Dss, dims: Dims, limiter: bool, qdp: &mut [f64]) {
    dss.apply_flat(qdp, dims.qsize * dims.nlev);
    if limiter {
        limit_tracer_arena(ops, dims, qdp);
    }
}

/// The members `idx` of `states`, as `N` distinct `&mut`s.
///
/// # Panics
/// If `idx` is not `N` distinct indices into `states`.
fn pick<'a, const N: usize>(states: &'a mut [State], idx: &[usize]) -> [&'a mut State; N] {
    let idx: [usize; N] = idx.try_into().expect("member chunk width");
    states.get_disjoint_mut(idx).expect("members are distinct indices into states")
}

/// The one-rank result of a stage-loop call: a one-rank halo never
/// exchanges, so only a health verdict can fail it.
fn serial<T>(r: Result<T, DistError>) -> Result<T, HealthError> {
    r.map_err(|e| match e {
        DistError::Health(h) => h,
        DistError::Comm(c) => unreachable!("a one-rank step exchanged a message: {c}"),
    })
}

/// The `(u, v, t, dp3d)` arenas of `M` members as element windows of
/// width `fl`, grouped by field: a job gets `[u, v, t, dp3d]`, each one
/// window per member.
fn by_field<'a, const M: usize>(sets: &'a mut [&mut DynFields; M], fl: usize) -> [[Arena<'a, f64>; M]; 4] {
    let mut fields = sets.each_mut().map(|d| d.fields_mut().map(Some));
    core::array::from_fn(|f| core::array::from_fn(|m| Arena::new(fields[m][f].take().unwrap(), fl, fl)))
}

/// Subcycled biharmonic hyperviscosity for one chunk of `M` ensemble
/// members, mirroring the blocked arm of [`Dycore::apply_hypervis_n`]
/// phase for phase: sponge sweep, then per subcycle a fused first Laplacian
/// straight from each member's state into its hyp lane, one DSS gather
/// sweep per member into its `second` arena set, the in-place second
/// Laplacian there, and the damping folded into the final DSS gather. The
/// Laplacian sweeps batch all `M` members through shared coefficient walks
/// ([`hypervis_pass_element_members_blocked`]); the DSS sweeps run per
/// member with the standalone path's kernel, so member `m` stays bitwise
/// identical to the single-member path.
#[allow(clippy::too_many_arguments)]
fn hypervis_members_chunk<const M: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    bops: &[BlockedOps],
    plan: &ElemHypervisPlan,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    nelem: usize,
    sponge: (&mut [f64], &mut [f64], &mut [f64]),
    mut states: [&mut State; M],
    mut hyps: [&mut DynFields; M],
    mut seconds: [&mut DynFields; M],
    subcycles: usize,
) {
    // Top-of-model sponge, per member (the sponge is `ks * NPTS` of the
    // column — too thin to amortize a batched walk — and shares the step
    // workspace's single staging arena set).
    if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
        let ks = plan.ks;
        let sl = ks * NPTS;
        let (sp_u, sp_v, sp_t) = sponge;
        for st_m in states.iter_mut() {
            let out = [&mut *sp_u, &mut *sp_v, &mut *sp_t].map(|o| Arena::new(o, sl, sl));
            let (su, sv, st): (&[f64], &[f64], &[f64]) = (&st_m.u, &st_m.v, &st_m.t);
            sched.run_windows(0..nelem, out, |e, [ou, ov, ot]| {
                sponge_pass_element_blocked(
                    &bops[e],
                    ks,
                    &su[e * fl..e * fl + sl],
                    &sv[e * fl..e * fl + sl],
                    &st[e * fl..e * fl + sl],
                    ou,
                    ov,
                    ot,
                );
            });
            dss_sweep(
                sched,
                gather,
                ks,
                [&*sp_u, &*sp_v, &*sp_t],
                sl,
                Some([&plan.sponge[..]; 3]),
                [&mut st_m.u[..], &mut st_m.v[..], &mut st_m.t[..]],
                fl,
                |_, _| {},
            );
        }
    }
    for _ in 0..subcycles {
        // First Laplacian of every member's (u, v, T, dp3d): the fused
        // member-batched coefficient walk, state -> hyp lanes.
        {
            let srcs = states.each_ref().map(|s| s.dyn_fields());
            sched.run_windows(0..nelem, by_field(&mut hyps, fl), |e, [mut ou, mut ov, mut ot, mut odp]| {
                let r = e * fl..(e + 1) * fl;
                let [su, sv, st, sdp]: [[&[f64]; M]; 4] =
                    core::array::from_fn(|f| core::array::from_fn(|m| &srcs[m][f][r.clone()]));
                hypervis_pass_element_members_blocked::<M>(
                    &bops[e], nlev, &su, &sv, &st, &sdp, &mut ou, &mut ov, &mut ot, &mut odp,
                );
            });
        }
        for (h, s2) in hyps.iter().zip(seconds.iter_mut()) {
            dss_sweep(sched, gather, nlev, h.fields(), fl, None, s2.fields_mut(), fl, |_, _| {});
        }
        // Second Laplacian in place (del^4 = lap(lap)), again batched.
        sched.run_windows(0..nelem, by_field(&mut seconds, fl), |e, [mut u, mut v, mut t, mut dp]| {
            hypervis_pass_levels_members_blocked::<M>(&bops[e], nlev, &mut u, &mut v, &mut t, &mut dp);
        });
        // Damping folded into the final DSS gather, per member.
        for (s2, st_m) in seconds.iter().zip(states.iter_mut()) {
            dss_sweep(
                sched,
                gather,
                nlev,
                s2.fields(),
                fl,
                Some(plan.damp()),
                st_m.dyn_fields_mut(),
                fl,
                |_, _| {},
            );
        }
    }
}

/// Subcycled biharmonic hyperviscosity for one lane sweep of `M` ensemble
/// members (`1..=4`) on the lane-transposed tiles: gather the members'
/// prognostics into the shared `stage` tile (a short sweep duplicates the
/// last member into the dead lanes), run the sponge and subcycle phases of
/// [`Dycore::apply_hypervis_n`]'s blocked arm entirely on tiles — one
/// coefficient walk and one DSS gather walk per phase serve every lane —
/// and scatter the live lanes back. Lane `m` replays member `m`'s
/// standalone scalar sequence at every point (kernels and DSS alike), so
/// the committed bits match the single-member path per member.
#[allow(clippy::too_many_arguments)]
fn hypervis_members_lanes<const M: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    bops: &[BlockedOps],
    plan: &ElemHypervisPlan,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    nelem: usize,
    tiles: &mut MemberLanes,
    mut states: [&mut State; M],
    subcycles: usize,
) {
    gather_members(&states, &mut tiles.stage);
    hypervis_lanes_core(sched, gather, bops, plan, hv, nlev, fl, nelem, tiles, subcycles);
    scatter_members(&tiles.stage, &mut states);
}

/// Interleave the members' `(u, v, t, dp3d)` into the lane tiles `tiles`.
fn gather_members<const M: usize>(states: &[&mut State; M], tiles: &mut LaneFields) {
    for (f, tile) in tiles.fields_mut().into_iter().enumerate() {
        let srcs: [&[f64]; M] = core::array::from_fn(|m| states[m].dyn_fields()[f]);
        gather_member_tile(&srcs, tile);
    }
}

/// Scatter the live lanes of `tiles` back to the members' `(u, v, t, dp3d)`.
fn scatter_members<const M: usize>(tiles: &LaneFields, states: &mut [&mut State; M]) {
    for (f, tile) in tiles.fields().into_iter().enumerate() {
        let mut dsts = states.each_mut().map(|s| s.dyn_fields_mut().into_iter().nth(f).unwrap());
        scatter_member_tile(tile, &mut dsts);
    }
}

/// The tile-resident phases of the lane hypervis sweep: top-of-model
/// sponge, then per subcycle the fused first Laplacian (`stage` tile into
/// the `hyp` tile), the lane DSS gather into the `next` tile with the
/// second Laplacian in the same job, and the damping folded into the final
/// lane DSS gather back onto `stage`. Mirrors the blocked arm of
/// [`Dycore::apply_hypervis_n`] sweep for sweep.
#[allow(clippy::too_many_arguments)]
fn hypervis_lanes_core(
    sched: &ElemScheduler,
    gather: &DssGather,
    bops: &[BlockedOps],
    plan: &ElemHypervisPlan,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    nelem: usize,
    tiles: &mut MemberLanes,
    subcycles: usize,
) {
    if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
        let ks = plan.ks;
        let sl = ks * NPTS;
        {
            let MemberLanes { sponge_u, sponge_v, sponge_t, stage, .. } = tiles;
            let out = [sponge_u, sponge_v, sponge_t].map(|o| Arena::new(o, sl, sl));
            let (su, sv, st): (&[V4F64], &[V4F64], &[V4F64]) = (&stage.u, &stage.v, &stage.t);
            sched.run_windows(0..nelem, out, |e, [ou, ov, ot]| {
                sponge_pass_member_lanes(
                    &bops[e],
                    ks,
                    &su[e * fl..e * fl + sl],
                    &sv[e * fl..e * fl + sl],
                    &st[e * fl..e * fl + sl],
                    ou,
                    ov,
                    ot,
                );
            });
        }
        dss_sweep(
            sched,
            gather,
            ks,
            [
                &tiles.sponge_u[..nelem * sl],
                &tiles.sponge_v[..nelem * sl],
                &tiles.sponge_t[..nelem * sl],
            ],
            sl,
            Some([&plan.sponge[..]; 3]),
            [&mut tiles.stage.u[..], &mut tiles.stage.v[..], &mut tiles.stage.t[..]],
            fl,
            |_, _| {},
        );
    }
    for _ in 0..subcycles {
        // First Laplacian of (u, v, T, dp3d): one fused coefficient walk
        // per element, straight from the stage tile into the hyp tile.
        {
            let out = tiles.hyp.fields_mut().map(|o| Arena::new(o, fl, fl));
            let [su, sv, st, sdp] = tiles.stage.fields();
            sched.run_windows(0..nelem, out, |e, [ou, ov, ot, odp]| {
                let r = e * fl..(e + 1) * fl;
                hypervis_pass_member_lanes(
                    &bops[e],
                    nlev,
                    &su[r.clone()],
                    &sv[r.clone()],
                    &st[r.clone()],
                    &sdp[r],
                    ou,
                    ov,
                    ot,
                    odp,
                );
            });
        }
        // Lane DSS of the first Laplacians into the (idle outside RK) `next`
        // tile, second Laplacian (del^4 = lap(lap)) in the same job.
        dss_sweep(
            sched,
            gather,
            nlev,
            tiles.hyp.fields(),
            fl,
            None,
            tiles.next.fields_mut(),
            fl,
            |e, [u, v, t, dp]| hypervis_pass_levels_member_lanes(&bops[e], nlev, u, v, t, dp),
        );
        // Damping folded into the final lane DSS gather, all four fields
        // and every lane in one walk of the gather plan.
        dss_sweep(
            sched,
            gather,
            nlev,
            tiles.next.fields(),
            fl,
            Some(plan.damp()),
            tiles.stage.fields_mut(),
            fl,
            |_, _| {},
        );
    }
}

/// One dt of the 5-stage RK for one lane sweep of `M` ensemble members
/// (`1..=4`) on the lane-transposed tiles: gather the members into the
/// `base` tile (plus the splatted surface geopotential), run every RK
/// substep as one element sweep of [`element_rhs_apply_member_lanes`] into
/// the (idle outside hypervis) `hyp` tile followed by one lane DSS gather
/// sweep of all four prognostics into `next`, and scatter the
/// final stage back to the live lanes. The per-lane sequence matches
/// [`Dycore::dynamics_step`] exactly, so each member stays bitwise
/// identical to its standalone step.
#[allow(clippy::too_many_arguments)]
fn dynamics_members_lanes<const M: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    bops: &[BlockedOps],
    workers: &mut PerWorker<WorkerScratch>,
    nlev: usize,
    fl: usize,
    nelem: usize,
    ptop: f64,
    dt: f64,
    tiles: &mut MemberLanes,
    mut states: [&mut State; M],
) {
    gather_members(&states, &mut tiles.base);
    gather_member_tile(&states.each_ref().map(|s| &s.phis[..]), &mut tiles.phis);
    for (to, from) in tiles.stage.fields_mut().into_iter().zip(tiles.base.fields()) {
        to.copy_from_slice(from);
    }
    for &c in &KG5_COEFFS {
        {
            let MemberLanes { hyp, stage: eval, base: rk_base, phis: ph, .. } = &mut *tiles;
            let out = (&mut *workers, hyp.fields_mut().map(|o| Arena::new(o, fl, fl)));
            sched.run_windows(0..nelem, out, |e, (scratch, [ou, ov, ot, odp])| {
                let r = e * fl..(e + 1) * fl;
                element_rhs_apply_member_lanes(
                    &bops[e],
                    nlev,
                    ptop,
                    &eval.u[r.clone()],
                    &eval.v[r.clone()],
                    &eval.t[r.clone()],
                    &eval.dp3d[r.clone()],
                    &ph[e * NPTS..(e + 1) * NPTS],
                    &rk_base.u[r.clone()],
                    &rk_base.v[r.clone()],
                    &rk_base.t[r.clone()],
                    &rk_base.dp3d[r],
                    c * dt,
                    ou,
                    ov,
                    ot,
                    odp,
                    &mut scratch.rhs_lanes,
                );
            });
        }
        dss_sweep(
            sched,
            gather,
            nlev,
            tiles.hyp.fields(),
            fl,
            None,
            tiles.next.fields_mut(),
            fl,
            |_, _| {},
        );
        std::mem::swap(&mut tiles.stage, &mut tiles.next);
    }
    scatter_members(&tiles.stage, &mut states);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesphere::consts::P0;

    fn resting_state(dy: &Dycore) -> State {
        let mut st = dy.zero_state();
        let dims = dy.dims;
        let vert = dy.rhs.vert.clone();
        for es in st.elems_mut() {
            for k in 0..dims.nlev {
                for p in 0..NPTS {
                    es.t[k * NPTS + p] = 300.0;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, P0);
                    for q in 0..dims.qsize {
                        es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[k * NPTS + p];
                    }
                }
            }
        }
        st
    }

    #[test]
    fn resting_atmosphere_stays_at_rest() {
        let dims = Dims { nlev: 6, qsize: 1 };
        let cfg = DycoreConfig {
            dt: 600.0,
            hypervis: HypervisConfig::off(),
            limiter: true,
            rsplit: 1,
        };
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        let ref_st = st.clone();
        for _ in 0..5 {
            dy.step(&mut st);
        }
        assert!(dy.max_wind(&st) < 1e-10, "wind grew: {}", dy.max_wind(&st));
        assert!(st.max_abs_diff(&ref_st) < 1e-8, "state drifted: {}", st.max_abs_diff(&ref_st));
    }

    /// The member-batched hypervis driver is bitwise identical to the
    /// single-member path run member by member, across chunk shapes
    /// (1, 2, 3 = 2+1, 4, 5 = 4+1) and with the sponge active.
    #[test]
    fn hypervis_members_matches_per_member_bitwise() {
        let dims = Dims { nlev: 6, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        cfg.dt = 100.0;
        cfg.hypervis.sponge_layers = 2;
        cfg.hypervis.nu_top = 2.5e5;
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        let subcycles = dy.hypervis_subcycles();

        let make_members = |dy: &Dycore, n: usize| -> Vec<State> {
            (0..n)
                .map(|m| {
                    let mut st = resting_state(dy);
                    for (i, t) in st.t.iter_mut().enumerate() {
                        *t += 2.0 * (((i + 7 * m) % 13) as f64 / 13.0 - 0.5);
                    }
                    for (i, u) in st.u.iter_mut().enumerate() {
                        *u += 0.5 * (((i + 3 * m) % 7) as f64 / 7.0 - 0.5);
                    }
                    st
                })
                .collect()
        };

        for path in [MemberKernelPath::Chunked, MemberKernelPath::Lanes] {
            dy.member_kernels = path;
            for n in [1usize, 2, 3, 4, 5] {
                let mut expect = make_members(&dy, n);
                for st in expect.iter_mut() {
                    dy.apply_hypervis_n(st, subcycles).unwrap();
                }

                let mut got = make_members(&dy, n);
                let members: Vec<usize> = (0..n).collect();
                let mut ens = crate::workspace::EnsembleWorkspace::new(dims, dy.ops.len(), n);
                dy.apply_hypervis_members(&mut got, &members, &mut ens, subcycles).unwrap();

                for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                    assert_eq!(e.max_abs_diff(g), 0.0, "{path:?} n={n} member={m} diverged");
                }
            }
        }
    }

    /// The member-batched RK driver is bitwise identical to the standalone
    /// [`Dycore::dynamics_step`] run member by member, across batch shapes
    /// (including the ragged 3 = 4-sweep-short and 5 = 4+1 tails) and on
    /// both member kernel paths.
    #[test]
    fn dynamics_step_members_matches_per_member_bitwise() {
        let dims = Dims { nlev: 6, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        cfg.dt = 100.0;
        let mut dy = Dycore::new(2, dims, 200.0, cfg);

        let make_members = |dy: &Dycore, n: usize| -> Vec<State> {
            (0..n)
                .map(|m| {
                    let mut st = resting_state(dy);
                    for (i, t) in st.t.iter_mut().enumerate() {
                        *t += 2.0 * (((i + 11 * m) % 17) as f64 / 17.0 - 0.5);
                    }
                    for (i, u) in st.u.iter_mut().enumerate() {
                        *u += 0.5 * (((i + 5 * m) % 9) as f64 / 9.0 - 0.5);
                    }
                    for (i, ph) in st.phis.iter_mut().enumerate() {
                        *ph = 40.0 * ((i + m) % 5) as f64;
                    }
                    st
                })
                .collect()
        };

        for path in [MemberKernelPath::Chunked, MemberKernelPath::Lanes] {
            dy.member_kernels = path;
            for n in [1usize, 2, 3, 4, 5] {
                let mut expect = make_members(&dy, n);
                for st in expect.iter_mut() {
                    dy.dynamics_step(st);
                }

                let mut got = make_members(&dy, n);
                let members: Vec<usize> = (0..n).collect();
                let mut ens = crate::workspace::EnsembleWorkspace::new(dims, dy.ops.len(), n);
                dy.dynamics_step_members(&mut got, &members, &mut ens);

                for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                    assert_eq!(e.max_abs_diff(g), 0.0, "{path:?} n={n} member={m} diverged");
                }
            }
        }
    }

    #[test]
    fn mass_and_tracer_mass_are_conserved() {
        let dims = Dims { nlev: 6, qsize: 2 };
        let cfg = DycoreConfig {
            dt: 300.0,
            hypervis: HypervisConfig::off(),
            limiter: true,
            rsplit: 1,
        };
        let mut dy = Dycore::new(3, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        // Perturb the temperature field to get the flow moving.
        for es in st.elems_mut() {
            for (i, t) in es.t.iter_mut().enumerate() {
                *t += 2.0 * ((i % 11) as f64 / 11.0 - 0.5);
            }
        }
        let m0 = dy.total_mass(&st);
        let q0 = dy.total_tracer_mass(&st, 0);
        let q1 = dy.total_tracer_mass(&st, 1);
        for _ in 0..5 {
            dy.step(&mut st);
        }
        let dm = ((dy.total_mass(&st) - m0) / m0).abs();
        let dq0 = ((dy.total_tracer_mass(&st, 0) - q0) / q0).abs();
        let dq1 = ((dy.total_tracer_mass(&st, 1) - q1) / q1).abs();
        assert!(dm < 1e-11, "dry mass drift {dm}");
        assert!(dq0 < 1e-11, "tracer 0 drift {dq0}");
        assert!(dq1 < 1e-11, "tracer 1 drift {dq1}");
        assert!(dy.max_wind(&st) < 30.0, "blow-up: {}", dy.max_wind(&st));
    }

    #[test]
    fn balanced_flow_survives_time_stepping() {
        use cubesphere::consts::{EARTH_RADIUS, OMEGA, RD};
        let dims = Dims { nlev: 6, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 200.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(4, dims, 200.0, cfg);
        let mut st = dy.zero_state();
        let (t0, u0) = (300.0, 30.0);
        let c = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) / (RD * t0);
        let grid_elems: Vec<_> = dy.grid.elements.clone();
        let vert = dy.rhs.vert.clone();
        for (es, el) in st.elems_mut().zip(&grid_elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let ps = P0 * (-c * lat.sin() * lat.sin()).exp();
                for k in 0..dims.nlev {
                    es.u[k * NPTS + p] = u0 * lat.cos();
                    es.t[k * NPTS + p] = t0;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
        let init = st.clone();
        for _ in 0..10 {
            dy.step(&mut st);
        }
        // The balanced jet must persist: wind change small vs u0.
        let mut max_du: f64 = 0.0;
        for (x, y) in st.u.iter().zip(&init.u) {
            max_du = max_du.max((x - y).abs());
        }
        assert!(max_du < 0.05 * u0, "jet decayed/blew up: du = {max_du}");
    }

    #[test]
    fn hypervis_damps_grid_noise() {
        let dims = Dims { nlev: 2, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        // At ne4 the grid Nyquist wavenumber is tiny, so scale nu up to get
        // visible damping within a few applications (still well inside the
        // explicit stability bound nu k^4 dt_sub < 1).
        cfg.dt = 100.0;
        cfg.hypervis = HypervisConfig { nu: 2.0e19, nu_p: 2.0e19, subcycles: 3, nu_top: 0.0, sponge_layers: 0 };
        let mut dy = Dycore::new(4, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        // Checkerboard temperature noise.
        for (i, t) in st.t.iter_mut().enumerate() {
            *t += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let noise = |s: &State| -> f64 {
            let mut acc = 0.0;
            for es in s.elems() {
                for w in es.t.windows(2) {
                    acc += (w[1] - w[0]).powi(2);
                }
            }
            acc
        };
        let n0 = noise(&st);
        for _ in 0..10 {
            dy.apply_hypervis(&mut st).expect("plan accepted");
        }
        let n1 = noise(&st);
        assert!(n1 < 0.8 * n0, "noise not damped: {n0} -> {n1}");
    }

    #[test]
    fn guarded_step_matches_plain_step_bitwise() {
        let dims = Dims { nlev: 4, qsize: 1 };
        let cfg = DycoreConfig::for_ne(3);
        let mut plain = Dycore::new(3, dims, 200.0, cfg);
        let mut guarded = Dycore::new(3, dims, 200.0, cfg);
        guarded.health = HealthConfig::on();
        let perturb = |dy: &Dycore| {
            let mut st = resting_state(dy);
            for es in st.elems_mut() {
                for (i, t) in es.t.iter_mut().enumerate() {
                    *t += ((i % 7) as f64 - 3.0) * 0.5;
                }
            }
            st
        };
        let mut a = perturb(&plain);
        let mut b = perturb(&guarded);
        for _ in 0..3 {
            plain.step(&mut a);
            let health = guarded.step_checked(&mut b).expect("healthy step");
            assert!(health.checked);
            assert!(!health.degraded);
            assert!(health.cfl.is_finite());
            assert!(health.min_dp3d > 0.0);
        }
        assert_eq!(a.max_abs_diff(&b), 0.0, "guards changed the trajectory");
    }

    #[test]
    fn guarded_step_rejects_nan_state() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig::on();
        let mut st = resting_state(&dy);
        st.u[0] = f64::NAN;
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(matches!(err, HealthError::NonFinite { stage: 0, .. }), "got {err:?}");
    }

    #[test]
    fn guarded_step_rejects_tracer_nan() {
        let dims = Dims { nlev: 4, qsize: 2 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig::on();
        let mut st = resting_state(&dy);
        // A NaN born in the tracer arena is invisible to the RK stage
        // scans; the post-advection scan must still catch it.
        st.qdp[3] = f64::NAN;
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(
            matches!(err, HealthError::TracerNonFinite { stage: TRACER_STAGE, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn guarded_step_surfaces_remap_rejection_as_typed_error() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        // Disarm the ThinLayer stage guard so the collapsed layer reaches
        // the vertical remap, which rejects it with a typed error instead
        // of a bare assert.
        dy.health = HealthConfig { min_dp3d: f64::NEG_INFINITY, ..HealthConfig::on() };
        let mut st = resting_state(&dy);
        for p in 0..NPTS {
            st.dp3d[NPTS + p] = -5000.0;
        }
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(matches!(err, HealthError::Remap(_)), "got {err:?}");
    }

    /// With several collapsed columns, the remap reports the one in the
    /// lowest-indexed element — what a serial loop would report — at every
    /// worker count, on both kernel paths.
    #[test]
    fn vertical_remap_reports_lowest_failing_element() {
        let dims = Dims { nlev: 4, qsize: 1 };
        let mut dy = Dycore::new(2, dims, 200.0, DycoreConfig::for_ne(2));
        let fl = dims.field_len();
        let good = resting_state(&dy);
        // Element 3 collapses layer 1, element 17 layer 2: distinct errors.
        let collapse = |st: &mut State, e: usize, k: usize| {
            for p in 0..NPTS {
                st.dp3d[e * fl + k * NPTS + p] = -5000.0;
            }
        };
        let remap_err = |dy: &mut Dycore, bad: &[(usize, usize)]| {
            let mut st = good.clone();
            for &(e, k) in bad {
                collapse(&mut st, e, k);
            }
            dy.vertical_remap(&mut st).unwrap_err()
        };
        for kernels in [KernelPath::Blocked, KernelPath::Scalar] {
            dy.kernels = kernels;
            dy.set_threads(1);
            let first = remap_err(&mut dy, &[(3, 1)]);
            assert_ne!(first, remap_err(&mut dy, &[(17, 2)]), "the two errors must differ");
            for threads in [1usize, 2, 3, 5] {
                dy.set_threads(threads);
                for _ in 0..4 {
                    let got = remap_err(&mut dy, &[(3, 1), (17, 2)]);
                    assert_eq!(got, first, "{kernels:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn cfl_breach_arms_degraded_stepping() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 100.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig { cfl_limit: 1e-9, ..HealthConfig::on() };
        let mut st = resting_state(&dy);
        for u in st.u.iter_mut() {
            *u = 10.0;
        }
        let h0 = dy.step_checked(&mut st).expect("step");
        assert!(h0.cfl > dy.health.cfl_limit);
        assert!(!h0.degraded);
        assert_eq!(dy.degrade_pending(), dy.degrade.halve_dt_steps);
        let h1 = dy.step_checked(&mut st).expect("degraded step");
        assert!(h1.degraded, "next step should run under the degradation policy");
    }

    /// Full `step()`s — RK, sponge, subcycled hyperviscosity (every DSS of
    /// which is an element-parallel gather sweep), tracers, remap — are
    /// bitwise independent of the worker count, including counts that do
    /// not divide the 384 elements of the ne8 grid.
    #[test]
    fn thread_count_does_not_change_results() {
        let dims = Dims { nlev: 4, qsize: 1 };
        let cfg = DycoreConfig::for_ne(8);
        let hv = cfg.hypervis;
        assert!(hv.nu > 0.0 && hv.nu_top > 0.0 && hv.sponge_layers > 0, "hypervis + sponge on");
        let run = |threads: usize| -> State {
            let mut dy = Dycore::new(8, dims, 200.0, cfg);
            dy.set_threads(threads);
            let mut st = resting_state(&dy);
            for es in st.elems_mut() {
                for (i, t) in es.t.iter_mut().enumerate() {
                    *t += ((i % 7) as f64 - 3.0) * 0.5;
                }
            }
            for _ in 0..2 {
                dy.step(&mut st);
            }
            st
        };
        let serial = run(1);
        assert!(serial.u.iter().any(|x| *x != 0.0), "run did nothing");
        for threads in [2, 3, 5] {
            let par = run(threads);
            assert_eq!(
                serial.max_abs_diff(&par),
                0.0,
                "threads={threads} diverged from serial"
            );
        }
    }
}
