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
//! There is one stage loop. The kernel set ([`KernelPath`]) is a seam
//! inside it: each sweep's element job calls the blocked kernel or its
//! scalar twin, built from the per-field scalar operators, and nothing
//! else differs — the same buffers, gathers, exchanges and limiter run
//! either way, on one rank or many. The scalar set is the equivalence
//! oracle for the blocked kernels: both sets give the same bits, and both
//! hit the trajectory hashes recorded from the original per-element-`Vec`
//! seed driver and pinned in `tests/state_arena.rs`. What the pins and
//! the parity suites catch in the loop itself is tabled in DESIGN §5.1.

use crate::bndry::Halo;
use crate::deriv::{build_ops, ElemOps};
use crate::dist::DistError;
use crate::dss::{no_ghosts, Dss, DssGather};
use crate::euler::{euler_stage_flat_blocked, limit_tracer_element};
use crate::health::{
    commit_scan, scan_stage, DegradePolicy, HealthConfig, HealthError, StepHealth, TRACER_STAGE,
};
use crate::hypervis::{
    laplace_levels_element, laplacian_lambda_max, min_gll_gap, HypervisConfig, HypervisStability,
};
use crate::kernels::blocked::{
    build_blocked_ops, element_rhs_apply_blocked, hypervis_pass_element_blocked,
    hypervis_pass_levels_blocked, sponge_pass_element_blocked, BlockedOps, KernelPath,
    StageCombine,
};
use crate::kernels::blocked::{remap_element_planned, QCHUNK};
use crate::remap::{remap_element_scalar, RemapError};
use crate::rhs::{element_rhs_apply, Rhs};
use crate::sched::{Arena, ElemScheduler, PerWorker};
use crate::state::{Dims, State};
use crate::vert::VertCoord;
use crate::workspace::{
    qchunk_width, DynFields, EnsembleWorkspace, MemberKernelPath, StepWorkspace, WorkerScratch,
};
use cubesphere::{CubedSphere, NPTS};
use std::ops::Range;
use std::sync::Mutex;
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
    /// The serial scatter DSS of the grid (of the patch alone on a rank's
    /// core). No step uses it: every DSS of the step is a [`DssGather`]
    /// sweep. It stays for the `benchmark/` crate's `dss.apply4_ms` probe
    /// and for the tests that apply the raw assembled operators
    /// ([`crate::hypervis::laplace_flat`]); ROADMAP items 6(b) and 10
    /// retire it. Its accumulators are allocated by its first walk only.
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
    /// Which element kernels the stage loop's sweeps call (blocked by
    /// default; the scalar twins are the parity oracle).
    pub kernels: KernelPath,
    /// The member path of [`Dycore::apply_hypervis_members`] and
    /// [`Dycore::dynamics_step_members`]. It has one value and changes
    /// nothing; it stays until the `benchmark/` crate stops setting it.
    pub member_kernels: MemberKernelPath,
    gather: DssGather,
    bops: Vec<BlockedOps>,
    ws: StepWorkspace,
    steps_since_remap: usize,
    degrade_pending: usize,
    char_dx: f64,
    /// Upper bound on the largest eigenvalue of the grid's assembled
    /// Laplacian, evaluated once at construction ([`laplacian_lambda_max`]).
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
        let ops = build_ops(&grid);
        let global = (min_gll_gap(&grid.elements[0]), laplacian_lambda_max(&grid));
        Self::assemble(grid, ops, dss, gather, dims, ptop, cfg, default_threads(), global)
    }

    /// The core of one rank's distributed driver: a dycore over the patch
    /// of `grid` made of the `owned` elements (in that local order), whose
    /// DSS is `gather` (with ghost sharers into the peers' messages). It
    /// runs one worker unless [`Dycore::set_threads`] says otherwise. The
    /// CFL spacing and `lambda_max` come from global element 0 and the
    /// grid's symmetry wedge ([`laplacian_lambda_max`]), the elements the
    /// serial driver reads, so every rank judges stability and runs the
    /// subcycle count (it is the exchange schedule) identically with no
    /// message exchanged to agree on it and no whole-grid operator tables.
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
        let ops = build_ops(&patch);
        Self::assemble(patch, ops, dss, gather, dims, ptop, cfg, 1, global)
    }

    /// `ops` are `grid`'s operator tables; `(char_dx, lambda_max)` are the
    /// whole grid's CFL spacing (the smallest GLL gap on a representative
    /// element) and assembled Laplacian eigenvalue bound.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        grid: CubedSphere,
        ops: Vec<ElemOps>,
        dss: Dss,
        gather: DssGather,
        dims: Dims,
        ptop: f64,
        cfg: DycoreConfig,
        threads: usize,
        (char_dx, lambda_max): (f64, f64),
    ) -> Self {
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
    /// Stage `i` is `u_i = u_0 + c_i dt RHS(u_{i-1})`, then DSS. `u_0` is
    /// read from the state, which no stage writes before the last, so the
    /// step takes no copy of it: each stage is an RHS sweep from `u_{i-1}`
    /// (the state for `i = 1`, else `StepWorkspace::stage`) into the raw
    /// arenas `raw`, then a gather sweep that reads only `raw` and so can
    /// write `stage` in place — or, for `i = 5`, the state's dynamics
    /// fields. The kernel set picks the RHS sweep's element kernel, nothing
    /// else. Both arenas are dead when the step returns.
    pub fn dynamics_step(&mut self, state: &mut State) {
        serial(self.dynamics_step_guarded(&mut Halo::Serial, state, None))
            .expect("an unguarded RK stage cannot fail");
    }

    /// Hyperviscosity subcycles a step of the current `cfg.dt` runs:
    /// [`HypervisConfig::subcycles_for`] the grid's `lambda_max` bound.
    pub fn hypervis_subcycles(&self) -> usize {
        self.cfg.hypervis.subcycles_for(self.lambda_max, self.cfg.dt)
    }

    /// The `lambda_max` bound, the damping number and the count they
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

    /// [`Dycore::apply_hypervis`] with an explicit subcycle count.
    /// A count that leaves the grid's stiffest mode past the forward-Euler
    /// limit is rejected as `HypervisError::UnstableSubcycles` (inside
    /// [`HealthError::Hypervis`]) with the state untouched, like a corrupt
    /// element.
    ///
    /// The grid is vetted and the subcycle/sponge coefficient products are
    /// hoisted through [`ElemHypervisPlan`](crate::hypervis::ElemHypervisPlan)
    /// once per step. Each subcycle is then three element-parallel sweeps
    /// with no serial code between them: the first Laplacian of all four
    /// fields (state → `raw`), the DSS gather of `raw` with the second
    /// Laplacian on the assembled window (→ `stage`), and the DSS gather of
    /// `stage` with the forward-Euler damping folded in (→ state) — see
    /// [`DssGather::gather_elem`]. The sponge's Laplacians run first, into
    /// `ks`-deep prefixes of `raw`'s `u`/`v`/`t` views, gathered into the
    /// state. Both arenas are dead when the call returns. The kernel
    /// set picks the Laplacian element kernels: the blocked fused passes or
    /// their scalar twin [`laplace_levels_element`].
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
        let Dycore { ops, dims, cfg, sched, ws, kernels, bops, gather, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        ws.hv_plan.build(&hv, cfg.dt, subcycles, lambda_max, nlev, ops).map_err(HealthError::from)?;
        let StepWorkspace { hv_plan: plan, raw, stage, .. } = ws;
        let (bnd, int) = halo.split(ops.len());
        // Top-of-model sponge: ordinary Laplacian damping on the top
        // layers (sign +nu_top lap, i.e. diffusion). The element pass reads
        // the state directly (no staging copy) and the damping increment
        // rides the DSS gather of all three fields.
        if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
            let ks = plan.ks;
            let sl = ks * NPTS;
            let [ru, rv, rt, _] = raw.fields_mut();
            let n = ops.len() * sl;
            let mut sponge = [&mut ru[..n], &mut rv[..n], &mut rt[..n]];
            let (su, sv, st): (&[f64], &[f64], &[f64]) = (&state.u, &state.v, &state.t);
            let pass = |out: &mut [&mut [f64]; 3], elems: Range<usize>| {
                let out = out.each_mut().map(|o| Arena::new(o, sl, sl));
                sched.run_windows(elems, out, |e, [ou, ov, ot]| {
                    let src = [su, sv, st].map(|f| &f[e * fl..e * fl + sl]);
                    match kernels {
                        KernelPath::Blocked => {
                            let [su, sv, st] = src;
                            sponge_pass_element_blocked(&bops[e], ks, su, sv, st, ou, ov, ot)
                        }
                        KernelPath::Scalar => {
                            copy_windows([&mut *ou, &mut *ov, &mut *ot], src);
                            laplace_levels_element(&ops[e], ks, Some([ou, ov]), [ot]);
                        }
                    }
                });
            };
            pass(&mut sponge, bnd.clone());
            halo.send(sponge.each_ref().map(|s| &s[..]), ks, sl);
            pass(&mut sponge, int.clone());
            halo_sweep(
                halo,
                sched,
                gather,
                ks,
                sponge.each_ref().map(|s| &s[..]),
                sl,
                Some([&plan.sponge[..]; 3]),
                [&mut state.u[..], &mut state.v[..], &mut state.t[..]],
                fl,
                |_, _| {},
            )?;
        }
        for _ in 0..subcycles {
            // First Laplacian of (u, v, T, dp3d), straight from the state
            // into the raw arenas (the blocked set fuses all four fields
            // into one coefficient walk per element).
            let fields = state.dyn_fields();
            let pass = |raw: &mut DynFields, elems: Range<usize>| {
                let out = raw.fields_mut().map(|o| Arena::new(o, fl, fl));
                sched.run_windows(elems, out, |e, [ou, ov, ot, odp]| {
                    let src = fields.map(|f| &f[e * fl..(e + 1) * fl]);
                    match kernels {
                        KernelPath::Blocked => {
                            let [su, sv, st, sdp] = src;
                            hypervis_pass_element_blocked(
                                &bops[e], nlev, su, sv, st, sdp, ou, ov, ot, odp,
                            )
                        }
                        KernelPath::Scalar => {
                            copy_windows([&mut *ou, &mut *ov, &mut *ot, &mut *odp], src);
                            laplace_levels_element(&ops[e], nlev, Some([ou, ov]), [ot, odp]);
                        }
                    }
                });
            };
            pass(raw, bnd.clone());
            halo.send(raw.fields(), nlev, fl);
            pass(raw, int.clone());
            // DSS of the first Laplacians, gathered per element into the
            // `stage` arenas, with the second Laplacian (del^4 = lap(lap))
            // run on the element's freshly assembled window in the same job.
            halo_sweep(
                halo,
                sched,
                gather,
                nlev,
                raw.fields(),
                fl,
                None,
                stage.fields_mut(),
                fl,
                |e, [u, v, t, dp]| match kernels {
                    KernelPath::Blocked => {
                        hypervis_pass_levels_blocked(&bops[e], nlev, u, v, t, dp)
                    }
                    KernelPath::Scalar => {
                        laplace_levels_element(&ops[e], nlev, Some([u, v]), [t, dp])
                    }
                },
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
        Ok(())
    }

    /// [`Dycore::apply_hypervis_n`] on the listed `members` of `states`,
    /// one after another. Each member's result is its standalone call's by
    /// construction: the calls share the dycore's plans and workspace, and
    /// no workspace buffer carries anything from one call to the next.
    ///
    /// `members` must be strictly increasing indices into `states`, at most
    /// `ens.lanes()` of them.
    ///
    /// # Errors
    /// [`HealthError::Hypervis`] when the plan rejects a corrupt element
    /// metric or a non-finite coefficient. The plan depends only on the grid
    /// and the step configuration, so the first member's call rejects it
    /// before any member is touched.
    pub fn apply_hypervis_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut EnsembleWorkspace,
        subcycles: usize,
    ) -> Result<(), HealthError> {
        check_members(states, members, ens);
        for &m in members {
            self.apply_hypervis_n(&mut states[m], subcycles)?;
        }
        Ok(())
    }

    /// [`Dycore::dynamics_step`] on the listed `members` of `states`, one
    /// after another; each member's result is its standalone step's. Same
    /// contract on `members` as [`Dycore::apply_hypervis_members`].
    pub fn dynamics_step_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut EnsembleWorkspace,
    ) {
        check_members(states, members, ens);
        for &m in members {
            self.dynamics_step(&mut states[m]);
        }
    }

    /// Advance tracers by one dt with 3-stage SSP-RK2 (`euler_step`).
    ///
    /// The step-input `q0` is read straight from `state.qdp`: nothing writes
    /// a tracer's `q0` before its last stage's output lands there, so no
    /// copy of it is taken.
    ///
    /// The step runs all three stages of one [`QCHUNK`]-tracer chunk before
    /// it starts the next chunk, two element-parallel sweeps per stage: the
    /// stage kernel (the kernel set's, in [`euler_stage_flat_blocked`])
    /// writes the chunk's raw (pre-DSS) output into `qchunk`, and one DSS
    /// gather sweep assembles it into the stage's destination, with the
    /// limiter as the sweep's epilogue on the freshly assembled element
    /// window. `qchunk` and `qstage` are one-chunk-wide prefixes of the
    /// dynamics arenas `raw` and `stage`, idle outside RK and
    /// hyperviscosity. For chunk `qs`, stage 1 goes `state.qdp[qs] → qchunk
    /// ⇒ qstage`, stage 2 `qstage → qchunk ⇒ qstage` in place, stage 3
    /// `qstage → qchunk ⇒ state.qdp[qs]`.
    /// Stage 3's gather writes that window only after the chunk's kernel
    /// sweep has finished, and later chunks read only their own tracers.
    /// Since `u`, `v` and `dp3d` are fixed for the whole tracer step and
    /// the kernel, gather and limiter each work per (tracer, level), every
    /// value gets the same operations in the same order as stage-major
    /// order would give it. One full tracer arena (the state's) and two
    /// chunk-wide prefixes are touched, none of them serially.
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
        let Dycore { ops, dims, cfg, sched, ws, kernels, bops, gather, .. } = self;
        let (dims, kernels, limiter) = (*dims, *kernels, cfg.limiter);
        let State { u, v, dp3d, qdp, .. } = state;
        let tl = dims.tracer_len();
        let lw = dims.nlev * NPTS;
        let cw = qchunk_width(dims) * lw;
        let n = ops.len() * cw;
        let (qchunk, qstage) = (&mut ws.raw.whole_mut()[..n], &mut ws.stage.whole_mut()[..n]);
        let limit = |e: usize, [w]: [&mut [f64]; 1]| {
            if limiter {
                limit_tracer_element(&ops[e], w);
            }
        };
        let (bnd, int) = halo.split(ops.len());
        for q in (0..dims.qsize).step_by(QCHUNK) {
            let qs = q..(q + QCHUNK).min(dims.qsize);
            let levels = qs.len() * dims.nlev;
            // Stage 1: q0 + dt L(q0); stage 2: 3/4 q0 + 1/4 (q1 + dt L(q1));
            // stage 3: 1/3 q0 + 2/3 (q2 + dt L(q2)).
            for combine in [StageCombine::Replace, StageCombine::Ssp2, StageCombine::Ssp3] {
                let (qin, istride) = match combine {
                    StageCombine::Replace => (&qdp[q * lw..], tl),
                    _ => (&qstage[..], cw),
                };
                let sweep = |qchunk: &mut [f64], elems: Range<usize>| {
                    euler_stage_flat_blocked(
                        kernels,
                        ops,
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
                sweep(qchunk, bnd.clone());
                halo.send([&qchunk[..]], levels, cw);
                sweep(qchunk, int.clone());
                let (dst, ds) = match combine {
                    StageCombine::Ssp3 => (&mut qdp[q * lw..], tl),
                    _ => (&mut qstage[..], cw),
                };
                halo_sweep(halo, sched, gather, levels, [&*qchunk], cw, None, [dst], ds, limit)?;
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
        if let Err(e) = serial(self.step_on(&mut Halo::Serial, state, false)) {
            panic!("serial step failed: {e}");
        }
    }

    /// [`Dycore::step`] with in-step health guards: every RK stage is
    /// scanned for non-finite values and collapsed layers, and the step's
    /// advective CFL number is estimated afterwards. A CFL breach arms the
    /// degradation policy, so the next [`DegradePolicy::halve_dt_steps`]
    /// steps run as two `dt/2` substeps, each with the subcycle count of
    /// its own `dt/2`. With guards disabled this is exactly [`Dycore::step`].
    ///
    /// On `Err` the state may hold a partially advanced step and must be
    /// restored from a checkpoint before continuing. (An RK stage rejected
    /// at stages 1–4 leaves the state as the step found it; one rejected
    /// at stage 5 leaves the rejected `u_5` in it.)
    pub fn step_checked(&mut self, state: &mut State) -> Result<StepHealth, HealthError> {
        let guarded = self.health.enabled;
        serial(self.step_on(&mut Halo::Serial, state, guarded))
    }

    /// The one step body of every driver, its DSS gathers' off-rank sharers
    /// behind `halo`. Unguarded (`guarded = false`), it runs no stage scan,
    /// leaves the degradation countdown alone and reports
    /// [`StepHealth::unchecked`]. Guarded, it is [`Dycore::step_checked`]'s
    /// step; on a rank the report is rank-local, so a CFL breach does not
    /// arm the degradation policy here: ranks would diverge (each sees its
    /// own winds). The distributed driver reduces the verdict and calls
    /// [`Dycore::arm_degradation`] on every rank in lockstep.
    pub(crate) fn step_on(
        &mut self,
        halo: &mut Halo,
        state: &mut State,
        guarded: bool,
    ) -> Result<StepHealth, DistError> {
        let full_dt = self.cfg.dt;
        let degraded = guarded && self.degrade_pending > 0;
        self.degrade_pending -= usize::from(degraded);
        let splits = if degraded { 2 } else { 1 };
        let mut health = if guarded { StepHealth::begin() } else { StepHealth::unchecked() };
        health.degraded = degraded;
        self.cfg.dt = full_dt / splits as f64;
        for _ in 0..splits {
            let split = self
                .dynamics_step_guarded(halo, state, guarded.then_some(&mut health))
                .and_then(|()| self.apply_hypervis_on(halo, state, self.hypervis_subcycles()))
                .and_then(|()| self.euler_step_tracers_on(halo, state))
                .and_then(|()| {
                    if !guarded {
                        return Ok(());
                    }
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
        if guarded {
            // CFL is judged against the nominal dt: while winds stay too
            // fast for the full step, degraded (halved-dt) stepping keeps
            // re-arming.
            health.cfl = health.max_wind * full_dt / self.char_dx;
            if halo.is_serial() && health.cfl > self.health.cfl_limit {
                self.arm_degradation();
            }
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
        let Dycore { ops, rhs, dims, sched, ws, kernels, bops, gather, .. } = self;
        let StepWorkspace { stage, raw, workers, .. } = ws;
        let (kernels, nlev, fl) = (*kernels, dims.nlev, dims.field_len());
        let last = KG5_COEFFS.len() - 1;
        let (bnd, int) = halo.split(ops.len());
        for (i, &c) in KG5_COEFFS.iter().enumerate() {
            let eval = if i == 0 { state.dyn_fields() } else { stage.fields() };
            let (base, phis) = (state.dyn_fields(), &state.phis[..]);
            let mut rk = |raw: &mut DynFields, elems: Range<usize>| {
                let c_dt = c * dt;
                rk_rhs_sweep(kernels, ops, bops, rhs, sched, workers, base, eval, phis, c_dt, raw, elems)
            };
            rk(raw, bnd.clone());
            halo.send(raw.fields(), nlev, fl);
            rk(raw, int.clone());
            let dst = if i == last { state.dyn_fields_mut() } else { stage.fields_mut() };
            halo_sweep(halo, sched, gather, nlev, raw.fields(), fl, None, dst, fl, |_, _| {})?;
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
    /// Checkpoints record this so a replay takes the run's `dt` path.
    pub fn degrade_pending(&self) -> usize {
        self.degrade_pending
    }

    /// Restore the degradation countdown (checkpoint restart, rollback).
    pub fn set_degrade_pending(&mut self, steps: usize) {
        self.degrade_pending = steps;
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
/// read an arena it writes.
///
/// The one exchange of `src` behind `halo` completes around the sweep. The
/// original schedule exchanges now (every element is computed); then the
/// interior elements, which have no ghost sharers, are gathered while the
/// redesigned schedule's messages fly; then the boundary elements, reading
/// their ghosts in place from the landed messages. On one rank this is one
/// sweep over every element.
///
/// # Panics
/// If a source or destination arena is shorter than the sweep reaches
/// ([`DssGather::span`]), or a window is wider than its element's stride.
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

/// The gather sweep of [`halo_sweep`] over the elements `elems`.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)]
fn sweep_elems<const F: usize>(
    sched: &ElemScheduler,
    gather: &DssGather,
    elems: Range<usize>,
    levels: usize,
    src: [&[f64]; F],
    sstride: usize,
    coefs: Option<[&[f64]; F]>,
    dst: &mut [&mut [f64]; F],
    dstride: usize,
    ghost: impl Fn(usize, usize, usize) -> f64 + Sync,
    then: &(impl Fn(usize, [&mut [f64]; F]) + Sync),
) {
    assert!(src.iter().all(|s| s.len() >= gather.span(levels, sstride)), "halo_sweep: short source");
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

/// The RHS sweep of one RK stage over the elements `elems`:
/// `raw = base + c dt RHS(eval)` per element, pre-DSS, by the kernel set's
/// element kernel ([`element_rhs_apply_blocked`] or its scalar twin
/// [`element_rhs_apply`]) on the scheduler with per-worker scratch. The
/// caller assembles `raw` with a gather sweep.
#[allow(clippy::too_many_arguments)]
fn rk_rhs_sweep(
    kernels: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    rhs: &Rhs,
    sched: &ElemScheduler,
    workers: &mut PerWorker<WorkerScratch>,
    base: [&[f64]; 4],
    eval: [&[f64]; 4],
    phis: &[f64],
    c_dt: f64,
    raw: &mut DynFields,
    elems: Range<usize>,
) {
    let nlev = rhs.dims.nlev;
    let fl = nlev * NPTS;
    let ptop = rhs.vert.ptop();
    let out = raw.fields_mut().map(|o| Arena::new(o, fl, fl));
    sched.run_windows(elems, (workers, out), |e, (scratch, [ou, ov, ot, odp])| {
        let r = e * fl..(e + 1) * fl;
        let [eu, ev, et, edp] = eval.map(|f| &f[r.clone()]);
        let [bu, bv, bt, bdp] = base.map(|f| &f[r.clone()]);
        let ph = &phis[e * NPTS..(e + 1) * NPTS];
        let s = &mut scratch.rhs;
        match kernels {
            KernelPath::Blocked => element_rhs_apply_blocked(
                &bops[e], nlev, ptop, eu, ev, et, edp, ph, bu, bv, bt, bdp, c_dt, ou, ov, ot, odp, s,
            ),
            KernelPath::Scalar => element_rhs_apply(
                &ops[e], nlev, ptop, eu, ev, et, edp, ph, bu, bv, bt, bdp, c_dt, ou, ov, ot, odp, s,
            ),
        }
    });
}

/// Copy each source window into its destination window: the staging of a
/// scalar kernel that runs in place where its blocked twin runs out of
/// place.
fn copy_windows<const F: usize>(dst: [&mut [f64]; F], src: [&[f64]; F]) {
    for (d, s) in dst.into_iter().zip(src) {
        d.copy_from_slice(s);
    }
}

/// The one-rank result of a stage-loop call: a one-rank halo never
/// exchanges, so only a health verdict can fail it.
fn serial<T>(r: Result<T, DistError>) -> Result<T, HealthError> {
    r.map_err(|e| match e {
        DistError::Health(h) => h,
        DistError::Comm(c) => unreachable!("a one-rank step exchanged a message: {c}"),
    })
}

/// The contract of the member loops: strictly increasing indices into
/// `states`, at most `ens.lanes()` of them.
///
/// # Panics
/// If `members` breaks it.
fn check_members(states: &[State], members: &[usize], ens: &EnsembleWorkspace) {
    assert!(members.len() <= ens.lanes(), "more members than ensemble lanes");
    assert!(
        members.windows(2).all(|w| w[0] < w[1]) && members.last().is_none_or(|&m| m < states.len()),
        "members must be strictly increasing indices into states"
    );
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

    /// The member hypervis loop is bitwise identical to the single-member
    /// path run member by member, across batch shapes (1 to 5 members) and
    /// with the sponge active.
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

        for n in [1usize, 2, 3, 4, 5] {
            let mut expect = make_members(&dy, n);
            for st in expect.iter_mut() {
                dy.apply_hypervis_n(st, subcycles).unwrap();
            }

            let mut got = make_members(&dy, n);
            let members: Vec<usize> = (0..n).collect();
            let mut ens = EnsembleWorkspace::new(dims, dy.ops.len(), n);
            dy.apply_hypervis_members(&mut got, &members, &mut ens, subcycles).unwrap();

            for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(e.max_abs_diff(g), 0.0, "n={n} member={m} diverged");
            }
        }
    }

    /// The member RK loop is bitwise identical to the standalone
    /// [`Dycore::dynamics_step`] run member by member, across batch shapes
    /// (1 to 5 members).
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

        for n in [1usize, 2, 3, 4, 5] {
            let mut expect = make_members(&dy, n);
            for st in expect.iter_mut() {
                dy.dynamics_step(st);
            }

            let mut got = make_members(&dy, n);
            let members: Vec<usize> = (0..n).collect();
            let mut ens = EnsembleWorkspace::new(dims, dy.ops.len(), n);
            dy.dynamics_step_members(&mut got, &members, &mut ens);

            for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(e.max_abs_diff(g), 0.0, "n={n} member={m} diverged");
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

    /// No phase reads a workspace arena it did not write in that phase:
    /// filling both `raw` and `stage` with NaN before every phase leaves
    /// three full steps bitwise unchanged — with the sponge,
    /// hyperviscosity, the limiter and a full plus a ragged tracer chunk,
    /// for both kernel sets at 1 and 3 workers.
    #[test]
    fn poisoned_arenas_at_phase_boundaries_change_no_bit() {
        let dims = Dims { nlev: 5, qsize: 6 };
        let mut cfg = DycoreConfig::for_ne(3);
        cfg.hypervis.sponge_layers = 2;
        cfg.hypervis.nu_top = 2.5e5;
        assert!(cfg.hypervis.nu > 0.0 && cfg.limiter && cfg.rsplit == 1);
        let bits = |st: &State| -> Vec<u64> {
            [&st.u, &st.v, &st.t, &st.dp3d, &st.qdp].iter().flat_map(|f| f.iter().map(|x| x.to_bits())).collect()
        };
        for kernels in [KernelPath::Blocked, KernelPath::Scalar] {
            for threads in [1usize, 3] {
                let run = |poison: bool| -> State {
                    let mut dy = Dycore::new(3, dims, 200.0, cfg);
                    dy.kernels = kernels;
                    dy.set_threads(threads);
                    let mut st = resting_state(&dy);
                    for (i, t) in st.t.iter_mut().enumerate() {
                        *t += ((i % 7) as f64 - 3.0) * 0.5;
                    }
                    // Signed tracer noise, so the limiter has work to do.
                    for (i, q) in st.qdp.iter_mut().enumerate() {
                        *q *= ((i * 37) % 11) as f64 / 5.0 - 0.3;
                    }
                    let poisoned = |dy: &mut Dycore| {
                        if poison {
                            dy.ws.raw.whole_mut().fill(f64::NAN);
                            dy.ws.stage.whole_mut().fill(f64::NAN);
                        }
                    };
                    for _ in 0..3 {
                        if poison {
                            poisoned(&mut dy);
                            dy.dynamics_step(&mut st);
                            poisoned(&mut dy);
                            dy.apply_hypervis(&mut st).expect("plan accepted");
                            poisoned(&mut dy);
                            dy.euler_step_tracers(&mut st);
                            poisoned(&mut dy);
                            dy.vertical_remap(&mut st).expect("columns intact");
                        } else {
                            dy.step(&mut st);
                        }
                    }
                    st
                };
                let (clean, poisoned) = (run(false), run(true));
                assert!(clean.qdp.iter().any(|&q| q > 0.0), "tracers did nothing");
                assert!(bits(&clean) == bits(&poisoned), "{kernels:?} threads={threads}: a phase read a stale arena");
            }
        }
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
