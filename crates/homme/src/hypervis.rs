//! Horizontal dissipation: the `hypervis_dp1` / `hypervis_dp2` /
//! `biharmonic_dp3d` kernels of Table 1.
//!
//! CAM-SE stabilizes the spectral-element discretization with scale-
//! selective hyperviscosity: `df/dt = -nu lap^2(f)` applied (subcycled) to
//! `u, v, T, dp3d`. The building blocks are the element Laplacian
//! ([`crate::deriv::ElemOps::laplace_sphere`]) and a DSS between the two
//! Laplacian applications — the "weak biharmonic operator". A plain
//! Laplacian viscosity (`hypervis_dp1` in the paper's kernel table) is also
//! provided.

use crate::deriv::{build_ops, ElemOps};
use crate::dss::Dss;
use crate::kernels::blocked::{
    laplace_levels_blocked, vlaplace_levels_blocked, BlockedOps, KernelPath,
};
use crate::sched::{Arena, ElemScheduler};
use cubesphere::{CubedSphere, Element, NPTS};

/// Floor on the smallest GLL gap, in **meters**.
///
/// [`min_gll_gap`] is the denominator of the drivers' advective CFL
/// estimate; a degenerate metric (zero or NaN `metdet`, a collapsed element
/// of a synthetic test grid) would otherwise zero it. One meter is ~5
/// orders of magnitude below any physical GLL spacing this model resolves
/// (ne120 is ~25 km), so the floor is inert on real grids and only guards
/// the degenerate ones.
pub const MIN_GLL_GAP_METERS: f64 = 1.0;

/// Smallest GLL gap of an element, in meters: `|x1 - x0| = 1 - 1/sqrt(5)`
/// on `[-1, 1]`, scaled by the element's half-width `dab/2` and the length
/// per unit angle `sqrt(metdet)` at its first node, floored at
/// [`MIN_GLL_GAP_METERS`]. The serial and distributed drivers both take
/// their CFL length scale from this on global element 0, so every rank
/// judges CFL identically.
pub fn min_gll_gap(el: &Element) -> f64 {
    let ref_gap = 1.0 - 1.0 / 5.0_f64.sqrt();
    (ref_gap * 0.5 * el.dab * el.metric[0].metdet.sqrt()).max(MIN_GLL_GAP_METERS)
}

/// Forward-Euler stability limit of one damping subcycle: a mode with
/// `nu * lambda^2 * dt_sub` above this has a per-subcycle factor
/// `1 - nu lambda^2 dt_sub` below `-1` and grows without bound.
pub const EULER_LIMIT: f64 = 2.0;

/// Target `nu * lambda_max^2 * dt_sub` the derived subcycle count aims at:
/// every mode's per-subcycle factor stays in `[0, 1]` (monotone decay, no
/// sign-flipping of the grid-scale modes), a factor 2 inside
/// [`EULER_LIMIT`]. The one safety constant of the count.
pub const SUBCYCLE_TARGET: f64 = 1.0;

/// Successive-estimate relative change at which the power iteration of
/// [`laplacian_lambda_max`] stops.
const LAMBDA_TOL: f64 = 1.0e-4;

/// Margin on the stopped estimate. Power iteration approaches `lambda_max`
/// from below; at the [`LAMBDA_TOL`] stop it measured 0.03% short of the
/// 3000-iteration value at ne 4 / 8 / 16 / 30, and the rigorous
/// element-local ceiling sits 0.5-1.2% above that (DESIGN.md §5.7), so
/// 0.2% covers the approach without leaving the bracket.
const LAMBDA_MARGIN: f64 = 1.002;

/// Iteration cap: a NaN metric never satisfies the stop criterion.
const LAMBDA_MAX_ITERS: usize = 200;

/// Largest eigenvalue magnitude, in m^-2, of the assembled one-level
/// Laplacian the hyperviscosity step applies to `(T, u, v)`: the scalar
/// weak Laplacian ([`ElemOps::laplace_sphere_wk`] + DSS, on T and dp3d)
/// beside the vector Laplacian ([`ElemOps::vlaplace_sphere`] + DSS, on the
/// wind). The biharmonic operator is that applied twice, so its stiffest
/// mode decays at `nu * lambda_max^2`.
///
/// One power iteration on the three-component field — it converges to
/// whichever block holds the larger eigenvalue (the scalar one on every
/// cubed sphere measured; the vector block's is ~0.33 of it) — over the
/// **global** grid in the mass (`spheremp`) norm, from a fixed
/// pseudo-random start: serial, deterministic and free of communication,
/// so the serial driver and every rank of every partition compute the
/// identical bits. The estimate `|A x| / |x|` approaches `lambda_max` from
/// below; the iteration stops when it moves by less than 1e-4 relative
/// (`LAMBDA_TOL`; 20-35 iterations at ne4..ne30) and the result carries a
/// 0.2% margin (`LAMBDA_MARGIN`) for the remaining approach.
pub fn laplacian_lambda_max(grid: &CubedSphere) -> f64 {
    /// Components of the iterate: T, u, v.
    const F: usize = 3;
    let ops = build_ops(grid);
    let mut dss = Dss::new(grid);
    // xorshift noise has a component along every mode; the DSS makes it
    // continuous. Layout `[nelem][F][NPTS]`: the components ride the DSS
    // as levels.
    let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
    let mut x: Vec<f64> = (0..ops.len() * F * NPTS)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    dss.apply_flat(&mut x, F);
    let norm = |x: &[f64]| -> f64 {
        let mut sum = 0.0;
        for (op, xe) in ops.iter().zip(x.chunks_exact(F * NPTS)) {
            for xf in xe.chunks_exact(NPTS) {
                for (w, v) in op.spheremp.iter().zip(xf) {
                    sum += w * v * v;
                }
            }
        }
        sum.sqrt()
    };
    // `size` is |x|; each pass stores A x / |x|, whose norm is both the
    // estimate and the next pass's |x|.
    let mut size = norm(&x);
    let mut lambda = 0.0;
    for _ in 0..LAMBDA_MAX_ITERS {
        let scale = 1.0 / size;
        for (op, xe) in ops.iter().zip(x.chunks_exact_mut(F * NPTS)) {
            let mut out = [[0.0; NPTS]; F];
            let [lt, lu, lv] = &mut out;
            op.laplace_sphere_wk(&xe[..NPTS], lt);
            op.vlaplace_sphere(&xe[NPTS..2 * NPTS], &xe[2 * NPTS..], lu, lv);
            for (v, o) in xe.iter_mut().zip(out.as_flattened()) {
                *v = o * scale;
            }
        }
        dss.apply_flat(&mut x, F);
        size = norm(&x);
        let converged = (size - lambda).abs() <= LAMBDA_TOL * size;
        lambda = size;
        if converged {
            break;
        }
    }
    lambda * LAMBDA_MARGIN
}

/// Hyperviscosity configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypervisConfig {
    /// Biharmonic coefficient for momentum and temperature, m^4/s.
    pub nu: f64,
    /// Biharmonic coefficient for `dp3d`, m^4/s.
    pub nu_p: f64,
    /// **Floor** on the subcycles per dynamics step: the drivers run
    /// [`HypervisConfig::subcycles_for`], which never goes below this.
    /// HOMME's production `hypervis_subcycle = 3`.
    pub subcycles: usize,
    /// Sponge-layer Laplacian coefficient applied to the top layers,
    /// m^2/s (HOMME's `nu_top`; damps vertically-propagating waves that
    /// would otherwise reflect off the model top).
    pub nu_top: f64,
    /// Number of top layers the sponge covers.
    pub sponge_layers: usize,
}

impl HypervisConfig {
    /// CAM's resolution scaling: `nu = 1e15 (30/ne)^3.2` m^4/s, with
    /// HOMME's production floor of 3 subcycles — which is also what the
    /// measured operator asks for at `DycoreConfig::for_ne`'s time step at
    /// every resolution (`nu lambda_max^2 dt` is 2.3 / 1.9 / 1.7 / 1.4 at
    /// ne 4 / 8 / 16 / 30).
    pub fn for_ne(ne: usize) -> Self {
        let nu = 1.0e15 * (30.0 / ne as f64).powf(3.2);
        HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 3 }
    }

    /// Disabled dissipation (for steady-state tests).
    pub fn off() -> Self {
        HypervisConfig { nu: 0.0, nu_p: 0.0, subcycles: 1, nu_top: 0.0, sponge_layers: 0 }
    }

    /// `nu * lambda_max^2 * dt` of the stiffest mode of the stiffest field:
    /// the forward-Euler damping number of an un-subcycled step.
    fn damping_number(&self, lambda_max: f64, dt: f64) -> f64 {
        self.nu.max(self.nu_p) * lambda_max * lambda_max * dt
    }

    /// The subcycle count of a `dt` step on a grid whose assembled
    /// Laplacian has largest eigenvalue `lambda_max`
    /// ([`laplacian_lambda_max`]): enough that
    /// `nu lambda_max^2 dt / n <= `[`SUBCYCLE_TARGET`], and never below the
    /// configured floor. The one place a count is derived — both drivers,
    /// the degradation path and the ensemble engine read it.
    pub fn subcycles_for(&self, lambda_max: f64, dt: f64) -> usize {
        // A NaN damping number (corrupt dt or metric) casts to 0 and falls
        // to the floor; the plan build then rejects the step by type.
        let needed = (self.damping_number(lambda_max, dt) / SUBCYCLE_TARGET).ceil() as usize;
        needed.max(self.subcycles).max(1)
    }

    /// The numbers behind [`HypervisConfig::subcycles_for`], for a run to
    /// print once at start-up.
    pub fn stability(&self, lambda_max: f64, dt: f64) -> HypervisStability {
        HypervisStability {
            lambda_max,
            nu_lambda2_dt: self.damping_number(lambda_max, dt),
            subcycles: self.subcycles_for(lambda_max, dt),
        }
    }
}

/// Why a driver runs the subcycle count it runs
/// ([`crate::prim::Dycore::hypervis_stability`] and the distributed twin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypervisStability {
    /// Largest eigenvalue of the grid's assembled Laplacian, m^-2
    /// ([`laplacian_lambda_max`]).
    pub lambda_max: f64,
    /// `max(nu, nu_p) * lambda_max^2 * dt`: the forward-Euler damping
    /// number of the stiffest mode over one un-subcycled step.
    pub nu_lambda2_dt: f64,
    /// Subcycles the driver runs: `ceil(nu_lambda2_dt / `[`SUBCYCLE_TARGET`]`)`,
    /// floored at [`HypervisConfig::subcycles`].
    pub subcycles: usize,
}

impl std::fmt::Display for HypervisStability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hypervis: lambda_max {:.4e} m^-2, nu*lambda_max^2*dt {:.3} (forward-Euler limit \
             {EULER_LIMIT}, target {SUBCYCLE_TARGET} a subcycle) -> {} subcycles",
            self.lambda_max, self.nu_lambda2_dt, self.subcycles
        )
    }
}

/// Why a hyperviscosity plan build rejected the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HypervisError {
    /// An element's metric tables are unusable (non-finite or non-positive
    /// `metdet`/`rmetdet`/`spheremp` at the given GLL point) — the fused
    /// sweeps would silently propagate garbage through every field.
    BadGeometry { elem: usize, point: usize },
    /// A step coefficient (`dt_sub * nu`, `dt * nu_top`, ...) came out
    /// non-finite, e.g. from a NaN timestep after a corrupted rollback.
    NonFiniteCoef { coef: f64 },
    /// The explicit subcycle count puts `nu lambda_max^2 dt / requested`
    /// past [`EULER_LIMIT`]: the stiffest mode would grow every subcycle.
    /// `needed` is what [`HypervisConfig::subcycles_for`] asks for.
    UnstableSubcycles { requested: usize, needed: usize },
}

impl std::fmt::Display for HypervisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypervisError::BadGeometry { elem, point } => write!(
                f,
                "hyperviscosity plan rejected element {elem}: degenerate metric at GLL point {point}"
            ),
            HypervisError::NonFiniteCoef { coef } => {
                write!(f, "hyperviscosity plan rejected non-finite step coefficient {coef}")
            }
            HypervisError::UnstableSubcycles { requested, needed } => write!(
                f,
                "hyperviscosity plan rejected {requested} subcycles: past the forward-Euler \
                 limit of the measured operator, which needs {needed}"
            ),
        }
    }
}

impl std::error::Error for HypervisError {}

/// Per-step hyperviscosity plan: every coefficient the subcycle loop and
/// the sponge apply need, hoisted out of the sweeps and validated once.
///
/// The paper's Table-1 hypervis kernels earn their speedup from data reuse
/// across the two Laplacian passes and the coefficient applies; the host
/// analogue is this plan plus the fused kernels in
/// [`crate::kernels::blocked`]. The geometry itself already lives hoisted
/// in [`BlockedOps`]; what the plan adds is
///
/// * the forward-Euler damping coefficients per level, **negated** so the
///   fused DSS-and-apply sweep ([`crate::dss::DssGather::gather_elem`]) is a
///   single `+=` for both the subcycle applies (`x -= c*l  ==  x += (-c)*l`
///   bitwise — IEEE negation of the exact product) and the sponge,
/// * the per-layer sponge coefficients `(dt*nu_top) * 2^-k`, and
/// * a fail-fast validation pass over the step coefficients and every
///   element's metric rows, so a corrupt element rejects the step through
///   the typed-error rollback path instead of poisoning the trajectory.
///
/// Buffers are presized by [`ElemHypervisPlan::new`]; a steady-state
/// [`ElemHypervisPlan::build`] never allocates.
#[derive(Debug, Clone)]
pub struct ElemHypervisPlan {
    /// Subcycle count the coefficients were built for.
    pub subcycles: usize,
    /// Clamped sponge depth `sponge_layers.min(nlev)`.
    pub ks: usize,
    /// `dt_sub * nu` (u, v, T applies — the drivers' hoisted form).
    pub coef_u: f64,
    /// `dt_sub * nu_p` (dp3d apply).
    pub coef_dp: f64,
    /// Per-level `-(dt_sub * nu)` for the fused `+=` apply, `[nlev]`.
    pub damp_u: Vec<f64>,
    /// Per-level `-(dt_sub * nu_p)`, `[nlev]`.
    pub damp_dp: Vec<f64>,
    /// Per-layer sponge coefficient `(dt * nu_top) * 2^-k`, `[ks]`.
    pub sponge: Vec<f64>,
}

impl ElemHypervisPlan {
    /// Presize for a problem shape (allocates; `build` then never does).
    pub fn new(nlev: usize, sponge_layers: usize) -> Self {
        ElemHypervisPlan {
            subcycles: 0,
            ks: sponge_layers.min(nlev),
            coef_u: 0.0,
            coef_dp: 0.0,
            damp_u: vec![0.0; nlev],
            damp_dp: vec![0.0; nlev],
            sponge: vec![0.0; sponge_layers.min(nlev)],
        }
    }

    /// Build the step coefficients and validate the subcycle count against
    /// the grid's `lambda_max` ([`laplacian_lambda_max`]) and the geometry.
    /// Grow-only on the presized buffers; steady-state rebuilds are
    /// allocation-free.
    pub fn build(
        &mut self,
        hv: &HypervisConfig,
        dt: f64,
        subcycles: usize,
        lambda_max: f64,
        nlev: usize,
        ops: &[ElemOps],
    ) -> Result<(), HypervisError> {
        let dt_sub = dt / subcycles as f64;
        let coef_u = dt_sub * hv.nu;
        let coef_dp = dt_sub * hv.nu_p;
        let sponge0 = dt * hv.nu_top;
        for coef in [coef_u, coef_dp, sponge0] {
            if !coef.is_finite() {
                return Err(HypervisError::NonFiniteCoef { coef });
            }
        }
        if hv.damping_number(lambda_max, dt) / subcycles as f64 > EULER_LIMIT {
            return Err(HypervisError::UnstableSubcycles {
                requested: subcycles,
                needed: hv.subcycles_for(lambda_max, dt),
            });
        }
        // The fused sweeps divide by spheremp and multiply by
        // metdet/rmetdet in every walk; reject any element whose metric
        // rows could turn the whole-step sweep into NaN soup — NaN as
        // well as zero/negative.
        let bad = |x: f64| x.is_nan() || x <= 0.0;
        for (e, op) in ops.iter().enumerate() {
            for p in 0..NPTS {
                if bad(op.metdet[p]) || bad(op.rmetdet[p]) || bad(op.spheremp[p]) {
                    return Err(HypervisError::BadGeometry { elem: e, point: p });
                }
            }
        }
        self.subcycles = subcycles;
        self.ks = hv.sponge_layers.min(nlev);
        self.coef_u = coef_u;
        self.coef_dp = coef_dp;
        if self.damp_u.len() < nlev {
            self.damp_u.resize(nlev, 0.0);
            self.damp_dp.resize(nlev, 0.0);
        }
        for k in 0..nlev {
            self.damp_u[k] = -coef_u;
            self.damp_dp[k] = -coef_dp;
        }
        if self.sponge.len() < self.ks {
            self.sponge.resize(self.ks, 0.0);
        }
        for (k, c) in self.sponge[..self.ks].iter_mut().enumerate() {
            *c = sponge0 * (1.0 / (1u64 << k) as f64);
        }
        Ok(())
    }

    /// Per-level negated damping tables for the `[u, v, t, dp3d]` quartet
    /// of the fused DSS-and-apply sweep.
    pub fn damp(&self) -> [&[f64]; 4] {
        [&self.damp_u, &self.damp_u, &self.damp_u, &self.damp_dp]
    }
}

/// In-place `lap(f)` per element level with DSS, using the weak-form
/// (Galerkin) Laplacian [`ElemOps::laplace_sphere_wk`]: conservative to
/// round-off, which is what makes the subcycled `dp3d` dissipation
/// mass-conserving. `fields[e]` is `[nlev][NPTS]`.
pub fn laplace_fields(ops: &[ElemOps], dss: &mut Dss, nlev: usize, fields: &mut [Vec<f64>]) {
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lap = [0.0; NPTS];
            op.laplace_sphere_wk(&fields[e][r.clone()], &mut lap);
            fields[e][r].copy_from_slice(&lap);
        }
    }
    dss.apply(fields, nlev);
}

/// In-place weak biharmonic `lap(lap(f))` with DSS after each Laplacian —
/// the paper's `biharmonic_dp3d` kernel when applied to `dp3d`.
pub fn biharmonic_fields(ops: &[ElemOps], dss: &mut Dss, nlev: usize, fields: &mut [Vec<f64>]) {
    laplace_fields(ops, dss, nlev, fields);
    laplace_fields(ops, dss, nlev, fields);
}

/// In-place vector Laplacian with DSS for `(u, v)` per level.
pub fn vlaplace_fields(
    ops: &[ElemOps],
    dss: &mut Dss,
    nlev: usize,
    u: &mut [Vec<f64>],
    v: &mut [Vec<f64>],
) {
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lu = [0.0; NPTS];
            let mut lv = [0.0; NPTS];
            op.vlaplace_sphere(&u[e][r.clone()], &v[e][r.clone()], &mut lu, &mut lv);
            u[e][r.clone()].copy_from_slice(&lu);
            v[e][r].copy_from_slice(&lv);
        }
    }
    dss.apply(u, nlev);
    dss.apply(v, nlev);
}

/// Flat-arena `lap(f)` with DSS: `field` is one `[nelem][nlev][NPTS]`
/// buffer (the state-arena layout). Element Laplacians run across the
/// scheduler's workers, then the serial scatter DSS (this is the scalar
/// oracle's form; the blocked step assembles element-parallel instead).
/// Identical arithmetic to [`laplace_fields`], allocation-free.
pub fn laplace_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    let fl = nlev * NPTS;
    sched.run_windows(0..ops.len(), Arena::new(field, fl, fl), |e, f| {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lap = [0.0; NPTS];
            ops[e].laplace_sphere_wk(&f[r.clone()], &mut lap);
            f[r].copy_from_slice(&lap);
        }
    });
    dss.apply_flat(field, nlev);
}

/// Flat-arena weak biharmonic `lap(lap(f))` with DSS after each Laplacian.
pub fn biharmonic_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    laplace_flat(ops, dss, sched, nlev, field);
    laplace_flat(ops, dss, sched, nlev, field);
}

/// Flat-arena vector Laplacian with DSS for `(u, v)` per level.
pub fn vlaplace_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    u: &mut [f64],
    v: &mut [f64],
) {
    let fl = nlev * NPTS;
    let uv = [Arena::new(&mut *u, fl, fl), Arena::new(&mut *v, fl, fl)];
    sched.run_windows(0..ops.len(), uv, |e, [ue, ve]| {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lu = [0.0; NPTS];
            let mut lv = [0.0; NPTS];
            ops[e].vlaplace_sphere(&ue[r.clone()], &ve[r.clone()], &mut lu, &mut lv);
            ue[r.clone()].copy_from_slice(&lu);
            ve[r].copy_from_slice(&lv);
        }
    });
    dss.apply_flat(u, nlev);
    dss.apply_flat(v, nlev);
}

/// Blocked flat-arena `lap(f)` with DSS — the 4-wide image of
/// [`laplace_flat`], bitwise identical to it.
pub fn laplace_flat_blocked(
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    let fl = nlev * NPTS;
    sched.run_windows(0..bops.len(), Arena::new(field, fl, fl), |e, f| {
        laplace_levels_blocked(&bops[e], nlev, f)
    });
    dss.apply_flat(field, nlev);
}

/// Blocked flat-arena weak biharmonic with DSS after each Laplacian.
pub fn biharmonic_flat_blocked(
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    laplace_flat_blocked(bops, dss, sched, nlev, field);
    laplace_flat_blocked(bops, dss, sched, nlev, field);
}

/// Blocked flat-arena vector Laplacian with DSS for `(u, v)` per level.
pub fn vlaplace_flat_blocked(
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    u: &mut [f64],
    v: &mut [f64],
) {
    let fl = nlev * NPTS;
    let uv = [Arena::new(&mut *u, fl, fl), Arena::new(&mut *v, fl, fl)];
    sched.run_windows(0..bops.len(), uv, |e, [ue, ve]| {
        vlaplace_levels_blocked(&bops[e], nlev, ue, ve)
    });
    dss.apply_flat(u, nlev);
    dss.apply_flat(v, nlev);
}

/// Dispatch `lap(f)` to the scalar or blocked flat path.
#[allow(clippy::too_many_arguments)]
pub fn laplace_flat_path(
    path: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    match path {
        KernelPath::Scalar => laplace_flat(ops, dss, sched, nlev, field),
        KernelPath::Blocked => laplace_flat_blocked(bops, dss, sched, nlev, field),
    }
}

/// Dispatch the weak biharmonic to the scalar or blocked flat path.
#[allow(clippy::too_many_arguments)]
pub fn biharmonic_flat_path(
    path: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    match path {
        KernelPath::Scalar => biharmonic_flat(ops, dss, sched, nlev, field),
        KernelPath::Blocked => biharmonic_flat_blocked(bops, dss, sched, nlev, field),
    }
}

/// Dispatch the vector Laplacian to the scalar or blocked flat path.
#[allow(clippy::too_many_arguments)]
pub fn vlaplace_flat_path(
    path: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    u: &mut [f64],
    v: &mut [f64],
) {
    match path {
        KernelPath::Scalar => vlaplace_flat(ops, dss, sched, nlev, u, v),
        KernelPath::Blocked => vlaplace_flat_blocked(bops, dss, sched, nlev, u, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_of(grid: &CubedSphere, f: impl Fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        grid.elements
            .iter()
            .map(|el| el.metric.iter().map(|m| f(m.lat, m.lon)).collect())
            .collect()
    }

    #[test]
    fn laplace_of_constant_is_zero() {
        let grid = CubedSphere::new(3);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut fields = field_of(&grid, |_, _| 4.2);
        laplace_fields(&ops, &mut dss, 1, &mut fields);
        for f in &fields {
            for &x in f {
                assert!(x.abs() < 1e-15);
            }
        }
    }

    #[test]
    fn laplacian_conserves_the_global_integral() {
        // integral of lap(f) over the closed sphere is zero.
        let grid = CubedSphere::new(4);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut fields = field_of(&grid, |lat, lon| lat.sin() * (2.0 * lon).cos() + 0.3);
        laplace_fields(&ops, &mut dss, 1, &mut fields);
        let integral = grid.global_integral(&fields);
        let area = grid.total_area();
        assert!(
            (integral / area).abs() < 1e-15,
            "mean of lap = {}",
            integral / area
        );
    }

    #[test]
    fn biharmonic_damps_high_wavenumbers_more() {
        // lap^2 of Y_l scales as (l(l+1)/a^2)^2: the l=4 harmonic must come
        // back with a much larger amplitude ratio than l=1.
        let grid = CubedSphere::new(6);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut ratio = |l: i32| -> f64 {
            let f = |lat: f64, lon: f64| (l as f64 * lon).cos() * lat.cos().powi(l);
            let mut fields = field_of(&grid, f);
            let before: f64 =
                fields.iter().flat_map(|v| v.iter()).map(|x| x * x).sum::<f64>().sqrt();
            biharmonic_fields(&ops, &mut dss, 1, &mut fields);
            let after: f64 =
                fields.iter().flat_map(|v| v.iter()).map(|x| x * x).sum::<f64>().sqrt();
            after / before
        };
        let r1 = ratio(1);
        let r4 = ratio(4);
        // (4*5 / 1*2)^2 = 100; allow generous slack for the cos^l proxy.
        assert!(r4 > 20.0 * r1, "r1 = {r1}, r4 = {r4}");
    }

    #[test]
    fn flat_operators_match_per_element_operators() {
        let grid = CubedSphere::new(3);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let sched = ElemScheduler::new(4);
        let nlev = 2;
        let per_elem: Vec<Vec<f64>> = grid
            .elements
            .iter()
            .enumerate()
            .map(|(e, el)| {
                (0..nlev)
                    .flat_map(|k| {
                        el.metric
                            .iter()
                            .map(move |m| (m.lat * (k + 1) as f64).sin() * m.lon.cos() + e as f64 * 1e-3)
                            .collect::<Vec<_>>()
                    })
                    .collect()
            })
            .collect();
        let flat0: Vec<f64> = per_elem.iter().flatten().copied().collect();

        let mut a = per_elem.clone();
        let mut b = flat0.clone();
        biharmonic_fields(&ops, &mut dss, nlev, &mut a);
        biharmonic_flat(&ops, &mut dss, &sched, nlev, &mut b);
        for (e, ae) in a.iter().enumerate() {
            assert_eq!(ae.as_slice(), &b[e * nlev * NPTS..(e + 1) * nlev * NPTS], "biharm e={e}");
        }

        let mut u1 = per_elem.clone();
        let mut v1: Vec<Vec<f64>> = per_elem.iter().map(|f| f.iter().map(|x| -x).collect()).collect();
        let mut u2 = flat0.clone();
        let mut v2: Vec<f64> = flat0.iter().map(|x| -x).collect();
        vlaplace_fields(&ops, &mut dss, nlev, &mut u1, &mut v1);
        vlaplace_flat(&ops, &mut dss, &sched, nlev, &mut u2, &mut v2);
        for (e, (ue, ve)) in u1.iter().zip(&v1).enumerate() {
            assert_eq!(ue.as_slice(), &u2[e * nlev * NPTS..(e + 1) * nlev * NPTS], "vlap u e={e}");
            assert_eq!(ve.as_slice(), &v2[e * nlev * NPTS..(e + 1) * nlev * NPTS], "vlap v e={e}");
        }
    }

    #[test]
    fn config_scaling_matches_cam() {
        let ne30 = HypervisConfig::for_ne(30);
        assert!((ne30.nu - 1.0e15).abs() < 1e9);
        let ne120 = HypervisConfig::for_ne(120);
        // (30/120)^3.2 ~ 0.0117.
        assert!((ne120.nu / 1.0e15 - 0.25f64.powf(3.2)).abs() < 1e-6);
        assert!(ne120.nu < ne30.nu);
        let off = HypervisConfig::off();
        assert_eq!(off.nu, 0.0);
    }

    #[test]
    fn subcycle_count_is_the_damping_number_rounded_up_over_the_floor() {
        let hv = HypervisConfig { nu: 1.0e15, nu_p: 2.0e15, ..HypervisConfig::for_ne(30) };
        let dt = 300.0;
        // The stiffer of the two coefficients decides: nu_p lambda^2 dt = 6.5.
        let lambda = (6.5 / (hv.nu_p * dt)).sqrt();
        assert_eq!(hv.subcycles_for(lambda, dt), 7);
        assert_eq!(hv.subcycles_for(lambda, dt / 2.0), 4);
        assert_eq!(hv.subcycles_for(0.1 * lambda, dt), 3, "the floor");
        assert_eq!(HypervisConfig::off().subcycles_for(lambda, dt), 1);
        assert_eq!(hv.subcycles_for(f64::NAN, dt), 3, "a NaN measurement falls to the floor");
        let s = hv.stability(lambda, dt);
        assert!((s.nu_lambda2_dt - 6.5).abs() < 1e-12 && s.subcycles == 7, "{s}");
    }

    #[test]
    fn plan_rejects_a_count_past_the_forward_euler_limit() {
        let grid = CubedSphere::new(2);
        let ops = build_ops(&grid);
        let hv = HypervisConfig::for_ne(30);
        let dt = 300.0;
        let lambda = (6.5 / (hv.nu * dt)).sqrt();
        let mut plan = ElemHypervisPlan::new(4, hv.sponge_layers);
        // 6.5 / 3 > 2: the top mode would grow; 6.5 / 4 < 2 is accepted
        // (oscillating decay — the caller asked for it explicitly).
        assert_eq!(
            plan.build(&hv, dt, 3, lambda, 4, &ops),
            Err(HypervisError::UnstableSubcycles { requested: 3, needed: 7 })
        );
        assert_eq!(plan.build(&hv, dt, 4, lambda, 4, &ops), Ok(()));
        assert_eq!(plan.subcycles, 4);
    }

    #[test]
    fn vlaplace_of_rigid_rotation_is_small_and_tangent() {
        // Rigid rotation u = U cos(lat) is an l=1 vector harmonic:
        // vlap(v) = -2 v / a^2 (for the rotational part). Check magnitude.
        use cubesphere::EARTH_RADIUS;
        let grid = CubedSphere::new(6);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let uu = 10.0;
        let mut u = field_of(&grid, |lat, _| uu * lat.cos());
        let mut v = field_of(&grid, |_, _| 0.0);
        vlaplace_fields(&ops, &mut dss, 1, &mut u, &mut v);
        let scale = 2.0 * uu / (EARTH_RADIUS * EARTH_RADIUS);
        for (el, (ue, _ve)) in grid.elements.iter().zip(u.iter().zip(&v)) {
            for p in 0..NPTS {
                let expect = -2.0 * uu * el.metric[p].lat.cos() / (EARTH_RADIUS * EARTH_RADIUS);
                assert!(
                    (ue[p] - expect).abs() < 0.1 * scale,
                    "{} vs {expect}",
                    ue[p]
                );
            }
        }
    }
}
