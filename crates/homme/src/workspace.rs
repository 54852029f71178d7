//! Persistent per-step scratch owned by [`crate::prim::Dycore`] — the whole
//! grid's, or one rank's patch's as the core of a
//! [`crate::dist::DistDycore`].
//!
//! Every buffer the step pipeline needs — RK stage fields, RHS column
//! temporaries, hyperviscosity and sponge temporaries, tracer stage
//! double-buffers, remap columns — is allocated once here and reused, so
//! `Dycore::step` performs no heap allocation after construction (enforced
//! by the `alloc_regression` integration test).
//!
//! Reuse contract: no buffer carries information between steps. Each one
//! is either fully overwritten before it is read (`copy_from` /
//! full-range writes) or is write-only scratch whose every slot is
//! written before use. The `state_arena` proptest drives this by checking
//! that a dirtied workspace reproduces a fresh one bitwise.

use crate::hypervis::ElemHypervisPlan;
use crate::kernels::blocked::QCHUNK;
use crate::remap::{ElemRemapPlan, RemapApplyScratch, RemapScratch};
use crate::rhs::RhsScratch;
use crate::sched::PerWorker;
use crate::state::Dims;
use cubesphere::NPTS;

/// Tracers per chunk of the blocked tracer stage: [`QCHUNK`], or all of
/// them when there are fewer.
pub(crate) fn qchunk_width(dims: Dims) -> usize {
    dims.qsize.min(QCHUNK)
}

/// The four dynamics prognostics as flat arenas (`[nelem][nlev][NPTS]`
/// each) — an RK stage buffer without the tracer/surface fields.
#[derive(Debug, Clone)]
pub struct DynFields {
    /// Eastward wind arena.
    pub u: Vec<f64>,
    /// Northward wind arena.
    pub v: Vec<f64>,
    /// Temperature arena.
    pub t: Vec<f64>,
    /// Layer thickness arena.
    pub dp3d: Vec<f64>,
}

impl DynFields {
    /// Zeroed buffers of `len` values per field.
    pub fn zeros(len: usize) -> Self {
        DynFields { u: vec![0.0; len], v: vec![0.0; len], t: vec![0.0; len], dp3d: vec![0.0; len] }
    }

    /// The four arenas as `[u, v, t, dp3d]` (the DSS sweeps' field order).
    pub fn fields(&self) -> [&[f64]; 4] {
        [&self.u, &self.v, &self.t, &self.dp3d]
    }

    /// Mutable [`DynFields::fields`].
    pub fn fields_mut(&mut self) -> [&mut [f64]; 4] {
        [&mut self.u, &mut self.v, &mut self.t, &mut self.dp3d]
    }
}

/// Private scratch of one scheduler worker: RHS column temporaries and
/// remap columns. All fields are fully overwritten per
/// element, so a slot can serve any element of any step.
#[derive(Debug, Clone)]
pub struct WorkerScratch {
    /// Column temporaries of `element_rhs_raw`.
    pub rhs: RhsScratch,
    /// PPM reconstruction buffers.
    pub remap: RemapScratch,
    /// Source thickness column, `[nlev]`.
    pub col_src: Vec<f64>,
    /// Target thickness column, `[nlev]`.
    pub col_dst: Vec<f64>,
    /// Field value column, `[nlev]`.
    pub col_val: Vec<f64>,
    /// Remapped value column, `[nlev]`.
    pub col_out: Vec<f64>,
    /// Per-element remap plan (geometry + PPM weights), rebuilt from
    /// `dp3d` for each element and reused across all fields and tracers.
    pub plan: ElemRemapPlan,
    /// Coefficient arenas of the planned remap's apply pass.
    pub apply: RemapApplyScratch,
}

impl WorkerScratch {
    /// Scratch sized for `dims`.
    pub fn new(dims: Dims) -> Self {
        WorkerScratch {
            rhs: RhsScratch::new(dims.nlev),
            remap: RemapScratch::new(dims.nlev),
            col_src: vec![0.0; dims.nlev],
            col_dst: vec![0.0; dims.nlev],
            col_val: vec![0.0; dims.nlev],
            col_out: vec![0.0; dims.nlev],
            plan: ElemRemapPlan::new(dims.nlev),
            apply: RemapApplyScratch::new(dims.nlev),
        }
    }
}

/// All step-persistent buffers of the dycore pipeline.
///
/// The step touches only `stage`, `hyp`, the sponge buffers, `qchunk` and
/// `qstage` besides the state, whichever kernel set runs: the kernel set
/// chooses element kernels inside the one stage loop, not buffers.
#[derive(Debug)]
pub struct StepWorkspace {
    /// RK stage `u_i` (each stage's gather overwrites it in place; stage 5
    /// lands in the state). Also hyperviscosity's second-Laplacian output,
    /// since it is idle outside RK. The RK base `u_0` is the state itself.
    pub stage: DynFields,
    /// Raw (pre-DSS) RK stage, and the hyperviscosity first-Laplacian
    /// output (full depth).
    pub hyp: DynFields,
    /// Sponge-layer `u` temporary, `[nelem][sponge_layers][NPTS]`.
    pub sponge_u: Vec<f64>,
    /// Sponge-layer `v` temporary.
    pub sponge_v: Vec<f64>,
    /// Sponge-layer `T` temporary.
    pub sponge_t: Vec<f64>,
    /// Raw (pre-DSS) tracer stage output of one tracer chunk,
    /// `[nelem][qchunk_width(dims)][nlev][NPTS]`: a chunk is gathered
    /// and limited before the next one is computed, so the stage never
    /// streams a full raw tracer arena.
    pub qchunk: Vec<f64>,
    /// Assembled SSP stages 1 and 2 of one tracer chunk, same shape as
    /// `qchunk`: the step runs all three stages of a chunk before it starts
    /// the next one, so no stage result is ever a full tracer arena. The
    /// stage input `q_0` is read from the state itself.
    pub qstage: Vec<f64>,
    /// One private scratch per scheduler worker.
    pub workers: PerWorker<WorkerScratch>,
    /// Hyperviscosity step plan (hoisted subcycle/sponge coefficients),
    /// rebuilt per step without allocating.
    pub hv_plan: ElemHypervisPlan,
}

impl StepWorkspace {
    /// Buffers sized for `nelem` elements, `dims`, a sponge of
    /// `sponge_layers` levels and `nworkers` scheduler workers.
    pub fn new(dims: Dims, nelem: usize, sponge_layers: usize, nworkers: usize) -> Self {
        let fl = nelem * dims.field_len();
        let sl = nelem * sponge_layers.min(dims.nlev) * NPTS;
        let cl = nelem * qchunk_width(dims) * dims.nlev * NPTS;
        StepWorkspace {
            stage: DynFields::zeros(fl),
            hyp: DynFields::zeros(fl),
            sponge_u: vec![0.0; sl],
            sponge_v: vec![0.0; sl],
            sponge_t: vec![0.0; sl],
            qchunk: vec![0.0; cl],
            qstage: vec![0.0; cl],
            workers: PerWorker::new(nworkers, || WorkerScratch::new(dims)),
            hv_plan: ElemHypervisPlan::new(dims.nlev, sponge_layers),
        }
    }
}

/// The one member kernel path there is:
/// [`crate::prim::Dycore::apply_hypervis_members`] and
/// [`crate::prim::Dycore::dynamics_step_members`] step each member through
/// the standalone call in turn. It has no choice left to make and stays
/// only because the `benchmark/` crate still names it; ROADMAP item 6
/// deletes it together with [`EnsembleWorkspace`] and the two `_members`
/// loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemberKernelPath {
    /// Members step one after another through the shared dycore.
    #[default]
    Lanes,
}

/// The member count a [`crate::prim::Dycore::apply_hypervis_members`] /
/// [`crate::prim::Dycore::dynamics_step_members`] call may pass. It holds no
/// buffer: each member steps through the dycore's own [`StepWorkspace`].
/// Kept for the `benchmark/` crate's phase probe until ROADMAP item 6.
#[derive(Debug)]
pub struct EnsembleWorkspace {
    lanes: usize,
}

impl EnsembleWorkspace {
    /// A workspace for at most `lanes` members (`dims` and `nelem` are no
    /// longer needed and are ignored).
    pub fn new(_dims: Dims, _nelem: usize, lanes: usize) -> Self {
        EnsembleWorkspace { lanes }
    }

    /// Most members one call may pass.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_buffers_are_sized_for_the_problem() {
        let dims = Dims { nlev: 4, qsize: 2 };
        let ws = StepWorkspace::new(dims, 6, 3, 5);
        assert_eq!(ws.stage.u.len(), 6 * 4 * NPTS);
        assert_eq!(ws.hyp.dp3d.len(), 6 * 4 * NPTS);
        assert_eq!(ws.sponge_t.len(), 6 * 3 * NPTS);
        assert_eq!(ws.workers.len(), 5);
        // Fewer tracers than a chunk: both chunk buffers are one tracer arena.
        assert_eq!(ws.qchunk.len(), 6 * 2 * 4 * NPTS);
        assert_eq!(ws.qstage.len(), 6 * 2 * 4 * NPTS);
        // More tracers than a chunk: the raw and stage buffers stay one
        // chunk wide.
        let dims = Dims { nlev: 4, qsize: 9 };
        let ws = StepWorkspace::new(dims, 6, 3, 1);
        assert_eq!(ws.qchunk.len(), 6 * QCHUNK * 4 * NPTS);
        assert_eq!(ws.qstage.len(), 6 * QCHUNK * 4 * NPTS);
        // Sponge deeper than the column clamps to nlev.
        let ws2 = StepWorkspace::new(dims, 2, 9, 1);
        assert_eq!(ws2.sponge_u.len(), 2 * 4 * NPTS);
    }
}
