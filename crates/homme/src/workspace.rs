//! Persistent per-step scratch owned by [`crate::prim::Dycore`] — the whole
//! grid's, or one rank's patch's as the core of a
//! [`crate::dist::DistDycore`].
//!
//! Every buffer the step pipeline needs is allocated once here and reused,
//! so `Dycore::step` performs no heap allocation after construction
//! (enforced by the `alloc_regression` integration test). RK stages,
//! hyperviscosity, sponge and tracer chunks all borrow their scratch from
//! the same two step-sized arenas, [`StepWorkspace::raw`] and `stage`.
//!
//! Reuse contract: no phase reads a workspace buffer it did not write in
//! that phase. The `state_arena` proptest checks that a dirtied workspace
//! reproduces a fresh one bitwise; `prim`'s poison test fills both arenas
//! with NaN before every phase.

use crate::hypervis::ElemHypervisPlan;
use crate::kernels::blocked::QCHUNK;
use crate::remap::{ElemRemapPlan, RemapApplyScratch, RemapScratch};
use crate::rhs::RhsScratch;
use crate::sched::PerWorker;
use crate::state::Dims;

/// Tracers per chunk of the blocked tracer stage: [`QCHUNK`], or all of
/// them when there are fewer.
pub(crate) fn qchunk_width(dims: Dims) -> usize {
    dims.qsize.min(QCHUNK)
}

/// The four dynamics prognostics as flat arenas (`[nelem][nlev][NPTS]`
/// each) — an RK stage buffer without the tracer/surface fields — in one
/// allocation of `4 * len` values, `u | v | t | dp3d` back to back. A phase
/// that needs scratch of another shape borrows a prefix of the whole
/// buffer ([`DynFields::whole_mut`]) or of one field's view.
#[derive(Debug, Clone)]
pub struct DynFields {
    buf: Vec<f64>,
}

impl DynFields {
    /// Zeroed buffers of `len` values per field.
    pub fn zeros(len: usize) -> Self {
        DynFields { buf: vec![0.0; 4 * len] }
    }

    /// The four arenas as `[u, v, t, dp3d]` (the DSS sweeps' field order).
    pub fn fields(&self) -> [&[f64]; 4] {
        let (uv, tdp) = self.buf.split_at(self.buf.len() / 2);
        let ((u, v), (t, dp3d)) = (uv.split_at(uv.len() / 2), tdp.split_at(tdp.len() / 2));
        [u, v, t, dp3d]
    }

    /// Mutable [`DynFields::fields`].
    pub fn fields_mut(&mut self) -> [&mut [f64]; 4] {
        let half = self.buf.len() / 2;
        let (uv, tdp) = self.buf.split_at_mut(half);
        let ((u, v), (t, dp3d)) = (uv.split_at_mut(uv.len() / 2), tdp.split_at_mut(tdp.len() / 2));
        [u, v, t, dp3d]
    }

    /// The whole buffer, all `4 * len` values.
    pub fn whole_mut(&mut self) -> &mut [f64] {
        &mut self.buf
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
/// Besides the state, the step touches only the arenas `raw` and `stage`,
/// whichever kernel set runs. Every phase ends with a gather that reads one
/// of them and writes only the state, so both are dead between phases and
/// each phase borrows whatever shape of scratch it needs from them.
#[derive(Debug)]
pub struct StepWorkspace {
    /// The pre-DSS arena of every phase: the raw RK stage, the first
    /// hyperviscosity Laplacian, the sponge Laplacians (`[nelem][ks][NPTS]`
    /// prefixes of the `u`, `v`, `t` views) and one tracer chunk's raw stage
    /// (`[nelem][qchunk_width(dims)][nlev][NPTS]`, a prefix of the whole).
    pub raw: DynFields,
    /// The assembled arena: RK stage `u_i` (stage 5 lands in the state, and
    /// the base `u_0` is the state itself), the second hyperviscosity
    /// Laplacian, and a tracer chunk's SSP stages 1 and 2 (the raw stage's
    /// prefix shape; the stage input `q_0` is the state itself).
    pub stage: DynFields,
    /// One private scratch per scheduler worker.
    pub workers: PerWorker<WorkerScratch>,
    /// Hyperviscosity step plan (hoisted subcycle/sponge coefficients),
    /// rebuilt per step without allocating.
    pub hv_plan: ElemHypervisPlan,
}

/// A tracer chunk is never wider than the four dynamics fields, so it is
/// a prefix of `raw` and of `stage`.
const _: () = assert!(QCHUNK <= 4);

impl StepWorkspace {
    /// Buffers sized for `nelem` elements, `dims`, a sponge of
    /// `sponge_layers` levels and `nworkers` scheduler workers.
    pub fn new(dims: Dims, nelem: usize, sponge_layers: usize, nworkers: usize) -> Self {
        let fl = nelem * dims.field_len();
        StepWorkspace {
            raw: DynFields::zeros(fl),
            stage: DynFields::zeros(fl),
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
    use cubesphere::NPTS;

    #[test]
    fn workspace_buffers_are_sized_for_the_problem() {
        for (qsize, sponge_layers) in [(2, 3), (9, 3), (9, 9), (0, 0)] {
            let (nelem, nlev) = (6, 4);
            let dims = Dims { nlev, qsize };
            let mut ws = StepWorkspace::new(dims, nelem, sponge_layers, 5);
            let fl = nelem * nlev * NPTS;
            assert_eq!(ws.workers.len(), 5);
            // Two arenas of four full-depth dynamics fields, one allocation
            // each, split back to back.
            for arena in [&mut ws.raw, &mut ws.stage] {
                assert_eq!(arena.whole_mut().len(), 4 * fl);
                let base = arena.whole_mut().as_ptr();
                for (f, view) in arena.fields().into_iter().enumerate() {
                    assert_eq!(view.len(), fl);
                    assert_eq!(view.as_ptr(), base.wrapping_add(f * fl));
                }
            }
            // A tracer chunk (at most QCHUNK tracers, fewer when qsize is
            // smaller) fits in a whole arena.
            let chunk = nelem * qchunk_width(dims) * nlev * NPTS;
            assert_eq!(qchunk_width(dims), qsize.min(QCHUNK));
            assert!(chunk <= ws.raw.whole_mut().len() && chunk <= ws.stage.whole_mut().len());
            // The sponge's `ks` levels (clamped to nlev, as the hypervis
            // plan clamps them) fit in one field view of `raw`.
            let ks = ws.hv_plan.ks;
            assert_eq!(ks, sponge_layers.min(nlev));
            assert!(ws.raw.fields().iter().all(|f| nelem * ks * NPTS <= f.len()));
        }
    }
}
