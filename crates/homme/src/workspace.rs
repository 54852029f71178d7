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
use crate::kernels::member_lanes::MemberRhsScratch;
use crate::remap::{ElemRemapPlan, RemapApplyScratch, RemapScratch};
use crate::rhs::{ElemTend, RhsScratch};
use crate::sched::PerWorker;
use crate::state::{Dims, State};
use cubesphere::NPTS;
use sw26010::V4F64;

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

    /// Overwrite from the state arena's dynamics fields.
    pub fn copy_from_state(&mut self, st: &State) {
        self.u.copy_from_slice(&st.u);
        self.v.copy_from_slice(&st.v);
        self.t.copy_from_slice(&st.t);
        self.dp3d.copy_from_slice(&st.dp3d);
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

/// Private scratch of one scheduler worker: tendency buffers, RHS column
/// temporaries and remap columns. All fields are fully overwritten per
/// element, so a slot can serve any element of any step.
#[derive(Debug, Clone)]
pub struct WorkerScratch {
    /// Per-element tendency of the RK substep.
    pub tend: ElemTend,
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
    /// Column temporaries of the member-lane RHS kernel (pressure and
    /// geopotential scan tiles, one `V4F64` lane set per point).
    pub rhs_lanes: MemberRhsScratch,
}

impl WorkerScratch {
    /// Scratch sized for `dims`.
    pub fn new(dims: Dims) -> Self {
        WorkerScratch {
            tend: ElemTend::zeros(dims),
            rhs: RhsScratch::new(dims.nlev),
            remap: RemapScratch::new(dims.nlev),
            col_src: vec![0.0; dims.nlev],
            col_dst: vec![0.0; dims.nlev],
            col_val: vec![0.0; dims.nlev],
            col_out: vec![0.0; dims.nlev],
            plan: ElemRemapPlan::new(dims.nlev),
            apply: RemapApplyScratch::new(dims.nlev),
            rhs_lanes: MemberRhsScratch::new(dims.nlev),
        }
    }
}

/// All step-persistent buffers of the dycore pipeline.
///
/// The default (blocked) step touches only `stage`, `hyp`, the sponge
/// buffers, `qchunk` and `qstage` besides the state; `next`, `q2` and
/// `qtmp` serve the scalar oracle (and `next` the ensemble's chunked member
/// hyperviscosity), so the default path never writes them (a rank's core
/// drops them: [`StepWorkspace::drop_oracle_buffers`]).
#[derive(Debug)]
pub struct StepWorkspace {
    /// RK stage `u_i` (blocked: each stage's gather overwrites it in place;
    /// stage 5 lands in the state). Also hyperviscosity's second-Laplacian
    /// output, since it is idle outside RK. The RK base `u_0` is the state
    /// itself on every path.
    pub stage: DynFields,
    /// RK stage being produced by the scalar oracle (which ping-pongs it
    /// with `stage`). Also the second-Laplacian arena of the ensemble's
    /// chunked member hyperviscosity.
    pub next: DynFields,
    /// Raw (pre-DSS) RK stage of the blocked step, and the hyperviscosity
    /// first-Laplacian output (full depth).
    pub hyp: DynFields,
    /// Sponge-layer `u` temporary, `[nelem][sponge_layers][NPTS]`.
    pub sponge_u: Vec<f64>,
    /// Sponge-layer `v` temporary.
    pub sponge_v: Vec<f64>,
    /// Sponge-layer `T` temporary.
    pub sponge_t: Vec<f64>,
    /// Raw (pre-DSS) tracer stage output of one tracer chunk on the blocked
    /// path, `[nelem][qchunk_width(dims)][nlev][NPTS]`: a chunk is gathered
    /// and limited before the next one is computed, so the stage never
    /// streams a full raw tracer arena.
    pub qchunk: Vec<f64>,
    /// Assembled SSP stages 1 and 2 of one tracer chunk on the blocked
    /// path, same shape as `qchunk`: the blocked step runs all three stages
    /// of a chunk before it starts the next one, so no stage result is
    /// ever a full tracer arena.
    pub qstage: Vec<f64>,
    /// Tracer stage buffer, `[nelem][qsize][nlev][NPTS]`: stages 1 and 2 of
    /// the scalar oracle. Every path reads the stage input `q_0` from the
    /// state itself.
    pub q2: Vec<f64>,
    /// Full-arena substep output of the scalar oracle.
    pub qtmp: Vec<f64>,
    /// One private scratch per scheduler worker.
    pub workers: PerWorker<WorkerScratch>,
    /// Hyperviscosity step plan (hoisted subcycle/sponge coefficients),
    /// rebuilt per step without allocating.
    pub hv_plan: ElemHypervisPlan,
}

impl StepWorkspace {
    /// Drop the buffers only the scalar oracle and the ensemble's chunked
    /// member path read (`next`, `q2`, `qtmp`). A rank's core runs neither;
    /// without this their zero-filled pages can still become resident, when
    /// the allocator serves them from recycled heap memory it must clear.
    pub(crate) fn drop_oracle_buffers(&mut self) {
        self.next = DynFields::zeros(0);
        self.q2 = Vec::new();
        self.qtmp = Vec::new();
    }

    /// Buffers sized for `nelem` elements, `dims`, a sponge of
    /// `sponge_layers` levels and `nworkers` scheduler workers.
    pub fn new(dims: Dims, nelem: usize, sponge_layers: usize, nworkers: usize) -> Self {
        let fl = nelem * dims.field_len();
        let tl = nelem * dims.tracer_len();
        let sl = nelem * sponge_layers.min(dims.nlev) * NPTS;
        let cl = nelem * qchunk_width(dims) * dims.nlev * NPTS;
        StepWorkspace {
            stage: DynFields::zeros(fl),
            next: DynFields::zeros(fl),
            hyp: DynFields::zeros(fl),
            sponge_u: vec![0.0; sl],
            sponge_v: vec![0.0; sl],
            sponge_t: vec![0.0; sl],
            qchunk: vec![0.0; cl],
            qstage: vec![0.0; cl],
            q2: vec![0.0; tl],
            qtmp: vec![0.0; tl],
            workers: PerWorker::new(nworkers, || WorkerScratch::new(dims)),
            hv_plan: ElemHypervisPlan::new(dims.nlev, sponge_layers),
        }
    }
}

/// The four dynamics prognostics as lane-interleaved tile arenas: one
/// [`V4F64`] per `(elem, level, point)` slot whose four lanes hold the same
/// scalar for four different ensemble members. The member-lane kernel
/// family ([`crate::kernels::member_lanes`]) runs over these tiles.
#[derive(Debug, Clone)]
pub struct LaneFields {
    /// Eastward wind tile.
    pub u: Vec<V4F64>,
    /// Northward wind tile.
    pub v: Vec<V4F64>,
    /// Temperature tile.
    pub t: Vec<V4F64>,
    /// Layer thickness tile.
    pub dp3d: Vec<V4F64>,
}

impl LaneFields {
    /// Zeroed tiles of `len` lane-sets per field.
    pub fn zeros(len: usize) -> Self {
        LaneFields {
            u: vec![V4F64::zero(); len],
            v: vec![V4F64::zero(); len],
            t: vec![V4F64::zero(); len],
            dp3d: vec![V4F64::zero(); len],
        }
    }

    /// The four tiles as `[u, v, t, dp3d]` (the DSS sweeps' field order).
    pub fn fields(&self) -> [&[V4F64]; 4] {
        [&self.u, &self.v, &self.t, &self.dp3d]
    }

    /// Mutable [`LaneFields::fields`].
    pub fn fields_mut(&mut self) -> [&mut [V4F64]; 4] {
        [&mut self.u, &mut self.v, &mut self.t, &mut self.dp3d]
    }
}

/// Tile scratch of the member-lane kernel path: lane-interleaved stage
/// arenas for the batched RK substeps (`base`, `stage`, `next`), the
/// hyperviscosity Laplacian tile set (`hyp`; the hypervis driver reuses
/// `stage` as its in-place current-state tile), sponge-depth temporaries
/// and the splatted surface geopotential. Sponge tiles are sized at full
/// depth (an upper bound on any sponge) so sizing needs only `dims`.
#[derive(Debug)]
pub struct MemberLanes {
    /// RK base state tile `u_0`.
    pub base: LaneFields,
    /// RK stage tile `u_{i-1}`; also the hypervis current-state tile.
    pub stage: LaneFields,
    /// RK stage tile being produced `u_i`.
    pub next: LaneFields,
    /// Hyperviscosity Laplacian input/output tile (full depth).
    pub hyp: LaneFields,
    /// Sponge-layer `u` tile, `[nelem][<= nlev][NPTS]`.
    pub sponge_u: Vec<V4F64>,
    /// Sponge-layer `v` tile.
    pub sponge_v: Vec<V4F64>,
    /// Sponge-layer `T` tile.
    pub sponge_t: Vec<V4F64>,
    /// Surface geopotential tile, `[nelem][NPTS]`.
    pub phis: Vec<V4F64>,
}

impl MemberLanes {
    /// Tiles sized for `nelem` elements of `dims`.
    pub fn new(dims: Dims, nelem: usize) -> Self {
        let fl = nelem * dims.field_len();
        MemberLanes {
            base: LaneFields::zeros(fl),
            stage: LaneFields::zeros(fl),
            next: LaneFields::zeros(fl),
            hyp: LaneFields::zeros(fl),
            sponge_u: vec![V4F64::zero(); fl],
            sponge_v: vec![V4F64::zero(); fl],
            sponge_t: vec![V4F64::zero(); fl],
            phis: vec![V4F64::zero(); nelem * NPTS],
        }
    }
}

/// Per-lane hyperviscosity scratch for the member-batched ensemble path:
/// one full-depth Laplacian arena set per in-flight ensemble member (the
/// chunked kernel path), plus the lane-interleaved tile scratch of the
/// member-lane path, so [`crate::prim::Dycore::apply_hypervis_members`]
/// can run the biharmonic passes of up to `lanes` members through shared
/// coefficient walks without the members' scratch aliasing. Allocated once
/// by the ensemble driver at construction and reused every step (the
/// ensemble alloc gate rides on this), same reuse contract as
/// [`StepWorkspace`]: every slot is written before it is read within a
/// pass.
#[derive(Debug)]
pub struct EnsembleWorkspace {
    /// One hyp arena set (`u`, `v`, `t`, `dp3d`) per member lane.
    pub lanes: Vec<DynFields>,
    /// Lane-interleaved member tiles of the member-lane kernel path.
    pub tiles: MemberLanes,
}

impl EnsembleWorkspace {
    /// Lane buffers sized for `nelem` elements of `dims`, `lanes` members.
    pub fn new(dims: Dims, nelem: usize, lanes: usize) -> Self {
        let fl = nelem * dims.field_len();
        EnsembleWorkspace {
            lanes: (0..lanes).map(|_| DynFields::zeros(fl)).collect(),
            tiles: MemberLanes::new(dims, nelem),
        }
    }

    /// Number of member lanes this workspace can batch.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
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
        assert_eq!(ws.q2.len(), 6 * 9 * 4 * NPTS);
        assert_eq!(ws.qtmp.len(), 6 * 9 * 4 * NPTS);
        // Sponge deeper than the column clamps to nlev.
        let ws2 = StepWorkspace::new(dims, 2, 9, 1);
        assert_eq!(ws2.sponge_u.len(), 2 * 4 * NPTS);
    }
}
