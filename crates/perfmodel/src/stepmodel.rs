//! Per-rank time model of one model step, composed from calibrated kernel
//! unit costs plus the network model.
//!
//! The model prices the step the stage loop runs, as [`StepPlan`] writes it
//! down: each sweep's Table-1 kernel at its calibrated cost (one launch per
//! RK stage, sponge, hyperviscosity Laplacian, tracer chunk stage and
//! remap), each exchange as one halo round of its field-levels, and each
//! round's barrier jitter. The skeleton kernels implement the *structure* of
//! the full Fortran model but a fraction of its arithmetic (CAM-SE carries
//! many more terms, limiters and diagnostics); the documented
//! [`StepModel::work_factor`] scales skeleton work to full-model work and
//! is calibrated once against the paper's ne30 SYPD anchor. All *shapes*
//! (scaling curves, variant ratios, efficiency trends) come from the model,
//! not the anchor.

use crate::machine::Machine;
use homme::kernels::{op_count, KernelId, Variant};
use homme::{Dims, ExchangeMode, HypervisConfig, StepPlan};

/// Workload of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankWork {
    /// Elements owned by the rank.
    pub elems: usize,
    /// Vertical layers.
    pub nlev: usize,
    /// Tracers.
    pub qsize: usize,
}

/// The per-step time model.
pub struct StepModel<'m> {
    /// Calibrated machine.
    pub machine: &'m Machine,
    /// Kernel implementation generation.
    pub variant: Variant,
    /// Exchange schedule (paper Section 7.6).
    pub comm_mode: ExchangeMode,
    /// Skeleton-to-full-CAM work multiplier (see module docs).
    pub work_factor: f64,
}

impl<'m> StepModel<'m> {
    /// Model for a *dynamical-core-only* run (the HOMME benchmarks of
    /// Figures 7/8 and Table 3). The work factor scales the six skeleton
    /// kernels to the full Fortran HOMME (which carries limiters,
    /// diagnostics and additional terms); calibrated once against the
    /// paper's ne256 step-time anchor.
    pub fn new(machine: &'m Machine, variant: Variant, comm_mode: ExchangeMode) -> Self {
        StepModel { machine, variant, comm_mode, work_factor: 4.0 }
    }

    /// Override the skeleton-to-full-model work factor (whole-CAM runs use
    /// a larger factor that also absorbs the column physics; see `sypd`).
    pub fn with_work_factor(mut self, f: f64) -> Self {
        self.work_factor = f;
        self
    }

    /// The step the model prices: production hyperviscosity
    /// ([`HypervisConfig::for_ne`]: a 3-layer sponge and 3 subcycles at
    /// every resolution; only `nu` varies, and the plan reads it only as
    /// on or off) and a remap every step.
    pub fn plan(&self, w: RankWork) -> StepPlan {
        let hv = HypervisConfig::for_ne(30);
        StepPlan::new(Dims { nlev: w.nlev, qsize: w.qsize }, &hv, 1, hv.subcycles)
    }

    /// Pure-compute seconds of one dynamics step on one rank.
    ///
    /// The Athread decomposition (Figure 2) processes elements in batches
    /// of 8 (one per CPE column); ranks owning fewer than a multiple of 8
    /// elements leave CPE columns idle — the *parallelism starvation* that
    /// drives the paper's strong-scaling efficiency drop at small
    /// elements-per-CG ("the drop of efficiency ... is mainly due to the
    /// decreased number of elements").
    pub fn compute_seconds(&self, w: RankWork) -> f64 {
        let cal = &self.machine.cal;
        let t: f64 = self
            .plan(w)
            .sweeps()
            .iter()
            .map(|s| {
                // Only the column-chain kernels (register-communication scans
                // and the transposed remap) are locked to 8-element batches;
                // the level-parallel kernels redistribute freely.
                let chained =
                    matches!(s.kernel, KernelId::ComputeAndApplyRhs | KernelId::VerticalRemap);
                let elems = if chained && self.variant == Variant::Athread {
                    w.elems.div_ceil(8) * 8
                } else {
                    w.elems
                };
                let sh = s.shape(elems);
                let t = cal.kernel_seconds(s.kernel, self.variant, sh.nelem, sh.nlev, sh.qsize);
                t / s.every as f64
            })
            .sum();
        t * self.work_factor
    }

    /// Per-step synchronization/imbalance overhead: stage barriers and
    /// collective completion grow logarithmically with the job, and OS /
    /// network jitter makes every exchange round wait for the slowest
    /// rank. The coefficient is calibrated against the paper's Figure 7
    /// endpoints.
    pub fn sync_seconds(&self, w: RankWork, nranks: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let rounds = self.plan(w).exchanges() as f64;
        rounds * self.machine.jitter_per_round * (nranks as f64).log2()
    }

    /// Halo-communication seconds of one dynamics step on one rank.
    pub fn comm_seconds(&self, w: RankWork, nranks: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let net = &self.machine.net;
        let plan = self.plan(w);
        // Compact SFC patch: perimeter ~ 4 sqrt(E) element edges, ~8 peers.
        let cut_edges = 4.0 * (w.elems as f64).sqrt() + 4.0;
        let peers = 8.0_f64.min(nranks as f64 - 1.0);
        // Bytes per exchanged element edge per field-level: 4 GLL points x
        // 8 B.
        let total_bytes = cut_edges * 4.0 * 8.0 * plan.field_levels() as f64;
        let rounds = plan.exchanges() as f64;
        // Fraction of traffic crossing supernodes grows with job size.
        let remote_frac = if nranks <= net.ranks_per_supernode() {
            0.1
        } else {
            0.35
        };
        let per_round =
            net.halo_time(peers as usize, (total_bytes / rounds / peers) as usize, remote_frac);
        let mut comm = rounds * per_round;
        // The legacy implementation adds the pack/unpack staging cost:
        // every exchanged byte is copied ~3 extra times through buffers at
        // MPE memcpy bandwidth (Section 7.6: removing these copies plus
        // overlap cut exchange cost roughly in half).
        let memcpy_bw = 4.0e9;
        if self.comm_mode == ExchangeMode::Original {
            comm += 3.0 * total_bytes / memcpy_bw;
        }
        comm
    }

    /// Seconds of one dynamics step on one rank, with overlap applied in
    /// the redesigned mode (communication hides behind interior
    /// computation; only the boundary fraction is exposed).
    pub fn step_seconds(&self, w: RankWork, nranks: usize) -> f64 {
        let compute = self.compute_seconds(w);
        let comm = self.comm_seconds(w, nranks);
        let sync = self.sync_seconds(w, nranks);
        match self.comm_mode {
            ExchangeMode::Original => compute + comm + sync,
            ExchangeMode::Redesigned => {
                // Interior elements (non-boundary) can hide communication.
                let boundary = (4.0 * (w.elems as f64).sqrt() + 4.0).min(w.elems as f64);
                let interior_frac = 1.0 - boundary / w.elems.max(1) as f64;
                let hidden = (compute * interior_frac).min(comm);
                compute + comm - hidden + sync
            }
        }
    }

    /// Double-precision flops retired by one rank in one dynamics step
    /// (for PFlops reporting): `kernels::op_count` summed over the plan's
    /// sweeps, scaled by the work factor.
    pub fn step_flops(&self, w: RankWork) -> f64 {
        let flops: f64 = self
            .plan(w)
            .sweeps()
            .iter()
            .map(|s| op_count(s.kernel, s.shape(w.elems)).flops as f64 / s.every as f64)
            .sum();
        flops * self.work_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::taihulight()
    }

    #[test]
    fn compute_scales_linearly_with_elements() {
        let m = machine();
        let sm = StepModel::new(&m, Variant::Athread, ExchangeMode::Redesigned);
        // Multiples of the 8-element batch so starvation rounding is inert.
        let t1 = sm.compute_seconds(RankWork { elems: 16, nlev: 32, qsize: 4 });
        let t2 = sm.compute_seconds(RankWork { elems: 32, nlev: 32, qsize: 4 });
        // Linear up to the fixed launch overheads.
        assert!(t2 > 1.6 * t1 && t2 < 2.1 * t1, "{t1} vs {t2}");
    }

    #[test]
    fn redesigned_exchange_is_faster() {
        let m = machine();
        let w = RankWork { elems: 64, nlev: 128, qsize: 25 };
        let orig = StepModel::new(&m, Variant::Athread, ExchangeMode::Original);
        let redesigned = StepModel::new(&m, Variant::Athread, ExchangeMode::Redesigned);
        let t_o = orig.step_seconds(w, 6144);
        let t_r = redesigned.step_seconds(w, 6144);
        assert!(t_r < t_o, "{t_r} vs {t_o}");
        // The paper: ~23% of prim_run was communication at large scale and
        // the redesign nearly eliminated its exposed part. Expect a
        // double-digit-percent step-time reduction when elements are few.
        let w_small = RankWork { elems: 4, nlev: 128, qsize: 25 };
        let gain = 1.0 - redesigned.step_seconds(w_small, 131_072)
            / orig.step_seconds(w_small, 131_072);
        assert!(gain > 0.10, "overlap gain {gain}");
    }

    #[test]
    fn variant_ordering_carries_into_step_times() {
        let m = machine();
        let w = RankWork { elems: 64, nlev: 128, qsize: 25 };
        let t = |v: Variant| StepModel::new(&m, v, ExchangeMode::Original).compute_seconds(w);
        assert!(t(Variant::Mpe) > t(Variant::Reference));
        assert!(t(Variant::Athread) < t(Variant::OpenAcc));
        assert!(t(Variant::Athread) < t(Variant::Reference));
    }

    #[test]
    fn flops_are_positive_and_scale() {
        let m = machine();
        let sm = StepModel::new(&m, Variant::Athread, ExchangeMode::Redesigned);
        let f1 = sm.step_flops(RankWork { elems: 48, nlev: 128, qsize: 10 });
        let f2 = sm.step_flops(RankWork { elems: 96, nlev: 128, qsize: 10 });
        assert!(f1 > 0.0);
        assert!((f2 / f1 - 2.0).abs() < 1e-12);
    }
}
