//! The shape of one model step: which sweeps the stage loop runs, which
//! Table-1 kernel each prices as, and which end in a halo exchange.
//!
//! [`StepPlan`] is the one place outside the stage loop (`prim.rs`) that
//! writes that shape down. The performance model prices it, and the
//! distributed tests compare it with the messages and bytes the exchange
//! layer counts (`CopyStats`, `CommStats`), which pins it to the loop.

use crate::hypervis::HypervisConfig;
use crate::kernels::blocked::QCHUNK;
use crate::kernels::{KernelId, KernelShape};
use crate::state::Dims;

/// The phase of the step a sweep belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One Kinnmark–Gray RK stage.
    Rk,
    /// The top-of-model sponge's Laplacian.
    Sponge,
    /// One Laplacian sweep of a hyperviscosity subcycle.
    Hypervis,
    /// One SSP-RK2 stage of one tracer chunk.
    Tracer,
    /// The vertical remap.
    Remap,
}

/// One sweep of the stage loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// The phase it runs in.
    pub phase: Phase,
    /// The Table-1 kernel it prices as. A hyperviscosity subcycle's two
    /// Laplacian sweeps of `u, v, T, dp3d` together run `hypervis_dp2` and
    /// `biharmonic_dp3d`; the first sweep books the former, the second the
    /// latter.
    pub kernel: KernelId,
    /// Fields it writes: 4 for an RK stage or a Laplacian, 3 for the
    /// sponge, the chunk's tracers for a tracer stage, and `3 + qsize`
    /// (`u, v, T` and the tracers) for the remap.
    pub fields: usize,
    /// Levels each field spans: the clamped sponge depth for the sponge,
    /// `nlev` for the rest.
    pub levels: usize,
    /// Whether it ends in one halo exchange of its `fields × levels`.
    pub exchange: bool,
    /// It runs once every `every` steps: `rsplit` for the remap, else 1.
    pub every: usize,
}

impl Sweep {
    /// The sizes its kernel's op count and calibrated cost read, on
    /// `nelem` elements.
    pub fn shape(&self, nelem: usize) -> KernelShape {
        let qsize = match self.kernel {
            KernelId::EulerStep => self.fields,
            KernelId::VerticalRemap => self.fields - 3,
            _ => 0,
        };
        KernelShape { nelem, nlev: self.levels, qsize }
    }
}

/// The ordered sweeps of one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    sweeps: Vec<Sweep>,
}

impl StepPlan {
    /// The step of `dims` under `hv` with `subcycles` hyperviscosity
    /// subcycles and a remap every `rsplit` steps, as the stage loop runs
    /// it: 5 RK stages; with `nu` or `nu_p` nonzero, the sponge (when
    /// `nu_top > 0` and `sponge_layers > 0`, `min(sponge_layers, nlev)`
    /// levels deep) and two Laplacian sweeps per subcycle; three stages per
    /// [`QCHUNK`]-tracer chunk; the remap, which exchanges nothing. Every
    /// sweep but the remap ends in an exchange.
    pub fn new(dims: Dims, hv: &HypervisConfig, rsplit: usize, subcycles: usize) -> Self {
        let nlev = dims.nlev;
        let sweep = |phase, kernel, fields, levels| Sweep {
            phase,
            kernel,
            fields,
            levels,
            exchange: true,
            every: 1,
        };
        let mut sweeps = vec![sweep(Phase::Rk, KernelId::ComputeAndApplyRhs, 4, nlev); 5];
        if hv.nu != 0.0 || hv.nu_p != 0.0 {
            if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
                let ks = hv.sponge_layers.min(nlev);
                sweeps.push(sweep(Phase::Sponge, KernelId::HypervisDp1, 3, ks));
            }
            for _ in 0..subcycles {
                sweeps.push(sweep(Phase::Hypervis, KernelId::HypervisDp2, 4, nlev));
                sweeps.push(sweep(Phase::Hypervis, KernelId::BiharmonicDp3d, 4, nlev));
            }
        }
        for q in (0..dims.qsize).step_by(QCHUNK) {
            let chunk = QCHUNK.min(dims.qsize - q);
            sweeps.extend([sweep(Phase::Tracer, KernelId::EulerStep, chunk, nlev); 3]);
        }
        sweeps.push(Sweep {
            exchange: false,
            every: rsplit,
            ..sweep(Phase::Remap, KernelId::VerticalRemap, 3 + dims.qsize, nlev)
        });
        StepPlan { sweeps }
    }

    /// The sweeps, in the order the step runs them.
    pub fn sweeps(&self) -> &[Sweep] {
        &self.sweeps
    }

    /// Halo exchanges a step runs.
    pub fn exchanges(&self) -> usize {
        self.sweeps.iter().filter(|s| s.exchange).count()
    }

    /// Field-levels a step's exchanges ship: each peer receives this many
    /// values per point it shares, in one message per exchange under the
    /// redesigned schedule and one message per field-level under the
    /// original one.
    pub fn field_levels(&self) -> usize {
        self.sweeps.iter().filter(|s| s.exchange).map(|s| s.fields * s.levels).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv(nu: f64, nu_top: f64, sponge_layers: usize) -> HypervisConfig {
        HypervisConfig { nu, nu_p: nu, subcycles: 1, nu_top, sponge_layers }
    }

    fn phases(plan: &StepPlan) -> Vec<Phase> {
        plan.sweeps().iter().map(|s| s.phase).collect()
    }

    #[test]
    fn sponge_subcycles_and_two_tracer_chunks() {
        let plan = StepPlan::new(Dims { nlev: 4, qsize: 6 }, &hv(1e15, 2.5e5, 2), 1, 2);
        // 5 RK + 1 sponge + 2 x 2 Laplacians + 2 chunks x 3 stages.
        assert_eq!(plan.exchanges(), 16);
        // 5 x 4 x 4 + 3 x 2 + 4 x 4 x 4 + 3 x 6 x 4.
        assert_eq!(plan.field_levels(), 222);
        use Phase::*;
        let want = [[Rk; 5].as_slice(), &[Sponge], &[Hypervis; 4], &[Tracer; 6], &[Remap]];
        assert_eq!(phases(&plan), want.concat());
        let chunks: Vec<usize> =
            plan.sweeps().iter().filter(|s| s.phase == Tracer).map(|s| s.fields).collect();
        assert_eq!(chunks, [4, 4, 4, 2, 2, 2]);
        let remap = plan.sweeps().last().unwrap();
        assert_eq!((remap.fields, remap.levels, remap.exchange, remap.every), (9, 4, false, 1));
        assert_eq!(remap.shape(10), KernelShape { nelem: 10, nlev: 4, qsize: 6 });
    }

    #[test]
    fn hypervis_off_runs_no_sponge_and_no_subcycle() {
        // `nu_top > 0` does not bring the sponge back: the loop returns
        // before it when `nu == nu_p == 0`.
        let plan = StepPlan::new(Dims { nlev: 4, qsize: 6 }, &hv(0.0, 2.5e5, 2), 1, 3);
        assert_eq!(plan.exchanges(), 11);
        assert_eq!(plan.field_levels(), 80 + 72);
        assert!(plan.sweeps().iter().all(|s| !matches!(s.phase, Phase::Sponge | Phase::Hypervis)));
    }

    #[test]
    fn no_tracers_run_no_tracer_exchange() {
        let plan = StepPlan::new(Dims { nlev: 4, qsize: 0 }, &hv(1e15, 0.0, 2), 2, 3);
        // 5 RK + 3 x 2 Laplacians; the sponge is off without `nu_top`.
        assert_eq!(plan.exchanges(), 11);
        assert_eq!(plan.field_levels(), 80 + 96);
        let remap = plan.sweeps().last().unwrap();
        assert_eq!((remap.fields, remap.every), (3, 2));
    }

    #[test]
    fn twenty_five_tracers_take_seven_chunks_and_a_clamped_sponge() {
        let plan = StepPlan::new(Dims { nlev: 2, qsize: 25 }, &hv(1e15, 2.5e5, 3), 1, 1);
        // 5 RK + 1 sponge + 2 Laplacians + 7 chunks x 3 stages.
        assert_eq!(plan.exchanges(), 29);
        // 5 x 4 x 2 + 3 x 2 (3 layers clamped to nlev 2) + 2 x 4 x 2 + 3 x 25 x 2.
        assert_eq!(plan.field_levels(), 40 + 6 + 16 + 150);
        let last_chunk = plan.sweeps().iter().rfind(|s| s.phase == Phase::Tracer).unwrap();
        assert_eq!(last_chunk.fields, 1);
    }
}
