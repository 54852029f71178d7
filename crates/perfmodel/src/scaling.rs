//! Strong and weak scaling projections (the paper's Figures 7 and 8).

use crate::stepmodel::{RankWork, StepModel};
use homme::kernels::Variant;
use homme::ExchangeMode;

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// MPI processes (core groups).
    pub nranks: usize,
    /// Cores (65 per process).
    pub cores: usize,
    /// Elements per process.
    pub elems_per_rank: f64,
    /// Modeled seconds per dynamics step.
    pub step_seconds: f64,
    /// Sustained performance, PFlops.
    pub pflops: f64,
    /// Parallel efficiency relative to the first point of the sweep.
    pub efficiency: f64,
}

/// HOMME benchmark workload (Figure 7/8 use the dynamical core with the
/// NGGPS-style tracer load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HommeWorkload {
    /// Elements per cube edge.
    pub ne: usize,
    /// Vertical layers (128 in the paper's Table 2).
    pub nlev: usize,
    /// Tracers.
    pub qsize: usize,
}

impl HommeWorkload {
    /// Total elements, `6 ne^2`.
    pub fn nelem(&self) -> usize {
        6 * self.ne * self.ne
    }
}

/// Strong scaling: fixed problem, growing machine.
pub fn strong_scaling(
    model: &StepModel<'_>,
    wl: HommeWorkload,
    rank_counts: &[usize],
) -> Vec<ScalePoint> {
    let nelem = wl.nelem() as f64;
    let mut points = Vec::with_capacity(rank_counts.len());
    let mut base: Option<(usize, f64)> = None;
    for &nranks in rank_counts {
        let elems = nelem / nranks as f64;
        let w = RankWork { elems: elems.ceil() as usize, nlev: wl.nlev, qsize: wl.qsize };
        let t = model.step_seconds(w, nranks);
        // Whole-job flops per step / time = sustained rate.
        let total_flops = model.step_flops(RankWork {
            elems: wl.nelem(),
            nlev: wl.nlev,
            qsize: wl.qsize,
        });
        let pflops = total_flops / t / 1e15;
        let efficiency = match base {
            None => {
                base = Some((nranks, t));
                1.0
            }
            Some((n0, t0)) => (t0 * n0 as f64) / (t * nranks as f64),
        };
        points.push(ScalePoint {
            nranks,
            cores: nranks * 65,
            elems_per_rank: elems,
            step_seconds: t,
            pflops,
            efficiency,
        });
    }
    points
}

/// Weak scaling: fixed elements per rank, growing machine.
pub fn weak_scaling(
    model: &StepModel<'_>,
    elems_per_rank: usize,
    nlev: usize,
    qsize: usize,
    rank_counts: &[usize],
) -> Vec<ScalePoint> {
    let mut points = Vec::with_capacity(rank_counts.len());
    let mut t0: Option<f64> = None;
    for &nranks in rank_counts {
        let w = RankWork { elems: elems_per_rank, nlev, qsize };
        let t = model.step_seconds(w, nranks);
        let per_rank_flops = model.step_flops(w);
        let pflops = per_rank_flops * nranks as f64 / t / 1e15;
        let efficiency = match t0 {
            None => {
                t0 = Some(t);
                1.0
            }
            Some(t0) => t0 / t,
        };
        points.push(ScalePoint {
            nranks,
            cores: nranks * 65,
            elems_per_rank: elems_per_rank as f64,
            step_seconds: t,
            pflops,
            efficiency,
        });
    }
    points
}

/// Convenience: the default Athread/redesigned model used by the figures.
pub fn figure_model(machine: &crate::machine::Machine) -> StepModel<'_> {
    StepModel::new(machine, Variant::Athread, ExchangeMode::Redesigned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn strong_scaling_reproduces_figure7_shape() {
        let m = Machine::taihulight();
        let model = figure_model(&m);
        let ranks = [4096usize, 8192, 16384, 32768, 65536, 131072];
        let ne256 = strong_scaling(&model, HommeWorkload { ne: 256, nlev: 128, qsize: 10 }, &ranks);
        let ne1024 =
            strong_scaling(&model, HommeWorkload { ne: 1024, nlev: 128, qsize: 10 }, &ranks[1..]);
        // Performance grows with ranks but efficiency falls.
        assert!(ne256.last().unwrap().pflops > ne256[0].pflops);
        let eff256 = ne256.last().unwrap().efficiency;
        let eff1024 = ne1024.last().unwrap().efficiency;
        // Figure 7: ne1024 (51%) clearly above ne256 (21.7%) at 131,072.
        assert!(eff1024 > eff256 + 0.1, "eff1024 {eff1024} vs eff256 {eff256}");
        assert!(eff256 > 0.05 && eff256 < 0.5, "eff256 {eff256}");
        assert!(eff1024 > 0.3 && eff1024 < 0.9, "eff1024 {eff1024}");
    }

    #[test]
    fn weak_scaling_reproduces_figure8_shape() {
        let m = Machine::taihulight();
        let model = figure_model(&m);
        let ranks = [512usize, 2048, 8192, 32768, 131072];
        let e48 = weak_scaling(&model, 48, 128, 10, &ranks);
        let e650 = weak_scaling(&model, 650, 128, 10, &ranks);
        // Efficiency stays high and grows with elements per rank.
        let eff48 = e48.last().unwrap().efficiency;
        let eff650 = e650.last().unwrap().efficiency;
        assert!(eff48 > 0.7, "eff48 {eff48}");
        assert!(eff650 > eff48, "{eff650} vs {eff48}");
        assert!(eff650 > 0.9, "eff650 {eff650}");
        // Full-machine 650-element case lands in the paper's PFlops decade.
        let full = weak_scaling(&model, 650, 128, 10, &[155_000]);
        let pf = full[0].pflops;
        assert!(pf > 1.0 && pf < 12.0, "pflops {pf}");
    }
}
