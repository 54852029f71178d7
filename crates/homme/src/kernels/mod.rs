//! The six Table-1 kernels in four implementations.
//!
//! | Kernel                  | Paper description                                  |
//! |-------------------------|----------------------------------------------------|
//! | `compute_and_apply_rhs` | RHS + column scans + tendency accumulation         |
//! | `euler_step`            | SSP-RK2 tracer advection sub-step                  |
//! | `vertical_remap`        | PPM remap back to reference levels                 |
//! | `hypervis_dp1`          | regular (Laplacian) viscosity on momentum + T      |
//! | `hypervis_dp2`          | hyper (biharmonic) viscosity on momentum + T       |
//! | `biharmonic_dp3d`       | weak biharmonic operator on dp3d                   |
//!
//! Each kernel exists as:
//! * **Reference** — plain Rust, the implementation the single-rank dycore
//!   driver uses; also the "one Intel core" column of Table 1 via the
//!   [`sw26010::CpuCoreModel`] roofline.
//! * **Mpe** — identical numerics, priced on the MPE accountant.
//! * **OpenAcc** — executed through [`swacc::AccRegion`] with the directive
//!   compiler's schedule (redundant transfers, scalar flops).
//! * **Athread** — the fine-grained redesign on the simulated CPE cluster:
//!   explicit DMA with reuse, register-communication scans, shuffle
//!   transposition, vector flops.
//!
//! All four produce the same floating-point answer (verified by tests in
//! [`verify`]); they differ in the modeled time and traffic.

pub mod athread;
pub mod blocked;
pub mod openacc;
pub mod reference;
pub mod verify;

use crate::deriv::ElemOps;
use cubesphere::{CubedSphere, NPTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a Table-1 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    ComputeAndApplyRhs,
    EulerStep,
    VerticalRemap,
    HypervisDp1,
    HypervisDp2,
    BiharmonicDp3d,
}

impl KernelId {
    /// All six kernels, Table 1 order.
    pub const ALL: [KernelId; 6] = [
        KernelId::ComputeAndApplyRhs,
        KernelId::EulerStep,
        KernelId::VerticalRemap,
        KernelId::HypervisDp1,
        KernelId::HypervisDp2,
        KernelId::BiharmonicDp3d,
    ];

    /// The Fortran-level name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::ComputeAndApplyRhs => "compute_and_apply_rhs",
            KernelId::EulerStep => "euler_step",
            KernelId::VerticalRemap => "vertical_remap",
            KernelId::HypervisDp1 => "hypervis_dp1",
            KernelId::HypervisDp2 => "hypervis_dp2",
            KernelId::BiharmonicDp3d => "biharmonic_dp3d",
        }
    }
}

/// Implementation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Plain Rust ("one Intel core" when priced).
    Reference,
    /// MPE-only port.
    Mpe,
    /// OpenACC directive refactoring.
    OpenAcc,
    /// Athread fine-grained redesign.
    Athread,
}

/// Input/output workspace for a batch of elements.
///
/// Flat layout: `u[(e * nlev + k) * NPTS + p]`; tracers
/// `qdp[((e * qsize + q) * nlev + k) * NPTS + p]`.
#[derive(Debug, Clone)]
pub struct KernelData {
    pub nelem: usize,
    pub nlev: usize,
    pub qsize: usize,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub t: Vec<f64>,
    pub dp3d: Vec<f64>,
    pub qdp: Vec<f64>,
    pub phis: Vec<f64>,
    /// Per-element operator tables (cycled from a real grid).
    pub ops: Vec<ElemOps>,
    /// Model-top pressure.
    pub ptop: f64,
    // --- kernel outputs -------------------------------------------------
    /// Tendency outputs of compute_and_apply_rhs: du, dv, dT, ddp.
    pub tend_u: Vec<f64>,
    pub tend_v: Vec<f64>,
    pub tend_t: Vec<f64>,
    pub tend_dp: Vec<f64>,
    /// Output of euler_step (updated qdp) / hypervis (lap fields).
    pub out_a: Vec<f64>,
    pub out_b: Vec<f64>,
}

impl KernelData {
    /// Deterministic pseudo-random workload over real cubed-sphere metric
    /// data. `nelem` elements are drawn cyclically from an `ne = 4` grid.
    pub fn synth(nelem: usize, nlev: usize, qsize: usize, seed: u64) -> Self {
        let grid = CubedSphere::new(4);
        let ops: Vec<ElemOps> = (0..nelem)
            .map(|e| ElemOps::new(&grid.elements[e % grid.nelem()], &grid.basis))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = nelem * nlev * NPTS;
        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-30.0..30.0)).collect();
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-30.0..30.0)).collect();
        let t: Vec<f64> = (0..n).map(|_| rng.gen_range(230.0..300.0)).collect();
        let dp3d: Vec<f64> = (0..n).map(|_| rng.gen_range(700.0..900.0)).collect();
        let mut qdp = Vec::with_capacity(n * qsize);
        for e in 0..nelem {
            for _q in 0..qsize {
                for k in 0..nlev {
                    for p in 0..NPTS {
                        let dp = dp3d[(e * nlev + k) * NPTS + p];
                        qdp.push(dp * rng.gen_range(0.0..0.02));
                    }
                }
            }
        }
        let phis: Vec<f64> = (0..nelem * NPTS).map(|_| rng.gen_range(0.0..500.0)).collect();
        KernelData {
            nelem,
            nlev,
            qsize,
            u,
            v,
            t,
            dp3d,
            qdp,
            phis,
            ops,
            ptop: 200.0,
            tend_u: vec![0.0; n],
            tend_v: vec![0.0; n],
            tend_t: vec![0.0; n],
            tend_dp: vec![0.0; n],
            out_a: vec![0.0; n * qsize.max(1)],
            out_b: vec![0.0; n],
        }
    }

    /// Its element, level and tracer counts.
    pub fn shape(&self) -> KernelShape {
        KernelShape { nelem: self.nelem, nlev: self.nlev, qsize: self.qsize }
    }

    /// Flat index of `(e, k, p)`.
    #[inline]
    pub fn at(&self, e: usize, k: usize, p: usize) -> usize {
        (e * self.nlev + k) * NPTS + p
    }

    /// Flat index of `(e, q, k, p)` in `qdp` / `out_a`.
    #[inline]
    pub fn atq(&self, e: usize, q: usize, k: usize, p: usize) -> usize {
        ((e * self.qsize + q) * self.nlev + k) * NPTS + p
    }

    /// Zero all output arrays.
    pub fn clear_outputs(&mut self) {
        for v in [
            &mut self.tend_u,
            &mut self.tend_v,
            &mut self.tend_t,
            &mut self.tend_dp,
            &mut self.out_a,
            &mut self.out_b,
        ] {
            for x in v.iter_mut() {
                *x = 0.0;
            }
        }
    }
}

/// Analytic operation counts per kernel invocation (documented formulas;
/// these drive the Intel/MPE roofline pricing and are cross-checked against
/// the simulator's retired-instruction counters by `verify` tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCount {
    /// Double-precision flops.
    pub flops: u64,
    /// Main-memory bytes streamed (reads + writes, each array once).
    pub bytes: u64,
}

/// The sizes an [`op_count`] reads: elements, levels and tracers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelShape {
    pub nelem: usize,
    pub nlev: usize,
    pub qsize: usize,
}

impl From<&KernelData> for KernelShape {
    fn from(d: &KernelData) -> Self {
        d.shape()
    }
}

/// Flops and streamed bytes of one invocation of `kernel` on `shape`: the
/// one per-point op table of the Table-1 kernels. A model of a grid too
/// large to build passes the counts; `&KernelData` converts.
pub fn op_count(kernel: KernelId, shape: impl Into<KernelShape>) -> OpCount {
    let KernelShape { nelem, nlev, qsize } = shape.into();
    let e = nelem as u64;
    let k = nlev as u64;
    let q = qsize as u64;
    let pts = NPTS as u64;
    let field = e * k * pts; // points per 3-D field
    match kernel {
        // Per element-level: div(v dp) ~ 430, grad(pmid) 352, vgrad 48,
        // vort 400, E 64, grad E 352, grad T 352, pointwise tend ~ 480,
        // scans ~ 150 -> ~ 2630 flops / 16 pts.
        KernelId::ComputeAndApplyRhs => OpCount {
            flops: field * 165,
            // in: u v t dp phis; out: 4 tendencies.
            bytes: (9 * field + e * pts) * 8,
        },
        // Per tracer element-level: flux build 48 + divergence 400 -> 448
        // flops / 16 pts = 28/pt.
        KernelId::EulerStep => OpCount {
            flops: q * field * 28,
            // in per tracer: qdp; shared: u v dp; out: qdp.
            bytes: (2 * q * field + 3 * field) * 8,
        },
        // PPM per column point-level: edges ~ 8, limiter ~ 10, integration
        // ~ 22 -> 40 flops, x4 remapped fields (u v T + 1 tracer-average).
        KernelId::VerticalRemap => OpCount {
            flops: field * 40 * (3 + q),
            bytes: ((3 + q) * 2 * field + field) * 8,
        },
        // Laplacian on u, v (vector, ~ 1200/level) and T (~ 750/level):
        // ~ 122 flops/pt.
        KernelId::HypervisDp1 => OpCount { flops: field * 122, bytes: 6 * field * 8 },
        // Two Laplacian applications.
        KernelId::HypervisDp2 => OpCount { flops: field * 244, bytes: 6 * field * 8 },
        // Scalar biharmonic on dp3d: 2 x ~ 47 flops/pt.
        KernelId::BiharmonicDp3d => OpCount { flops: field * 94, bytes: 2 * field * 8 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_data_is_deterministic_and_sane() {
        let a = KernelData::synth(8, 16, 3, 42);
        let b = KernelData::synth(8, 16, 3, 42);
        assert_eq!(a.u, b.u);
        assert_eq!(a.qdp, b.qdp);
        let c = KernelData::synth(8, 16, 3, 43);
        assert_ne!(a.u, c.u);
        assert!(a.dp3d.iter().all(|&x| x > 0.0));
        assert!(a.qdp.iter().all(|&x| x >= 0.0));
        assert_eq!(a.qdp.len(), 8 * 3 * 16 * NPTS);
        assert_eq!(a.ops.len(), 8);
    }

    #[test]
    fn indices_cover_arrays() {
        let d = KernelData::synth(3, 4, 2, 1);
        assert_eq!(d.at(2, 3, 15), d.u.len() - 1);
        assert_eq!(d.atq(2, 1, 3, 15), d.qdp.len() - 1);
    }

    #[test]
    fn op_counts_scale_linearly() {
        let small = KernelData::synth(4, 8, 2, 0);
        let big = KernelData::synth(8, 8, 2, 0);
        for kid in KernelId::ALL {
            let a = op_count(kid, &small);
            let b = op_count(kid, &big);
            assert_eq!(b.flops, 2 * a.flops, "{}", kid.name());
            assert_eq!(b.bytes, 2 * a.bytes, "{}", kid.name());
            assert!(a.flops > 0 && a.bytes > 0);
        }
    }

    #[test]
    fn kernel_names_match_table1() {
        let names: Vec<&str> = KernelId::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "compute_and_apply_rhs",
                "euler_step",
                "vertical_remap",
                "hypervis_dp1",
                "hypervis_dp2",
                "biharmonic_dp3d"
            ]
        );
    }
}
