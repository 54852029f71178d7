//! OpenACC directive variants of the Table-1 kernels (paper Section 7.2,
//! Algorithm 1).
//!
//! Each kernel is described to the `swacc` tools as a loop nest with array
//! clauses; the tools pick the collapse and the LDM tiling, and the
//! directive executor charges the schedule's characteristic costs:
//! per-iteration re-transfer of collapse-invariant arrays (no staging point
//! between collapsed loops), scalar-only flops, spawn overhead per region.
//! The bodies compute the same answers as the reference kernels.

use super::{KernelData, KernelId};
use crate::euler::tracer_flux_divergence;
use crate::remap::remap_column_ppm;
use crate::rhs::element_rhs_raw;
use cubesphere::NPTS;
use swacc::{AccRegion, ArrayRef, Intent, Loop, LoopNest};
use sw26010::{CpeCluster, KernelReport, SharedSlice, SharedSliceMut};

/// Compile the directive region for `kernel` on a `data`-shaped workspace.
pub fn region_for(kernel: KernelId, data: &KernelData) -> AccRegion {
    let (nelem, nlev, qsize) = (data.nelem, data.nlev, data.qsize);
    let nest = match kernel {
        KernelId::EulerStep => LoopNest {
            name: "euler_step".into(),
            loops: vec![
                Loop::parallel("ie", nelem),
                Loop::parallel("q", qsize),
                Loop::parallel("k", nlev),
            ],
            arrays: vec![
                ArrayRef {
                    name: "qdp".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 1, 2],
                    elems_per_point: NPTS,
                    intent: Intent::InOut,
                },
                ArrayRef {
                    name: "u".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 2],
                    elems_per_point: NPTS,
                    intent: Intent::In,
                },
                ArrayRef {
                    name: "v".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 2],
                    elems_per_point: NPTS,
                    intent: Intent::In,
                },
                ArrayRef {
                    name: "dp3d".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 2],
                    elems_per_point: NPTS,
                    intent: Intent::In,
                },
                // The remaining q-invariant inputs of the real euler_step
                // (derived vn0/vstar x2 each, divdp, dpdiss_biharmonic and
                // two Qtens work arrays) plus the per-element metric
                // constants — all re-read per (ie, q) iteration under the
                // collapse(2) schedule.
                ArrayRef {
                    name: "derived".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 2],
                    elems_per_point: 8 * NPTS,
                    intent: Intent::In,
                },
                ArrayRef {
                    name: "metric".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0],
                    elems_per_point: 5 * NPTS / 16, // amortized per level point
                    intent: Intent::In,
                },
            ],
            flops_per_point: 28 * NPTS as u64,
        },
        KernelId::ComputeAndApplyRhs => LoopNest {
            name: "compute_and_apply_rhs".into(),
            loops: vec![
                Loop::parallel("ie", nelem),
                // The vertical scans serialize the level loop: the directive
                // compiler cannot parallelize it (this is the kernel the
                // paper reports as *slower* than one Intel core pre-redesign).
                Loop::sequential("k", nlev),
            ],
            arrays: vec![
                ArrayRef {
                    name: "state".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 1],
                    elems_per_point: 4 * NPTS, // u v t dp
                    intent: Intent::In,
                },
                ArrayRef {
                    name: "tend".into(),
                    elem_bytes: 8,
                    indexed_by: vec![0, 1],
                    elems_per_point: 4 * NPTS,
                    intent: Intent::Out,
                },
            ],
            flops_per_point: 165 * NPTS as u64,
        },
        KernelId::VerticalRemap => LoopNest {
            name: "vertical_remap".into(),
            loops: vec![Loop::parallel("ie", nelem), Loop::parallel("p", NPTS)],
            arrays: vec![ArrayRef {
                name: "columns".into(),
                elem_bytes: 8,
                // Column-strided access: the whole column of every remapped
                // field per (ie, p) iteration.
                indexed_by: vec![0, 1],
                elems_per_point: nlev * (4 + qsize) * 2,
                intent: Intent::InOut,
            }],
            flops_per_point: (40 * (3 + qsize) * nlev) as u64,
        },
        KernelId::HypervisDp1 | KernelId::HypervisDp2 | KernelId::BiharmonicDp3d => {
            let (name, fields, flops): (&str, usize, u64) = match kernel {
                KernelId::HypervisDp1 => ("hypervis_dp1", 3, 122),
                KernelId::HypervisDp2 => ("hypervis_dp2", 3, 244),
                _ => ("biharmonic_dp3d", 1, 94),
            };
            LoopNest {
                name: name.into(),
                loops: vec![Loop::parallel("ie", nelem), Loop::parallel("k", nlev)],
                arrays: vec![
                    ArrayRef {
                        name: "in".into(),
                        elem_bytes: 8,
                        indexed_by: vec![0, 1],
                        elems_per_point: fields * NPTS,
                        intent: Intent::In,
                    },
                    ArrayRef {
                        name: "out".into(),
                        elem_bytes: 8,
                        indexed_by: vec![0, 1],
                        elems_per_point: fields * NPTS,
                        intent: Intent::Out,
                    },
                ],
                flops_per_point: flops * NPTS as u64,
            }
        }
    };
    AccRegion::compile(nest).expect("directive region compiles")
}

/// `euler_step`, OpenACC variant (Algorithm 1: re-reads `u`, `v`, `dp`
/// every tracer iteration).
pub fn euler_step(cluster: &CpeCluster, data: &mut KernelData, dt: f64) -> KernelReport {
    let region = region_for(KernelId::EulerStep, data);
    let (nlev, qsize) = (data.nlev, data.qsize);
    let ops = &data.ops;
    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let dp = SharedSlice::new(&data.dp3d);
    let qdp = SharedSlice::new(&data.qdp);
    let out = SharedSliceMut::new(&mut data.out_a);
    region.run(cluster, |ctx, idx, krange| {
        // Collapse may take 2 or 3 loops depending on sizes.
        let (ie, q, ks) = match idx.len() {
            2 => (idx[0], idx[1], None),
            _ => (idx[0], idx[1], Some(idx[2])),
        };
        let levels: Vec<usize> = match ks {
            Some(k) => vec![k],
            None => krange.collect(),
        };
        for k in levels {
            let r = (ie * nlev + k) * NPTS..(ie * nlev + k + 1) * NPTS;
            let rq = ((ie * qsize + q) * nlev + k) * NPTS..((ie * qsize + q) * nlev + k + 1) * NPTS;
            let mut tend = [0.0; NPTS];
            tracer_flux_divergence(
                &ops[ie],
                u.range(r.clone()),
                v.range(r.clone()),
                dp.range(r.clone()),
                qdp.range(rq.clone()),
                &mut tend,
            );
            let mut o = [0.0; NPTS];
            for p in 0..NPTS {
                o[p] = qdp.range(rq.clone())[p] + dt * tend[p];
            }
            out.write(rq.start, &o, ctx.id());
        }
    })
}

/// `compute_and_apply_rhs`, OpenACC variant.
///
/// The Fortran kernel interleaves the RHS with the DSS accumulation, so the
/// element loop carries a cross-element dependence the directive compiler
/// cannot break, and the vertical scans serialize the level loop. The
/// Sunway OpenACC fallback therefore runs the kernel *serially on one CPE*,
/// tile-copying its working set — the configuration the paper measures at
/// 6x slower than one Intel core (Table 1: 75.11 s vs 12.69 s).
pub fn compute_and_apply_rhs(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    let nelem = data.nelem;
    let nlev = data.nlev;
    let ptop = data.ptop;
    let ops = &data.ops;
    let flops = super::op_count(KernelId::ComputeAndApplyRhs, data.shape()).flops;
    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let t = SharedSlice::new(&data.t);
    let dp = SharedSlice::new(&data.dp3d);
    let phis = SharedSlice::new(&data.phis);
    let tu = SharedSliceMut::new(&mut data.tend_u);
    let tv = SharedSliceMut::new(&mut data.tend_v);
    let tt = SharedSliceMut::new(&mut data.tend_t);
    let tdp = SharedSliceMut::new(&mut data.tend_dp);
    cluster.run(|ctx| {
        if ctx.id() != 0 {
            return; // serialized: 63 CPEs idle
        }
        let n = nlev * NPTS;
        let mut out_u = vec![0.0; n];
        let mut out_v = vec![0.0; n];
        let mut out_t = vec![0.0; n];
        let mut out_dp = vec![0.0; n];
        let mut scratch = crate::rhs::RhsScratch::new(nlev);
        for ie in 0..nelem {
            let r = ie * n..(ie + 1) * n;
            // Tiled copyin of the 5 input fields and copyout of 4 outputs.
            ctx.charge_dma_traffic(5 * n * 8, true);
            element_rhs_raw(
                &ops[ie],
                nlev,
                ptop,
                u.range(r.clone()),
                v.range(r.clone()),
                t.range(r.clone()),
                dp.range(r.clone()),
                phis.range(ie * NPTS..(ie + 1) * NPTS),
                &mut out_u,
                &mut out_v,
                &mut out_t,
                &mut out_dp,
                &mut scratch,
            );
            tu.write(r.start, &out_u, ctx.id());
            tv.write(r.start, &out_v, ctx.id());
            tt.write(r.start, &out_t, ctx.id());
            tdp.write(r.start, &out_dp, ctx.id());
            ctx.charge_dma_traffic(4 * n * 8, false);
        }
        // All arithmetic retires scalar on the single active CPE.
        ctx.charge_sflops(flops);
    })
}

/// `vertical_remap`, OpenACC variant: per-(element, point) column remap
/// with strided column gathers (the axis-switch penalty the Athread
/// transposition removes).
pub fn vertical_remap(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    let region = region_for(KernelId::VerticalRemap, data);
    let (nlev, qsize) = (data.nlev, data.qsize);
    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let t = SharedSlice::new(&data.t);
    let dp = SharedSlice::new(&data.dp3d);
    let qdp = SharedSlice::new(&data.qdp);
    let tu = SharedSliceMut::new(&mut data.tend_u);
    let tv = SharedSliceMut::new(&mut data.tend_v);
    let tt = SharedSliceMut::new(&mut data.tend_t);
    let tdp = SharedSliceMut::new(&mut data.tend_dp);
    let out_q = SharedSliceMut::new(&mut data.out_a);
    region.run(cluster, |ctx, idx, _range| {
        let (ie, p) = (idx[0], idx[1]);
        let mut src = vec![0.0; nlev];
        let mut dst = vec![0.0; nlev];
        let mut col = vec![0.0; nlev];
        let mut out = vec![0.0; nlev];
        let at = |k: usize| (ie * nlev + k) * NPTS + p;
        let mut total = 0.0;
        for k in 0..nlev {
            src[k] = dp.get(at(k));
            total += src[k];
        }
        for k in 0..nlev {
            dst[k] = total / nlev as f64;
        }
        for (f, (input, output)) in
            [(&u, &tu), (&v, &tv), (&t, &tt)].into_iter().enumerate()
        {
            let _ = f;
            for k in 0..nlev {
                col[k] = input.get(at(k));
            }
            remap_column_ppm(&src, &col, &dst, &mut out).expect("remap");
            for k in 0..nlev {
                output.set(at(k), out[k], ctx.id());
            }
        }
        for q in 0..qsize {
            let atq = |k: usize| ((ie * qsize + q) * nlev + k) * NPTS + p;
            for k in 0..nlev {
                col[k] = qdp.get(atq(k)) / src[k];
            }
            remap_column_ppm(&src, &col, &dst, &mut out).expect("remap");
            for k in 0..nlev {
                out_q.set(atq(k), out[k] * dst[k], ctx.id());
            }
        }
        for k in 0..nlev {
            tdp.set(at(k), dst[k], ctx.id());
        }
    })
}

/// The three viscosity kernels share a per-(element, level) schedule.
fn viscosity(
    cluster: &CpeCluster,
    data: &mut KernelData,
    kernel: KernelId,
) -> KernelReport {
    let region = region_for(kernel, data);
    let nlev = data.nlev;
    let ops = &data.ops;
    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let t = SharedSlice::new(&data.t);
    let dp = SharedSlice::new(&data.dp3d);
    let tu = SharedSliceMut::new(&mut data.tend_u);
    let tv = SharedSliceMut::new(&mut data.tend_v);
    let tt = SharedSliceMut::new(&mut data.tend_t);
    let tdp = SharedSliceMut::new(&mut data.tend_dp);
    region.run(cluster, |ctx, idx, _| {
        let (ie, k) = (idx[0], idx[1]);
        let r = (ie * nlev + k) * NPTS..(ie * nlev + k + 1) * NPTS;
        let op = &ops[ie];
        match kernel {
            KernelId::HypervisDp1 => {
                let mut lu = [0.0; NPTS];
                let mut lv = [0.0; NPTS];
                op.vlaplace_sphere(u.range(r.clone()), v.range(r.clone()), &mut lu, &mut lv);
                let mut lt = [0.0; NPTS];
                op.laplace_sphere(t.range(r.clone()), &mut lt);
                tu.write(r.start, &lu, ctx.id());
                tv.write(r.start, &lv, ctx.id());
                tt.write(r.start, &lt, ctx.id());
            }
            KernelId::HypervisDp2 => {
                let mut lu = [0.0; NPTS];
                let mut lv = [0.0; NPTS];
                op.vlaplace_sphere(u.range(r.clone()), v.range(r.clone()), &mut lu, &mut lv);
                let mut lu2 = [0.0; NPTS];
                let mut lv2 = [0.0; NPTS];
                op.vlaplace_sphere(&lu, &lv, &mut lu2, &mut lv2);
                let mut lt = [0.0; NPTS];
                op.laplace_sphere(t.range(r.clone()), &mut lt);
                let mut lt2 = [0.0; NPTS];
                op.laplace_sphere(&lt, &mut lt2);
                tu.write(r.start, &lu2, ctx.id());
                tv.write(r.start, &lv2, ctx.id());
                tt.write(r.start, &lt2, ctx.id());
            }
            _ => {
                let mut l1 = [0.0; NPTS];
                op.laplace_sphere(dp.range(r.clone()), &mut l1);
                let mut l2 = [0.0; NPTS];
                op.laplace_sphere(&l1, &mut l2);
                tdp.write(r.start, &l2, ctx.id());
            }
        }
    })
}

/// `hypervis_dp1`, OpenACC variant.
pub fn hypervis_dp1(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    viscosity(cluster, data, KernelId::HypervisDp1)
}

/// `hypervis_dp2`, OpenACC variant.
pub fn hypervis_dp2(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    viscosity(cluster, data, KernelId::HypervisDp2)
}

/// `biharmonic_dp3d`, OpenACC variant.
pub fn biharmonic_dp3d(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    viscosity(cluster, data, KernelId::BiharmonicDp3d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;
    use crate::kernels::KernelData;

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn openacc_euler_matches_reference_with_redundant_traffic() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(16, 16, 4, 21);
        let mut acc_data = ref_data.clone();
        reference::euler_step(&mut ref_data, 120.0);
        let report = euler_step(&cluster, &mut acc_data, 120.0);
        assert_eq!(ref_data.out_a, acc_data.out_a, "same floating-point answer");
        // The directive schedule re-reads u, v, dp for every tracer: DMA-in
        // must scale with qsize even though only qdp depends on q.
        let field = 16 * 16 * NPTS * 8; // one 3-D field in bytes
        assert!(
            report.counters.dma_bytes_in as usize >= 4 * field * 4,
            "expected q-redundant transfers, got {}",
            report.counters.dma_bytes_in
        );
        assert_eq!(report.counters.vflops, 0, "directives cannot vectorize");
    }

    #[test]
    fn openacc_rhs_matches_reference() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(12, 16, 0, 22);
        let mut acc_data = ref_data.clone();
        reference::compute_and_apply_rhs(&mut ref_data);
        let report = compute_and_apply_rhs(&cluster, &mut acc_data);
        assert_eq!(ref_data.tend_u, acc_data.tend_u);
        assert_eq!(ref_data.tend_t, acc_data.tend_t);
        // Only 12 elements of parallelism for 64 CPEs.
        assert!(!region_for(KernelId::ComputeAndApplyRhs, &ref_data).plan.sufficient_parallelism);
        let _ = report;
    }

    #[test]
    fn openacc_remap_matches_reference() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(6, 16, 2, 23);
        let mut acc_data = ref_data.clone();
        reference::vertical_remap(&mut ref_data);
        vertical_remap(&cluster, &mut acc_data);
        assert!(max_diff(&ref_data.tend_u, &acc_data.tend_u) < 1e-12);
        assert!(max_diff(&ref_data.out_a, &acc_data.out_a) < 1e-12);
        assert!(max_diff(&ref_data.tend_dp, &acc_data.tend_dp) < 1e-12);
    }

    #[test]
    fn openacc_viscosity_matches_reference() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(6, 8, 0, 24);
        let mut acc_data = ref_data.clone();
        reference::hypervis_dp1(&mut ref_data);
        hypervis_dp1(&cluster, &mut acc_data);
        assert_eq!(ref_data.tend_u, acc_data.tend_u);
        let mut ref2 = KernelData::synth(6, 8, 0, 25);
        let mut acc2 = ref2.clone();
        reference::biharmonic_dp3d(&mut ref2);
        biharmonic_dp3d(&cluster, &mut acc2);
        assert_eq!(ref2.tend_dp, acc2.tend_dp);
        let mut ref3 = KernelData::synth(6, 8, 0, 26);
        let mut acc3 = ref3.clone();
        reference::hypervis_dp2(&mut ref3);
        hypervis_dp2(&cluster, &mut acc3);
        assert_eq!(ref3.tend_u, acc3.tend_u);
        assert_eq!(ref3.tend_t, acc3.tend_t);
    }
}
