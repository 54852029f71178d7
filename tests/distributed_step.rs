//! Cross-crate integration: distributed DSS (swmpi ranks + the redesigned
//! boundary exchange) agrees with the serial engine on multi-level fields,
//! under every partition and both exchange schedules.

use cubesphere::{CubedSphere, Partition, NPTS};
use homme::bndry::{CopyStats, ExchangeMode, ExchangePlan};
use homme::dss::Dss;
use swmpi::run_ranks;

fn field_value(e: usize, k: usize, p: usize) -> f64 {
    ((e * 131 + k * 17 + p * 7) % 97) as f64 - 48.0
}

fn serial(grid: &CubedSphere, nlev: usize) -> Vec<Vec<f64>> {
    let mut field: Vec<f64> = (0..grid.nelem())
        .flat_map(|e| (0..nlev).flat_map(move |k| (0..NPTS).map(move |p| field_value(e, k, p))))
        .collect();
    Dss::new(grid).apply_flat(&mut field, nlev);
    field.chunks(nlev * NPTS).map(<[f64]>::to_vec).collect()
}

#[test]
fn multilevel_distributed_dss_matches_serial() {
    let grid = CubedSphere::new(4);
    let nlev = 3;
    let reference = serial(&grid, nlev);
    for nranks in [2usize, 4, 7, 12] {
        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            let part = Partition::new(&grid, nranks);
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            let results = run_ranks(nranks, |ctx| {
                let plan = &plans[ctx.rank()];
                // Per-level exchange of the multi-level field.
                let mut full: Vec<Vec<f64>> = plan
                    .owned
                    .iter()
                    .map(|&e| {
                        (0..nlev)
                            .flat_map(|k| (0..NPTS).map(move |p| field_value(e, k, p)))
                            .collect::<Vec<f64>>()
                    })
                    .collect();
                let mut stats = CopyStats::default();
                for k in 0..nlev {
                    let mut level: Vec<Vec<f64>> = full
                        .iter()
                        .map(|f| f[k * NPTS..(k + 1) * NPTS].to_vec())
                        .collect();
                    plan.dss_level(ctx, &mut level, mode, k as u64, || {}, &mut stats)
                        .expect("dss level");
                    for (f, l) in full.iter_mut().zip(&level) {
                        f[k * NPTS..(k + 1) * NPTS].copy_from_slice(l);
                    }
                }
                (plan.owned.clone(), full)
            });
            for (owned, fields) in results {
                for (e, f) in owned.into_iter().zip(fields) {
                    for i in 0..nlev * NPTS {
                        assert_eq!(
                            f[i].to_bits(),
                            reference[e][i].to_bits(),
                            "{mode:?} nranks={nranks} elem {e} idx {i}: {} vs {}",
                            f[i],
                            reference[e][i]
                        );
                    }
                }
            }
        }
    }
}

/// The distributed driver (blocked kernels, the only path a rank runs)
/// commits the bits of the single oracle, the serial scalar `Dycore`: ten
/// full steps across ranks, every prognostic field compared to the last
/// bit.
#[test]
fn distributed_blocked_path_matches_scalar_bitwise() {
    use cubesphere::consts::P0;
    use cubesphere::Partition;
    use homme::hypervis::HypervisConfig;
    use homme::{Dims, DistDycore, Dycore, DycoreConfig, KernelPath};

    const NE: usize = 3;
    const NRANKS: usize = 4;
    const NSTEPS: usize = 10;
    let dims = Dims { nlev: 5, qsize: 2 };
    let nu = HypervisConfig::for_ne(NE).nu;
    let cfg = DycoreConfig {
        dt: 300.0 * 30.0 / NE as f64,
        hypervis: HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 2 },
        limiter: true,
        rsplit: 2,
    };

    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims, 2000.0, cfg);
    let init = {
        let vert = serial.rhs.vert.clone();
        let mut st = serial.zero_state();
        for (es, el) in st.elems_mut().zip(&serial.grid.elements) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let lon = el.metric[p].lon;
                let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
                for k in 0..dims.nlev {
                    let i = k * NPTS + p;
                    es.u[i] = 20.0 * lat.cos();
                    es.v[i] = 2.0 * lon.sin();
                    es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                    es.dp3d[i] = vert.dp_ref(k, ps);
                    for q in 0..dims.qsize {
                        es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                    }
                }
            }
        }
        st
    };

    let blocked = run_ranks(NRANKS, |ctx| {
        let mut dist =
            DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, ExchangeMode::Redesigned);
        assert_eq!(dist.kernels, KernelPath::Blocked);
        let mut local = dist.local_state(&init);
        for step in 0..NSTEPS {
            ctx.set_step(step as u64);
            dist.step(ctx, &mut local).expect("step");
        }
        (dist.plan.owned.clone(), local)
    });

    let mut oracle = serial;
    oracle.kernels = KernelPath::Scalar;
    let mut scalar = init.clone();
    for _ in 0..NSTEPS {
        oracle.step(&mut scalar);
    }
    for (rank, (owned, sb)) in blocked.iter().enumerate() {
        for (li, &e) in owned.iter().enumerate() {
            let (ss, sb) = (scalar.elem(e), sb.elem(li));
            for (name, fa, fb) in [
                ("u", ss.u, sb.u),
                ("v", ss.v, sb.v),
                ("t", ss.t, sb.t),
                ("dp3d", ss.dp3d, sb.dp3d),
                ("qdp", ss.qdp, sb.qdp),
            ] {
                for (i, (x, y)) in fa.iter().zip(fb.iter()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "rank {rank} elem {e} {name}[{i}] differs: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn redesigned_mode_overlaps_useful_interior_work() {
    // The interior closure's work must actually contribute: use it to
    // compute the interior elements' local sums while halo messages fly,
    // then check the exchange still produced the right answer.
    let grid = CubedSphere::new(4);
    let nranks = 6;
    let part = Partition::new(&grid, nranks);
    let plans: Vec<ExchangePlan> =
        (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
    let reference = serial(&grid, 1);
    let results = run_ranks(nranks, |ctx| {
        let plan = &plans[ctx.rank()];
        let mut fields: Vec<Vec<f64>> = plan
            .owned
            .iter()
            .map(|&e| (0..NPTS).map(|p| field_value(e, 0, p)).collect())
            .collect();
        let mut stats = CopyStats::default();
        let mut interior_sum = 0.0;
        let interior: Vec<usize> = plan.interior.clone();
        let snapshot = fields.clone();
        plan.dss_level(
            ctx,
            &mut fields,
            ExchangeMode::Redesigned,
            0,
            || {
                for &li in &interior {
                    interior_sum += snapshot[li].iter().sum::<f64>();
                }
            },
            &mut stats,
        )
        .expect("dss level");
        (plan.owned.clone(), fields, interior_sum)
    });
    for (owned, fields, interior_sum) in results {
        assert!(interior_sum.is_finite());
        for (e, f) in owned.into_iter().zip(fields) {
            for p in 0..NPTS {
                assert!((f[p] - reference[e][p]).abs() < 1e-10);
            }
        }
    }
}
