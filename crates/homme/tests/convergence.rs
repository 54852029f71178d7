//! Convergence tests: the spectral-element operators gain accuracy with
//! resolution at the expected rates, and the full model's errors shrink
//! under refinement — the numerical-analysis backbone behind trusting the
//! kernel reproductions.

use cubesphere::{CubedSphere, EARTH_RADIUS, NP, NPTS};
use homme::deriv::build_ops;

/// Max interior-point error of the computed gradient of sin(lat) at
/// resolution `ne`.
fn gradient_error(ne: usize) -> f64 {
    let grid = CubedSphere::new(ne);
    let ops = build_ops(&grid);
    let mut worst: f64 = 0.0;
    for (el, op) in grid.elements.iter().zip(&ops) {
        let s: Vec<f64> = el.metric.iter().map(|m| m.lat.sin()).collect();
        let mut gx = [0.0; NPTS];
        let mut gy = [0.0; NPTS];
        op.gradient_sphere(&s, &mut gx, &mut gy);
        for i in 1..NP - 1 {
            for j in 1..NP - 1 {
                let p = i * NP + j;
                let exact = el.metric[p].lat.cos() / EARTH_RADIUS;
                worst = worst.max((gy[p] - exact).abs() * EARTH_RADIUS);
            }
        }
    }
    worst
}

#[test]
fn gradient_converges_at_high_order() {
    // np = 4 elements: interior-point errors should fall roughly as h^3
    // (h ~ 1/ne). Demand at least h^2.5 between ne = 4 and ne = 8.
    let e4 = gradient_error(4);
    let e8 = gradient_error(8);
    let order = (e4 / e8).log2();
    assert!(
        order > 2.5,
        "observed convergence order {order:.2} (e4 = {e4:.3e}, e8 = {e8:.3e})"
    );
}

/// Max error of the weak Laplacian of the l=1 spherical harmonic.
fn laplacian_error(ne: usize) -> f64 {
    let grid = CubedSphere::new(ne);
    let ops = build_ops(&grid);
    let mut dss = homme::Dss::new(&grid);
    let a2 = EARTH_RADIUS * EARTH_RADIUS;
    let mut field: Vec<f64> =
        grid.elements.iter().flat_map(|el| el.metric.iter().map(|m| m.lat.sin())).collect();
    let sched = homme::ElemScheduler::new(1);
    homme::hypervis::laplace_flat(&ops, &mut dss, &sched, 1, &mut field);
    let mut worst: f64 = 0.0;
    for (el, f) in grid.elements.iter().zip(field.chunks(NPTS)) {
        for p in 0..NPTS {
            let exact = -2.0 * el.metric[p].lat.sin() / a2;
            worst = worst.max((f[p] - exact).abs() * a2);
        }
    }
    worst
}

#[test]
fn weak_laplacian_converges() {
    let e4 = laplacian_error(4);
    let e8 = laplacian_error(8);
    assert!(
        e8 < e4 / 3.0,
        "weak Laplacian not converging: {e4:.3e} -> {e8:.3e}"
    );
    assert!(e8 < 0.05, "absolute accuracy at ne8: {e8:.3e}");
}

/// The balanced solid-body state decays more slowly at higher resolution
/// (the discrete residual is the only forcing).
#[test]
fn balanced_state_error_shrinks_with_resolution() {
    use cubesphere::consts::{OMEGA, P0, RD};
    use homme::{Dims, Dycore, DycoreConfig, HypervisConfig};

    let drift = |ne: usize| -> f64 {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 200.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(ne, dims, 2000.0, cfg);
        let (t0, u0) = (300.0, 30.0);
        let c = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) / (RD * t0);
        let mut st = dy.zero_state();
        let elems = dy.grid.elements.clone();
        let vert = dy.rhs.vert.clone();
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let ps = P0 * (-c * lat.sin() * lat.sin()).exp();
                for k in 0..dims.nlev {
                    es.u[k * NPTS + p] = u0 * lat.cos();
                    es.t[k * NPTS + p] = t0;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
        let init = st.clone();
        for _ in 0..5 {
            dy.step(&mut st);
        }
        st.max_abs_diff(&init)
    };

    let d3 = drift(3);
    let d6 = drift(6);
    assert!(d6 < d3 / 2.0, "no refinement benefit: {d3:.3e} -> {d6:.3e}");
}
