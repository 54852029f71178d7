//! Property-based tests of the dynamical core's numerical invariants.

use cubesphere::{CubedSphere, NPTS};
use homme::dss::Dss;
use homme::euler::limit_nonnegative;
use homme::remap::remap_column_ppm;
use homme::rhs::pressure_scan;
use proptest::prelude::*;

proptest! {
    /// PPM remap conserves column mass and preserves bounds for arbitrary
    /// positive thickness distributions and values.
    #[test]
    fn remap_conserves_and_bounds(
        src_dp in proptest::collection::vec(10.0f64..500.0, 4..24),
        vals_seed in proptest::collection::vec(-50.0f64..50.0, 24),
        split in 0.2f64..0.8,
    ) {
        let n = src_dp.len();
        let vals: Vec<f64> = (0..n).map(|k| vals_seed[k % vals_seed.len()]).collect();
        let total: f64 = src_dp.iter().sum();
        // A two-slope target grid with the same total.
        let mut dst = Vec::with_capacity(n);
        let n1 = (n as f64 * split).max(1.0) as usize;
        let n1 = n1.min(n - 1);
        let t1 = total * split;
        for _ in 0..n1 { dst.push(t1 / n1 as f64); }
        for _ in n1..n { dst.push((total - t1) / (n - n1) as f64); }
        let mut out = vec![0.0; n];
        remap_column_ppm(&src_dp, &vals, &dst, &mut out).unwrap();

        let m0: f64 = src_dp.iter().zip(&vals).map(|(d, v)| d * v).sum();
        let m1: f64 = dst.iter().zip(&out).map(|(d, v)| d * v).sum();
        prop_assert!((m0 - m1).abs() < 1e-8 * m0.abs().max(total), "mass {m0} vs {m1}");

        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        for &o in &out {
            prop_assert!(o >= lo - 1e-9 && o <= hi + 1e-9, "{o} outside [{lo}, {hi}]");
        }
    }

    /// Remapping a constant is exact for any grids.
    #[test]
    fn remap_preserves_constants(
        src_dp in proptest::collection::vec(10.0f64..500.0, 3..16),
        c in -100.0f64..100.0,
    ) {
        let n = src_dp.len();
        let total: f64 = src_dp.iter().sum();
        let dst = vec![total / n as f64; n];
        let vals = vec![c; n];
        let mut out = vec![0.0; n];
        remap_column_ppm(&src_dp, &vals, &dst, &mut out).unwrap();
        for &o in &out {
            prop_assert!((o - c).abs() < 1e-10 * c.abs().max(1.0));
        }
    }

    /// The limiter never produces negatives and conserves weighted mass
    /// whenever the level's total mass is non-negative.
    #[test]
    fn limiter_invariants(
        qdp_seed in proptest::collection::vec(-0.5f64..1.0, 16),
        w_seed in proptest::collection::vec(0.1f64..3.0, 16),
    ) {
        let mut qdp = [0.0; NPTS];
        let mut w = [0.0; NPTS];
        qdp.copy_from_slice(&qdp_seed[..NPTS]);
        w.copy_from_slice(&w_seed[..NPTS]);
        let mass0: f64 = (0..NPTS).map(|i| w[i] * qdp[i]).sum();
        limit_nonnegative(&w, &mut qdp);
        prop_assert!(qdp.iter().all(|&x| x >= 0.0));
        let mass1: f64 = (0..NPTS).map(|i| w[i] * qdp[i]).sum();
        if mass0 >= 0.0 {
            prop_assert!((mass0 - mass1).abs() < 1e-10 * mass0.abs().max(1e-10));
        } else {
            prop_assert_eq!(mass1, 0.0);
        }
    }

    /// The pressure scan telescopes exactly: the bottom interface equals
    /// ptop plus the column sum, for arbitrary thicknesses.
    #[test]
    fn pressure_scan_telescopes(
        dp_seed in proptest::collection::vec(1.0f64..2000.0, 16),
        nlev in 2usize..12,
        ptop in 10.0f64..5000.0,
    ) {
        let dp: Vec<f64> = (0..nlev * NPTS).map(|i| dp_seed[i % dp_seed.len()]).collect();
        let mut p_int = vec![0.0; (nlev + 1) * NPTS];
        let mut p_mid = vec![0.0; nlev * NPTS];
        pressure_scan(nlev, ptop, &dp, &mut p_int, &mut p_mid);
        for p in 0..NPTS {
            let col_sum: f64 = (0..nlev).map(|k| dp[k * NPTS + p]).sum();
            let bottom = p_int[nlev * NPTS + p];
            prop_assert!((bottom - ptop - col_sum).abs() < 1e-9 * bottom);
            for k in 0..nlev {
                prop_assert!(p_mid[k * NPTS + p] > p_int[k * NPTS + p]);
                prop_assert!(p_mid[k * NPTS + p] < p_int[(k + 1) * NPTS + p]);
            }
        }
    }
}

/// [`CubedSphere::global_integral`] of one level in the flat
/// `[nelem][NPTS]` layout.
fn global_integral(grid: &CubedSphere, field: &[f64]) -> f64 {
    grid.global_integral(&field.chunks(NPTS).map(<[f64]>::to_vec).collect::<Vec<_>>())
}

/// DSS is a projection (idempotent) and conserves the weighted integral
/// for random fields — checked on a real grid outside proptest's loop
/// (grid construction is the expensive part).
#[test]
fn dss_projection_on_random_fields() {
    use rand::prelude::*;
    let grid = CubedSphere::new(3);
    let mut dss = Dss::new(&grid);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let mut field: Vec<f64> =
            (0..grid.nelem() * NPTS).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let integral0 = global_integral(&grid, &field);
        dss.apply_flat(&mut field, 1);
        let once = field.clone();
        let integral1 = global_integral(&grid, &field);
        assert!(
            (integral0 - integral1).abs() < 1e-9 * integral0.abs().max(1.0),
            "integral {integral0} -> {integral1}"
        );
        dss.apply_flat(&mut field, 1);
        for (x, y) in once.iter().zip(&field) {
            assert!((x - y).abs() < 1e-10, "not idempotent: {x} vs {y}");
        }
    }
}

/// The weak-form Laplacian integrates to zero for arbitrary fields — the
/// exact-conservation property the hyperviscosity relies on.
#[test]
fn weak_laplacian_integral_vanishes_for_random_fields() {
    use homme::deriv::build_ops;
    use rand::prelude::*;
    let grid = CubedSphere::new(3);
    let ops = build_ops(&grid);
    let mut dss = Dss::new(&grid);
    let mut rng = StdRng::seed_from_u64(123);
    let sched = homme::ElemScheduler::new(1);
    for _ in 0..5 {
        let mut field: Vec<f64> =
            (0..grid.nelem() * NPTS).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        homme::hypervis::laplace_flat(&ops, &mut dss, &sched, 1, &mut field);
        let integral = global_integral(&grid, &field);
        // Magnitude scale of the Laplacian for the tolerance.
        let scale: f64 = field.iter().map(|x| x.abs()).fold(0.0, f64::max) * grid.total_area();
        assert!(
            integral.abs() < 1e-12 * scale.max(1.0),
            "integral {integral} vs scale {scale}"
        );
    }
}
