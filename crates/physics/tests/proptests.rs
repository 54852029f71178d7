//! Property-based tests of the physics suite's budgets.

use cubesphere::consts::{CP, LATVAP};
use proptest::prelude::*;
use swphysics::pbl::tridiag_solve;
use swphysics::{saturation_adjust, Column, Kessler, SimplePhysics};

proptest! {
    /// Saturation adjustment conserves moist enthalpy and total water for
    /// any (t, qv, qc, p) state.
    #[test]
    fn saturation_adjust_budgets(
        t0 in 230.0f64..320.0,
        qv0 in 0.0f64..0.05,
        qc0 in 0.0f64..0.01,
        p in 20_000.0f64..103_000.0,
    ) {
        let (mut t, mut qv, mut qc) = (t0, qv0, qc0);
        let h0 = CP * t + LATVAP * qv;
        let w0 = qv + qc;
        saturation_adjust(&mut t, &mut qv, &mut qc, p);
        prop_assert!(qv >= 0.0 && qc >= -1e-15);
        prop_assert!((CP * t + LATVAP * qv - h0).abs() < 1e-6 * h0.abs());
        prop_assert!((qv + qc - w0).abs() < 1e-12);
    }

    /// The tridiagonal solver inverts diagonally-dominant random systems
    /// (checked by residual).
    #[test]
    fn tridiag_residual_small(
        n in 2usize..20,
        seed in proptest::collection::vec(-1.0f64..1.0, 64),
    ) {
        let a: Vec<f64> = (0..n).map(|i| seed[i % seed.len()]).collect();
        let c: Vec<f64> = (0..n).map(|i| seed[(i + 17) % seed.len()]).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| 2.5 + a[i].abs() + c[i].abs() + seed[(i + 31) % seed.len()].abs())
            .collect();
        let rhs: Vec<f64> = (0..n).map(|i| 10.0 * seed[(i + 7) % seed.len()]).collect();
        let mut x = rhs.clone();
        tridiag_solve(&a, &b, &c, &mut x, &mut vec![0.0; n]);
        for i in 0..n {
            let mut r = b[i] * x[i] - rhs[i];
            if i > 0 {
                r += a[i] * x[i - 1];
            }
            if i + 1 < n {
                r += c[i] * x[i + 1];
            }
            prop_assert!(r.abs() < 1e-8, "residual {r} at row {i}");
        }
    }

    /// Kessler microphysics never produces negative water species and the
    /// column water budget closes against surface rain, for random humid
    /// columns.
    #[test]
    fn kessler_water_budget(
        t0 in 260.0f64..305.0,
        qv in 0.0f64..0.025,
        qc in 0.0f64..0.005,
        qr in 0.0f64..0.005,
        steps in 1usize..10,
    ) {
        let kes = Kessler::default();
        let mut col = Column::isothermal(10, 5_000.0, 100_000.0, t0);
        for k in 5..10 {
            col.qv[k] = qv;
            col.qc[k] = qc;
            col.qr[k] = qr;
        }
        let w0 = col.total_water();
        let mut rain = 0.0;
        for _ in 0..steps {
            rain += kes.step(&mut col, 120.0);
        }
        prop_assert!(col.qv.iter().all(|&x| x >= 0.0));
        prop_assert!(col.qc.iter().all(|&x| x >= 0.0));
        prop_assert!(col.qr.iter().all(|&x| x >= 0.0));
        prop_assert!(rain >= 0.0);
        let w1 = col.total_water();
        prop_assert!(
            ((w0 - w1) - rain).abs() < 1e-8 * w0.max(1e-6),
            "budget: delta {} vs rain {rain}",
            w0 - w1
        );
    }

    /// Simple physics keeps any reasonable column in physical bounds over
    /// repeated steps.
    #[test]
    fn simple_physics_stays_physical(
        sst in 290.0f64..305.0,
        wind in 0.0f64..40.0,
        steps in 1usize..30,
    ) {
        let sp = SimplePhysics { sst, ..Default::default() };
        let mut col = Column::isothermal(12, 2_000.0, 101_000.0, 290.0);
        col.u[11] = wind;
        for _ in 0..steps {
            sp.step(&mut col, 900.0);
        }
        prop_assert!(col.t.iter().all(|&t| (150.0..360.0).contains(&t)));
        prop_assert!(col.qv.iter().all(|&q| (0.0..0.1).contains(&q)));
        prop_assert!(col.u.iter().all(|&u| u.abs() <= wind + 1e-9));
    }
}
