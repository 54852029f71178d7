//! Boundary-layer vertical diffusion: an implicit (backward-Euler)
//! tridiagonal solve for `u`, `v`, `T`, `qv` with a prescribed
//! interface-level eddy diffusivity.

use crate::column::{zeroed, Column, ColumnScratch};
use cubesphere::consts::{GRAV, RD};

/// Solve a tridiagonal system `a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i]`
/// in place (Thomas algorithm). `a[0]` and `c[n-1]` are ignored. `cp` is
/// caller scratch of at least `n` values (the modified super-diagonal).
pub fn tridiag_solve(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64], cp: &mut [f64]) {
    let n = d.len();
    debug_assert!(a.len() == n && b.len() == n && c.len() == n && cp.len() >= n);
    cp[0] = c[0] / b[0];
    d[0] /= b[0];
    for i in 1..n {
        let m = b[i] - a[i] * cp[i - 1];
        cp[i] = c[i] / m;
        d[i] = (d[i] - a[i] * d[i - 1]) / m;
    }
    for i in (0..n - 1).rev() {
        d[i] -= cp[i] * d[i + 1];
    }
}

/// Implicit vertical diffusion of `u, v, t, qv` with interface
/// diffusivities `ke` (m^2/s, length `nlev + 1`; `ke[0]` and `ke[nlev]`
/// are the boundary values and are treated as zero-flux boundaries).
pub fn diffuse_column(col: &mut Column, ke: &[f64], dt: f64) {
    let nlev = col.nlev();
    debug_assert_eq!(ke.len(), nlev + 1);
    let Column { p_mid, p_int, dp, t, u, v, qv, scratch, .. } = col;
    let ColumnScratch { coeff, a, b, c, cp, .. } = scratch;
    // Convert to pressure coordinates: d/dt X = g d/dp (rho^2 g K dX/dp).
    // Coefficient at interface k (between layers k-1 and k):
    //   D_k = g^2 rho_int^2 K_k / (p_mid[k] - p_mid[k-1])
    let coeff = zeroed(coeff, nlev + 1);
    for k in 1..nlev {
        let t_int = 0.5 * (t[k - 1] + t[k]);
        let rho = p_int[k] / (RD * t_int);
        coeff[k] = GRAV * GRAV * rho * rho * ke[k] / (p_mid[k] - p_mid[k - 1]);
    }
    let (a, b, c) = (zeroed(a, nlev), zeroed(b, nlev), zeroed(c, nlev));
    for k in 0..nlev {
        let up = coeff[k] * dt / dp[k];
        let dn = coeff[k + 1] * dt / dp[k];
        a[k] = -up;
        c[k] = -dn;
        b[k] = 1.0 + up + dn;
    }
    let cp = zeroed(cp, nlev);
    for field in [u, v, t, qv] {
        tridiag_solve(a, b, c, field, cp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tridiag_solves_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
        let a = [0.0, 1.0, 1.0];
        let b = [2.0, 2.0, 2.0];
        let c = [1.0, 1.0, 0.0];
        let mut d = [4.0, 8.0, 8.0];
        tridiag_solve(&a, &b, &c, &mut d, &mut [0.0; 3]);
        for (x, e) in d.iter().zip([1.0, 2.0, 3.0]) {
            assert!((x - e).abs() < 1e-12, "{x} vs {e}");
        }
    }

    #[test]
    fn diffusion_smooths_and_conserves() {
        let mut col = Column::isothermal(16, 2000.0, 101_000.0, 280.0);
        // A sharp jet in the middle of the column.
        col.u[8] = 30.0;
        let mass_mom_before: f64 = (0..16).map(|k| col.u[k] * col.dp[k]).sum();
        let ke = vec![50.0; 17];
        diffuse_column(&mut col, &ke, 1800.0);
        // Smoothed: the spike spreads to neighbours.
        assert!(col.u[8] < 30.0);
        assert!(col.u[7] > 0.0 && col.u[9] > 0.0);
        // Zero-flux boundaries conserve column momentum.
        let mass_mom_after: f64 = (0..16).map(|k| col.u[k] * col.dp[k]).sum();
        assert!(
            (mass_mom_before - mass_mom_after).abs() < 1e-8 * mass_mom_before.abs(),
            "{mass_mom_before} vs {mass_mom_after}"
        );
    }

    #[test]
    fn zero_diffusivity_is_identity() {
        let mut col = Column::isothermal(8, 2000.0, 101_000.0, 280.0);
        col.u[3] = 10.0;
        let before = col.clone();
        diffuse_column(&mut col, &[0.0; 9], 600.0);
        assert_eq!(col.u, before.u);
        assert_eq!(col.t, before.t);
    }

    #[test]
    fn large_diffusivity_homogenizes() {
        let mut col = Column::isothermal(8, 2000.0, 101_000.0, 280.0);
        for k in 0..8 {
            col.u[k] = k as f64;
        }
        for _ in 0..500 {
            diffuse_column(&mut col, &[500.0; 9], 3600.0);
        }
        let mean: f64 =
            (0..8).map(|k| col.u[k] * col.dp[k]).sum::<f64>() / col.dp.iter().sum::<f64>();
        for k in 0..8 {
            assert!((col.u[k] - mean).abs() < 0.2, "level {k}: {} vs {mean}", col.u[k]);
        }
    }
}
