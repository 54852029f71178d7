//! In-step health guards: cheap scans between RK stages plus a per-step
//! verdict and degradation policy.
//!
//! At ultra-high resolution a NaN born in one element silently corrupts
//! the whole trajectory within a few DSS applications, and a locally
//! violated CFL bound blows the run up long before any output file would
//! show it. The guards here are the reproduction's answer: after each RK
//! stage the updated prognostics are scanned for non-finite values and
//! non-positive layer thickness (`dp3d`), and after each full step the
//! advective CFL number is estimated from the max wind and the smallest
//! GLL gap. The scans are pure reads over the flat SoA arenas — no
//! allocation, no branches beyond the comparisons — so the zero-allocation
//! step gates run with guards enabled.
//!
//! Failures are typed ([`HealthError`]) so a resilient driver can abort
//! the step and restore a checkpoint; warnings feed a [`StepHealth`]
//! report and a degradation policy (halve `dt`) instead of producing
//! silent garbage.

use crate::hypervis::HypervisError;
use crate::remap::RemapError;
use swmpi::{Collectives, ReduceOp};

/// Stage index used for the post-tracer-advection scan (the five RK stages
/// are 0..=4), so guard failures name the phase that produced them.
pub const TRACER_STAGE: usize = 5;

/// Guard configuration. Disabled by default; [`HealthConfig::on`] gives
/// production-style settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Master switch: when false, guarded steps fall through to the plain
    /// step with zero scanning cost.
    pub enabled: bool,
    /// CFL number above which the next steps run degraded (halved `dt`).
    pub cfl_limit: f64,
    /// Smallest acceptable layer thickness (Pa); anything at or below is a
    /// hard error.
    pub min_dp3d: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig { enabled: false, cfl_limit: 1.0, min_dp3d: 0.0 }
    }
}

impl HealthConfig {
    /// Guards on with default thresholds.
    pub fn on() -> Self {
        HealthConfig { enabled: true, ..HealthConfig::default() }
    }
}

/// What to do when the CFL guard trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// How many subsequent steps run as two `dt/2` substeps. Each substep
    /// derives its hyperviscosity subcycle count at `dt/2`
    /// ([`crate::hypervis::HypervisConfig::subcycles_for`]), already stable.
    pub halve_dt_steps: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { halve_dt_steps: 2 }
    }
}

/// Per-step health report. Plain `Copy` data so drivers can hold and
/// reduce it without allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepHealth {
    /// Whether the guards actually ran for this step.
    pub checked: bool,
    /// Non-finite values seen across all scanned stages (0 on success —
    /// a nonzero count surfaces as [`HealthError::NonFinite`] instead).
    pub nonfinite: u64,
    /// Smallest layer thickness seen in any scanned stage.
    pub min_dp3d: f64,
    /// Largest horizontal wind speed after the step.
    pub max_wind: f64,
    /// Advective CFL estimate `max_wind * dt / min_dx` for the step.
    pub cfl: f64,
    /// True if this step ran under the degradation policy.
    pub degraded: bool,
}

impl StepHealth {
    /// Report for a step that ran without guards.
    pub fn unchecked() -> Self {
        StepHealth::default()
    }

    /// Fresh report for a guarded step (min-tracking fields start at the
    /// identity of their reduction).
    pub fn begin() -> Self {
        StepHealth { checked: true, min_dp3d: f64::INFINITY, ..StepHealth::default() }
    }

    /// The one global step verdict, executed by every rank once per step
    /// attempt: this rank's `failed` flag and report reduce with Max
    /// (`min_dp3d` negated) in one round, so all ranks see one consistent
    /// worst case and take identical rollback and degradation decisions.
    /// Returns `(any rank failed, merged report)`. A round that completed
    /// without some rank's contribution ([`Collectives::allreduce_checked`]
    /// reports it absent; never on the shared-memory backend) fails the
    /// step like a local failure. Allocation-free at steady state.
    ///
    /// # Panics
    /// If the reduction fabric itself fails: a rank that cannot reach the
    /// verdict cannot take part in any recovery either.
    pub fn reduce_global(&self, failed: bool, coll: &Collectives) -> (bool, StepHealth) {
        let contrib = [
            failed as u64 as f64,
            self.checked as u64 as f64,
            self.nonfinite as f64,
            -self.min_dp3d,
            self.max_wind,
            self.cfl,
            self.degraded as u64 as f64,
        ];
        let mut out = [0.0; 7];
        let absent = coll
            .allreduce_checked(&contrib, ReduceOp::Max, &mut out)
            .expect("step verdict reduction");
        let merged = StepHealth {
            checked: out[1] > 0.0,
            nonfinite: out[2] as u64,
            min_dp3d: -out[3],
            max_wind: out[4],
            cfl: out[5],
            degraded: out[6] > 0.0,
        };
        (out[0] > 0.0 || absent > 0, merged)
    }
}

/// Typed guard failure — the step's output is unusable and must not be
/// committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthError {
    /// NaN or infinity in a prognostic field after an RK stage.
    NonFinite {
        /// RK stage index (0-based) that produced the value.
        stage: usize,
        /// How many non-finite values the scan saw.
        count: u64,
    },
    /// Layer thickness at or below the configured floor.
    ThinLayer {
        /// RK stage index (0-based).
        stage: usize,
        /// The offending minimum `dp3d`.
        min_dp3d: f64,
    },
    /// NaN or infinity in the tracer-mass arena after a scanned stage.
    TracerNonFinite {
        /// Stage index (see [`TRACER_STAGE`]).
        stage: usize,
        /// How many non-finite tracer values the scan saw.
        count: u64,
    },
    /// The vertical remap rejected a column (collapsed Lagrangian layer or
    /// mass-inconsistent totals).
    Remap(RemapError),
    /// The hyperviscosity plan rejected the step (corrupt element metric
    /// or non-finite step coefficient).
    Hypervis(HypervisError),
    /// A physics column scheme produced (or was handed) an unusable
    /// column. The dycore never raises this itself — the coupling layer
    /// converts its typed physics error into this variant so a bad column
    /// routes through the same rollback machinery as [`RemapError`]
    /// instead of being silently inserted next to healthy neighbors.
    Physics {
        /// Element index of the rejected column.
        elem: usize,
        /// GLL point index within the element.
        point: usize,
        /// What was wrong with the column.
        fault: PhysicsFault,
    },
}

/// What a physics column validation found (the dycore-side mirror of the
/// physics crate's typed error — kept payload-free so [`HealthError`] stays
/// `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicsFault {
    /// NaN or infinity in a column field.
    NonFinite,
    /// Moisture below the corruption threshold (beyond numerical noise).
    NegativeMoisture,
}

impl From<RemapError> for HealthError {
    fn from(e: RemapError) -> Self {
        HealthError::Remap(e)
    }
}

impl From<HypervisError> for HealthError {
    fn from(e: HypervisError) -> Self {
        HealthError::Hypervis(e)
    }
}

impl std::fmt::Display for HealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthError::NonFinite { stage, count } => {
                write!(f, "{count} non-finite prognostic values after RK stage {stage}")
            }
            HealthError::ThinLayer { stage, min_dp3d } => {
                write!(f, "dp3d collapsed to {min_dp3d:.3e} Pa after RK stage {stage}")
            }
            HealthError::TracerNonFinite { stage, count } => {
                write!(f, "{count} non-finite tracer values after stage {stage}")
            }
            HealthError::Remap(e) => write!(f, "vertical remap rejected: {e}"),
            HealthError::Hypervis(e) => write!(f, "hyperviscosity rejected: {e}"),
            HealthError::Physics { elem, point, fault } => {
                let what = match fault {
                    PhysicsFault::NonFinite => "non-finite column",
                    PhysicsFault::NegativeMoisture => "negative moisture",
                };
                write!(f, "physics rejected element {elem} point {point}: {what}")
            }
        }
    }
}

impl std::error::Error for HealthError {}

/// Result of one stage scan.
#[derive(Debug, Clone, Copy)]
pub struct StageScan {
    /// Non-finite values across the scanned dynamics arenas.
    pub nonfinite: u64,
    /// Minimum `dp3d` seen.
    pub min_dp3d: f64,
    /// Maximum `u^2 + v^2` seen.
    pub max_speed2: f64,
    /// Non-finite values across the scanned tracer arena.
    pub tracer_nonfinite: u64,
}

/// Scan one stage's prognostics, *including* the tracer-mass arena — a NaN
/// born in `qdp` must trip the guards before DSS spreads it, exactly like
/// one in the dynamics fields. Pass an empty `qdp` for RK stages where the
/// tracers have not been touched. Pure reads, no allocation.
pub fn scan_stage(u: &[f64], v: &[f64], t: &[f64], dp3d: &[f64], qdp: &[f64]) -> StageScan {
    let mut nonfinite = 0u64;
    let mut min_dp = f64::INFINITY;
    let mut max_speed2 = 0.0f64;
    for ((&ui, &vi), (&ti, &di)) in u.iter().zip(v).zip(t.iter().zip(dp3d)) {
        if !(ui.is_finite() && vi.is_finite() && ti.is_finite() && di.is_finite()) {
            nonfinite += 1;
        }
        if di < min_dp {
            min_dp = di;
        }
        let s2 = ui * ui + vi * vi;
        if s2 > max_speed2 {
            max_speed2 = s2;
        }
    }
    let mut tracer_nonfinite = 0u64;
    for &qi in qdp {
        if !qi.is_finite() {
            tracer_nonfinite += 1;
        }
    }
    StageScan { nonfinite, min_dp3d: min_dp, max_speed2, tracer_nonfinite }
}

/// Fold one stage scan into the step report, failing fast on hard errors.
pub fn commit_scan(
    health: &mut StepHealth,
    cfg: &HealthConfig,
    stage: usize,
    scan: StageScan,
) -> Result<(), HealthError> {
    health.checked = true;
    if scan.nonfinite > 0 {
        health.nonfinite += scan.nonfinite;
        return Err(HealthError::NonFinite { stage, count: scan.nonfinite });
    }
    if scan.tracer_nonfinite > 0 {
        health.nonfinite += scan.tracer_nonfinite;
        return Err(HealthError::TracerNonFinite { stage, count: scan.tracer_nonfinite });
    }
    health.min_dp3d = health.min_dp3d.min(scan.min_dp3d);
    if scan.min_dp3d <= cfg.min_dp3d {
        return Err(HealthError::ThinLayer { stage, min_dp3d: scan.min_dp3d });
    }
    let wind = scan.max_speed2.sqrt();
    if wind > health.max_wind {
        health.max_wind = wind;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_fields_pass() {
        let u = [1.0; 8];
        let v = [2.0; 8];
        let t = [300.0; 8];
        let dp = [50.0; 8];
        let scan = scan_stage(&u, &v, &t, &dp, &[]);
        assert_eq!(scan.nonfinite, 0);
        assert_eq!(scan.min_dp3d, 50.0);
        assert_eq!(scan.max_speed2, 5.0);
        let mut health = StepHealth { min_dp3d: f64::INFINITY, ..StepHealth::default() };
        commit_scan(&mut health, &HealthConfig::on(), 0, scan).expect("healthy");
        assert_eq!(health.max_wind, 5.0f64.sqrt());
        assert_eq!(health.min_dp3d, 50.0);
    }

    #[test]
    fn nan_is_a_hard_error() {
        let u = [1.0, f64::NAN, 3.0];
        let v = [0.0; 3];
        let t = [300.0; 3];
        let dp = [50.0; 3];
        let scan = scan_stage(&u, &v, &t, &dp, &[]);
        assert_eq!(scan.nonfinite, 1);
        let mut health = StepHealth::default();
        let err = commit_scan(&mut health, &HealthConfig::on(), 2, scan).unwrap_err();
        assert_eq!(err, HealthError::NonFinite { stage: 2, count: 1 });
    }

    #[test]
    fn collapsed_layer_is_a_hard_error() {
        let u = [0.0; 4];
        let v = [0.0; 4];
        let t = [300.0; 4];
        let dp = [50.0, -2.0, 50.0, 50.0];
        let scan = scan_stage(&u, &v, &t, &dp, &[]);
        let mut health = StepHealth { min_dp3d: f64::INFINITY, ..StepHealth::default() };
        let err = commit_scan(&mut health, &HealthConfig::on(), 1, scan).unwrap_err();
        assert_eq!(err, HealthError::ThinLayer { stage: 1, min_dp3d: -2.0 });
    }

    #[test]
    fn tracer_nan_is_a_hard_error() {
        let u = [1.0; 4];
        let v = [0.0; 4];
        let t = [300.0; 4];
        let dp = [50.0; 4];
        let qdp = [0.5, f64::NAN, 0.25, f64::INFINITY];
        let scan = scan_stage(&u, &v, &t, &dp, &qdp);
        assert_eq!(scan.nonfinite, 0);
        assert_eq!(scan.tracer_nonfinite, 2);
        let mut health = StepHealth::begin();
        let err = commit_scan(&mut health, &HealthConfig::on(), TRACER_STAGE, scan).unwrap_err();
        assert_eq!(err, HealthError::TracerNonFinite { stage: TRACER_STAGE, count: 2 });
        // The verdict reduce must carry the poison so every rank rolls back.
        assert_eq!(health.nonfinite, 2);
    }

    #[test]
    fn remap_error_converts_to_health_error() {
        let e = RemapError::NonPositiveSource { layer: 3, dp: -1.0 };
        let h: HealthError = e.into();
        assert_eq!(h, HealthError::Remap(e));
        assert!(format!("{h}").contains("non-positive source thickness"));
    }

    #[test]
    fn global_reduce_takes_worst_case() {
        use swmpi::run_ranks;
        let verdicts = run_ranks(3, |ctx| {
            let local = StepHealth {
                checked: true,
                nonfinite: 0,
                min_dp3d: 40.0 + ctx.rank() as f64,
                max_wind: 10.0 * (ctx.rank() + 1) as f64,
                cfl: 0.1 * (ctx.rank() + 1) as f64,
                degraded: ctx.rank() == 1,
            };
            local.reduce_global(false, &ctx.coll).1
        });
        for g in verdicts {
            assert!(g.checked);
            assert_eq!(g.min_dp3d, 40.0);
            assert_eq!(g.max_wind, 30.0);
            assert!((g.cfl - 0.3).abs() < 1e-12);
            assert!(g.degraded);
        }
    }

    /// One rank fails and the worst case of each field comes from a
    /// different rank: every rank still reaches the same verdict.
    #[test]
    fn one_failed_rank_fails_the_step_on_every_rank() {
        use swmpi::run_ranks;
        let verdicts = run_ranks(3, |ctx| {
            let r = ctx.rank();
            let local = StepHealth {
                checked: r != 2,
                nonfinite: if r == 2 { 3 } else { 0 },
                min_dp3d: [50.0, 20.0, 60.0][r],
                max_wind: [70.0, 10.0, 30.0][r],
                cfl: [0.2, 0.1, 0.9][r],
                degraded: r == 1,
            };
            local.reduce_global(r == 1, &ctx.coll)
        });
        let expected = StepHealth {
            checked: true,
            nonfinite: 3,
            min_dp3d: 20.0,
            max_wind: 70.0,
            cfl: 0.9,
            degraded: true,
        };
        for (rank, v) in verdicts.into_iter().enumerate() {
            assert_eq!(v, (true, expected), "rank {rank} reached a different verdict");
        }
        // And with nobody failing, nobody fails.
        let clean = run_ranks(3, |ctx| StepHealth::begin().reduce_global(false, &ctx.coll).0);
        assert_eq!(clean, vec![false; 3]);
    }

    /// A reduction round that completed without a dead rank's contribution
    /// fails the step even though every present rank succeeded.
    #[test]
    fn an_absent_rank_fails_the_step() {
        use std::sync::Arc;
        use swmpi::{CommError, ReduceLink};

        struct OneAbsent;
        impl ReduceLink for OneAbsent {
            // The one present rank's contribution is the whole result.
            fn reduce(&self, _: ReduceOp, contrib: &[f64], out: &mut [f64]) -> Result<u32, CommError> {
                out.copy_from_slice(contrib);
                Ok(1)
            }
        }
        let coll = Collectives::over_link(2, Arc::new(OneAbsent));
        let local = StepHealth { max_wind: 5.0, ..StepHealth::begin() };
        let (failed, merged) = local.reduce_global(false, &coll);
        assert!(failed, "an absent rank must fail the step");
        assert_eq!(merged, local);
    }
}
