//! The NGGPS dynamical-core comparison (the paper's Table 3).
//!
//! The paper compares its redesigned HOMME against the FV3 and MPAS times
//! *published* in the NGGPS AVEC report (Michalakes et al. 2015) — it did
//! not rerun the competitors, and neither do we: the FV3/MPAS rows are the
//! same fixed published numbers; our row is the modeled HOMME time.

use crate::machine::Machine;
use crate::stepmodel::{RankWork, StepModel};
use homme::kernels::Variant;
use homme::ExchangeMode;

/// One NGGPS benchmark case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NggpsCase {
    /// Human label ("12.5 km" / "3 km").
    pub label: &'static str,
    /// HOMME mesh for this resolution.
    pub ne: usize,
    /// Forecast length, s (2 h / 30 min workloads).
    pub forecast_seconds: f64,
    /// Our rank count (131,072 in the paper).
    pub our_ranks: usize,
    /// Published FV3 runtime, s.
    pub fv3_seconds: f64,
    /// Published MPAS runtime, s.
    pub mpas_seconds: f64,
    /// Published FV3 / MPAS rank counts.
    pub fv3_ranks: usize,
    /// MPAS rank count.
    pub mpas_ranks: usize,
}

/// The two Table-3 cases with the published comparator numbers.
pub const CASES: [NggpsCase; 2] = [
    NggpsCase {
        label: "12.5 km, 2-hour forecast",
        ne: 256,
        forecast_seconds: 7200.0,
        our_ranks: 131_072,
        fv3_seconds: 3.56,
        mpas_seconds: 7.56,
        fv3_ranks: 110_592,
        mpas_ranks: 96_000,
    },
    NggpsCase {
        label: "3 km, 30-min forecast",
        ne: 1024,
        forecast_seconds: 1800.0,
        our_ranks: 131_072,
        fv3_seconds: 30.31,
        mpas_seconds: 64.80,
        fv3_ranks: 110_592,
        mpas_ranks: 131_072,
    },
];

/// NGGPS benchmark tracer count (the AVEC workloads carried 10 tracers).
pub const NGGPS_QSIZE: usize = 10;

/// Modeled runtime of our redesigned HOMME on one case.
pub fn homme_runtime(machine: &Machine, case: &NggpsCase) -> f64 {
    let model = StepModel::new(machine, Variant::Athread, ExchangeMode::Redesigned);
    let dt = 300.0 * 30.0 / case.ne as f64; // dynamics dt at this resolution
    let steps = (case.forecast_seconds / dt).ceil();
    let elems = (6 * case.ne * case.ne) as f64 / case.our_ranks as f64;
    let w = RankWork { elems: elems.ceil() as usize, nlev: 128, qsize: NGGPS_QSIZE };
    steps * model.step_seconds(w, case.our_ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_rows_match_the_paper() {
        assert_eq!(CASES[0].fv3_seconds, 3.56);
        assert_eq!(CASES[0].mpas_seconds, 7.56);
        assert_eq!(CASES[1].fv3_seconds, 30.31);
        assert_eq!(CASES[1].mpas_seconds, 64.80);
    }

    #[test]
    fn homme_wins_both_cases() {
        let m = Machine::taihulight();
        for case in &CASES {
            let ours = homme_runtime(&m, case);
            assert!(
                ours < case.fv3_seconds,
                "{}: ours {ours} vs FV3 {}",
                case.label,
                case.fv3_seconds
            );
            assert!(ours > 0.1, "{}: suspiciously fast ({ours})", case.label);
        }
    }

    #[test]
    fn advantage_grows_at_higher_resolution() {
        // Paper: 1.3x over FV3 at 12.5 km, 2.1x at 3 km.
        let m = Machine::taihulight();
        let r12 = CASES[0].fv3_seconds / homme_runtime(&m, &CASES[0]);
        let r3 = CASES[1].fv3_seconds / homme_runtime(&m, &CASES[1]);
        assert!(r3 > r12, "12.5 km ratio {r12} vs 3 km ratio {r3}");
    }
}
