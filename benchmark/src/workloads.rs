//! The four workloads as data, and what all of them share: the argument
//! set, the measured window, state hashing and the output checks.
//!
//! Every workload is a `ScenarioRegistry::builtin()` entry changed only
//! through public configuration fields. Thread and rank counts are fixed
//! here and never read from the host.

use std::time::{Duration, Instant};

use homme::{Dycore, HypervisConfig, State};
use swcam_core::{ScenarioRegistry, ScenarioSpec, SuiteChoice};

use crate::json::Value;
use crate::metrics::Metrics;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["hv_ne8", "tracers_ne8", "dist_ne8_r2tcp", "ens_aqua_l4"];

/// Cold constructions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Untimed steps after the first one, before the measured window.
pub const WARMUP_STEPS: usize = 3;
/// Ranks of `dist_ne8_r2tcp` (one thread each).
pub const DIST_RANKS: usize = 2;
/// Member lanes of `ens_aqua_l4`.
pub const ENS_LANES: usize = 4;
/// Step counts a member request of `ens_aqua_l4` may ask for.
pub const ENS_REQUEST_STEPS: [usize; 4] = [16, 20, 24, 28];

/// Output-check limits.
pub const MAX_WIND_MS: f64 = 150.0;
pub const MAX_MASS_DRIFT: f64 = 1e-11;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure exactly this many steps instead of `seconds` (`--smoke`).
    pub steps: Option<usize>,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<std::path::PathBuf>,
    /// Where to write the run's record (fingerprint, arguments, result).
    pub out: Option<std::path::PathBuf>,
}

/// What one run hands back to `main`.
pub struct Report {
    /// Steps (member-steps) attempted in the measured window, and failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    /// Chrome-trace document of the traced run.
    pub trace: Option<Value>,
}

fn builtin(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .get(name)
        .expect("builtin scenario")
        .clone()
}

/// Worker threads each model of a workload builds its pool with. `main`
/// puts it in `SWCAM_THREADS` before the first model exists: the pool size
/// is read at construction, and never from the host.
pub fn pinned_threads(workload: &str) -> usize {
    match workload {
        "hv_ne8" | "ens_aqua_l4" => 2,
        // One thread, or one thread per rank.
        _ => 1,
    }
}

/// One of the two single-process workloads.
pub struct SerialWorkload {
    pub spec: ScenarioSpec,
    /// The hyperviscosity subcycle count the workload exists to run, where
    /// it depends on one.
    pub expect_subcycles: Option<usize>,
}

pub fn serial_workload(name: &str) -> Option<SerialWorkload> {
    match name {
        // `nggps` exactly as registered: ne8 / nlev 26 / qsize 4, simple
        // physics, CAM's hyperviscosity coefficient. Whatever subcycle
        // count that gives is the point, so none is expected.
        "hv_ne8" => Some(SerialWorkload {
            spec: builtin("nggps"),
            expect_subcycles: None,
        }),
        // The paper's CAM5 tracer count, and a coefficient low enough that
        // the stability bound asks for less than the 3-subcycle floor HOMME
        // production runs with.
        "tracers_ne8" => {
            let mut spec = builtin("nggps");
            spec.config.qsize = 25;
            spec.config.nu = Some(HypervisConfig::for_ne(spec.config.ne).nu / 12.5);
            Some(SerialWorkload {
                spec,
                expect_subcycles: Some(3),
            })
        }
        _ => None,
    }
}

/// `nggps` dynamics without physics, for the distributed driver.
pub fn dist_workload() -> ScenarioSpec {
    let mut spec = builtin("nggps");
    spec.config.suite = SuiteChoice::None;
    spec
}

/// `aquaplanet` as registered (ne4 / nlev 20 / qsize 3, simple physics).
pub fn ens_workload() -> ScenarioSpec {
    builtin("aquaplanet")
}

/// SplitMix64 finalizer: request streams and nothing else.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request `index` of the `ens_aqua_l4` stream for `--seed seed`: the
/// member's perturbation seed and how many steps it asks for.
pub fn ens_request(seed: u64, index: u64) -> (u64, usize) {
    let r = mix(seed ^ mix(index));
    (r >> 8, ENS_REQUEST_STEPS[(r & 3) as usize])
}

/// When the measured window ends: after a wall-clock budget, or after a
/// fixed number of steps.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    Seconds(f64),
    Steps(usize),
}

impl Window {
    /// The share `frac` of the run's budget (`--steps` is not divided: a
    /// smoke run measures that many steps in every pass).
    pub fn of(args: &Args, frac: f64) -> Window {
        match args.steps {
            Some(n) => Window::Steps(n),
            None => Window::Seconds(args.seconds * frac),
        }
    }

    pub fn done(&self, started: Instant, steps_done: usize) -> bool {
        match *self {
            Window::Seconds(s) => started.elapsed() >= Duration::from_secs_f64(s),
            Window::Steps(n) => steps_done >= n,
        }
    }

    /// Upper bound on the steps this window can hold, for preallocation.
    pub fn capacity(&self) -> usize {
        match *self {
            // No step of any workload takes less than 2 ms.
            Window::Seconds(s) => (s * 500.0) as usize + 16,
            Window::Steps(n) => n + 16,
        }
    }
}

/// 64-bit hash of the bit patterns of every field of `state`. Equal hashes
/// stand in for bitwise-equal states without keeping a second copy of the
/// state alive (which `peak_rss_mb` would see).
pub fn hash_state(state: &State) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for field in [
        &state.u,
        &state.v,
        &state.t,
        &state.dp3d,
        &state.qdp,
        &state.phis,
    ] {
        for v in field {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Output check: every prognostic finite, winds physical. Returns the
/// maximum wind.
///
/// # Errors
/// What is wrong with the state, in words.
pub fn check_state(dycore: &Dycore, state: &State) -> Result<f64, String> {
    for (name, field) in [
        ("u", &state.u),
        ("v", &state.v),
        ("t", &state.t),
        ("dp3d", &state.dp3d),
        ("qdp", &state.qdp),
    ] {
        if let Some(i) = field.iter().position(|x| !x.is_finite()) {
            return Err(format!("state field {name} is not finite at index {i}"));
        }
    }
    let wind = dycore.max_wind(state);
    if wind >= MAX_WIND_MS {
        return Err(format!(
            "max wind {wind:.1} m/s is not below {MAX_WIND_MS} m/s"
        ));
    }
    Ok(wind)
}

/// Output check: relative dry-mass drift between two totals.
///
/// # Errors
/// When the drift exceeds [`MAX_MASS_DRIFT`].
pub fn check_mass(before: f64, after: f64) -> Result<f64, String> {
    let drift = ((after - before) / before).abs();
    if drift.is_finite() && drift <= MAX_MASS_DRIFT {
        Ok(drift)
    } else {
        Err(format!(
            "dry mass drifted by {drift:e} (limit {MAX_MASS_DRIFT:e})"
        ))
    }
}

/// Output check: two state hashes that must agree.
///
/// # Errors
/// Names both sides when they differ.
pub fn check_hash(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: state hash {got:016x} differs from {want:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial_hash(spec: &ScenarioSpec, seed: u64) -> u64 {
        let dycore = swcam_core::build_dycore(&spec.config);
        let mut state = dycore.zero_state();
        spec.apply(&dycore, &mut state, seed);
        hash_state(&state)
    }

    #[test]
    fn initial_state_depends_on_the_seed_and_on_nothing_else() {
        let specs = [
            serial_workload("hv_ne8").expect("workload").spec,
            serial_workload("tracers_ne8").expect("workload").spec,
            dist_workload(),
            ens_workload(),
        ];
        for spec in &specs {
            let a = initial_hash(spec, 11);
            assert_eq!(
                a,
                initial_hash(spec, 11),
                "{}: same seed, different state",
                spec.name
            );
            assert_ne!(
                a,
                initial_hash(spec, 12),
                "{}: the seed changed nothing",
                spec.name
            );
        }
    }

    #[test]
    fn request_stream_depends_on_the_seed_and_on_nothing_else() {
        let stream = |seed| (0..64).map(|i| ens_request(seed, i)).collect::<Vec<_>>();
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let s = stream(5);
        assert!(s.iter().all(|(_, n)| ENS_REQUEST_STEPS.contains(n)));
        for want in ENS_REQUEST_STEPS {
            assert!(
                s.iter().any(|&(_, n)| n == want),
                "no request of {want} steps in 64"
            );
        }
        let seeds: std::collections::BTreeSet<u64> = s.iter().map(|r| r.0).collect();
        assert_eq!(seeds.len(), s.len(), "member seeds repeat");
    }

    #[test]
    fn workloads_are_what_the_readme_says() {
        let hv = serial_workload("hv_ne8").expect("workload");
        let cfg = &hv.spec.config;
        assert_eq!((cfg.ne, cfg.nlev, cfg.qsize, cfg.nu), (8, 26, 4, None));
        assert_eq!((pinned_threads("hv_ne8"), hv.expect_subcycles), (2, None));
        let tr = serial_workload("tracers_ne8").expect("workload");
        assert_eq!(
            (tr.spec.config.qsize, pinned_threads("tracers_ne8")),
            (25, 1)
        );
        let dycore = swcam_core::build_dycore(&tr.spec.config);
        assert_eq!(Some(dycore.hypervis_subcycles()), tr.expect_subcycles);
        assert_eq!(pinned_threads("dist_ne8_r2tcp"), 1);
        assert_eq!(pinned_threads("ens_aqua_l4"), 2);
        assert_eq!(dist_workload().config.suite, SuiteChoice::None);
        let ens = ens_workload();
        assert_eq!(
            (ens.config.ne, ens.config.nlev, ens.config.qsize),
            (4, 20, 3)
        );
        assert!(serial_workload("ens_aqua_l4").is_none());
    }

    #[test]
    fn hash_sees_single_bit_flips_and_which_field_they_are_in() {
        let spec = serial_workload("hv_ne8").expect("workload").spec;
        let dycore = swcam_core::build_dycore(&spec.config);
        let mut state = dycore.zero_state();
        spec.apply(&dycore, &mut state, 1);
        let h = hash_state(&state);
        let i = state.t.len() / 2;
        state.t[i] = f64::from_bits(state.t[i].to_bits() ^ 1);
        assert_ne!(hash_state(&state), h);
        // The same bits in another field are another state.
        state.t[i] = f64::from_bits(state.t[i].to_bits() ^ 1);
        assert_eq!(hash_state(&state), h);
        std::mem::swap(&mut state.u, &mut state.v);
        assert_ne!(hash_state(&state), h);
        assert!(check_hash("flip", hash_state(&state), h).is_err());
        assert!(check_hash("same", h, h).is_ok());
    }

    #[test]
    fn state_and_mass_checks_reject_what_they_should() {
        let spec = serial_workload("hv_ne8").expect("workload").spec;
        let dycore = swcam_core::build_dycore(&spec.config);
        let mut state = dycore.zero_state();
        spec.apply(&dycore, &mut state, 1);
        assert!(check_state(&dycore, &state).expect("initial state is sane") < 40.0);
        state.u[7] = 200.0;
        assert!(check_state(&dycore, &state)
            .unwrap_err()
            .contains("max wind"));
        state.u[7] = f64::NAN;
        assert!(check_state(&dycore, &state)
            .unwrap_err()
            .contains("not finite"));
        assert!(check_mass(1.0e18, 1.0e18 * (1.0 + 1e-14)).is_ok());
        assert!(check_mass(1.0e18, 1.0e18 * (1.0 + 1e-9)).is_err());
        assert!(check_mass(1.0e18, f64::NAN).is_err());
    }

    #[test]
    fn windows_end_on_steps_or_on_time() {
        let now = Instant::now();
        assert!(!Window::Steps(2).done(now, 1));
        assert!(Window::Steps(2).done(now, 2));
        assert!(Window::Seconds(0.0).done(now, 0));
        assert!(!Window::Seconds(60.0).done(now, 1_000_000));
    }
}
