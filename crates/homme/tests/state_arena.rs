//! Equivalence suite for the flat SoA state-arena pipeline.
//!
//! [`Dycore::step`] must reproduce the seed per-element-`Vec` driver
//! bitwise. That driver's trajectories are pinned here as FNV-1a hashes
//! of the bits of `u v t dp3d qdp`, recorded from it before it was
//! retired, beside one multi-chunk tracer trajectory recorded from the
//! stage-major scalar loop before that was retired. Both kernel sets run
//! the one stage loop, so these pins, not a comparison between the sets,
//! are what checks the loop itself: the default blocked kernels and the
//! scalar oracle ([`KernelPath::Scalar`]) must both hit them at every
//! worker count, so no tolerance is needed.

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::hypervis::HypervisConfig;
use homme::{Dims, Dycore, DycoreConfig, KernelPath, State};
use proptest::prelude::*;

/// Worker counts every pinned trajectory is replayed at.
const WORKERS: [usize; 2] = [1, 3];

/// Kernel sets every pinned trajectory is replayed with.
const KERNELS: [KernelPath; 2] = [KernelPath::Blocked, KernelPath::Scalar];

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn state_hash(st: &State) -> u64 {
    fnv([&st.u, &st.v, &st.t, &st.dp3d, &st.qdp]
        .into_iter()
        .flatten()
        .map(|x| x.to_bits()))
}

/// A dynamically interesting initial condition: a balanced-ish zonal jet,
/// a wavenumber-`modulus` temperature perturbation, and tracers with
/// distinct spatial structure per index.
fn initial_state(dy: &Dycore, amp: f64, modulus: usize) -> State {
    let dims = dy.dims;
    let vert = dy.rhs.vert.clone();
    let elems: Vec<_> = dy.grid.elements.clone();
    let mut st = dy.zero_state();
    for (es, el) in st.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let lon = el.metric[p].lon;
            for k in 0..dims.nlev {
                let i = k * NPTS + p;
                es.u[i] = 20.0 * lat.cos();
                es.v[i] = 0.0;
                es.t[i] = 300.0 + amp * ((modulus as f64) * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, P0);
                for q in 0..dims.qsize {
                    let iq = (q * dims.nlev + k) * NPTS + p;
                    let shape = 0.5 + 0.5 * ((q + 1) as f64 * lon).cos() * lat.cos();
                    es.qdp[iq] = 0.01 * shape * es.dp3d[i];
                }
            }
        }
    }
    st
}

/// Hyperviscosity strong enough to exercise the sponge and the subcycle
/// loop but weak enough that the derived count stays at the configured
/// two-subcycle floor (`nu lambda_max^2 dt` is ~1e-3 here), which keeps
/// the debug-mode pinned runs quick.
fn test_hypervis() -> HypervisConfig {
    HypervisConfig { nu: 1.0e15, nu_p: 1.0e15, subcycles: 2, nu_top: 2.5e5, sponge_layers: 3 }
}

/// Final hash of [`ten_steps_match_seed_reference_bitwise`]'s trajectory,
/// recorded from the seed driver.
const TEN_STEPS_HASH: u64 = 0x1328_57dd_9c57_a97e;

/// Per-step hashes of [`remap_cadence_matches_seed_reference`]'s seven
/// steps, recorded from the seed driver.
const CADENCE_HASHES: [u64; 7] = [
    0x68ce_eea1_d730_309c,
    0xb2bc_148b_781a_f9de,
    0x887d_7f21_1b3f_4bf8,
    0x5b8d_19a9_5e49_be2e,
    0xd709_94d4_d644_3172,
    0x7e04_bba6_da8f_07a7,
    0xe8df_aa47_c441_1e6c,
];

/// Per-step hashes of [`chunked_tracers_match_stage_major_reference`]'s
/// three steps, recorded from the stage-major scalar tracer loop (every
/// SSP stage over the full tracer arena, serial scatter DSS, arena-wide
/// limiter) before it was deleted.
const CHUNKED_TRACER_HASHES: [u64; 3] =
    [0xbf60_7242_f533_63c5, 0xdf39_b1d4_e17d_8b32, 0x1d08_f96d_ce74_f2cd];

/// A dycore with `kernels` on `workers` workers.
fn dycore(ne: usize, dims: Dims, cfg: DycoreConfig, workers: usize, kernels: KernelPath) -> Dycore {
    let mut dy = Dycore::new(ne, dims, 200.0, cfg);
    dy.set_threads(workers);
    dy.kernels = kernels;
    dy
}

/// Ten full steps at the paper-like column configuration
/// (ne4, nlev = 26, qsize = 4) land on the seed driver's pinned hash,
/// blocked and scalar, at every worker count. `rsplit = 2` so the
/// trajectory covers both remap and no-remap steps.
#[test]
fn ten_steps_match_seed_reference_bitwise() {
    let dims = Dims { nlev: 26, qsize: 4 };
    let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 2 };

    for kernels in KERNELS {
        for workers in WORKERS {
            let mut dy = dycore(4, dims, cfg, workers, kernels);
            let init = initial_state(&dy, 2.0, 3);
            let mut flat = init.clone();
            for _ in 0..10 {
                dy.step(&mut flat);
            }
            // Guard against a trivially-passing test: the flow must have evolved.
            assert!(flat.max_abs_diff(&init) > 1e-3, "state never evolved");
            assert_eq!(state_hash(&flat), TEN_STEPS_HASH, "{kernels:?} at {workers} workers");
        }
    }
}

/// The remap cadence: with `rsplit = 3`, steps 3 and 6 remap and the
/// others do not. Every step's hash is pinned, so an off-by-one in the
/// cadence fails at the step where it happens.
#[test]
fn remap_cadence_matches_seed_reference() {
    let dims = Dims { nlev: 8, qsize: 1 };
    let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 3 };

    for kernels in KERNELS {
        for workers in WORKERS {
            let mut dy = dycore(2, dims, cfg, workers, kernels);
            let mut flat = initial_state(&dy, 1.0, 2);
            for (step, want) in (1..).zip(CADENCE_HASHES) {
                dy.step(&mut flat);
                assert_eq!(
                    state_hash(&flat),
                    want,
                    "step {step}: {kernels:?} at {workers} workers"
                );
            }
        }
    }
}

/// Step-function tracers (zero beside `0.01 dp`) on [`initial_state`]'s
/// flow: advection undershoots at every edge, so the limiter acts.
fn step_tracers(dy: &Dycore, st: &mut State) {
    let dims = dy.dims;
    let elems: Vec<_> = dy.grid.elements.clone();
    for (es, el) in st.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            for q in 0..dims.qsize {
                let on = ((q + 1) as f64 * lon).cos() * lat.cos() > 0.3;
                for k in 0..dims.nlev {
                    let iq = (q * dims.nlev + k) * NPTS + p;
                    es.qdp[iq] = if on { 0.01 * es.dp3d[k * NPTS + p] } else { 0.0 };
                }
            }
        }
    }
}

/// More tracers than one chunk: with `qsize = 6` the tracer step runs a
/// full chunk and a ragged one, each through all three SSP stages before
/// the next, with the limiter clipping every step. The pins come from the
/// stage-major loop, so a chunk reading or writing another chunk's
/// tracers, or a stage combining with the wrong operand, fails here even
/// though both kernel sets run the same loop.
#[test]
fn chunked_tracers_match_stage_major_reference() {
    let dims = Dims { nlev: 6, qsize: 6 };
    let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 2 };

    for kernels in KERNELS {
        for workers in WORKERS {
            let mut dy = dycore(2, dims, cfg, workers, kernels);
            let mut flat = initial_state(&dy, 2.0, 3);
            step_tracers(&dy, &mut flat);
            for (step, want) in (1..).zip(CHUNKED_TRACER_HASHES) {
                dy.step(&mut flat);
                assert_eq!(
                    state_hash(&flat),
                    want,
                    "step {step}: {kernels:?} at {workers} workers"
                );
            }
        }
    }
}

proptest! {
    /// Workspace reuse never leaks state between runs: a dycore whose
    /// [`homme::StepWorkspace`] is dirty from stepping an unrelated
    /// trajectory must advance a fresh state bitwise identically to a
    /// freshly-built dycore. Randomizes the decoy trajectory, the target
    /// state, and how many steps dirty the workspace.
    #[test]
    fn workspace_reuse_never_leaks_stale_data(
        decoy_amp in 0.5f64..8.0,
        decoy_modulus in 2usize..9,
        target_amp in 0.5f64..8.0,
        target_modulus in 2usize..9,
        dirty_steps in 1usize..4,
    ) {
        let dims = Dims { nlev: 5, qsize: 1 };
        let cfg = DycoreConfig { dt: 600.0, hypervis: test_hypervis(), limiter: true, rsplit: 1 };

        let mut dirty_dy = Dycore::new(2, dims, 200.0, cfg);
        let mut decoy = initial_state(&dirty_dy, decoy_amp, decoy_modulus);
        for _ in 0..dirty_steps {
            dirty_dy.step(&mut decoy);
        }

        let target = initial_state(&dirty_dy, target_amp, target_modulus);
        let mut from_dirty = target.clone();
        dirty_dy.step(&mut from_dirty);

        let mut fresh_dy = Dycore::new(2, dims, 200.0, cfg);
        let mut from_fresh = target.clone();
        fresh_dy.step(&mut from_fresh);

        let diff = from_dirty.max_abs_diff(&from_fresh);
        prop_assert!(diff == 0.0, "dirty workspace leaked into the step: diff {diff:e}");
    }
}
