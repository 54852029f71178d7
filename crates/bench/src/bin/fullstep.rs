//! Full-step wall-clock benchmark for the flat-arena pipeline refactor.
//!
//! Times one complete `prim_run` step (RK dynamics + DSS + hypervis +
//! tracer advection + remap) at ne8 / 26 levels / 4 tracers in three
//! configurations:
//!
//! 1. the seed per-element-`Vec` driver (`SeedStepper`, serial),
//! 2. the flat-arena pipeline pinned to one worker,
//! 3. the flat-arena pipeline on the available cores (>= 4).
//!
//! Emits `BENCH_fullstep.json` in the working directory. The refactor's
//! target is >= 2x speedup of (3) over (1); the JSON records whether this
//! run met it, plus per-phase breakdowns of the flat step (RK dynamics /
//! hyperviscosity / tracer advection / vertical remap) for BOTH the
//! serial and the parallel run, and a comparison against the committed
//! pre-plan serial baseline. Run with
//! `cargo run --release -p swcam-bench --bin fullstep`.

use std::time::Instant;

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::{Dims, Dycore, DycoreConfig, SeedStepper, State};

const NE: usize = 8;
const NLEV: usize = 26;
const QSIZE: usize = 4;
const WARMUP_STEPS: usize = 1;
const MEASURE_STEPS: usize = 3;
const TARGET_SPEEDUP: f64 = 2.0;
/// `flat_serial_ms_per_step` recorded on the development host before the
/// remap plan landed (blocked kernel layer, transposition-based remap) —
/// the bar the geometry-reuse remap has to beat.
const BASELINE_FLAT_SERIAL_MS: f64 = 469.361;

fn build() -> Dycore {
    let dims = Dims { nlev: NLEV, qsize: QSIZE };
    Dycore::new(NE, dims, 200.0, DycoreConfig::for_ne(NE))
}

fn initial_state(dy: &Dycore) -> State {
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
                es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, P0);
                for q in 0..dims.qsize {
                    es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                }
            }
        }
    }
    st
}

/// Per-step wall time (ms) of `step` after warm-up.
fn time_per_step(mut step: impl FnMut()) -> f64 {
    for _ in 0..WARMUP_STEPS {
        step();
    }
    let t0 = Instant::now();
    for _ in 0..MEASURE_STEPS {
        step();
    }
    t0.elapsed().as_secs_f64() * 1e3 / MEASURE_STEPS as f64
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // One worker per real core: `cores.max(4)` used to force 4 workers on
    // smaller hosts, which oversubscribes the cores and times scheduler
    // contention instead of the kernels. `SWCAM_BENCH_THREADS` overrides
    // (e.g. to reproduce the old oversubscribed numbers deliberately).
    let threads = std::env::var("SWCAM_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores);
    let oversubscribed = threads > cores;
    println!(
        "fullstep: ne{NE}, nlev {NLEV}, qsize {QSIZE}; {cores} cores, parallel run uses {threads} threads"
    );
    if oversubscribed {
        println!(
            "  note: {threads} threads on {cores} cores is oversubscribed; \
             parallel-speedup numbers measure contention, not kernels"
        );
    }

    let mut dy = build();
    println!("  {}", dy.hypervis_stability());
    let init = initial_state(&dy);

    let mut seed_state = init.clone();
    let mut oracle = SeedStepper::new();
    let seed_ms = time_per_step(|| oracle.step(&mut dy, &mut seed_state));
    println!("  seed serial      : {seed_ms:9.2} ms/step");

    dy.set_threads(1);
    let mut flat1_state = init.clone();
    let flat1_ms = time_per_step(|| dy.step(&mut flat1_state));
    println!("  flat, 1 thread   : {flat1_ms:9.2} ms/step  ({:.2}x vs seed)", seed_ms / flat1_ms);

    // Per-phase breakdown of the serial flat step: run each pipeline phase
    // by hand on a fresh trajectory and time it separately. The phases are
    // the exact calls `Dycore::step` makes (remap every step — this
    // config's rsplit is 1), so the shares sum to ~the full step time.
    let mut phase_state = init.clone();
    let (mut rk_ms, mut hv_ms, mut tr_ms, mut rm_ms) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for step in 0..WARMUP_STEPS + MEASURE_STEPS {
        let measured = step >= WARMUP_STEPS;
        let lap = |acc: &mut f64, t0: Instant| {
            if measured {
                *acc += t0.elapsed().as_secs_f64() * 1e3 / MEASURE_STEPS as f64;
            }
        };
        let t0 = Instant::now();
        dy.dynamics_step(&mut phase_state);
        lap(&mut rk_ms, t0);
        let t0 = Instant::now();
        dy.apply_hypervis(&mut phase_state).expect("hyperviscosity plan");
        lap(&mut hv_ms, t0);
        let t0 = Instant::now();
        dy.euler_step_tracers(&mut phase_state);
        lap(&mut tr_ms, t0);
        let t0 = Instant::now();
        dy.vertical_remap(&mut phase_state).expect("vertical remap");
        lap(&mut rm_ms, t0);
    }
    let phase_total = rk_ms + hv_ms + tr_ms + rm_ms;
    // Per-subcycle view of the hypervis wall: the subcycle count is fixed
    // by the measured operator (the line printed at start-up), so
    // ms/subcycle is the unit the fused-sweep optimisation actually moves.
    let hv_subcycles = dy.hypervis_subcycles();
    let hv_ms_sub = hv_ms / hv_subcycles as f64;
    println!("  phases (serial)  : rk {rk_ms:.2}  hypervis {hv_ms:.2}  tracer {tr_ms:.2}  remap {rm_ms:.2} ms/step");
    println!(
        "    hypervis     : {hv_subcycles} subcycles, {hv_ms_sub:.2} ms/subcycle (incl. sponge share)"
    );
    for (name, ms) in
        [("rk_dynamics", rk_ms), ("hypervis", hv_ms), ("tracer", tr_ms), ("remap", rm_ms)]
    {
        println!("    {name:<12}: {:5.1}% of step", 100.0 * ms / phase_total);
    }

    dy.set_threads(threads);
    let mut flatn_state = init.clone();
    let flatn_ms = time_per_step(|| dy.step(&mut flatn_state));
    let speedup = seed_ms / flatn_ms;
    println!("  flat, {threads} threads  : {flatn_ms:9.2} ms/step  ({speedup:.2}x vs seed)");

    // Per-phase breakdown of the PARALLEL step (same worker pool as the
    // timed run above): where it spends its wall-clock, phase by phase.
    let mut pphase_state = init.clone();
    let (mut prk_ms, mut phv_ms, mut ptr_ms, mut prm_ms) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for step in 0..WARMUP_STEPS + MEASURE_STEPS {
        let measured = step >= WARMUP_STEPS;
        let lap = |acc: &mut f64, t0: Instant| {
            if measured {
                *acc += t0.elapsed().as_secs_f64() * 1e3 / MEASURE_STEPS as f64;
            }
        };
        let t0 = Instant::now();
        dy.dynamics_step(&mut pphase_state);
        lap(&mut prk_ms, t0);
        let t0 = Instant::now();
        dy.apply_hypervis(&mut pphase_state).expect("hyperviscosity plan");
        lap(&mut phv_ms, t0);
        let t0 = Instant::now();
        dy.euler_step_tracers(&mut pphase_state);
        lap(&mut ptr_ms, t0);
        let t0 = Instant::now();
        dy.vertical_remap(&mut pphase_state).expect("vertical remap");
        lap(&mut prm_ms, t0);
    }
    let phv_ms_sub = phv_ms / hv_subcycles as f64;
    println!(
        "  phases ({threads} threads): rk {prk_ms:.2}  hypervis {phv_ms:.2}  \
         tracer {ptr_ms:.2}  remap {prm_ms:.2} ms/step"
    );
    println!(
        "    hypervis     : {hv_subcycles} subcycles, {phv_ms_sub:.2} ms/subcycle (incl. sponge share)"
    );

    // Sanity: every driver walked the same trajectory, to the bit.
    let d1 = flat1_state.max_abs_diff(&seed_state);
    let dn = flatn_state.max_abs_diff(&seed_state);
    assert_eq!(d1, 0.0, "flat serial diverged from seed by {d1:e}");
    assert_eq!(dn, 0.0, "flat parallel diverged from seed by {dn:e}");

    let meets = speedup >= TARGET_SPEEDUP;
    println!(
        "  target {TARGET_SPEEDUP:.1}x vs seed serial: {}",
        if meets { "met" } else { "NOT met" }
    );
    let beats_baseline = flat1_ms < BASELINE_FLAT_SERIAL_MS;
    println!(
        "  vs committed pre-plan serial baseline {BASELINE_FLAT_SERIAL_MS:.1} ms/step: \
         {flat1_ms:.1} ms/step ({})",
        if beats_baseline { "improved" } else { "NOT improved" }
    );

    let json = format!(
        "{{\n  \"bench\": \"fullstep\",\n  \"ne\": {NE},\n  \"nlev\": {NLEV},\n  \"qsize\": {QSIZE},\n  \
         \"steps_measured\": {MEASURE_STEPS},\n  \"cores\": {cores},\n  \"threads\": {threads},\n  \
         \"oversubscribed\": {oversubscribed},\n  \
         \"seed_serial_ms_per_step\": {seed_ms:.3},\n  \
         \"flat_serial_ms_per_step\": {flat1_ms:.3},\n  \
         \"flat_parallel_ms_per_step\": {flatn_ms:.3},\n  \
         \"phases_serial_ms_per_step\": {{\n    \"rk_dynamics\": {rk_ms:.3},\n    \
         \"hypervis\": {hv_ms:.3},\n    \"tracer\": {tr_ms:.3},\n    \"remap\": {rm_ms:.3}\n  }},\n  \
         \"phase_share_pct\": {{\n    \"rk_dynamics\": {:.1},\n    \"hypervis\": {:.1},\n    \
         \"tracer\": {:.1},\n    \"remap\": {:.1}\n  }},\n  \
         \"phases_parallel_ms_per_step\": {{\n    \"rk_dynamics\": {prk_ms:.3},\n    \
         \"hypervis\": {phv_ms:.3},\n    \"tracer\": {ptr_ms:.3},\n    \"remap\": {prm_ms:.3}\n  }},\n  \
         \"hypervis_subcycles\": {hv_subcycles},\n  \
         \"hypervis_serial_ms_per_subcycle\": {hv_ms_sub:.3},\n  \
         \"hypervis_parallel_ms_per_subcycle\": {phv_ms_sub:.3},\n  \
         \"baseline_flat_serial_ms_per_step\": {BASELINE_FLAT_SERIAL_MS},\n  \
         \"beats_baseline\": {beats_baseline},\n  \
         \"speedup_flat_serial_vs_seed\": {:.3},\n  \
         \"speedup_parallel_vs_seed\": {speedup:.3},\n  \
         \"target_speedup\": {TARGET_SPEEDUP},\n  \"meets_target\": {meets}\n}}\n",
        100.0 * rk_ms / phase_total,
        100.0 * hv_ms / phase_total,
        100.0 * tr_ms / phase_total,
        100.0 * rm_ms / phase_total,
        seed_ms / flat1_ms,
    );
    std::fs::write("BENCH_fullstep.json", &json).expect("write BENCH_fullstep.json");
    println!("wrote BENCH_fullstep.json");
}
