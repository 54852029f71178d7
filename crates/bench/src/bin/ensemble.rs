//! Ensemble-engine throughput benchmark (ROADMAP item 4).
//!
//! Models the operational pattern the batch driver exists for: a stream of
//! member requests for one scenario. The baseline serves each request the
//! way separate serial runs do — build the model (grid, DSS assembly map,
//! blocked operators), initialize, integrate, tear down. The engine serves
//! the same requests from one warm [`Ensemble`]: geometry, plans and
//! scratch are built once and shared, and every member steps through the
//! one dycore in turn.
//!
//! Measures, per batch width N up to the lane count (default 4, override
//! with `SWCAM_BENCH_MEMBERS`):
//!
//! * end-to-end members/sec, serial-cold vs warm-engine (the headline:
//!   target >= 3x at N = 4 on one core — *work reduction*, not
//!   parallelism), and
//! * the steady-state per-member-step ratio (what stepping through the
//!   engine costs against a standalone model, construction amortization
//!   excluded and the engine's one-time construction cost split out as
//!   `construction_ms`).
//!
//! Every batch member is asserted bitwise equal to its standalone run
//! before any number is reported. Emits `BENCH_ensemble.json` (also in
//! `--smoke` mode, tagged `"mode": "smoke"` with one untimed-quality sweep
//! on a shrunken scenario — the guard only applies floors to full
//! artifacts).

use std::time::Instant;

use swcam_core::{Ensemble, EnsembleConfig, MemberStatus, ScenarioRegistry, ScenarioSpec};

const TARGET_SPEEDUP: f64 = 3.0;

fn seed_for(n: usize, m: usize) -> u64 {
    (100 * n + m) as u64
}

struct BatchRow {
    members: usize,
    serial_s: f64,
    engine_s: f64,
    members_per_sec_serial: f64,
    members_per_sec_engine: f64,
    speedup: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec: ScenarioSpec =
        ScenarioRegistry::builtin().get("aquaplanet").expect("builtin scenario").clone();
    let steps = if smoke {
        spec.config.ne = 2;
        spec.config.nlev = 6;
        2
    } else {
        4
    };
    let lanes = std::env::var("SWCAM_BENCH_MEMBERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| (1..=32).contains(&n))
        .unwrap_or(4);
    let mut batches: Vec<usize> = [1, 2, lanes].into_iter().filter(|&b| b <= lanes).collect();
    batches.sort_unstable();
    batches.dedup();
    let ecfg = EnsembleConfig { lanes, ..EnsembleConfig::default() };
    println!(
        "ensemble: scenario {}, ne{}, nlev {}, qsize {}, {steps} steps/member, \
         {lanes} lanes{}",
        spec.name,
        spec.config.ne,
        spec.config.nlev,
        spec.config.qsize,
        if smoke { " (smoke)" } else { "" }
    );

    // The warm engine: built once, serves every batch below. Construction
    // is timed once and split out; one throwaway member faults in lazy
    // allocations before anything else is timed.
    let t0 = Instant::now();
    let mut engine = Ensemble::new(spec.clone(), ecfg);
    let construction_ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.submit(0, 1);
    engine.run_all().expect("warm-up member");
    println!("  engine construction: {construction_ms:.1} ms (one-time, shared by every batch)");

    // Each side is timed `reps` times and the fastest rep kept: on a shared
    // 1-core host the run-to-run spread otherwise swamps the few-percent
    // effect being measured.
    let reps = if smoke { 1 } else { 3 };
    let mut rows: Vec<BatchRow> = Vec::new();
    let mut bitwise_ok = true;
    for &n in &batches {
        // Serial-cold baseline: each request pays full model construction.
        let mut serial_s = f64::MAX;
        let mut serial_states = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut states = Vec::with_capacity(n);
            for m in 0..n {
                let mut model = spec.build_model(seed_for(n, m));
                model.run_steps(steps);
                states.push(model.state);
            }
            serial_s = serial_s.min(t0.elapsed().as_secs_f64());
            serial_states = states;
        }

        // Warm engine serving the same batch.
        let mut engine_s = f64::MAX;
        let mut reports = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            for m in 0..n {
                engine.submit(seed_for(n, m), steps);
            }
            reports = engine.run_all().expect("batch");
            engine_s = engine_s.min(t0.elapsed().as_secs_f64());
        }

        assert_eq!(reports.len(), n);
        for (r, oracle) in reports.iter().zip(&serial_states) {
            assert_eq!(r.status, MemberStatus::Finished);
            let diff = r.state.max_abs_diff(oracle);
            if diff != 0.0 {
                println!("  BITWISE MISMATCH: member seed {} diff {diff:e}", r.seed);
                bitwise_ok = false;
            }
        }
        assert!(bitwise_ok, "batched members must match standalone runs bitwise");

        let row = BatchRow {
            members: n,
            serial_s,
            engine_s,
            members_per_sec_serial: n as f64 / serial_s,
            members_per_sec_engine: n as f64 / engine_s,
            speedup: serial_s / engine_s,
        };
        println!(
            "  N = {n}: serial {:8.3} s ({:6.2} members/s)   engine {:8.3} s ({:6.2} members/s)   {:5.2}x",
            row.serial_s,
            row.members_per_sec_serial,
            row.engine_s,
            row.members_per_sec_engine,
            row.speedup
        );
        rows.push(row);
    }

    // Steady-state per-member-step cost: construction excluded on both
    // sides, so the ratio isolates what the engine's step costs against a
    // standalone model's.
    let steady_steps = if smoke { 1 } else { 4 };
    let mut model = spec.build_model(1);
    model.run_steps(1); // warm
    let mut serial_step_ms = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        model.run_steps(steady_steps);
        serial_step_ms =
            serial_step_ms.min(t0.elapsed().as_secs_f64() * 1e3 / steady_steps as f64);
    }

    let mut steady = Ensemble::new(spec.clone(), ecfg);
    for m in 0..lanes {
        steady.submit(m as u64, usize::MAX);
    }
    steady.step().expect("warm step"); // admits + warms
    let mut engine_member_step_ms = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..steady_steps {
            steady.step().expect("steady step");
        }
        engine_member_step_ms = engine_member_step_ms
            .min(t0.elapsed().as_secs_f64() * 1e3 / (steady_steps * lanes) as f64);
    }
    let speedup_steady = serial_step_ms / engine_member_step_ms;
    println!(
        "  steady state: serial {serial_step_ms:.2} ms/member-step, \
         engine {engine_member_step_ms:.2} ms/member-step at {lanes} members ({speedup_steady:.2}x)"
    );

    let headline = rows.last().expect("batches non-empty");
    let speedup_end_to_end = headline.speedup;
    let target_met = speedup_end_to_end >= TARGET_SPEEDUP && bitwise_ok;
    println!(
        "  target {TARGET_SPEEDUP:.1}x members/sec at {} members: {} ({speedup_end_to_end:.2}x, bitwise {})",
        headline.members,
        if target_met { "met" } else { "NOT met" },
        if bitwise_ok { "ok" } else { "FAILED" }
    );

    let batches_json: String = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"members\": {}, \"serial_s\": {:.4}, \"engine_s\": {:.4}, \
                 \"members_per_sec_serial\": {:.3}, \"members_per_sec_engine\": {:.3}, \
                 \"speedup\": {:.3}}}",
                r.members,
                r.serial_s,
                r.engine_s,
                r.members_per_sec_serial,
                r.members_per_sec_engine,
                r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"ensemble\",\n  \"mode\": \"{mode}\",\n  \
         \"scenario\": \"{scenario}\",\n  \"ne\": {ne},\n  \"nlev\": {nlev},\n  \
         \"qsize\": {qsize},\n  \"steps_per_member\": {steps},\n  \
         \"members\": {lanes},\n  \
         \"construction_ms\": {construction_ms:.3},\n  \
         \"batches\": [\n{batches_json}\n  ],\n  \
         \"steady_serial_ms_per_member_step\": {serial_step_ms:.3},\n  \
         \"steady_engine_ms_per_member_step\": {engine_member_step_ms:.3},\n  \
         \"speedup_steady_state\": {speedup_steady:.3},\n  \
         \"speedup_end_to_end\": {speedup_end_to_end:.3},\n  \
         \"bitwise_ok\": {bitwise_ok},\n  \
         \"target_speedup\": {TARGET_SPEEDUP},\n  \"target_met\": {target_met}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        scenario = spec.name,
        ne = spec.config.ne,
        nlev = spec.config.nlev,
        qsize = spec.config.qsize,
    );
    std::fs::write("BENCH_ensemble.json", &json).expect("write BENCH_ensemble.json");
    println!("wrote BENCH_ensemble.json");
}
