//! Checkpoint + health-guard overhead benchmark.
//!
//! Measures, at the exchange benchmark's resolution (ne8, nlev 26,
//! qsize 4):
//!
//! * snapshot (encode) and restore (decode) time for the in-memory
//!   checkpoint codec, plus the checkpoint size in bytes;
//! * serial steps/sec with the per-stage health guards off vs on — the
//!   guard scan is a single extra pass over the RK state, so the gap is
//!   the whole cost of running "checked".
//!
//! Emits `BENCH_checkpoint.json`. Run with
//! `cargo run --release -p swcam-bench --bin checkpoint`.

use std::time::Instant;

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::hypervis::HypervisConfig;
use homme::{Dims, Dycore, DycoreConfig, HealthConfig, State};
use swcam_core::checkpoint::{self, CheckpointMeta};

const NE: usize = 8;
const NLEV: usize = 26;
const QSIZE: usize = 4;
const CODEC_REPS: usize = 20;
const WARMUP_STEPS: usize = 1;
const MEASURE_STEPS: usize = 4;

fn config() -> DycoreConfig {
    let nu = HypervisConfig::for_ne(NE).nu;
    DycoreConfig {
        dt: 300.0 * 30.0 / NE as f64,
        hypervis: HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 3 },
        limiter: true,
        rsplit: 1,
    }
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
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            for k in 0..dims.nlev {
                let i = k * NPTS + p;
                es.u[i] = 20.0 * lat.cos();
                es.v[i] = 2.0 * lon.sin();
                es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, ps);
                for q in 0..dims.qsize {
                    es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                }
            }
        }
    }
    st
}

/// Steps/sec of the serial dycore, guards off (`step`) or on
/// (`step_checked` with [`HealthConfig::on`]).
fn steps_per_sec(init: &State, guarded: bool) -> f64 {
    let dims = Dims { nlev: NLEV, qsize: QSIZE };
    let mut dy = Dycore::new(NE, dims, 200.0, config());
    if guarded {
        dy.health = HealthConfig::on();
    }
    let mut st = init.clone();
    for _ in 0..WARMUP_STEPS {
        if guarded {
            dy.step_checked(&mut st).expect("warm-up step");
        } else {
            dy.step(&mut st);
        }
    }
    let t0 = Instant::now();
    for _ in 0..MEASURE_STEPS {
        if guarded {
            dy.step_checked(&mut st).expect("step");
        } else {
            dy.step(&mut st);
        }
    }
    MEASURE_STEPS as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    println!("checkpoint: ne{NE}, nlev {NLEV}, qsize {QSIZE}");
    let dims = Dims { nlev: NLEV, qsize: QSIZE };
    let dy = Dycore::new(NE, dims, 200.0, config());
    let init = initial_state(&dy);

    let meta = CheckpointMeta { step: 42, remap_phase: 0, degrade_pending: 0, rank: 0, epoch: 0, time: 42.0 * 300.0 };
    let mut buf = Vec::new();
    checkpoint::encode_into(&init, &meta, &mut buf); // size + warm the buffer
    let bytes = buf.len();

    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        checkpoint::encode_into(&init, &meta, &mut buf);
    }
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3 / CODEC_REPS as f64;

    let mut restored = State::zeros(dims, dy.grid.nelem());
    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        checkpoint::decode(&buf, &mut restored).expect("decode");
    }
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3 / CODEC_REPS as f64;
    assert_eq!(restored.u, init.u, "restore must be bitwise");

    let plain = steps_per_sec(&init, false);
    let guarded = steps_per_sec(&init, true);
    let overhead_pct = (plain / guarded - 1.0) * 100.0;

    println!("  checkpoint size : {bytes} B");
    println!("  snapshot        : {snapshot_ms:.3} ms");
    println!("  restore         : {restore_ms:.3} ms");
    println!("  steps/sec plain : {plain:.3}");
    println!("  steps/sec guard : {guarded:.3}  (overhead {overhead_pct:+.1}%)");

    let json = format!(
        "{{\n  \"bench\": \"checkpoint\",\n  \"ne\": {NE},\n  \"nlev\": {NLEV},\n  \"qsize\": {QSIZE},\n  \
         \"checkpoint_bytes\": {bytes},\n  \"snapshot_ms\": {snapshot_ms:.4},\n  \
         \"restore_ms\": {restore_ms:.4},\n  \"steps_per_sec_unguarded\": {plain:.4},\n  \
         \"steps_per_sec_guarded\": {guarded:.4},\n  \"guard_overhead_pct\": {overhead_pct:.2}\n}}\n"
    );
    std::fs::write("BENCH_checkpoint.json", &json).expect("write BENCH_checkpoint.json");
    println!("wrote BENCH_checkpoint.json");
}
