//! The blocked tracer stage — per tracer chunk, the fused stage kernel into
//! a one-chunk raw buffer, then one DSS gather sweep with the limiter as its
//! epilogue — is bitwise the scalar oracle's kernel + serial scatter DSS +
//! arena-wide limiter, for every column depth and tracer count the stage
//! loops specialize over (one chunk, whole chunks, ragged last chunks),
//! with the limiter on and off, at any worker count.

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::{Dims, Dycore, DycoreConfig, KernelPath, State};

const NE: usize = 2;
const STEPS: usize = 2;

/// Sheared winds and tracers of both signs (negative on half the sphere),
/// so the stages produce undershoots for the limiter to clip.
fn initial_state(dy: &Dycore) -> State {
    let d = dy.dims;
    let vert = dy.rhs.vert.clone();
    let mut st = dy.zero_state();
    for (e, el) in dy.grid.elements.iter().enumerate() {
        let es = st.elem_mut(e);
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            for k in 0..d.nlev {
                let i = k * NPTS + p;
                es.u[i] = 40.0 * lat.cos() + 3.0 * k as f64;
                es.v[i] = 15.0 * (2.0 * lon).sin();
                es.t[i] = 300.0;
                es.dp3d[i] = vert.dp_ref(k, P0 * (1.0 - 0.002 * lat.sin()));
                for q in 0..d.qsize {
                    let mix = 0.01 * (3.0 * lon + q as f64).sin() * lat.cos() + 0.002;
                    es.qdp[(q * d.nlev + k) * NPTS + p] = mix * es.dp3d[i];
                }
            }
        }
    }
    st
}

fn advect(dy: &mut Dycore, path: KernelPath, threads: usize, start: &State) -> Vec<u64> {
    dy.kernels = path;
    dy.set_threads(threads);
    let mut st = start.clone();
    for _ in 0..STEPS {
        dy.euler_step_tracers(&mut st);
    }
    st.qdp.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn blocked_tracer_sweep_matches_scalar_oracle_bitwise() {
    for nlev in [1usize, 2, 26] {
        for qsize in [1usize, 4, 5, 9, 25] {
            let mut unlimited = None;
            for limiter in [false, true] {
                let cfg = DycoreConfig {
                    limiter,
                    ..DycoreConfig::for_ne(NE)
                };
                let mut dy = Dycore::new(NE, Dims { nlev, qsize }, 2000.0, cfg);
                let start = initial_state(&dy);
                let oracle = advect(&mut dy, KernelPath::Scalar, 1, &start);
                for threads in [1usize, 2, 3, 5] {
                    let got = advect(&mut dy, KernelPath::Blocked, threads, &start);
                    let what =
                        format!("nlev={nlev} qsize={qsize} limiter={limiter} threads={threads}");
                    assert!(
                        got == oracle,
                        "{what}: blocked tracer stage diverged from the scalar oracle"
                    );
                }
                match unlimited.take() {
                    None => unlimited = Some(oracle),
                    Some(off) => assert_ne!(
                        off, oracle,
                        "nlev={nlev} qsize={qsize}: limiter never acted"
                    ),
                }
            }
        }
    }
}
