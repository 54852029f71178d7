//! Rank-count invariance: the distributed step commits the serial
//! `Dycore`'s bits whatever the rank count, transport, exchange schedule or
//! worker count per rank.
//!
//! Every point of the DSS sums its sharers in global element order, whether
//! a sharer is a local element window or a ghost read from a peer's
//! message, so the sum order does not depend on the partition. The run uses
//! every phase that exchanges: the limiter, the top-of-model sponge,
//! `nu_p != nu`, a remap every second step (`rsplit` 2), and six tracers —
//! more than one tracer chunk, so the tracer exchanges are multi-chunk —
//! for three steps on ne3.

use cubesphere::consts::P0;
use cubesphere::{CubedSphere, Partition, NPTS};
use homme::hypervis::HypervisConfig;
use homme::{Dims, DistDycore, Dycore, DycoreConfig, ExchangeMode, State};
use swmpi::{run_ranks_tcp, run_ranks_with, RankCtx, WorldOptions};

const NE: usize = 3;
const NSTEPS: usize = 3;

fn dims() -> Dims {
    Dims { nlev: 4, qsize: 6 }
}

fn config() -> DycoreConfig {
    let nu = 1.0e15;
    let hypervis = HypervisConfig { nu, nu_p: 1.7 * nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 2 };
    DycoreConfig { dt: 300.0, hypervis, limiter: true, rsplit: 2 }
}

/// A moving, sheared state whose tracers differ per tracer and dip below
/// zero at the poles, so the limiter has work.
fn initial_state(dy: &Dycore) -> State {
    let dims = dy.dims;
    let vert = dy.rhs.vert.clone();
    let mut st = dy.zero_state();
    for (es, el) in st.elems_mut().zip(&dy.grid.elements) {
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            for k in 0..dims.nlev {
                let i = k * NPTS + p;
                es.u[i] = 15.0 * lat.cos() + 3.0 * (2.0 * lon).sin();
                es.v[i] = 2.0 * lon.sin();
                es.t[i] = 280.0 + 5.0 * lat.cos() + k as f64;
                es.dp3d[i] = vert.dp_ref(k, ps);
                for q in 0..dims.qsize {
                    let shape = 0.3 * (lat * (1 + q) as f64).sin() - 0.1 * lat.sin().powi(8);
                    es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.004 * es.dp3d[i] * shape;
                }
            }
        }
    }
    st
}

/// FNV-1a over every bit of the prognostic arenas.
fn state_hash(st: &State) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for arena in [&st.u, &st.v, &st.t, &st.dp3d, &st.qdp] {
        for x in arena.iter() {
            h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `NSTEPS` distributed steps of `init` on `nranks` ranks, gathered back
/// into one global state.
fn distributed(init: &State, nranks: usize, tcp: bool, mode: ExchangeMode, threads: usize) -> State {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, nranks);
    let body = |ctx: &mut RankCtx| {
        let mut dist = DistDycore::new(&grid, &part, ctx.rank(), dims(), 2000.0, config(), mode);
        dist.set_threads(threads);
        let mut local = dist.local_state(init);
        for _ in 0..NSTEPS {
            dist.step(ctx, &mut local).expect("distributed step");
        }
        assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
        if mode == ExchangeMode::Redesigned {
            assert_eq!(dist.stats.staged_bytes, 0, "the redesigned schedule stages nothing");
        }
        (dist.plan.owned.clone(), local)
    };
    let ranks = if tcp {
        run_ranks_tcp(nranks, WorldOptions::default(), body)
    } else {
        run_ranks_with(nranks, WorldOptions::default(), body)
    };
    let mut global = State::zeros(dims(), grid.nelem());
    for (owned, local) in ranks {
        for (li, &e) in owned.iter().enumerate() {
            let (src, dst) = (local.elem(li), global.elem_mut(e));
            dst.u.copy_from_slice(src.u);
            dst.v.copy_from_slice(src.v);
            dst.t.copy_from_slice(src.t);
            dst.dp3d.copy_from_slice(src.dp3d);
            dst.qdp.copy_from_slice(src.qdp);
            dst.phis.copy_from_slice(src.phis);
        }
    }
    global
}

#[test]
fn every_rank_count_commits_the_serial_bits() {
    let mut serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);
    let mut st = init.clone();
    for _ in 0..NSTEPS {
        serial.step(&mut st);
    }
    assert!(st.qdp.iter().all(|q| q.is_finite() && *q >= 0.0), "the limiter left a negative tracer");
    let want = state_hash(&st);

    let mut worlds = Vec::new();
    for nranks in [1, 2, 4, 5] {
        for tcp in [false, true] {
            for mode in [ExchangeMode::Redesigned, ExchangeMode::Original] {
                worlds.push((nranks, tcp, mode, 1));
            }
        }
    }
    // A hybrid world: two workers per rank on the rank's core.
    worlds.push((2, false, ExchangeMode::Redesigned, 2));
    for (nranks, tcp, mode, threads) in worlds {
        let got = distributed(&init, nranks, tcp, mode, threads);
        let transport = if tcp { "tcp" } else { "mailbox" };
        assert_eq!(
            state_hash(&got),
            want,
            "{nranks} ranks x {threads} threads, {transport}, {mode:?}: state hash differs from \
             the serial Dycore's"
        );
    }
}
