//! Distributed allocation regression gate: after a warm-up step, a full
//! `DistDycore::step` — RK dynamics with the aggregated boundary exchange,
//! hyperviscosity (sponge + subcycles), limited tracer advection, vertical
//! remap — must touch the heap exactly zero times on every rank. All
//! temporaries live in the rank core's persistent `StepWorkspace`, receive
//! queues and send buffers are pooled by the communicator, and the exchange
//! packs straight into pooled buffers. The gate runs over the in-process
//! mailbox and over loopback TCP, where the frame scratch, the readers'
//! receive buffers and the decoded payloads (pooled by the transport) are
//! inside the armed window too, with two tracers (one chunk) and six (two
//! chunks, so the tracer exchanges differ in width).
//!
//! The counting `#[global_allocator]` is per-binary state and counts every
//! thread of the process, so this binary runs its one check from `main`
//! (`harness = false` in Cargo.toml): libtest's harness thread allocates
//! lazily while it waits on a test, and the counter would see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cubesphere::consts::P0;
use cubesphere::{CubedSphere, Partition, NPTS};
use homme::hypervis::HypervisConfig;
use homme::{Dims, DistDycore, Dycore, DycoreConfig, ExchangeMode, HealthConfig};
use swmpi::{run_ranks, run_ranks_tcp, RankCtx, WorldOptions};

/// Counts every allocation (from any thread, all ranks included) while
/// armed; forwards everything to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The check, reported in libtest's format so test listings and totals
/// read the same as for a harnessed test.
fn main() {
    const NAME: &str = "distributed_step_allocates_nothing_after_warmup";
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    distributed_step_allocates_nothing_after_warmup();
    println!("test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

fn distributed_step_allocates_nothing_after_warmup() {
    for qsize in [2, 6] {
        distributed_step_allocates_nothing(Dims { nlev: 4, qsize });
    }
}

fn distributed_step_allocates_nothing(dims: Dims) {
    let ne = 3;
    // Every phase on: sponge + subcycled hypervis, limiter, remap each step.
    let hypervis =
        HypervisConfig { nu: 1.0e15, nu_p: 1.0e15, subcycles: 2, nu_top: 2.5e5, sponge_layers: 2 };
    let cfg = DycoreConfig { dt: 300.0, hypervis, limiter: true, rsplit: 1 };

    // Seed a moving global state with tracers via the serial driver.
    let serial = Dycore::new(ne, dims, 2000.0, cfg);
    let vert = serial.rhs.vert.clone();
    let elems = serial.grid.elements.clone();
    let mut init = serial.zero_state();
    for (es, el) in init.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            for k in 0..dims.nlev {
                es.u[k * NPTS + p] = 12.0 * lat.cos();
                es.v[k * NPTS + p] = 2.0 * el.metric[p].lon.sin();
                es.t[k * NPTS + p] = 280.0 + 5.0 * lat.cos() + k as f64;
                es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                for q in 0..dims.qsize {
                    es.qdp[(q * dims.nlev + k) * NPTS + p] =
                        0.004 * es.dp3d[k * NPTS + p] * (1.0 + 0.1 * q as f64);
                }
            }
        }
    }

    let nranks = 4;
    let grid = CubedSphere::new(ne);
    let part = Partition::new(&grid, nranks);
    let body = |ctx: &mut RankCtx| {
        let mut dist =
            DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, ExchangeMode::Redesigned);
        // Health guards on: the per-stage scans and the per-step global
        // verdict reduction must be allocation-free too.
        dist.health = HealthConfig::on();
        let mut local = dist.local_state(&init);

        // Warm-up: grows the exchange buffers and the communicator's
        // buffer pool, and may lazily touch thread-local libstd caches.
        // Two reductions so both of the collectives' swap buffers reach
        // verdict width.
        let _ = dist.step_checked(ctx, &mut local).expect("warm-up step").reduce_global(&ctx.coll);
        let _ = dist.step_checked(ctx, &mut local).expect("warm-up step").reduce_global(&ctx.coll);

        // All ranks step together inside the armed window (the barrier
        // itself is allocation-free: an empty allreduce).
        ctx.coll.barrier();
        if ctx.rank() == 0 {
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
        }
        ctx.coll.barrier();
        let h1 = dist.step_checked(ctx, &mut local).expect("armed step").reduce_global(&ctx.coll);
        let h2 = dist.step_checked(ctx, &mut local).expect("armed step").reduce_global(&ctx.coll);
        assert!(h1.checked && h2.checked);
        ctx.coll.barrier();
        if ctx.rank() == 0 {
            ARMED.store(false, Ordering::SeqCst);
        }
        ctx.coll.barrier();
        assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
        ALLOCS.load(Ordering::SeqCst)
    };
    let worlds = [
        ("mailbox", run_ranks(nranks, body)),
        ("tcp", run_ranks_tcp(nranks, WorldOptions::default(), body)),
    ];
    for (transport, counts) in worlds {
        let bulk_max = counts.into_iter().max().unwrap_or(0);
        assert_eq!(
            bulk_max, 0,
            "{transport}, qsize {}: DistDycore::step heap-allocated {bulk_max} times after warm-up",
            dims.qsize
        );
    }
}
