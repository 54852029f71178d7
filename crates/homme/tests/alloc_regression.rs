//! Allocation regression gate: after the first (warm-up) step, the whole
//! `Dycore::step` pipeline — RK dynamics, DSS, hyperviscosity, tracer
//! advection, vertical remap — must touch the heap exactly zero times.
//! Every temporary lives in the persistent `StepWorkspace` and per-worker
//! scratch, so steady-state stepping is allocation-free by construction;
//! this test keeps it that way.
//!
//! The counting `#[global_allocator]` is per-binary state and counts every
//! thread of the process, so this binary runs its one check from `main`
//! (`harness = false` in Cargo.toml): libtest's harness thread allocates
//! lazily while it waits on a test, and the counter would see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cubesphere::consts::P0;
use cubesphere::NPTS;
use homme::hypervis::HypervisConfig;
use homme::remap::remap_field_with;
use homme::{Dims, Dycore, DycoreConfig, ElemRemapPlan, HealthConfig, RemapApplyScratch};

/// Counts every allocation (from any thread, scheduler workers included)
/// while armed; forwards everything to the system allocator.
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
    const NAME: &str = "step_allocates_nothing_after_warmup";
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    step_allocates_nothing_after_warmup();
    println!("test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

fn step_allocates_nothing_after_warmup() {
    let dims = Dims { nlev: 8, qsize: 2 };
    // Every phase on: sponge + subcycled hypervis, limiter, remap each step.
    let hypervis =
        HypervisConfig { nu: 1.0e15, nu_p: 1.0e15, subcycles: 2, nu_top: 2.5e5, sponge_layers: 3 };
    let cfg = DycoreConfig { dt: 600.0, hypervis, limiter: true, rsplit: 1 };
    let mut dy = Dycore::new(2, dims, 200.0, cfg);
    dy.set_threads(4);
    // Health guards on: the per-stage scans must be allocation-free too.
    dy.health = HealthConfig::on();

    let vert = dy.rhs.vert.clone();
    let mut st = dy.zero_state();
    for es in st.elems_mut() {
        for k in 0..dims.nlev {
            for p in 0..NPTS {
                let i = k * NPTS + p;
                es.t[i] = 300.0 + ((i % 7) as f64 - 3.0) * 0.5;
                es.dp3d[i] = vert.dp_ref(k, P0);
                for q in 0..dims.qsize {
                    es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                }
            }
        }
    }

    // Warm-up: first step may lazily touch thread-local / libstd caches.
    dy.step_checked(&mut st).expect("warm-up step");

    // Standalone remap_field_with: warm plan + scratch sized for nlev must
    // also be allocation-free on reuse (segment capacity is reserved up
    // front, so rebuilding the plan for new grids never grows the Vecs).
    let mut plan = ElemRemapPlan::new(dims.nlev);
    let mut apply = RemapApplyScratch::new(dims.nlev);
    let fl = dims.nlev * NPTS;
    let mut src = vec![0.0; fl];
    let mut dst = vec![0.0; fl];
    let mut field = vec![0.0; fl];
    for i in 0..fl {
        src[i] = vert.dp_ref(i / NPTS, P0);
        dst[i] = src[i] * (1.0 + 0.01 * ((i % 5) as f64 - 2.0));
        field[i] = 1.0 + 0.1 * (i % 3) as f64;
    }
    let total: f64 = src.chunks_exact(NPTS).map(|r| r[0]).sum();
    for p in 0..NPTS {
        let drift: f64 = (0..dims.nlev).map(|k| dst[k * NPTS + p]).sum::<f64>() - total;
        dst[(dims.nlev - 1) * NPTS + p] -= drift;
    }
    remap_field_with(dims.nlev, &src, &dst, &mut field, &mut plan, &mut apply)
        .expect("warm-up remap_field_with");

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    dy.step_checked(&mut st).expect("armed step");
    dy.step_checked(&mut st).expect("armed step");
    remap_field_with(dims.nlev, &src, &dst, &mut field, &mut plan, &mut apply)
        .expect("armed remap_field_with");
    ARMED.store(false, Ordering::SeqCst);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "Dycore::step_checked heap-allocated {n} times after warm-up");
}
