//! Allocation regression gate for the ensemble engine: after construction,
//! [`swcam_core::Ensemble::step`] must touch the heap exactly zero times —
//! **including** the step that admits queued members into freed lanes
//! (admission re-initializes a lane in place through `ScenarioSpec::apply`).
//! Only `submit` and `collect` may allocate.
//!
//! The counting `#[global_allocator]` is per-binary state and counts every
//! thread of the process, so this binary runs its one check from `main`
//! (`harness = false` in Cargo.toml): libtest's harness thread allocates
//! lazily while it waits on a test, and the counter would see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use swcam_core::{Ensemble, EnsembleConfig, MemberStatus, ScenarioRegistry};

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
    const NAME: &str = "ensemble_step_allocates_nothing_after_warmup";
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    ensemble_step_allocates_nothing_after_warmup();
    println!("test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

fn ensemble_step_allocates_nothing_after_warmup() {
    // Suite-None scenario: the physics fast path never extracts columns,
    // so the entire coupled step (admission, dynamics, batched hypervis,
    // remap, physics cadence, snapshotting) stays off the heap.
    let spec = ScenarioRegistry::builtin().get("resting").expect("builtin").clone();
    let mut ens = Ensemble::new(spec, EnsembleConfig { lanes: 2, ..EnsembleConfig::default() });
    let targets = [3usize, 20, 20];
    for (m, &steps) in targets.iter().enumerate() {
        ens.submit(m as u64, steps);
    }

    // Warm-up: the first step may lazily touch thread-local / libstd
    // caches (it also admits the first two members).
    ens.step().expect("warm-up step");

    // Armed window 1: plain lockstep stepping of a full batch.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ens.step().expect("armed step");
    ens.step().expect("armed step");
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "Ensemble::step heap-allocated {n} times after warm-up");

    // Member 0 has now hit its 3-step target; collect it (allocation is
    // allowed here) so a lane frees up with member 2 still queued.
    let retired = ens.collect();
    assert_eq!(retired.len(), 1);
    assert_eq!(retired[0].status, MemberStatus::Finished);
    assert_eq!(ens.pending(), 1, "third member must still be queued");

    // Armed window 2: the very step that admits the queued member into the
    // freed lane (ScenarioSpec::apply re-initializes in place) must also
    // be allocation-free.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ens.step().expect("armed admission step");
    ens.step().expect("armed step");
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "admission step heap-allocated {n} times");
    assert_eq!(ens.pending(), 0);
    assert_eq!(ens.active(), 2);

    // Armed window 3: a moist scenario, so every step runs the physics
    // column sweep on the engine's pool (simple physics on three water
    // tracers). Its first step builds the pool's column buffers.
    let mut spec = ScenarioRegistry::builtin().get("aquaplanet").expect("builtin").clone();
    spec.config.ne = 2;
    spec.config.nlev = 8;
    let mut ens = Ensemble::new(spec, EnsembleConfig { lanes: 2, ..EnsembleConfig::default() });
    ens.submit(0, 10);
    ens.submit(1, 10);
    ens.step().expect("moist warm-up step");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        ens.step().expect("armed moist step");
    }
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "moist Ensemble::step heap-allocated {n} times");
    assert_eq!(ens.active(), 2, "no member may have rolled back");
}
