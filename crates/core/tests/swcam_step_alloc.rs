//! Allocation gate for the coupled step: after its first step, a
//! [`swcam_core::Swcam::step`] — dynamics, tracers, remap **and** the
//! physics sweep — must touch the heap exactly zero times, for every column
//! physics suite, on one worker and on three.
//!
//! The physics sweep borrows one column buffer per worker from the
//! scheduler pool, built for every worker on the pool's first call. Three
//! busy threads run beside the model throughout, so pool helpers are
//! descheduled for whole sweeps and the worker that claims a given element
//! varies from step to step: a scratch slot that only the workers active
//! during warm-up had filled would allocate inside the armed window.
//!
//! The counting `#[global_allocator]` is per-binary state and counts every
//! thread of the process, so this binary runs its one check from `main`
//! (`harness = false` in Cargo.toml): libtest's harness thread allocates
//! lazily while it waits on a test, and the counter would see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use swcam_core::{ScenarioRegistry, SuiteChoice};

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

/// Armed coupled steps per (suite, worker count).
const ARMED_STEPS: usize = 200;

/// Raises the spinners' stop flag when dropped — on a panicking step too,
/// so the scope that joins them cannot hang.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The check, reported in libtest's format so test listings and totals
/// read the same as for a harnessed test.
fn main() {
    const NAME: &str = "coupled_step_allocates_nothing_after_warmup";
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    coupled_step_allocates_nothing_after_warmup();
    println!("test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

fn coupled_step_allocates_nothing_after_warmup() {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        for (scenario, suite) in [
            ("aquaplanet", SuiteChoice::Simple),
            ("held-suarez", SuiteChoice::HeldSuarez),
            ("aquaplanet", SuiteChoice::Full),
        ] {
            let mut spec = ScenarioRegistry::builtin()
                .get(scenario)
                .expect("builtin")
                .clone();
            spec.config.ne = 2;
            spec.config.nlev = 8;
            spec.config.suite = suite;
            for workers in [1usize, 3] {
                let mut model = spec.build_model(5);
                model.dycore.set_threads(workers);
                // Warm-up: builds the pool's column buffers and touches any
                // lazily initialized libstd state.
                model.step();

                ALLOCS.store(0, Ordering::SeqCst);
                ARMED.store(true, Ordering::SeqCst);
                model.run_steps(ARMED_STEPS);
                ARMED.store(false, Ordering::SeqCst);
                let n = ALLOCS.load(Ordering::SeqCst);
                assert_eq!(
                    n, 0,
                    "{suite:?} at {workers} workers: {ARMED_STEPS} coupled steps heap-allocated {n} times"
                );
            }
        }
    });
}
