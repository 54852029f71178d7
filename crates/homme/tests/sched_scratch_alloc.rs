//! Allocation gate for `ElemScheduler::run_with_scratch`: the first call
//! for a scratch type builds one slot per worker and every later call
//! allocates nothing — on a pool with more workers (5) than this kind of
//! host has cores, where some workers run no item at all in a given call.
//!
//! The counting `#[global_allocator]` is per-binary state, so this file
//! holds exactly one `#[test]` and shares its binary with nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use homme::ElemScheduler;

/// Counts every allocation (from any thread, pool workers included) while
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

#[test]
fn run_with_scratch_allocates_only_on_first_use() {
    let sched = ElemScheduler::new(5);
    let sums: Vec<AtomicUsize> = (0..96).map(|_| AtomicUsize::new(0)).collect();
    // Each item refills its worker's buffer to the reserved capacity.
    let job = |buf: &mut Vec<usize>, i: usize| {
        buf.clear();
        buf.extend((0..64).map(|j| i + j));
        sums[i].fetch_add(buf.iter().sum::<usize>(), Ordering::Relaxed);
    };
    let make = || Vec::with_capacity(64);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    sched.run_with_scratch(sums.len(), make, &job);
    ARMED.store(false, Ordering::SeqCst);
    let first = ALLOCS.load(Ordering::SeqCst);
    // Five buffers, the slot array and its box: every slot, filled once.
    assert!(
        first >= 5,
        "first call built only {first} allocations for 5 worker slots"
    );

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..200 {
        sched.run_with_scratch(sums.len(), make, &job);
    }
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "200 later calls heap-allocated {n} times");
    for (i, s) in sums.iter().enumerate() {
        assert_eq!(
            s.load(Ordering::Relaxed),
            201 * (64 * i + 63 * 64 / 2),
            "item {i}"
        );
    }
}
