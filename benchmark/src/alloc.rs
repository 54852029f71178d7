//! Counting global allocator: `alloc.per_step` is exact, not sampled.
//!
//! The count covers every thread of the process (worker pools and rank
//! threads included) but only while armed, and the traced run arms it only
//! around calls into the model's step functions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed: the flag and the counter are statistics; they publish no data.
static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting, on every thread. The flag is process-wide: with several
/// rank threads, one of them arms and disarms, between barriers.
pub fn arm() -> u64 {
    let before = COUNT.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    before
}

/// Stop counting; returns the allocations since the matching [`arm`].
pub fn disarm(armed_at: u64) -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed) - armed_at
}

/// Run `f` with the counter armed and add what it allocated to `total`.
pub fn counted<T>(total: &mut u64, f: impl FnOnce() -> T) -> T {
    let mark = arm();
    let out = f();
    *total += disarm(mark);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not two: the flag is process-wide and tests run on
    // parallel threads.
    #[test]
    fn counts_allocations_only_while_armed() {
        let mut total = 0;
        let v = counted(&mut total, || std::hint::black_box(vec![1u8; 64]));
        assert!(total >= 1, "a Vec allocation was not counted");
        drop(v);
        let before = COUNT.load(Ordering::Relaxed);
        let w = std::hint::black_box(vec![2u8; 64]);
        drop(w);
        // Other tests may allocate concurrently, but never while armed.
        assert_eq!(COUNT.load(Ordering::Relaxed), before);
    }
}
