//! Persistent element scheduler: runs per-element loops of the dycore
//! pipeline across host cores with zero steady-state heap allocation.
//!
//! The ISSUE sketch suggested crossbeam scoped threads, but spawning a
//! scope per loop allocates (thread stacks, join handles) on every step —
//! incompatible with the zero-allocation contract on `Dycore::step`. So
//! the pool here is spawned once and reused: each `run` publishes the job
//! closure as a raw pointer under a mutex, bumps an epoch, and wakes the
//! workers; items are claimed in chunks off a shared atomic cursor
//! (work-stealing by self-scheduling — an idle worker keeps pulling
//! chunks until the cursor runs dry). `run` returns only after every
//! worker has finished, which is what makes the raw-pointer publication
//! sound.
//!
//! Waiting is spin-then-park: a worker out of work, and the caller waiting
//! for the last worker, poll an atomic for up to [`SPIN`] before they
//! sleep on a condvar. The step issues its sweeps back to back (three
//! a hyperviscosity subcycle, nothing serial between them), so the next
//! epoch is normally microseconds away; parking for it costs two futex
//! round trips a sweep, and how long a sleeping vCPU takes to come back is
//! the host's to decide (measured: `hv_ne8` steps 3% shorter on a quiet
//! 2-vCPU VM, DESIGN.md §5.7). Longer gaps still park after `SPIN`.
//!
//! Determinism: every item is executed exactly once and jobs write only
//! item-indexed (disjoint) outputs, so results are bitwise independent of
//! thread count and chunk interleaving. Every DSS of the blocked step runs
//! here too — RK stages, hyperviscosity and tracer stages alike: each
//! element *gathers* its points' sharers from a read-only arena in the
//! plan's canonical order ([`crate::dss::DssGather`]), so the sum a point
//! receives does not depend on which worker forms it. The end of each
//! `run` is the only synchronization point between phases; the serial
//! scatter walks of [`crate::dss::Dss`] remain only for the scalar oracle
//! path.
//!
//! Jobs that need typed per-worker state the dycore workspace does not
//! carry (the physics coupling's column buffers) borrow it from the pool
//! itself through [`ElemScheduler::run_with_scratch`].

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks. Covers the gap between two
/// back-to-back sweeps and the tail of a sweep (one chunk); short enough
/// that an oversubscribed pool gives the core back promptly.
const SPIN: Duration = Duration::from_micros(100);

/// Poll `ready` for at most [`SPIN`]; the clock is read once per 64 polls.
fn spin_until(ready: impl Fn() -> bool) {
    let t0 = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        if t0.elapsed() >= SPIN {
            return;
        }
    }
}

/// Type-erased job: `(worker_id, item_index)`.
type Job = *const (dyn Fn(usize, usize) + Sync);

struct JobSlot {
    job: Option<Job>,
    nitems: usize,
    chunk: usize,
    /// Bumped once per `run`; workers use it to detect new work.
    epoch: u64,
    shutdown: bool,
}

// The raw job pointer is only dereferenced between publication and the
// `remaining == 0` handshake, during which `run` keeps the referent alive.
unsafe impl Send for JobSlot {}

struct Shared {
    slot: Mutex<JobSlot>,
    start: Condvar,
    done: Condvar,
    cursor: AtomicUsize,
    /// Copy of `slot.epoch` for spinning workers; the slot stays the truth.
    epoch: AtomicU64,
    /// Helper workers that have not yet finished the current epoch.
    remaining: AtomicUsize,
}

/// Persistent worker pool for per-element loops. The calling thread
/// participates as worker 0; `nthreads - 1` helper threads are spawned
/// once at construction.
pub struct ElemScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    nthreads: usize,
    /// One boxed `PerWorker<S>` per scratch type `S` a
    /// [`ElemScheduler::run_with_scratch`] caller has used.
    scratch: Mutex<Vec<Box<dyn Any + Send>>>,
}

fn work_loop(job: &(dyn Fn(usize, usize) + Sync), nitems: usize, chunk: usize, cursor: &AtomicUsize, worker: usize) {
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= nitems {
            return;
        }
        let end = (start + chunk).min(nitems);
        for i in start..end {
            job(worker, i);
        }
    }
}

impl ElemScheduler {
    /// Pool with `nthreads` total workers (including the caller);
    /// `nthreads == 0` or `1` means serial execution with no helper
    /// threads.
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                job: None,
                nitems: 0,
                chunk: 1,
                epoch: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
        });
        let workers = (1..nthreads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("swcam-elem-{w}"))
                    .spawn(move || Self::worker_main(&shared, w))
                    .expect("spawn element worker")
            })
            .collect();
        ElemScheduler { shared, workers, nthreads, scratch: Mutex::new(Vec::new()) }
    }

    /// Thread count from `SWCAM_THREADS` if set, else the machine's
    /// available parallelism.
    pub fn with_default_threads() -> Self {
        let n = std::env::var("SWCAM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Self::new(n)
    }

    /// Total workers, including the calling thread.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    fn worker_main(shared: &Shared, worker: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let (job, nitems, chunk);
            spin_until(|| shared.epoch.load(Ordering::Acquire) != seen_epoch);
            {
                let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
                while !slot.shutdown && slot.epoch == seen_epoch {
                    slot = shared.start.wait(slot).unwrap_or_else(|p| p.into_inner());
                }
                if slot.shutdown {
                    return;
                }
                seen_epoch = slot.epoch;
                job = slot.job.expect("job published with epoch bump");
                nitems = slot.nitems;
                chunk = slot.chunk;
            }
            // Sound: `run` blocks until this worker reports done below.
            work_loop(unsafe { &*job }, nitems, chunk, &shared.cursor, worker);
            // The release half publishes this worker's item writes to `run`.
            if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Taking the lock orders this notify after a `run` that has
                // checked `remaining` and is about to wait: no lost wake-up.
                let _slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
                shared.done.notify_one();
            }
        }
    }

    /// Execute `job(worker_id, i)` for every `i in 0..nitems` across the
    /// pool, returning when all items are done. Allocation-free after
    /// construction. `worker_id < nthreads()` identifies which worker
    /// runs the item (for per-worker scratch); item-to-worker assignment
    /// is nondeterministic, so jobs must write only item-indexed outputs.
    pub fn run(&self, nitems: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        if self.workers.is_empty() || nitems <= 1 {
            for i in 0..nitems {
                job(0, i);
            }
            return;
        }
        // Chunked self-scheduling: a few chunks per worker balances load
        // without hammering the cursor.
        let chunk = (nitems / (self.nthreads * 4)).max(1);
        self.shared.cursor.store(0, Ordering::SeqCst);
        self.shared.remaining.store(self.workers.len(), Ordering::Relaxed);
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            // Erase the borrow lifetime for the published pointer. Sound:
            // `run` does not return until `remaining` reads zero, i.e. every
            // worker has finished dereferencing it for this epoch, and the
            // pointer is cleared before return.
            slot.job = Some(unsafe {
                std::mem::transmute::<*const (dyn Fn(usize, usize) + Sync + '_), Job>(
                    job as *const _,
                )
            });
            slot.nitems = nitems;
            slot.chunk = chunk;
            slot.epoch += 1;
            self.shared.epoch.store(slot.epoch, Ordering::Release);
        }
        self.shared.start.notify_all();
        work_loop(job, nitems, chunk, &self.shared.cursor, 0);
        let finished = || self.shared.remaining.load(Ordering::Acquire) == 0;
        spin_until(finished);
        let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
        while !finished() {
            slot = self.shared.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.job = None;
    }

    /// [`ElemScheduler::run`] with a worker-owned scratch value: `job(s, i)`
    /// gets the `S` of whichever worker runs item `i`.
    ///
    /// The pool owns one `S` per worker. The first call for a type `S`
    /// builds all `nthreads()` of them with `make`, serially on the calling
    /// thread, before the job is published; every later call reuses them
    /// and allocates nothing. So whether a slot exists never depends on
    /// which workers happened to claim items, as it would with a
    /// `thread_local!` that a worker idle during warm-up fills only later.
    /// A scratch value carries state between items and calls, so `job` must
    /// overwrite whatever it reads from it.
    ///
    /// Not re-entrant: `job` must not call back into this pool.
    pub fn run_with_scratch<S: Send + 'static>(
        &self,
        nitems: usize,
        make: impl FnMut() -> S,
        job: &(dyn Fn(&mut S, usize) + Sync),
    ) {
        let mut owned = self.scratch.lock().unwrap_or_else(|p| p.into_inner());
        let at = match owned.iter().position(|b| b.is::<PerWorker<S>>()) {
            Some(at) => at,
            None => {
                owned.push(Box::new(PerWorker::new(self.nthreads, make)));
                owned.len() - 1
            }
        };
        let slots = owned[at].downcast_ref::<PerWorker<S>>().expect("slot type checked above");
        // SAFETY: a worker id is live on one thread at a time, and each
        // item touches only its own worker's slot.
        self.run(nitems, &|w, i| job(unsafe { slots.get(w) }, i));
    }
}

impl Drop for ElemScheduler {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            slot.shutdown = true;
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ElemScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElemScheduler").field("nthreads", &self.nthreads).finish()
    }
}

/// One scratch slot per worker, accessed mutably without locking. The
/// scheduler guarantees a worker id is live on at most one thread at a
/// time, which is what makes [`PerWorker::get`] sound.
pub struct PerWorker<T> {
    slots: Vec<UnsafeCell<T>>,
}

// Each slot is touched by one thread at a time (scheduler invariant).
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T> PerWorker<T> {
    pub fn new(n: usize, mut make: impl FnMut() -> T) -> Self {
        PerWorker { slots: (0..n.max(1)).map(|_| UnsafeCell::new(make())).collect() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Scratch for `worker`.
    ///
    /// # Safety
    /// At most one live reference per worker id at a time — guaranteed
    /// when `worker` is the id passed to a scheduler job and each job
    /// only touches its own slot.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, worker: usize) -> &mut T {
        &mut *self.slots[worker].get()
    }

    /// Safe access from serial code.
    #[inline]
    pub fn get_mut(&mut self, worker: usize) -> &mut T {
        self.slots[worker].get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PerWorker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerWorker").field("len", &self.slots.len()).finish()
    }
}

/// Shared-mutable view of a flat arena (an `f64` field arena by default,
/// or a `V4F64` member-lane tile arena) for handing disjoint per-element
/// windows to scheduler jobs.
#[derive(Copy, Clone)]
pub struct ArenaMut<'a, T = f64> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for ArenaMut<'_, T> {}
unsafe impl<T: Sync> Sync for ArenaMut<'_, T> {}

impl<'a, T> ArenaMut<'a, T> {
    pub fn new(buf: &'a mut [T]) -> Self {
        ArenaMut { ptr: buf.as_mut_ptr(), len: buf.len(), _marker: PhantomData }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window `[start, start + len)` of the arena.
    ///
    /// # Safety
    /// The window must lie inside the arena (checked in debug builds
    /// only), and windows sliced concurrently must be pairwise disjoint
    /// (the per-element ranges of the dycore loops are).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_item_exactly_once() {
        let sched = ElemScheduler::new(4);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        sched.run(n, &|_w, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_runs_reuse_the_pool() {
        let sched = ElemScheduler::new(3);
        let mut out = vec![0.0f64; 64];
        for round in 0..50 {
            let arena = ArenaMut::new(&mut out);
            sched.run(64, &|_w, i| {
                let s = unsafe { arena.slice(i, 1) };
                s[0] = (round * 64 + i) as f64;
            });
            assert_eq!(out[63], (round * 64 + 63) as f64);
        }
    }

    #[test]
    fn spinning_and_parked_workers_both_pick_up_the_next_run() {
        // More workers than this host has cores, so some are descheduled
        // mid-spin; every other gap outlasts `SPIN`, so they are parked.
        let sched = ElemScheduler::new(5);
        let n = 64;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for round in 1..=200u64 {
            if round % 2 == 0 {
                std::thread::sleep(4 * SPIN);
            }
            sched.run(n, &|_w, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == round), "round {round}");
        }
    }

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let n = 257;
        let mut want = vec![0.0f64; n];
        for (i, w) in want.iter_mut().enumerate() {
            *w = (i as f64).sin();
        }
        for threads in [1, 2, 5, 8] {
            let sched = ElemScheduler::new(threads);
            let mut got = vec![0.0f64; n];
            let arena = ArenaMut::new(&mut got);
            sched.run(n, &|_w, i| {
                let s = unsafe { arena.slice(i, 1) };
                s[0] = (i as f64).sin();
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_scratch_is_private() {
        let sched = ElemScheduler::new(4);
        let scratch = PerWorker::new(sched.nthreads(), || vec![0u64; 1]);
        let n = 500;
        sched.run(n, &|w, _i| {
            let s = unsafe { scratch.get(w) };
            s[0] += 1;
        });
        let mut scratch = scratch;
        let total: u64 = (0..scratch.len()).map(|w| scratch.get_mut(w)[0]).sum();
        assert_eq!(total, n as u64);
    }

    #[test]
    fn run_with_scratch_fills_every_slot_on_first_use_only() {
        let sched = ElemScheduler::new(5);
        let made = AtomicU64::new(0);
        let make = || {
            made.fetch_add(1, Ordering::Relaxed);
            Vec::<u64>::with_capacity(8)
        };
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        for round in 1..=20u64 {
            sched.run_with_scratch(hits.len(), make, &|s: &mut Vec<u64>, i| {
                s.clear();
                s.push(i as u64);
                hits[s[0] as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(made.load(Ordering::Relaxed), 5, "round {round}: one slot per worker, once");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == round), "round {round}");
        }
        // A second scratch type gets slots of its own; the first keeps its.
        sched.run_with_scratch(3, || 0u8, &|s: &mut u8, _| *s = 1);
        sched.run_with_scratch(3, make, &|_: &mut Vec<u64>, _| {});
        assert_eq!(made.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn zero_and_one_item_runs() {
        let sched = ElemScheduler::new(2);
        let count = AtomicU64::new(0);
        sched.run(0, &|_w, _i| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        sched.run(1, &|_w, i| {
            count.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
