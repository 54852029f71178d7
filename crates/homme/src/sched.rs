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
//! chunks until the cursor runs dry). `run` returns, or unwinds, only
//! after every worker has finished, which is what makes the raw-pointer
//! publication sound.
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
//! thread count and chunk interleaving. Every DSS of the step runs here
//! too, with either kernel set — RK stages, hyperviscosity and tracer
//! stages alike: each
//! element *gathers* its points' sharers from a read-only arena in the
//! plan's canonical order ([`crate::dss::DssGather`]), so the sum a point
//! receives does not depend on which worker forms it. The end of each
//! `run` is the only synchronization point between phases; no step runs
//! the serial scatter walks of [`crate::dss::Dss`].
//!
//! # Element windows: the one disjointness argument
//!
//! A sweep reaches its outputs through [`ElemScheduler::run_windows`]. The
//! caller hands over each output arena as an exclusive borrow with a
//! per-element `(stride, len)` ([`Arena`]), and optionally a [`PerWorker`]
//! scratch, nested in tuples and arrays as the sweep needs ([`Arenas`]).
//! Each job gets plain `&mut` sub-slices: element `e`'s window
//! `[e * stride, e * stride + len)` of every arena and its worker's slot.
//! [`carve`] is the one place those borrows are made from raw pointers,
//! and they cannot alias because:
//!
//! 1. every element of the sweep's range is claimed exactly once, off the
//!    cursor of the one sweep the pool runs at a time (a second `run` while
//!    one is in flight panics, re-entrant or from another thread);
//! 2. `len <= stride` for every arena ([`Arena::new`]), so the windows of
//!    two elements never overlap;
//! 3. every window of the range lies inside its arena, and a pool scratch
//!    has a slot for every worker: checked once per sweep, in release
//!    builds too, before any job runs ([`Arenas::lower`]);
//! 4. a worker id is live on one thread at a time, so two jobs holding the
//!    same scratch slot run one after the other;
//! 5. the arenas stay exclusively borrowed for the whole call, and a job's
//!    windows borrow the sweep's frame only for that job (the job is
//!    generic over their lifetime), so nothing else reads or writes them
//!    while they are live;
//! 6. `run` returns, or unwinds, only after every worker has left the job.
//!
//! Read-only inputs stay plain `&[T]` captures.
//!
//! Jobs that need typed per-worker state the dycore workspace does not
//! carry (the physics coupling's column buffers) borrow it from the pool
//! itself through [`ElemScheduler::with_scratch`].

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// A parallel `run` is in flight: the cursor is taken.
    busy: AtomicBool,
    /// A job panicked on a helper worker this epoch.
    panicked: AtomicBool,
}

/// Persistent worker pool for per-element loops. The calling thread
/// participates as worker 0; `nthreads - 1` helper threads are spawned
/// once at construction.
pub struct ElemScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    nthreads: usize,
    /// One boxed `PerWorker<S>` per scratch type `S` a
    /// [`ElemScheduler::with_scratch`] caller has used.
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

/// Ends a parallel `run`, on return and on unwind alike: waits until every
/// helper has left the job, then retracts it and frees the cursor.
struct Join<'a>(&'a Shared);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let finished = || shared.remaining.load(Ordering::Acquire) == 0;
        spin_until(finished);
        let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
        while !finished() {
            slot = shared.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.job = None;
        shared.busy.store(false, Ordering::Release);
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
            busy: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
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
            // SAFETY: `run` (its `Join`) keeps the job alive until this
            // worker reports done below.
            let job = unsafe { &*job };
            // A panicking job leaves the rest of the items to the others;
            // `run` re-raises it once every worker is out.
            if catch_unwind(AssertUnwindSafe(|| work_loop(job, nitems, chunk, &shared.cursor, worker))).is_err() {
                shared.panicked.store(true, Ordering::Relaxed);
            }
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
    /// is nondeterministic, so jobs must write only item-indexed outputs
    /// — [`ElemScheduler::run_windows`] hands them out.
    ///
    /// # Panics
    /// If a job panics (after every worker has left the job), or if a
    /// parallel run is already in flight on this pool — a job calling back
    /// into it, or another thread sharing it.
    pub fn run(&self, nitems: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        if self.workers.is_empty() || nitems <= 1 {
            for i in 0..nitems {
                job(0, i);
            }
            return;
        }
        assert!(
            !self.shared.busy.swap(true, Ordering::Acquire),
            "ElemScheduler::run: the pool is already running a sweep"
        );
        // Chunked self-scheduling: a few chunks per worker balances load
        // without hammering the cursor.
        let chunk = (nitems / (self.nthreads * 4)).max(1);
        self.shared.cursor.store(0, Ordering::SeqCst);
        self.shared.panicked.store(false, Ordering::Relaxed);
        self.shared.remaining.store(self.workers.len(), Ordering::Relaxed);
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            // Erase the borrow lifetime for the published pointer. Sound:
            // `Join` does not let `run` return or unwind until `remaining`
            // reads zero, i.e. every worker has finished dereferencing it
            // for this epoch, and it clears the pointer first.
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
        let join = Join(&self.shared);
        self.shared.start.notify_all();
        work_loop(job, nitems, chunk, &self.shared.cursor, 0);
        drop(join);
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("ElemScheduler::run: a job panicked on a helper worker");
        }
    }

    /// Run `job(e, windows)` once for every element `e` of `elems` across
    /// the pool, where `windows` is `arenas` with each [`Arena`] replaced by
    /// element `e`'s window of it and each [`PerWorker`] by the running
    /// worker's slot — plain `&mut` borrows, valid for that job. The module
    /// doc has the argument that they never alias.
    ///
    /// # Panics
    /// Before any job runs, if a window of the range does not lie inside
    /// its arena or a scratch has fewer slots than the pool has workers;
    /// otherwise as [`ElemScheduler::run`].
    pub fn run_windows<A: Arenas>(
        &self,
        elems: Range<usize>,
        arenas: A,
        job: impl for<'w> Fn(usize, A::Win<'w>) + Sync,
    ) {
        let raw = arenas.lower(&elems, self.nthreads);
        self.run(elems.len(), &|worker, i| {
            let at = Claim { elem: elems.start + i, worker };
            job(at.elem, A::window(&raw, &at));
        });
    }

    /// Run `f` with the pool's own per-worker scratch of type `S`.
    ///
    /// The pool owns one `S` per worker. The first call for a type `S`
    /// builds all `nthreads()` of them with `make`, serially on the calling
    /// thread; every later call reuses them and allocates nothing. So
    /// whether a slot exists never depends on which workers happened to
    /// claim items, as it would with a `thread_local!` that a worker idle
    /// during warm-up fills only later. A scratch value carries state
    /// between items and calls, so a job must overwrite whatever it reads
    /// from it.
    ///
    /// Not re-entrant: `f` must not ask this pool for scratch again.
    pub fn with_scratch<S: Send + 'static>(&self, make: impl FnMut() -> S, f: impl FnOnce(&mut PerWorker<S>)) {
        let mut owned = self.scratch.lock().unwrap_or_else(|p| p.into_inner());
        let at = match owned.iter().position(|b| b.is::<PerWorker<S>>()) {
            Some(at) => at,
            None => {
                owned.push(Box::new(PerWorker::new(self.nthreads, make)));
                owned.len() - 1
            }
        };
        f(owned[at].downcast_mut::<PerWorker<S>>().expect("slot type checked above"))
    }

    /// [`ElemScheduler::run`] with a worker-owned scratch value from
    /// [`ElemScheduler::with_scratch`]: `job(s, i)` gets the `S` of
    /// whichever worker runs item `i`.
    pub fn run_with_scratch<S: Send + 'static>(
        &self,
        nitems: usize,
        make: impl FnMut() -> S,
        job: &(dyn Fn(&mut S, usize) + Sync),
    ) {
        self.with_scratch(make, |slots| self.run_windows(0..nitems, slots, |i, s| job(s, i)));
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

/// One scratch slot per worker. Passed to [`ElemScheduler::run_windows`]
/// as `&mut`, it hands each job the running worker's slot.
#[derive(Debug)]
pub struct PerWorker<T> {
    slots: Vec<T>,
}

impl<T> PerWorker<T> {
    pub fn new(n: usize, mut make: impl FnMut() -> T) -> Self {
        PerWorker { slots: (0..n.max(1)).map(|_| make()).collect() }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Scratch for `worker`, from serial code.
    #[inline]
    pub fn get_mut(&mut self, worker: usize) -> &mut T {
        &mut self.slots[worker]
    }
}

/// One output arena of a [`ElemScheduler::run_windows`] sweep: element `e`
/// owns `buf[e * stride..e * stride + len]`.
pub struct Arena<'a, T> {
    buf: &'a mut [T],
    stride: usize,
    len: usize,
}

impl<'a, T> Arena<'a, T> {
    /// # Panics
    /// If `len > stride`: neighbouring elements' windows would overlap.
    pub fn new(buf: &'a mut [T], stride: usize, len: usize) -> Self {
        assert!(len <= stride, "Arena: a {len}-long window overlaps the next element at stride {stride}");
        Arena { buf, stride, len }
    }
}

/// An arena lowered for one sweep: its windows are cut by [`carve`].
#[doc(hidden)]
pub struct RawArena<T> {
    ptr: *mut T,
    stride: usize,
    len: usize,
}

// SAFETY: `ptr` is only read, and turned into `&mut` windows by `carve`
// alone, which gives each window to one job at a time (module doc); those
// jobs may run on any worker thread, hence `T: Send`. `stride` and `len`
// are plain values fixed at `lower`.
unsafe impl<T: Send> Sync for RawArena<T> {}

/// Window `i` of `raw`, `[i * stride, i * stride + len)`: element `i`'s
/// window of an [`Arena`], or worker `i`'s slot of a [`PerWorker`].
///
/// The one place a sweep's `&mut` windows come from raw pointers. Sound
/// because callers pass only the index of a [`Claim`], and by points 1–6 of
/// the module doc: the window is inside the arena (checked when the arena
/// was lowered), no other live window overlaps it, and it is dropped
/// before the arena's borrow ends.
#[inline]
#[allow(clippy::mut_from_ref)]
fn carve<T>(raw: &RawArena<T>, i: usize) -> &mut [T] {
    // SAFETY: `i` is a claimed element (or the claiming worker), whose window
    // `lower` checked to lie inside the arena; points 1–6 of the module doc
    // show no other live reference overlaps it while the job holds it.
    unsafe { std::slice::from_raw_parts_mut(raw.ptr.add(i * raw.stride), raw.len) }
}

/// An element claimed off the cursor, and the worker that claimed it. Only
/// [`ElemScheduler::run_windows`] makes one, once per element of its range.
#[doc(hidden)]
pub struct Claim {
    elem: usize,
    worker: usize,
}

mod seal {
    pub trait Sealed {}
}

/// The outputs of a [`ElemScheduler::run_windows`] sweep: an [`Arena`], a
/// `&mut` [`PerWorker`], or a tuple (2–4) or array of these, nested as the
/// sweep needs. Implemented here only.
pub trait Arenas: seal::Sealed {
    /// What a job gets: the same nesting, each [`Arena`] replaced by the
    /// element's `&mut [T]` window and each [`PerWorker`] by the worker's
    /// `&mut` slot.
    type Win<'w>;
    #[doc(hidden)]
    type Raw: Sync;
    /// Check that every window of `elems` (every slot of `nthreads`
    /// workers) lies inside its arena, and lower to raw form.
    #[doc(hidden)]
    fn lower(self, elems: &Range<usize>, nthreads: usize) -> Self::Raw;
    #[doc(hidden)]
    fn window<'w>(raw: &'w Self::Raw, at: &Claim) -> Self::Win<'w>;
}

impl<T: Send + 'static> seal::Sealed for Arena<'_, T> {}
impl<T: Send + 'static> Arenas for Arena<'_, T> {
    type Win<'w> = &'w mut [T];
    type Raw = RawArena<T>;

    fn lower(self, elems: &Range<usize>, _: usize) -> RawArena<T> {
        let Arena { buf, stride, len } = self;
        if !elems.is_empty() {
            let end = (elems.end - 1).checked_mul(stride).and_then(|o| o.checked_add(len));
            assert!(
                end.is_some_and(|end| end <= buf.len()),
                "Arena: elements {elems:?} at stride {stride} reach past its {} values",
                buf.len()
            );
        }
        RawArena { ptr: buf.as_mut_ptr(), stride, len }
    }

    #[inline]
    fn window<'w>(raw: &'w RawArena<T>, at: &Claim) -> &'w mut [T] {
        carve(raw, at.elem)
    }
}

impl<S: Send + 'static> seal::Sealed for &mut PerWorker<S> {}
impl<S: Send + 'static> Arenas for &mut PerWorker<S> {
    type Win<'w> = &'w mut S;
    type Raw = RawArena<S>;

    fn lower(self, _: &Range<usize>, nthreads: usize) -> RawArena<S> {
        assert!(self.len() >= nthreads, "PerWorker: {} slots for {nthreads} workers", self.len());
        RawArena { ptr: self.slots.as_mut_ptr(), stride: 1, len: 1 }
    }

    #[inline]
    fn window<'w>(raw: &'w RawArena<S>, at: &Claim) -> &'w mut S {
        &mut carve(raw, at.worker)[0]
    }
}

impl<A: Arenas, const N: usize> seal::Sealed for [A; N] {}
impl<A: Arenas, const N: usize> Arenas for [A; N] {
    type Win<'w> = [A::Win<'w>; N];
    type Raw = [A::Raw; N];

    fn lower(self, elems: &Range<usize>, nthreads: usize) -> Self::Raw {
        self.map(|a| a.lower(elems, nthreads))
    }

    #[inline]
    fn window<'w>(raw: &'w Self::Raw, at: &Claim) -> Self::Win<'w> {
        raw.each_ref().map(|r| A::window(r, at))
    }
}

macro_rules! tuple_arenas {
    ($($a:ident),+) => {
        impl<$($a: Arenas),+> seal::Sealed for ($($a,)+) {}
        #[allow(non_snake_case)]
        impl<$($a: Arenas),+> Arenas for ($($a,)+) {
            type Win<'w> = ($($a::Win<'w>,)+);
            type Raw = ($($a::Raw,)+);

            fn lower(self, elems: &Range<usize>, nthreads: usize) -> Self::Raw {
                let ($($a,)+) = self;
                ($($a.lower(elems, nthreads),)+)
            }

            #[inline]
            fn window<'w>(raw: &'w Self::Raw, at: &Claim) -> Self::Win<'w> {
                let ($($a,)+) = raw;
                ($($a::window($a, at),)+)
            }
        }
    };
}

tuple_arenas!(A, B);
tuple_arenas!(A, B, C);

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
            sched.run_windows(0..64, Arena::new(&mut out, 1, 1), |i, s| {
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
            sched.run_windows(0..n, Arena::new(&mut got, 1, 1), |i, s| {
                s[0] = (i as f64).sin();
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_scratch_is_private() {
        let sched = ElemScheduler::new(4);
        let mut scratch = PerWorker::new(sched.nthreads(), || vec![0u64; 1]);
        let n = 500;
        sched.run_windows(0..n, &mut scratch, |_e, s| {
            s[0] += 1;
        });
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

    #[test]
    fn offset_range_runs_each_element_once() {
        for threads in [1, 2, 5] {
            let sched = ElemScheduler::new(threads);
            let mut hits = vec![[0u32; 2]; 20];
            sched.run_windows(3..17, Arena::new(&mut hits, 1, 1), |e, w| w[0] = [w[0][0] + 1, e as u32]);
            for (e, h) in hits.iter().enumerate() {
                let want = if (3..17).contains(&e) { [1, e as u32] } else { [0, 0] };
                assert_eq!(*h, want, "threads={threads} element {e}");
            }
        }
    }

    #[test]
    fn gaps_between_windows_stay_untouched() {
        let sched = ElemScheduler::new(3);
        // Exactly long enough at stride 5, window 3: no gap after the last.
        let mut buf = vec![-0.0f64; 10 * 5 + 3];
        sched.run_windows(0..11, Arena::new(&mut buf, 5, 3), |e, w| w.fill(e as f64 + 1.0));
        for (i, x) in buf.iter().enumerate() {
            let want = if i % 5 < 3 { (i / 5) as f64 + 1.0 } else { -0.0 };
            assert_eq!(x.to_bits(), want.to_bits(), "value {i}");
        }
    }

    #[test]
    fn nested_arenas_hand_out_each_elements_windows() {
        // The physics sweep's shape: worker scratch, four field arenas, a
        // tracer and a surface arena of other strides, and a per-point
        // arena of another type.
        let (nelem, fl, tl, np) = (9, 6, 12, 2);
        for threads in [1, 3] {
            let sched = ElemScheduler::new(threads);
            let mut slots = PerWorker::new(threads, || 0usize);
            let mut fields: [Vec<usize>; 4] = core::array::from_fn(|f| (0..nelem * fl).map(|i| f * 1000 + i).collect());
            let (mut qdp, mut phis) = ((0..nelem * tl).collect::<Vec<usize>>(), (0..nelem * np).collect::<Vec<_>>());
            let mut diag = vec![(0u8, 0usize); nelem * np];
            let state = (fields.each_mut().map(|f| Arena::new(&mut f[..], fl, fl)), Arena::new(&mut qdp, tl, tl));
            let arenas = (&mut slots, (state, Arena::new(&mut phis, np, np)), Arena::new(&mut diag, np, np));
            sched.run_windows(0..nelem, arenas, |e, (seen, ((uvtdp, q), ph), d)| {
                *seen += 1;
                let firsts = uvtdp.map(|w| std::mem::replace(&mut w[0], usize::MAX) - e * fl);
                assert_eq!((firsts, q.len(), q[0], ph.len(), ph[0]), ([0, 1000, 2000, 3000], tl, e * tl, np, e * np));
                d[1] = (1, e);
            });
            assert_eq!((0..threads).map(|w| *slots.get_mut(w)).sum::<usize>(), nelem);
            for e in 0..nelem {
                assert!(fields.iter().all(|f| f[e * fl] == usize::MAX && f[e * fl + 1] != usize::MAX));
                assert_eq!(diag[e * np..(e + 1) * np], [(0, 0), (1, e)]);
            }
        }
    }

    #[test]
    fn short_arenas_panic_before_any_job_runs() {
        let sched = ElemScheduler::new(3);
        let ran = AtomicUsize::new(0);
        let job = |_: usize, _: [&mut [f64]; 2]| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let (mut ok, mut short) = (vec![0.0; 40], vec![0.0; 39]);
        // Element 9's window at stride 4 ends at 40: one past `short`.
        let short_by_one = [Arena::new(&mut ok, 4, 4), Arena::new(&mut short, 4, 4)];
        assert!(catch_unwind(AssertUnwindSafe(|| sched.run_windows(2..10, short_by_one, job))).is_err());
        let mut slots = PerWorker::new(2, || 0u8);
        assert!(catch_unwind(AssertUnwindSafe(|| sched.run_windows(0..4, &mut slots, |_, _| {}))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| {
            Arena::new(&mut ok, 4, 5);
        }))
        .is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        // A 3-wide window of element 9 fits: the gap after it is not needed.
        sched.run_windows(2..10, [Arena::new(&mut ok, 4, 3), Arena::new(&mut short, 4, 3)], job);
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_job_indexing_past_its_window_panics() {
        for threads in [1, 2, 3] {
            let sched = ElemScheduler::new(threads);
            let mut buf = vec![0.0f64; 4 * 16];
            let past = |e: usize, w: &mut [f64]| w[if e == 11 { 2 } else { 0 }] = 1.0;
            let r = catch_unwind(AssertUnwindSafe(|| sched.run_windows(0..16, Arena::new(&mut buf, 4, 2), past)));
            assert!(r.is_err() && buf[11 * 4 + 2] == 0.0, "threads={threads}");
            // The pool is free again afterwards.
            sched.run_windows(0..16, Arena::new(&mut buf, 4, 2), |e, w| w[1] = e as f64);
            assert_eq!(buf[15 * 4 + 1], 15.0, "threads={threads}");
        }
    }

    #[test]
    fn a_run_inside_a_job_panics_instead_of_sharing_the_cursor() {
        let sched = ElemScheduler::new(2);
        assert!(catch_unwind(AssertUnwindSafe(|| sched.run(8, &|_, _| sched.run(8, &|_, _| {})))).is_err());
        let mut hits = [0u8; 8];
        sched.run_windows(0..8, Arena::new(&mut hits, 1, 1), |_, w| w[0] += 1);
        assert_eq!(hits, [1; 8]);
    }
}
