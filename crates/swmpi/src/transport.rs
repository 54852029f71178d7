//! The transport seam: how bytes (well, `f64`s) actually move between
//! ranks.
//!
//! [`Comm`](crate::Comm) owns all *protocol* state — matching, pooled
//! payload buffers, sequence watermarks, the fault layer, retry/backoff —
//! and delegates raw delivery to a [`Transport`]. Two implementations
//! exist:
//!
//! * [`MailboxTransport`] — the in-process fast path: every rank is a
//!   thread in one OS process and a "send" is a `VecDeque` push under a
//!   mutex plus a condvar wake. Allocation-free at steady state (payloads
//!   travel by move), which is what the zero-allocation step gates pin.
//! * [`crate::tcp::TcpTransport`] — real sockets: length-prefixed
//!   CRC-framed messages over one duplex `TcpStream` per peer pair, with
//!   per-peer reconnect. This is the backend the multi-process world
//!   ([`crate::process`]) runs on.
//!
//! The seam is deliberately narrow: outbound delivery, a nonblocking
//! inbound drain, a bounded blocking drain, and peer-liveness queries.
//! Everything above it (tags, watermarks, epoch purges, timeouts) is
//! transport-agnostic, which is why `homme::dist` runs unchanged over
//! TCP.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::comm::Message;

/// Raw message movement between ranks. See the module docs for the
/// division of labor between this trait and [`Comm`](crate::Comm).
pub(crate) trait Transport: Send {
    /// Deliver `m` to `dest`'s inbox. Never blocks on the receiver being
    /// ready; a transport that cannot currently reach `dest` (e.g. a dead
    /// TCP peer) drops the message and flags the peer lost — the receive
    /// side surfaces the failure as a typed error.
    ///
    /// Returns the payload buffer when the transport is done with it (the
    /// values were copied onto a wire, not moved to the receiver), so the
    /// sender can reuse it.
    fn send(&mut self, dest: usize, m: Message) -> Option<Vec<f64>>;

    /// Take back the payload buffer of a message the rank has consumed.
    /// A transport that allocates payloads on receive keeps it for that
    /// and returns `None`; one whose payloads arrive by move returns it to
    /// the caller.
    fn recycle(&mut self, buf: Vec<f64>) -> Option<Vec<f64>>;

    /// Move every already-arrived message into `sink` (FIFO). Nonblocking.
    fn drain(&mut self, sink: &mut VecDeque<Message>);

    /// Block up to `slice` for at least one arrival, then drain everything
    /// into `sink`. Returning with an empty `sink` after `slice` elapsed
    /// is normal (the caller's retry loop decides what to do next).
    fn drain_wait(&mut self, slice: Duration, sink: &mut VecDeque<Message>);

    /// Visit every queued-but-undrained inbound message (diagnostics:
    /// feeds [`Comm::unmatched`](crate::Comm::unmatched)).
    fn for_each_queued(&self, f: &mut dyn FnMut(&Message));

    /// Is `peer` currently reachable? The mailbox world answers `true`
    /// unless the world-failure monitor has flagged a dead rank; TCP
    /// answers per connection.
    fn peer_alive(&self, peer: usize) -> bool;

    /// First failed peer this transport knows about, if any, as
    /// `(peer, last_step)`. Used to build typed errors.
    fn failed_peer(&self) -> Option<(usize, u64)>;
}

/// World-shared failure monitor for the in-process (thread) world: when a
/// rank's body panics, the runner flags it here and wakes every mailbox so
/// peers blocked in a receive fail fast with
/// [`CommError::RankFailed`](crate::CommError::RankFailed) instead of
/// burning their full receive timeout — the harness then joins every
/// thread promptly.
#[derive(Debug)]
pub(crate) struct WorldMonitor {
    /// `usize::MAX` = no failure; otherwise the first failed rank.
    failed_rank: AtomicUsize,
    /// The step the failed rank last announced.
    failed_step: AtomicU64,
}

impl WorldMonitor {
    pub(crate) fn new() -> Self {
        WorldMonitor {
            failed_rank: AtomicUsize::new(usize::MAX),
            failed_step: AtomicU64::new(0),
        }
    }

    /// Record the first failure (later failures keep the first rank).
    pub(crate) fn flag_failure(&self, rank: usize, step: u64) {
        if self
            .failed_rank
            .compare_exchange(usize::MAX, rank, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.failed_step.store(step, Ordering::Release);
        }
    }

    pub(crate) fn failure(&self) -> Option<(usize, u64)> {
        let rank = self.failed_rank.load(Ordering::Acquire);
        (rank != usize::MAX).then(|| (rank, self.failed_step.load(Ordering::Acquire)))
    }
}

/// One rank's incoming message queue, shared with every sender.
#[derive(Debug)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    arrived: Condvar,
}

/// Queue storage reserved per mailbox so steady-state traffic never grows
/// it.
const QUEUE_RESERVE: usize = 256;

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::with_capacity(QUEUE_RESERVE)),
            arrived: Condvar::new(),
        }
    }

    /// Wake anyone blocked on this mailbox (used by the runner when a
    /// peer rank dies, so waiters re-check the world monitor).
    pub(crate) fn interrupt(&self) {
        self.arrived.notify_all();
    }
}

/// Lock a mailbox queue, reporting rank context if the mutex was poisoned
/// (i.e. some rank thread panicked mid-send — the poison is a symptom,
/// the original panic is the disease, so name the scene).
fn lock_queue<'a>(
    mb: &'a Mailbox,
    rank: usize,
    what: &str,
) -> std::sync::MutexGuard<'a, VecDeque<Message>> {
    mb.queue.lock().unwrap_or_else(|_| {
        panic!("rank {rank}: mailbox mutex poisoned during {what} (a peer rank panicked)")
    })
}

/// The in-process transport: one [`Mailbox`] per rank, shared by `Arc`.
pub(crate) struct MailboxTransport {
    rank: usize,
    peers: Vec<Arc<Mailbox>>,
    inbox: Arc<Mailbox>,
    monitor: Arc<WorldMonitor>,
}

impl MailboxTransport {
    /// Build the transports for an `n`-rank world, plus the shared
    /// mailbox list and failure monitor the runner uses to interrupt
    /// blocked waiters when a rank dies.
    pub(crate) fn world(n: usize) -> (Vec<MailboxTransport>, Vec<Arc<Mailbox>>, Arc<WorldMonitor>) {
        let boxes: Vec<Arc<Mailbox>> = (0..n).map(|_| Arc::new(Mailbox::new())).collect();
        let monitor = Arc::new(WorldMonitor::new());
        let transports = (0..n)
            .map(|rank| MailboxTransport {
                rank,
                peers: boxes.clone(),
                inbox: Arc::clone(&boxes[rank]),
                monitor: Arc::clone(&monitor),
            })
            .collect();
        (transports, boxes, monitor)
    }
}

impl Transport for MailboxTransport {
    fn send(&mut self, dest: usize, m: Message) -> Option<Vec<f64>> {
        let mailbox = &self.peers[dest];
        let mut queue = lock_queue(mailbox, self.rank, "send");
        queue.push_back(m);
        drop(queue);
        mailbox.arrived.notify_one();
        None
    }

    fn recycle(&mut self, buf: Vec<f64>) -> Option<Vec<f64>> {
        Some(buf)
    }

    fn drain(&mut self, sink: &mut VecDeque<Message>) {
        let mut queue = lock_queue(&self.inbox, self.rank, "drain");
        while let Some(m) = queue.pop_front() {
            sink.push_back(m);
        }
    }

    fn drain_wait(&mut self, slice: Duration, sink: &mut VecDeque<Message>) {
        let mut queue = lock_queue(&self.inbox, self.rank, "drain_wait");
        if queue.is_empty() {
            let (guard, _) =
                self.inbox.arrived.wait_timeout(queue, slice).unwrap_or_else(|_| {
                    panic!(
                        "rank {}: mailbox condvar poisoned during wait (a peer rank panicked)",
                        self.rank
                    )
                });
            queue = guard;
        }
        while let Some(m) = queue.pop_front() {
            sink.push_back(m);
        }
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Message)) {
        let queue = lock_queue(&self.inbox, self.rank, "unmatched scan");
        for m in queue.iter() {
            f(m);
        }
    }

    fn peer_alive(&self, peer: usize) -> bool {
        match self.monitor.failure() {
            Some((rank, _)) => rank != peer,
            None => true,
        }
    }

    fn failed_peer(&self) -> Option<(usize, u64)> {
        self.monitor.failure()
    }
}
