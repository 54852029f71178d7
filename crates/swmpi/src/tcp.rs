//! TCP transport: real sockets behind the [`Transport`] seam.
//!
//! Messages travel as length-prefixed, CRC-framed byte records over one
//! duplex `TcpStream` per unordered rank pair (both directions share the
//! connection). The frame codec is `no_std`-shaped on purpose — pure
//! functions over byte slices — so the proptest suite can hammer it
//! without any sockets: see [`encode_frame`] / [`decode_frame`].
//!
//! ## Wire format
//!
//! ```text
//! frame := magic "SWFR" (4) | source u32 | tag u64 | len u32 | payload len×f64 | crc u32
//! ```
//!
//! All integers little-endian; `len` counts `f64`s; the CRC-32 covers
//! everything between the magic and the CRC field. A receiver that sees a
//! bad magic, an oversized length, or a CRC mismatch treats the whole
//! connection as corrupt and drops it — framing on a byte stream cannot
//! resynchronize reliably after damage, and the reliable-mode sequence
//! watermarks upstream make reconnect-and-resend safe.
//!
//! ## Connection lifecycle
//!
//! Every rank owns a listener (an acceptor thread) and one [`PeerSlot`]
//! per peer holding the write half; a reader thread per live connection
//! feeds a shared inbox. Connections open with a tiny handshake — the
//! dialer sends `"SWHI" rank incarnation`, the acceptor installs the
//! connection (replacing any older-incarnation one) and answers `"SWAK"`
//! — so ACK receipt *happens after* the acceptor swapped its slot, which
//! is what makes elastic re-admission deterministic: a respawned rank
//! dials every peer, and by the time it has collected all ACKs, every
//! peer's writer for it points at the new socket.
//!
//! Initial mesh: rank `i` dials every `j < i` and accepts from `j > i`.
//! A respawned rank (incarnation > 0) dials *everyone*; the handshake's
//! incarnation ordering lets acceptors replace the dead connection.
//! Dialing retries with the same exponential-backoff-plus-jitter schedule
//! the receive path uses ([`crate::comm::backoff_slice`]).
//!
//! ## Buffers
//!
//! Nothing on the steady-state path allocates. A send encodes into one
//! reused scratch frame and hands the payload buffer straight back to the
//! communicator ([`Transport::send`]); a reader decodes in place out of its
//! own receive buffer into a payload buffer from the rank's free-list,
//! which the communicator refills as messages are consumed
//! ([`Transport::recycle`]). Send buffers and receive buffers therefore
//! never trade places, and neither population depends on arrival timing.
//!
//! Peer death is detected at the reader (EOF / reset ⇒ slot marked dead,
//! blocked receivers woken); sends to a dead slot drop the payload —
//! failures always surface on the receive side as
//! [`CommError::ConnectionLost`](crate::CommError::ConnectionLost), which
//! the resilient drivers translate into a rollback + re-admission.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::comm::{backoff_slice, CommConfig, CommError, Message};
use crate::transport::Transport;
use crate::wire::{crc32, get_f64s_le, put_f64s_le};

/// Frame magic: "SWFR".
pub const FRAME_MAGIC: [u8; 4] = *b"SWFR";
/// Handshake hello magic: "SWHI".
const HELLO_MAGIC: [u8; 4] = *b"SWHI";
/// Handshake ack: "SWAK".
const ACK: [u8; 4] = *b"SWAK";

/// Fixed part of a frame before the payload: magic + source + tag + len.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Hard cap on payload length (in `f64`s): 2^24 doubles = 128 MiB. Far
/// above any real exchange message; a length beyond this is a corrupt or
/// hostile frame, not a big one.
pub const MAX_FRAME_F64S: usize = 1 << 24;

/// Why a byte slice failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first bytes are not (a prefix of) the frame magic.
    BadMagic,
    /// A valid prefix, but the frame is not complete yet — read more.
    Incomplete,
    /// The length field exceeds [`MAX_FRAME_F64S`].
    TooLarge,
    /// The checksum does not match the header + payload bytes.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Incomplete => write!(f, "incomplete frame"),
            FrameError::TooLarge => write!(f, "frame length over cap"),
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append the wire encoding of `m` to `out`.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_F64S`] — the dycore's
/// messages are orders of magnitude smaller; hitting the cap is a bug.
pub fn encode_frame(m: &Message, out: &mut Vec<u8>) {
    assert!(m.data.len() <= MAX_FRAME_F64S, "frame payload too large: {}", m.data.len());
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(m.source as u32).to_le_bytes());
    out.extend_from_slice(&m.tag.to_le_bytes());
    out.extend_from_slice(&(m.data.len() as u32).to_le_bytes());
    put_f64s_le(out, &m.data);
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Try to decode one frame from the front of `buf`. On success returns the
/// message and the number of bytes consumed; [`FrameError::Incomplete`]
/// means "valid so far, read more bytes and retry".
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), FrameError> {
    decode_frame_with(buf, Vec::with_capacity)
}

/// [`decode_frame`] with the payload storage supplied by the caller:
/// `take(len)` is asked for a buffer only once the frame is complete,
/// within the cap and checksummed, so a hostile length never allocates.
fn decode_frame_with(
    buf: &[u8],
    take: impl FnOnce(usize) -> Vec<f64>,
) -> Result<(Message, usize), FrameError> {
    let probe = buf.len().min(4);
    if buf[..probe] != FRAME_MAGIC[..probe] {
        return Err(FrameError::BadMagic);
    }
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Incomplete);
    }
    let source = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let tag = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_F64S {
        return Err(FrameError::TooLarge);
    }
    let total = HEADER_LEN + len * 8 + 4;
    if buf.len() < total {
        return Err(FrameError::Incomplete);
    }
    let stored = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4 bytes"));
    if crc32(&buf[4..total - 4]) != stored {
        return Err(FrameError::BadCrc);
    }
    let mut data = take(len);
    get_f64s_le(&buf[HEADER_LEN..total - 4], &mut data);
    Ok((Message { source, tag, data }, total))
}

/// Write half + liveness for one peer.
struct PeerSlot {
    /// Write half of the current connection (`None` before connect /
    /// after loss).
    writer: Mutex<Option<TcpStream>>,
    /// Is the current connection believed up?
    alive: AtomicBool,
    /// Local generation counter for installed connections: a reader only
    /// gets to declare the peer dead if its own generation is still the
    /// installed one (an already-replaced connection's EOF is stale news).
    conn_gen: AtomicU32,
    /// Incarnation the remote presented at handshake; an inbound dial with
    /// a lower incarnation is stale and rejected.
    remote_inc: AtomicU32,
}

impl PeerSlot {
    fn new() -> Self {
        PeerSlot {
            writer: Mutex::new(None),
            alive: AtomicBool::new(false),
            conn_gen: AtomicU32::new(0),
            remote_inc: AtomicU32::new(0),
        }
    }
}

/// Payload buffers parked in [`Shared::free`] at most; a spent payload
/// that finds the list full is dropped.
const FREE_RESERVE: usize = 256;

/// State shared between the transport handle, the acceptor thread, and
/// every reader thread.
struct Shared {
    rank: usize,
    inbox: Mutex<VecDeque<Message>>,
    arrived: Condvar,
    /// Receive payload buffers: a reader takes one per frame, the rank
    /// hands it back through [`Transport::recycle`] once the message is
    /// consumed, so steady-state traffic allocates nothing.
    free: Mutex<Vec<Vec<f64>>>,
    slots: Vec<PeerSlot>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock_free(&self) -> std::sync::MutexGuard<'_, Vec<Vec<f64>>> {
        self.free
            .lock()
            .unwrap_or_else(|_| panic!("rank {}: tcp payload free-list poisoned", self.rank))
    }

    /// Park a payload buffer for the readers (dropped when the list is full).
    fn give_payload(&self, buf: Vec<f64>) {
        let mut free = self.lock_free();
        if free.len() < FREE_RESERVE {
            free.push(buf);
        }
    }

    /// A buffer for a `len`-value payload: one of exactly that capacity
    /// from the free-list, else a fresh one. Never a larger one — a reader
    /// that borrowed from another message size would leave *that* size
    /// short at a moment only arrival timing decides.
    fn take_payload(&self, len: usize) -> Vec<f64> {
        let mut free = self.lock_free();
        match free.iter().position(|b| b.capacity() == len) {
            Some(pos) => free.swap_remove(pos),
            None => {
                drop(free);
                Vec::with_capacity(len)
            }
        }
    }

    fn deliver(&self, m: Message) {
        let mut q = self.inbox.lock().unwrap_or_else(|_| {
            panic!("rank {}: tcp inbox mutex poisoned", self.rank)
        });
        q.push_back(m);
        drop(q);
        self.arrived.notify_one();
    }

    /// Install `stream` as the live connection to `peer` and spawn its
    /// reader. Caller already validated the handshake. Returns false if a
    /// newer incarnation is already installed (stale dial).
    ///
    /// On the accepting side (`ack`) the handshake ACK goes out here, as
    /// the first bytes on the connection and under the writer lock: the
    /// slot already reads alive, and a frame from this rank that raced the
    /// ACK onto the wire would reach the dialer in the ACK's place.
    fn install(
        self: &Arc<Self>,
        peer: usize,
        stream: TcpStream,
        remote_inc: u32,
        ack: bool,
    ) -> bool {
        let slot = &self.slots[peer];
        let mut writer = slot.writer.lock().unwrap_or_else(|_| {
            panic!("rank {}: peer {peer} writer mutex poisoned", self.rank)
        });
        if remote_inc < slot.remote_inc.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
        if let Some(old) = writer.take() {
            // A replaced connection's socket is shut down fully so its
            // reader exits promptly instead of lingering on a dead clone.
            let _ = old.shutdown(Shutdown::Both);
        }
        let _ = stream.set_nodelay(true);
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                slot.alive.store(false, Ordering::Release);
                return false;
            }
        };
        slot.remote_inc.store(remote_inc, Ordering::Release);
        let gen = slot.conn_gen.fetch_add(1, Ordering::AcqRel) + 1;
        let stream = writer.insert(stream);
        slot.alive.store(true, Ordering::Release);
        if ack && stream.write_all(&ACK).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            slot.alive.store(false, Ordering::Release);
        }
        drop(writer);
        let shared = Arc::clone(self);
        let handle = std::thread::spawn(move || reader_loop(shared, read_half, peer, gen));
        self.readers
            .lock()
            .unwrap_or_else(|_| panic!("rank {}: reader registry poisoned", self.rank))
            .push(handle);
        true
    }

    /// Mark the generation-`gen` connection to `peer` dead (no-op if it
    /// was already replaced) and wake blocked receivers so they observe
    /// the loss instead of sleeping out their timeout.
    fn mark_dead(&self, peer: usize, gen: u32) {
        let slot = &self.slots[peer];
        if slot.conn_gen.load(Ordering::Acquire) == gen {
            slot.alive.store(false, Ordering::Release);
        }
        self.arrived.notify_all();
    }
}

/// Read frames off one connection until EOF/corruption, delivering into
/// the shared inbox. Socket bytes land in `buf[..end]` and are decoded in
/// place; whatever partial frame is left moves to the front.
///
/// The exchange protocols let a peer run one exchange ahead of this rank,
/// so at most two of its messages of one size are unconsumed here at a
/// time. The first frame of each size therefore stocks the free-list with
/// two buffers of that size, and none is allocated afterwards — the count
/// never depends on when, relative to the rank's own progress, a frame
/// happens to arrive.
fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream, peer: usize, gen: u32) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut end = 0usize;
    let mut sizes_seen: Vec<usize> = Vec::new();
    let mut take = |len: usize| {
        if !sizes_seen.contains(&len) {
            sizes_seen.push(len);
            for _ in 0..2 {
                shared.give_payload(Vec::with_capacity(len));
            }
        }
        shared.take_payload(len)
    };
    loop {
        if end == buf.len() {
            // A partial frame fills the buffer: grow until the connection's
            // largest frame fits, then never again.
            buf.resize(buf.len() * 2, 0);
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => end += k,
        }
        let mut start = 0usize;
        loop {
            match decode_frame_with(&buf[start..end], &mut take) {
                Ok((m, used)) => {
                    start += used;
                    shared.deliver(m);
                }
                Err(FrameError::Incomplete) => break,
                Err(_) => {
                    // Corrupt stream: no reliable resync point on a byte
                    // stream — drop the connection, the watermarks
                    // upstream make reconnect safe.
                    let _ = stream.shutdown(Shutdown::Both);
                    shared.mark_dead(peer, gen);
                    return;
                }
            }
        }
        if start > 0 {
            buf.copy_within(start..end, 0);
            end -= start;
        }
    }
    shared.mark_dead(peer, gen);
}

/// Socket transport for one rank: a listener + one slot per peer.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    incarnation: u32,
    listen_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Reused frame-encode scratch so steady-state sends cost one memcpy,
    /// not one allocation.
    scratch: Vec<u8>,
    accept_handle: Option<JoinHandle<()>>,
    cfg: CommConfig,
}

impl TcpTransport {
    /// Bind a loopback listener for `rank` of `size` and start accepting.
    /// `incarnation` 0 is the first launch; a supervisor respawn passes
    /// the next incarnation so peers can tell fresh connections from
    /// stale ones.
    pub fn bind(rank: usize, size: usize, incarnation: u32, cfg: CommConfig) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listen_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            rank,
            inbox: Mutex::new(VecDeque::with_capacity(256)),
            arrived: Condvar::new(),
            free: Mutex::new(Vec::with_capacity(FREE_RESERVE)),
            slots: (0..size).map(|_| PeerSlot::new()).collect(),
            readers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(TcpTransport {
            rank,
            size,
            incarnation,
            listen_addr,
            shared,
            scratch: Vec::with_capacity(64 * 1024),
            accept_handle: Some(accept_handle),
            cfg,
        })
    }

    /// Address peers should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// This transport's incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Dial one peer, retrying with exponential backoff + jitter until
    /// the handshake completes or `deadline` passes.
    pub fn connect_peer(
        &self,
        peer: usize,
        addr: SocketAddr,
        deadline: Instant,
    ) -> Result<(), CommError> {
        assert!(peer < self.size && peer != self.rank, "bad peer {peer}");
        let mut attempt = 0u32;
        loop {
            match self.try_dial(peer, addr) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CommError::Io {
                            rank: self.rank,
                            detail: format!(
                                "dialing rank {peer} at {addr} failed after {attempt} attempts: {e}"
                            ),
                        });
                    }
                    let pause = backoff_slice(&self.cfg, self.rank, attempt).min(deadline - now);
                    attempt += 1;
                    std::thread::sleep(pause);
                }
            }
        }
    }

    fn try_dial(&self, peer: usize, addr: SocketAddr) -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut hello = [0u8; 12];
        hello[..4].copy_from_slice(&HELLO_MAGIC);
        hello[4..8].copy_from_slice(&(self.rank as u32).to_le_bytes());
        hello[8..12].copy_from_slice(&self.incarnation.to_le_bytes());
        stream.write_all(&hello)?;
        let mut ack = [0u8; 4];
        stream.read_exact(&mut ack)?;
        if ack != ACK {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "bad handshake ack"));
        }
        stream.set_read_timeout(None)?;
        if !self.shared.install(peer, stream, self.remote_inc_guess(peer), false) {
            return Err(std::io::Error::other("stale incarnation"));
        }
        Ok(())
    }

    /// Incarnation recorded for an *outbound* connection's slot: keep
    /// whatever the peer last presented (we don't learn theirs from
    /// dialing; replacement ordering only matters for inbound dials).
    fn remote_inc_guess(&self, peer: usize) -> u32 {
        self.shared.slots[peer].remote_inc.load(Ordering::Acquire)
    }

    /// Establish the full mesh given every rank's listen address. First
    /// incarnations dial only lower ranks (the canonical direction);
    /// respawned incarnations dial everyone, replacing the dead
    /// connections peer-side. Blocks until every peer is live.
    pub fn connect_mesh(&self, addrs: &[SocketAddr], timeout: Duration) -> Result<(), CommError> {
        assert_eq!(addrs.len(), self.size, "one address per rank");
        let deadline = Instant::now() + timeout;
        let targets: Vec<usize> = if self.incarnation > 0 {
            (0..self.size).filter(|&p| p != self.rank).collect()
        } else {
            (0..self.rank).collect()
        };
        for peer in targets {
            self.connect_peer(peer, addrs[peer], deadline)?;
        }
        self.wait_connected(deadline)
    }

    /// Block until every peer slot is alive (higher ranks dial us) or the
    /// deadline passes.
    pub fn wait_connected(&self, deadline: Instant) -> Result<(), CommError> {
        loop {
            let missing: Vec<usize> = (0..self.size)
                .filter(|&p| p != self.rank && !self.shared.slots[p].alive.load(Ordering::Acquire))
                .collect();
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(CommError::Io {
                    rank: self.rank,
                    detail: format!("mesh incomplete: peers {missing:?} never connected"),
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        handle_inbound(&shared, stream);
    }
}

fn handle_inbound(shared: &Arc<Shared>, mut stream: TcpStream) {
    // Bounded handshake read so a half-open connection can't wedge the
    // acceptor forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut hello = [0u8; 12];
    if stream.read_exact(&mut hello).is_err() || hello[..4] != HELLO_MAGIC {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let peer = u32::from_le_bytes(hello[4..8].try_into().expect("4 bytes")) as usize;
    let inc = u32::from_le_bytes(hello[8..12].try_into().expect("4 bytes"));
    if peer >= shared.slots.len() || peer == shared.rank {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let _ = stream.set_read_timeout(None);
    // The ACK is written by `install`, after the slot swap: the dialer
    // treats it as proof that our writer now points at this connection
    // (elastic re-admission keys on this ordering).
    shared.install(peer, stream, inc, true);
}

impl Transport for TcpTransport {
    fn send(&mut self, dest: usize, m: Message) -> Option<Vec<f64>> {
        let slot = &self.shared.slots[dest];
        let mut writer = slot.writer.lock().unwrap_or_else(|_| {
            panic!("rank {}: peer {dest} writer mutex poisoned", self.rank)
        });
        // Peer down: the message is dropped, the buffer still comes back.
        if let Some(w) = writer.as_mut() {
            self.scratch.clear();
            encode_frame(&m, &mut self.scratch);
            if w.write_all(&self.scratch).is_err() {
                let _ = w.shutdown(Shutdown::Both);
                *writer = None;
                slot.alive.store(false, Ordering::Release);
            }
        }
        Some(m.data)
    }

    fn recycle(&mut self, buf: Vec<f64>) -> Option<Vec<f64>> {
        self.shared.give_payload(buf);
        None
    }

    fn drain(&mut self, sink: &mut VecDeque<Message>) {
        let mut q = self.shared.inbox.lock().unwrap_or_else(|_| {
            panic!("rank {}: tcp inbox mutex poisoned", self.rank)
        });
        while let Some(m) = q.pop_front() {
            sink.push_back(m);
        }
    }

    fn drain_wait(&mut self, slice: Duration, sink: &mut VecDeque<Message>) {
        let mut q = self.shared.inbox.lock().unwrap_or_else(|_| {
            panic!("rank {}: tcp inbox mutex poisoned", self.rank)
        });
        if q.is_empty() {
            let (guard, _) = self
                .shared
                .arrived
                .wait_timeout(q, slice)
                .unwrap_or_else(|_| panic!("rank {}: tcp inbox condvar poisoned", self.rank));
            q = guard;
        }
        while let Some(m) = q.pop_front() {
            sink.push_back(m);
        }
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Message)) {
        let q = self.shared.inbox.lock().unwrap_or_else(|_| {
            panic!("rank {}: tcp inbox mutex poisoned", self.rank)
        });
        for m in q.iter() {
            f(m);
        }
    }

    fn peer_alive(&self, peer: usize) -> bool {
        peer == self.rank || self.shared.slots[peer].alive.load(Ordering::Acquire)
    }

    fn failed_peer(&self) -> Option<(usize, u64)> {
        // TCP failures are per-connection and potentially recoverable
        // (respawn + reconnect); never world-fatal from down here.
        None
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for slot in &self.shared.slots {
            if let Ok(mut w) = slot.writer.lock() {
                if let Some(stream) = w.take() {
                    // Full shutdown kills the reader's clone too (readers
                    // block in read(); this turns that into EOF).
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        // Unblock the acceptor with a dummy connection, then join it.
        let _ = TcpStream::connect_timeout(&self.listen_addr, Duration::from_millis(500));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let readers = match self.shared.readers.lock() {
            Ok(mut r) => std::mem::take(&mut *r),
            Err(_) => Vec::new(),
        };
        for h in readers {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(source: usize, tag: u64, data: Vec<f64>) -> Message {
        Message { source, tag, data }
    }

    #[test]
    fn frame_roundtrip() {
        let m = msg(3, 0x0123_4567_89AB_CDEF, vec![1.5, -2.25, f64::MIN_POSITIVE, 0.0]);
        let mut wire = Vec::new();
        encode_frame(&m, &mut wire);
        let (back, used) = decode_frame(&wire).expect("decodes");
        assert_eq!(used, wire.len());
        assert_eq!(back.source, m.source);
        assert_eq!(back.tag, m.tag);
        let bits: Vec<u64> = back.data.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = m.data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn truncation_reads_as_incomplete_and_corruption_as_bad_crc() {
        let m = msg(1, 42, vec![3.125; 7]);
        let mut wire = Vec::new();
        encode_frame(&m, &mut wire);
        for cut in 0..wire.len() {
            assert_eq!(
                decode_frame(&wire[..cut]).unwrap_err(),
                FrameError::Incomplete,
                "cut at {cut}"
            );
        }
        // Flip one payload byte: CRC must catch it.
        let mut bad = wire.clone();
        bad[HEADER_LEN + 3] ^= 0x40;
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::BadCrc);
        // Wrong magic is rejected immediately, even on a short prefix.
        let mut wrong = wire;
        wrong[0] = b'X';
        assert_eq!(decode_frame(&wrong).unwrap_err(), FrameError::BadMagic);
        assert_eq!(decode_frame(&wrong[..2]).unwrap_err(), FrameError::BadMagic);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let m = msg(0, 1, vec![1.0]);
        let mut wire = Vec::new();
        encode_frame(&m, &mut wire);
        wire[16..20].copy_from_slice(&(MAX_FRAME_F64S as u32 + 1).to_le_bytes());
        assert_eq!(decode_frame(&wire).unwrap_err(), FrameError::TooLarge);
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = msg(0, 1, vec![1.0, 2.0]);
        let b = msg(1, 2, vec![]);
        let mut wire = Vec::new();
        encode_frame(&a, &mut wire);
        encode_frame(&b, &mut wire);
        let (first, used) = decode_frame(&wire).expect("first");
        assert_eq!(first.tag, 1);
        let (second, used2) = decode_frame(&wire[used..]).expect("second");
        assert_eq!(second.tag, 2);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn two_transports_exchange_over_loopback() {
        let cfg = CommConfig::default();
        let t0 = TcpTransport::bind(0, 2, 0, cfg).expect("bind 0");
        let t1 = TcpTransport::bind(1, 2, 0, cfg).expect("bind 1");
        let addrs = [t0.local_addr(), t1.local_addr()];
        let deadline = Duration::from_secs(10);
        let (mut t0, mut t1) = std::thread::scope(|s| {
            let h0 = s.spawn(|| {
                t0.connect_mesh(&addrs, deadline).expect("mesh 0");
                t0
            });
            let h1 = s.spawn(|| {
                t1.connect_mesh(&addrs, deadline).expect("mesh 1");
                t1
            });
            (h0.join().expect("join 0"), h1.join().expect("join 1"))
        });
        t0.send(1, msg(0, 7, vec![1.0, 2.0, 3.0]));
        let mut sink = VecDeque::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.is_empty() {
            assert!(Instant::now() < deadline, "message never arrived");
            t1.drain_wait(Duration::from_millis(10), &mut sink);
        }
        let got = sink.pop_front().expect("one message");
        assert_eq!(got.source, 0);
        assert_eq!(got.tag, 7);
        assert_eq!(got.data, vec![1.0, 2.0, 3.0]);
        assert!(t1.peer_alive(0));
        // Payload buffers stay on their own side of the wire: the sender
        // gets its buffer back, and the receiver's readers decode into the
        // buffers the rank recycles — same-size traffic settles on the two
        // stocked at first sight.
        let mut seen = vec![got.data.as_ptr()];
        assert!(t1.recycle(got.data).is_none());
        for round in 0..4u64 {
            let payload = vec![round as f64; 3];
            let ptr = payload.as_ptr();
            let spent = t0.send(1, msg(0, 8 + round, payload)).expect("tcp returns the payload");
            assert_eq!(spent.as_ptr(), ptr);
            let deadline = Instant::now() + Duration::from_secs(5);
            while sink.is_empty() {
                assert!(Instant::now() < deadline, "message never arrived");
                t1.drain_wait(Duration::from_millis(10), &mut sink);
            }
            let m = sink.pop_front().expect("one message");
            assert_eq!(m.data, vec![round as f64; 3]);
            if round >= 1 {
                assert!(seen.contains(&m.data.as_ptr()), "round {round} allocated a payload");
            }
            seen.push(m.data.as_ptr());
            assert!(t1.recycle(m.data).is_none());
        }
        // Tear down rank 0; rank 1 must observe the loss.
        drop(t0);
        let lost = Instant::now() + Duration::from_secs(5);
        while t1.peer_alive(0) {
            assert!(Instant::now() < lost, "peer death never detected");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
