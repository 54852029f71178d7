//! Multi-process rank world: real child processes, a supervising hub, and
//! elastic (respawnable) ranks.
//!
//! [`process_world`] turns one `#[test]` function into an `n`-process job:
//! the supervisor re-executes the *current test binary* once per rank
//! (`--exact <test>` plus `SWMPI_PROC_*` env vars), and when the re-run
//! reaches the same `process_world` call inside the child, it takes the
//! child branch instead of supervising again. Closures cannot cross a
//! process boundary; re-execution is how the rank body gets to the other
//! side.
//!
//! ## The hub
//!
//! Each child keeps one control connection to the supervisor's hub, used
//! for four things:
//!
//! * **bootstrap** — `HELLO{rank, incarnation, listen_port}` up,
//!   `ADDRS{ports}` down once the world is assembled, after which the
//!   children dial each other's [`TcpTransport`](crate::tcp::TcpTransport)
//!   listeners directly (point-to-point traffic never touches the hub);
//! * **collectives** — a star-topology reduction
//!   ([`ReduceLink`](crate::collective::ReduceLink)): the round completes
//!   when every *admitted, live* rank has contributed, and the reply
//!   carries the count of absent ranks so resilient drivers can treat an
//!   incomplete verdict as a failed step instead of deadlocking on a dead
//!   peer;
//! * **re-admission** — an `ADMIT` round that completes only when all
//!   `n` ranks (including a freshly respawned one) have entered; its
//!   reply carries the post-round `world_epoch`, which every rank feeds
//!   to `DistDycore::set_epoch` so the whole world lands in the same
//!   rollback epoch. The respawned rank only ADMITs *after* its mesh
//!   reconnect handshakes completed, so when the round releases, every
//!   peer's writer already points at the new sockets;
//! * **results** — each rank's final bytes travel up as `RESULT`; the
//!   supervisor returns them in rank order.
//!
//! ## Elasticity
//!
//! The supervisor owns the real PIDs. When a child dies without having
//! delivered a result — e.g. [`FaultPlan::kill_process`]
//! (crate::FaultPlan::kill_process) SIGKILLed it mid-step — the
//! supervisor respawns that rank with `incarnation + 1` pointing at the
//! same checkpoint directory. The respawned process re-runs the body from
//! scratch; the elastic resilient driver (swcam-core's
//! `run_resilient_elastic`) notices `is_respawned()`, re-admits itself,
//! and restores from the last `SWCKPT02` checkpoint file instead of the
//! initial state. Survivors observe the death as a failed verdict (absent
//! rank or a `ConnectionLost` step error), roll back to *their* last
//! checkpoint — written at the same committed steps — and meet the
//! respawned rank in the ADMIT round. From there the whole world replays
//! deterministically, which is what makes a killed run bitwise-equal to
//! an undisturbed one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::collective::{Collectives, ReduceLink, ReduceOp};
use crate::comm::{Comm, CommError};
use crate::runner::{RankCtx, WorldOptions};
use crate::tcp::TcpTransport;

/// Opcodes on the child⇄hub control connection.
mod op {
    pub const HELLO: u8 = 1;
    pub const ADDRS: u8 = 2;
    pub const REDUCE: u8 = 3;
    pub const REDUCE_OK: u8 = 4;
    pub const ADMIT: u8 = 5;
    pub const ADMIT_OK: u8 = 6;
    pub const RESULT: u8 = 7;
}

/// Env vars carrying the child's identity across the exec boundary.
const ENV_TEST: &str = "SWMPI_PROC_TEST";
const ENV_RANK: &str = "SWMPI_PROC_RANK";
const ENV_SIZE: &str = "SWMPI_PROC_SIZE";
const ENV_HUB: &str = "SWMPI_PROC_HUB";
const ENV_INC: &str = "SWMPI_PROC_INC";
const ENV_CKPT: &str = "SWMPI_PROC_CKPT";

/// How many process respawns one world tolerates before the supervisor
/// gives up.
const MAX_RESPAWNS: u32 = 3;

/// Hard wall-clock ceiling on one supervised world (CI hang protection).
const WORLD_DEADLINE: Duration = Duration::from_secs(240);

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

fn read_arr<const N: usize>(s: &mut TcpStream) -> std::io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    s.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u8(s: &mut TcpStream) -> std::io::Result<u8> {
    Ok(read_arr::<1>(s)?[0])
}

fn read_u16(s: &mut TcpStream) -> std::io::Result<u16> {
    Ok(u16::from_le_bytes(read_arr::<2>(s)?))
}

fn read_u32(s: &mut TcpStream) -> std::io::Result<u32> {
    Ok(u32::from_le_bytes(read_arr::<4>(s)?))
}

fn read_u64(s: &mut TcpStream) -> std::io::Result<u64> {
    Ok(u64::from_le_bytes(read_arr::<8>(s)?))
}

fn read_f64s(s: &mut TcpStream, n: usize) -> std::io::Result<Vec<f64>> {
    let mut bytes = vec![0u8; n * 8];
    s.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn push_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn io_err(rank: usize, what: &str, e: impl std::fmt::Display) -> CommError {
    CommError::Io { rank, detail: format!("{what}: {e}") }
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// One child's control connection to the supervisor hub. Requests are
/// strictly sequential (the rank body is single-threaded), so a plain
/// mutexed stream with write-then-read turns is enough.
pub(crate) struct HubClient {
    rank: usize,
    stream: Mutex<TcpStream>,
}

impl HubClient {
    fn connect(
        addr: SocketAddr,
        rank: usize,
        incarnation: u32,
        listen_port: u16,
    ) -> std::io::Result<HubClient> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        stream.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(11);
        hello.push(op::HELLO);
        hello.extend_from_slice(&(rank as u32).to_le_bytes());
        hello.extend_from_slice(&incarnation.to_le_bytes());
        hello.extend_from_slice(&listen_port.to_le_bytes());
        let mut s = stream;
        s.write_all(&hello)?;
        Ok(HubClient { rank, stream: Mutex::new(s) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TcpStream> {
        self.stream
            .lock()
            .unwrap_or_else(|_| panic!("rank {}: hub stream mutex poisoned", self.rank))
    }

    /// Block for the `ADDRS` reply (the supervisor holds it until every
    /// first-incarnation rank has said hello).
    fn wait_addrs(&self, size: usize) -> Result<Vec<SocketAddr>, CommError> {
        let mut s = self.lock();
        let code = read_u8(&mut s).map_err(|e| io_err(self.rank, "hub addrs", e))?;
        if code != op::ADDRS {
            return Err(io_err(self.rank, "hub addrs", format!("unexpected opcode {code}")));
        }
        let n = read_u32(&mut s).map_err(|e| io_err(self.rank, "hub addrs", e))? as usize;
        if n != size {
            return Err(io_err(self.rank, "hub addrs", format!("world size {n} != {size}")));
        }
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let port = read_u16(&mut s).map_err(|e| io_err(self.rank, "hub addrs", e))?;
            addrs.push(SocketAddr::from(([127, 0, 0, 1], port)));
        }
        Ok(addrs)
    }

    /// Enter the world-wide re-admission round; blocks until every rank
    /// has entered and returns the agreed post-round epoch.
    fn admit(&self) -> Result<u64, CommError> {
        let mut s = self.lock();
        s.write_all(&[op::ADMIT]).map_err(|e| io_err(self.rank, "hub admit", e))?;
        let code = read_u8(&mut s).map_err(|e| io_err(self.rank, "hub admit", e))?;
        if code != op::ADMIT_OK {
            return Err(io_err(self.rank, "hub admit", format!("unexpected opcode {code}")));
        }
        read_u64(&mut s).map_err(|e| io_err(self.rank, "hub admit", e))
    }

    fn send_result(&self, bytes: &[u8]) -> Result<(), CommError> {
        let mut s = self.lock();
        let mut msg = Vec::with_capacity(5 + bytes.len());
        msg.push(op::RESULT);
        msg.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        msg.extend_from_slice(bytes);
        s.write_all(&msg).map_err(|e| io_err(self.rank, "hub result", e))
    }
}

impl ReduceLink for HubClient {
    fn reduce(&self, rop: ReduceOp, contrib: &[f64], out: &mut [f64]) -> Result<u32, CommError> {
        let mut s = self.lock();
        let mut msg = Vec::with_capacity(6 + contrib.len() * 8);
        msg.push(op::REDUCE);
        msg.push(rop.code());
        msg.extend_from_slice(&(contrib.len() as u32).to_le_bytes());
        push_f64s(&mut msg, contrib);
        s.write_all(&msg).map_err(|e| io_err(self.rank, "hub reduce", e))?;
        let code = read_u8(&mut s).map_err(|e| io_err(self.rank, "hub reduce", e))?;
        if code != op::REDUCE_OK {
            return Err(io_err(self.rank, "hub reduce", format!("unexpected opcode {code}")));
        }
        let absent = read_u32(&mut s).map_err(|e| io_err(self.rank, "hub reduce", e))?;
        let n = read_u32(&mut s).map_err(|e| io_err(self.rank, "hub reduce", e))? as usize;
        if n != out.len() {
            return Err(io_err(self.rank, "hub reduce", format!("reply len {n} != {}", out.len())));
        }
        let data = read_f64s(&mut s, n).map_err(|e| io_err(self.rank, "hub reduce", e))?;
        out.copy_from_slice(&data);
        Ok(absent)
    }
}

/// A child rank's handle on the elastic world: who am I, where do my
/// checkpoints live, and how do I get back in after a death.
pub struct ElasticLink {
    rank: usize,
    size: usize,
    incarnation: u32,
    ckpt_dir: PathBuf,
    hub: Arc<HubClient>,
}

impl ElasticLink {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// 0 on first launch; incremented by the supervisor on every respawn.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// True if this process replaces a dead incarnation and must restore
    /// from its checkpoint file instead of the initial state.
    pub fn is_respawned(&self) -> bool {
        self.incarnation > 0
    }

    /// Directory holding every rank's checkpoint files, shared across
    /// incarnations of this world.
    pub fn checkpoint_dir(&self) -> &Path {
        &self.ckpt_dir
    }

    /// This rank's checkpoint file path.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.ckpt_dir.join(format!("rank{}.swckpt", self.rank))
    }

    /// Enter the world-wide re-admission round (all `n` ranks must enter
    /// before anyone is released — this is both the membership change and
    /// the rollback barrier). Returns the agreed world epoch to feed to
    /// the driver's `set_epoch`.
    pub fn readmit(&self) -> Result<u64, CommError> {
        self.hub.admit()
    }
}

/// SIGKILL the current process — a *real* kill, exactly what
/// [`FaultPlan::kill_process`](crate::FaultPlan::kill_process) promises:
/// no destructors, no flushes, sockets die with the PID.
pub(crate) fn kill_self() -> ! {
    let pid = std::process::id();
    let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    // SIGKILL delivery is asynchronous; give it a moment, then make
    // certain we never return even where no `kill` binary exists.
    std::thread::sleep(Duration::from_secs(2));
    std::process::abort();
}

/// Child branch of [`process_world`]: assemble transports, run the body,
/// ship the result, exit.
fn run_child<F>(n: usize, opts: WorldOptions, body: F) -> !
where
    F: FnOnce(&mut RankCtx) -> Vec<u8>,
{
    let get = |k: &str| {
        std::env::var(k).unwrap_or_else(|_| panic!("child process missing env {k}"))
    };
    let rank: usize = get(ENV_RANK).parse().expect("rank env");
    let size: usize = get(ENV_SIZE).parse().expect("size env");
    assert_eq!(size, n, "world size disagrees with the supervising call");
    let incarnation: u32 = get(ENV_INC).parse().expect("incarnation env");
    let hub_addr: SocketAddr = get(ENV_HUB).parse().expect("hub addr env");
    let ckpt_dir = PathBuf::from(get(ENV_CKPT));

    let transport = TcpTransport::bind(rank, n, incarnation, opts.comm)
        .expect("child: bind rank listener");
    let hub = Arc::new(
        HubClient::connect(hub_addr, rank, incarnation, transport.local_addr().port())
            .expect("child: connect hub"),
    );
    let addrs = hub.wait_addrs(n).expect("child: world addresses");
    transport
        .connect_mesh(&addrs, Duration::from_secs(60))
        .expect("child: socket mesh");

    let coll = Collectives::over_link(n, Arc::clone(&hub) as Arc<dyn ReduceLink>);
    let comm = Comm::from_transport(rank, n, Box::new(transport), opts.comm);
    let link = Arc::new(ElasticLink {
        rank,
        size: n,
        incarnation,
        ckpt_dir,
        hub: Arc::clone(&hub),
    });
    let faults = opts.faults.map(Arc::new);
    let mut ctx = RankCtx::assemble(comm, coll, faults, Some(link));
    let result = body(&mut ctx);
    hub.send_result(&result).expect("child: deliver result");
    drop(ctx); // closes the mesh cleanly (peers see EOF after final data)
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

struct Member {
    alive: bool,
    /// Participates in reduce rounds. True from first hello; a respawned
    /// incarnation stays false until its ADMIT round completes.
    admitted: bool,
    incarnation: u32,
    port: u16,
    said_hello: bool,
    contributed: bool,
    admit_waiting: bool,
    result: Option<Vec<u8>>,
}

struct ReduceRound {
    generation: u64,
    rop: Option<ReduceOp>,
    accum: Vec<f64>,
    last_result: Vec<f64>,
    last_absent: u32,
}

struct HubState {
    members: Vec<Member>,
    reduce: ReduceRound,
    admit_generation: u64,
    world_epoch: u64,
}

struct Hub {
    size: usize,
    state: Mutex<HubState>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Hub {
    fn new(size: usize) -> Hub {
        Hub {
            size,
            state: Mutex::new(HubState {
                members: (0..size)
                    .map(|_| Member {
                        alive: false,
                        admitted: false,
                        incarnation: 0,
                        port: 0,
                        said_hello: false,
                        contributed: false,
                        admit_waiting: false,
                        result: None,
                    })
                    .collect(),
                reduce: ReduceRound {
                    generation: 0,
                    rop: None,
                    accum: Vec::new(),
                    last_result: Vec::new(),
                    last_absent: 0,
                },
                admit_generation: 0,
                world_epoch: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(|_| panic!("hub state mutex poisoned"))
    }

    /// Complete the reduce round if every admitted live rank contributed.
    fn maybe_complete_reduce(&self, st: &mut HubState) {
        let Some(rop) = st.reduce.rop else { return };
        let required_missing = st
            .members
            .iter()
            .any(|m| m.admitted && m.alive && !m.contributed);
        if required_missing {
            return;
        }
        let contributors = st.members.iter().filter(|m| m.contributed).count();
        let _ = rop;
        st.reduce.last_result.clear();
        st.reduce.last_result.extend_from_slice(&st.reduce.accum);
        st.reduce.last_absent = (self.size - contributors) as u32;
        st.reduce.rop = None;
        for m in &mut st.members {
            m.contributed = false;
        }
        st.reduce.generation += 1;
        self.cv.notify_all();
    }

    /// Complete the admit round only when ALL ranks of the world have
    /// entered — the round is the respawn rendezvous, so it must wait for
    /// the respawned rank no matter how long the supervisor takes.
    fn maybe_complete_admit(&self, st: &mut HubState) {
        if st.members.iter().any(|m| !m.admit_waiting) {
            return;
        }
        st.world_epoch += 1;
        for m in &mut st.members {
            m.admit_waiting = false;
            m.admitted = true;
        }
        st.admit_generation += 1;
        self.cv.notify_all();
    }

    fn mark_dead(&self, rank: usize, incarnation: u32) {
        let mut st = self.lock();
        if st.members[rank].incarnation != incarnation {
            return; // stale connection's EOF; a newer incarnation took over
        }
        st.members[rank].alive = false;
        st.members[rank].admitted = false;
        self.maybe_complete_reduce(&mut st);
        // NOT maybe_complete_admit: a dead rank cannot satisfy the all-in
        // requirement, and its admit_waiting was already false.
        self.cv.notify_all();
    }
}

/// Serve one child's control connection (runs on its own thread).
fn serve_child(hub: Arc<Hub>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let (rank, incarnation) = {
        let Ok(code) = read_u8(&mut stream) else { return };
        if code != op::HELLO {
            return;
        }
        let Ok(rank) = read_u32(&mut stream) else { return };
        let Ok(inc) = read_u32(&mut stream) else { return };
        let Ok(port) = read_u16(&mut stream) else { return };
        let rank = rank as usize;
        let mut st = hub.lock();
        if rank >= st.members.len() || inc < st.members[rank].incarnation {
            return;
        }
        let m = &mut st.members[rank];
        m.alive = true;
        m.incarnation = inc;
        m.port = port;
        m.said_hello = true;
        // Incarnation 0 joins the reduce population immediately; a
        // respawn must pass through the ADMIT round first.
        m.admitted = inc == 0;
        hub.cv.notify_all();
        if inc == 0 {
            // Hold the ADDRS reply until the whole first world said hello.
            while st.members.iter().any(|m| !m.said_hello) {
                st = hub.cv.wait(st).unwrap_or_else(|_| panic!("hub cv poisoned"));
            }
        }
        let ports: Vec<u16> = st.members.iter().map(|m| m.port).collect();
        drop(st);
        let mut msg = Vec::with_capacity(5 + ports.len() * 2);
        msg.push(op::ADDRS);
        msg.extend_from_slice(&(ports.len() as u32).to_le_bytes());
        for p in &ports {
            msg.extend_from_slice(&p.to_le_bytes());
        }
        if stream.write_all(&msg).is_err() {
            hub.mark_dead(rank, inc);
            return;
        }
        (rank, inc)
    };
    // Request loop: reads block indefinitely between requests.
    let _ = stream.set_read_timeout(None);
    // EOF or reset on the opcode read means the child is gone.
    while let Ok(code) = read_u8(&mut stream) {
        let ok = match code {
            op::REDUCE => handle_reduce(&hub, &mut stream, rank),
            op::ADMIT => handle_admit(&hub, &mut stream, rank),
            op::RESULT => handle_result(&hub, &mut stream, rank),
            _ => false,
        };
        if !ok {
            break;
        }
    }
    hub.mark_dead(rank, incarnation);
}

fn handle_reduce(hub: &Arc<Hub>, stream: &mut TcpStream, rank: usize) -> bool {
    let Ok(code) = read_u8(stream) else { return false };
    let Some(rop) = ReduceOp::from_code(code) else { return false };
    let Ok(len) = read_u32(stream) else { return false };
    let Ok(data) = read_f64s(stream, len as usize) else { return false };
    let (absent, result) = {
        let mut st = hub.lock();
        let my_gen = st.reduce.generation;
        if st.reduce.rop.is_none() {
            st.reduce.rop = Some(rop);
            st.reduce.accum.clear();
            st.reduce.accum.resize(data.len(), rop.identity());
        }
        assert_eq!(
            st.reduce.accum.len(),
            data.len(),
            "ranks disagree on reduction length"
        );
        for (a, &c) in st.reduce.accum.iter_mut().zip(&data) {
            *a = rop.combine(*a, c);
        }
        st.members[rank].contributed = true;
        hub.maybe_complete_reduce(&mut st);
        while st.reduce.generation == my_gen {
            st = hub.cv.wait(st).unwrap_or_else(|_| panic!("hub cv poisoned"));
        }
        (st.reduce.last_absent, st.reduce.last_result.clone())
    };
    let mut msg = Vec::with_capacity(9 + result.len() * 8);
    msg.push(op::REDUCE_OK);
    msg.extend_from_slice(&absent.to_le_bytes());
    msg.extend_from_slice(&(result.len() as u32).to_le_bytes());
    push_f64s(&mut msg, &result);
    stream.write_all(&msg).is_ok()
}

fn handle_admit(hub: &Arc<Hub>, stream: &mut TcpStream, rank: usize) -> bool {
    let epoch = {
        let mut st = hub.lock();
        let my_gen = st.admit_generation;
        st.members[rank].admit_waiting = true;
        hub.maybe_complete_admit(&mut st);
        while st.admit_generation == my_gen {
            st = hub.cv.wait(st).unwrap_or_else(|_| panic!("hub cv poisoned"));
        }
        st.world_epoch
    };
    let mut msg = Vec::with_capacity(9);
    msg.push(op::ADMIT_OK);
    msg.extend_from_slice(&epoch.to_le_bytes());
    stream.write_all(&msg).is_ok()
}

fn handle_result(hub: &Arc<Hub>, stream: &mut TcpStream, rank: usize) -> bool {
    let Ok(len) = read_u32(stream) else { return false };
    let mut bytes = vec![0u8; len as usize];
    if stream.read_exact(&mut bytes).is_err() {
        return false;
    }
    let mut st = hub.lock();
    st.members[rank].result = Some(bytes);
    hub.cv.notify_all();
    true
}

/// One exited child, as observed by its waiter thread.
struct ExitEvent {
    rank: usize,
    incarnation: u32,
    success: bool,
    status: String,
}

struct SpawnSpec {
    exe: PathBuf,
    test: String,
    size: usize,
    hub_addr: SocketAddr,
    ckpt_dir: PathBuf,
}

impl SpawnSpec {
    fn spawn(
        &self,
        rank: usize,
        incarnation: u32,
        tx: &mpsc::Sender<ExitEvent>,
    ) -> std::io::Result<u32> {
        let child: Child = Command::new(&self.exe)
            .arg("--exact")
            .arg(&self.test)
            .arg("--test-threads=1")
            .env(ENV_TEST, &self.test)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, self.size.to_string())
            .env(ENV_HUB, self.hub_addr.to_string())
            .env(ENV_INC, incarnation.to_string())
            .env(ENV_CKPT, &self.ckpt_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .stdin(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut child = child;
            let (success, status) = match child.wait() {
                Ok(st) => (st.success(), format!("{st}")),
                Err(e) => (false, format!("wait failed: {e}")),
            };
            let _ = tx.send(ExitEvent { rank, incarnation, success, status });
        });
        Ok(pid)
    }
}

fn kill_pid(pid: u32) {
    let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
}

/// Supervisor branch of [`process_world`]: launch, monitor, respawn,
/// collect.
fn supervise(test: &str, n: usize) -> Vec<Vec<u8>> {
    let hub_listener = TcpListener::bind("127.0.0.1:0").expect("bind hub listener");
    let hub_addr = hub_listener.local_addr().expect("hub addr");
    let hub = Arc::new(Hub::new(n));
    let accept_hub = Arc::clone(&hub);
    let accept_handle = std::thread::spawn(move || {
        loop {
            let (stream, _) = match hub_listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if accept_hub.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            if accept_hub.shutdown.load(Ordering::Acquire) {
                return;
            }
            let hub = Arc::clone(&accept_hub);
            std::thread::spawn(move || serve_child(hub, stream));
        }
    });

    let ckpt_dir = std::env::temp_dir().join(format!(
        "swmpi-{}-{}",
        test.replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
        std::process::id()
    ));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let spec = SpawnSpec {
        exe: std::env::current_exe().expect("current test binary"),
        test: test.to_string(),
        size: n,
        hub_addr,
        ckpt_dir: ckpt_dir.clone(),
    };

    let (tx, rx) = mpsc::channel();
    let mut spawned_inc = vec![0u32; n];
    let mut pids = vec![0u32; n];
    for rank in 0..n {
        pids[rank] = spec.spawn(rank, 0, &tx).expect("spawn child rank");
    }

    let deadline = Instant::now() + WORLD_DEADLINE;
    let kill_all = |pids: &[u32]| {
        for &pid in pids {
            if pid != 0 {
                kill_pid(pid);
            }
        }
    };
    let mut done = vec![false; n];
    let mut respawns_used = 0u32;
    while done.iter().any(|d| !d) {
        let now = Instant::now();
        if now >= deadline {
            kill_all(&pids);
            panic!("process world '{test}' exceeded its {WORLD_DEADLINE:?} deadline");
        }
        let ev = match rx.recv_timeout(deadline - now) {
            Ok(ev) => ev,
            Err(_) => {
                kill_all(&pids);
                panic!("process world '{test}' exceeded its {WORLD_DEADLINE:?} deadline");
            }
        };
        if ev.incarnation < spawned_inc[ev.rank] {
            continue; // stale event from an already-replaced incarnation
        }
        if ev.success {
            // Exit 0: the result bytes may still be in flight on the hub
            // connection — wait briefly for the handler to store them.
            let result_deadline = Instant::now() + Duration::from_secs(10);
            let arrived = loop {
                {
                    let st = hub.lock();
                    if st.members[ev.rank].result.is_some() {
                        break true;
                    }
                }
                if Instant::now() >= result_deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            if !arrived {
                kill_all(&pids);
                panic!(
                    "rank {} exited cleanly without delivering a result \
                     (is '{test}' the exact test name?)",
                    ev.rank
                );
            }
            done[ev.rank] = true;
        } else {
            let has_result = hub.lock().members[ev.rank].result.is_some();
            if has_result {
                // Result already delivered; a messy exit after that is
                // still a completed rank.
                done[ev.rank] = true;
                continue;
            }
            respawns_used += 1;
            if respawns_used > MAX_RESPAWNS {
                kill_all(&pids);
                panic!(
                    "rank {} died ({}) and the respawn budget ({MAX_RESPAWNS}) is spent",
                    ev.rank, ev.status
                );
            }
            spawned_inc[ev.rank] = ev.incarnation + 1;
            pids[ev.rank] =
                spec.spawn(ev.rank, spawned_inc[ev.rank], &tx).expect("respawn child rank");
        }
    }

    let results: Vec<Vec<u8>> = {
        let mut st = hub.lock();
        st.members
            .iter_mut()
            .enumerate()
            .map(|(r, m)| m.result.take().unwrap_or_else(|| panic!("rank {r} missing result")))
            .collect()
    };
    hub.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect_timeout(&hub_addr, Duration::from_millis(500));
    let _ = accept_handle.join();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    results
}

/// Run `body` once per rank as REAL child processes of the current test
/// binary, supervising deaths and respawns. In the parent (supervisor)
/// this spawns `n` copies of the current executable re-running exactly
/// the test named `test` (it must be this test's full libtest name);
/// inside each child the same call takes the child branch, runs `body`,
/// ships its returned bytes to the supervisor, and exits — so from the
/// test's point of view, `process_world` simply returns every rank's
/// bytes in rank order.
///
/// The body gets a fully assembled [`RankCtx`]: TCP point-to-point mesh,
/// hub-backed collectives, and an [`ElasticLink`] (via
/// [`RankCtx::elastic`]) for checkpoint placement and re-admission. A
/// rank killed mid-run (e.g. by
/// [`FaultPlan::kill_process`](crate::FaultPlan::kill_process)) is
/// respawned from the same checkpoint directory with its incarnation
/// bumped, up to 3 times per world.
pub fn process_world<F>(test: &str, n: usize, opts: WorldOptions, body: F) -> Vec<Vec<u8>>
where
    F: FnOnce(&mut RankCtx) -> Vec<u8>,
{
    assert!(n > 0, "world must have at least one rank");
    if let Some(plan) = &opts.faults {
        assert!(
            !plan.perturbs_messages(),
            "message-perturbation faults are mailbox-only; TCP is the reliable wire"
        );
    }
    if let Ok(t) = std::env::var(ENV_TEST) {
        assert_eq!(
            t, test,
            "child process reached process_world('{test}') but was spawned for '{t}' — \
             one process_world scenario per test function"
        );
        run_child(n, opts, body);
    }
    supervise(test, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full end-to-end process worlds are exercised from the integration
    // tests (tests/process_backend.rs) where the test binary can be
    // re-executed by name. Unit scope here: the hub's round bookkeeping.

    #[test]
    fn hub_reduce_completes_without_dead_ranks_and_counts_absent() {
        let hub = Arc::new(Hub::new(3));
        {
            let mut st = hub.lock();
            for m in &mut st.members {
                m.alive = true;
                m.admitted = true;
                m.said_hello = true;
            }
            // Rank 2 dies before contributing.
            st.members[2].alive = false;
            st.members[2].admitted = false;
        }
        let mut st = hub.lock();
        st.reduce.rop = Some(ReduceOp::Max);
        st.reduce.accum = vec![f64::NEG_INFINITY];
        st.reduce.accum[0] = ReduceOp::Max.combine(st.reduce.accum[0], 4.0);
        st.members[0].contributed = true;
        hub.maybe_complete_reduce(&mut st);
        assert_eq!(st.reduce.generation, 0, "rank 1 still owes its contribution");
        st.reduce.accum[0] = ReduceOp::Max.combine(st.reduce.accum[0], 7.0);
        st.members[1].contributed = true;
        hub.maybe_complete_reduce(&mut st);
        assert_eq!(st.reduce.generation, 1);
        assert_eq!(st.reduce.last_result, vec![7.0]);
        assert_eq!(st.reduce.last_absent, 1);
        assert!(st.members.iter().all(|m| !m.contributed));
    }

    #[test]
    fn hub_admit_requires_the_full_world_and_bumps_the_epoch() {
        let hub = Arc::new(Hub::new(2));
        {
            let mut st = hub.lock();
            for m in &mut st.members {
                m.alive = true;
            }
        }
        let mut st = hub.lock();
        st.members[0].admit_waiting = true;
        hub.maybe_complete_admit(&mut st);
        assert_eq!(st.admit_generation, 0, "one rank cannot complete the round");
        assert_eq!(st.world_epoch, 0);
        st.members[1].admit_waiting = true;
        hub.maybe_complete_admit(&mut st);
        assert_eq!(st.admit_generation, 1);
        assert_eq!(st.world_epoch, 1);
        assert!(st.members.iter().all(|m| m.admitted && !m.admit_waiting));
    }

    #[test]
    fn stale_connection_death_does_not_kill_the_new_incarnation() {
        let hub = Arc::new(Hub::new(2));
        {
            let mut st = hub.lock();
            st.members[1].alive = true;
            st.members[1].admitted = true;
            st.members[1].incarnation = 1; // respawn already registered
        }
        hub.mark_dead(1, 0); // incarnation-0 connection's EOF arrives late
        let st = hub.lock();
        assert!(st.members[1].alive, "stale EOF must not mark the respawn dead");
    }
}
