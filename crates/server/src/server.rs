//! The network service: an epoll-blocked acceptor plus a small **fixed**
//! reactor-thread set serving any number of client connections — no
//! thread-per-client, no thread-per-job, and no sleep-polling anywhere.
//!
//! ```text
//!  clients (N connections)                 ┌──────────────────────────┐
//!     │ requests (lines or frames)         │        Runtime           │
//!     ▼                                    │  dispatchers ── pool     │
//!  acceptor ──inbox+wake──► owning reactor └────────▲─────────┬───────┘
//!  (epoll: listener)                                │         │
//!              ┌──────────────────────────┐         │         │ completions
//!              ▼                          ▼         │         ▼
//!        reactor 0  …             reactor R-1   submit_tagged(global
//!        (epoll: waker +          (owns conns      token, shared set)
//!         conns with id%R==0)      id % R == R-1)   │
//!              │  readiness-blocked reads,    ┌─────┴──────────┐
//!              │  parse, submit ─────────────►│ CompletionSet  │
//!              │                              │ (bounded MPSC) │
//!              │  poll ◄──wake-hook───────────┴────────────────┘
//!              ▼
//!        pending table: global token → (conn, client token, reply mode)
//!              │
//!              └─► encode `done`, write (or buffer) to the owning socket
//! ```
//!
//! **Readiness, not polling.**  Each reactor owns one `epoll` instance
//! holding its subset of connections (id % R) plus an `eventfd` waker.
//! With nothing to do it blocks in `epoll_wait` with **no timeout**: a
//! thousand idle connections cost zero wakeups (the
//! [`REACTOR_IDLE_WAKEUPS`] counter is the regression guard).  Three
//! things wake it: socket readiness (readable bytes, writable space,
//! hangup), the acceptor handing it a new connection (inbox + waker),
//! and the completion queue's wake hook (a dispatcher finished a job).
//! Any reactor may *deliver* any completion; only the owner touches a
//! connection's read half and epoll registration, so foreign reactors
//! request interest changes through the owner's attention list + waker.
//!
//! **Writes never block a reactor.**  A full peer send buffer used to
//! sleep-loop inside the writing reactor; now the unwritten tail lands
//! in the connection's outbound buffer, the owner arms `EPOLLOUT`, and
//! flushes on writability.  The write-stall budget survives the
//! rewrite: cumulative stall time (buffer-resident time) is charged as
//! debt, decayed by stall-free writes, and a connection exceeding
//! [`ServerConfig::write_stall_budget`] is failed — bounding how long
//! one slow reader can hold reactor-shared memory.
//!
//! Tokens are namespaced: the server tags each submission with a private
//! global token and routes the completion back to the client's own token
//! through the pending table, so two clients reusing the same token can
//! never collide.

use crate::codec::Proto;
use crate::wire::{
    checksum, checksum_f64, DoneMsg, DoneOutcome, ExplainInfo, ExplainTarget, Payload, ReplyMode,
    Request, Response, SlowlogEntry, StatsV2, SubmitArgs, UploadArgs, WireCandidate, WireGate,
    WireSource, WireSpec, MAX_SLOWLOG,
};
use crate::wire2::{self, FrameStep};
use epoll::{Epoll, Event, Interest, Waker};
use smartapps_core::{DecisionRecord, GateVerdict};
use smartapps_runtime::telemetry::{domain_label, scheme_from_code};
use smartapps_runtime::{Completion, CompletionSet, JobSpec, PatternSignature, Runtime, Stage};
use smartapps_telemetry::LogHistogram;
use smartapps_workloads::AccessPattern;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request→response latency histogram: submission admitted to `done`
/// line written, per connection (`conn="<id>"`) plus the service-wide
/// aggregate series `conn="all"`.
pub const REQUEST_NS: &str = "smartapps_request_ns";
/// Counter of bytes read off a connection's socket, per connection.
pub const CONN_BYTES_IN: &str = "smartapps_conn_bytes_in";
/// Counter of bytes written to a connection's socket, per connection.
pub const CONN_BYTES_OUT: &str = "smartapps_conn_bytes_out";
/// Counter of microseconds a connection's responses sat in its outbound
/// buffer waiting for the peer to read (the same stall time the write
/// budget charges), per connection.
pub const CONN_STALL_US: &str = "smartapps_conn_stall_us";
/// Counter of `epoll_wait` returns, per reactor (`reactor="<r>"`).
pub const REACTOR_WAKEUPS: &str = "smartapps_reactor_wakeups";
/// Counter of wakeups that found nothing to do, per reactor.  Blocked
/// reactors should essentially never produce these — the counter
/// replaces the removed sleep-poll as the "are we spinning?" regression
/// signal (`tests/soak_epoll.rs` asserts it stays near zero).
pub const REACTOR_IDLE_WAKEUPS: &str = "smartapps_reactor_idle_wakeups";
/// Counter of CSR pattern uploads by outcome
/// (`outcome="fresh"|"dedup"|"rejected"`).
pub const UPLOADS: &str = "smartapps_uploads";

/// Reserved epoll token for each thread's eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Epoll token of the acceptor's listener.
const LISTENER_TOKEN: u64 = 0;
/// Hard cap on one connection's outbound buffer; a peer that lets this
/// much pile up is failed immediately (the stall budget would get it
/// anyway — this bounds memory, not time).
const OUTBUF_LIMIT_BYTES: usize = 256 * 1024 * 1024;
/// Reactor wait bound while any owned connection has buffered output:
/// the budget check must tick even if the peer never drains its socket.
const STALL_TICK: Duration = Duration::from_millis(25);
/// Reactor wait bound during shutdown drain (poll the pending table).
const SHUTDOWN_TICK: Duration = Duration::from_millis(5);
/// How long an `upgrade bin` request waits for the connection's
/// in-flight count to reach zero before it is a protocol error.  The
/// counter is decremented just *after* each `done` write, so a client
/// that already read every response can race a hair ahead of the last
/// decrement — and under load that last `done` may still be in another
/// reactor's delivery queue.  A deadline (rather than a fixed iteration
/// count) makes the grace independent of scheduler timing.
const UPGRADE_GRACE: Duration = Duration::from_millis(250);

/// Wire protocol a connection is currently speaking.
const MODE_TEXT: u8 = 0;
const MODE_BIN: u8 = 1;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Reactor threads (clamped to ≥ 1).  Total service threads are
    /// `1 acceptor + reactors`, independent of the client count.
    pub reactors: usize,
    /// Bound of the shared completion queue.  Clamped to at least twice
    /// [`max_batch_jobs`](ServerConfig::max_batch_jobs) so one request's
    /// rejections can never fill the queue a lone reactor must drain.
    pub completion_capacity: usize,
    /// Maximum request-line length before the connection is failed
    /// (protocol error), protecting reactor memory from a runaway line.
    pub max_line_bytes: usize,
    /// Maximum binary wire v2 frame length (kind + body) either
    /// direction accepts on an upgraded connection.
    pub max_frame_bytes: u32,
    /// Jobs allowed in one `batch` request.
    pub max_batch_jobs: usize,
    /// Admission cap on one job's total reduction references; oversized
    /// specs (and uploads) fail with a `rejected` error instead of being
    /// generated or interned.
    pub max_refs_per_job: usize,
    /// Server-side pattern cache entries (specs → generated patterns).
    /// Repeat submissions of one spec share a single allocation, which
    /// is what lets cross-client jobs coalesce and fuse.  (Uploaded CSR
    /// patterns live in the runtime's [`PatternInterner`], not here.)
    ///
    /// [`PatternInterner`]: smartapps_runtime::PatternInterner
    pub pattern_cache: usize,
    /// Total time one connection's responses may sit stalled in its
    /// outbound buffer (decayed by stall-free writes) before the
    /// connection is failed.  Bounds how long a stuck reader can hold
    /// reactor-shared memory.
    pub write_stall_budget: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            reactors: 2,
            completion_capacity: 4096,
            max_line_bytes: 1 << 20,
            max_frame_bytes: wire2::DEFAULT_MAX_FRAME_BYTES,
            max_batch_jobs: 1024,
            max_refs_per_job: 4_000_000,
            pattern_cache: 64,
            write_stall_budget: Duration::from_secs(5),
        }
    }
}

/// Read-side state of one connection (owning reactor only): the
/// text-mode partial line and the binary-mode frame splitter.  Both
/// exist because an `upgrade bin` line may arrive with pipelined frames
/// already behind it in the same read.
struct ReadState {
    partial: Vec<u8>,
    frames: wire2::FrameBuf,
}

/// Write-side state of one connection: the write half plus the outbound
/// buffer a full peer socket spills into.  `stall_since` is set while
/// the buffer is nonempty (the budget clock).
struct OutBuf {
    stream: TcpStream,
    buf: Vec<u8>,
    stall_since: Option<Instant>,
}

/// One live client connection.  The socket is nonblocking; the owning
/// reactor (id % reactors) reads it and manages its epoll registration,
/// while *any* reactor may write a completion to it (serialized by the
/// out-half mutex; unwritable tails are buffered and flushed by the
/// owner on `EPOLLOUT`).
struct Conn {
    id: u64,
    /// Read half (owning reactor only); also the registered fd.
    stream: TcpStream,
    /// Write half + outbound buffer (any reactor, one at a time).
    out: Mutex<OutBuf>,
    /// Read-side buffers (owning reactor only).
    rd: Mutex<ReadState>,
    /// [`MODE_TEXT`] or [`MODE_BIN`] (flipped once by `upgrade bin`).
    mode: AtomicU8,
    /// Jobs submitted on this connection whose `done` has not been
    /// written yet.
    in_flight: AtomicUsize,
    /// Total `done` messages written on this connection (the `drained`
    /// payload).
    completed: AtomicU64,
    /// A `drain` barrier is pending; reply when `in_flight` hits zero.
    drain_pending: AtomicBool,
    /// Cumulative microseconds this connection's output sat stalled.
    /// A peer that reads too slowly accumulates debt and is failed once
    /// it exceeds the stall budget — bounding how long one client can
    /// hold reactor-shared memory, even if it trickle-reads just enough
    /// to finish each response.
    stall_debt_micros: AtomicU64,
    /// The connection failed (EOF, I/O error, protocol error); it is
    /// reaped once its in-flight jobs have been consumed.
    dead: AtomicBool,
    /// Per-connection telemetry series, resolved once at accept time
    /// into the runtime's shared registry (so one `metrics` exposition
    /// covers runtime and server).
    request_ns: Arc<LogHistogram>,
    request_ns_all: Arc<LogHistogram>,
    bytes_in: Arc<AtomicU64>,
    bytes_out: Arc<AtomicU64>,
    stall_us: Arc<AtomicU64>,
}

impl Conn {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn binary(&self) -> bool {
        self.mode.load(Ordering::Acquire) == MODE_BIN
    }

    fn proto(&self) -> Proto {
        if self.binary() {
            Proto::Bin
        } else {
            Proto::Text
        }
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::fd::AsRawFd>(s: &T) -> epoll::RawFd {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> epoll::RawFd {
    -1
}

/// Routing entry for one submitted job: which connection gets the
/// response, under which client token, with how much payload and which
/// element type — and when the request was admitted, for the
/// request-latency histogram.
struct PendingReply {
    conn: u64,
    token: u64,
    reply: ReplyMode,
    f64body: bool,
    submitted_at: Instant,
}

/// Key of the server-side pattern cache: every field of the wire spec.
type SpecKey = (usize, usize, usize, u64, u8, u64, u64);

fn spec_key(s: &WireSpec) -> SpecKey {
    let (dist_tag, dist_bits) = match s.dist {
        crate::wire::WireDist::Uniform => (0u8, 0u64),
        crate::wire::WireDist::Zipf(z) => (1, z.to_bits()),
        crate::wire::WireDist::Clustered(w) => (2, w as u64),
    };
    (
        s.elements,
        s.iterations,
        s.refs_per_iter,
        s.coverage.to_bits(),
        dist_tag,
        dist_bits,
        s.seed,
    )
}

/// Server-side spec→pattern cache with deterministic least-recently-used
/// eviction.  Each hit restamps its entry; at capacity the entry with
/// the oldest stamp is evicted — unlike an iteration-order victim, a
/// repeatedly-hit pattern can never be dropped while cold ones survive,
/// so cross-client coalescing on a hot spec is stable under churn.
struct PatternCache {
    entries: HashMap<SpecKey, (Arc<AccessPattern>, u64)>,
    /// Monotonic use counter (the LRU clock).
    tick: u64,
}

impl PatternCache {
    fn new() -> Self {
        PatternCache {
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// The cached pattern for `key`, or `generate()`'s result after
    /// evicting the least-recently-used entry at `capacity`.  (Never the
    /// whole map: a working set one larger than the cache must not
    /// regenerate every pattern — and lose the shared-Arc coalescing —
    /// per miss.)
    fn get_or_insert_with(
        &mut self,
        key: SpecKey,
        capacity: usize,
        generate: impl FnOnce() -> Arc<AccessPattern>,
    ) -> Arc<AccessPattern> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((pat, stamp)) = self.entries.get_mut(&key) {
            *stamp = tick;
            return pat.clone();
        }
        let pat = generate();
        if self.entries.len() >= capacity.max(1) {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (pat.clone(), tick));
        pat
    }
}

/// Per-reactor rendezvous state: the waker that interrupts its
/// `epoll_wait`, the inbox the acceptor hands new connections through,
/// the attention list other threads request write-interest service on,
/// and the wakeup counters the soak test audits.
struct ReactorHandle {
    waker: Arc<Waker>,
    inbox: Mutex<Vec<Arc<Conn>>>,
    attention: Mutex<Vec<u64>>,
    wakeups: Arc<AtomicU64>,
    idle_wakeups: Arc<AtomicU64>,
}

struct ServerShared {
    rt: Arc<Runtime>,
    set: CompletionSet,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    pending: Mutex<HashMap<u64, PendingReply>>,
    patterns: Mutex<PatternCache>,
    reactors: Vec<ReactorHandle>,
    acceptor_waker: Waker,
    next_global: AtomicU64,
    next_conn: AtomicU64,
    shutdown: AtomicBool,
    uploads_fresh: Arc<AtomicU64>,
    uploads_dedup: Arc<AtomicU64>,
    uploads_rejected: Arc<AtomicU64>,
    cfg: ServerConfig,
}

impl ServerShared {
    /// The cached (or freshly generated) pattern for a validated spec.
    fn pattern_for(&self, spec: &WireSpec) -> Arc<AccessPattern> {
        self.patterns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_or_insert_with(spec_key(spec), self.cfg.pattern_cache, || {
                Arc::new(spec.to_pattern_spec().generate())
            })
    }

    fn conn(&self, id: u64) -> Option<Arc<Conn>> {
        self.conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .cloned()
    }

    /// Ask a connection's owning reactor to service its write interest
    /// (and reap state) at its next wakeup.
    fn nudge_owner(&self, conn_id: u64) {
        let h = &self.reactors[conn_id as usize % self.reactors.len()];
        h.attention
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(conn_id);
        h.waker.wake();
    }
}

/// The running network service.  Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops accepting, lets already
/// submitted jobs drain their `done` responses, closes every
/// connection, and joins the acceptor and reactor threads.  The
/// [`Runtime`] is shared, not owned: shutting the server down leaves
/// the runtime serving in-process clients.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `rt` with the given configuration.
    pub fn start(rt: Arc<Runtime>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let capacity = cfg.completion_capacity.max(2 * cfg.max_batch_jobs.max(1));
        let reactors = cfg.reactors.max(1);
        let registry = rt.telemetry().registry();
        let mut handles = Vec::with_capacity(reactors);
        for r in 0..reactors {
            let label = r.to_string();
            handles.push(ReactorHandle {
                waker: Arc::new(Waker::new()?),
                inbox: Mutex::new(Vec::new()),
                attention: Mutex::new(Vec::new()),
                wakeups: registry.counter(REACTOR_WAKEUPS, "reactor", &label),
                idle_wakeups: registry.counter(REACTOR_IDLE_WAKEUPS, "reactor", &label),
            });
        }
        let shared = Arc::new(ServerShared {
            set: CompletionSet::with_capacity(capacity),
            conns: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            patterns: Mutex::new(PatternCache::new()),
            reactors: handles,
            acceptor_waker: Waker::new()?,
            next_global: AtomicU64::new(1),
            next_conn: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            uploads_fresh: registry.counter(UPLOADS, "outcome", "fresh"),
            uploads_dedup: registry.counter(UPLOADS, "outcome", "dedup"),
            uploads_rejected: registry.counter(UPLOADS, "outcome", "rejected"),
            rt,
            cfg,
        });
        // Completion pushes must interrupt epoll-blocked reactors.  The
        // hook round-robins single wakes (waking all R per completion
        // would stampede); any woken reactor drains the queue to empty,
        // so one wake per push suffices.  The closure captures only the
        // wakers — capturing `shared` would cycle through the
        // CompletionSet that stores the hook.
        {
            let wakers: Vec<Arc<Waker>> = shared.reactors.iter().map(|h| h.waker.clone()).collect();
            let rr = AtomicUsize::new(0);
            shared.set.set_wake_hook(move || {
                let r = rr.fetch_add(1, Ordering::Relaxed) % wakers.len();
                wakers[r].wake();
            });
        }
        let mut threads = Vec::with_capacity(reactors + 1);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("smartapps-acceptor".into())
                    .spawn(move || acceptor_loop(&shared, listener))
                    .expect("spawn acceptor"),
            );
        }
        for r in 0..reactors {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("smartapps-reactor-{r}"))
                    .spawn(move || reactor_loop(&shared, r))
                    .expect("spawn reactor"),
            );
        }
        Ok(Server {
            local_addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves the ephemeral port of `addr: …:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently registered.
    pub fn connections(&self) -> usize {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Total `epoll_wait` returns across all reactors.
    pub fn reactor_wakeups(&self) -> u64 {
        self.shared
            .reactors
            .iter()
            .map(|h| h.wakeups.load(Ordering::Relaxed))
            .sum()
    }

    /// Total reactor wakeups that found nothing to do.  Near-zero while
    /// idle is the epoll contract — this is what the soak test asserts
    /// in place of the removed sleep-poll loop.
    pub fn reactor_idle_wakeups(&self) -> u64 {
        self.shared
            .reactors
            .iter()
            .map(|h| h.idle_wakeups.load(Ordering::Relaxed))
            .sum()
    }

    /// Stop accepting, drain every submitted job's response, close all
    /// connections, and join the service threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.acceptor_waker.wake();
        for h in &self.shared.reactors {
            h.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Break the wake-hook's shared-state cycle and drop every conn.
        self.shared.set.clear_wake_hook();
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn acceptor_loop(shared: &ServerShared, listener: TcpListener) {
    let Ok(ep) = Epoll::new() else { return };
    let _ = ep.add(raw_fd(&listener), LISTENER_TOKEN, Interest::READ);
    if shared.acceptor_waker.fd() >= 0 {
        let _ = ep.add(shared.acceptor_waker.fd(), WAKER_TOKEN, Interest::READ);
    }
    let mut events: Vec<Event> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        let _ = ep.wait(&mut events, 16, None);
        shared.acceptor_waker.drain();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => register_conn(shared, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted conn):
                    // don't spin on a level-triggered error state.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
    }
}

/// Set up one accepted connection and hand it to its owning reactor.
fn register_conn(shared: &ServerShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let registry = shared.rt.telemetry().registry();
    let label = id.to_string();
    let conn = Arc::new(Conn {
        id,
        stream,
        out: Mutex::new(OutBuf {
            stream: writer,
            buf: Vec::new(),
            stall_since: None,
        }),
        rd: Mutex::new(ReadState {
            partial: Vec::new(),
            frames: wire2::FrameBuf::new(),
        }),
        mode: AtomicU8::new(MODE_TEXT),
        in_flight: AtomicUsize::new(0),
        completed: AtomicU64::new(0),
        drain_pending: AtomicBool::new(false),
        stall_debt_micros: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        request_ns: registry.histogram(REQUEST_NS, "conn", &label),
        request_ns_all: registry.histogram(REQUEST_NS, "conn", "all"),
        bytes_in: registry.counter(CONN_BYTES_IN, "conn", &label),
        bytes_out: registry.counter(CONN_BYTES_OUT, "conn", &label),
        stall_us: registry.counter(CONN_STALL_US, "conn", &label),
    });
    shared
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(id, conn.clone());
    let h = &shared.reactors[id as usize % shared.reactors.len()];
    h.inbox.lock().unwrap_or_else(|p| p.into_inner()).push(conn);
    h.waker.wake();
}

/// Reactor-local registration state for one owned connection.
struct OwnedEntry {
    conn: Arc<Conn>,
    /// The fd is currently in this reactor's epoll set.
    registered: bool,
    /// `EPOLLOUT` is currently armed.
    want_write: bool,
}

fn reactor_loop(shared: &Arc<ServerShared>, r: usize) {
    let handle = &shared.reactors[r];
    let Ok(ep) = Epoll::new() else { return };
    if handle.waker.fd() >= 0 {
        let _ = ep.add(handle.waker.fd(), WAKER_TOKEN, Interest::READ);
    }
    let mut owned: HashMap<u64, OwnedEntry> = HashMap::new();
    // Owned connections with buffered output: flushed and budget-checked
    // every wakeup, and the reason waits are bounded while nonempty.
    let mut stalled: HashSet<u64> = HashSet::new();
    let mut events: Vec<Event> = Vec::new();
    loop {
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        // The load-bearing line: nothing to flush, nothing pending →
        // block indefinitely.  Idle connections cost no wakeups.
        let timeout = if shutting_down {
            Some(SHUTDOWN_TICK)
        } else if !stalled.is_empty() {
            Some(STALL_TICK)
        } else {
            None
        };
        let _ = ep.wait(&mut events, 256, timeout);
        handle.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut did_work = false;

        // New connections from the acceptor.
        {
            let mut inbox = handle.inbox.lock().unwrap_or_else(|p| p.into_inner());
            for conn in inbox.drain(..) {
                did_work = true;
                let fd = raw_fd(&conn.stream);
                if ep.add(fd, conn.id, Interest::READ).is_err() {
                    conn.mark_dead();
                }
                owned.insert(
                    conn.id,
                    OwnedEntry {
                        conn,
                        registered: true,
                        want_write: false,
                    },
                );
            }
        }

        // Attention requests: another thread buffered output on (or
        // killed) one of our connections.
        {
            let mut attention = handle.attention.lock().unwrap_or_else(|p| p.into_inner());
            for id in attention.drain(..) {
                if owned.contains_key(&id) {
                    stalled.insert(id);
                    did_work = true;
                }
            }
        }

        // Socket readiness.
        for ev in std::mem::take(&mut events) {
            if ev.token == WAKER_TOKEN {
                handle.waker.drain();
                continue;
            }
            let Some(entry) = owned.get(&ev.token) else {
                continue; // reaped while the event was in flight
            };
            let conn = entry.conn.clone();
            did_work = true;
            if conn.is_dead() {
                continue; // reaped below
            }
            if ev.writable {
                stalled.insert(conn.id);
            }
            if (ev.readable || ev.hangup) && !shutting_down {
                service_reads(shared, &conn);
            } else if ev.hangup {
                conn.mark_dead();
            }
        }

        // Flush buffered output; arm/disarm EPOLLOUT; enforce the
        // write-stall budget.
        stalled.retain(|id| {
            let Some(entry) = owned.get_mut(id) else {
                return false;
            };
            let conn = entry.conn.clone();
            if conn.is_dead() {
                return false;
            }
            did_work = true;
            let drained = flush_conn(&conn, &shared.cfg);
            let want = !drained;
            if entry.registered && entry.want_write != want {
                let interest = if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if ep.modify(raw_fd(&conn.stream), conn.id, interest).is_ok() {
                    entry.want_write = want;
                }
            }
            want
        });

        // Demultiplex finished jobs back to their sockets (any reactor
        // may deliver any completion); drain to empty so a single wake
        // covers every queued event.
        while let Some(c) = shared.set.poll() {
            deliver(shared, c);
            did_work = true;
        }

        // Reap dead connections whose responses have all been consumed.
        owned.retain(|id, entry| {
            let conn = &entry.conn;
            if !conn.is_dead() {
                return true;
            }
            if entry.registered {
                let _ = ep.delete(raw_fd(&conn.stream));
                entry.registered = false;
            }
            if conn.in_flight.load(Ordering::Acquire) != 0 {
                return true; // completions still owed; keep routable
            }
            shared
                .conns
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(id);
            did_work = true;
            false
        });

        if shutting_down {
            // Drain phase: no new reads, but every job already submitted
            // still gets its `done` before the sockets close.
            let outstanding = !shared
                .pending
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty();
            if !outstanding {
                return;
            }
        } else if !did_work {
            handle.idle_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Try to flush one connection's outbound buffer.  Returns whether the
/// buffer is now empty; on drain, the accumulated stall time is charged
/// to the connection's debt and telemetry — and so is the terminal stall
/// of a connection the budget fails, which never drains.
fn flush_conn(conn: &Conn, cfg: &ServerConfig) -> bool {
    let mut out = conn.out.lock().unwrap_or_else(|p| p.into_inner());
    let mut written = 0usize;
    while written < out.buf.len() {
        match (&out.stream).write(&out.buf[written..]) {
            Ok(0) => {
                conn.mark_dead();
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.mark_dead();
                break;
            }
        }
    }
    if written > 0 {
        out.buf.drain(..written);
        conn.bytes_out.fetch_add(written as u64, Ordering::Relaxed);
    }
    if out.buf.is_empty() {
        if let Some(t0) = out.stall_since.take() {
            let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
            conn.stall_us.fetch_add(us, Ordering::Relaxed);
            conn.stall_debt_micros.fetch_add(us, Ordering::Relaxed);
        }
        return true;
    }
    // Still stalled: fail the connection once accumulated debt plus the
    // current stall exceeds the budget.
    if let Some(t0) = out.stall_since {
        let current = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let debt = conn.stall_debt_micros.load(Ordering::Relaxed);
        let budget = cfg.write_stall_budget.as_micros().min(u64::MAX as u128) as u64;
        if debt.saturating_add(current) > budget {
            conn.stall_us.fetch_add(current, Ordering::Relaxed);
            conn.mark_dead();
        }
    }
    false
}

/// Read whatever the socket has, feed the connection's protocol buffer,
/// handle every complete request.
fn service_reads(shared: &ServerShared, conn: &Arc<Conn>) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.mark_dead();
                return;
            }
            Ok(n) => {
                conn.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                ingest(shared, conn, &chunk[..n]);
                if conn.is_dead() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.mark_dead();
                return;
            }
        }
    }
}

/// Buffer newly read bytes and handle every complete request they
/// finish, honoring a mid-buffer `upgrade bin` switch: bytes after the
/// upgrade line (pipelined frames) reroute to the frame splitter.
fn ingest(shared: &ServerShared, conn: &Arc<Conn>, bytes: &[u8]) {
    let mut rd = conn.rd.lock().unwrap_or_else(|p| p.into_inner());
    if !conn.binary() {
        rd.partial.extend_from_slice(bytes);
        loop {
            if conn.is_dead() {
                return;
            }
            if conn.binary() {
                // The upgrade line was handled; everything behind it is
                // already framed.
                let tail = std::mem::take(&mut rd.partial);
                rd.frames.extend(&tail);
                break;
            }
            let Some(nl) = rd.partial.iter().position(|&b| b == b'\n') else {
                if rd.partial.len() > shared.cfg.max_line_bytes {
                    protocol_error(shared, conn, "request line too long");
                }
                return;
            };
            let line: Vec<u8> = rd.partial.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            handle_line(shared, conn, line.trim_end_matches('\r'));
        }
    } else {
        rd.frames.extend(bytes);
    }
    loop {
        if conn.is_dead() {
            return;
        }
        match rd.frames.next_frame(shared.cfg.max_frame_bytes) {
            Ok(FrameStep::Frame { kind, body }) => match wire2::decode_request(kind, &body) {
                Ok(req) => handle_request(shared, conn, req),
                Err(e) => {
                    protocol_error(shared, conn, &format!("bad frame: {e}"));
                    return;
                }
            },
            Ok(FrameStep::NeedMore) => return,
            Err(e) => {
                protocol_error(shared, conn, &format!("bad frame: {e}"));
                return;
            }
        }
    }
}

fn handle_line(shared: &ServerShared, conn: &Arc<Conn>, line: &str) {
    if line.is_empty() {
        return;
    }
    match Request::parse(line) {
        Ok(r) => handle_request(shared, conn, r),
        Err(e) => protocol_error(shared, conn, &format!("bad request: {e}")),
    }
}

/// Handle one parsed request — the protocol-agnostic core shared by the
/// text and binary paths.
fn handle_request(shared: &ServerShared, conn: &Arc<Conn>, request: Request) {
    match request {
        Request::Submit(args) => submit_jobs(shared, conn, vec![args]),
        Request::Batch(jobs) => {
            if jobs.len() > shared.cfg.max_batch_jobs {
                protocol_error(
                    shared,
                    conn,
                    &format!(
                        "batch of {} exceeds the {}-job limit",
                        jobs.len(),
                        shared.cfg.max_batch_jobs
                    ),
                );
                return;
            }
            submit_jobs(shared, conn, jobs);
        }
        Request::Upload(args) => handle_upload(shared, conn, args),
        Request::UpgradeBin => {
            if conn.binary() {
                protocol_error(shared, conn, "connection already upgraded");
                return;
            }
            // A `done` racing the upgrade could interleave text and
            // frames; the client must drain first.  The counter is
            // decremented just *after* the response write (that order
            // is what keeps the drain barrier exact), so give in-flight
            // jobs a bounded deadline before calling the upgrade a
            // protocol error (see [`UPGRADE_GRACE`]).  Yield between
            // checks: another reactor delivers the outstanding `done`s,
            // and its writes are serialized against ours by the out-half
            // mutex, so responses queued here stay ordered after them.
            let deadline = Instant::now() + UPGRADE_GRACE;
            while conn.in_flight.load(Ordering::SeqCst) != 0 {
                if Instant::now() >= deadline {
                    protocol_error(shared, conn, "upgrade with jobs in flight");
                    return;
                }
                // Deliver finished jobs ourselves while we wait: the
                // outstanding `done`s may be sitting in the shared set,
                // and on a single-reactor service no one else can drain
                // them until this handler returns.
                if let Some(c) = shared.set.poll() {
                    deliver(shared, c);
                    continue;
                }
                std::thread::yield_now();
                std::thread::sleep(Duration::from_micros(100));
            }
            // The acknowledgment is the last text line; flip the mode
            // only after it is queued so it cannot be framed.
            write_response(shared, conn, &Response::Upgraded);
            conn.mode.store(MODE_BIN, Ordering::Release);
        }
        Request::Stats => {
            write_response(shared, conn, &Response::Stats(stats_pairs(shared)));
        }
        Request::StatsV2 => {
            let quarantined = shared
                .rt
                .quarantined_with_ttl()
                .into_iter()
                .map(|(sig, ttl)| (sig.0, ttl))
                .collect();
            write_response(
                shared,
                conn,
                &Response::StatsV2(StatsV2 {
                    counters: stats_pairs(shared),
                    hists: shared.rt.telemetry().registry().summaries(),
                    quarantined,
                }),
            );
        }
        Request::Metrics => {
            let body = shared.rt.telemetry().registry().render_prometheus();
            write_raw(shared, conn, &conn.proto().metrics(body.as_bytes()));
        }
        Request::Drain => {
            // The barrier closes when in_flight hits zero.  Order
            // matters: arm the flag first, then check, so a completion
            // racing this request either sees the flag or leaves
            // in_flight nonzero for us to see.
            conn.drain_pending.store(true, Ordering::SeqCst);
            if conn.in_flight.load(Ordering::SeqCst) == 0
                && conn.drain_pending.swap(false, Ordering::SeqCst)
            {
                write_response(
                    shared,
                    conn,
                    &Response::Drained(conn.completed.load(Ordering::Relaxed)),
                );
            }
        }
        Request::Unquarantine(sig) => {
            let found = shared.rt.unquarantine(PatternSignature(sig));
            write_response(shared, conn, &Response::Unquarantined(found));
        }
        Request::Explain(target) => {
            let sig = match target {
                ExplainTarget::Signature(sig) => PatternSignature(sig),
                // An uploaded pattern's class is the signature `submit`
                // would queue it under; resolve through the same path.
                ExplainTarget::Handle(h) => match shared.rt.patterns().get(h) {
                    Some(p) => shared.rt.signature_of(&p),
                    None => {
                        protocol_error(shared, conn, &format!("unknown pattern handle {h:016x}"));
                        return;
                    }
                },
            };
            let info = shared.rt.explain(sig).map(|rec| explain_info(&rec));
            write_response(shared, conn, &Response::Explained(info));
        }
        Request::Slowlog(n) => {
            let entries = shared
                .rt
                .slowlog(n.min(MAX_SLOWLOG))
                .into_iter()
                .map(slowlog_entry)
                .collect();
            write_response(shared, conn, &Response::Slowlog(entries));
        }
    }
}

/// Render one decision record in the wire's `explained` shape: every
/// token (`scheme`, `backend`, gate reasons, the domain label) is
/// already wire-safe (`[a-z0-9._-]`), and the feature vector flattens
/// to ordered `name=value` pairs.
fn explain_info(rec: &DecisionRecord) -> ExplainInfo {
    let gate = |g: &GateVerdict| WireGate {
        fired: g.fired,
        reason: g.reason.to_string(),
    };
    let f = &rec.features;
    ExplainInfo {
        signature: rec.signature,
        domain: domain_label(&rec.domain),
        winner: rec.winner.abbrev().to_string(),
        backend: rec.backend.to_string(),
        explored: rec.explored,
        rechecked: rec.rechecked,
        flips: rec.flips,
        fusion: gate(&rec.fusion),
        simplify: gate(&rec.simplify),
        quarantine: gate(&rec.quarantine),
        features: vec![
            ("references".into(), f.references as f64),
            ("elements".into(), f.num_elements as f64),
            ("distinct".into(), f.distinct as f64),
            ("iterations".into(), f.iterations as f64),
            ("sp".into(), f.sp),
            ("mo".into(), f.mo),
            ("con".into(), f.con),
            ("conflicting".into(), f.conflicting as f64),
            ("replication".into(), f.replication),
            ("threads".into(), f.threads as f64),
            ("fanout".into(), f.fanout as f64),
        ],
        candidates: rec
            .candidates
            .iter()
            .map(|c| WireCandidate {
                scheme: c.scheme.abbrev().to_string(),
                analytic: c.analytic,
                corrected: c.corrected,
                feasible: c.feasible,
            })
            .collect(),
    }
}

/// Render one slowlog exemplar: the trace event's stage attribution
/// plus the decision winner in force when the job completed.  `-`
/// stands in for "no scheme chosen" / "no decision recorded".
fn slowlog_entry(ex: smartapps_telemetry::Exemplar<smartapps_runtime::SlowJob>) -> SlowlogEntry {
    let e = &ex.payload.event;
    SlowlogEntry {
        class: ex.class,
        latency_ns: ex.latency_ns,
        scheme: scheme_from_code(e.scheme).map_or_else(|| "-".to_string(), |s| s.abbrev().into()),
        backend: e.backend.label().to_string(),
        error: e.error.label().to_string(),
        fused: e.fused,
        queue_ns: e.stage_queue(),
        decide_ns: e.stage_decide(),
        simplify_ns: e.stage_simplify(),
        exec_ns: e.stage_exec(),
        completion_ns: e.stage_completion(),
        winner: ex
            .payload
            .record
            .as_ref()
            .map_or_else(|| "-".to_string(), |r| r.winner.abbrev().into()),
    }
}

/// The runtime's service counters as `(name, value)` pairs, sorted by
/// name — both `stats` and `stats v2` carry them, and the sort keeps the
/// wire encoding deterministic for identical server state.
fn stats_pairs(shared: &ServerShared) -> Vec<(String, u64)> {
    let s = shared.rt.stats();
    let mut pairs = vec![
        ("submitted".to_string(), s.submitted),
        ("completed".to_string(), s.completed),
        ("batches".to_string(), s.batches),
        ("coalesced".to_string(), s.coalesced),
        ("profile_hits".to_string(), s.profile_hits),
        ("inspections".to_string(), s.inspections),
        ("evictions".to_string(), s.evictions),
        ("steals".to_string(), s.steals),
        ("fused_sweeps".to_string(), s.fused_sweeps),
        ("fused_jobs".to_string(), s.fused_jobs),
        ("pclr_offloads".to_string(), s.pclr_offloads),
        ("sim_cycles".to_string(), s.sim_cycles),
        ("simd_offloads".to_string(), s.simd_offloads),
        ("calibration_updates".to_string(), s.calibration_updates),
        ("explored".to_string(), s.explored),
        ("fuse_probes".to_string(), s.fuse_probes),
        ("quarantined".to_string(), s.quarantined),
        ("simplified_jobs".to_string(), s.simplified_jobs),
        ("simplify_rejects".to_string(), s.simplify_rejects),
    ];
    pairs.sort();
    pairs
}

/// Validate and intern one uploaded CSR structure; reply with the
/// handle, or fail the upload (not the connection) on a bad structure.
fn handle_upload(shared: &ServerShared, conn: &Arc<Conn>, args: UploadArgs) {
    if args.indices.len() > shared.cfg.max_refs_per_job {
        shared.uploads_rejected.fetch_add(1, Ordering::Relaxed);
        reject(
            shared,
            conn,
            args.token,
            &format!(
                "upload of {} references exceeds the {}-reference admission cap",
                args.indices.len(),
                shared.cfg.max_refs_per_job
            ),
        );
        return;
    }
    let pattern = AccessPattern {
        num_elements: args.num_elements,
        iter_ptr: args.iter_ptr,
        indices: args.indices,
    };
    match shared.rt.patterns().intern(pattern) {
        Ok(interned) => {
            let counter = if interned.fresh {
                &shared.uploads_fresh
            } else {
                &shared.uploads_dedup
            };
            counter.fetch_add(1, Ordering::Relaxed);
            write_response(
                shared,
                conn,
                &Response::Uploaded {
                    token: args.token,
                    handle: interned.handle,
                },
            );
        }
        Err(e) => {
            shared.uploads_rejected.fetch_add(1, Ordering::Relaxed);
            reject(shared, conn, args.token, &e.to_string());
        }
    }
}

/// Validate, admit, and submit a group of jobs as one runtime batch.
/// Invalid members fail with `done … err rejected` without reaching the
/// runtime; valid members ride `submit_batch_tagged` so same-class
/// members coalesce (and same-pattern members can fuse) server-side.
fn submit_jobs(shared: &ServerShared, conn: &Arc<Conn>, jobs: Vec<SubmitArgs>) {
    let mut accepted: Vec<(u64, JobSpec)> = Vec::with_capacity(jobs.len());
    for args in jobs {
        let pattern = match args.source {
            WireSource::Gen(spec) => {
                if let Err(e) = spec.validate() {
                    reject(shared, conn, args.token, &e);
                    continue;
                }
                if spec.total_refs() > shared.cfg.max_refs_per_job {
                    reject(
                        shared,
                        conn,
                        args.token,
                        &format!(
                            "job of {} references exceeds the {}-reference admission cap",
                            spec.total_refs(),
                            shared.cfg.max_refs_per_job
                        ),
                    );
                    continue;
                }
                shared.pattern_for(&spec)
            }
            // Uploaded patterns were validated and admission-checked at
            // upload time; resolving the handle is all that remains.
            WireSource::Handle(h) => match shared.rt.patterns().get(h) {
                Some(p) => p,
                None => {
                    reject(
                        shared,
                        conn,
                        args.token,
                        &format!("unknown pattern handle {h:016x}"),
                    );
                    continue;
                }
            },
        };
        let spec = match args.body {
            crate::wire::WireBody::Sum => {
                JobSpec::i64(pattern, |_i, r| smartapps_workloads::contribution_i64(r))
            }
            crate::wire::WireBody::Mul(k) => JobSpec::i64(pattern, move |_i, r| {
                smartapps_workloads::contribution_i64(r).wrapping_mul(k)
            }),
            crate::wire::WireBody::FSum => {
                JobSpec::f64(pattern, |_i, r| smartapps_workloads::contribution(r))
            }
            crate::wire::WireBody::Panic => JobSpec::i64(pattern, |_i, _r| -> i64 {
                panic!("wire-requested panic body")
            }),
            // The uniform bodies carry the caller's declaration through to
            // the runtime, making scan/window-shaped patterns eligible for
            // the simplification pass (docs/MODEL.md).
            crate::wire::WireBody::Usum => {
                JobSpec::i64(pattern, |i, _r| smartapps_workloads::contribution_i64(i))
                    .with_uniform_body(true)
            }
            crate::wire::WireBody::Fusum => {
                JobSpec::f64(pattern, |i, _r| smartapps_workloads::contribution(i))
                    .with_uniform_body(true)
            }
        };
        let global = shared.next_global.fetch_add(1, Ordering::Relaxed);
        shared
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(
                global,
                PendingReply {
                    conn: conn.id,
                    token: args.token,
                    reply: args.reply,
                    f64body: args.body.is_f64(),
                    submitted_at: Instant::now(),
                },
            );
        conn.in_flight.fetch_add(1, Ordering::SeqCst);
        accepted.push((global, spec));
    }
    if !accepted.is_empty() {
        shared.rt.submit_batch_tagged(accepted, &shared.set);
    }
}

/// Fail one submission (or upload) before it reaches the runtime.
fn reject(shared: &ServerShared, conn: &Arc<Conn>, token: u64, message: &str) {
    write_response(
        shared,
        conn,
        &Response::Done(DoneMsg {
            token,
            outcome: DoneOutcome::Err {
                kind: "rejected".into(),
                signature: 0,
                message: message.to_string(),
            },
        }),
    );
    conn.completed.fetch_add(1, Ordering::Relaxed);
}

/// Route one completion from the shared set back to its socket.
fn deliver(shared: &ServerShared, completion: Completion) {
    let Some(PendingReply {
        conn,
        token,
        reply,
        f64body,
        submitted_at,
    }) = shared
        .pending
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&completion.token)
    else {
        return; // unknown global token: nothing to route
    };
    let Some(conn) = shared.conn(conn) else {
        return; // connection was reaped; drop the response
    };
    let request_ns = submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    conn.request_ns.record(request_ns);
    conn.request_ns_all.record(request_ns);
    let r = completion.result;
    let outcome = match r.error {
        Some(e) => DoneOutcome::Err {
            kind: e.kind.as_str().to_string(),
            signature: completion.signature.0,
            message: e.message,
        },
        None => DoneOutcome::Ok {
            scheme: r.scheme.abbrev().to_string(),
            elapsed_ns: r.elapsed.as_nanos().min(u64::MAX as u128) as u64,
            profile_hit: r.profile_hit,
            fused_with: r.fused_with,
            batched_with: r.batched_with,
            payload: if f64body {
                let values = r.output.as_f64().map(<[f64]>::to_vec).unwrap_or_default();
                match reply {
                    ReplyMode::Ack => Payload::ChecksumF64 {
                        len: values.len(),
                        sum: checksum_f64(&values),
                    },
                    ReplyMode::Full => Payload::FullF64(values),
                }
            } else {
                let values = r.output.as_i64().map(<[i64]>::to_vec).unwrap_or_default();
                match reply {
                    ReplyMode::Ack => Payload::Checksum {
                        len: values.len(),
                        sum: checksum(&values),
                    },
                    ReplyMode::Full => Payload::Full(values),
                }
            },
        },
    };
    if !conn.is_dead() {
        // The server-side tail the runtime's trace cannot see: completion
        // popped off the set → reply bytes handed to the socket/buffer.
        let write_t0 = Instant::now();
        write_response(shared, &conn, &Response::Done(DoneMsg { token, outcome }));
        shared.rt.telemetry().record_stage(
            Stage::Write,
            write_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
    conn.completed.fetch_add(1, Ordering::Relaxed);
    let left = conn.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
    if left == 0 {
        if conn.drain_pending.swap(false, Ordering::SeqCst) && !conn.is_dead() {
            write_response(
                shared,
                &conn,
                &Response::Drained(conn.completed.load(Ordering::Relaxed)),
            );
        }
        if conn.is_dead() {
            // Its owner may be parked with nothing left to wake it;
            // nudge so the conn is reaped promptly.
            shared.nudge_owner(conn.id);
        }
    }
}

/// Protocol-level failure: tell the client why, then fail the connection.
fn protocol_error(shared: &ServerShared, conn: &Arc<Conn>, message: &str) {
    write_response(shared, conn, &Response::Error(message.to_string()));
    conn.mark_dead();
}

/// Encode one response in the connection's negotiated protocol and hand
/// it to [`write_raw`].
fn write_response(shared: &ServerShared, conn: &Conn, response: &Response) {
    write_raw(shared, conn, &conn.proto().encode(response));
}

/// Write one outbound message, never blocking the calling reactor: as
/// much as the socket takes goes out directly; an unwritable tail is
/// appended to the connection's outbound buffer and the owning reactor
/// is nudged to arm `EPOLLOUT` and flush on writability.  Stall time
/// (buffer-resident time) is charged against the connection's
/// cumulative [`write_stall_budget`](ServerConfig::write_stall_budget);
/// exceeding it fails the connection instead of wedging reactors — any
/// reactor may deliver to any socket, so unbounded per-message grace
/// would let one slow reader stall completion draining service-wide.
fn write_raw(shared: &ServerShared, conn: &Conn, bytes: &[u8]) {
    if conn.is_dead() {
        return;
    }
    let mut out = conn.out.lock().unwrap_or_else(|p| p.into_inner());
    let mut written = 0usize;
    if out.buf.is_empty() {
        // Fast path: the socket usually takes the whole message.
        while written < bytes.len() {
            match (&out.stream).write(&bytes[written..]) {
                Ok(0) => {
                    drop(out);
                    conn.mark_dead();
                    return;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    drop(out);
                    conn.mark_dead();
                    return;
                }
            }
        }
        if written > 0 {
            conn.bytes_out.fetch_add(written as u64, Ordering::Relaxed);
        }
        if written == bytes.len() {
            drop(out);
            // A stall-free message halves the accumulated debt, so a
            // briefly slow but otherwise healthy peer recovers; a
            // trickle-reader that stalls every message cannot reset it
            // and dies within the budget no matter how it paces reads.
            let debt = conn.stall_debt_micros.load(Ordering::Relaxed);
            if debt > 0 {
                conn.stall_debt_micros.store(debt / 2, Ordering::Relaxed);
            }
            return;
        }
    }
    // Slow path: buffer the tail for the owner to flush on EPOLLOUT.
    if out.buf.len() + (bytes.len() - written) > OUTBUF_LIMIT_BYTES {
        drop(out);
        conn.mark_dead();
        return;
    }
    out.buf.extend_from_slice(&bytes[written..]);
    if out.stall_since.is_none() {
        out.stall_since = Some(Instant::now());
    }
    drop(out);
    shared.nudge_owner(conn.id);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> SpecKey {
        (n, 0, 0, 0, 0, 0, 0)
    }

    fn pat(n: usize) -> Arc<AccessPattern> {
        Arc::new(AccessPattern {
            num_elements: n.max(1),
            iter_ptr: vec![0],
            indices: vec![],
        })
    }

    #[test]
    fn pattern_cache_hits_share_the_allocation() {
        let mut cache = PatternCache::new();
        let first = cache.get_or_insert_with(key(1), 4, || pat(1));
        let again = cache.get_or_insert_with(key(1), 4, || panic!("hit must not regenerate"));
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn pattern_cache_evicts_the_lru_entry_deterministically() {
        let mut cache = PatternCache::new();
        for n in 0..4 {
            cache.get_or_insert_with(key(n), 4, || pat(n));
        }
        // Touch everything but key(2), then overflow: the victim must be
        // exactly the least-recently-used entry, never an arbitrary one.
        for n in [0usize, 1, 3] {
            cache.get_or_insert_with(key(n), 4, || panic!("hit must not regenerate"));
        }
        cache.get_or_insert_with(key(4), 4, || pat(4));
        assert!(!cache.entries.contains_key(&key(2)), "LRU entry evicted");
        for n in [0usize, 1, 3, 4] {
            assert!(cache.entries.contains_key(&key(n)), "key {n} survives");
        }
    }

    #[test]
    fn repeatedly_hit_entry_survives_churn_at_capacity() {
        let mut cache = PatternCache::new();
        let hot = cache.get_or_insert_with(key(1000), 4, || pat(1000));
        // A long parade of one-shot specs churns the cache far past its
        // capacity; the hot entry is re-hit between misses and must
        // survive the whole run with its allocation intact.
        for n in 0..64 {
            cache.get_or_insert_with(key(n), 4, || pat(n));
            let again = cache.get_or_insert_with(key(1000), 4, || panic!("hot entry was evicted"));
            assert!(Arc::ptr_eq(&hot, &again));
        }
        assert!(cache.entries.len() <= 4, "capacity must hold under churn");
    }
}
