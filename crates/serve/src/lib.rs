//! `gpm-serve` — partition-as-a-service daemon.
//!
//! A long-lived process accepting concurrent partition jobs over the
//! length-prefixed wire protocol in [`protocol`], scheduling them onto
//! the process-wide `gpm-pool` executor, and returning partitions plus
//! per-job telemetry. The serving layer adds what the one-shot
//! `gpartition` binary does not have:
//!
//! - **Result cache** ([`cache`]): keyed by graph fingerprint plus the
//!   full engine configuration; identical re-submissions are answered
//!   from memory, byte-for-byte, with `cache_hit` set.
//! - **Admission control**: a bounded job queue. When it is full the
//!   daemon *rejects explicitly* ([`protocol::RejectCode::QueueFull`])
//!   instead of queueing unboundedly; the reject carries the current
//!   backlog depth as a `retry_after` hint so clients can back off
//!   proportionally.
//! - **Per-job deadlines**: a job may carry a wall-clock budget. It is
//!   checked at dequeue (a job that waited too long is never started)
//!   and again after compute (a result that arrived too late is not
//!   returned as success); ParMetis jobs additionally have the deadline
//!   wired into `gpm-msg`'s rank timeout so a stuck cluster step fails
//!   inside the budget rather than at the global default.
//! - **Resilience ladder** (per GP-metis job): the GPU circuit breaker
//!   ([`breaker`]) admits the job first, and while it is open the job is
//!   served on the mt-metis rung without touching the device. Otherwise
//!   the hybrid engine runs once: the device retries transient faults
//!   itself, and a job that armed `fallback` degrades GPU→CPU from the
//!   engine's last checkpoint when the device dies. A run that still
//!   fails falls through to the same pure-CPU mt-metis rung, marked
//!   degraded. Jobs can carry a `GPM_FAULTS`-syntax fault plan to
//!   exercise the ladder deterministically.
//! - **Self-healing** (DESIGN.md §14): each job body runs under
//!   `catch_unwind`, so a panicking job produces a typed
//!   [`protocol::RejectCode::JobPanicked`] reject instead of a dead
//!   worker and a hung client; the killed worker spawns its own
//!   replacement ([`supervisor::WorkerPool`]); a job fingerprint that
//!   kills [`supervisor::QUARANTINE_STRIKES`] workers is quarantined at
//!   admission ([`supervisor::PoisonList`]); and GPU health is guarded
//!   by a job-counted circuit breaker ([`breaker`]) that routes
//!   jobs CPU-only while the device looks sick.
//! - **Connection hardening**: per-connection idle timeout, mid-frame
//!   read deadline (slowloris defense), and optional frame/byte budgets;
//!   a peer that half-closes after submitting still receives every
//!   in-flight reply before the connection thread exits.
//!
//! Determinism: given the same request bytes, the daemon returns the
//! same partition bytes as a single-shot `gpartition` run with the same
//! flags — regardless of `GPM_THREADS`, steal fuzz, worker count, or
//! arrival order. Both build a [`JobRequest`] and configure the engines
//! through its methods ([`JobRequest::gpmetis_config`] and siblings).
//! Breaker-open and failed GP-metis jobs are served by the mt-metis
//! configuration of an mt-metis job ([`JobRequest::mtmetis_config`]), so
//! even degraded replies are byte-reproducible. The CI serve-smoke and
//! chaos-smoke stages assert this byte-for-byte.

pub mod breaker;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod supervisor;

use breaker::{Admission, BreakerConfig, CircuitBreaker};
use cache::{CacheEntry, CacheKey, ResultCache};
use gp_metis::PartitionError;
use protocol::{
    Algo, JobReply, JobRequest, JobTelemetry, ProtoError, RejectCode, FT_JOB, FT_JOB_OK, FT_REJECT,
    FT_SHUTDOWN, FT_SHUTDOWN_ACK, FT_STATS, FT_STATS_REPLY,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use supervisor::{lock, wait, PoisonList, WorkerPool, QUARANTINE_STRIKES};

use gpm_faults::{FaultInjector, FaultKind};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Admission queue bound: jobs queued + in flight beyond which new
    /// jobs are rejected with `QueueFull`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Suppress per-job log lines on stderr.
    pub quiet: bool,
    /// Close a connection with no bytes in flight after this long
    /// (0 disables). Defends the conn-thread pool against dead-air
    /// connections that never send a frame.
    pub idle_timeout_ms: u64,
    /// Close a connection that started a frame but made no read progress
    /// for this long (0 disables). Defends against slowloris-style
    /// byte-at-a-time writers pinning a thread mid-frame.
    pub read_deadline_ms: u64,
    /// Close a connection after this many request frames (0 = unlimited).
    pub max_frames: u64,
    /// Close a connection after this many received bytes (0 = unlimited).
    pub max_bytes: u64,
    /// GPU circuit breaker tuning (threshold:window:cooldown).
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            cache_cap: 128,
            quiet: true,
            idle_timeout_ms: 300_000,
            read_deadline_ms: 30_000,
            max_frames: 0,
            max_bytes: 0,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Monotonic counters exposed by the `Stats` request and the shutdown
/// summary.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    deadline_expired: AtomicU64,
    degraded: AtomicU64,
    engine_failed: AtomicU64,
    protocol_errors: AtomicU64,
    panicked: AtomicU64,
    quarantined: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed_idle: AtomicU64,
    conns_closed_slow: AtomicU64,
    conns_closed_budget: AtomicU64,
    /// Overlap-timeline telemetry (DESIGN.md §16): jobs that produced a
    /// schedule, and cumulative makespan vs serialized ledger time in µs —
    /// the gap is the modeled win from comm/compute overlap.
    overlap_jobs: AtomicU64,
    overlap_makespan_us: AtomicU64,
    overlap_serialized_us: AtomicU64,
}

/// A job admitted to the queue: the decoded request, its admission
/// instant (deadlines count from here), the connection to answer on,
/// its poison-list fingerprint, and the owning connection's in-flight
/// job count (for half-close draining).
struct QueuedJob {
    req: JobRequest,
    admitted: Instant,
    out: Arc<Mutex<TcpStream>>,
    fp: u64,
    conn_jobs: Arc<AtomicU64>,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    in_flight: usize,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled when a job is enqueued (workers wait) and when the queue
    /// drains to empty with nothing in flight (shutdown waits).
    cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    cache: Mutex<ResultCache>,
    breaker: Mutex<CircuitBreaker>,
    pool: WorkerPool,
    poison: PoisonList,
}

/// Handle to a running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    pub completed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    pub deadline_expired: u64,
    pub degraded: u64,
    /// Jobs whose body panicked (each answered with a typed reject).
    pub panicked: u64,
    /// Workers replaced after a panic kill.
    pub worker_respawns: u64,
    /// Threads joined at shutdown (acceptor + workers + connections).
    pub threads_joined: usize,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown from the server side (equivalent to a client
    /// `Shutdown` frame, minus the ack).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        wake_acceptor(self.addr);
    }

    /// Block until the daemon has shut down: queue drained, workers
    /// (including any panic-kill replacements) and connection threads
    /// joined. Returns the final accounting.
    pub fn join(mut self) -> ServeSummary {
        let mut joined = 0usize;
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
            joined += 1;
        }
        joined += self.shared.pool.join_all();
        let c = &self.shared.counters;
        ServeSummary {
            completed: c.completed.load(Ordering::SeqCst),
            cache_hits: c.cache_hits.load(Ordering::SeqCst),
            cache_misses: c.cache_misses.load(Ordering::SeqCst),
            rejected: c.rejected_queue_full.load(Ordering::SeqCst)
                + c.rejected_shutdown.load(Ordering::SeqCst)
                + c.engine_failed.load(Ordering::SeqCst)
                + c.quarantined.load(Ordering::SeqCst),
            deadline_expired: c.deadline_expired.load(Ordering::SeqCst),
            degraded: c.degraded.load(Ordering::SeqCst),
            panicked: c.panicked.load(Ordering::SeqCst),
            worker_respawns: self.shared.pool.respawns(),
            threads_joined: joined,
        }
    }
}

/// Connect-and-close against our own listener so a blocking `accept`
/// observes the shutdown flag.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// Start the daemon. Returns once the socket is bound and workers are
/// running; serving happens on background threads until a `Shutdown`
/// frame arrives (or [`ServerHandle::shutdown`] is called).
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let breaker = cfg.breaker;
    let shared = Arc::new(Shared {
        cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
        cfg,
        queue: Mutex::new(QueueState { jobs: VecDeque::new(), in_flight: 0 }),
        cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        breaker: Mutex::new(CircuitBreaker::new(breaker)),
        pool: WorkerPool::default(),
        poison: PoisonList::default(),
    });

    for i in 0..workers {
        spawn_worker(&shared, i);
    }

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("gpm-serve-accept".into())
        .spawn(move || accept_loop(listener, addr, &sh))
        .expect("spawn acceptor");

    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor) })
}

/// Spawn one worker thread for `slot` and register it with the pool. A
/// worker that dies to a panicking job calls this again on its way out,
/// so the pool heals itself back to the configured size; the replacement
/// is spawned *before* the dying worker's exit is noted, so the live
/// count never dips below the pool size.
fn spawn_worker(sh: &Arc<Shared>, slot: usize) {
    sh.pool.note_spawn();
    let sh2 = Arc::clone(sh);
    let h = std::thread::Builder::new()
        .name(format!("gpm-serve-worker-{slot}"))
        .spawn(move || {
            if worker_loop(&sh2) == WorkerExit::Died {
                sh2.pool.note_respawn();
                spawn_worker(&sh2, slot);
            }
            sh2.pool.note_exit();
        })
        .expect("spawn worker");
    sh.pool.register(h);
}

fn accept_loop(listener: TcpListener, addr: SocketAddr, sh: &Arc<Shared>) {
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if sh.shutdown.load(Ordering::SeqCst) {
                    // The wake connection (or a late client): drop it.
                    drop(stream);
                    break;
                }
                let sh2 = Arc::clone(sh);
                let self_addr = addr;
                let handle = std::thread::Builder::new()
                    .name("gpm-serve-conn".into())
                    .spawn(move || conn_loop(stream, self_addr, &sh2))
                    .expect("spawn connection thread");
                lock(&conns).push(handle);
            }
            Err(_) if sh.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        }
    }
    // Wait for every connection thread before the acceptor exits, so
    // `ServerHandle::join` proves no leaked threads.
    let handles: Vec<_> = std::mem::take(&mut *lock(&conns));
    for h in handles {
        let _ = h.join();
    }
}

/// Why a connection was closed by the hardening layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Transport error from the OS.
    Transport,
    /// No bytes at all for `idle_timeout_ms`.
    Idle,
    /// Mid-frame with no read progress for `read_deadline_ms`.
    SlowRead,
    /// Received-byte budget exhausted.
    Bytes,
    /// Daemon shutdown while the peer was idle.
    Shutdown,
}

enum FrameEvent {
    Frame(u32, Vec<u8>),
    /// Clean EOF at a frame boundary (peer half-closed or disconnected).
    Eof,
    Closed(CloseReason),
    Proto(ProtoError),
}

/// Per-connection read accounting for the hardening budgets.
struct ConnState {
    last_progress: Instant,
    bytes_total: u64,
    frames: u64,
    conn_jobs: Arc<AtomicU64>,
}

/// Serve one client connection. Frames are read with a poll timeout so
/// the thread observes shutdown, idle timeouts, and read deadlines even
/// while the peer is silent.
fn conn_loop(stream: TcpStream, self_addr: SocketAddr, sh: &Arc<Shared>) {
    sh.counters.conns_opened.fetch_add(1, Ordering::SeqCst);
    stream.set_read_timeout(Some(Duration::from_millis(250))).ok();
    stream.set_nodelay(true).ok();
    let out = Arc::new(Mutex::new(stream.try_clone().expect("clone stream")));
    let mut reader = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut cs = ConnState {
        last_progress: Instant::now(),
        bytes_total: 0,
        frames: 0,
        conn_jobs: Arc::new(AtomicU64::new(0)),
    };

    loop {
        match read_frame_polling(&mut reader, &mut buf, sh, &mut cs) {
            FrameEvent::Frame(ft, payload) => {
                cs.frames += 1;
                if sh.cfg.max_frames > 0 && cs.frames > sh.cfg.max_frames {
                    sh.counters.conns_closed_budget.fetch_add(1, Ordering::SeqCst);
                    let payload = protocol::encode_reject(
                        0,
                        RejectCode::Protocol,
                        0,
                        &format!("connection frame budget exhausted ({})", sh.cfg.max_frames),
                    );
                    send(&out, FT_REJECT, &payload);
                    break;
                }
                if !handle_frame(ft, &payload, &out, &cs.conn_jobs, self_addr, sh) {
                    break;
                }
            }
            FrameEvent::Eof => {
                // Half-close: the peer finished submitting (shut down its
                // write side) but may still be reading. Wait for this
                // connection's in-flight jobs so every reply is written
                // before the thread exits; bounded so a wedged job cannot
                // pin the thread forever.
                let t0 = Instant::now();
                while cs.conn_jobs.load(Ordering::SeqCst) > 0
                    && t0.elapsed() < Duration::from_secs(600)
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
                break;
            }
            FrameEvent::Closed(reason) => {
                match reason {
                    CloseReason::Idle => {
                        sh.counters.conns_closed_idle.fetch_add(1, Ordering::SeqCst);
                    }
                    CloseReason::SlowRead => {
                        sh.counters.conns_closed_slow.fetch_add(1, Ordering::SeqCst);
                    }
                    CloseReason::Bytes => {
                        sh.counters.conns_closed_budget.fetch_add(1, Ordering::SeqCst);
                    }
                    CloseReason::Transport | CloseReason::Shutdown => {}
                }
                break;
            }
            FrameEvent::Proto(e) => {
                sh.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let payload = protocol::encode_reject(0, RejectCode::Protocol, 0, &e.to_string());
                send(&out, FT_REJECT, &payload);
                // Framing is unrecoverable: the stream position cannot be
                // trusted past a bad header or short payload.
                break;
            }
        }
    }
}

/// Accumulate one frame from a stream with a read timeout, checking the
/// shutdown flag and the connection budgets between polls. Partial reads
/// across polls are kept in `buf`, so a slow-but-live writer is not
/// misread as a protocol error — but one that stalls past the read
/// deadline is closed, not waited on forever.
fn read_frame_polling(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    sh: &Arc<Shared>,
    cs: &mut ConnState,
) -> FrameEvent {
    use std::io::Read;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // A complete header yet?
        if buf.len() >= protocol::HEADER_LEN {
            let header: [u8; protocol::HEADER_LEN] =
                buf[..protocol::HEADER_LEN].try_into().unwrap();
            match protocol::decode_header(&header) {
                Ok((ft, len)) => {
                    let total = protocol::HEADER_LEN + len as usize;
                    if buf.len() >= total {
                        let payload = buf[protocol::HEADER_LEN..total].to_vec();
                        buf.drain(..total);
                        return FrameEvent::Frame(ft, payload);
                    }
                }
                Err(e) => return FrameEvent::Proto(e),
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return FrameEvent::Eof;
                }
                return FrameEvent::Proto(ProtoError::Truncated {
                    wanted: protocol::HEADER_LEN,
                    have: buf.len(),
                });
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                cs.last_progress = Instant::now();
                cs.bytes_total += n as u64;
                if sh.cfg.max_bytes > 0 && cs.bytes_total > sh.cfg.max_bytes {
                    return FrameEvent::Closed(CloseReason::Bytes);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if sh.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    return FrameEvent::Closed(CloseReason::Shutdown);
                }
                let stalled = cs.last_progress.elapsed().as_millis() as u64;
                if buf.is_empty() {
                    if sh.cfg.idle_timeout_ms > 0 && stalled >= sh.cfg.idle_timeout_ms {
                        return FrameEvent::Closed(CloseReason::Idle);
                    }
                } else if sh.cfg.read_deadline_ms > 0 && stalled >= sh.cfg.read_deadline_ms {
                    return FrameEvent::Closed(CloseReason::SlowRead);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return FrameEvent::Closed(CloseReason::Transport),
        }
    }
}

/// Dispatch one request frame. Returns false when the connection should
/// close (shutdown handshake complete).
fn handle_frame(
    ft: u32,
    payload: &[u8],
    out: &Arc<Mutex<TcpStream>>,
    conn_jobs: &Arc<AtomicU64>,
    self_addr: SocketAddr,
    sh: &Arc<Shared>,
) -> bool {
    match ft {
        FT_JOB => {
            let req = match protocol::decode_job(payload) {
                Ok(req) => req,
                Err(e) => {
                    sh.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    // The tag may still be readable from an otherwise-bad
                    // payload prefix; best effort.
                    let tag = payload
                        .get(..8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    send(
                        out,
                        FT_REJECT,
                        &protocol::encode_reject(tag, RejectCode::Protocol, 0, &e.to_string()),
                    );
                    return true; // payload decoded per framing; stream still in sync
                }
            };
            admit(req, out, conn_jobs, sh);
            true
        }
        FT_STATS => {
            send(out, FT_STATS_REPLY, &protocol::encode_stats(&snapshot_stats(sh)));
            true
        }
        FT_SHUTDOWN => {
            sh.shutdown.store(true, Ordering::SeqCst);
            sh.cv.notify_all();
            // Wait for the queue to drain and all in-flight jobs to
            // finish before acking — the ack promises quiescence.
            {
                let mut q = lock(&sh.queue);
                while !q.jobs.is_empty() || q.in_flight > 0 {
                    q = wait(&sh.cv, q);
                }
            }
            send(out, FT_SHUTDOWN_ACK, &[]);
            wake_acceptor(self_addr);
            false
        }
        other => {
            sh.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
            send(
                out,
                FT_REJECT,
                &protocol::encode_reject(
                    0,
                    RejectCode::Protocol,
                    0,
                    &ProtoError::BadFrameType(other).to_string(),
                ),
            );
            true
        }
    }
}

/// Admission control: enqueue or reject explicitly. Quarantined job
/// fingerprints are refused here, before they can touch the queue or a
/// worker.
fn admit(
    req: JobRequest,
    out: &Arc<Mutex<TcpStream>>,
    conn_jobs: &Arc<AtomicU64>,
    sh: &Arc<Shared>,
) {
    let fp = cache::job_fingerprint(&req);
    if sh.poison.is_quarantined(fp) {
        sh.counters.quarantined.fetch_add(1, Ordering::SeqCst);
        send(
            out,
            FT_REJECT,
            &protocol::encode_reject(
                req.tag,
                RejectCode::Quarantined,
                0,
                &format!(
                    "job fingerprint {fp:#018x} quarantined after {QUARANTINE_STRIKES} worker kills"
                ),
            ),
        );
        return;
    }
    let mut q = lock(&sh.queue);
    // Read the shutdown flag under the queue lock: the shutdown handler
    // sets it and then waits on this lock for an empty queue, so a job is
    // either queued before that wait (and served) or rejected here —
    // never queued after the workers have exited.
    if sh.shutdown.load(Ordering::SeqCst) {
        drop(q);
        sh.counters.rejected_shutdown.fetch_add(1, Ordering::SeqCst);
        send(
            out,
            FT_REJECT,
            &protocol::encode_reject(
                req.tag,
                RejectCode::ShuttingDown,
                0,
                "daemon is shutting down",
            ),
        );
        return;
    }
    if q.jobs.len() + q.in_flight >= sh.cfg.queue_cap {
        let backlog = (q.jobs.len() + q.in_flight) as u32;
        drop(q);
        sh.counters.rejected_queue_full.fetch_add(1, Ordering::SeqCst);
        send(
            out,
            FT_REJECT,
            &protocol::encode_reject(
                req.tag,
                RejectCode::QueueFull,
                backlog,
                &format!("admission queue full (cap {})", sh.cfg.queue_cap),
            ),
        );
        return;
    }
    sh.counters.accepted.fetch_add(1, Ordering::SeqCst);
    conn_jobs.fetch_add(1, Ordering::SeqCst);
    q.jobs.push_back(QueuedJob {
        req,
        admitted: Instant::now(),
        out: Arc::clone(out),
        fp,
        conn_jobs: Arc::clone(conn_jobs),
    });
    drop(q);
    sh.cv.notify_all();
}

/// How a worker thread's loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerExit {
    /// Clean shutdown: queue drained, daemon stopping.
    Shutdown,
    /// A job body panicked; the worker answered with a typed reject and
    /// must be replaced.
    Died,
}

fn worker_loop(sh: &Arc<Shared>) -> WorkerExit {
    loop {
        let job = {
            let mut q = lock(&sh.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.in_flight += 1;
                    break job;
                }
                if sh.shutdown.load(Ordering::SeqCst) {
                    return WorkerExit::Shutdown;
                }
                q = wait(&sh.cv, q);
            }
        };
        // Panic isolation: the job body runs under `catch_unwind` so a
        // panicking job (a bug, or an injected `serve.job=panic` fault)
        // cannot take the daemon down or leave the client hanging. The
        // in-flight/connection accounting is settled on both paths; the
        // mutexes the job may have poisoned are recovered by
        // `supervisor::lock` everywhere.
        let tag = job.req.tag;
        let fp = job.fp;
        let out = Arc::clone(&job.out);
        let conn_jobs = Arc::clone(&job.conn_jobs);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_job(job, sh)));
        conn_jobs.fetch_sub(1, Ordering::SeqCst);
        let died = match outcome {
            Ok(()) => false,
            Err(payload) => {
                sh.counters.panicked.fetch_add(1, Ordering::SeqCst);
                let strikes = sh.poison.strike(fp);
                let mut msg = format!("job panicked: {}", panic_message(payload.as_ref()));
                if strikes >= QUARANTINE_STRIKES {
                    msg.push_str("; fingerprint quarantined");
                }
                send(
                    &out,
                    FT_REJECT,
                    &protocol::encode_reject(tag, RejectCode::JobPanicked, 0, &msg),
                );
                true
            }
        };
        let mut q = lock(&sh.queue);
        q.in_flight -= 1;
        drop(q);
        // Wake both idle workers and a shutdown waiter.
        sh.cv.notify_all();
        if died {
            return WorkerExit::Died;
        }
    }
}

/// Best-effort human-readable panic payload (`panic!` with a string or
/// format message covers everything the daemon can raise).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Remaining budget, or an `Err` with the overrun if expired. `None`
/// deadline means unbounded.
fn remaining_budget(req: &JobRequest, admitted: Instant) -> Result<Option<Duration>, Duration> {
    if req.deadline_ms == 0 {
        return Ok(None);
    }
    let budget = Duration::from_millis(req.deadline_ms);
    let used = admitted.elapsed();
    match budget.checked_sub(used) {
        Some(left) if left > Duration::ZERO => Ok(Some(left)),
        _ => Err(used.saturating_sub(budget)),
    }
}

fn process_job(job: QueuedJob, sh: &Arc<Shared>) {
    let QueuedJob { req, admitted, out, .. } = job;

    // Deadline check 1: a job that expired while queued never starts.
    let budget = match remaining_budget(&req, admitted) {
        Ok(b) => b,
        Err(over) => {
            reject_deadline(&req, over, &out, sh, "expired while queued");
            return;
        }
    };

    // Cache lookup.
    let key = CacheKey::for_job(&req);
    if let Some(entry) = lock(&sh.cache).get(&key) {
        sh.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
        sh.counters.completed.fetch_add(1, Ordering::SeqCst);
        let mut telemetry = entry.telemetry.clone();
        telemetry.wall_us = 0; // no compute happened for *this* job
        let reply = JobReply { tag: req.tag, cache_hit: true, telemetry, part: entry.part };
        send(&out, FT_JOB_OK, &protocol::encode_job_ok(&reply));
        return;
    }
    sh.counters.cache_misses.fetch_add(1, Ordering::SeqCst);

    // Compute.
    let t0 = Instant::now();
    let outcome = execute(&req, budget, sh);
    let wall_us = t0.elapsed().as_micros() as u64;

    match outcome {
        Ok((part, mut telemetry)) => {
            telemetry.wall_us = wall_us;
            if telemetry.degraded {
                sh.counters.degraded.fetch_add(1, Ordering::SeqCst);
            }
            // The result is correct regardless of timing: cache it even
            // if the deadline expired, so a retry of the same job hits.
            lock(&sh.cache)
                .insert(key, CacheEntry { part: part.clone(), telemetry: telemetry.clone() });

            // Deadline check 2: a correct-but-late result is still a
            // deadline failure for *this* request.
            if let Err(over) = remaining_budget(&req, admitted) {
                reject_deadline(&req, over, &out, sh, "result ready after deadline");
                return;
            }
            sh.counters.completed.fetch_add(1, Ordering::SeqCst);
            let reply = JobReply { tag: req.tag, cache_hit: false, telemetry, part };
            send(&out, FT_JOB_OK, &protocol::encode_job_ok(&reply));
        }
        Err(msg) => {
            sh.counters.engine_failed.fetch_add(1, Ordering::SeqCst);
            send(
                &out,
                FT_REJECT,
                &protocol::encode_reject(req.tag, RejectCode::EngineFailed, 0, &msg),
            );
        }
    }
}

fn reject_deadline(
    req: &JobRequest,
    over: Duration,
    out: &Arc<Mutex<TcpStream>>,
    sh: &Arc<Shared>,
    what: &str,
) {
    sh.counters.deadline_expired.fetch_add(1, Ordering::SeqCst);
    send(
        out,
        FT_REJECT,
        &protocol::encode_reject(
            req.tag,
            RejectCode::DeadlineExpired,
            0,
            &format!("deadline {} ms {what} (overran by {} ms)", req.deadline_ms, over.as_millis()),
        ),
    );
}

/// Run one job through the engine ladder. Returns the partition and
/// telemetry, or a terminal error message after every rung failed.
///
/// Each engine is configured by the request's own mapping, the one
/// `gpartition` uses — that is what makes daemon responses byte-identical
/// to single-shot runs.
///
/// Panics when the job carries a `serve.job=panic` fault: this is the
/// chaos harness's way of exercising the worker's panic isolation, and
/// it unwinds from here through `catch_unwind` in [`worker_loop`].
fn execute(
    req: &JobRequest,
    budget: Option<Duration>,
    sh: &Arc<Shared>,
) -> Result<(Vec<u32>, JobTelemetry), String> {
    if let Some(plan) = &req.fault_plan {
        let inj = FaultInjector::new(plan.clone());
        if let Some(f) = inj.check("serve.job") {
            if f.kind == FaultKind::Panic {
                panic!("{f}");
            }
        }
    }
    let g = &req.graph;
    match req.algo {
        Algo::Metis => {
            let r = gpm_metis::partition(g, &req.metis_config());
            Ok((r.part.clone(), base_telemetry(&r)))
        }
        Algo::MtMetis => Ok(run_mtmetis(req, false)),
        Algo::ParMetis => {
            let mut c = req.parmetis_config();
            // Wire the job deadline into the cluster timeout so a stuck
            // rank fails inside the budget.
            if let Some(left) = budget {
                c.comm = c.comm.with_deadline(left);
            }
            match gpm_parmetis::try_partition(g, &c) {
                Ok(r) => Ok((r.part.clone(), base_telemetry(&r))),
                // Cluster failure: degrade to the shared-memory engine.
                Err(_e) => Ok(run_mtmetis(req, true)),
            }
        }
        Algo::GpMetis => {
            // Breaker-open jobs skip the device. The lock is held only
            // across `admit`/`record`/`snapshot`, never across a run.
            let admission = lock(&sh.breaker).admit();
            let (part, mut t) = if admission == Admission::CpuOnly {
                run_mtmetis(req, true)
            } else {
                let out =
                    gp_metis::partition_with_plan(g, &req.gpmetis_config(), req.fault_plan.clone());
                // Only device deaths feed the breaker: a run that finished
                // on the in-run CPU fallback lost its device, as did one
                // that failed with a fatal device error. Plan and config
                // errors say nothing about device health.
                let fatal = match &out {
                    Ok(r) => r.report.degraded,
                    Err(PartitionError::Device(e)) => !e.is_transient(),
                    Err(_) => false,
                };
                lock(&sh.breaker).record(fatal);
                match out {
                    Ok(r) => {
                        let mut t = base_telemetry(&r.result);
                        t.degraded = r.report.degraded;
                        t.faults_injected = r.report.faults_injected;
                        t.device_retries = r.report.device_retries;
                        t.checkpoint_gpu_levels = r.report.checkpoint_gpu_levels as u32;
                        if let Some(ov) = &r.overlap {
                            let c = &sh.counters;
                            c.overlap_jobs.fetch_add(1, Ordering::SeqCst);
                            c.overlap_makespan_us
                                .fetch_add((ov.makespan * 1e6) as u64, Ordering::SeqCst);
                            c.overlap_serialized_us
                                .fetch_add((ov.serialized * 1e6) as u64, Ordering::SeqCst);
                        }
                        (r.result.part, t)
                    }
                    // The engine failed (no fallback armed, or transient
                    // faults outlasted the device's retries): last rung.
                    Err(_) => run_mtmetis(req, true),
                }
            };
            let s = lock(&sh.breaker).snapshot();
            t.breaker_state = s.state.wire();
            t.breaker_trips = s.trips;
            Ok((part, t))
        }
    }
}

/// The serve-layer last rung: pure-CPU mt-metis with the job's seed and
/// balance. `degraded` marks results that only exist because an earlier
/// rung failed or was skipped.
fn run_mtmetis(req: &JobRequest, degraded: bool) -> (Vec<u32>, JobTelemetry) {
    let r = gpm_mtmetis::partition(&req.graph, &req.mtmetis_config());
    let t = JobTelemetry { degraded, ..base_telemetry(&r) };
    (r.part, t)
}

fn base_telemetry(r: &gpm_metis::PartitionResult) -> JobTelemetry {
    JobTelemetry {
        edge_cut: r.edge_cut,
        imbalance_bits: r.imbalance.to_bits(),
        modeled_secs_bits: r.modeled_seconds().to_bits(),
        ..JobTelemetry::default()
    }
}

/// Stats snapshot in a deterministic order (scripts `awk` these). New
/// keys are appended, never inserted, so script field offsets survive.
fn snapshot_stats(sh: &Arc<Shared>) -> Vec<(String, u64)> {
    let c = &sh.counters;
    let (q_len, in_flight) = {
        let q = lock(&sh.queue);
        (q.jobs.len() as u64, q.in_flight as u64)
    };
    let (cache_len, cache_evictions) = {
        let cache = lock(&sh.cache);
        let (_, _, ev) = cache.counters();
        (cache.len() as u64, ev)
    };
    let brk = lock(&sh.breaker).snapshot();
    let pool = gpm_pool::stats();
    vec![
        ("accepted".into(), c.accepted.load(Ordering::SeqCst)),
        ("completed".into(), c.completed.load(Ordering::SeqCst)),
        ("cache_hits".into(), c.cache_hits.load(Ordering::SeqCst)),
        ("cache_misses".into(), c.cache_misses.load(Ordering::SeqCst)),
        ("cache_entries".into(), cache_len),
        ("cache_evictions".into(), cache_evictions),
        ("rejected_queue_full".into(), c.rejected_queue_full.load(Ordering::SeqCst)),
        ("rejected_shutdown".into(), c.rejected_shutdown.load(Ordering::SeqCst)),
        ("deadline_expired".into(), c.deadline_expired.load(Ordering::SeqCst)),
        ("degraded".into(), c.degraded.load(Ordering::SeqCst)),
        ("engine_failed".into(), c.engine_failed.load(Ordering::SeqCst)),
        ("protocol_errors".into(), c.protocol_errors.load(Ordering::SeqCst)),
        ("queue_depth".into(), q_len),
        ("in_flight".into(), in_flight),
        ("pool_batches".into(), pool.batches),
        ("pool_chunks".into(), pool.chunks),
        ("pool_blocking_tasks".into(), pool.blocking_tasks),
        ("panicked".into(), c.panicked.load(Ordering::SeqCst)),
        ("quarantined".into(), c.quarantined.load(Ordering::SeqCst)),
        ("worker_respawns".into(), sh.pool.respawns()),
        ("workers_alive".into(), sh.pool.alive()),
        ("workers".into(), sh.cfg.workers as u64),
        ("quarantined_fingerprints".into(), sh.poison.quarantined_count()),
        ("conns_opened".into(), c.conns_opened.load(Ordering::SeqCst)),
        ("conns_closed_idle".into(), c.conns_closed_idle.load(Ordering::SeqCst)),
        ("conns_closed_slow".into(), c.conns_closed_slow.load(Ordering::SeqCst)),
        ("conns_closed_budget".into(), c.conns_closed_budget.load(Ordering::SeqCst)),
        ("breaker_state".into(), brk.state.wire() as u64),
        ("breaker_trips".into(), brk.trips),
        ("breaker_cpu_only".into(), brk.cpu_only_jobs),
        ("overlap_jobs".into(), c.overlap_jobs.load(Ordering::SeqCst)),
        ("overlap_makespan_us".into(), c.overlap_makespan_us.load(Ordering::SeqCst)),
        ("overlap_serialized_us".into(), c.overlap_serialized_us.load(Ordering::SeqCst)),
        ("pool_parks".into(), pool.parks),
    ]
}

/// Write one response frame under the per-connection writer lock so
/// concurrent workers never interleave frames on a shared connection.
fn send(out: &Arc<Mutex<TcpStream>>, ft: u32, payload: &[u8]) {
    let mut w = lock(out);
    let _ = w.write_all(&protocol::frame(ft, payload));
    let _ = w.flush();
}
