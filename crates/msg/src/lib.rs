//! Message-passing substrate — the MPI stand-in beneath the ParMetis
//! reproduction (see DESIGN.md §1).
//!
//! A *cluster* of `p` ranks runs as `p` host threads connected by
//! unbounded channels. The API mirrors the MPI subset ParMetis needs:
//! tagged point-to-point send/recv, personalized all-to-all, barrier,
//! allreduce, gather/broadcast. Each rank records its per-phase compute
//! work and communication volume; [`bsp_time`] converts those records
//! into modeled seconds under a bulk-synchronous α–β cost model (per
//! message latency α + per byte cost β), which is what shapes ParMetis's
//! speedup curve in the paper's Fig. 5.

pub mod barrier;

use barrier::{BarrierWait, PoisonBarrier};
use gpm_faults::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Reserved tag for crash notices: when a rank aborts it posts one message
/// with this tag to every peer so blocked `recv`s fail fast with
/// [`MsgError::PeerCrashed`] instead of waiting out the timeout. User code
/// must not send with this tag.
pub const CRASH_TAG: u32 = u32::MAX;

/// Cluster configuration: rank count and the α–β communication model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of ranks (the paper runs ParMetis with one rank per core).
    pub ranks: usize,
    /// Per-message latency in seconds (intra-node MPI ≈ 2 µs).
    pub alpha: f64,
    /// Per-byte transfer time in seconds (intra-node MPI ≈ 1/5 GB/s).
    pub beta: f64,
    /// Wall-clock seconds a rank waits in `recv`/`barrier` before
    /// concluding a peer is gone. Defaults to `GPM_MSG_TIMEOUT_SECS`
    /// (or 60 when unset).
    pub timeout_secs: u64,
}

/// Default recv/barrier timeout: `GPM_MSG_TIMEOUT_SECS`, else 60 s.
fn default_timeout_secs() -> u64 {
    std::env::var("GPM_MSG_TIMEOUT_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(60)
}

impl ClusterConfig {
    /// The paper's testbed: `p` MPI ranks on one 8-core node. `alpha` is
    /// the *effective* per-message cost including MPI stack overhead and
    /// the synchronization skew every superstep round pays (raw shm
    /// latency is ~1 µs; collectives on 8 desynchronized ranks cost an
    /// order of magnitude more).
    pub fn intra_node(ranks: usize) -> Self {
        ClusterConfig { ranks, alpha: 10e-6, beta: 1.0 / 5e9, timeout_secs: default_timeout_secs() }
    }

    /// Override the recv/barrier timeout.
    pub fn with_timeout_secs(mut self, secs: u64) -> Self {
        self.timeout_secs = secs;
        self
    }

    /// Cap the recv/barrier patience to a job deadline: a rank never waits
    /// longer than `remaining` (rounded up to whole seconds, minimum 1 s),
    /// so a cluster run cannot out-sleep the deadline of the job that
    /// issued it. Used by gpm-serve to wire per-job deadlines into the
    /// message substrate's timeout machinery; an already-shorter timeout
    /// is kept.
    pub fn with_deadline(mut self, remaining: Duration) -> Self {
        let secs = (remaining.as_secs_f64().ceil() as u64).max(1);
        self.timeout_secs = self.timeout_secs.min(secs);
        self
    }
}

/// Typed failure of a cluster run — what used to be a panic inside a rank
/// body now flows out of [`try_run_cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgError {
    /// `recv` waited out the configured timeout with no matching message.
    RecvTimeout { rank: usize, from: usize, tag: u32, secs: u64 },
    /// A barrier waited out the configured timeout.
    BarrierTimeout { rank: usize, secs: u64 },
    /// A peer rank crashed (its channel hung up or it posted a crash
    /// notice / poisoned a barrier).
    PeerCrashed { rank: usize, peer: usize },
    /// A send kept being dropped by the fault schedule and exhausted its
    /// retry budget.
    SendFailed { rank: usize, to: usize, tag: u32, attempts: u32 },
    /// The fault schedule crashed this rank (`msg.crash.r<rank>` site).
    InjectedCrash { rank: usize },
    /// `GPM_FAULTS` could not be parsed.
    BadFaultPlan(String),
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::RecvTimeout { rank, from, tag, secs } => write!(
                f,
                "rank {rank} timed out after {secs}s waiting for (from={from}, tag={tag}) — \
                 a peer rank is likely gone"
            ),
            MsgError::BarrierTimeout { rank, secs } => {
                write!(f, "rank {rank} timed out after {secs}s at a barrier")
            }
            MsgError::PeerCrashed { rank, peer } => {
                write!(f, "rank {rank} observed peer rank {peer} crash")
            }
            MsgError::SendFailed { rank, to, tag, attempts } => write!(
                f,
                "rank {rank} failed to send (to={to}, tag={tag}) after {attempts} attempts"
            ),
            MsgError::InjectedCrash { rank } => write!(f, "rank {rank} crashed (injected fault)"),
            MsgError::BadFaultPlan(msg) => write!(f, "bad GPM_FAULTS plan: {msg}"),
        }
    }
}

impl std::error::Error for MsgError {}

/// Panic payload carrying a typed abort out of a rank body; caught by
/// `try_run_cluster`'s per-rank `catch_unwind` and surfaced as the run's
/// `Err`. Ordinary panics (user assertions) are re-raised untouched.
struct RankAbort(MsgError);

/// One tagged message.
struct Msg {
    from: usize,
    tag: u32,
    data: Vec<u32>,
}

/// Per-phase record a rank produces: local compute work plus the
/// communication it performed since the previous phase boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPhase {
    /// Phase name; phases with equal names across ranks are aligned.
    pub name: String,
    /// Adjacency entries scanned in this phase.
    pub edges: u64,
    /// Vertex-granularity operations in this phase.
    pub vertices: u64,
    /// Messages sent in this phase.
    pub msgs: u64,
    /// Payload bytes sent in this phase.
    pub bytes: u64,
    /// Working-set size of this phase (for cache-aware cost models);
    /// 0 = unknown.
    pub ws_bytes: u64,
}

/// The execution context handed to each rank.
pub struct RankCtx {
    /// This rank's id, `0..ranks`.
    pub rank: usize,
    /// Total ranks.
    pub ranks: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Out-of-order messages awaiting a matching recv.
    stash: Vec<Msg>,
    barrier: Arc<PoisonBarrier>,
    /// Wall-clock patience for recv/barrier.
    timeout: Duration,
    /// Fault schedule (shared across ranks); `None` / inactive keeps the
    /// hot path free of counters and formatting.
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    /// Precomputed site names (`msg.send.r<rank>` etc.) when faults are on.
    sites: Option<RankSites>,
    // accounting
    msgs: u64,
    bytes: u64,
    edges: u64,
    vertices: u64,
    ws_bytes: u64,
    phases: Vec<RankPhase>,
}

struct RankSites {
    send: String,
    recv: String,
    crash: String,
}

impl RankCtx {
    /// Leave the rank body with a typed error: post crash notices so
    /// blocked peers fail fast, poison the barrier, then unwind to the
    /// `catch_unwind` in `try_run_cluster`. `resume_unwind` skips the
    /// panic hook, so a typed abort prints no panic message.
    fn abort(&mut self, e: MsgError) -> ! {
        for r in 0..self.ranks {
            if r != self.rank {
                let _ =
                    self.senders[r].send(Msg { from: self.rank, tag: CRASH_TAG, data: Vec::new() });
            }
        }
        self.barrier.poison(self.rank);
        std::panic::resume_unwind(Box::new(RankAbort(e)));
    }

    /// Fault site visited at every send/recv entry: an injected
    /// `RankCrash` takes this rank down here.
    fn crash_point(&mut self) {
        let fault = match (&self.injector, &self.sites) {
            (Some(inj), Some(sites)) if inj.is_active() => inj.check(&sites.crash),
            _ => return,
        };
        if let Some(f) = fault {
            if f.kind == FaultKind::RankCrash {
                self.abort(MsgError::InjectedCrash { rank: self.rank });
            }
        }
    }

    /// Send `data` to `to` with `tag`.
    ///
    /// Under an active fault schedule the `msg.send.r<rank>` site may drop
    /// (retried with exponential backoff up to the retry budget, then
    /// [`MsgError::SendFailed`]) or delay the message.
    pub fn send(&mut self, to: usize, tag: u32, data: Vec<u32>) {
        assert_ne!(tag, CRASH_TAG, "CRASH_TAG is reserved for the crash-notice protocol");
        self.crash_point();
        if let (Some(inj), Some(sites)) = (&self.injector, &self.sites) {
            if inj.is_active() {
                let inj = inj.clone();
                let mut attempt = 0u32;
                loop {
                    match inj.check(&sites.send) {
                        None => break,
                        Some(f) if f.kind == FaultKind::MsgDelay => {
                            // Delivery still happens, just late.
                            std::thread::sleep(backoff_wall(&self.retry, 1));
                            break;
                        }
                        Some(f)
                            if f.kind == FaultKind::MsgDrop && attempt < self.retry.max_retries =>
                        {
                            attempt += 1;
                            std::thread::sleep(backoff_wall(&self.retry, attempt));
                        }
                        Some(f) if f.kind == FaultKind::MsgDrop => {
                            let e = MsgError::SendFailed {
                                rank: self.rank,
                                to,
                                tag,
                                attempts: attempt + 1,
                            };
                            self.abort(e);
                        }
                        Some(f) if f.kind == FaultKind::RankCrash => {
                            self.abort(MsgError::InjectedCrash { rank: self.rank });
                        }
                        Some(_) => break, // GPU-only kinds: ignore at msg sites
                    }
                }
            }
        }
        self.msgs += 1;
        self.bytes += data.len() as u64 * 4;
        if self.senders[to].send(Msg { from: self.rank, tag, data }).is_err() {
            self.abort(MsgError::PeerCrashed { rank: self.rank, peer: to });
        }
    }

    /// Blocking receive of the next message from `from` with `tag`
    /// (out-of-order arrivals are stashed). Waits at most the configured
    /// timeout (`ClusterConfig::timeout_secs` / `GPM_MSG_TIMEOUT_SECS`),
    /// then aborts the rank with a typed [`MsgError::RecvTimeout`] instead
    /// of panicking; a peer's crash notice aborts immediately with
    /// [`MsgError::PeerCrashed`].
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<u32> {
        self.crash_point();
        if let (Some(inj), Some(sites)) = (&self.injector, &self.sites) {
            if inj.is_active() {
                match inj.check(&sites.recv) {
                    Some(f) if f.kind == FaultKind::MsgDelay => {
                        // The matching message is "late": stall the reader.
                        std::thread::sleep(backoff_wall(&self.retry, 1));
                    }
                    Some(f) if f.kind == FaultKind::RankCrash => {
                        self.abort(MsgError::InjectedCrash { rank: self.rank });
                    }
                    _ => {}
                }
            }
        }
        if let Some(pos) = self.stash.iter().position(|m| m.from == from && m.tag == tag) {
            return self.stash.remove(pos).data;
        }
        loop {
            match self.receiver.recv_timeout(self.timeout) {
                Ok(m) if m.tag == CRASH_TAG => {
                    let peer = m.from;
                    self.abort(MsgError::PeerCrashed { rank: self.rank, peer });
                }
                Ok(m) if m.from == from && m.tag == tag => return m.data,
                Ok(m) => self.stash.push(m),
                Err(RecvTimeoutError::Timeout) => {
                    let e = MsgError::RecvTimeout {
                        rank: self.rank,
                        from,
                        tag,
                        secs: self.timeout.as_secs(),
                    };
                    self.abort(e);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.abort(MsgError::PeerCrashed { rank: self.rank, peer: from });
                }
            }
        }
    }

    /// Personalized all-to-all: `out[r]` goes to rank `r`; returns the
    /// vector received from each rank (own slot passed through directly).
    #[allow(clippy::needless_range_loop)] // rank-indexed send/recv loops
    pub fn all_to_all(&mut self, tag: u32, mut out: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        assert_eq!(out.len(), self.ranks);
        let own = std::mem::take(&mut out[self.rank]);
        for r in 0..self.ranks {
            if r != self.rank {
                self.send(r, tag, std::mem::take(&mut out[r]));
            }
        }
        let mut inbox: Vec<Vec<u32>> = (0..self.ranks).map(|_| Vec::new()).collect();
        inbox[self.rank] = own;
        for r in 0..self.ranks {
            if r != self.rank {
                inbox[r] = self.recv(r, tag);
            }
        }
        inbox
    }

    /// Synchronize all ranks. Aborts with a typed error if a peer crashes
    /// (poisoned barrier) or the configured timeout elapses.
    pub fn barrier(&mut self) {
        match self.barrier.wait(self.timeout) {
            BarrierWait::Released => {}
            BarrierWait::Poisoned(peer) => {
                self.abort(MsgError::PeerCrashed { rank: self.rank, peer });
            }
            BarrierWait::TimedOut => {
                let e = MsgError::BarrierTimeout { rank: self.rank, secs: self.timeout.as_secs() };
                self.abort(e);
            }
        }
    }

    /// All-reduce a `u64` with a binary op (implemented as gather at rank
    /// 0 + broadcast; cost is charged via the underlying sends).
    pub fn allreduce_u64(&mut self, tag: u32, value: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        let lo = (value & 0xFFFF_FFFF) as u32;
        let hi = (value >> 32) as u32;
        if self.rank == 0 {
            let mut acc = value;
            for r in 1..self.ranks {
                let d = self.recv(r, tag);
                acc = op(acc, (d[1] as u64) << 32 | d[0] as u64);
            }
            for r in 1..self.ranks {
                self.send(r, tag + 1, vec![(acc & 0xFFFF_FFFF) as u32, (acc >> 32) as u32]);
            }
            acc
        } else {
            self.send(0, tag, vec![lo, hi]);
            let d = self.recv(0, tag + 1);
            (d[1] as u64) << 32 | d[0] as u64
        }
    }

    /// Gather every rank's vector at rank 0 (others receive empty).
    #[allow(clippy::needless_range_loop)] // rank-indexed recv loop
    pub fn gather(&mut self, tag: u32, data: Vec<u32>) -> Vec<Vec<u32>> {
        if self.rank == 0 {
            let mut all: Vec<Vec<u32>> = (0..self.ranks).map(|_| Vec::new()).collect();
            all[0] = data;
            for r in 1..self.ranks {
                all[r] = self.recv(r, tag);
            }
            all
        } else {
            self.send(0, tag, data);
            Vec::new()
        }
    }

    /// Broadcast rank 0's vector to everyone.
    pub fn bcast(&mut self, tag: u32, data: Vec<u32>) -> Vec<u32> {
        if self.rank == 0 {
            for r in 1..self.ranks {
                self.send(r, tag, data.clone());
            }
            data
        } else {
            self.recv(0, tag)
        }
    }

    /// Charge local compute work to the current phase.
    pub fn work(&mut self, edges: u64, vertices: u64) {
        self.edges += edges;
        self.vertices += vertices;
    }

    /// Record the working-set size of the current phase (max of calls).
    pub fn ws(&mut self, bytes: u64) {
        self.ws_bytes = self.ws_bytes.max(bytes);
    }

    /// Close the current phase under `name`, snapshotting work and
    /// communication counters.
    pub fn phase_end(&mut self, name: &str) {
        self.phases.push(RankPhase {
            name: name.to_string(),
            edges: std::mem::take(&mut self.edges),
            vertices: std::mem::take(&mut self.vertices),
            msgs: std::mem::take(&mut self.msgs),
            bytes: std::mem::take(&mut self.bytes),
            ws_bytes: std::mem::take(&mut self.ws_bytes),
        });
    }
}

/// Wall-clock backoff for message retries/delays: the modeled α–β cost is
/// unaffected (the BSP model charges successful traffic), but a real sleep
/// keeps retried sends from busy-spinning. Capped so exhausted budgets
/// stay fast.
fn backoff_wall(retry: &RetryPolicy, attempt: u32) -> Duration {
    Duration::from_secs_f64(retry.backoff_secs(attempt).min(0.02))
}

/// Run `f` on every rank of a simulated cluster; returns each rank's
/// result and phase records, indexed by rank.
///
/// Ranks block on each other (barriers, `recv`), so they cannot share the
/// fixed-width chunk pool — a rank parked on a barrier would starve the
/// rank it is waiting for. They run on [`gpm_pool::scoped_blocking`]'s
/// dedicated seat threads instead, which persist across calls like the
/// pool workers do.
///
/// Panics if the cluster fails (a rank timed out, crashed, or was crashed
/// by a fault schedule) — the legacy surface. Use [`try_run_cluster`] for
/// the typed error.
pub fn run_cluster<T, F>(cfg: &ClusterConfig, f: F) -> Vec<(T, Vec<RankPhase>)>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    try_run_cluster(cfg, f).unwrap_or_else(|e| panic!("cluster failed: {e}"))
}

/// [`run_cluster`] with a typed error surface: a rank that times out,
/// observes a crashed peer, or is crashed by the active `GPM_FAULTS`
/// schedule aborts the run and the root-cause [`MsgError`] is returned
/// instead of panicking inside the rank body.
pub fn try_run_cluster<T, F>(
    cfg: &ClusterConfig,
    f: F,
) -> Result<Vec<(T, Vec<RankPhase>)>, MsgError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let injector = match FaultPlan::from_env() {
        Ok(Some(plan)) => Some(Arc::new(FaultInjector::new(plan))),
        Ok(None) => None,
        Err(e) => return Err(MsgError::BadFaultPlan(e.to_string())),
    };
    try_run_cluster_with(cfg, injector, f)
}

/// [`try_run_cluster`] under an explicit fault injector (or `None` for a
/// clean run). Sites per rank `r`: `msg.send.r<r>`, `msg.recv.r<r>`,
/// `msg.crash.r<r>` — rank-scoped counters keep schedules deterministic
/// regardless of thread interleaving.
pub fn try_run_cluster_with<T, F>(
    cfg: &ClusterConfig,
    injector: Option<Arc<FaultInjector>>,
    f: F,
) -> Result<Vec<(T, Vec<RankPhase>)>, MsgError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let p = cfg.ranks;
    assert!(p >= 1);
    let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(p);
    let mut receivers: Vec<Mutex<Option<Receiver<Msg>>>> = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(Mutex::new(Some(r)));
    }
    let barrier = Arc::new(PoisonBarrier::new(p));
    let timeout = Duration::from_secs(cfg.timeout_secs.max(1));
    let active = injector.as_ref().is_some_and(|i| i.is_active());
    let results = gpm_pool::scoped_blocking(p, |rank| {
        let receiver = receivers[rank].lock().unwrap().take().expect("rank body runs once");
        let mut ctx = RankCtx {
            rank,
            ranks: p,
            senders: senders.clone(),
            receiver,
            stash: Vec::new(),
            barrier: barrier.clone(),
            timeout,
            injector: injector.clone(),
            retry: RetryPolicy::default(),
            sites: active.then(|| RankSites {
                send: format!("msg.send.r{rank}"),
                recv: format!("msg.recv.r{rank}"),
                crash: format!("msg.crash.r{rank}"),
            }),
            msgs: 0,
            bytes: 0,
            edges: 0,
            vertices: 0,
            ws_bytes: 0,
            phases: Vec::new(),
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
        match out {
            Ok(result) => {
                if ctx.edges > 0 || ctx.vertices > 0 || ctx.msgs > 0 {
                    ctx.phase_end("tail");
                }
                Ok((result, ctx.phases))
            }
            Err(payload) => match payload.downcast::<RankAbort>() {
                Ok(abort) => Err(abort.0),
                // A genuine user panic (test assertion, bug): re-raise so
                // scoped_blocking surfaces it unchanged.
                Err(payload) => std::panic::resume_unwind(payload),
            },
        }
    });
    let mut results: Vec<Result<(T, Vec<RankPhase>), MsgError>> = results;
    // Root-cause selection, deterministically: a direct failure
    // (timeout/injected crash/send exhaustion) beats the PeerCrashed
    // echoes it causes; ties break by rank order.
    let mut first_peer_crash = None;
    for (i, r) in results.iter().enumerate() {
        if let Err(e) = r {
            match e {
                MsgError::PeerCrashed { .. } => {
                    if first_peer_crash.is_none() {
                        first_peer_crash = Some(i);
                    }
                }
                _ => return Err(e.clone()),
            }
        }
    }
    if let Some(i) = first_peer_crash {
        if let Err(e) = &results[i] {
            return Err(e.clone());
        }
    }
    Ok(results.drain(..).map(|r| r.expect("all ranks succeeded")).collect())
}

/// Modeled BSP seconds for aligned phase records: for each phase index,
/// `max over ranks(compute) + max over ranks(comm)`, where compute comes
/// from `compute_secs(phase)` (letting the caller apply cache-aware
/// rates) and comm uses α–β.
pub fn bsp_time(
    all: &[Vec<RankPhase>],
    cfg: &ClusterConfig,
    compute_secs: impl Fn(&RankPhase) -> f64,
) -> Vec<(String, f64)> {
    if all.is_empty() {
        return Vec::new();
    }
    let n_phases = all.iter().map(|v| v.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(n_phases);
    for i in 0..n_phases {
        let name = all.iter().find_map(|v| v.get(i)).map(|p| p.name.clone()).unwrap_or_default();
        let mut compute: f64 = 0.0;
        let mut comm: f64 = 0.0;
        for rank_phases in all {
            if let Some(p) = rank_phases.get(i) {
                compute = compute.max(compute_secs(p));
                comm = comm.max(p.msgs as f64 * cfg.alpha + p.bytes as f64 * cfg.beta);
            }
        }
        out.push((name, compute + comm));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize) -> ClusterConfig {
        ClusterConfig::intra_node(p)
    }

    #[test]
    fn ping_pong() {
        let res = run_cluster(&cfg(2), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![1, 2, 3]);
                ctx.recv(1, 8)
            } else {
                let d = ctx.recv(0, 7);
                ctx.send(0, 8, d.iter().map(|x| x * 2).collect());
                vec![]
            }
        });
        assert_eq!(res[0].0, vec![2, 4, 6]);
    }

    #[test]
    fn out_of_order_tags_stashed() {
        let res = run_cluster(&cfg(2), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 1, vec![10]);
                ctx.send(1, 2, vec![20]);
                0
            } else {
                let b = ctx.recv(0, 2); // ask for the later tag first
                let a = ctx.recv(0, 1);
                (b[0] + a[0]) as usize
            }
        });
        assert_eq!(res[1].0, 30);
    }

    #[test]
    fn all_to_all_exchanges() {
        let p = 4;
        let res = run_cluster(&cfg(p), |ctx| {
            let out: Vec<Vec<u32>> = (0..p).map(|r| vec![(ctx.rank * 10 + r) as u32]).collect();
            ctx.all_to_all(5, out)
        });
        for (me, (inbox, _)) in res.iter().enumerate() {
            for (from, v) in inbox.iter().enumerate() {
                assert_eq!(v, &vec![(from * 10 + me) as u32]);
            }
        }
    }

    #[test]
    fn allreduce_max_and_sum() {
        let res = run_cluster(&cfg(3), |ctx| {
            let m = ctx.allreduce_u64(100, ctx.rank as u64 * 7, u64::max);
            let s = ctx.allreduce_u64(200, ctx.rank as u64 + 1, |a, b| a + b);
            (m, s)
        });
        for (r, _) in &res {
            assert_eq!(r.0, 14);
            assert_eq!(r.1, 6);
        }
    }

    #[test]
    fn gather_and_bcast() {
        let res = run_cluster(&cfg(3), |ctx| {
            let gathered = ctx.gather(1, vec![ctx.rank as u32]);
            let total = if ctx.rank == 0 { gathered.iter().map(|v| v[0]).sum::<u32>() } else { 0 };
            let b = ctx.bcast(2, vec![total]);
            b[0]
        });
        for (v, _) in &res {
            assert_eq!(*v, 3); // 0 + 1 + 2
        }
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let res = run_cluster(&cfg(4), |ctx| {
            for _ in 0..10 {
                ctx.barrier();
            }
            ctx.rank
        });
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn phases_record_work_and_comm() {
        let res = run_cluster(&cfg(2), |ctx| {
            ctx.work(100, 10);
            if ctx.rank == 0 {
                ctx.send(1, 1, vec![0; 25]);
            } else {
                ctx.recv(0, 1);
            }
            ctx.phase_end("alpha");
            ctx.work(5, 5);
            ctx.phase_end("beta");
        });
        let p0 = &res[0].1;
        assert_eq!(p0.len(), 2);
        assert_eq!(p0[0].name, "alpha");
        assert_eq!(p0[0].edges, 100);
        assert_eq!(p0[0].msgs, 1);
        assert_eq!(p0[0].bytes, 100);
        assert_eq!(p0[1].msgs, 0);
    }

    #[test]
    fn bsp_time_uses_max_rank() {
        let phases = vec![
            vec![RankPhase {
                name: "x".into(),
                edges: 1000,
                vertices: 0,
                msgs: 0,
                bytes: 0,
                ws_bytes: 0,
            }],
            vec![RankPhase {
                name: "x".into(),
                edges: 10,
                vertices: 0,
                msgs: 2,
                bytes: 400,
                ws_bytes: 0,
            }],
        ];
        let c = cfg(2);
        let t = bsp_time(&phases, &c, |p| p.edges as f64 * 1e-8 + p.vertices as f64 * 1e-9);
        assert_eq!(t.len(), 1);
        let expect = 1000.0 * 1e-8 + (2.0 * c.alpha + 400.0 * c.beta);
        assert!((t[0].1 - expect).abs() < 1e-12, "{} vs {}", t[0].1, expect);
    }

    #[test]
    fn single_rank_cluster() {
        let res = run_cluster(&cfg(1), |ctx| {
            let inbox = ctx.all_to_all(1, vec![vec![42]]);
            inbox[0][0]
        });
        assert_eq!(res[0].0, 42);
    }

    // ---- fault injection & typed failure surface ----

    use gpm_faults::Selector;

    fn inj(plan: FaultPlan) -> Option<Arc<FaultInjector>> {
        Some(Arc::new(FaultInjector::new(plan)))
    }

    #[test]
    fn recv_timeout_is_typed_not_a_panic() {
        // Rank 0 waits for a message nobody sends; the configured (1 s)
        // timeout surfaces as a typed RecvTimeout through try_run_cluster.
        let err = try_run_cluster(&cfg(2).with_timeout_secs(1), |ctx| {
            if ctx.rank == 0 {
                ctx.recv(1, 9)
            } else {
                vec![]
            }
        })
        .unwrap_err();
        assert_eq!(err, MsgError::RecvTimeout { rank: 0, from: 1, tag: 9, secs: 1 });
    }

    #[test]
    fn injected_rank_crash_is_root_cause() {
        let plan = FaultPlan::new(3).with("msg.crash.r1", Selector::One(0), FaultKind::RankCrash);
        let err = try_run_cluster_with(&cfg(2).with_timeout_secs(30), inj(plan), |ctx| {
            if ctx.rank == 0 {
                ctx.recv(1, 7)
            } else {
                ctx.send(0, 7, vec![1]);
                vec![]
            }
        })
        .unwrap_err();
        // Rank 0 observes PeerCrashed, but the reported root cause is the
        // injected crash on rank 1.
        assert_eq!(err, MsgError::InjectedCrash { rank: 1 });
    }

    #[test]
    fn crash_notice_wakes_blocked_peer_fast() {
        // Timeout is 60 s; the crash notice must unblock rank 0 in well
        // under that.
        let started = std::time::Instant::now();
        let plan = FaultPlan::new(4).with("msg.crash.r1", Selector::One(0), FaultKind::RankCrash);
        let err = try_run_cluster_with(&cfg(2).with_timeout_secs(60), inj(plan), |ctx| {
            if ctx.rank == 0 {
                ctx.recv(1, 7)
            } else {
                ctx.send(0, 7, vec![1]);
                vec![]
            }
        })
        .unwrap_err();
        assert_eq!(err, MsgError::InjectedCrash { rank: 1 });
        assert!(started.elapsed() < std::time::Duration::from_secs(30), "peer waited out timeout");
    }

    #[test]
    fn crash_poisons_barrier() {
        // Rank 2 crashes before the barrier; parked ranks wake poisoned
        // instead of timing out.
        let plan = FaultPlan::new(5).with("msg.crash.r2", Selector::One(0), FaultKind::RankCrash);
        let err = try_run_cluster_with(&cfg(3).with_timeout_secs(60), inj(plan), |ctx| {
            if ctx.rank == 2 {
                ctx.send(0, 1, vec![]); // crash point fires here
            }
            ctx.barrier();
        })
        .unwrap_err();
        assert_eq!(err, MsgError::InjectedCrash { rank: 2 });
    }

    #[test]
    fn dropped_sends_are_retried_transparently() {
        // First two attempts of rank 0's first send are dropped; the
        // bounded retry redelivers and the run still succeeds.
        let plan = FaultPlan::new(6).with("msg.send.r0", Selector::Range(0, 2), FaultKind::MsgDrop);
        let res = try_run_cluster_with(&cfg(2), inj(plan), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![1, 2, 3]);
                vec![]
            } else {
                ctx.recv(0, 7)
            }
        })
        .unwrap();
        assert_eq!(res[1].0, vec![1, 2, 3]);
    }

    #[test]
    fn drop_every_attempt_exhausts_retry_budget() {
        let plan = FaultPlan::new(7).with("msg.send.r0", Selector::Always, FaultKind::MsgDrop);
        let err = try_run_cluster_with(&cfg(2).with_timeout_secs(2), inj(plan), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![1]);
            } else {
                let _ = ctx.recv(0, 7);
            }
        })
        .unwrap_err();
        assert_eq!(err, MsgError::SendFailed { rank: 0, to: 1, tag: 7, attempts: 4 });
    }

    #[test]
    fn delayed_messages_still_arrive() {
        let plan = FaultPlan::new(8).with("msg.send.r0", Selector::Always, FaultKind::MsgDelay);
        let res = try_run_cluster_with(&cfg(2), inj(plan), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![9]);
                vec![]
            } else {
                ctx.recv(0, 7)
            }
        })
        .unwrap();
        assert_eq!(res[1].0, vec![9]);
    }

    #[test]
    fn timeout_env_var_sets_default() {
        // Whatever GPM_MSG_TIMEOUT_SECS holds must land in intra_node's
        // default (60 when unset).
        match std::env::var("GPM_MSG_TIMEOUT_SECS") {
            Ok(v) => assert_eq!(cfg(2).timeout_secs.to_string(), v),
            Err(_) => assert_eq!(cfg(2).timeout_secs, 60),
        }
        assert_eq!(cfg(2).with_timeout_secs(5).timeout_secs, 5);
    }

    #[test]
    fn with_deadline_caps_but_never_raises_timeout() {
        let c = cfg(2).with_timeout_secs(60);
        assert_eq!(c.with_deadline(Duration::from_millis(2_500)).timeout_secs, 3);
        assert_eq!(c.with_deadline(Duration::from_millis(1)).timeout_secs, 1);
        // an already-shorter timeout is kept
        let short = cfg(2).with_timeout_secs(2);
        assert_eq!(short.with_deadline(Duration::from_secs(100)).timeout_secs, 2);
    }

    #[test]
    fn user_panics_still_surface_as_panics() {
        // A genuine bug in a rank body must not be swallowed into an
        // MsgError — it re-raises through scoped_blocking.
        let out = std::panic::catch_unwind(|| {
            run_cluster(&cfg(2).with_timeout_secs(1), |ctx| {
                if ctx.rank == 1 {
                    panic!("rank body bug");
                }
            })
        });
        assert!(out.is_err());
    }
}
