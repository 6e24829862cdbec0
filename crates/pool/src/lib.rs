//! Persistent work-stealing executor for all parallel phases.
//!
//! Every parallel phase in the workspace used to create and join a fresh
//! team of OS threads via `std::thread::scope` on each invocation; the
//! handshake matcher alone spawns two teams per round, so one multilevel
//! run paid thousands of thread spawns. This crate replaces that with a
//! lazily initialized, process-wide pool of persistent workers (the design
//! shared-memory partitioners like mt-metis and Mt-KaHyPar rely on):
//!
//! * [`parallel_chunks`] — run `n` indexed chunk closures on the pool and
//!   return their results *in index order*. Chunks are pre-distributed
//!   round-robin over per-participant deques; idle workers steal from the
//!   back of other deques, so a skewed chunk cannot serialize the phase.
//!   The submitting thread participates (drains and steals like a
//!   worker), so the call makes progress even when every pool worker is
//!   busy with another batch.
//! * [`scoped_blocking`] — fork-join over tasks that may *block on each
//!   other* (barriers, message receives): each task gets a dedicated
//!   persistent thread from a grow-on-demand cache. This serves the
//!   per-rank fan-out of the MPI stand-in, which cannot run on a
//!   fixed-size chunk pool without deadlocking.
//! * [`chunks_by_prefix`] — split an index range on a prefix-sum array so
//!   every chunk carries roughly equal summed work (used to edge-balance
//!   vertex ranges over a CSR `xadj` array).
//!
//! # Size and wake protocol
//!
//! The global pool runs one participant per core: `available_parallelism
//! − 1` workers plus the submitting thread. Most batches are small — a
//! served job issues ~150 of them, a few µs of work per chunk — so the
//! hand-off, not the work, sets their latency. Parking a worker on a
//! futex after every batch and waking it for the next costs more than
//! the chunks themselves, so when the pool fits the machine
//! (`workers + 1 ≤ available_parallelism`) both sides spin briefly
//! before they park:
//!
//! * An idle worker watches a batch-epoch counter for `WORKER_SPIN`
//!   (200 µs). Measured on the serve path, the median gap between one
//!   batch and the next on a job thread is 16–64 µs and 94% of gaps are
//!   under 256 µs, so the next batch usually finds the worker awake.
//! * A submitter that has run out of chunks to claim spins on its
//!   batch's atomic countdown for `SUBMITTER_SPIN` (50 µs) — about the
//!   length of a stolen small chunk — before it parks.
//! * Either side notifies a condvar only when a thread is actually parked
//!   on it, so a batch handed to awake threads makes no syscall.
//!
//! An oversubscribed pool (more participants than cores, e.g.
//! `GPM_THREADS=8` on a 2-core host) parks at once: a spinning thread
//! there would steal the core that runs the work it waits for. After the
//! bound an idle process holds no spinning thread.
//!
//! # Determinism
//!
//! The executor never makes results depend on scheduling, provided chunk
//! closures read only state frozen for the duration of the batch (the
//! discipline every ported phase already follows): chunk boundaries are a
//! pure function of the input, each chunk index runs exactly once, and
//! results are returned / reduced in index order — never in completion
//! order. Steal order is therefore unobservable; the testkit knob
//! `GPM_POOL_STEAL_FUZZ=1` randomizes it to let tests *prove* scheduling
//! independence rather than assume it.
//!
//! # Environment
//!
//! * `GPM_THREADS` — worker count of the global pool (default: available
//!   parallelism − 1, so with the submitter one participant per core).
//!   Read once, at first use.
//! * `GPM_POOL_STEAL_FUZZ` — when set (and not `0`), steal victim order
//!   is randomized per batch. Results must not change; tests rely on it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Executor telemetry (gpm-serve exposes these in its stats endpoint)
// ---------------------------------------------------------------------------

/// Monotonic counters over the life of the process: fork-join batches and
/// chunks submitted to [`parallel_chunks`] (inline fast paths included),
/// blocking tasks dispatched through [`scoped_blocking`], and thread parks
/// of the chunk pool. Purely observational — never read back by any
/// phase, so they cannot affect results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fork-join batches submitted (one per `parallel_chunks` call).
    pub batches: u64,
    /// Total chunk closures those batches carried.
    pub chunks: u64,
    /// Tasks dispatched onto dedicated blocking seats.
    pub blocking_tasks: u64,
    /// Condvar waits of the chunk pool: an idle worker parking for work,
    /// or a submitter parking for its batch's last chunk. Depends on
    /// timing, so unlike the other counters it does not repeat run to run.
    pub parks: u64,
}

static BATCHES: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static BLOCKING_TASKS: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide executor counters.
pub fn stats() -> PoolStats {
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        blocking_tasks: BLOCKING_TASKS.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Balanced chunking
// ---------------------------------------------------------------------------

/// Split `0..n` into `t` contiguous chunks of near-equal *length*,
/// returning the `(start, end)` of chunk `i`. The static ownership scheme
/// mt-metis gives its threads; kept for phases whose per-item cost is
/// uniform.
pub fn chunk_range(n: usize, t: usize, i: usize) -> (usize, usize) {
    let base = n / t;
    let rem = n % t;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (start, start + len)
}

/// Split `0..prefix.len()-1` into contiguous chunks carrying roughly
/// `grain` units each, where item `i` weighs `prefix[i+1] - prefix[i]`
/// (a CSR `xadj` array makes this *edge*-balanced chunking of a vertex
/// range). Every chunk is the shortest range whose summed weight reaches
/// `grain`, so a single heavy item gets its own chunk and rmat-style
/// skewed inputs no longer serialize behind one overloaded range.
///
/// Deterministic: a pure function of `prefix` and `grain`.
pub fn chunks_by_prefix(prefix: &[u32], grain: u64) -> Vec<(usize, usize)> {
    let n = prefix.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let grain = grain.max(1);
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let start = prefix[lo] as u64;
        let mut hi = lo + 1; // at least one item, however heavy
                             // extend while the chunk is under grain and the next item would
                             // not itself fill a chunk (heavy items stay isolated)
        while hi < n
            && (prefix[hi] as u64 - start) < grain
            && ((prefix[hi + 1] - prefix[hi]) as u64) < grain
        {
            hi += 1;
        }
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Grain so that `total` units split into about `parts * oversub` chunks
/// (oversubscription gives the stealer room to balance).
pub fn grain_for(total: u64, parts: usize, oversub: usize) -> u64 {
    (total / (parts.max(1) as u64 * oversub.max(1) as u64)).max(1)
}

// ---------------------------------------------------------------------------
// Small local RNG (steal fuzz only — never observable in results)
// ---------------------------------------------------------------------------

struct FuzzRng(u64);

impl FuzzRng {
    fn new(seed: u64) -> Self {
        FuzzRng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn steal_fuzz() -> bool {
    std::env::var_os("GPM_POOL_STEAL_FUZZ").is_some_and(|v| v != "0")
}

// ---------------------------------------------------------------------------
// Erased chunk task
// ---------------------------------------------------------------------------

/// Type-erased pointer to the submitter's stack-resident chunk closure.
///
/// Safety protocol: the pointer is dereferenced only between a successful
/// chunk claim and that chunk's completion. The submitter blocks until
/// every chunk has completed, so the closure (and everything it borrows)
/// strictly outlives all dereferences. After completion the pointer may
/// dangle inside still-referenced `BatchCore`s, but claims fail (deques
/// empty) and it is never dereferenced again.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));

unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

impl RawTask {
    /// Erase the closure's lifetime.
    ///
    /// Safety: the caller must not return until every dereference has
    /// completed (the protocol documented on the type).
    unsafe fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> Self {
        RawTask(std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + 'a),
            *const (dyn Fn(usize) + Sync + 'static),
        >(task as *const _))
    }
}

/// A write-once result slot. Distinct chunk indices write distinct slots
/// exactly once (each index appears in exactly one deque), so unsynchronized
/// interior mutability is safe; the submitter reads only after completion.
struct Slot<T>(std::cell::UnsafeCell<Option<T>>);

unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot(std::cell::UnsafeCell::new(None))
    }

    /// Called exactly once, by whichever thread runs this chunk.
    fn put(&self, v: T) {
        unsafe { *self.0.get() = Some(v) }
    }

    fn take(self) -> Option<T> {
        self.0.into_inner()
    }
}

// ---------------------------------------------------------------------------
// Batch: one fork-join submitted to the pool
// ---------------------------------------------------------------------------

/// How long an idle worker watches the batch epoch before it parks: above
/// the 16–64 µs median gap between consecutive batches of a served job and
/// near the 256 µs that 94% of those gaps stay under (crate docs).
const WORKER_SPIN: Duration = Duration::from_micros(200);

/// How long a submitter that ran out of chunks to claim spins on its
/// batch's countdown before it parks: about one small stolen chunk.
const SUBMITTER_SPIN: Duration = Duration::from_micros(50);

/// Spin until `done()` holds (true) or `bound` elapses (false). A zero
/// bound checks `done()` once.
fn spin_until(bound: Duration, done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if done() {
            return true;
        }
        if start.elapsed() >= bound {
            return false;
        }
        std::hint::spin_loop();
    }
}

struct BatchCore {
    /// Pending chunk indices: one deque per worker plus one for the
    /// submitter (the last). Owners pop the front; thieves pop the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Chunks not yet *completed*; the submitter returns at 0.
    left: AtomicUsize,
    /// Set by the submitter before it parks on `done_cv`; the thread that
    /// completes the last chunk notifies only when it is set.
    parked: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
    task: RawTask,
}

impl BatchCore {
    fn new(n_chunks: usize, n_deques: usize, task: RawTask) -> Self {
        let mut deques: Vec<VecDeque<usize>> = (0..n_deques).map(|_| VecDeque::new()).collect();
        for i in 0..n_chunks {
            deques[i % n_deques].push_back(i);
        }
        BatchCore {
            deques: deques.into_iter().map(Mutex::new).collect(),
            left: AtomicUsize::new(n_chunks),
            parked: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            task,
        }
    }

    fn has_work(&self) -> bool {
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    /// Claim the next chunk for participant `me`: own deque first, then
    /// steal. Victim order is deterministic unless `fuzz` randomizes the
    /// starting victim (results cannot depend on it — see crate docs).
    fn claim(&self, me: usize, fuzz: bool, rng: &mut FuzzRng) -> Option<usize> {
        if let Some(i) = self.deques[me].lock().unwrap().pop_front() {
            return Some(i);
        }
        let d = self.deques.len();
        let start = if fuzz { (rng.next() % d as u64) as usize } else { me + 1 };
        for k in 0..d {
            let v = (start + k) % d;
            if v == me {
                continue;
            }
            if let Some(i) = self.deques[v].lock().unwrap().pop_back() {
                return Some(i);
            }
        }
        None
    }

    /// Run one claimed chunk and record its completion.
    fn run(&self, i: usize) {
        // Safety: see `RawTask`. `left > 0` for the whole call.
        unsafe { (*self.task.0)(i) };
        // SeqCst on `left` and `parked`, here and in `wait_done`: in their
        // single total order either the submitter's `left` load follows
        // this decrement (it sees 0 and never waits) or this `parked` load
        // follows its store (we notify, under `done`, which it holds from
        // its check until it waits). The decrement also releases the
        // chunk's result slot to the submitter's acquiring load.
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 && self.parked.load(Ordering::SeqCst) {
            let _done = self.done.lock().unwrap();
            self.done_cv.notify_one();
        }
    }

    /// Wait until every chunk completed: spin for `spin`, then park.
    fn wait_done(&self, spin: Duration) {
        let finished = || self.left.load(Ordering::SeqCst) == 0;
        if spin_until(spin, finished) {
            return;
        }
        self.parked.store(true, Ordering::SeqCst);
        let mut done = self.done.lock().unwrap();
        while !finished() {
            PARKS.fetch_add(1, Ordering::Relaxed);
            done = self.done_cv.wait(done).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

struct Inbox {
    /// Active batches. Workers scan for one with pending chunks.
    batches: Vec<Arc<BatchCore>>,
    /// Workers parked on `inbox_cv`; a submitter notifies only when > 0.
    parked: usize,
}

impl Inbox {
    fn find_work(&self) -> Option<Arc<BatchCore>> {
        self.batches.iter().find(|b| b.has_work()).cloned()
    }
}

struct Shared {
    inbox: Mutex<Inbox>,
    inbox_cv: Condvar,
    /// Bumped under the inbox lock whenever a batch is pushed; spinning
    /// idle workers watch it instead of taking the lock.
    epoch: AtomicU64,
    /// Whether idle threads spin before parking (see crate docs).
    spin: bool,
    /// Spin-waits entered by this pool's threads (tests check that an
    /// oversubscribed pool never spins).
    spins: AtomicU64,
}

impl Shared {
    /// The bound a spin-wait gets here: `bound`, or zero in a pool that
    /// must not spin.
    fn spin_bound(&self, bound: Duration) -> Duration {
        if !self.spin {
            return Duration::ZERO;
        }
        self.spins.fetch_add(1, Ordering::Relaxed);
        bound
    }

    /// Block until some batch has pending chunks: watch the epoch for
    /// `WORKER_SPIN` (rescanning whenever it moves), then park.
    fn next_batch(&self) -> Arc<BatchCore> {
        let mut inbox = self.inbox.lock().unwrap();
        loop {
            if let Some(b) = inbox.find_work() {
                return b;
            }
            // read under the lock that every push holds, so a batch
            // pushed after this scan always moves the epoch
            let seen = self.epoch.load(Ordering::Relaxed);
            drop(inbox);
            let bound = self.spin_bound(WORKER_SPIN);
            let moved = spin_until(bound, || self.epoch.load(Ordering::Relaxed) != seen);
            inbox = self.inbox.lock().unwrap();
            if !moved {
                break;
            }
        }
        // Registered as parked under the lock that every push holds: a
        // push either precedes this scan or sees `parked > 0` and
        // notifies after we wait.
        inbox.parked += 1;
        let batch = loop {
            if let Some(b) = inbox.find_work() {
                break b;
            }
            PARKS.fetch_add(1, Ordering::Relaxed);
            inbox = self.inbox_cv.wait(inbox).unwrap();
        };
        inbox.parked -= 1;
        batch
    }
}

/// A persistent pool of worker threads. Most callers use the process-wide
/// instance via the free functions; a dedicated instance ([`Pool::new`])
/// exists for tests that need a specific size.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

thread_local! {
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|c| c.get())
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    IN_POOL_WORKER.with(|c| c.set(true));
    let mut rng = FuzzRng::new(me as u64);
    loop {
        let batch = shared.next_batch();
        let fuzz = steal_fuzz();
        while let Some(i) = batch.claim(me, fuzz, &mut rng) {
            batch.run(i);
        }
    }
}

/// Cores this process may run on (1 when unknown).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl Pool {
    /// Spawn a pool with `workers` worker threads. `workers == 0`
    /// degenerates to inline (serial) execution. Idle threads spin before
    /// parking only when the workers plus a submitter fit on the cores.
    pub fn new(workers: usize) -> Self {
        Self::with_spin(workers, workers < cores())
    }

    fn with_spin(workers: usize, spin: bool) -> Self {
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox { batches: Vec::new(), parked: 0 }),
            inbox_cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            spin,
            spins: AtomicU64::new(0),
        });
        for w in 0..workers {
            let s = shared.clone();
            std::thread::Builder::new()
                .name(format!("gpm-pool-{w}"))
                .spawn(move || worker_loop(s, w))
                .expect("spawn pool worker");
        }
        Pool { shared, workers }
    }

    /// Number of worker threads (excluding participating submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Threads that run one batch: the workers plus the submitter. Size
    /// chunk counts from this; it is never 0.
    pub fn participants(&self) -> usize {
        self.workers + 1
    }

    /// Run `f(0), …, f(n-1)` on the pool and return the results in index
    /// order. See the crate docs for the determinism contract.
    ///
    /// Panics in a chunk are caught, the batch still runs to completion
    /// (matching `std::thread::scope`, which joins before propagating),
    /// and the first panic is re-raised on the submitting thread.
    pub fn parallel_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        BATCHES.fetch_add(1, Ordering::Relaxed);
        CHUNKS.fetch_add(n as u64, Ordering::Relaxed);
        // Inline when parallelism cannot help — and on re-entrant calls
        // from a pool worker, which must not block waiting for siblings
        // that may all be parked on *this* batch's completion.
        if n == 1 || self.workers == 0 || in_pool_worker() {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Slot<T>> = (0..n).map(|_| Slot::new()).collect();
        let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let task = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => slots[i].put(v),
            Err(e) => {
                let mut p = panic.lock().unwrap();
                if p.is_none() {
                    *p = Some(e);
                }
            }
        };
        let n_deques = self.participants();
        // Safety: `wait_done` below blocks until every chunk completed.
        let core = Arc::new(BatchCore::new(n, n_deques, unsafe { RawTask::erase(&task) }));
        let wake = {
            let mut inbox = self.shared.inbox.lock().unwrap();
            inbox.batches.push(core.clone());
            self.shared.epoch.fetch_add(1, Ordering::Relaxed);
            inbox.parked > 0
        };
        if wake {
            self.shared.inbox_cv.notify_all();
        }

        // The submitter participates like a worker (guarantees progress
        // even when every worker is busy with another batch).
        let me = n_deques - 1;
        let fuzz = steal_fuzz();
        let mut rng = FuzzRng::new(0xCA11E2);
        while let Some(i) = core.claim(me, fuzz, &mut rng) {
            core.run(i);
        }
        core.wait_done(self.shared.spin_bound(SUBMITTER_SPIN));
        self.shared.inbox.lock().unwrap().batches.retain(|b| !Arc::ptr_eq(b, &core));

        if let Some(p) = panic.into_inner().unwrap() {
            resume_unwind(p);
        }
        slots.into_iter().map(|s| s.take().expect("every chunk ran")).collect()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with `GPM_THREADS` workers
/// (default: available parallelism − 1; the submitter is the last
/// participant).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let workers = std::env::var("GPM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| cores() - 1)
            .min(256);
        Pool::new(workers)
    })
}

/// [`Pool::parallel_chunks`] on the global pool.
pub fn parallel_chunks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    global().parallel_chunks(n, f)
}

// ---------------------------------------------------------------------------
// Blocking scoped executor (rank fan-out)
// ---------------------------------------------------------------------------

/// A parked dedicated thread awaiting one blocking task at a time.
struct Seat {
    job: Mutex<Option<(RawTask, usize, Arc<Countdown>)>>,
    cv: Condvar,
}

/// Outstanding tasks of one [`scoped_blocking`] call. Heap-shared so a
/// seat can signal it after its task returned and it rejoined the idle
/// list.
struct Countdown {
    left: Mutex<usize>,
    cv: Condvar,
}

impl Countdown {
    fn done_one(&self) {
        let mut left = self.left.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }
}

struct BlockingShared {
    idle: Mutex<Vec<Arc<Seat>>>,
    spawned: Mutex<usize>,
}

static BLOCKING: OnceLock<BlockingShared> = OnceLock::new();

fn blocking_shared() -> &'static BlockingShared {
    BLOCKING.get_or_init(|| BlockingShared { idle: Mutex::new(Vec::new()), spawned: Mutex::new(0) })
}

fn blocking_loop(seat: Arc<Seat>, shared: &'static BlockingShared) {
    loop {
        let (task, index, countdown) = {
            let mut j = seat.job.lock().unwrap();
            loop {
                if let Some(job) = j.take() {
                    break job;
                }
                j = seat.cv.wait(j).unwrap();
            }
        };
        // Safety: see `RawTask` — the submitter blocks on `countdown`,
        // which is signalled only after this call returned.
        unsafe { (*task.0)(index) };
        // Idle again *before* signalling, so the submitter's next call
        // reuses this seat instead of spawning another.
        shared.idle.lock().unwrap().push(seat.clone());
        countdown.done_one();
    }
}

/// Fork-join over `p` tasks that may block on one another (barriers,
/// channel receives): every task runs on its own dedicated thread, taken
/// from a persistent grow-on-demand cache instead of being spawned fresh.
/// Task 0 runs on the calling thread. Results return in index order; a
/// panicking task is re-raised on the caller after all tasks finish.
pub fn scoped_blocking<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if p == 0 {
        return Vec::new();
    }
    BLOCKING_TASKS.fetch_add(p as u64, Ordering::Relaxed);
    let slots: Vec<Slot<T>> = (0..p).map(|_| Slot::new()).collect();
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let countdown = Arc::new(Countdown { left: Mutex::new(p), cv: Condvar::new() });
    let task = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(i))) {
        Ok(v) => slots[i].put(v),
        Err(e) => {
            let mut pl = panic.lock().unwrap();
            if pl.is_none() {
                *pl = Some(e);
            }
        }
    };
    // Safety: the completion wait below blocks until every task completed.
    let raw = unsafe { RawTask::erase(&task) };

    let shared = blocking_shared();
    for i in 1..p {
        let seat = shared.idle.lock().unwrap().pop().unwrap_or_else(|| {
            let seat = Arc::new(Seat { job: Mutex::new(None), cv: Condvar::new() });
            let s = seat.clone();
            let id = {
                let mut n = shared.spawned.lock().unwrap();
                *n += 1;
                *n
            };
            std::thread::Builder::new()
                .name(format!("gpm-rank-{id}"))
                .spawn(move || blocking_loop(s, shared))
                .expect("spawn blocking worker");
            seat
        });
        *seat.job.lock().unwrap() = Some((raw, i, countdown.clone()));
        seat.cv.notify_one();
    }
    task(0);
    countdown.done_one();

    let mut left = countdown.left.lock().unwrap();
    while *left > 0 {
        left = countdown.cv.wait(left).unwrap();
    }
    drop(left);

    if let Some(pl) = panic.into_inner().unwrap() {
        resume_unwind(pl);
    }
    slots.into_iter().map(|s| s.take().expect("every task ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_range_covers_everything() {
        for n in [0usize, 1, 7, 100, 101] {
            for t in [1usize, 2, 3, 8] {
                let mut prev_end = 0;
                for i in 0..t {
                    let (s, e) = chunk_range(n, t, i);
                    assert_eq!(s, prev_end);
                    prev_end = e;
                }
                assert_eq!(prev_end, n, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn chunks_by_prefix_covers_and_balances() {
        // prefix of 10 items with weights 3,1,4,1,5,9,2,6,5,3
        let w = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut prefix = vec![0u32];
        for x in w {
            prefix.push(prefix.last().unwrap() + x);
        }
        for grain in [1u64, 4, 7, 100] {
            let chunks = chunks_by_prefix(&prefix, grain);
            let mut prev = 0usize;
            for &(lo, hi) in &chunks {
                assert_eq!(lo, prev);
                assert!(hi > lo);
                prev = hi;
            }
            assert_eq!(prev, w.len(), "grain={grain}");
            // every chunk except the last reaches the grain, unless it
            // closed early to isolate a heavy successor item
            for &(lo, hi) in &chunks[..chunks.len() - 1] {
                let units = (prefix[hi] - prefix[lo]) as u64;
                let next_heavy = (prefix[hi + 1] - prefix[hi]) as u64 >= grain;
                assert!(
                    units >= grain || next_heavy,
                    "grain={grain} chunk=({lo},{hi}) units={units}"
                );
            }
        }
    }

    #[test]
    fn chunks_by_prefix_isolates_heavy_items() {
        // one item dwarfs the rest: it must sit alone in its chunk
        let prefix = [0u32, 1, 2, 1002, 1003, 1004];
        let chunks = chunks_by_prefix(&prefix, 10);
        assert!(chunks.contains(&(2, 3)), "{chunks:?}");
    }

    #[test]
    fn chunks_by_prefix_empty_and_flat() {
        assert!(chunks_by_prefix(&[0u32], 4).is_empty());
        assert!(chunks_by_prefix(&[], 4).is_empty());
        // all-zero weights: still covers every index
        let chunks = chunks_by_prefix(&[0u32, 0, 0, 0], 5);
        assert_eq!(chunks, vec![(0, 3)]);
    }

    #[test]
    fn parallel_chunks_returns_in_index_order() {
        let out = parallel_chunks(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_chunks_runs_each_chunk_once() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        parallel_chunks(100, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 0);
        assert_eq!(pool.participants(), 1);
        assert_eq!(pool.parallel_chunks(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dedicated_pool_works() {
        let pool = Pool::new(3);
        let out = pool.parallel_chunks(17, |i| i as u64 * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        let ran = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_chunks(16, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 7 {
                    panic!("chunk 7 died");
                }
                i
            })
        }));
        assert!(r.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 16, "batch must still run to completion");
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let out = parallel_chunks(8, |i| parallel_chunks(8, move |j| i * j).iter().sum::<usize>());
        assert_eq!(out, (0..8).map(|i| i * 28).collect::<Vec<_>>());
    }

    /// The seat cache is process-wide and tests run on parallel threads:
    /// tests that take seats hold this lock, so the seat bound in
    /// `scoped_blocking_reuses_seats` does not count other tests' seats.
    static SEATS: Mutex<()> = Mutex::new(());

    fn seats() -> std::sync::MutexGuard<'static, ()> {
        SEATS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scoped_blocking_tasks_can_wait_on_each_other() {
        let _seats = seats();
        // p tasks all meet at a barrier: impossible without p live threads
        let p = 6;
        let barrier = std::sync::Barrier::new(p);
        let out = scoped_blocking(p, |i| {
            barrier.wait();
            i * 2
        });
        assert_eq!(out, (0..p).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_blocking_reuses_seats() {
        let _seats = seats();
        for round in 0..5u64 {
            let out = scoped_blocking(4, |i| round * 10 + i as u64);
            assert_eq!(out, (0..4).map(|i| round * 10 + i).collect::<Vec<u64>>());
        }
        // grow-on-demand cache: at most p-1 seats ever needed so far
        assert!(*blocking_shared().spawned.lock().unwrap() <= 5);
    }

    #[test]
    fn scoped_blocking_propagates_panics() {
        let _seats = seats();
        let r = catch_unwind(AssertUnwindSafe(|| {
            scoped_blocking(3, |i| {
                if i == 2 {
                    panic!("rank 2 died");
                }
                i
            })
        }));
        assert!(r.is_err());
        // the cache must still be usable afterwards
        assert_eq!(scoped_blocking(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn stats_counters_are_monotonic() {
        let _seats = seats();
        let before = stats();
        parallel_chunks(9, |i| i);
        scoped_blocking(3, |i| i);
        let after = stats();
        assert!(after.batches > before.batches);
        assert!(after.chunks >= before.chunks + 9);
        assert!(after.blocking_tasks >= before.blocking_tasks + 3);
    }

    #[test]
    fn grain_for_targets_oversubscription() {
        assert_eq!(grain_for(800, 8, 4), 25);
        assert_eq!(grain_for(0, 8, 4), 1);
        assert_eq!(grain_for(10, 0, 0), 10);
    }

    fn parked_workers(pool: &Pool) -> usize {
        pool.shared.inbox.lock().unwrap().parked
    }

    fn spins(pool: &Pool) -> u64 {
        pool.shared.spins.load(Ordering::Relaxed)
    }

    /// Run `body` on its own thread and fail unless it returns within
    /// `limit`: a lost wakeup hangs a submitter rather than crashing it.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        match rx.recv_timeout(limit) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("still running after {limit:?}: lost wakeup")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("body panicked"),
        }
    }

    /// Poll until every worker of `pool` is parked; fail after `limit`.
    fn await_all_parked(pool: &Pool, limit: Duration) {
        let t0 = Instant::now();
        while parked_workers(pool) < pool.workers() {
            assert!(
                t0.elapsed() < limit,
                "{} of {} workers parked",
                parked_workers(pool),
                pool.workers()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Several submitters send many tiny batches with gaps on both sides
    /// of the spin bounds: none, inside `SUBMITTER_SPIN`, inside
    /// `WORKER_SPIN`, and past it (the workers park in between). A lost
    /// wakeup of either kind hangs a submitter and fails the timeout.
    fn wake_stress(pool: &'static Pool) {
        const GAPS_US: [u64; 4] = [0, 20, 120, 400];
        within(Duration::from_secs(60), move || {
            std::thread::scope(|s| {
                for t in 0..4usize {
                    s.spawn(move || {
                        for b in 0..300usize {
                            let gap = Duration::from_micros(GAPS_US[(b + t) % GAPS_US.len()]);
                            if gap > WORKER_SPIN {
                                std::thread::sleep(gap);
                            } else {
                                spin_until(gap, || false);
                            }
                            let n = 2 + b % 5;
                            let salt = t * 1_000_000 + b * 16;
                            let out = pool.parallel_chunks(n, |i| {
                                // 0–20 µs of work, so a worker often holds
                                // the last chunk when the submitter is done
                                spin_until(Duration::from_micros(10 * (i % 3) as u64), || false);
                                salt + i
                            });
                            assert_eq!(out, (0..n).map(|i| salt + i).collect::<Vec<_>>());
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn wake_protocol_survives_concurrent_tiny_batches() {
        // the global pool spins or parks depending on GPM_THREADS; the
        // dedicated pools force each protocol whatever the host
        wake_stress(global());
        wake_stress(Box::leak(Box::new(Pool::with_spin(2, true))));
        wake_stress(Box::leak(Box::new(Pool::with_spin(2, false))));
    }

    #[test]
    fn idle_pool_parks_after_the_spin_bound() {
        let pool: &'static Pool = Box::leak(Box::new(Pool::with_spin(2, true)));
        let parks = stats().parks;
        assert_eq!(pool.parallel_chunks(8, |i| i * 2), (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert!(spins(pool) > 0, "a pool that fits the cores spins before parking");
        await_all_parked(pool, Duration::from_secs(10));
        assert!(stats().parks >= parks + 2, "each worker's park is counted");
        // the next batch must wake them: each participant's own chunk
        // waits at a barrier for the others', so it completes only if
        // every parked worker woke and ran its chunk
        within(Duration::from_secs(30), move || {
            let barrier = std::sync::Barrier::new(pool.participants());
            pool.parallel_chunks(pool.participants(), |_| {
                barrier.wait();
            });
        });
    }

    #[test]
    fn oversubscribed_pool_never_spins() {
        let pool = Pool::new(cores() + 1);
        for b in 0..200usize {
            if b % 10 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
            let out = pool.parallel_chunks(2 + b % 7, |i| i + b);
            assert_eq!(out, (0..2 + b % 7).map(|i| i + b).collect::<Vec<_>>());
        }
        assert_eq!(spins(&pool), 0);
        await_all_parked(&pool, Duration::from_secs(10));
    }

    #[test]
    fn results_identical_with_and_without_fuzz() {
        let reference = parallel_chunks(50, |i| i as u64 * 7 + 1);
        std::env::set_var("GPM_POOL_STEAL_FUZZ", "1");
        for _ in 0..4 {
            assert_eq!(parallel_chunks(50, |i| i as u64 * 7 + 1), reference);
        }
        std::env::remove_var("GPM_POOL_STEAL_FUZZ");
    }
}
