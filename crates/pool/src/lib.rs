//! Persistent work-stealing executor for all parallel phases.
//!
//! Every parallel phase in the workspace used to create and join a fresh
//! team of OS threads via `std::thread::scope` on each invocation; the
//! handshake matcher alone spawns two teams per round, so one multilevel
//! run paid thousands of thread spawns. This crate replaces that with a
//! lazily initialized, process-wide pool of parked workers (the design
//! shared-memory partitioners like mt-metis and Mt-KaHyPar rely on):
//!
//! * [`parallel_chunks`] — run `n` indexed chunk closures on the pool and
//!   return their results *in index order*. Chunks are pre-distributed
//!   round-robin over per-worker deques; idle workers steal from the back
//!   of other deques, so a skewed chunk cannot serialize the phase. The
//!   submitting thread participates (drains and steals like a worker), so
//!   the call makes progress even when every pool worker is busy with
//!   another batch.
//! * [`parallel_for`] / [`parallel_reduce`] — range and reduction
//!   conveniences over [`parallel_chunks`].
//! * [`scoped_blocking`] — fork-join over tasks that may *block on each
//!   other* (barriers, message receives): each task gets a dedicated
//!   persistent thread from a grow-on-demand cache. This serves the
//!   per-rank fan-out of the MPI stand-in, which cannot run on a
//!   fixed-size chunk pool without deadlocking.
//! * [`chunks_by_prefix`] — split an index range on a prefix-sum array so
//!   every chunk carries roughly equal summed work (used to edge-balance
//!   vertex ranges over a CSR `xadj` array).
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
//!   parallelism). Read once, at first use.
//! * `GPM_POOL_STEAL_FUZZ` — when set (and not `0`), steal victim order
//!   is randomized per batch. Results must not change; tests rely on it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Executor telemetry (gpm-serve exposes these in its stats endpoint)
// ---------------------------------------------------------------------------

/// Monotonic counters over the life of the process: fork-join batches and
/// chunks submitted to [`parallel_chunks`] (inline fast paths included),
/// and blocking tasks dispatched through [`scoped_blocking`]. Purely
/// observational — never read back by any phase, so they cannot affect
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fork-join batches submitted (one per `parallel_chunks` call).
    pub batches: u64,
    /// Total chunk closures those batches carried.
    pub chunks: u64,
    /// Tasks dispatched onto dedicated blocking seats.
    pub blocking_tasks: u64,
}

static BATCHES: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static BLOCKING_TASKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide executor counters.
pub fn stats() -> PoolStats {
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        blocking_tasks: BLOCKING_TASKS.load(Ordering::Relaxed),
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
/// Deterministic: a pure function of `prefix` and `grain`. Generic over
/// the prefix entry width so both the default u32 CSR offsets and the
/// `idx64` u64 offsets chunk identically.
pub fn chunks_by_prefix<I: Copy + Into<u64>>(prefix: &[I], grain: u64) -> Vec<(usize, usize)> {
    let n = prefix.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let grain = grain.max(1);
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let start: u64 = prefix[lo].into();
        let mut hi = lo + 1; // at least one item, however heavy
                             // extend while the chunk is under grain and the next item would
                             // not itself fill a chunk (heavy items stay isolated)
        while hi < n
            && (prefix[hi].into() - start) < grain
            && (prefix[hi + 1].into() - prefix[hi].into()) < grain
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

struct BatchCore {
    /// Pending chunk indices: one deque per worker plus one for the
    /// submitter (the last). Owners pop the front; thieves pop the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Chunks not yet *completed*; the submitter returns at 0.
    left: Mutex<usize>,
    left_cv: Condvar,
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
            left: Mutex::new(n_chunks),
            left_cv: Condvar::new(),
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
        let mut left = self.left.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.left_cv.notify_all();
        }
    }

    fn wait_done(&self) {
        let mut left = self.left.lock().unwrap();
        while *left > 0 {
            left = self.left_cv.wait(left).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

struct Shared {
    /// Active batches. Workers scan for one with pending chunks.
    inbox: Mutex<Vec<Arc<BatchCore>>>,
    inbox_cv: Condvar,
}

/// A persistent pool of parked worker threads. Most callers use the
/// process-wide instance via the free functions; a dedicated instance
/// ([`Pool::new`]) exists for tests that need a specific size.
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
        let batch = {
            let mut inbox = shared.inbox.lock().unwrap();
            loop {
                if let Some(b) = inbox.iter().find(|b| b.has_work()) {
                    break b.clone();
                }
                inbox = shared.inbox_cv.wait(inbox).unwrap();
            }
        };
        let fuzz = steal_fuzz();
        while let Some(i) = batch.claim(me, fuzz, &mut rng) {
            batch.run(i);
        }
    }
}

impl Pool {
    /// Spawn a pool with `workers` parked worker threads. `workers == 0`
    /// degenerates to inline (serial) execution.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared { inbox: Mutex::new(Vec::new()), inbox_cv: Condvar::new() });
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
        let n_deques = self.workers + 1; // + the submitter
                                         // Safety: `wait_done` below blocks until every chunk completed.
        let core = Arc::new(BatchCore::new(n, n_deques, unsafe { RawTask::erase(&task) }));
        self.shared.inbox.lock().unwrap().push(core.clone());
        self.shared.inbox_cv.notify_all();

        // The submitter participates like a worker (guarantees progress
        // even when every worker is busy with another batch).
        let me = n_deques - 1;
        let fuzz = steal_fuzz();
        let mut rng = FuzzRng::new(0xCA11E2);
        while let Some(i) = core.claim(me, fuzz, &mut rng) {
            core.run(i);
        }
        core.wait_done();
        self.shared.inbox.lock().unwrap().retain(|b| !Arc::ptr_eq(b, &core));

        if let Some(p) = panic.into_inner().unwrap() {
            resume_unwind(p);
        }
        slots.into_iter().map(|s| s.take().expect("every chunk ran")).collect()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with `GPM_THREADS` workers
/// (default: available parallelism).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let workers = std::env::var("GPM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
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

/// Run `f` over `range` in chunks of at most `grain` indices on the
/// global pool.
pub fn parallel_for<F>(range: std::ops::Range<usize>, grain: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let len = range.len();
    if len == 0 {
        return;
    }
    let grain = grain.max(1);
    let n_chunks = len.div_ceil(grain);
    let start = range.start;
    parallel_chunks(n_chunks, |c| {
        let lo = start + c * grain;
        let hi = (lo + grain).min(range.end);
        f(lo..hi)
    });
}

/// Map chunks on the global pool, then fold the per-chunk values **in
/// index order** on the submitting thread — the deterministic reduction
/// the ported phases rely on (never fold in completion order).
pub fn parallel_reduce<T, A, M, F>(n_chunks: usize, init: T, map: M, fold: F) -> T
where
    A: Send,
    M: Fn(usize) -> A + Sync,
    F: FnMut(T, A) -> T,
{
    parallel_chunks(n_chunks, map).into_iter().fold(init, fold)
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
        assert!(chunks_by_prefix::<u32>(&[], 4).is_empty());
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
        assert_eq!(pool.parallel_chunks(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dedicated_pool_works() {
        let pool = Pool::new(3);
        let out = pool.parallel_chunks(17, |i| i as u64 * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_for_covers_range() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(0..97, 10, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_reduce_folds_in_index_order() {
        // a non-commutative fold: concatenation order proves index order
        let s = parallel_reduce(10, String::new(), |i| i.to_string(), |acc, x| acc + &x);
        assert_eq!(s, "0123456789");
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
