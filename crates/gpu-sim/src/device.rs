//! The simulated device: memory management, transfers, and kernel launch.
//!
//! [`Device::launch`] runs a kernel warp by warp on the host pool and
//! counts each warp's coalesced memory transactions by replaying its lane
//! traces through `LockstepSegs`, whose cost per recorded access is
//! O(1) for any warp size (DESIGN.md §3.5).

use crate::buffer::{DBuf, DeviceWord};
use crate::config::GpuConfig;
use crate::lane::Lane;
use gpm_faults::{FaultError, FaultInjector, FaultKind, RetryPolicy};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Device memory exhausted — the paper's central constraint ("currently we
/// assume the graph size is small enough to fit into the GPU's memory").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuOom {
    pub requested: u64,
    pub in_use: u64,
    pub capacity: u64,
}

impl std::fmt::Display for GpuOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} / {} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for GpuOom {}

/// Any failure a device operation can report: a genuine capacity violation
/// ([`GpuOom`]) or an injected fault from the active [`FaultInjector`]
/// schedule. This is the typed surface that replaced the old
/// panic-on-the-hot-path behaviour of `d2h`/`launch`.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// Device memory exhausted (real accounting, always fatal for the
    /// requested operation — retrying cannot free memory).
    Oom(GpuOom),
    /// An injected fault escaped the device's bounded internal retries
    /// (or was fatal to begin with).
    Fault(FaultError),
    /// The [`GpuConfig`] cannot run a kernel (for example a warp of zero
    /// lanes); never transient.
    InvalidConfig(&'static str),
}

impl DeviceError {
    /// Whether retrying the failed operation may succeed. Capacity OOM is
    /// never transient; injected faults follow the [`FaultKind`] taxonomy
    /// — but by the time a transient fault escapes the device's internal
    /// retry loop its budget is spent, so callers normally treat any
    /// `DeviceError` as the end of the device session.
    pub fn is_transient(&self) -> bool {
        match self {
            DeviceError::Oom(_) | DeviceError::InvalidConfig(_) => false,
            DeviceError::Fault(f) => f.is_transient(),
        }
    }
}

impl From<GpuOom> for DeviceError {
    fn from(e: GpuOom) -> Self {
        DeviceError::Oom(e)
    }
}

impl From<FaultError> for DeviceError {
    fn from(e: FaultError) -> Self {
        DeviceError::Fault(e)
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Oom(e) => e.fmt(f),
            DeviceError::Fault(e) => e.fmt(f),
            DeviceError::InvalidConfig(why) => write!(f, "invalid device configuration: {why}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl gpm_faults::Transience for DeviceError {
    fn is_transient(&self) -> bool {
        DeviceError::is_transient(self)
    }
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel name (for the ledger).
    pub name: String,
    /// Threads launched.
    pub n_threads: usize,
    /// Warps executed.
    pub warps: u64,
    /// Σ over warps of max-lane instructions (lockstep/SIMD cost).
    pub warp_instr: u64,
    /// Σ over lanes of instructions (useful work).
    pub lane_instr: u64,
    /// Memory transactions after coalescing.
    pub transactions: u64,
    /// Raw memory accesses before coalescing.
    pub accesses: u64,
    /// Modeled memory time (s).
    pub mem_seconds: f64,
    /// Modeled compute time (s).
    pub compute_seconds: f64,
    /// Modeled total kernel time (s), including launch overhead.
    pub seconds: f64,
}

impl KernelStats {
    /// Branch-divergence waste: fraction of SIMD issue slots that did no
    /// useful work (0 = perfectly converged).
    pub fn divergence(&self) -> f64 {
        if self.warp_instr == 0 {
            return 0.0;
        }
        1.0 - self.lane_instr as f64 / (self.warp_instr as f64 * 32.0)
    }

    /// Coalescing efficiency: accesses served per transaction (32 =
    /// perfect, 1 = fully scattered).
    pub fn coalescing(&self) -> f64 {
        if self.transactions == 0 {
            return 1.0;
        }
        self.accesses as f64 / self.transactions as f64
    }
}

/// Aggregated statistics for one kernel name (see
/// [`Device::kernel_summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    pub name: String,
    pub launches: u64,
    pub seconds: f64,
    pub transactions: u64,
    pub accesses: u64,
    pub warp_instr: u64,
}

/// Per-group statistics accumulator for one kernel launch.
#[derive(Default)]
struct Acc {
    warp_instr: u64,
    lane_instr: u64,
    transactions: u64,
    accesses: u64,
}

/// Counts a warp's memory transactions: for each lockstep position `k`,
/// the number of distinct segments among the lanes' `k`-th accesses.
///
/// Lanes are walked in order, each over its own trace, and an access
/// costs at most two O(1) checks:
///
/// - against the previous lane's access at the same position, which
///   catches the coalesced case where adjacent lanes hit one segment;
/// - against a small open-addressed table of the (position, segment)
///   pairs seen so far in this warp, for the scattered case. The table
///   has at least twice as many slots as the warp has accesses, so any
///   warp size fits and probes stay short.
///
/// Slots are emptied between warps by bumping an 8-bit generation stamp
/// rather than by clearing them; when the stamp wraps, the slots used
/// since the last wrap are zeroed once, every 255 warps. One instance
/// lives per host worker and is reused across warps and launches.
struct LockstepSegs {
    slots: Vec<Slot>,
    /// Slots at and beyond this index hold generation 0.
    used: usize,
    gen: u8,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    seg: u64,
    pos: u32,
    gen: u8,
}

impl LockstepSegs {
    const fn new() -> Self {
        LockstepSegs { slots: Vec::new(), used: 0, gen: 0 }
    }

    /// Transactions of one warp, given each lane's trace of segment ids
    /// (each shorter than `u32::MAX`).
    fn warp_transactions(&mut self, traces: &[Vec<u64>]) -> u64 {
        let accesses: usize = traces.iter().map(Vec::len).sum();
        if accesses == 0 {
            return 0;
        }
        let n = (2 * accesses).next_power_of_two();
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots[..self.used].fill(Slot::default());
            self.used = 0;
            self.gen = 1;
        }
        self.used = self.used.max(n);
        let mask = n - 1;
        let mut txns = 0u64;
        let mut prev: &[u64] = &[];
        for t in traces {
            for (k, &seg) in t.iter().enumerate() {
                if prev.get(k) == Some(&seg) {
                    continue;
                }
                let pos = k as u32;
                let key = seg ^ u64::from(pos).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut i = (key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as usize & mask;
                loop {
                    let slot = &mut self.slots[i];
                    if slot.gen != self.gen {
                        *slot = Slot { seg, pos, gen: self.gen };
                        txns += 1;
                        break;
                    }
                    if slot.seg == seg && slot.pos == pos {
                        break;
                    }
                    i = (i + 1) & mask;
                }
            }
            prev = t;
        }
        txns
    }
}

#[derive(Default)]
struct DevState {
    clock: f64,
    log: Vec<KernelStats>,
    transfers: Vec<(String, u64, f64)>, // (direction, bytes, seconds)
}

/// A simulated CUDA device.
pub struct Device {
    cfg: GpuConfig,
    mem_used: Arc<AtomicU64>,
    next_buf_id: AtomicU64,
    state: Mutex<DevState>,
    /// Fault schedule; `None` (or an inactive injector) keeps every device
    /// path on the exact pre-fault code: no counters, no extra clock
    /// charges, byte-identical modeled times.
    injector: Option<Arc<FaultInjector>>,
    /// Set when an injected [`FaultKind::DeviceLost`] fires: the device
    /// "fell off the bus" and every subsequent operation fails fast.
    dead: AtomicBool,
    retry: RetryPolicy,
    fault_retries: AtomicU64,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        Device::build(cfg, None)
    }

    /// Create a device driven by a fault-injection schedule. Sites:
    /// `gpu.alloc`, `gpu.h2d`, `gpu.d2h`, `gpu.launch`. Transient faults
    /// (transfer errors, kernel aborts) are retried internally under the
    /// device [`RetryPolicy`], with backoff charged to the modeled clock;
    /// fatal faults (spurious OOM, device lost) escape as
    /// [`DeviceError::Fault`].
    pub fn with_faults(cfg: GpuConfig, injector: Arc<FaultInjector>) -> Self {
        Device::build(cfg, Some(injector))
    }

    fn build(cfg: GpuConfig, injector: Option<Arc<FaultInjector>>) -> Self {
        Device {
            cfg,
            mem_used: Arc::new(AtomicU64::new(0)),
            next_buf_id: AtomicU64::new(1),
            state: Mutex::new(DevState::default()),
            injector,
            dead: AtomicBool::new(false),
            retry: RetryPolicy::default(),
            fault_retries: AtomicU64::new(0),
        }
    }

    /// Visit an injection site: returns the backoff seconds to charge to
    /// the modeled clock (transient faults retried internally, each failed
    /// attempt costing `per_attempt_charge` plus exponential backoff), or
    /// the fault that ends the operation. `Ok(0.0)` and zero overhead when
    /// no schedule is active.
    fn visit_site(&self, site: &str, per_attempt_charge: f64) -> Result<f64, DeviceError> {
        let inj = match &self.injector {
            Some(i) if i.is_active() => i,
            _ => return Ok(0.0),
        };
        if self.dead.load(Ordering::Relaxed) {
            return Err(DeviceError::Fault(FaultError {
                site: site.to_string(),
                invocation: 0,
                kind: FaultKind::DeviceLost,
            }));
        }
        let mut charged = 0.0;
        let mut attempt = 0u32;
        loop {
            match inj.check(site) {
                None => return Ok(charged),
                Some(f) if f.is_transient() && attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.fault_retries.fetch_add(1, Ordering::Relaxed);
                    charged += per_attempt_charge + self.retry.backoff_secs(attempt);
                }
                Some(f) => {
                    if f.kind == FaultKind::DeviceLost {
                        self.dead.store(true, Ordering::Relaxed);
                    }
                    return Err(DeviceError::Fault(f));
                }
            }
        }
    }

    /// Charge injected-fault backoff to the modeled clock. Kept separate
    /// from the normal charges so the zero-fault path never touches the
    /// clock arithmetic.
    fn charge_backoff(&self, secs: f64) {
        if secs > 0.0 {
            self.state.lock().unwrap().clock += secs;
        }
    }

    /// Retries the device performed internally to absorb injected
    /// transient faults.
    pub fn fault_retries(&self) -> u64 {
        self.fault_retries.load(Ordering::Relaxed)
    }

    /// The fault injector driving this device, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// True once an injected `DeviceLost` fault has poisoned the device.
    pub fn is_lost(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: DeviceWord>(&self, len: usize) -> Result<DBuf<T>, DeviceError> {
        let backoff = self.visit_site("gpu.alloc", 0.0)?;
        self.charge_backoff(backoff);
        let bytes = len as u64 * 4;
        let in_use = self.mem_used.load(Ordering::Relaxed);
        if in_use + bytes > self.cfg.mem_capacity {
            return Err(DeviceError::Oom(GpuOom {
                requested: bytes,
                in_use,
                capacity: self.cfg.mem_capacity,
            }));
        }
        self.mem_used.fetch_add(bytes, Ordering::Relaxed);
        let id = self.next_buf_id.fetch_add(1, Ordering::Relaxed);
        Ok(DBuf::new(len, id, self.mem_used.clone()))
    }

    /// Host-to-device transfer: allocate and fill, charging PCIe time.
    pub fn h2d<T: DeviceWord>(&self, data: &[T]) -> Result<DBuf<T>, DeviceError> {
        let buf = self.alloc::<T>(data.len())?;
        // Each retried transfer attempt re-pays the PCIe time.
        let backoff = self.visit_site("gpu.h2d", self.cfg.transfer_seconds(buf.bytes()))?;
        buf.copy_from_slice(data);
        let secs = self.cfg.transfer_seconds(buf.bytes());
        let mut st = self.state.lock().unwrap();
        st.clock += secs;
        if backoff > 0.0 {
            st.clock += backoff;
        }
        st.transfers.push(("h2d".into(), buf.bytes(), secs));
        Ok(buf)
    }

    /// Device-to-host transfer, charging PCIe time.
    pub fn d2h<T: DeviceWord>(&self, buf: &DBuf<T>) -> Result<Vec<T>, DeviceError> {
        let backoff = self.visit_site("gpu.d2h", self.cfg.transfer_seconds(buf.bytes()))?;
        let secs = self.cfg.transfer_seconds(buf.bytes());
        let mut st = self.state.lock().unwrap();
        st.clock += secs;
        if backoff > 0.0 {
            st.clock += backoff;
        }
        st.transfers.push(("d2h".into(), buf.bytes(), secs));
        drop(st);
        Ok(buf.to_vec())
    }

    /// Simulated device time elapsed (kernels + transfers), in seconds.
    pub fn elapsed(&self) -> f64 {
        self.state.lock().unwrap().clock
    }

    /// All kernel launches so far (cloned).
    pub fn kernel_log(&self) -> Vec<KernelStats> {
        self.state.lock().unwrap().log.clone()
    }

    /// Per-kernel-name aggregation of the launch log: launches, modeled
    /// seconds, transactions, accesses, warp instructions — sorted by
    /// total time descending.
    pub fn kernel_summary(&self) -> Vec<KernelSummary> {
        let mut agg: std::collections::BTreeMap<String, KernelSummary> =
            std::collections::BTreeMap::new();
        for k in self.state.lock().unwrap().log.iter() {
            let e = agg.entry(k.name.clone()).or_insert_with(|| KernelSummary {
                name: k.name.clone(),
                launches: 0,
                seconds: 0.0,
                transactions: 0,
                accesses: 0,
                warp_instr: 0,
            });
            e.launches += 1;
            e.seconds += k.seconds;
            e.transactions += k.transactions;
            e.accesses += k.accesses;
            e.warp_instr += k.warp_instr;
        }
        let mut v: Vec<KernelSummary> = agg.into_values().collect();
        v.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// Total PCIe transfer seconds so far.
    pub fn transfer_seconds_total(&self) -> f64 {
        self.state.lock().unwrap().transfers.iter().map(|&(_, _, s)| s).sum()
    }

    /// Total PCIe bytes moved so far.
    pub fn transfer_bytes_total(&self) -> u64 {
        self.state.lock().unwrap().transfers.iter().map(|&(_, b, _)| b).sum()
    }

    /// Launch `n_threads` copies of `kernel`, grouped into warps of
    /// `warp_size` lanes (32 on the GTX Titan).
    ///
    /// Execution: warp groups are dispatched to the persistent [`gpm_pool`]
    /// executor (real concurrency, so lock-free algorithms race for real);
    /// lanes within a warp run sequentially, with their memory traces
    /// replayed in lockstep to count coalesced transactions (see
    /// `LockstepSegs`). Per-group statistics are integer sums folded in
    /// group-index order, so the stats are identical regardless of which
    /// host worker ran which group. Timing: roofline —
    /// `max(compute, memory) + launch overhead`.
    ///
    /// Fails with [`DeviceError::InvalidConfig`] when `warp_size` is 0 or
    /// `segment_bytes` is not a power of two, before any fault site or
    /// lane runs.
    ///
    /// Fault site `gpu.launch` fires *before* any lane runs, so an
    /// injected [`FaultKind::KernelAbort`] is side-effect free and the
    /// internal retry (each failed attempt charged launch overhead plus
    /// backoff) re-runs the kernel from clean state.
    pub fn launch<F>(
        &self,
        name: &str,
        n_threads: usize,
        kernel: F,
    ) -> Result<KernelStats, DeviceError>
    where
        F: Fn(&mut Lane) + Sync,
    {
        if self.cfg.warp_size == 0 {
            return Err(DeviceError::InvalidConfig("warp_size must be at least 1"));
        }
        if !self.cfg.segment_bytes.is_power_of_two() {
            return Err(DeviceError::InvalidConfig("segment_bytes must be a power of two"));
        }
        let backoff = self.visit_site("gpu.launch", self.cfg.kernel_launch_overhead)?;
        self.charge_backoff(backoff);
        let ws = self.cfg.warp_size;
        let n_warps = n_threads.div_ceil(ws);
        // Groups of 8 warps amortize dispatch; scratch lives per host
        // worker in thread-locals, reused across groups and launches.
        const GROUP: usize = 8;
        let n_groups = n_warps.div_ceil(GROUP);

        thread_local! {
            static SCRATCH: RefCell<(Vec<Vec<u64>>, LockstepSegs)> =
                const { RefCell::new((Vec::new(), LockstepSegs::new())) };
        }

        let accs = gpm_pool::parallel_chunks(n_groups, |gi| {
            SCRATCH.with(|cell| {
                let (traces, segs) = &mut *cell.borrow_mut();
                traces.resize_with(ws, || Vec::with_capacity(self.cfg.trace_cap.min(256)));
                let mut local = Acc::default();
                for w in gi * GROUP..(gi * GROUP + GROUP).min(n_warps) {
                    let base = w * ws;
                    let mut max_instr = 0u64;
                    let mut overflow = 0u64;
                    for (l, trace) in traces.iter_mut().enumerate() {
                        trace.clear();
                        let tid = base + l;
                        if tid >= n_threads {
                            continue;
                        }
                        let mut lane = Lane {
                            tid,
                            n_threads,
                            instr: 0,
                            trace,
                            overflow: 0,
                            // the replay keys trace positions as u32
                            trace_cap: self.cfg.trace_cap.min(u32::MAX as usize),
                            segment_shift: self.cfg.segment_bytes.trailing_zeros(),
                            recent: [0; 4],
                            recent_pos: 0,
                        };
                        kernel(&mut lane);
                        local.lane_instr += lane.instr;
                        overflow += lane.overflow;
                        max_instr = max_instr.max(lane.instr);
                    }
                    // Replay traces in lockstep: the k-th access of
                    // each lane coalesces into distinct segments.
                    local.transactions += segs.warp_transactions(traces) + overflow;
                    local.accesses += traces.iter().map(|t| t.len() as u64).sum::<u64>() + overflow;
                    local.warp_instr += max_instr;
                }
                local
            })
        });
        let mut acc = Acc::default();
        for a in accs {
            acc.warp_instr += a.warp_instr;
            acc.lane_instr += a.lane_instr;
            acc.transactions += a.transactions;
            acc.accesses += a.accesses;
        }
        let mem_seconds = self.cfg.mem_seconds_occupancy(acc.transactions, n_warps as u64);
        let compute_seconds = self.cfg.compute_seconds(acc.warp_instr);
        let seconds = mem_seconds.max(compute_seconds) + self.cfg.kernel_launch_overhead;
        let stats = KernelStats {
            name: name.to_string(),
            n_threads,
            warps: n_warps as u64,
            warp_instr: acc.warp_instr,
            lane_instr: acc.lane_instr,
            transactions: acc.transactions,
            accesses: acc.accesses,
            mem_seconds,
            compute_seconds,
            seconds,
        };
        let mut st = self.state.lock().unwrap();
        st.clock += seconds;
        st.log.push(stats.clone());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(GpuConfig::gtx_titan())
    }

    #[test]
    fn alloc_tracks_memory() {
        let d = dev();
        let a = d.alloc::<u32>(1000).unwrap();
        assert_eq!(d.mem_used(), 4000);
        drop(a);
        assert_eq!(d.mem_used(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let d = Device::new(GpuConfig::tiny(1000));
        let _a = d.alloc::<u32>(200).unwrap(); // 800 B
        let err = d.alloc::<u32>(100).unwrap_err(); // +400 B > 1000
        assert!(!err.is_transient());
        match err {
            DeviceError::Oom(oom) => {
                assert_eq!(oom.capacity, 1000);
                assert_eq!(oom.in_use, 800);
            }
            other => panic!("expected Oom, got {other:?}"),
        }
    }

    #[test]
    fn transfers_advance_clock() {
        let d = dev();
        let buf = d.h2d(&[1u32, 2, 3]).unwrap();
        let t1 = d.elapsed();
        assert!(t1 >= d.config().pcie_latency);
        let back = d.d2h(&buf).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        assert!(d.elapsed() > t1);
        assert_eq!(d.transfer_bytes_total(), 24);
    }

    #[test]
    fn simple_kernel_writes_every_element() {
        let d = dev();
        let buf = d.alloc::<u32>(1000).unwrap();
        let stats = d
            .launch("fill", 1000, |lane| {
                let v = lane.tid as u32 * 2;
                lane.st(&buf, lane.tid, v);
            })
            .unwrap();
        assert_eq!(buf.load(7), 14);
        assert_eq!(buf.load(999), 1998);
        assert_eq!(stats.warps, 32); // ceil(1000/32)
        assert!(stats.seconds > d.config().kernel_launch_overhead);
    }

    #[test]
    fn coalesced_vs_strided_transactions() {
        let d = dev();
        let n = 32 * 64;
        let buf = d.alloc::<u32>(n * 32).unwrap();
        // contiguous: lane tid accesses element tid -> 1 txn / warp
        let coalesced = d
            .launch("coalesced", n, |lane| {
                let _ = lane.ld(&buf, lane.tid);
            })
            .unwrap();
        // strided by 32 words (=128 B): every lane hits its own segment
        let strided = d
            .launch("strided", n, |lane| {
                let _ = lane.ld(&buf, lane.tid * 32);
            })
            .unwrap();
        assert_eq!(coalesced.transactions, 64);
        assert_eq!(strided.transactions, (n) as u64);
        assert!(strided.seconds > coalesced.seconds);
        assert!(coalesced.coalescing() > 30.0);
        assert!(strided.coalescing() < 1.5);
    }

    #[test]
    fn divergence_measured() {
        let d = dev();
        let buf = d.alloc::<u32>(64).unwrap();
        // half the lanes do 10x the work
        let stats = d
            .launch("divergent", 64, |lane| {
                if lane.tid % 2 == 0 {
                    for _ in 0..9 {
                        lane.alu(1);
                    }
                }
                lane.st(&buf, lane.tid, 1);
            })
            .unwrap();
        assert!(stats.divergence() > 0.3, "divergence {}", stats.divergence());
    }

    #[test]
    fn atomics_race_correctly() {
        let d = dev();
        let counter = d.alloc::<u32>(1).unwrap();
        d.launch("count", 10_000, |lane| {
            lane.atomic_add(&counter, 0, 1);
        })
        .unwrap();
        assert_eq!(counter.load(0), 10_000);
    }

    #[test]
    fn kernel_log_accumulates() {
        let d = dev();
        let b = d.alloc::<u32>(10).unwrap();
        d.launch("a", 10, |l| {
            let _ = lane_noop(l, &b);
        })
        .unwrap();
        d.launch("b", 10, |l| {
            let _ = lane_noop(l, &b);
        })
        .unwrap();
        let log = d.kernel_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].name, "a");
        assert_eq!(log[1].name, "b");
    }

    fn lane_noop(l: &mut crate::lane::Lane, b: &DBuf<u32>) -> u32 {
        l.ld(b, l.tid % b.len())
    }

    #[test]
    fn kernel_summary_aggregates() {
        let d = dev();
        let b = d.alloc::<u32>(64).unwrap();
        for _ in 0..3 {
            d.launch("x", 64, |l| {
                let _ = l.ld(&b, l.tid);
            })
            .unwrap();
        }
        d.launch("y", 64, |l| l.alu(5)).unwrap();
        let s = d.kernel_summary();
        assert_eq!(s.len(), 2);
        let x = s.iter().find(|k| k.name == "x").unwrap();
        assert_eq!(x.launches, 3);
        assert!(x.seconds > 0.0);
        assert!(x.transactions > 0);
    }

    #[test]
    fn transaction_counts_unchanged_by_dedup_rewrite() {
        // Golden transaction counts for the canonical access patterns —
        // these pin the dedup rewrite to the old linear-scan semantics.
        let d = dev();
        let n = 32 * 16;
        let buf = d.alloc::<u32>(n * 32).unwrap();
        let coalesced = d
            .launch("c", n, |lane| {
                let _ = lane.ld(&buf, lane.tid);
            })
            .unwrap();
        assert_eq!(coalesced.transactions, 16); // 1 txn per warp
        let strided = d
            .launch("s", n, |lane| {
                let _ = lane.ld(&buf, lane.tid * 32);
            })
            .unwrap();
        assert_eq!(strided.transactions, n as u64); // 1 txn per lane
                                                    // half-warp broadcast: two segments per warp
        let pair = d
            .launch("p", n, |lane| {
                let _ = lane.ld(&buf, (lane.tid / 16) * 32);
            })
            .unwrap();
        assert_eq!(pair.transactions, 32);
    }

    #[test]
    fn wide_warps_count_scattered_lanes() {
        // 128 lanes, each on its own segment: one transaction per lane,
        // whatever the warp width.
        for ws in [32, 64, 128] {
            let d = Device::new(GpuConfig { warp_size: ws, ..GpuConfig::gtx_titan() });
            let n = 128 * 4;
            let buf = d.alloc::<u32>(n * 32).unwrap();
            let strided = d
                .launch("s", n, |lane| {
                    let _ = lane.ld(&buf, lane.tid * 32);
                })
                .unwrap();
            assert_eq!(strided.transactions, n as u64, "warp size {ws}");
            assert_eq!(strided.warps, (n / ws) as u64);
        }
    }

    #[test]
    fn unusable_config_is_a_typed_launch_error() {
        for (cfg, why) in [
            (GpuConfig { warp_size: 0, ..GpuConfig::gtx_titan() }, "warp_size"),
            (GpuConfig { segment_bytes: 0, ..GpuConfig::gtx_titan() }, "segment_bytes"),
            (GpuConfig { segment_bytes: 96, ..GpuConfig::gtx_titan() }, "segment_bytes"),
        ] {
            let d = Device::new(cfg);
            let err = d.launch("k", 64, |lane| lane.alu(1)).unwrap_err();
            assert!(matches!(err, DeviceError::InvalidConfig(w) if w.contains(why)), "{err}");
            assert!(!err.is_transient());
            assert!(d.kernel_log().is_empty(), "a rejected launch must not be logged");
        }
    }

    #[test]
    fn zero_thread_launch_is_safe() {
        let d = dev();
        let stats = d.launch("empty", 0, |_l| {}).unwrap();
        assert_eq!(stats.warps, 0);
        assert_eq!(stats.transactions, 0);
    }

    // ---- fault injection, one test per device site ----

    use gpm_faults::{FaultPlan, Selector};

    fn faulty(plan: FaultPlan) -> Device {
        Device::with_faults(GpuConfig::gtx_titan(), Arc::new(FaultInjector::new(plan)))
    }

    #[test]
    fn alloc_spurious_oom_is_fatal() {
        let d =
            faulty(FaultPlan::new(1).with("gpu.alloc", Selector::One(1), FaultKind::SpuriousOom));
        let _a = d.alloc::<u32>(8).unwrap(); // invocation 0 clean
        let err = d.alloc::<u32>(8).unwrap_err(); // invocation 1 faults
        match err {
            DeviceError::Fault(f) => {
                assert_eq!(f.kind, FaultKind::SpuriousOom);
                assert_eq!(f.site, "gpu.alloc");
                assert!(!f.is_transient());
            }
            other => panic!("expected injected fault, got {other:?}"),
        }
        assert!(!d.is_lost(), "spurious OOM does not kill the device");
        let _b = d.alloc::<u32>(8).unwrap(); // next invocation clean again
    }

    #[test]
    fn h2d_transfer_fault_retries_and_charges_backoff() {
        // Drop the first two h2d attempts; the internal retry absorbs
        // them and the transfer still lands, with extra modeled time.
        let d = faulty(FaultPlan::new(2).with(
            "gpu.h2d",
            Selector::Range(0, 2),
            FaultKind::TransferError,
        ));
        let clean = dev();
        let buf = d.h2d(&[1u32, 2, 3, 4]).unwrap();
        let base = clean.h2d(&[1u32, 2, 3, 4]).unwrap();
        assert_eq!(buf.to_vec(), base.to_vec());
        assert_eq!(d.fault_retries(), 2);
        assert!(
            d.elapsed() > clean.elapsed(),
            "retried transfers must cost modeled time: {} vs {}",
            d.elapsed(),
            clean.elapsed()
        );
    }

    #[test]
    fn h2d_transfer_fault_exhausts_retries() {
        // Every h2d attempt faults: the retry budget (3) runs out and the
        // transient error escapes as a DeviceError.
        let d =
            faulty(FaultPlan::new(3).with("gpu.h2d", Selector::Always, FaultKind::TransferError));
        let err = d.h2d(&[1u32, 2, 3]).unwrap_err();
        match err {
            DeviceError::Fault(f) => assert_eq!(f.kind, FaultKind::TransferError),
            other => panic!("expected injected fault, got {other:?}"),
        }
        assert_eq!(d.fault_retries(), 3);
    }

    #[test]
    fn d2h_fault_site_fires() {
        let d = faulty(FaultPlan::new(4).with("gpu.d2h", Selector::One(0), FaultKind::DeviceLost));
        let buf = d.h2d(&[5u32, 6]).unwrap();
        let err = d.d2h(&buf).unwrap_err();
        match err {
            DeviceError::Fault(f) => {
                assert_eq!(f.site, "gpu.d2h");
                assert_eq!(f.kind, FaultKind::DeviceLost);
            }
            other => panic!("expected injected fault, got {other:?}"),
        }
    }

    #[test]
    fn launch_abort_retries_then_succeeds() {
        let d =
            faulty(FaultPlan::new(5).with("gpu.launch", Selector::One(0), FaultKind::KernelAbort));
        let buf = d.alloc::<u32>(64).unwrap();
        let stats = d.launch("fill", 64, |lane| lane.st(&buf, lane.tid, 7)).unwrap();
        assert_eq!(buf.load(63), 7, "retried launch still runs the kernel");
        assert_eq!(d.fault_retries(), 1);
        assert_eq!(stats.n_threads, 64);
    }

    #[test]
    fn device_lost_poisons_every_subsequent_op() {
        let d =
            faulty(FaultPlan::new(6).with("gpu.launch", Selector::One(0), FaultKind::DeviceLost));
        let buf = d.alloc::<u32>(8).unwrap();
        let err = d.launch("k", 8, |lane| lane.st(&buf, lane.tid, 1)).unwrap_err();
        assert!(matches!(err, DeviceError::Fault(ref f) if f.kind == FaultKind::DeviceLost));
        assert!(d.is_lost());
        // Every later operation fails fast without consuming schedule.
        assert!(d.alloc::<u32>(8).is_err());
        assert!(d.h2d(&[1u32]).is_err());
        assert!(d.d2h(&buf).is_err());
        assert!(d.launch("k2", 8, |_l| {}).is_err());
    }

    #[test]
    fn inactive_injector_changes_nothing() {
        // Same workload on a plain device and one with an empty plan:
        // byte-identical modeled clock and transfer accounting.
        let run = |d: &Device| {
            let buf = d.h2d(&(0..1024u32).collect::<Vec<_>>()).unwrap();
            d.launch("mul", 1024, |lane| {
                let v = lane.ld(&buf, lane.tid);
                lane.st(&buf, lane.tid, v * 3);
            })
            .unwrap();
            (d.d2h(&buf).unwrap(), d.elapsed(), d.transfer_bytes_total())
        };
        let plain = run(&dev());
        let empty = run(&faulty(FaultPlan::empty()));
        assert_eq!(plain.0, empty.0);
        assert_eq!(plain.1.to_bits(), empty.1.to_bits(), "modeled clock must be bit-identical");
        assert_eq!(plain.2, empty.2);
    }
}
