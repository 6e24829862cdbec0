//! A counting global allocator for allocation-regression tests.
//!
//! Wraps the system allocator and counts every allocation call (and the
//! bytes requested), so a test can assert that a warmed code path stays
//! off the allocator — e.g. that a recycled [`CoarsenWorkspace`] makes
//! later coarsening levels allocation-free apart from the exactly-sized
//! output arrays the hierarchy retains.
//!
//! Usage (in a dedicated *integration* test, one per binary):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gpm_testkit::alloc::CountingAlloc = gpm_testkit::alloc::CountingAlloc::new();
//!
//! let before = ALLOC.thread_allocations();
//! run_warm_path();
//! let during = ALLOC.thread_allocations() - before;
//! ```
//!
//! [`CountingAlloc::thread_allocations`] counts only the calling thread's
//! allocations, so tests in one binary may run in parallel (the default
//! for `cargo test`) without counting each other's. It also leaves out
//! pool workers, which allocate on their own schedule: keep the measured
//! path on the calling thread. The process-wide counters are atomic, so
//! concurrent use is safe — just not reproducible.
//!
//! [`CoarsenWorkspace`]: gpm_graph::coarsen_ws::CoarsenWorkspace

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocation calls made by this thread through any `CountingAlloc`.
    /// A const-initialised `Cell` needs no lazy setup or destructor, so
    /// the allocator can touch it without allocating.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts calls and requested bytes, and
/// tracks the live-byte high-water mark (the heap component of peak RSS,
/// which the scale benchmarks record per loader).
pub struct CountingAlloc {
    allocations: AtomicU64,
    deallocations: AtomicU64,
    bytes_allocated: AtomicU64,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter (all zeros). `const` so it can back a
    /// `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc {
            allocations: AtomicU64::new(0),
            deallocations: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn on_alloc(&self, bytes: u64) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
        let live = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// Total allocation calls so far (`alloc` + `alloc_zeroed` + growing
    /// `realloc`s count once each).
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Allocation calls made so far by the calling thread (counted like
    /// [`allocations`](Self::allocations)). Exact however many other
    /// threads allocate meanwhile, e.g. parallel tests in one binary.
    pub fn thread_allocations(&self) -> u64 {
        THREAD_ALLOCATIONS.with(Cell::get)
    }

    /// Total deallocation calls so far.
    pub fn deallocations(&self) -> u64 {
        self.deallocations.load(Ordering::Relaxed)
    }

    /// Total bytes requested across all allocation calls.
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated and not yet freed).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`live_bytes`](Self::live_bytes) since program
    /// start or the last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the current live total, so a
    /// harness can measure the peak of one phase in isolation.
    pub fn reset_peak(&self) {
        self.peak_bytes.store(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates verbatim to `System`; the counters are side effects
// that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // counted as one allocation of the new size plus a free of the
        // old block, so the live total stays exact
        self.on_alloc(new_size as u64);
        self.deallocations.fetch_add(1, Ordering::Relaxed);
        self.live_bytes.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocations.fetch_add(1, Ordering::Relaxed);
        self.live_bytes.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_tracks_live_peak() {
        // exercised on a local instance (not installed as the global
        // allocator), so the counters are fully deterministic
        let a = CountingAlloc::new();
        let l = Layout::from_size_align(1024, 8).unwrap();
        unsafe {
            let p1 = a.alloc(l);
            let p2 = a.alloc(l);
            assert_eq!(a.live_bytes(), 2048);
            assert_eq!(a.peak_bytes(), 2048);
            a.dealloc(p2, l);
            assert_eq!(a.live_bytes(), 1024);
            assert_eq!(a.peak_bytes(), 2048, "peak survives frees");
            a.reset_peak();
            assert_eq!(a.peak_bytes(), 1024, "reset restarts from live");
            let p3 = a.alloc(l);
            assert_eq!(a.peak_bytes(), 2048);
            let p4 = a.realloc(p3, l, 4096);
            assert_eq!(a.live_bytes(), 1024 + 4096);
            let l4 = Layout::from_size_align(4096, 8).unwrap();
            a.dealloc(p4, l4);
            a.dealloc(p1, l);
        }
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.allocations(), 4);
        assert_eq!(a.deallocations(), 4);
    }

    #[test]
    fn thread_count_ignores_other_threads() {
        let a = CountingAlloc::new();
        let l = Layout::from_size_align(64, 8).unwrap();
        let mine = a.thread_allocations();
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let before = a.thread_allocations();
                let p = a.alloc(l);
                a.dealloc(p, l);
                assert_eq!(a.thread_allocations(), before + 1);
            });
        });
        assert_eq!(a.allocations(), 1, "the process-wide count sees the other thread");
        assert_eq!(a.thread_allocations(), mine, "this thread allocated nothing through `a`");
    }
}
