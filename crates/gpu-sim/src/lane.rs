//! The per-thread (lane) view of a running kernel.
//!
//! All device-memory accesses made by kernel code go through [`Lane`], so
//! the simulator can count instructions and record which 128-byte memory
//! segment every access touches. After a warp's lanes have run, the
//! launcher replays the recorded traces in lockstep: the number of
//! distinct segments among the lanes' `k`-th accesses is the number of
//! memory transactions the warp issued at step `k` — the coalescing model
//! of §III (Fig. 2 of the paper). The replay walks each trace once,
//! checking an access against the previous lane's at the same position
//! and otherwise against a per-warp hash table (`device::LockstepSegs`;
//! DESIGN.md §3.5).

use crate::buffer::{DBuf, DeviceInt, DeviceWord};

/// Execution context handed to kernel code, one per simulated GPU thread.
pub struct Lane<'a> {
    /// Global thread index.
    pub tid: usize,
    /// Total threads in this launch.
    pub n_threads: usize,
    /// Instructions retired by this lane (each API call counts one; use
    /// [`Lane::alu`] for extra arithmetic work).
    pub(crate) instr: u64,
    /// Segment ids of this lane's memory accesses, bounded by `trace_cap`.
    pub(crate) trace: &'a mut Vec<u64>,
    /// Accesses beyond the trace capacity (charged 1 transaction each).
    pub(crate) overflow: u64,
    pub(crate) trace_cap: usize,
    /// `log2` of the segment size in bytes.
    pub(crate) segment_shift: u32,
    /// Tiny per-lane ring of recently touched segments, modeling the L1/L2
    /// spatial locality that absorbs lane-sequential traffic (a thread
    /// scanning a contiguous row re-reads the same 128 B line 32 times;
    /// real hardware fetches it once).
    pub(crate) recent: [u64; 4],
    pub(crate) recent_pos: usize,
}

impl<'a> Lane<'a> {
    #[inline]
    fn record<T: DeviceWord>(&mut self, buf: &DBuf<T>, i: usize) {
        debug_assert!(i < buf.len(), "device access out of bounds: {} >= {}", i, buf.len());
        self.instr += 1;
        let seg = (buf.id << 40) | ((i as u64 * 4) >> self.segment_shift);
        // Non-short-circuit `|` over the ring: one branch instead of four.
        if self.recent.iter().fold(false, |hit, &r| hit | (r == seg)) {
            return; // spatial-locality hit: no new memory transaction
        }
        self.recent[self.recent_pos] = seg;
        self.recent_pos = (self.recent_pos + 1) % self.recent.len();
        if self.trace.len() < self.trace_cap {
            self.trace.push(seg);
        } else {
            self.overflow += 1;
        }
    }

    /// Load `buf[i]` from global memory.
    #[inline]
    pub fn ld<T: DeviceWord>(&mut self, buf: &DBuf<T>, i: usize) -> T {
        self.record(buf, i);
        buf.load(i)
    }

    /// Store `v` to `buf[i]` in global memory (plain racy store, like a
    /// non-atomic CUDA store: concurrent writers — some write wins).
    #[inline]
    pub fn st<T: DeviceWord>(&mut self, buf: &DBuf<T>, i: usize, v: T) {
        self.record(buf, i);
        buf.store(i, v);
    }

    /// Store into a buffer slot claimed from a racing atomic append
    /// (`slot = atomicAdd(&counter, 1)` patterns). The physical slot
    /// depends on scheduling, so tracing it would make the modeled
    /// transaction count differ run to run; the access is traced at
    /// `model_i` instead — a caller-chosen deterministic index with the
    /// same coalescing shape (warp-concurrent claims on one counter take
    /// adjacent slots, so the lane's offset within its warp is the usual
    /// proxy). `slot = None` models a claim past the buffer capacity:
    /// the store is dropped but the issue slots and traffic are still
    /// charged, keeping the cost independent of which racer lost.
    #[inline]
    pub fn st_claimed<T: DeviceWord>(
        &mut self,
        buf: &DBuf<T>,
        slot: Option<usize>,
        model_i: usize,
        v: T,
    ) {
        self.record(buf, model_i);
        if let Some(i) = slot {
            buf.store(i, v);
        }
    }

    /// `atomicAdd`: returns the previous value.
    #[inline]
    pub fn atomic_add<T: DeviceInt>(&mut self, buf: &DBuf<T>, i: usize, v: T) -> T {
        self.record(buf, i);
        self.instr += 1; // RMW costs extra issue slots
        buf.fetch_add(i, v)
    }

    /// `atomicCAS`: returns `Ok(previous)` on success.
    #[inline]
    pub fn atomic_cas<T: DeviceWord>(
        &mut self,
        buf: &DBuf<T>,
        i: usize,
        current: T,
        new: T,
    ) -> Result<T, T> {
        self.record(buf, i);
        self.instr += 1;
        buf.cas(i, current, new)
    }

    /// `atomicMax` on unsigned words.
    #[inline]
    pub fn atomic_max(&mut self, buf: &DBuf<u32>, i: usize, v: u32) -> u32 {
        self.record(buf, i);
        self.instr += 1;
        buf.fetch_max_u32(i, v)
    }

    /// Charge `n` pure-ALU instructions (sorting scratch data, hashing,
    /// arithmetic loops) that do not touch global memory.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.instr += n;
    }

    /// Charge `n` accesses to per-thread *local* memory (spilled scratch
    /// arrays — sort buffers, hash tables, connectivity tables). CUDA
    /// local memory lives in DRAM, interleaved per thread; divergent
    /// per-thread access patterns coalesce only partially, so we charge
    /// one 128 B transaction per 4 accesses plus one instruction each.
    #[inline]
    pub fn local_mem(&mut self, n: u64) {
        self.instr += n;
        self.overflow += n / 4;
    }

    /// Instructions retired so far (for tests and introspection).
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn mk_lane(trace: &mut Vec<u64>) -> Lane<'_> {
        Lane {
            tid: 0,
            n_threads: 1,
            instr: 0,
            trace,
            overflow: 0,
            trace_cap: 4,
            segment_shift: 7,
            recent: [0; 4],
            recent_pos: 0,
        }
    }

    fn mk_buf(len: usize, id: u64) -> DBuf<u32> {
        DBuf::new(len, id, Arc::new(AtomicU64::new(len as u64 * 4)))
    }

    #[test]
    fn ld_st_count_instructions_and_trace() {
        let b = mk_buf(64, 3);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        lane.st(&b, 0, 7);
        assert_eq!(lane.ld(&b, 0), 7); // same segment: locality hit
        lane.alu(5);
        assert_eq!(lane.instructions(), 7);
        assert_eq!(tr.len(), 1, "repeat access to a hot segment is absorbed");
    }

    #[test]
    fn segments_are_128_bytes() {
        let b = mk_buf(300, 1);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        lane.ld(&b, 0); // word 0 -> segment 0
        lane.ld(&b, 31); // word 31 = byte 124 -> segment 0: locality hit
        lane.ld(&b, 32); // byte 128 -> segment 1: new transaction
        assert_eq!(tr.len(), 2);
        assert_ne!(tr[0], tr[1]);
    }

    #[test]
    fn locality_ring_evicts_after_four_segments() {
        let b = mk_buf(4096, 1);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        // touch 5 distinct segments, then re-touch the first: evicted
        for s in 0..5 {
            lane.ld(&b, s * 32);
        }
        let before = lane.trace.len() + lane.overflow as usize;
        lane.ld(&b, 0);
        assert_eq!(lane.trace.len() + lane.overflow as usize, before + 1);
    }

    #[test]
    fn different_buffers_different_segments() {
        let a = mk_buf(8, 1);
        let b = mk_buf(8, 2);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        lane.ld(&a, 0);
        lane.ld(&b, 0);
        assert_ne!(tr[0], tr[1]);
    }

    #[test]
    fn overflow_counts_beyond_cap() {
        let b = mk_buf(1024, 1);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        for i in 0..10 {
            lane.ld(&b, i * 64);
        }
        assert_eq!(lane.overflow, 6);
        assert_eq!(lane.trace.len(), 4);
    }

    #[test]
    fn st_claimed_traces_model_index_and_drops_overflow() {
        let b = mk_buf(256, 1);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        // stores land at the racy slot, the trace at the proxy
        lane.st_claimed(&b, Some(200), 0, 7);
        assert_eq!(b.load(200), 7);
        assert_eq!(*lane.trace, vec![1u64 << 40]); // segment of index 0, not 200
                                                   // an overflowed claim still charges the instruction and traffic
        let before = lane.instructions();
        lane.st_claimed(&b, None, 64, 9);
        assert_eq!(lane.instructions(), before + 1);
        assert_eq!(lane.trace.len(), 2);
    }

    #[test]
    fn atomics_work_and_cost_more() {
        let b = mk_buf(1, 1);
        let mut tr = Vec::new();
        let mut lane = mk_lane(&mut tr);
        assert_eq!(lane.atomic_add(&b, 0, 4), 0);
        assert_eq!(lane.atomic_cas(&b, 0, 4, 9), Ok(4));
        assert_eq!(lane.atomic_max(&b, 0, 100), 9);
        assert_eq!(b.load(0), 100);
        assert_eq!(lane.instructions(), 6); // 3 accesses x 2
    }
}
