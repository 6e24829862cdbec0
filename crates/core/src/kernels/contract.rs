//! The GPU contraction step (§III.A): two phases plus compaction, exactly
//! as the paper decomposes it.
//!
//! 1. A counting kernel computes, per thread, the maximum number of
//!    adjacency entries its coarse vertices can need (`temp`); an
//!    exclusive prefix sum turns that into provisional offsets into the
//!    temporary `tmp_adjncy` / `tmp_adjwgt` arrays.
//! 2. The merge kernel collapses each matched pair's adjacency lists —
//!    either by **sort-merge** (quicksort + dedup, the paper's first
//!    strategy) or through a per-thread **clustered hash table** (the
//!    second, faster strategy) — writing merged rows to the temporaries
//!    and the actual entry counts to `temp2`.
//! 3. After prefix sums over `temp2` and the per-vertex degrees, a
//!    compaction kernel copies the rows into the final CSR arrays.
//!
//! All temporaries are freed afterwards ("no extra memory overhead for
//! the contraction").

use crate::gpu_graph::{launch_threads, GpuCsr};
use gpm_gpu_sim::{exclusive_scan_prefix_u32, DBuf, Device, DeviceError, Lane, ScanScratch};
use std::cell::RefCell;

/// Which adjacency-merge strategy the merge kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Sort the concatenated neighbor lists and combine duplicates.
    SortMerge,
    /// Per-thread clustered (chained) hash table keyed by coarse id.
    Hash,
}

/// Recycled device buffers for the coarsening loop: the contraction's
/// temporaries plus the prefix-sum scratch shared with cmap construction.
/// The first (largest) level sizes every buffer high-water; later levels
/// reuse them without touching the allocator. Only scratch lives here —
/// the arrays a level *retains* (cxadj, cvwgt, cadjncy, cadjwgt, cmap)
/// are always allocated fresh at exact size, so the hierarchy carries no
/// slack. Buffer identity is invisible to the timing model (allocation
/// charges no device time and coalescing segments only distinguish
/// buffers within a single instruction group), so a recycled contraction
/// is modeled identically to a cold one; device *peak residency* rises
/// because scratch stays resident across levels.
#[derive(Default)]
pub struct GpuCoarsenScratch {
    rep_of: Option<DBuf<u32>>,
    temp: Option<DBuf<u32>>,
    temp2: Option<DBuf<u32>>,
    tmp_adjncy: Option<DBuf<u32>>,
    tmp_adjwgt: Option<DBuf<u32>>,
    pub(crate) scan: ScanScratch,
}

impl GpuCoarsenScratch {
    /// An empty scratch; buffers are allocated lazily, high-water.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Host-side backing for a merge lane's local memory: the gathered row,
/// and the hash strategy's probe table and insertion-order key list. A
/// lane runs start to finish on one host worker, so one set per worker,
/// reused across lanes, coarse vertices and launches, keeps the merge
/// kernel off the allocator once the longest row has sized it.
struct MergeScratch {
    row: Vec<(u32, u32)>,
    table: Vec<(u32, u32)>,
    keys: Vec<u32>,
}

thread_local! {
    static MERGE_SCRATCH: RefCell<MergeScratch> =
        const { RefCell::new(MergeScratch { row: Vec::new(), table: Vec::new(), keys: Vec::new() }) };
}

/// Hand out the slot's buffer, reallocating only when absent or smaller
/// than `len`. Any stale (too-small) buffer is dropped *before* the
/// replacement is allocated so residency never double-counts.
fn ensure_u32<'a>(
    dev: &Device,
    slot: &'a mut Option<DBuf<u32>>,
    len: usize,
) -> Result<&'a DBuf<u32>, DeviceError> {
    let fits = matches!(slot, Some(b) if b.len() >= len);
    if !fits {
        *slot = None;
        *slot = Some(dev.alloc::<u32>(len)?);
    }
    Ok(slot.as_ref().expect("slot populated above"))
}

/// Contract the device graph given the matching and cmap. Returns the
/// coarse device graph. Convenience wrapper over [`gpu_contract_ws`]
/// with a cold, single-use scratch — the coarsening loop holds one
/// [`GpuCoarsenScratch`] for the whole V-cycle instead.
#[allow(clippy::too_many_arguments)]
pub fn gpu_contract(
    dev: &Device,
    g: &GpuCsr,
    mat: &DBuf<u32>,
    cmap: &DBuf<u32>,
    nc: usize,
    strategy: MergeStrategy,
    max_threads: usize,
) -> Result<GpuCsr, DeviceError> {
    gpu_contract_ws(dev, g, mat, cmap, nc, strategy, max_threads, &mut GpuCoarsenScratch::new())
}

/// Contraction drawing all device temporaries from `ws`. Launch names,
/// order, thread counts and memory traces are byte-identical to a cold
/// [`gpu_contract`] call — pinned by `tests/gpu_contract_identity.rs`.
#[allow(clippy::too_many_arguments)]
pub fn gpu_contract_ws(
    dev: &Device,
    g: &GpuCsr,
    mat: &DBuf<u32>,
    cmap: &DBuf<u32>,
    nc: usize,
    strategy: MergeStrategy,
    max_threads: usize,
    ws: &mut GpuCoarsenScratch,
) -> Result<GpuCsr, DeviceError> {
    let GpuCoarsenScratch { rep_of, temp, temp2, tmp_adjncy, tmp_adjwgt, scan } = ws;
    let n = g.n;
    // Representative fine vertex of each coarse vertex, so threads can be
    // assigned contiguous coarse-id ranges (keeps the final copy phase's
    // regions contiguous).
    let rep_of = ensure_u32(dev, rep_of, nc.max(1))?;
    dev.launch("gp:contract:repof", launch_threads(n, max_threads), |lane| {
        let mut u = lane.tid;
        while u < n {
            let m = lane.ld(mat, u);
            if u as u32 <= m {
                let c = lane.ld(cmap, u);
                lane.st(rep_of, c as usize, u as u32);
            }
            u += lane.n_threads;
        }
    })?;

    let nt = launch_threads(nc, max_threads);
    let chunk = nc.div_ceil(nt.max(1));
    let my_range = move |tid: usize| {
        let lo = (tid * chunk).min(nc);
        let hi = ((tid + 1) * chunk).min(nc);
        (lo, hi)
    };

    // --- phase 1: per-thread upper bounds -> provisional offsets ---------
    let temp = ensure_u32(dev, temp, nt)?;
    dev.launch("gp:contract:count", nt, |lane| {
        let (lo, hi) = my_range(lane.tid);
        let mut total = 0u32;
        for c in lo..hi {
            let u = lane.ld(rep_of, c) as usize;
            let v = lane.ld(mat, u) as usize;
            let du = lane.ld(&g.xadj, u + 1) - lane.ld(&g.xadj, u);
            let dv = if v != u { lane.ld(&g.xadj, v + 1) - lane.ld(&g.xadj, v) } else { 0 };
            total += du + dv;
        }
        lane.st(temp, lane.tid, total);
    })?;
    let tmp_total = exclusive_scan_prefix_u32(dev, temp, nt, scan)? as usize;

    let tmp_adjncy = ensure_u32(dev, tmp_adjncy, tmp_total.max(1))?;
    let tmp_adjwgt = ensure_u32(dev, tmp_adjwgt, tmp_total.max(1))?;
    let deg = dev.alloc::<u32>(nc + 1)?; // degree per coarse vertex (+1 scan slot)
    let cvwgt = dev.alloc::<u32>(nc.max(1))?;
    let temp2 = ensure_u32(dev, temp2, nt)?;

    // --- phase 2: merge into the temporaries ------------------------------
    dev.launch("gp:contract:merge", nt, |lane| {
        MERGE_SCRATCH.with_borrow_mut(|ms| {
            let MergeScratch { row: scratch, table, keys } = ms;
            let (lo, hi) = my_range(lane.tid);
            let mut cursor = lane.ld(temp, lane.tid) as usize;
            let mut actual = 0u32;
            for c in lo..hi {
                let u = lane.ld(rep_of, c) as usize;
                let v = lane.ld(mat, u) as usize;
                let wu = lane.ld(&g.vwgt, u);
                let wv = if v != u { lane.ld(&g.vwgt, v) } else { 0 };
                lane.st(&cvwgt, c, wu + wv);
                // gather both adjacency lists mapped to coarse ids
                scratch.clear();
                let gather = |x: usize, lane: &mut Lane, scratch: &mut Vec<(u32, u32)>| {
                    let s = lane.ld(&g.xadj, x) as usize;
                    let e = lane.ld(&g.xadj, x + 1) as usize;
                    for i in s..e {
                        let nb = lane.ld(&g.adjncy, i);
                        let w = lane.ld(&g.adjwgt, i);
                        let cn = lane.ld(cmap, nb as usize);
                        if cn != c as u32 {
                            scratch.push((cn, w));
                        }
                    }
                };
                gather(u, lane, scratch);
                if v != u {
                    gather(v, lane, scratch);
                }
                let row_len = match strategy {
                    MergeStrategy::SortMerge => merge_by_sort(lane, scratch),
                    MergeStrategy::Hash => merge_by_hash(lane, scratch, table, keys),
                };
                lane.st(&deg, c, row_len as u32);
                for (i, &(cn, w)) in scratch[..row_len].iter().enumerate() {
                    lane.st(tmp_adjncy, cursor + i, cn);
                    lane.st(tmp_adjwgt, cursor + i, w);
                }
                cursor += row_len;
                actual += row_len as u32;
            }
            lane.st(temp2, lane.tid, actual);
        })
    })?;

    // --- prefix sums for the final layout ---------------------------------
    let final_total = exclusive_scan_prefix_u32(dev, temp2, nt, scan)? as usize;
    // coarse xadj = exclusive scan over the degree array (nc + 1 slots; the
    // trailing slot's input value is irrelevant)
    dev.launch("gp:contract:degtail", 1, |lane| {
        lane.st(&deg, nc, 0);
    })?;
    let cxadj = deg; // scanned in place below
    exclusive_scan_prefix_u32(dev, &cxadj, nc + 1, scan)?;

    // --- compaction ---------------------------------------------------------
    let cadjncy = dev.alloc::<u32>(final_total.max(1))?;
    let cadjwgt = dev.alloc::<u32>(final_total.max(1))?;
    dev.launch("gp:contract:compact", nt, |lane| {
        let (lo, hi) = my_range(lane.tid);
        let mut src = lane.ld(temp, lane.tid) as usize;
        for c in lo..hi {
            let dst = lane.ld(&cxadj, c) as usize;
            let len = (lane.ld(&cxadj, c + 1) - lane.ld(&cxadj, c)) as usize;
            for i in 0..len {
                let a = lane.ld(tmp_adjncy, src + i);
                let w = lane.ld(tmp_adjwgt, src + i);
                lane.st(&cadjncy, dst + i, a);
                lane.st(&cadjwgt, dst + i, w);
            }
            src += len;
        }
    })?;
    // temp, temp2, tmp_adjncy, tmp_adjwgt, rep_of return to the scratch for
    // the next level (the paper's "we can free the arrays at the end of the
    // contraction" — they are freed when the V-cycle drops the scratch).
    Ok(GpuCsr {
        n: nc,
        m2: final_total,
        xadj: cxadj,
        adjncy: cadjncy,
        adjwgt: cadjwgt,
        vwgt: cvwgt,
    })
}

/// Sort-merge strategy: sort the scratch row by coarse id, combine equal
/// ids in place; returns the merged length. ALU cost ~ len·log2(len).
fn merge_by_sort(lane: &mut Lane, scratch: &mut [(u32, u32)]) -> usize {
    let len = scratch.len();
    if len == 0 {
        return 0;
    }
    scratch.sort_unstable_by_key(|&(c, _)| c);
    // quicksort of the row scratch lives in per-thread local memory
    lane.local_mem(2 * (len as u64) * (usize::BITS - len.leading_zeros()) as u64);
    let mut out = 0usize;
    let mut i = 0usize;
    while i < len {
        let (c, mut w) = scratch[i];
        let mut j = i + 1;
        while j < len && scratch[j].0 == c {
            w += scratch[j].1;
            j += 1;
        }
        scratch[out] = (c, w);
        out += 1;
        i = j;
        lane.alu(1);
    }
    out
}

/// Clustered-hash-table strategy: open addressing with linear probing
/// over a power-of-two table (the paper's chained buckets collapse to
/// probing for our fixed-size rows); returns the merged length. `table`
/// and `keys_in_order` are recycled scratch; their contents on entry are
/// ignored.
fn merge_by_hash(
    lane: &mut Lane,
    scratch: &mut Vec<(u32, u32)>,
    table: &mut Vec<(u32, u32)>,
    keys_in_order: &mut Vec<u32>,
) -> usize {
    let len = scratch.len();
    if len == 0 {
        return 0;
    }
    let cap = (2 * len).next_power_of_two();
    let mask = cap - 1;
    // (key+1, value) — 0 key = empty
    table.clear();
    table.resize(cap, (0, 0));
    keys_in_order.clear();
    let mut probes = 0u64;
    for &(c, w) in scratch.iter() {
        let mut h = (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
            >> (64 - cap.trailing_zeros()) as usize
            & mask;
        loop {
            probes += 1; // one probe of the clustered table (local memory)
            let (k, _) = table[h];
            if k == 0 {
                table[h] = (c + 1, w);
                keys_in_order.push(c);
                break;
            }
            if k == c + 1 {
                table[h].1 += w;
                break;
            }
            h = (h + 1) & mask;
        }
    }
    lane.local_mem(2 * probes + len as u64);
    scratch.clear();
    for &c in keys_in_order.iter() {
        let mut h = (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
            >> (64 - cap.trailing_zeros()) as usize
            & mask;
        loop {
            let (k, w) = table[h];
            if k == c + 1 {
                scratch.push((c, w));
                break;
            }
            h = (h + 1) & mask;
        }
    }
    scratch.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_graph::Distribution;
    use crate::kernels::cmap::gpu_cmap;
    use crate::kernels::matching::gpu_matching;
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::csr::CsrGraph;
    use gpm_graph::gen::{delaunay_like, grid2d, rmat};
    use gpm_metis::contract::contract;
    use gpm_metis::cost::Work;

    /// Compare GPU contraction against the serial reference for the same
    /// matching.
    fn check_against_serial(g: &CsrGraph, strategy: MergeStrategy, seed: u64) {
        let dev = Device::new(GpuConfig::gtx_titan());
        let gg = GpuCsr::upload(&dev, g).unwrap();
        let (dmat, _) = gpu_matching(
            &dev,
            &gg,
            u32::MAX,
            3,
            g.uniform_edge_weights(),
            seed,
            Distribution::Cyclic,
            2048,
        )
        .unwrap();
        let mat = dmat.to_vec();
        let (dcmap, nc) = gpu_cmap(&dev, &dmat, Distribution::Cyclic, 2048).unwrap();
        let coarse_dev = gpu_contract(&dev, &gg, &dmat, &dcmap, nc, strategy, 512).unwrap();
        let coarse = coarse_dev.download(&dev).unwrap();
        coarse.validate().unwrap();

        let mut w = Work::default();
        let (serial, scmap) = contract(g, &mat, &mut w);
        assert_eq!(dcmap.to_vec(), scmap);
        assert_eq!(coarse.n(), serial.n());
        assert_eq!(coarse.total_vwgt(), serial.total_vwgt());
        assert_eq!(coarse.m(), serial.m());
        for c in 0..coarse.n() as u32 {
            let mut a: Vec<_> = coarse.edges(c).collect();
            let mut b: Vec<_> = serial.edges(c).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "row {c}");
        }
    }

    #[test]
    fn sort_merge_matches_serial_grid() {
        check_against_serial(&grid2d(14, 14), MergeStrategy::SortMerge, 1);
    }

    #[test]
    fn hash_matches_serial_grid() {
        check_against_serial(&grid2d(14, 14), MergeStrategy::Hash, 1);
    }

    #[test]
    fn both_strategies_on_delaunay() {
        let g = delaunay_like(900, 4);
        check_against_serial(&g, MergeStrategy::SortMerge, 7);
        check_against_serial(&g, MergeStrategy::Hash, 7);
    }

    #[test]
    fn skewed_graph_contract() {
        let g = rmat(8, 6, 3);
        check_against_serial(&g, MergeStrategy::Hash, 5);
    }

    #[test]
    fn merge_helpers_agree() {
        let dev = Device::new(GpuConfig::gtx_titan());
        let buf = dev.alloc::<u32>(1).unwrap();
        dev.launch("t", 1, |lane| {
            let rows: Vec<Vec<(u32, u32)>> = vec![
                vec![],
                vec![(5, 1)],
                vec![(3, 1), (3, 2), (1, 5)],
                vec![(9, 1), (2, 1), (9, 1), (2, 1), (9, 3)],
            ];
            // one table and key list for every row, grown and shrunk, as
            // the merge kernel recycles them
            let (mut table, mut keys) = (Vec::new(), Vec::new());
            for row in rows.iter().chain(rows.iter().rev()) {
                let mut a = row.clone();
                let mut b = row.clone();
                let la = merge_by_sort(lane, &mut a);
                let lb = merge_by_hash(lane, &mut b, &mut table, &mut keys);
                let mut ra: Vec<_> = a[..la].to_vec();
                let mut rb: Vec<_> = b[..lb].to_vec();
                ra.sort_unstable();
                rb.sort_unstable();
                assert_eq!(ra, rb);
            }
            lane.st(&buf, 0, 1);
        })
        .unwrap();
        assert_eq!(buf.load(0), 1);
    }
}
