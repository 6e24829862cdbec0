//! GPU un-coarsening kernels (§III.C): projection, and the lock-free
//! buffered refinement — a boundary kernel in which threads find each
//! boundary vertex's best destination partition (under the alternating
//! direction ordering) and append movement requests to per-partition
//! buffers through an atomically incremented size counter, and an explore
//! kernel with one thread per partition that sorts its buffer by gain and
//! commits the moves that keep the partition under its maximum weight.
//!
//! The pass exists once, in `RefinePass`, and both refiners run it:
//! [`gpu_refine`] on one device, and the multi-GPU halo refiner
//! (`super::halo::HaloRefine`) on each shard's augmented level graph.
//! What differs between them is data: the kernel names
//! (`RefineKernels`), the range of vertices that may move (`n_local`,
//! which is the whole graph on one device), and where the explore kernel
//! reads a partition's weight cap (`PartCaps`).

use crate::gpu_graph::{assigned_vertices, launch_threads, Distribution, GpuCsr};
use gpm_gpu_sim::{inclusive_scan_u32, DBuf, Device, DeviceError};

/// The kernel names of one refiner's projection and pass, so that each
/// caller's launches keep their own names in the kernel log.
pub(crate) struct RefineKernels {
    pub project: &'static str,
    pub remark: &'static str,
    /// The re-mark seeded by ghosts whose labels changed; `None` where
    /// there are no ghosts, and then its seed buffer is never allocated.
    pub gremark: Option<&'static str>,
    pub poscopy: &'static str,
    pub compact: &'static str,
    pub request: &'static str,
    pub snapshot: &'static str,
    pub explore: &'static str,
}

/// The single-GPU refiner's kernel names.
static REFINE_KERNELS: RefineKernels = RefineKernels {
    project: "gp:project",
    remark: "gp:refine:remark",
    gremark: None,
    poscopy: "gp:refine:poscopy",
    compact: "gp:refine:compact",
    request: "gp:refine:request",
    snapshot: "gp:refine:snapshot",
    explore: "gp:refine:explore",
};

/// Project a coarse partition onto the fine graph through the per-level
/// cmap (the paper's saved pointer arrays).
pub fn gpu_project(
    dev: &Device,
    cmap: &DBuf<u32>,
    part_coarse: &DBuf<u32>,
    dist: Distribution,
    max_threads: usize,
) -> Result<DBuf<u32>, DeviceError> {
    project_padded(dev, REFINE_KERNELS.project, cmap, part_coarse, 0, dist, max_threads)
}

/// The projection kernel: gather each fine vertex's label through the
/// cmap into a fresh vector with `pad` trailing zero slots (ghost labels
/// of the multi-GPU halo graph, which the superstep exchange fills).
pub(crate) fn project_padded(
    dev: &Device,
    name: &'static str,
    cmap: &DBuf<u32>,
    part_coarse: &DBuf<u32>,
    pad: usize,
    dist: Distribution,
    max_threads: usize,
) -> Result<DBuf<u32>, DeviceError> {
    let n = cmap.len();
    let part_fine = dev.alloc::<u32>(n + pad)?;
    dev.launch(name, launch_threads(n, max_threads), |lane| {
        for u in assigned_vertices(dist, lane.tid, lane.n_threads, n) {
            let c = lane.ld(cmap, u);
            let p = lane.ld(part_coarse, c as usize);
            lane.st(&part_fine, u, p);
        }
    })?;
    Ok(part_fine)
}

/// Statistics of one refinement invocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuRefineStats {
    /// Committed moves.
    pub moves: u64,
    /// Requests rejected at the explore kernel (balance).
    pub rejected: u64,
    /// Requests dropped because a partition buffer overflowed.
    pub overflowed: u64,
    /// Passes executed.
    pub passes: u32,
}

/// Run the two-kernel lock-free refinement in place on the device
/// partition vector. `pw` must hold the current partition weights; it is
/// kept up to date on the device.
#[allow(clippy::too_many_arguments)]
pub fn gpu_refine(
    dev: &Device,
    g: &GpuCsr,
    part: &DBuf<u32>,
    pw: &DBuf<u32>,
    k: usize,
    maxw: u32,
    max_passes: usize,
    dist: Distribution,
    max_threads: usize,
) -> Result<GpuRefineStats, DeviceError> {
    let mut stats = GpuRefineStats::default();
    let mut state = RefinePass::new(dev, g, g.n, k, &REFINE_KERNELS)?;
    for pass in 0..max_passes {
        stats.passes += 1;
        // one movement direction per pass, reversed each round (the same
        // ordering method the CPU refiners use; prevents concurrent A-B
        // swaps between neighbor partitions)
        let dir_up = pass.is_multiple_of(2) as u32;
        let caps = PartCaps::Uniform(maxw);
        let moves = state.pass(dev, g, part, pw, caps, dir_up, &[], dist, max_threads)?;
        stats.moves += moves;
        // requests dropped because a partition buffer was full
        let cap = state.cap as u64;
        stats.overflowed +=
            (0..k).map(|q| (state.bufsize.load(q) as u64).saturating_sub(cap)).sum::<u64>();
        if moves == 0 {
            break;
        }
    }
    Ok(stats)
}

/// Where the explore kernel reads a partition's weight cap.
pub(crate) enum PartCaps<'a> {
    /// One cap for every partition (`maxw`), held in a register.
    Uniform(u32),
    /// A per-partition cap, loaded from device memory by the partition's
    /// explore thread.
    PerPart(&'a DBuf<u32>),
}

/// One level's refinement state: the per-partition request buffers, the
/// boundary work-list machinery, and the host-side mode and
/// previous-pass bookkeeping, held across the level's passes.
pub(crate) struct RefinePass {
    names: &'static RefineKernels,
    /// Vertices `0..n_local` may move; the rest (ghosts) never launch.
    n_local: usize,
    k: usize,
    /// Slots per partition buffer.
    cap: usize,
    // per-partition request buffers: vertex ids and gains, plus a size
    // counter S per partition (the paper's scheme)
    req_vertex: DBuf<u32>,
    req_gain: DBuf<u32>,
    bufsize: DBuf<u32>,
    moved: DBuf<u32>,
    // frozen copy of pw taken between the request and explore kernels:
    // sibling explore threads decrement pw[q] for departing vertices, so
    // a live read would make acceptance near the cap depend on warp
    // scheduling; the snapshot (plus own additions) is conservative but
    // identical on every run
    pw0: DBuf<u32>,
    // boundary work-list state: persistent mark flags, scan positions,
    // the compacted vertex list the request kernel launches over, the
    // previous pass's committed moves (seed for the incremental re-mark),
    // and a boundary counter for the full-grid mode
    bflag: DBuf<u32>,
    bpos: DBuf<u32>,
    worklist: DBuf<u32>,
    moved_list: DBuf<u32>,
    bndctr: DBuf<u32>,
    /// Changed ghost slots, the extra re-mark seeds of a graph with
    /// ghosts (see [`RefineKernels::gremark`]).
    gchg: Option<DBuf<u32>>,
    deg_est: usize,
    use_compact: bool,
    prev_moves: usize,
}

impl RefinePass {
    /// Allocate the pass state for `g`, whose first `n_local` vertices
    /// may move and whose other vertices are ghosts.
    pub(crate) fn new(
        dev: &Device,
        g: &GpuCsr,
        n_local: usize,
        k: usize,
        names: &'static RefineKernels,
    ) -> Result<Self, DeviceError> {
        let cap = (n_local / k + 64).min(n_local.max(1));
        Ok(RefinePass {
            names,
            n_local,
            k,
            cap,
            req_vertex: dev.alloc::<u32>(k * cap)?,
            req_gain: dev.alloc::<u32>(k * cap)?,
            bufsize: dev.alloc::<u32>(k)?,
            moved: dev.alloc::<u32>(1)?,
            pw0: dev.alloc::<u32>(k)?,
            bflag: dev.alloc::<u32>(n_local)?,
            bpos: dev.alloc::<u32>(n_local)?,
            worklist: dev.alloc::<u32>(n_local)?,
            moved_list: dev.alloc::<u32>(n_local)?,
            bndctr: dev.alloc::<u32>(1)?,
            gchg: names.gremark.map(|_| dev.alloc::<u32>((g.n - n_local).max(1))).transpose()?,
            deg_est: g.adjncy.len() / g.n.max(1),
            use_compact: false,
            prev_moves: 0,
        })
    }

    /// Run one refinement pass in direction `dir_up` on the partition
    /// vector `part`, with the partition weights `pw` as of the pass
    /// start (kept up to date on the device). `changed_ghosts` seeds the
    /// incremental re-mark with the ghost slots whose labels changed
    /// since the last pass. Returns the committed move count; the moved
    /// vertices are [`RefinePass::moved_vertices`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pass(
        &mut self,
        dev: &Device,
        g: &GpuCsr,
        part: &DBuf<u32>,
        pw: &DBuf<u32>,
        caps: PartCaps<'_>,
        dir_up: u32,
        changed_ghosts: &[u32],
        dist: Distribution,
        max_threads: usize,
    ) -> Result<u64, DeviceError> {
        let (names, n_local, k, cap) = (self.names, self.n_local, self.k, self.cap);
        self.bufsize.fill(0);
        self.moved.store(0, 0);
        let (req_vertex, req_gain, bufsize) = (&self.req_vertex, &self.req_gain, &self.bufsize);
        // The request body shared by both modes: one walk gathers the
        // connectivity and detects the boundary as it goes (exactly the
        // pre-work-list kernel shape); a boundary vertex then picks the
        // best destination under the direction constraint and claims a
        // slot in its buffer. Returns the boundary bit. Ghost neighbors
        // are ordinary `part` lookups; a ghost itself never runs it.
        let request = |lane: &mut gpm_gpu_sim::Lane, u: usize| -> u32 {
            let pu = lane.ld(part, u);
            let s = lane.ld(&g.xadj, u) as usize;
            let e = lane.ld(&g.xadj, u + 1) as usize;
            // connectivity to each adjacent partition (lane-local)
            let mut parts: [u32; 24] = [0; 24];
            let mut wgts: [i64; 24] = [0; 24];
            let mut np = 0usize;
            let mut boundary = 0u32;
            for i in s..e {
                let v = lane.ld(&g.adjncy, i);
                let w = lane.ld(&g.adjwgt, i) as i64;
                let pv = lane.ld(part, v as usize);
                if pv != pu {
                    boundary = 1;
                }
                // the connectivity table is per-thread scratch in local
                // memory; the linear scan is the degree-dependent cost
                // that makes dense graphs expensive for the GPU refiner
                lane.local_mem((np as u64 / 2).max(1));
                match parts[..np].iter().position(|&x| x == pv) {
                    Some(j) => wgts[j] += w,
                    None if np < 24 => {
                        parts[np] = pv;
                        wgts[np] = w;
                        np += 1;
                    }
                    None => {} // >24 adjacent partitions: ignore rest
                }
            }
            if boundary == 0 {
                return 0; // interior: no foreign destination exists
            }
            let w_own = parts[..np].iter().position(|&x| x == pu).map_or(0, |j| wgts[j]);
            let vw = lane.ld(&g.vwgt, u);
            let mut best: Option<(u32, i64)> = None;
            for j in 0..np {
                let q = parts[j];
                if q == pu || (dir_up == 1) != (q > pu) {
                    continue;
                }
                let gain = wgts[j] - w_own;
                let improves_balance = lane.ld(pw, q as usize) + vw < lane.ld(pw, pu as usize);
                if gain > 0 || (gain == 0 && improves_balance) {
                    match best {
                        Some((_, bg)) if bg >= gain => {}
                        _ => best = Some((q, gain)),
                    }
                }
            }
            if let Some((q, gain)) = best {
                // atomically claim a slot in q's buffer; the slot value
                // races, so the stores are traced at a deterministic
                // proxy (warp-concurrent claims get adjacent slots, so
                // the in-warp lane offset has the same coalescing shape)
                let slot = lane.atomic_add(bufsize, q as usize, 1) as usize;
                let kept = (slot < cap).then_some(q as usize * cap + slot);
                let model = q as usize * cap + (lane.tid % 32) % cap;
                lane.st_claimed(req_vertex, kept, model, u as u32);
                lane.st_claimed(req_gain, kept, model, gain as u32);
            }
            1
        };
        // Mode selection between the two request strategies. Compaction
        // pays an O(n) scan/scatter plus an O(moves * deg^2) incremental
        // re-mark per pass to shrink the request grid from n to the
        // boundary, so it only wins when the boundary times the
        // degree-dependent work it saves exceeds that overhead — a sliver
        // boundary on a sparse graph. `nbnd * (deg + 4) < n` is that
        // break-even, with `nbnd` the boundary measured at the previous
        // pass (both modes produce it). The first pass always runs the
        // full grid (it must discover the boundary anyway). Both modes
        // request for exactly the boundary-vertex set, so the partition
        // trajectory is identical whichever is picked.
        let nbnd_known = if self.use_compact {
            // --- incremental re-mark + stream compaction ----------------
            // The flags live across passes; a flag can only change if the
            // vertex or one of its neighbors moved, so only the seeds and
            // their neighborhoods are re-derived: the previous pass's
            // committed moves, and the local neighbors of every ghost
            // whose label changed (through the ghost's reverse edges).
            // Every recompute sees the final current partition, so
            // overlapping updates are idempotent and the flags match a
            // full re-mark. A prefix scan turns the flags into compacted
            // positions and a scatter builds the work-list, so the
            // request kernel launches a grid sized to the boundary, not
            // to n. The compacted list stays in ascending vertex order
            // (the scan is order-preserving), and the explore kernel's
            // total-order sort makes commits independent of slot-claim
            // order anyway, so partitions are unchanged.
            let bflag = &self.bflag;
            let remark = |lane: &mut gpm_gpu_sim::Lane, x: usize| {
                let px = lane.ld(part, x);
                let s = lane.ld(&g.xadj, x) as usize;
                let e = lane.ld(&g.xadj, x + 1) as usize;
                let mut b = 0u32;
                for i in s..e {
                    let v = lane.ld(&g.adjncy, i);
                    if lane.ld(part, v as usize) != px {
                        b = 1;
                        break;
                    }
                }
                lane.st(bflag, x, b);
            };
            let m = self.prev_moves;
            if m > 0 {
                let moved_list = &self.moved_list;
                dev.launch(names.remark, launch_threads(m, max_threads), |lane| {
                    for i in assigned_vertices(dist, lane.tid, lane.n_threads, m) {
                        let u = lane.ld(moved_list, i) as usize;
                        remark(lane, u);
                        let s = lane.ld(&g.xadj, u) as usize;
                        let e = lane.ld(&g.xadj, u + 1) as usize;
                        for j in s..e {
                            let v = lane.ld(&g.adjncy, j) as usize;
                            if v < n_local {
                                remark(lane, v);
                            }
                        }
                    }
                })?;
            }
            let cg = changed_ghosts.len();
            if let (Some(name), Some(gchg), true) = (names.gremark, &self.gchg, cg > 0) {
                for (i, &s) in changed_ghosts.iter().enumerate() {
                    gchg.store(i, s);
                }
                dev.launch(name, launch_threads(cg, max_threads), |lane| {
                    for i in assigned_vertices(dist, lane.tid, lane.n_threads, cg) {
                        let ghost = n_local + lane.ld(gchg, i) as usize;
                        let s = lane.ld(&g.xadj, ghost) as usize;
                        let e = lane.ld(&g.xadj, ghost + 1) as usize;
                        for j in s..e {
                            let v = lane.ld(&g.adjncy, j) as usize;
                            remark(lane, v);
                        }
                    }
                })?;
            }
            let (bpos, worklist) = (&self.bpos, &self.worklist);
            dev.launch(names.poscopy, launch_threads(n_local, max_threads), |lane| {
                for u in assigned_vertices(dist, lane.tid, lane.n_threads, n_local) {
                    let b = lane.ld(bflag, u);
                    lane.st(bpos, u, b);
                }
            })?;
            let nbnd = inclusive_scan_u32(dev, bpos)? as usize;
            if nbnd == 0 {
                // boundary emptied mid-schedule: skip all launches
                self.prev_moves = 0;
                return Ok(0);
            }
            dev.launch(names.compact, launch_threads(n_local, max_threads), |lane| {
                for u in assigned_vertices(dist, lane.tid, lane.n_threads, n_local) {
                    if lane.ld(bflag, u) == 1 {
                        let pos = (lane.ld(bpos, u) - 1) as usize;
                        lane.st(worklist, pos, u as u32);
                    }
                }
            })?;
            // request kernel over the compacted boundary work-list
            dev.launch(names.request, launch_threads(nbnd, max_threads), |lane| {
                for wi in assigned_vertices(dist, lane.tid, lane.n_threads, nbnd) {
                    let u = lane.ld(worklist, wi) as usize;
                    request(lane, u);
                }
            })?;
            nbnd
        } else {
            // --- full-grid request --------------------------------------
            // One thread's worth of work per vertex, as before the
            // work-list existed — but the kernel also refreshes the
            // boundary flags and counts the boundary as it goes, so a
            // later pass can switch to the compacted mode for free.
            let (bflag, bndctr) = (&self.bflag, &self.bndctr);
            bndctr.store(0, 0);
            dev.launch(names.request, launch_threads(n_local, max_threads), |lane| {
                for u in assigned_vertices(dist, lane.tid, lane.n_threads, n_local) {
                    let b = request(lane, u);
                    lane.st(bflag, u, b);
                    if b == 1 {
                        lane.atomic_add(bndctr, 0, 1);
                    }
                }
            })?;
            bndctr.load(0) as usize
        };
        // pick the request strategy for the next pass from this pass's
        // measured boundary (break-even note above)
        self.use_compact = nbnd_known * (self.deg_est + 4) < n_local;
        // snapshot kernel: freeze pw before the explore threads race
        let pw0 = &self.pw0;
        dev.launch(names.snapshot, k, |lane| {
            let v = lane.ld(pw, lane.tid);
            lane.st(pw0, lane.tid, v);
        })?;
        // --- explore kernel: one thread per partition ---------------------
        let (moved, moved_list) = (&self.moved, &self.moved_list);
        dev.launch(names.explore, k, |lane| {
            let q = lane.tid;
            let submitted = lane.ld(bufsize, q) as usize;
            let cnt = submitted.min(cap);
            // read and sort this partition's requests by gain (desc);
            // vertex id breaks gain ties so the commit order does not
            // depend on the atomic slot-claim order
            let mut reqs: Vec<(u32, u32)> = Vec::with_capacity(cnt);
            for i in 0..cnt {
                let gain = lane.ld(req_gain, q * cap + i);
                let v = lane.ld(req_vertex, q * cap + i);
                reqs.push((gain, v));
            }
            reqs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            lane.local_mem((cnt as u64) * (usize::BITS - cnt.leading_zeros()) as u64);
            let capq = match caps {
                PartCaps::Uniform(maxw) => maxw,
                PartCaps::PerPart(c) => lane.ld(c, q),
            };
            // conservative local view of q's weight: frozen starting
            // value plus own additions (concurrent explore threads only
            // ever *decrement* pw[q], so the cap check stays safe)
            let mut myw = lane.ld(pw0, q);
            for &(_gain, u) in &reqs {
                let vw = lane.ld(&g.vwgt, u as usize);
                if myw + vw > capq {
                    continue; // would overweight this partition
                }
                let from = lane.ld(part, u as usize);
                lane.st(part, u as usize, q as u32);
                myw += vw;
                lane.atomic_add(pw, q, vw);
                lane.atomic_add(pw, from as usize, vw.wrapping_neg());
                // record the move for the next pass's incremental
                // re-mark; the list is consumed as an unordered set, so
                // the racy slot order is harmless
                let slot = lane.atomic_add(moved, 0, 1) as usize;
                lane.st(moved_list, slot, u);
            }
        })?;
        self.prev_moves = self.moved.load(0) as usize;
        Ok(self.prev_moves as u64)
    }

    /// The vertices the last pass moved, in commit-slot order (an
    /// unordered set: consume it only through order-insensitive
    /// reductions). Host-side inspection.
    pub(crate) fn moved_vertices(&self) -> Vec<u32> {
        (0..self.prev_moves).map(|i| self.moved_list.load(i)).collect()
    }
}

/// Compute partition weights on the device (one pass of atomic adds).
pub fn gpu_part_weights(
    dev: &Device,
    g: &GpuCsr,
    part: &DBuf<u32>,
    k: usize,
    dist: Distribution,
    max_threads: usize,
) -> Result<DBuf<u32>, DeviceError> {
    let pw = dev.alloc::<u32>(k)?;
    let n = g.n;
    dev.launch("gp:refine:weights", launch_threads(n, max_threads), |lane| {
        for u in assigned_vertices(dist, lane.tid, lane.n_threads, n) {
            let p = lane.ld(part, u);
            let vw = lane.ld(&g.vwgt, u);
            lane.atomic_add(&pw, p as usize, vw);
        }
    })?;
    Ok(pw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::gen::{delaunay_like, grid2d};
    use gpm_graph::metrics::{edge_cut, max_part_weight, part_weights};
    use gpm_graph::rng::SplitMix64;

    fn dev() -> Device {
        Device::new(GpuConfig::gtx_titan())
    }

    #[test]
    fn projection_gathers_labels() {
        let d = dev();
        let cmap = d.h2d(&[0u32, 0, 1, 1, 2]).unwrap();
        let cpart = d.h2d(&[7u32, 8, 9]).unwrap();
        let fine = gpu_project(&d, &cmap, &cpart, Distribution::Cyclic, 8).unwrap();
        assert_eq!(fine.to_vec(), vec![7, 7, 8, 8, 9]);
    }

    #[test]
    fn part_weights_on_device() {
        let d = dev();
        let g = grid2d(4, 4);
        let gg = GpuCsr::upload(&d, &g).unwrap();
        let part = d.h2d(&[0u32, 1].repeat(8)).unwrap();
        let pw = gpu_part_weights(&d, &gg, &part, 2, Distribution::Cyclic, 64).unwrap();
        assert_eq!(pw.to_vec(), vec![8, 8]);
    }

    #[test]
    fn refine_improves_random_partition() {
        let g = grid2d(16, 16);
        let k = 4;
        let mut rng = SplitMix64::new(3);
        let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        let before = edge_cut(&g, &init);
        let d = dev();
        let gg = GpuCsr::upload(&d, &g).unwrap();
        let part = d.h2d(&init).unwrap();
        let pw = gpu_part_weights(&d, &gg, &part, k, Distribution::Cyclic, 512).unwrap();
        let maxw = max_part_weight(g.total_vwgt(), k, 1.05) as u32;
        let stats = gpu_refine(&d, &gg, &part, &pw, k, maxw, 8, Distribution::Cyclic, 512).unwrap();
        let after_part = part.to_vec();
        let after = edge_cut(&g, &after_part);
        assert!(after < before, "{before} -> {after}");
        assert!(stats.moves > 0);
        // device weights stayed consistent
        let host_pw = part_weights(&g, &after_part, k);
        let dev_pw: Vec<u64> = pw.to_vec().into_iter().map(|x| x as u64).collect();
        assert_eq!(host_pw, dev_pw);
        // balance
        assert!(host_pw.iter().all(|&w| w <= maxw as u64), "{host_pw:?} vs {maxw}");
    }

    #[test]
    fn refine_respects_cap_under_pressure() {
        let g = delaunay_like(400, 9);
        let k = 4;
        // heavily unbalanced start: most vertices in part 0
        let init: Vec<u32> =
            (0..g.n()).map(|u| if u % 10 == 0 { (u % 4) as u32 } else { 0 }).collect();
        let d = dev();
        let gg = GpuCsr::upload(&d, &g).unwrap();
        let part = d.h2d(&init).unwrap();
        let pw = gpu_part_weights(&d, &gg, &part, k, Distribution::Cyclic, 512).unwrap();
        let maxw = max_part_weight(g.total_vwgt(), k, 1.10) as u32;
        gpu_refine(&d, &gg, &part, &pw, k, maxw, 6, Distribution::Cyclic, 512).unwrap();
        let host_pw = part_weights(&g, &part.to_vec(), k);
        // destinations never exceed maxw (part 0 may stay overweight — the
        // paper relies on further refinement at finer levels for balance)
        for q in 1..k {
            assert!(host_pw[q] <= maxw as u64, "{host_pw:?}");
        }
    }

    #[test]
    fn converged_partition_stops() {
        let g = grid2d(8, 8);
        let init: Vec<u32> = (0..64u32).map(|i| (i % 8) / 4).collect();
        let d = dev();
        let gg = GpuCsr::upload(&d, &g).unwrap();
        let part = d.h2d(&init).unwrap();
        let pw = gpu_part_weights(&d, &gg, &part, 2, Distribution::Cyclic, 64).unwrap();
        let maxw = max_part_weight(g.total_vwgt(), 2, 1.03) as u32;
        let before = edge_cut(&g, &init);
        let stats = gpu_refine(&d, &gg, &part, &pw, 2, maxw, 10, Distribution::Cyclic, 64).unwrap();
        assert!(stats.passes <= 3);
        assert!(edge_cut(&g, &part.to_vec()) <= before);
    }
}
