//! Multi-GPU halo kernels: the device-side pieces of the sharded
//! pipeline (see `crate::multi_gpu` and DESIGN.md §15).
//!
//! A shard's level graph is *augmented* with one ghost vertex per fine
//! cross-edge endpoint: local rows gain halo edges pointing at ghost
//! slots `>= n_local`, and each ghost row carries the reverse edges back
//! to its local neighbors (so a changed ghost label can re-mark exactly
//! the local vertices that see it). Ghosts have vertex weight 0 and are
//! never launched as request threads, so they never move — their labels
//! are written by the interconnect exchange between passes.
//!
//! The refinement pass is `super::refine::RefinePass`, the one that
//! [`super::refine::gpu_refine`] runs, under the `gp:mg:*` kernel names
//! and with two changes for the distributed setting, both borrowed from
//! the proven `gpm-parmetis` refiner: per-partition *headroom caps*
//! replace the scalar `maxw` (each device may only claim `1/D` of a
//! partition's remaining headroom per pass, so D concurrently-committing
//! devices cannot jointly overshoot the balance constraint), and the
//! re-mark seeds include the ghosts whose labels changed in the previous
//! superstep, not just the device's own moved-list.

use super::refine::{PartCaps, RefineKernels, RefinePass};
use crate::gpu_graph::{assigned_vertices, launch_threads, Distribution, GpuCsr};
use gpm_gpu_sim::{DBuf, Device, DeviceError};

/// The halo refiner's kernel names.
pub(crate) static HALO_KERNELS: RefineKernels = RefineKernels {
    project: "gp:mg:project",
    remark: "gp:mg:remark",
    gremark: Some("gp:mg:gremark"),
    poscopy: "gp:mg:poscopy",
    compact: "gp:mg:compact",
    request: "gp:mg:request",
    snapshot: "gp:mg:snapshot",
    explore: "gp:mg:explore",
};

/// Host-prepared layout of one level's augmented halo graph. All arrays
/// are deterministic functions of the shard structure and the level's
/// border cmap (sorted host-side), never of kernel execution order.
pub(crate) struct HaloLayout {
    /// Augmented adjacency pointers, length `n_local + n_ghost + 1`.
    pub aug_xadj: Vec<u32>,
    /// Offsets into `extra_adj` of each augmented vertex's appended
    /// entries (halo edges for local rows, reverse edges for ghost rows),
    /// length `n_local + n_ghost + 1`.
    pub extra_off: Vec<u32>,
    /// Appended adjacency entries (augmented ids).
    pub extra_adj: Vec<u32>,
    /// Appended edge weights.
    pub extra_w: Vec<u32>,
}

/// Build the augmented device graph for one level: local rows are copied
/// from `local` and extended with their halo edges; ghost rows hold the
/// reverse edges. The layout arrays arrive via the zero-cost host mirror
/// (their information content was already paid for by the interconnect
/// exchange); the kernel's loads and stores charge the realistic on-device
/// traffic of assembling the augmented CSR.
pub(crate) fn gpu_build_halo_graph(
    dev: &Device,
    local: &GpuCsr,
    layout: &HaloLayout,
    dist: Distribution,
    max_threads: usize,
) -> Result<GpuCsr, DeviceError> {
    let n_local = local.n;
    let n_aug = layout.aug_xadj.len() - 1;
    let m_aug = *layout.aug_xadj.last().unwrap() as usize;
    let xadj = dev.alloc::<u32>(n_aug + 1)?;
    xadj.copy_from_slice(&layout.aug_xadj);
    let adjncy = dev.alloc::<u32>(m_aug)?;
    let adjwgt = dev.alloc::<u32>(m_aug)?;
    let vwgt = dev.alloc::<u32>(n_aug)?; // ghosts stay at weight 0
    {
        let extra_off = dev.alloc::<u32>(layout.extra_off.len())?;
        extra_off.copy_from_slice(&layout.extra_off);
        let extra_adj = dev.alloc::<u32>(layout.extra_adj.len().max(1))?;
        let extra_w = dev.alloc::<u32>(layout.extra_w.len().max(1))?;
        if !layout.extra_adj.is_empty() {
            extra_adj.copy_from_slice(&layout.extra_adj);
            extra_w.copy_from_slice(&layout.extra_w);
        }
        dev.launch("gp:mg:halo", launch_threads(n_aug, max_threads), |lane| {
            for u in assigned_vertices(dist, lane.tid, lane.n_threads, n_aug) {
                let dst = lane.ld(&xadj, u) as usize;
                let mut c = dst;
                if u < n_local {
                    let s = lane.ld(&local.xadj, u) as usize;
                    let e = lane.ld(&local.xadj, u + 1) as usize;
                    for i in s..e {
                        let a = lane.ld(&local.adjncy, i);
                        lane.st(&adjncy, c, a);
                        let w = lane.ld(&local.adjwgt, i);
                        lane.st(&adjwgt, c, w);
                        c += 1;
                    }
                    let vw = lane.ld(&local.vwgt, u);
                    lane.st(&vwgt, u, vw);
                }
                let xs = lane.ld(&extra_off, u) as usize;
                let xe = lane.ld(&extra_off, u + 1) as usize;
                for i in xs..xe {
                    let a = lane.ld(&extra_adj, i);
                    lane.st(&adjncy, c, a);
                    let w = lane.ld(&extra_w, i);
                    lane.st(&adjwgt, c, w);
                    c += 1;
                }
            }
        })?;
    }
    Ok(GpuCsr { n: n_aug, m2: m_aug, xadj, adjncy, adjwgt, vwgt })
}

/// Advance a border-cmap vector one coarsening level: `bmap[b]` (the
/// current coarse id of fine border vertex `b`) becomes
/// `cmap[bmap[b]]`. This is the device-side half of the per-level
/// boundary-cmap halo exchange.
pub(crate) fn gpu_compose_bmap(
    dev: &Device,
    cmap: &DBuf<u32>,
    bmap: &DBuf<u32>,
    dist: Distribution,
    max_threads: usize,
) -> Result<(), DeviceError> {
    let nb = bmap.len();
    dev.launch("gp:mg:bmap", launch_threads(nb, max_threads), |lane| {
        for b in assigned_vertices(dist, lane.tid, lane.n_threads, nb) {
            let cur = lane.ld(bmap, b) as usize;
            let next = lane.ld(cmap, cur);
            lane.st(bmap, b, next);
        }
    })?;
    Ok(())
}

/// Per-level state of the halo refinement, held across the level's
/// passes so supersteps can interleave exchanges between them.
pub(crate) struct HaloRefine(RefinePass);

impl HaloRefine {
    /// Allocate the pass state for one level's augmented graph.
    pub(crate) fn new(
        dev: &Device,
        g: &GpuCsr,
        n_local: usize,
        k: usize,
    ) -> Result<Self, DeviceError> {
        Ok(HaloRefine(RefinePass::new(dev, g, n_local, k, &HALO_KERNELS)?))
    }

    /// Run one refinement pass (see `RefinePass::pass`) on the augmented
    /// partition vector `part`, with the *global* partition weights `pw`
    /// and this device's headroom `caps`. Returns the committed move
    /// count and the moved local vertices.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pass(
        &mut self,
        dev: &Device,
        g: &GpuCsr,
        part: &DBuf<u32>,
        pw: &DBuf<u32>,
        caps: &DBuf<u32>,
        dir_up: u32,
        changed_ghosts: &[u32],
        dist: Distribution,
        max_threads: usize,
    ) -> Result<(u64, Vec<u32>), DeviceError> {
        let caps = PartCaps::PerPart(caps);
        let m = self.0.pass(dev, g, part, pw, caps, dir_up, changed_ghosts, dist, max_threads)?;
        Ok((m, self.0.moved_vertices()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::refine::project_padded;
    use super::*;
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::gen::grid2d;

    fn dev() -> Device {
        Device::new(GpuConfig::gtx_titan())
    }

    #[test]
    fn bmap_compose_gathers() {
        let d = dev();
        let cmap = d.h2d(&[5u32, 6, 7, 8]).unwrap();
        let bmap = d.h2d(&[0u32, 2, 3]).unwrap();
        gpu_compose_bmap(&d, &cmap, &bmap, Distribution::Cyclic, 8).unwrap();
        assert_eq!(bmap.to_vec(), vec![5, 7, 8]);
    }

    #[test]
    fn project_halo_leaves_ghost_slots() {
        let d = dev();
        let cmap = d.h2d(&[0u32, 0, 1]).unwrap();
        let cpart = d.h2d(&[4u32, 9]).unwrap();
        let name = HALO_KERNELS.project;
        let part = project_padded(&d, name, &cmap, &cpart, 2, Distribution::Cyclic, 8).unwrap();
        assert_eq!(part.to_vec(), vec![4, 4, 9, 0, 0]);
    }

    #[test]
    fn halo_graph_appends_ghost_rows() {
        // local path 0-1 plus one ghost g adjacent to vertex 1
        let d = dev();
        let local = grid2d(2, 1); // 0-1
        let lg = GpuCsr::upload(&d, &local).unwrap();
        let layout = HaloLayout {
            aug_xadj: vec![0, 1, 3, 4],
            extra_off: vec![0, 0, 1, 2],
            extra_adj: vec![2, 1],
            extra_w: vec![7, 7],
        };
        let aug = gpu_build_halo_graph(&d, &lg, &layout, Distribution::Cyclic, 8).unwrap();
        assert_eq!(aug.n, 3);
        assert_eq!(aug.xadj.to_vec(), vec![0, 1, 3, 4]);
        assert_eq!(aug.adjncy.to_vec(), vec![1, 0, 2, 1]);
        assert_eq!(aug.adjwgt.to_vec(), vec![1, 1, 7, 7]);
        assert_eq!(aug.vwgt.to_vec(), vec![1, 1, 0], "ghost weight must be 0");
    }

    #[test]
    fn halo_refine_moves_toward_ghost_labels() {
        // 4-path 0-1-2-3 all labeled 0, with a ghost (labeled 1) strongly
        // attached to vertex 3: refinement should move 3 to partition 1.
        let d = dev();
        let local = gpm_graph::builder::GraphBuilder::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        .build();
        let lg = GpuCsr::upload(&d, &local).unwrap();
        let layout = HaloLayout {
            aug_xadj: vec![0, 1, 3, 5, 7, 8],
            extra_off: vec![0, 0, 0, 0, 1, 2],
            extra_adj: vec![4, 3],
            extra_w: vec![5, 5],
        };
        let aug = gpu_build_halo_graph(&d, &lg, &layout, Distribution::Cyclic, 8).unwrap();
        let part = d.h2d(&[0u32, 0, 0, 0, 1]).unwrap();
        let pw = d.h2d(&[4u32, 0]).unwrap();
        let caps = d.h2d(&[6u32, 6]).unwrap();
        let mut hr = HaloRefine::new(&d, &aug, 4, 2).unwrap();
        let (m, moved) =
            hr.pass(&d, &aug, &part, &pw, &caps, 1, &[], Distribution::Cyclic, 8).unwrap();
        assert_eq!(m, 1);
        assert_eq!(moved, vec![3]);
        assert_eq!(part.to_vec(), vec![0, 0, 0, 1, 1]);
        assert_eq!(pw.to_vec(), vec![3, 1]);
    }

    /// Kernel names of a device's log with the refiners' prefixes
    /// stripped, so the single-GPU and halo logs compare name for name.
    fn stripped_names(d: &Device) -> Vec<String> {
        let strip = |s: &str| s.replace("gp:refine:", "").replace("gp:mg:", "");
        d.kernel_log().iter().map(|k| strip(&k.name)).collect()
    }

    #[test]
    fn halo_refine_without_ghosts_matches_gpu_refine() {
        // With no ghosts and every cap at maxw, the halo pass loop (one
        // direction per pass, stop at a pass without moves) must replay
        // gpu_refine: same partition, moves and kernel sequence. The
        // modeled time differs only by the explore kernel's caps load.
        use super::super::refine::{gpu_part_weights, gpu_refine};
        use gpm_graph::metrics::max_part_weight;
        use gpm_graph::rng::SplitMix64;
        let (dist, mt) = (Distribution::Cyclic, 512);
        let cases = [
            // a random start: every pass runs the full request grid
            (grid2d(16, 16), 4, None),
            // contiguous blocks with 1-in-8 noise: on the grid the seam
            // is a sliver boundary, so later passes take the compacted
            // work-list path
            (grid2d(64, 64), 2, Some(2_048)),
            (gpm_graph::gen::delaunay_like(2_000, 7), 8, Some(250)),
        ];
        let mut compacted = false;
        for (ci, (g, k, halves)) in cases.into_iter().enumerate() {
            let mut rng = SplitMix64::new(ci as u64 + 11);
            let init: Vec<u32> = (0..g.n())
                .map(|u| match halves {
                    Some(w) if rng.below(8) != 0 => (u / w % k) as u32,
                    _ => rng.below(k as u64) as u32,
                })
                .collect();
            let maxw = max_part_weight(g.total_vwgt(), k, 1.05) as u32;
            let max_passes = 8usize;

            let d1 = dev();
            let g1 = GpuCsr::upload(&d1, &g).unwrap();
            let part1 = d1.h2d(&init).unwrap();
            let pw1 = gpu_part_weights(&d1, &g1, &part1, k, dist, mt).unwrap();
            let caps = d1.h2d(&vec![maxw; k]).unwrap();
            let mut hr = HaloRefine::new(&d1, &g1, g.n(), k).unwrap();
            let mut moves1 = 0u64;
            for pass in 0..max_passes {
                let dir_up = pass.is_multiple_of(2) as u32;
                let (m, _) = hr.pass(&d1, &g1, &part1, &pw1, &caps, dir_up, &[], dist, mt).unwrap();
                moves1 += m;
                if m == 0 {
                    break;
                }
            }

            let d2 = dev();
            let g2 = GpuCsr::upload(&d2, &g).unwrap();
            let part2 = d2.h2d(&init).unwrap();
            let pw2 = gpu_part_weights(&d2, &g2, &part2, k, dist, mt).unwrap();
            let stats = gpu_refine(&d2, &g2, &part2, &pw2, k, maxw, max_passes, dist, mt).unwrap();

            // an overflowing buffer keeps a racy subset of its requests
            assert_eq!(stats.overflowed, 0, "case {ci}: request buffers overflowed");
            assert_eq!(part1.to_vec(), part2.to_vec(), "case {ci}: partitions");
            assert_eq!(moves1, stats.moves, "case {ci}: moves");
            assert!(moves1 > 0, "case {ci}: no move exercised");
            let names = stripped_names(&d1);
            assert_eq!(names, stripped_names(&d2), "case {ci}: kernel sequences");
            compacted |= names.iter().any(|n| n == "compact");
        }
        assert!(compacted, "no case took the compacted work-list path");
    }

    #[test]
    fn halo_refine_caps_bind() {
        // Same setup but the cap for partition 1 leaves no headroom: the
        // gainful move must be rejected.
        let d = dev();
        let local = gpm_graph::builder::GraphBuilder::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        .build();
        let lg = GpuCsr::upload(&d, &local).unwrap();
        let layout = HaloLayout {
            aug_xadj: vec![0, 1, 3, 5, 7, 8],
            extra_off: vec![0, 0, 0, 0, 1, 2],
            extra_adj: vec![4, 3],
            extra_w: vec![5, 5],
        };
        let aug = gpu_build_halo_graph(&d, &lg, &layout, Distribution::Cyclic, 8).unwrap();
        let part = d.h2d(&[0u32, 0, 0, 0, 1]).unwrap();
        let pw = d.h2d(&[4u32, 0]).unwrap();
        let caps = d.h2d(&[6u32, 0]).unwrap();
        let mut hr = HaloRefine::new(&d, &aug, 4, 2).unwrap();
        let (m, _) = hr.pass(&d, &aug, &part, &pw, &caps, 1, &[], Distribution::Cyclic, 8).unwrap();
        assert_eq!(m, 0);
        assert_eq!(part.to_vec(), vec![0, 0, 0, 0, 1]);
    }
}
