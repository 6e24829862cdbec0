//! Golden digests of the device-workspace coarsening loop (see
//! `gpm_testkit::pin`). For every graph, merge strategy and seed of a
//! fixed case matrix, the per-level coarse graphs and cmaps, the full
//! kernel log (names, order, thread counts, transactions, modeled
//! seconds) and the device's total elapsed time fold into one committed
//! FNV-1a digest. The digests were recorded while the allocate-per-level
//! implementation the workspace replaced still ran beside it and agreed
//! bit for bit (only *peak residency* differed: scratch stays resident
//! between levels — documented in DESIGN.md §11). Recycled scratch must
//! equal fresh scratch per level, and reassembled levels pass the
//! structural [`check_contraction`] invariants.

use gp_metis::gpu_graph::{Distribution, GpuCsr};
use gp_metis::kernels::cmap::gpu_cmap_ws;
use gp_metis::kernels::contract::{gpu_contract_ws, GpuCoarsenScratch, MergeStrategy};
use gp_metis::kernels::matching::gpu_matching;
use gpm_gpu_sim::{Device, GpuConfig};
use gpm_graph::check_contraction;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_testkit::{pinned, tk_assert, tk_assert_eq, Source};

mod common;
use common::fold_device;

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(3) {
        0 => delaunay_like(src.usize_in(200, 1200), src.below(1 << 30)),
        1 => rmat(src.usize_in(7, 10) as u32, 7, src.below(1 << 30)),
        _ => grid2d(src.usize_in(8, 36), src.usize_in(8, 36)),
    }
}

/// One level's host copies: fine graph, cmap, coarse graph.
type Level = (CsrGraph, Vec<Vid>, CsrGraph);

/// Run a multi-level GPU coarsening loop, with one scratch workspace
/// carried across levels (`recycled`) or a fresh one per level; return
/// the host copies of every level plus the device itself for its kernel
/// log and clock.
fn coarsen_levels(
    g: &CsrGraph,
    strategy: MergeStrategy,
    seed: u64,
    levels: usize,
    recycled: bool,
) -> (Vec<Level>, Device) {
    let dev = Device::new(GpuConfig::gtx_titan());
    let mut cur = GpuCsr::upload(&dev, g).unwrap();
    let mut out = Vec::new();
    let mut carried = GpuCoarsenScratch::new();
    let mut uniform = g.uniform_edge_weights();
    for lvl in 0..levels {
        if cur.n <= 32 {
            break;
        }
        let (mat, _) = gpu_matching(
            &dev,
            &cur,
            u32::MAX,
            3,
            uniform,
            seed.wrapping_add(lvl as u64),
            Distribution::Cyclic,
            1024,
        )
        .unwrap();
        let mut fresh = GpuCoarsenScratch::new();
        let scratch = if recycled { &mut carried } else { &mut fresh };
        let (cmap, nc) = gpu_cmap_ws(&dev, &mat, Distribution::Cyclic, 1024, scratch).unwrap();
        let coarse = gpu_contract_ws(&dev, &cur, &mat, &cmap, nc, strategy, 512, scratch).unwrap();
        if nc as f64 / cur.n as f64 > 0.98 {
            break;
        }
        let fine_host = cur.download(&dev).unwrap();
        let coarse_host = coarse.download(&dev).unwrap();
        let cmap_host = cmap.to_vec().into_iter().map(|c| c as Vid).collect();
        out.push((fine_host, cmap_host, coarse_host));
        cur = coarse;
        uniform = false;
    }
    (out, dev)
}

#[test]
fn device_coarsening_is_pinned() {
    pinned("device_coarsening_is_pinned", 10, 0x2d1eca1b33f029ff, |src, h| {
        let g = arbitrary_graph(src);
        let strategy = *src.choose(&[MergeStrategy::SortMerge, MergeStrategy::Hash]);
        let seed = src.next_u64();

        let (levels, dev) = coarsen_levels(&g, strategy, seed, 4, true);
        let (levels_fresh, dev_fresh) = coarsen_levels(&g, strategy, seed, 4, false);
        tk_assert_eq!(levels, levels_fresh);
        // download/upload traffic is identical on both devices, so the
        // whole modeled timeline must agree to the last bit
        tk_assert_eq!(dev.kernel_log(), dev_fresh.kernel_log());
        tk_assert_eq!(dev.elapsed().to_bits(), dev_fresh.elapsed().to_bits());

        for (fine, cmap, coarse) in &levels {
            h.graph(fine).words(cmap).graph(coarse);
            check_contraction(fine, coarse, cmap)?;
        }
        fold_device(h, &dev);
        tk_assert!(!levels.is_empty() || g.n() <= 32);
        Ok(())
    });
}
