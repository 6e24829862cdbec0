//! Golden digests of the compacted GPU refinement (see
//! `gpm_testkit::pin`). The request kernel runs over the scan-compacted
//! boundary work-list instead of all n vertices. For every graph, k,
//! pass count and thread cap of a fixed case matrix, the partition, the
//! refinement stats and the device's kernel log and clock fold into one
//! committed FNV-1a digest. The digests were recorded while the
//! uncompacted request kernel still ran beside it and produced the same
//! partitions: the explore kernel commits from buffers sorted by the
//! total order (gain, vertex), so the request *set*, which compaction
//! preserves, determines the outcome (absent buffer overflow, which
//! these configurations avoid). The modeled-time golden test pins the
//! point: a sliver boundary makes the compacted passes cheaper on the
//! simulated device.

use gp_metis::gpu_graph::{Distribution, GpuCsr};
use gp_metis::kernels::refine::{gpu_part_weights, gpu_refine, GpuRefineStats};
use gpm_gpu_sim::{Device, GpuConfig};
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_graph::metrics::max_part_weight;
use gpm_graph::rng::SplitMix64;
use gpm_testkit::{assert_pin, pinned, Fnv1a, Source};

mod common;
use common::fold_device;

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(3) {
        0 => delaunay_like(src.usize_in(60, 400), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 8) as u32, 6, src.below(1 << 30)),
        _ => grid2d(src.usize_in(5, 18), src.usize_in(5, 18)),
    }
}

/// Modeled seconds of the uncompacted request kernel (a sweep over all
/// n vertices every pass) on the sliver-boundary instance below,
/// recorded when the compacted kernel replaced it.
const SWEEP_SECONDS: f64 = 0.006249765624999999;

/// Refine `init` on a fresh GTX Titan; fold the partition, the stats and
/// the device timeline into `h`; return the modeled seconds refinement
/// took.
fn refine_on_device(
    h: &mut Fnv1a,
    g: &CsrGraph,
    init: &[u32],
    k: usize,
    passes: usize,
    mt: usize,
) -> Result<f64, String> {
    let d = Device::new(GpuConfig::gtx_titan());
    let gg = GpuCsr::upload(&d, g).map_err(|e| format!("{e:?}"))?;
    let part = d.h2d(init).map_err(|e| format!("{e:?}"))?;
    let pw = gpu_part_weights(&d, &gg, &part, k, Distribution::Cyclic, mt)
        .map_err(|e| format!("{e:?}"))?;
    let maxw = max_part_weight(g.total_vwgt(), k, 1.05) as u32;
    let t0 = d.elapsed();
    let stats = gpu_refine(&d, &gg, &part, &pw, k, maxw, passes, Distribution::Cyclic, mt)
        .map_err(|e| format!("{e:?}"))?;
    let seconds = d.elapsed() - t0;
    let GpuRefineStats { moves, rejected, overflowed, passes } = stats;
    h.words(&part.to_vec()).u64(moves).u64(rejected).u64(overflowed).u64(passes.into());
    fold_device(h, &d);
    Ok(seconds)
}

#[test]
fn gpu_refine_is_pinned() {
    pinned("gpu_refine_is_pinned", 24, 0x08101d74d47a4590, |src, h| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        let passes = src.usize_in(1, 6);
        let mt = *src.choose(&[64usize, 512]);
        let mut rng = SplitMix64::new(src.below(1 << 32));
        let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        refine_on_device(h, &g, &init, k, passes, mt)?;
        Ok(())
    });
}

#[test]
fn compaction_reduces_modeled_time_on_sliver_boundary() {
    // vertical-halves 192x192 grid, perturbed seam: the per-pass request
    // grid shrinks from n=36864 threads' worth of gather work to the
    // boundary sliver, and the full boundary mark runs once instead of
    // every pass. The instance is deliberately GPU-sized — below ~16k
    // vertices the fixed launch overheads and the latency-bound tiny
    // kernels dominate and the device loses to the plain sweep either
    // way, which is the paper's own argument for refining coarse levels
    // on the CPU.
    let (w, h) = (192usize, 192usize);
    let g = grid2d(w, h);
    let mut init: Vec<u32> = (0..w * h).map(|i| u32::from(i % w >= w / 2)).collect();
    let mut rng = SplitMix64::new(5);
    for _ in 0..40 {
        let y = rng.below(h as u64) as usize;
        let x = w / 2 - 1 + rng.below(2) as usize;
        init[y * w + x] ^= 1;
    }
    let mut digest = Fnv1a::new();
    let t = refine_on_device(&mut digest, &g, &init, 2, 10, 512).unwrap();
    assert_pin(
        "compaction_reduces_modeled_time_on_sliver_boundary",
        0x6a0f87051972fc51,
        digest.finish(),
    );
    assert!(
        t * 3.0 < SWEEP_SECONDS * 2.0,
        "compacted refinement should be >=1.5x faster on a sliver boundary: {t} vs {SWEEP_SECONDS}"
    );
}
