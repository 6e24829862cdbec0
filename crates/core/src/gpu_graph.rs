//! The CSR graph resident in (simulated) device global memory — the four
//! arrays the paper keeps on the GPU (§III): `adjp` (xadj), `adjncy`,
//! `adjwgt`, `vwgt`.

use gpm_gpu_sim::{DBuf, Device, DeviceError};
use gpm_graph::csr::CsrGraph;

/// A graph in device memory.
pub struct GpuCsr {
    /// Vertex count.
    pub n: usize,
    /// Adjacency length (`2|E|`).
    pub m2: usize,
    /// Adjacency pointers, length `n + 1`.
    pub xadj: DBuf<u32>,
    /// Adjacency lists.
    pub adjncy: DBuf<u32>,
    /// Edge weights.
    pub adjwgt: DBuf<u32>,
    /// Vertex weights.
    pub vwgt: DBuf<u32>,
}

impl GpuCsr {
    /// Upload a host graph (one H2D transfer per array, charged to the
    /// PCIe model).
    pub fn upload(dev: &Device, g: &CsrGraph) -> Result<GpuCsr, DeviceError> {
        Ok(GpuCsr {
            n: g.n(),
            m2: g.adjncy.len(),
            xadj: dev.h2d(&g.xadj)?,
            adjncy: dev.h2d(&g.adjncy)?,
            adjwgt: dev.h2d(&g.adjwgt)?,
            vwgt: dev.h2d(&g.vwgt)?,
        })
    }

    /// Download to the host (charged D2H).
    pub fn download(&self, dev: &Device) -> Result<CsrGraph, DeviceError> {
        Ok(CsrGraph::from_parts(
            dev.d2h(&self.xadj)?,
            dev.d2h(&self.adjncy)?,
            dev.d2h(&self.adjwgt)?,
            dev.d2h(&self.vwgt)?,
        ))
    }

    /// Device bytes held by this graph.
    pub fn bytes(&self) -> u64 {
        self.xadj.bytes() + self.adjncy.bytes() + self.adjwgt.bytes() + self.vwgt.bytes()
    }
}

/// How vertices are assigned to GPU threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Thread `t` handles vertices `t, t + T, t + 2T, …` — adjacent lanes
    /// touch adjacent `xadj`/`vwgt` entries, so accesses coalesce
    /// (Fig. 2 of the paper). The default.
    Cyclic,
    /// Thread `t` handles a contiguous chunk — adjacent lanes touch
    /// entries a chunk apart, defeating coalescing. Kept for the
    /// coalescing ablation.
    Blocked,
}

/// Iterator over the vertices assigned to thread `tid` of `nt` for `n`
/// vertices under `dist`. Both distributions are a strided range (a
/// blocked chunk has stride 1), so the iterator is one concrete type and
/// a lane's loop costs no heap allocation.
pub fn assigned_vertices(
    dist: Distribution,
    tid: usize,
    nt: usize,
    n: usize,
) -> std::iter::StepBy<std::ops::Range<usize>> {
    match dist {
        Distribution::Cyclic => (tid..n).step_by(nt.max(1)),
        Distribution::Blocked => {
            let per = n.div_ceil(nt.max(1));
            let lo = (tid * per).min(n);
            let hi = ((tid + 1) * per).min(n);
            (lo..hi).step_by(1)
        }
    }
}

/// Thread count for a kernel over `n` items: the paper shrinks the launch
/// as the graph shrinks to avoid underutilization.
pub fn launch_threads(n: usize, max_threads: usize) -> usize {
    n.min(max_threads).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::gen::grid2d;

    #[test]
    fn upload_download_roundtrip() {
        let dev = Device::new(GpuConfig::gtx_titan());
        let g = grid2d(8, 8);
        let gg = GpuCsr::upload(&dev, &g).unwrap();
        assert_eq!(gg.n, 64);
        let back = gg.download(&dev).unwrap();
        assert_eq!(back, g);
        assert!(dev.transfer_bytes_total() >= 2 * g.bytes());
    }

    #[test]
    fn oom_on_tiny_device() {
        let dev = Device::new(GpuConfig::tiny(64));
        let g = grid2d(8, 8);
        assert!(GpuCsr::upload(&dev, &g).is_err());
    }

    #[test]
    fn cyclic_assignment_covers_all() {
        let mut seen = [false; 103];
        for t in 0..8 {
            for u in assigned_vertices(Distribution::Cyclic, t, 8, 103) {
                assert!(!seen[u]);
                seen[u] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn blocked_assignment_covers_all() {
        let mut seen = [false; 103];
        for t in 0..8 {
            for u in assigned_vertices(Distribution::Blocked, t, 8, 103) {
                assert!(!seen[u]);
                seen[u] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn launch_threads_clamped() {
        assert_eq!(launch_threads(10, 1024), 10);
        assert_eq!(launch_threads(1 << 20, 1024), 1024);
        assert_eq!(launch_threads(0, 1024), 1);
    }
}
