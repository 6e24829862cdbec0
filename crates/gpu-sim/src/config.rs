//! GPU machine model parameters.
//!
//! The timing model is a throughput ("roofline") model: a kernel's time is
//! the maximum of its compute time (warp instructions over aggregate warp
//! issue rate) and its memory time (128-byte transactions over DRAM
//! bandwidth), plus a fixed launch overhead. Transfers pay a PCIe
//! latency + bandwidth cost. The default constants are the published specs
//! of the paper's GPU (NVIDIA GeForce GTX Titan, GK110).

/// Simulated GPU + PCIe configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors (GTX Titan: 14 SMX).
    pub num_sms: usize,
    /// CUDA cores per SM (GK110: 192).
    pub cores_per_sm: usize,
    /// Core clock in Hz (GTX Titan: 837 MHz).
    pub clock_hz: f64,
    /// Global-memory bandwidth in bytes/s (GTX Titan: 288.4 GB/s GDDR5).
    pub mem_bandwidth: f64,
    /// Global-memory access latency in seconds (GDDR5 incl. queueing
    /// ≈ 500 ns). Small launches cannot hide this behind other warps, so
    /// kernels become latency-bound when occupancy is low — the effect
    /// that makes coarse levels cheaper on the CPU (the paper's
    /// switchover threshold).
    pub mem_latency: f64,
    /// Maximum resident warps per SM (Kepler: 64); caps how much latency
    /// can be hidden.
    pub max_warps_per_sm: usize,
    /// Outstanding memory requests per warp (memory-level parallelism);
    /// multiplies the latency-hiding capacity.
    pub mlp_per_warp: usize,
    /// Attainable fraction of peak DRAM bandwidth for the irregular
    /// gather/scatter kernels graph partitioning runs (Kepler-class GPUs
    /// sustain ~60% of STREAM bandwidth on scattered access patterns).
    pub mem_efficiency: f64,
    /// Device memory capacity in bytes (GTX Titan: 6 GB).
    pub mem_capacity: u64,
    /// Lanes per warp; at least 1 ([`Device::launch`] rejects 0).
    ///
    /// [`Device::launch`]: crate::Device::launch
    pub warp_size: usize,
    /// Memory transaction granularity in bytes; a power of two
    /// ([`Device::launch`] rejects anything else).
    ///
    /// [`Device::launch`]: crate::Device::launch
    pub segment_bytes: u64,
    /// Fixed kernel launch overhead in seconds (~5 µs on Kepler).
    pub kernel_launch_overhead: f64,
    /// PCIe effective bandwidth in bytes/s (gen2 x16 ≈ 6 GB/s).
    pub pcie_bandwidth: f64,
    /// PCIe per-transfer latency in seconds.
    pub pcie_latency: f64,
    /// Per-lane memory-access trace capacity for the coalescing
    /// accounting; accesses beyond the cap are charged one transaction
    /// each (pessimistic, rarely hit). Values above `u32::MAX` act as
    /// `u32::MAX`.
    pub trace_cap: usize,
}

impl GpuConfig {
    /// The paper's GPU: GeForce GTX Titan with 6 GB of GDDR5.
    pub fn gtx_titan() -> Self {
        GpuConfig {
            name: "GeForce GTX Titan (simulated)".to_string(),
            num_sms: 14,
            cores_per_sm: 192,
            clock_hz: 837e6,
            mem_bandwidth: 288.4e9,
            mem_latency: 500e-9,
            max_warps_per_sm: 64,
            mlp_per_warp: 4,
            mem_efficiency: 0.6,
            mem_capacity: 6 * 1024 * 1024 * 1024,
            warp_size: 32,
            segment_bytes: 128,
            kernel_launch_overhead: 5e-6,
            pcie_bandwidth: 6e9,
            pcie_latency: 10e-6,
            trace_cap: 4096,
        }
    }

    /// A deliberately tiny device for out-of-memory tests.
    pub fn tiny(capacity_bytes: u64) -> Self {
        GpuConfig { mem_capacity: capacity_bytes, ..Self::gtx_titan() }
    }

    /// Aggregate warp-instruction throughput (warp-instructions / second):
    /// each SM issues `cores_per_sm / warp_size` warp-instructions per
    /// cycle.
    pub fn warp_issue_rate(&self) -> f64 {
        self.num_sms as f64 * (self.cores_per_sm as f64 / self.warp_size as f64) * self.clock_hz
    }

    /// Seconds for `transactions` memory transactions when bandwidth-bound
    /// (full occupancy).
    pub fn mem_seconds(&self, transactions: u64) -> f64 {
        transactions as f64 * self.segment_bytes as f64 / (self.mem_bandwidth * self.mem_efficiency)
    }

    /// Seconds for `transactions` memory transactions given `warps` in the
    /// launch: the maximum of the bandwidth bound and the latency bound.
    /// With few resident warps, each transaction's latency cannot be
    /// hidden behind other warps, so small kernels pay
    /// `transactions * latency / concurrency`.
    pub fn mem_seconds_occupancy(&self, transactions: u64, warps: u64) -> f64 {
        let resident = (warps.max(1) as f64).min((self.num_sms * self.max_warps_per_sm) as f64);
        let concurrency = resident * self.mlp_per_warp as f64;
        let latency_bound = transactions as f64 * self.mem_latency / concurrency;
        self.mem_seconds(transactions).max(latency_bound)
    }

    /// Seconds for `warp_instructions` on the compute pipeline.
    pub fn compute_seconds(&self, warp_instructions: u64) -> f64 {
        warp_instructions as f64 / self.warp_issue_rate()
    }

    /// Seconds to move `bytes` over PCIe (one direction).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.pcie_latency + bytes as f64 / self.pcie_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_specs() {
        let c = GpuConfig::gtx_titan();
        assert_eq!(c.num_sms, 14);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.mem_capacity, 6 * 1024 * 1024 * 1024);
    }

    #[test]
    fn warp_issue_rate_is_cores_times_clock() {
        let c = GpuConfig::gtx_titan();
        let expect = 14.0 * 6.0 * 837e6;
        assert!((c.warp_issue_rate() - expect).abs() < 1.0);
    }

    #[test]
    fn mem_seconds_scales_linearly() {
        let c = GpuConfig::gtx_titan();
        assert!((c.mem_seconds(2) - 2.0 * c.mem_seconds(1)).abs() < 1e-15);
        // 2.25 G transactions/s at 60% efficiency => ~0.74 ns / transaction
        assert!(c.mem_seconds(1) > 6e-10 && c.mem_seconds(1) < 9e-10);
    }

    #[test]
    fn transfer_has_latency_floor() {
        let c = GpuConfig::gtx_titan();
        assert!(c.transfer_seconds(0) >= c.pcie_latency);
        assert!(c.transfer_seconds(6_000_000_000) > 0.9);
    }

    #[test]
    fn tiny_device_capacity() {
        let c = GpuConfig::tiny(1024);
        assert_eq!(c.mem_capacity, 1024);
    }

    #[test]
    fn occupancy_latency_binds_small_launches() {
        let c = GpuConfig::gtx_titan();
        let txns = 100_000u64;
        // one warp: fully latency-bound
        let one_warp = c.mem_seconds_occupancy(txns, 1);
        let expect = txns as f64 * c.mem_latency / c.mlp_per_warp as f64;
        assert!((one_warp - expect).abs() / expect < 1e-9);
        // plenty of warps: bandwidth-bound
        let full = c.mem_seconds_occupancy(txns, 1 << 20);
        assert!((full - c.mem_seconds(txns)).abs() / full < 1e-9);
        assert!(one_warp > 10.0 * full);
    }

    #[test]
    fn occupancy_monotone_in_warps() {
        let c = GpuConfig::gtx_titan();
        let mut last = f64::INFINITY;
        for warps in [1u64, 8, 64, 512, 4096] {
            let t = c.mem_seconds_occupancy(50_000, warps);
            assert!(t <= last + 1e-15, "warps={warps}");
            last = t;
        }
    }

    #[test]
    fn efficiency_derates_bandwidth() {
        let mut c = GpuConfig::gtx_titan();
        let base = c.mem_seconds(1_000);
        c.mem_efficiency = 1.0;
        assert!(c.mem_seconds(1_000) < base);
    }
}
