//! Multi-device topology: an interconnect cost model and a device group.
//!
//! The paper's stated future work is partitioning graphs that exceed one
//! GPU's memory on a *cluster of GPUs*. This module supplies the machine
//! model for that: a [`DeviceGroup`] of D simulated devices joined by an
//! [`Interconnect`] whose per-link cost follows the same
//! latency + bytes/bandwidth shape as the PCIe transfer model in
//! [`GpuConfig::transfer_seconds`].
//!
//! Two presets bracket the design space:
//!
//! * [`LinkConfig::pcie_gen2`] — the paper-era host bus. Devices cannot
//!   reach each other directly; every device-to-device copy is *staged
//!   through host memory* (a d2h leg followed by an h2d leg), paying the
//!   PCIe cost **twice**.
//! * [`LinkConfig::nvlink`] — an NVLink-style point-to-point fabric with
//!   peer-to-peer copies: one traversal at higher bandwidth and lower
//!   latency.
//!
//! Every copy is recorded in a per-ordered-link ledger
//! ([`LinkStats`]: bytes, transactions, modeled seconds) so transfer
//! volume can be pinned by benches the same way the per-kernel warp and
//! memory accounting already is. Link transfers do **not** advance the
//! per-device kernel clocks — devices overlap compute with communication
//! in distinct supersteps, and the orchestrator charges comm time into
//! the modeled-time ledger explicitly (see `gpmetis::multi_gpu`).

use crate::config::GpuConfig;
use crate::device::Device;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cost model for one device-to-device link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Human-readable fabric name.
    pub name: String,
    /// Per-message latency in seconds (one traversal).
    pub latency: f64,
    /// Link bandwidth in bytes/s (one direction).
    pub bandwidth: f64,
    /// Whether devices can copy peer-to-peer. Without it every copy is
    /// staged through host memory and pays the link cost twice (down +
    /// up), which is how PCIe-gen2-era multi-GPU rigs actually behaved.
    pub p2p: bool,
}

impl LinkConfig {
    /// The paper-era host bus: PCIe gen2 x16 (≈6 GB/s effective, 10 µs
    /// per transfer), no peer-to-peer — staged through the host.
    pub fn pcie_gen2() -> Self {
        LinkConfig { name: "pcie-gen2".to_string(), latency: 10e-6, bandwidth: 6e9, p2p: false }
    }

    /// An NVLink-style point-to-point fabric: 20 GB/s per direction,
    /// 1.3 µs per message, true peer-to-peer copies.
    pub fn nvlink() -> Self {
        LinkConfig { name: "nvlink".to_string(), latency: 1.3e-6, bandwidth: 20e9, p2p: true }
    }

    /// Look a preset up by name (the CLI's `--interconnect` values).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "pcie" | "pcie-gen2" => Some(Self::pcie_gen2()),
            "nvlink" => Some(Self::nvlink()),
            _ => None,
        }
    }

    /// Modeled seconds to move `bytes` across one link: one traversal
    /// with p2p, two (device→host, host→device) without.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        let one_way = self.latency + bytes as f64 / self.bandwidth;
        if self.p2p {
            one_way
        } else {
            2.0 * one_way
        }
    }
}

/// Accumulated traffic on one ordered (src → dst) link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Payload bytes moved.
    pub bytes: u64,
    /// Individual transfers (each pays the per-message latency).
    pub transfers: u64,
    /// Modeled seconds spent on this link.
    pub seconds: f64,
}

/// The fabric joining a [`DeviceGroup`]: one [`LinkConfig`] shared by all
/// links plus a per-ordered-pair traffic ledger.
pub struct Interconnect {
    cfg: LinkConfig,
    links: Mutex<BTreeMap<(u32, u32), LinkStats>>,
}

impl Interconnect {
    /// A fabric with the given per-link cost model.
    pub fn new(cfg: LinkConfig) -> Self {
        Interconnect { cfg, links: Mutex::new(BTreeMap::new()) }
    }

    /// The link cost model.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Record one `src → dst` transfer of `bytes` and return its modeled
    /// seconds.
    pub fn record(&self, src: u32, dst: u32, bytes: u64) -> f64 {
        self.record_secs(src, dst, bytes, self.cfg.transfer_seconds(bytes))
    }

    /// Record a *host-terminated* leg of `bytes` on the ordered link
    /// `(src, dst)` and return its modeled seconds.
    ///
    /// On a staged (non-p2p) fabric, [`Interconnect::record`] charges two
    /// traversals — device→host and host→device — which is correct for a
    /// device-to-device copy. When the *host itself* is one endpoint
    /// (e.g. the partition-weight allreduce, where the orchestrator
    /// performs the reduction in host memory), the payload crosses the
    /// bus exactly once; charging the staged 2x would count the host hop
    /// on both the source and host lanes. This method always charges one
    /// traversal, so on a p2p fabric it is identical to `record`.
    pub fn record_host_leg(&self, src: u32, dst: u32, bytes: u64) -> f64 {
        let secs = self.cfg.latency + bytes as f64 / self.cfg.bandwidth;
        self.record_secs(src, dst, bytes, secs)
    }

    fn record_secs(&self, src: u32, dst: u32, bytes: u64, secs: f64) -> f64 {
        let mut links = self.links.lock().unwrap();
        let e = links.entry((src, dst)).or_default();
        e.bytes += bytes;
        e.transfers += 1;
        e.seconds += secs;
        secs
    }

    /// Per-link ledger, sorted by (src, dst).
    pub fn links(&self) -> Vec<(u32, u32, LinkStats)> {
        self.links.lock().unwrap().iter().map(|(&(s, d), &st)| (s, d, st)).collect()
    }

    /// Total payload bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.lock().unwrap().values().map(|s| s.bytes).sum()
    }

    /// Total modeled link seconds across all links.
    pub fn total_seconds(&self) -> f64 {
        self.links.lock().unwrap().values().map(|s| s.seconds).sum()
    }
}

/// D simulated devices joined by an [`Interconnect`].
pub struct DeviceGroup {
    devices: Vec<Device>,
    interconnect: Interconnect,
}

impl DeviceGroup {
    /// Build `d` identical devices from `gpu` joined by `link`.
    pub fn new(d: usize, gpu: &GpuConfig, link: LinkConfig) -> Self {
        DeviceGroup {
            devices: (0..d).map(|_| Device::new(gpu.clone())).collect(),
            interconnect: Interconnect::new(link),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `i`.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// All devices, in index order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The fabric.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let pcie = LinkConfig::pcie_gen2();
        assert!(!pcie.p2p);
        let nv = LinkConfig::nvlink();
        assert!(nv.p2p);
        assert!(nv.bandwidth > pcie.bandwidth);
        assert!(nv.latency < pcie.latency);
        assert_eq!(LinkConfig::by_name("pcie").unwrap(), pcie);
        assert_eq!(LinkConfig::by_name("nvlink").unwrap(), nv);
        assert!(LinkConfig::by_name("token-ring").is_none());
    }

    #[test]
    fn staged_costs_twice_p2p() {
        // Same latency/bandwidth, only the p2p flag differs: staged
        // through host must cost exactly 2x the peer-to-peer copy.
        let p2p = LinkConfig { p2p: true, ..LinkConfig::pcie_gen2() };
        let staged = LinkConfig { p2p: false, ..LinkConfig::pcie_gen2() };
        for bytes in [0u64, 4, 1 << 20] {
            let one = p2p.transfer_seconds(bytes);
            let two = staged.transfer_seconds(bytes);
            assert!((two - 2.0 * one).abs() < 1e-18, "bytes={bytes}");
        }
    }

    #[test]
    fn host_leg_counts_the_host_hop_once() {
        // Staged fabric: a device-to-device copy pays two traversals, but
        // a host-terminated leg (allreduce gather/scatter) pays exactly
        // one — the double-charge this distinguishes is the superstep
        // fold counting the host hop on both the source and host lanes.
        let staged = Interconnect::new(LinkConfig::pcie_gen2());
        let bytes = 1u64 << 16;
        let one_way = staged.config().latency + bytes as f64 / staged.config().bandwidth;
        let leg = staged.record_host_leg(0, 1, bytes);
        assert!((leg - one_way).abs() < 1e-18);
        let d2d = staged.record(0, 1, bytes);
        assert!((d2d - 2.0 * one_way).abs() < 1e-18);
        // both recordings land in the same per-link ledger entry
        let links = staged.links();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].2.bytes, 2 * bytes);
        assert_eq!(links[0].2.transfers, 2);
        assert!((links[0].2.seconds - 3.0 * one_way).abs() < 1e-18);
        // on a p2p fabric the host leg and a direct copy cost the same
        let p2p = Interconnect::new(LinkConfig::nvlink());
        assert_eq!(p2p.record_host_leg(0, 1, bytes).to_bits(), p2p.record(0, 1, bytes).to_bits());
    }

    #[test]
    fn nvlink_beats_pcie_per_copy() {
        let pcie = LinkConfig::pcie_gen2();
        let nv = LinkConfig::nvlink();
        for bytes in [64u64, 1 << 16, 1 << 24] {
            assert!(nv.transfer_seconds(bytes) < pcie.transfer_seconds(bytes));
        }
    }

    #[test]
    fn ledger_accumulates_per_link() {
        let ic = Interconnect::new(LinkConfig::nvlink());
        let s1 = ic.record(0, 1, 16);
        let s2 = ic.record(0, 1, 32);
        ic.record(2, 0, 4);
        let links = ic.links();
        assert_eq!(links.len(), 2);
        let (s, d, st) = links[0];
        assert_eq!((s, d), (0, 1));
        assert_eq!(st.bytes, 16 + 32);
        assert_eq!(st.transfers, 2);
        assert!((st.seconds - (s1 + s2)).abs() < 1e-18);
        assert_eq!(links[1].0, 2);
        assert_eq!(ic.total_bytes(), 16 + 32 + 4);
        assert!(ic.total_seconds() > 0.0);
    }
}
