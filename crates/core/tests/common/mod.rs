//! Shared by the GPU golden-digest suites.

use gpm_gpu_sim::{Device, KernelStats};
use gpm_testkit::Fnv1a;

/// Fold a device's modeled timeline: every field of every launch in
/// order, then the elapsed clock.
pub fn fold_device(h: &mut Fnv1a, dev: &Device) {
    let log = dev.kernel_log();
    h.u64(log.len() as u64);
    for k in &log {
        let KernelStats {
            name,
            n_threads,
            warps,
            warp_instr,
            lane_instr,
            transactions,
            accesses,
            mem_seconds,
            compute_seconds,
            seconds,
        } = k;
        h.str(name).u64(*n_threads as u64).u64(*warps).u64(*warp_instr).u64(*lane_instr);
        h.u64(*transactions).u64(*accesses);
        h.f64(*mem_seconds).f64(*compute_seconds).f64(*seconds);
    }
    h.f64(dev.elapsed());
}
