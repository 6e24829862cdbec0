//! The metric registry: every metric the benchmark emits, with its unit,
//! the direction that counts as better, and its kind. `BENCHMARK.json`
//! lists the same names and units; `--smoke` checks that the two agree.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `Exact` metrics (modeled seconds, cuts, counts) repeat bit-for-bit for
/// a given seed; `Wall` metrics are host measurements, held to the
/// benchmark's bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Exact,
    Wall,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// What a ratio is taken over ("" for plain quantities).
    pub base: &'static str,
}

use Better::{Higher as H, Lower as L};
use Kind::{Exact as X, Wall as W};

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Spec {
    Spec { name, unit, better, kind, base: "" }
}

const fn r(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    base: &'static str,
) -> Spec {
    Spec { name, unit, better, kind, base }
}

/// Emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s", L, W),
    m("wall_s", "s", L, W),
    m("modeled_s", "s", L, X),
    m("edge_cut", "edges", L, X),
    m("peak_rss_mb", "MiB", L, W),
    r("success_rate", "fraction", H, X, "attempted operations"),
    m("p99_ms", "ms", L, W),
    m("throughput_jps", "jobs/s", H, W),
];

/// Emitted by every traced run (`--trace 1`). A layer the workload does
/// not reach reports 0.
pub const PER_LAYER: &[Spec] = &[
    // gpm-graph
    m("graph.load_s", "s", L, W),
    m("graph.halo_shards_s", "s", L, W),
    // gp-metis kernels, host wall per call family summed over levels
    m("core.upload_s", "s", L, W),
    m("core.match_s", "s", L, W),
    m("core.cmap_s", "s", L, W),
    m("core.contract_s", "s", L, W),
    m("core.project_s", "s", L, W),
    m("core.part_weights_s", "s", L, W),
    m("core.refine_s", "s", L, W),
    m("core.download_s", "s", L, W),
    m("core.coarsen_modeled_s", "s", L, X),
    m("core.uncoarsen_modeled_s", "s", L, X),
    m("core.cpu_modeled_s", "s", L, X),
    m("core.xfer_modeled_s", "s", L, X),
    m("core.gpu_levels", "count", L, X),
    m("core.cpu_levels", "count", L, X),
    m("core.match_conflicts", "count", L, X),
    m("core.refine_moves", "count", H, X),
    m("core.peak_device_mb", "MiB", L, X),
    r("core.overlap_speedup", "ratio", H, X, "overlap makespan"),
    // gpm-gpu-sim
    m("gpusim.launches", "count", L, X),
    m("gpusim.warps", "count", L, X),
    m("gpusim.accesses", "count", L, X),
    m("gpusim.transactions", "count", L, X),
    r("gpusim.coalescing", "ratio", H, X, "memory transactions"),
    m("gpusim.transfer_bytes", "bytes", L, X),
    m("gpusim.transfer_modeled_s", "s", L, X),
    m("gpusim.kernel_wall_s", "s", L, W),
    r("gpusim.ns_per_access", "ns", L, W, "simulated memory accesses"),
    // gpm-mtmetis
    m("mtmetis.coarsen_s", "s", L, W),
    m("mtmetis.initpart_s", "s", L, W),
    m("mtmetis.uncoarsen_s", "s", L, W),
    m("mtmetis.modeled_s", "s", L, X),
    m("mtmetis.edge_cut", "edges", L, X),
    // gpm-metis, gpm-parmetis + gpm-msg
    m("metis.wall_s", "s", L, W),
    m("metis.modeled_s", "s", L, X),
    m("metis.edge_cut", "edges", L, X),
    m("parmetis.wall_s", "s", L, W),
    m("parmetis.modeled_s", "s", L, X),
    m("parmetis.edge_cut", "edges", L, X),
    // gpm-pool, deltas per operation
    m("pool.batches", "count", L, X),
    m("pool.chunks", "count", L, X),
    m("pool.blocking_tasks", "count", L, X),
    // gpm-serve
    m("serve.engine_ms_p50", "ms", L, W),
    m("serve.overhead_ms_p50", "ms", L, W),
    m("serve.overhead_ms_p99", "ms", L, W),
    r("serve.cache_hit_ratio", "fraction", H, W, "attempted jobs"),
    m("serve.rejected", "count", L, W),
    m("serve.deadline_expired", "count", L, W),
    // gpm-serve protocol
    m("protocol.encode_job_us", "us", L, W),
    m("protocol.decode_job_us", "us", L, W),
    m("protocol.decode_reply_us", "us", L, W),
    m("protocol.reply_bytes", "bytes", L, X),
    // gp_metis::multi_gpu
    m("multigpu.interconnect_bytes", "bytes", L, X),
    m("multigpu.interconnect_transfers", "count", L, X),
    m("multigpu.interconnect_modeled_s", "s", L, X),
    m("multigpu.serialized_modeled_s", "s", L, X),
    m("multigpu.makespan_modeled_s", "s", L, X),
    r("multigpu.overlap_speedup", "ratio", H, X, "overlap makespan"),
    m("multigpu.peak_device_mb_max", "MiB", L, X),
    m("multigpu.boundary_vertices", "count", L, X),
    m("multigpu.orchestrate_s", "s", L, W),
    // the answer checker and the tracer itself
    r("check.imbalance_max", "ratio", L, X, "average part weight"),
    r("trace.overhead_frac", "fraction", L, W, "untraced operation wall"),
    r("trace.coverage_frac", "fraction", H, W, "traced operation wall"),
];

/// Metric values of one run, keyed by registry name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set every metric of `specs` to 0 unless already set: the layers a
    /// workload does not reach.
    pub fn zero_rest(&mut self, specs: &[Spec]) {
        for s in specs {
            self.values.entry(s.name).or_insert(0.0);
        }
    }

    /// The values in registry order, or the first problem: a missing,
    /// unknown or non-finite metric.
    pub fn finish(&self, specs: &'static [Spec]) -> Result<Vec<(&'static Spec, f64)>, String> {
        for name in self.values.keys() {
            if !specs.iter().any(|s| s.name == *name) {
                return Err(format!("metric {name} is not in the registry"));
            }
        }
        specs
            .iter()
            .map(|s| match self.values.get(s.name) {
                Some(v) if v.is_finite() => Ok((s, *v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", s.name)),
                None => Err(format!("metric {} was not measured", s.name)),
            })
            .collect()
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;
