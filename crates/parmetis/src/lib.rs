//! Distributed-memory parallel multilevel k-way partitioner — the
//! ParMetis baseline of the paper's evaluation (§II.B), running on the
//! [`gpm_msg`] message-passing substrate.
//!
//! Pipeline per rank: block distribution → alternating-direction
//! distributed matching + distributed contraction per level → all-to-all
//! broadcast of the coarsest graph and racing recursive bisections →
//! distributed projection and budgeted k-way refinement per level.
//! Modeled time comes from the per-rank work/communication records
//! combined by [`gpm_msg::bsp_time`].

pub mod dcontract;
pub mod dinit;
pub mod dmatch;
pub mod drefine;
pub mod exchange;
pub mod local;

use dcontract::dist_contract_ws;
use dinit::dist_init_partition;
use dmatch::dist_matching;
use drefine::{dist_project, dist_refine};
use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_metis::coarsen::CoarsenConfig;
use gpm_metis::cost::{CostLedger, CpuModel};
use gpm_metis::PartitionResult;
use gpm_msg::{bsp_time, try_run_cluster, ClusterConfig, MsgError};
use local::LocalGraph;

/// Configuration of the distributed partitioner.
#[derive(Debug, Clone)]
pub struct ParMetisConfig {
    /// Number of partitions.
    pub k: usize,
    /// MPI ranks (the paper runs 8, one per core).
    pub ranks: usize,
    /// Balance tolerance.
    pub ubfactor: f64,
    /// Coarsening stops at this many (global) vertices.
    pub coarsen_to: usize,
    /// Matching request passes per level.
    pub match_passes: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Communication model.
    pub comm: ClusterConfig,
}

impl ParMetisConfig {
    /// Paper settings: `k` parts, 3% imbalance, 8 ranks on one node.
    pub fn new(k: usize) -> Self {
        ParMetisConfig {
            k,
            ranks: 8,
            ubfactor: 1.03,
            coarsen_to: (20 * k).max(80),
            match_passes: 4,
            refine_passes: 8,
            seed: 1,
            comm: ClusterConfig::intra_node(8),
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style rank-count override.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self.comm = ClusterConfig::intra_node(ranks);
        self
    }
}

/// Partition `g` into `cfg.k` parts with the distributed multilevel
/// algorithm on a simulated cluster of `cfg.ranks` ranks.
///
/// Panics if the cluster fails (rank timeout/crash); [`try_partition`]
/// returns the typed [`MsgError`] instead.
pub fn partition(g: &CsrGraph, cfg: &ParMetisConfig) -> PartitionResult {
    try_partition(g, cfg).unwrap_or_else(|e| panic!("parmetis cluster failed: {e}"))
}

/// [`partition`] with a typed error surface: a rank that times out
/// (`GPM_MSG_TIMEOUT_SECS`), crashes, or is crashed by the active
/// `GPM_FAULTS` schedule surfaces as an `Err` instead of a panic inside
/// the rank body.
pub fn try_partition(g: &CsrGraph, cfg: &ParMetisConfig) -> Result<PartitionResult, MsgError> {
    let t0 = std::time::Instant::now();
    let total_vwgt = g.total_vwgt();
    let ccfg = CoarsenConfig::for_k(cfg.k);
    let max_vwgt = CoarsenConfig { coarsen_to: cfg.coarsen_to, ..ccfg }.max_vwgt(total_vwgt);

    let results = try_run_cluster(&cfg.comm, |ctx| {
        let mut cur = LocalGraph::from_global(g, cfg.ranks, ctx.rank);
        let first = cur.first();
        let mut levels: Vec<(LocalGraph, Vec<Vid>)> = Vec::new();

        // --- distributed coarsening -----------------------------------
        // One contraction workspace per rank for the whole descent: the
        // first (largest) level sizes it high-water, later levels
        // recycle it allocation-free. Its dedup table is keyed by global
        // coarse id, so it is dropped before uncoarsening.
        let mut ws = CoarsenWorkspace::new();
        for lvl in 0..ccfg.max_levels {
            if cur.n_global() <= cfg.coarsen_to {
                break;
            }
            let base = 10_000 * (lvl as u32 + 1);
            let m = dist_matching(ctx, &cur, max_vwgt, cfg.match_passes, base);
            ctx.phase_end(&format!("coarsen:match:l{lvl}"));
            let (coarse, cmap) = dist_contract_ws(ctx, &cur, &m, base + 1000, &mut ws);
            ctx.phase_end(&format!("coarsen:contract:l{lvl}"));
            let ratio = coarse.n_global() as f64 / cur.n_global() as f64;
            let coarse_n = coarse.n_global();
            levels.push((std::mem::replace(&mut cur, coarse), cmap));
            if ratio > ccfg.reduction_cutoff || coarse_n <= cfg.coarsen_to {
                break;
            }
        }
        drop(ws);

        // --- initial partitioning --------------------------------------
        let (mut part, init_work) =
            dist_init_partition(ctx, &cur, cfg.k, cfg.ubfactor, cfg.seed, 5_000_000);
        ctx.work(init_work.edges, init_work.vertices);
        ctx.phase_end("initpart");

        // --- uncoarsening ------------------------------------------------
        for (lvl, (fine, cmap)) in levels.iter().enumerate().rev() {
            let base = 6_000_000 + 100_000 * (lvl as u32 + 1);
            let coarse_lg = if lvl + 1 < levels.len() { &levels[lvl + 1].0 } else { &cur };
            part = dist_project(ctx, fine, coarse_lg, cmap, &part, base);
            ctx.phase_end(&format!("uncoarsen:project:l{lvl}"));
            dist_refine(
                ctx,
                fine,
                &mut part,
                cfg.k,
                cfg.ubfactor,
                total_vwgt,
                cfg.refine_passes,
                base + 1000,
            );
            ctx.phase_end(&format!("uncoarsen:refine:l{lvl}"));
        }

        let levels_used = levels.len() + 1;
        (first, part, levels_used)
    })?;

    // assemble the global partition from the rank slices
    let mut part = vec![0u32; g.n()];
    let mut levels_used = 1;
    let mut phase_records = Vec::with_capacity(cfg.ranks);
    for ((first, slice, lv), phases) in results {
        for (i, &p) in slice.iter().enumerate() {
            part[first as usize + i] = p;
        }
        levels_used = lv;
        phase_records.push(phases);
    }

    // modeled time: BSP critical path with the testbed's core rates
    let model = CpuModel::xeon_e5540(cfg.ranks);
    let mut ledger = CostLedger::new();
    let compute = |p: &gpm_msg::RankPhase| {
        p.edges as f64 * model.edge_cost(p.ws_bytes)
            + p.vertices as f64 * model.vertex_cost(p.ws_bytes)
    };
    for (name, secs) in bsp_time(&phase_records, &cfg.comm, compute) {
        ledger.seconds(&name, secs);
    }

    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, cfg.k);
    Ok(PartitionResult {
        part,
        k: cfg.k,
        edge_cut,
        imbalance,
        ledger,
        wall_seconds: t0.elapsed().as_secs_f64(),
        levels: levels_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;

    #[test]
    fn partitions_grid_k4() {
        let g = grid2d(24, 24);
        let r = partition(&g, &ParMetisConfig::new(4).with_ranks(4));
        validate_partition(&g, &r.part, 4, 1.15).unwrap();
        assert!(r.edge_cut <= 200, "cut {}", r.edge_cut);
        assert!(r.modeled_seconds() > 0.0);
        assert!(r.levels > 1);
    }

    #[test]
    fn partitions_delaunay_k8() {
        let g = delaunay_like(2_000, 2);
        for ranks in [1, 2, 8] {
            let r = partition(&g, &ParMetisConfig::new(8).with_ranks(ranks).with_seed(3));
            validate_partition(&g, &r.part, 8, 1.20)
                .unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
            assert!(r.edge_cut < g.total_adjwgt() / 4, "ranks={ranks} cut {}", r.edge_cut);
        }
    }

    #[test]
    fn partitions_road_k16() {
        let g = usa_roads_like(3_000, 5);
        let r = partition(&g, &ParMetisConfig::new(16).with_seed(5));
        validate_partition(&g, &r.part, 16, 1.25).unwrap();
    }

    #[test]
    fn partitions_hex_k64() {
        let g = hugebubbles_like(12_000);
        let r = partition(&g, &ParMetisConfig::new(64).with_seed(9));
        validate_partition(&g, &r.part, 64, 1.30).unwrap();
    }

    #[test]
    fn quality_in_the_league_of_serial() {
        let g = delaunay_like(3_000, 11);
        let serial = gpm_metis::partition(&g, &gpm_metis::MetisConfig::new(8).with_seed(4));
        let par = partition(&g, &ParMetisConfig::new(8).with_seed(4));
        // the paper's Table III shows parallel cuts within ~10-15% of Metis
        assert!(
            (par.edge_cut as f64) < 1.8 * serial.edge_cut as f64,
            "par {} vs serial {}",
            par.edge_cut,
            serial.edge_cut
        );
    }

    #[test]
    fn comm_shows_up_in_ledger() {
        let g = delaunay_like(1_500, 6);
        let r = partition(&g, &ParMetisConfig::new(8).with_ranks(4).with_seed(2));
        assert!(r.ledger.total_for("coarsen:") > 0.0);
        assert!(r.ledger.total_for("initpart") > 0.0);
        assert!(r.ledger.total_for("uncoarsen:") > 0.0);
    }
}
