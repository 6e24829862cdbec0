//! Shared-memory parallel multilevel k-way partitioner — the mt-metis
//! baseline of the paper's evaluation (§II.C), and the engine GP-metis
//! runs on the CPU for its middle phase.
//!
//! The parallel scheme follows LaSalle & Karypis as summarized by the
//! paper: block vertex ownership per thread; two-round lock-free
//! matching; parallel contraction; racing recursive bisections for the
//! initial partitioning; and two-direction buffered refinement with
//! per-partition request buffers.
//!
//! Threads execute for real (races included); modeled time on the
//! paper's 8-core testbed comes from per-thread work records combined by
//! the bulk-synchronous critical-path model in [`gpm_metis::cost`].

pub mod pcontract;
pub mod pinit;
pub mod pmatch;
pub mod prefine;
pub mod util;

use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::CsrGraph;
use gpm_metis::coarsen::{CoarsenConfig, Hierarchy, Level};
use gpm_metis::cost::{CostLedger, CpuModel, Work};
use gpm_metis::kway::kway_balance;
use gpm_metis::PartitionResult;
use pcontract::parallel_contract_ws;
use pinit::parallel_init_partition;
use pmatch::parallel_matching;
use prefine::parallel_refine;

/// Configuration of the shared-memory partitioner.
#[derive(Debug, Clone)]
pub struct MtMetisConfig {
    /// Number of partitions.
    pub k: usize,
    /// Worker threads (the paper uses 8).
    pub threads: usize,
    /// Balance tolerance.
    pub ubfactor: f64,
    /// Coarsening stops at this many vertices.
    pub coarsen_to: usize,
    /// GGGP trials per racing bisection.
    pub gggp_trials: usize,
    /// FM passes per bisection.
    pub fm_passes: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MtMetisConfig {
    /// Paper settings: `k` parts, 3% imbalance, 8 threads.
    pub fn new(k: usize) -> Self {
        MtMetisConfig {
            k,
            threads: 8,
            ubfactor: 1.03,
            coarsen_to: (20 * k).max(80),
            gggp_trials: 2,
            fm_passes: 6,
            refine_passes: 8,
            seed: 1,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Parallel coarsening: repeated two-round matching + parallel
/// contraction, charged to the ledger as bulk-synchronous phases.
pub fn parallel_coarsen(
    g: &CsrGraph,
    cfg: &MtMetisConfig,
    model: &CpuModel,
    ledger: &mut CostLedger,
) -> Hierarchy {
    let ccfg = CoarsenConfig::for_k(cfg.k);
    let max_vwgt = CoarsenConfig { coarsen_to: cfg.coarsen_to, ..ccfg }.max_vwgt(g.total_vwgt());
    let mut levels: Vec<Level> = Vec::new();
    let mut cur = g.clone();
    // One workspace for the whole V-cycle: the first (largest) level
    // sizes it high-water, later levels recycle it allocation-free.
    let mut ws = CoarsenWorkspace::new();
    for lvl in 0..ccfg.max_levels {
        if cur.n() <= cfg.coarsen_to || cur.m() == 0 {
            break;
        }
        let (mat, match_work) =
            parallel_matching(&cur, cfg.threads, max_vwgt, cfg.seed.wrapping_add(lvl as u64));
        ledger.parallel(&format!("coarsen:match:l{lvl}"), model, &match_work, 2);
        let (coarse, cmap, contract_work) = parallel_contract_ws(&cur, &mat, cfg.threads, &mut ws);
        ledger.parallel(&format!("coarsen:contract:l{lvl}"), model, &contract_work, 2);
        let ratio = coarse.n() as f64 / cur.n() as f64;
        let coarse_n = coarse.n();
        levels.push(Level { graph: std::mem::replace(&mut cur, coarse), cmap });
        if ratio > ccfg.reduction_cutoff || coarse_n <= cfg.coarsen_to {
            break;
        }
    }
    levels.push(Level { graph: cur, cmap: Vec::new() });
    Hierarchy { levels }
}

/// Partition `g` into `cfg.k` parts with the shared-memory multilevel
/// algorithm.
pub fn partition(g: &CsrGraph, cfg: &MtMetisConfig) -> PartitionResult {
    let t0 = std::time::Instant::now();
    let model = CpuModel::xeon_e5540(cfg.threads);
    let mut ledger = CostLedger::new();

    // 1. Parallel coarsening.
    let hierarchy = parallel_coarsen(g, cfg, &model, &mut ledger);

    // 2. Parallel initial partitioning (racing recursive bisections).
    let (mut part, init_crit) = parallel_init_partition(
        hierarchy.coarsest(),
        cfg.k,
        cfg.ubfactor,
        cfg.gggp_trials,
        cfg.fm_passes,
        cfg.seed,
        cfg.threads,
    );
    // init_crit is already a critical-path estimate
    ledger.parallel("initpart", &model, &[init_crit], 1);

    // 3. Uncoarsening: parallel projection + balance + parallel refinement.
    for lvl in (0..hierarchy.depth()).rev() {
        part = hierarchy.project_step(lvl, &part);
        let fine = &hierarchy.levels[lvl].graph;
        ledger.parallel(
            &format!("uncoarsen:project:l{lvl}"),
            &model,
            &vec![
                Work::new(0, (fine.n() / cfg.threads.max(1)) as u64).with_ws(fine.bytes());
                cfg.threads
            ],
            1,
        );
        // serial balance repair only when needed (rare; coarse granularity)
        if gpm_graph::metrics::imbalance(fine, &part, cfg.k) > cfg.ubfactor {
            let mut w = Work::default().with_ws(fine.bytes());
            kway_balance(fine, &mut part, cfg.k, cfg.ubfactor, &mut w);
            ledger.serial(&format!("uncoarsen:balance:l{lvl}"), &model, w);
        }
        let (_stats, works) =
            parallel_refine(fine, &mut part, cfg.k, cfg.ubfactor, cfg.refine_passes, cfg.threads);
        ledger.parallel(&format!("uncoarsen:refine:l{lvl}"), &model, &works, 2);
    }
    if hierarchy.depth() == 0 {
        let (_stats, works) =
            parallel_refine(g, &mut part, cfg.k, cfg.ubfactor, cfg.refine_passes, cfg.threads);
        ledger.parallel("refine:flat", &model, &works, 2);
    }

    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, cfg.k);
    let levels = hierarchy.depth() + 1;
    PartitionResult {
        part,
        k: cfg.k,
        edge_cut,
        imbalance,
        ledger,
        wall_seconds: t0.elapsed().as_secs_f64(),
        levels,
    }
}

/// Uncoarsen an externally produced coarsest partition back through a
/// hierarchy with balance + parallel refinement at every level; used by
/// GP-metis's CPU middle phase. `part` must be a partition of
/// `hierarchy.coarsest()`.
pub fn uncoarsen_with_refine(
    hierarchy: &Hierarchy,
    mut part: Vec<u32>,
    cfg: &MtMetisConfig,
    model: &CpuModel,
    ledger: &mut CostLedger,
) -> Vec<u32> {
    assert_eq!(part.len(), hierarchy.coarsest().n());
    for lvl in (0..hierarchy.depth()).rev() {
        part = hierarchy.project_step(lvl, &part);
        let fine = &hierarchy.levels[lvl].graph;
        if gpm_graph::metrics::imbalance(fine, &part, cfg.k) > cfg.ubfactor {
            let mut w = Work::default().with_ws(fine.bytes());
            kway_balance(fine, &mut part, cfg.k, cfg.ubfactor, &mut w);
            ledger.serial(&format!("cpu:balance:l{lvl}"), model, w);
        }
        let (_s, works) =
            parallel_refine(fine, &mut part, cfg.k, cfg.ubfactor, cfg.refine_passes, cfg.threads);
        ledger.parallel(&format!("cpu:refine:l{lvl}"), model, &works, 2);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;

    #[test]
    fn partitions_grid_k4() {
        let g = grid2d(24, 24);
        let r = partition(&g, &MtMetisConfig::new(4).with_threads(4));
        validate_partition(&g, &r.part, 4, 1.10).unwrap();
        assert!(r.edge_cut <= 140, "cut {}", r.edge_cut);
        assert!(r.modeled_seconds() > 0.0);
    }

    #[test]
    fn partitions_delaunay_k8_all_thread_counts() {
        let g = delaunay_like(2_000, 2);
        for threads in [1, 2, 8] {
            let r = partition(&g, &MtMetisConfig::new(8).with_threads(threads).with_seed(3));
            validate_partition(&g, &r.part, 8, 1.12)
                .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
            assert!(r.edge_cut < g.total_adjwgt() / 4);
        }
    }

    #[test]
    fn partitions_road_k16() {
        let g = usa_roads_like(3_000, 5);
        let r = partition(&g, &MtMetisConfig::new(16).with_seed(5));
        validate_partition(&g, &r.part, 16, 1.15).unwrap();
    }

    #[test]
    fn partitions_hex_k64() {
        let g = hugebubbles_like(15_000);
        let r = partition(&g, &MtMetisConfig::new(64).with_seed(9));
        validate_partition(&g, &r.part, 64, 1.20).unwrap();
    }

    #[test]
    fn parallel_speedup_in_model() {
        // the modeled time with 8 threads must beat the modeled time with
        // 1 thread (that is the whole point of the paper's Fig. 5)
        let g = delaunay_like(4_000, 7);
        let r1 = partition(&g, &MtMetisConfig::new(8).with_threads(1).with_seed(2));
        let r8 = partition(&g, &MtMetisConfig::new(8).with_threads(8).with_seed(2));
        assert!(
            r8.modeled_seconds() < r1.modeled_seconds(),
            "8t {} !< 1t {}",
            r8.modeled_seconds(),
            r1.modeled_seconds()
        );
    }

    #[test]
    fn quality_comparable_to_serial() {
        let g = delaunay_like(3_000, 11);
        let serial = gpm_metis::partition(&g, &gpm_metis::MetisConfig::new(8).with_seed(4));
        let par = partition(&g, &MtMetisConfig::new(8).with_seed(4));
        // paper Table III: parallel partitioners stay within ~15% of Metis
        assert!(
            (par.edge_cut as f64) < 1.6 * serial.edge_cut as f64,
            "par {} vs serial {}",
            par.edge_cut,
            serial.edge_cut
        );
    }

    #[test]
    fn one_level_helper() {
        let g = grid2d(16, 16);
        let (mat, _) = parallel_matching(&g, 4, u32::MAX, 3);
        let (coarse, cmap, _) = pcontract::parallel_contract(&g, &mat, 4);
        assert!(coarse.n() < g.n());
        assert_eq!(cmap.len(), g.n());
        coarse.validate().unwrap();
    }
}
