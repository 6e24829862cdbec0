//! Serial multilevel k-way graph partitioner — the Metis baseline of the
//! paper's evaluation (its "speedup = 1" reference line in Fig. 5).
//!
//! Pipeline: HEM coarsening → GGGP + FM recursive bisection of the
//! coarsest graph → uncoarsening with projection and greedy k-way
//! boundary refinement. All building blocks are public because the
//! parallel partitioners (`gpm-mtmetis`, `gpm-parmetis`, `gp-metis`)
//! reuse them for their serial sub-steps.

pub mod adaptive;
pub mod coarsen;
pub mod contract;
pub mod cost;
pub mod fm;
pub mod gggp;
pub mod kway;
pub mod matching;
pub mod ordering;
pub mod pmetis;
pub mod rb;

use coarsen::{coarsen, CoarsenConfig};
use cost::{CostLedger, CpuModel, Work};
use gpm_graph::csr::CsrGraph;
use gpm_graph::rng::SplitMix64;
use kway::{kway_balance, kway_refine};
use matching::MatchScheme;
use rb::{recursive_bisection, InitPartConfig};

/// Configuration of the serial partitioner.
#[derive(Debug, Clone)]
pub struct MetisConfig {
    /// Number of partitions.
    pub k: usize,
    /// Balance tolerance (the paper uses 1.03).
    pub ubfactor: f64,
    /// Matching scheme for coarsening.
    pub matching: MatchScheme,
    /// Coarsen until at most this many vertices (default 20 k).
    pub coarsen_to: usize,
    /// GGGP trials per bisection.
    pub gggp_trials: usize,
    /// FM passes per bisection.
    pub fm_passes: usize,
    /// k-way refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MetisConfig {
    /// The paper's evaluation settings: `k` parts at 3% imbalance.
    pub fn new(k: usize) -> Self {
        MetisConfig {
            k,
            ubfactor: 1.03,
            matching: MatchScheme::Hem,
            coarsen_to: (20 * k).max(80),
            gggp_trials: 4,
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
}

/// Output of a partitioner run: the partition vector plus quality and
/// modeled-cost accounting shared by every implementation in the
/// workspace.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Partition label per vertex, in `0..k`.
    pub part: Vec<u32>,
    /// Number of partitions requested.
    pub k: usize,
    /// Final edge cut.
    pub edge_cut: u64,
    /// Final imbalance (1.0 = perfect).
    pub imbalance: f64,
    /// Modeled time on the paper's testbed, by phase.
    pub ledger: CostLedger,
    /// Real wall-clock seconds on this machine (single core).
    pub wall_seconds: f64,
    /// Number of multilevel levels used.
    pub levels: usize,
}

impl PartitionResult {
    /// Modeled total seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.ledger.total()
    }
}

/// Partition `g` into `cfg.k` parts with the serial multilevel algorithm.
///
/// ```
/// use gpm_graph::gen::grid2d;
/// use gpm_metis::{partition, MetisConfig};
///
/// let g = grid2d(20, 20);
/// let r = partition(&g, &MetisConfig::new(4));
/// assert_eq!(r.part.len(), g.n());
/// assert!(r.part.iter().all(|&p| p < 4));
/// gpm_graph::metrics::validate_partition(&g, &r.part, 4, 1.10).unwrap();
/// ```
pub fn partition(g: &CsrGraph, cfg: &MetisConfig) -> PartitionResult {
    let t0 = std::time::Instant::now();
    let model = CpuModel::serial();
    let mut ledger = CostLedger::new();
    let mut rng = SplitMix64::new(cfg.seed);

    // 1. Coarsening.
    let ccfg = CoarsenConfig {
        coarsen_to: cfg.coarsen_to,
        scheme: cfg.matching,
        ..CoarsenConfig::for_k(cfg.k)
    };
    let hierarchy = coarsen(g, &ccfg, &model, &mut rng, &mut ledger);

    // 2. Initial partitioning of the coarsest graph.
    let ipc = InitPartConfig {
        trials: cfg.gggp_trials,
        fm_passes: cfg.fm_passes,
        ..InitPartConfig::for_k(cfg.k, cfg.ubfactor)
    };
    let mut work = Work::default().with_ws(hierarchy.coarsest().bytes());
    let mut part = recursive_bisection(hierarchy.coarsest(), cfg.k, &ipc, &mut rng, &mut work);
    ledger.serial("initpart", &model, work);

    // 3. Uncoarsening: project + balance + refine at every level.
    for lvl in (0..hierarchy.depth()).rev() {
        part = hierarchy.project_step(lvl, &part);
        let fine = &hierarchy.levels[lvl].graph;
        let mut work = Work::default().with_ws(fine.bytes());
        work.vertices += fine.n() as u64; // projection
        kway_balance(fine, &mut part, cfg.k, cfg.ubfactor, &mut work);
        kway_refine(fine, &mut part, cfg.k, cfg.ubfactor, cfg.refine_passes, &mut rng, &mut work);
        ledger.serial(&format!("uncoarsen:l{lvl}"), &model, work);
    }
    // When no coarsening happened, refine the direct partition anyway.
    if hierarchy.depth() == 0 {
        let mut work = Work::default().with_ws(g.bytes());
        kway_refine(g, &mut part, cfg.k, cfg.ubfactor, cfg.refine_passes, &mut rng, &mut work);
        ledger.serial("refine:flat", &model, work);
    }

    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, cfg.k);
    PartitionResult {
        part,
        k: cfg.k,
        edge_cut,
        imbalance,
        ledger,
        wall_seconds: t0.elapsed().as_secs_f64(),
        levels: hierarchy.depth() + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;

    #[test]
    fn partitions_grid_k4() {
        let g = grid2d(24, 24);
        let r = partition(&g, &MetisConfig::new(4));
        validate_partition(&g, &r.part, 4, 1.08).unwrap();
        assert_eq!(r.edge_cut, gpm_graph::metrics::edge_cut(&g, &r.part));
        // 4-way quadrant cut is 48; multilevel should be in that league
        assert!(r.edge_cut <= 110, "cut {}", r.edge_cut);
        assert!(r.levels > 1);
        assert!(r.modeled_seconds() > 0.0);
    }

    #[test]
    fn partitions_delaunay_k8() {
        let g = delaunay_like(3_000, 2);
        let r = partition(&g, &MetisConfig::new(8).with_seed(3));
        validate_partition(&g, &r.part, 8, 1.10).unwrap();
        // random 8-way would cut ~7/8 of edge weight
        assert!(r.edge_cut < g.total_adjwgt() / 4, "cut {}", r.edge_cut);
    }

    #[test]
    fn partitions_road_k16() {
        let g = usa_roads_like(4_000, 7);
        let r = partition(&g, &MetisConfig::new(16).with_seed(5));
        validate_partition(&g, &r.part, 16, 1.15).unwrap();
        assert!(r.edge_cut < g.m() as u64 / 4);
    }

    #[test]
    fn partitions_hex_k64() {
        let g = hugebubbles_like(20_000);
        let r = partition(&g, &MetisConfig::new(64).with_seed(9));
        validate_partition(&g, &r.part, 64, 1.20).unwrap();
        let used: std::collections::HashSet<u32> = r.part.iter().copied().collect();
        assert_eq!(used.len(), 64);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = delaunay_like(1_000, 4);
        let a = partition(&g, &MetisConfig::new(4).with_seed(11));
        let b = partition(&g, &MetisConfig::new(4).with_seed(11));
        assert_eq!(a.part, b.part);
        assert_eq!(a.edge_cut, b.edge_cut);
    }

    #[test]
    fn different_seeds_explore() {
        let g = delaunay_like(1_000, 4);
        let a = partition(&g, &MetisConfig::new(4).with_seed(1));
        let b = partition(&g, &MetisConfig::new(4).with_seed(2));
        // parts may coincide in cut, but the labelings should differ
        assert!(a.part != b.part || a.edge_cut == b.edge_cut);
    }

    #[test]
    fn tiny_graph_k2() {
        let g = grid2d(2, 2);
        let r = partition(&g, &MetisConfig::new(2));
        validate_partition(&g, &r.part, 2, 1.5).unwrap();
    }

    #[test]
    fn multilevel_beats_flat_refinement_quality() {
        // sanity: multilevel cut should be no worse than ~2x the best known
        // grid bisection
        let g = grid2d(32, 32);
        let r = partition(&g, &MetisConfig::new(2).with_seed(6));
        assert!(r.edge_cut <= 2 * 32, "bisection cut {}", r.edge_cut);
    }
}
