//! Distributed initial partitioning (§II.B): once the graph is small the
//! paper's ParMetis does an all-to-all broadcast of the vertices, after
//! which "each processor performs a recursive bisection algorithm, where
//! the processor completes one branch of the bisection tree". We
//! reproduce exactly that: the top `log2(p)` bisections are computed
//! redundantly (deterministically) by every rank of the group, the group
//! splits over the two halves, and each rank finishes its own subtree
//! serially; the per-leaf labels are then gathered and broadcast.

use crate::local::LocalGraph;
use gpm_graph::builder::from_raw;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::rng::SplitMix64;
use gpm_graph::subgraph::induced_subgraph;
use gpm_metis::cost::Work;
use gpm_metis::fm::BisectTargets;
use gpm_metis::gggp::gggp_bisect;
use gpm_metis::rb::{recursive_bisection, InitPartConfig};
use gpm_msg::RankCtx;

/// All-gather the distributed graph so every rank holds the full coarse
/// graph (the paper's all-to-all broadcast). Collective.
pub fn gather_global(ctx: &mut RankCtx, lg: &LocalGraph, tag: u32) -> CsrGraph {
    let p = ctx.ranks;
    // pack local rows: [n_local, (vwgt, deg, (gid, w)*deg)*]
    let mut packed: Vec<u32> = Vec::with_capacity(2 + 3 * lg.adjncy.len());
    packed.push(lg.n_local() as u32);
    for u in 0..lg.n_local() {
        packed.push(lg.vwgt[u]);
        packed.push(lg.degree(u) as u32);
        for (v, w) in lg.edges(u) {
            packed.push(v);
            packed.push(w);
        }
    }
    let out: Vec<Vec<u32>> = (0..p).map(|_| packed.clone()).collect();
    let inbox = ctx.all_to_all(tag, out);
    // unpack in rank order (block distribution => concatenation is global)
    let n = lg.n_global();
    let mut xadj = vec![0 as Vid; n + 1];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut vwgt = vec![0u32; n];
    let mut u = 0usize;
    for msg in inbox.iter().take(p) {
        let nl = msg[0] as usize;
        let mut i = 1usize;
        for _ in 0..nl {
            vwgt[u] = msg[i];
            let deg = msg[i + 1] as usize;
            i += 2;
            for _ in 0..deg {
                adjncy.push(msg[i]);
                adjwgt.push(msg[i + 1]);
                i += 2;
            }
            xadj[u + 1] = adjncy.len() as Vid;
            u += 1;
        }
    }
    debug_assert_eq!(u, n);
    from_raw(xadj, adjncy, adjwgt, vwgt).expect("gathered graph invalid")
}

/// Nested bisection over the gathered coarse graph: one branch of the
/// bisection tree per processor. Collective. Returns this rank's *local
/// slice* of the agreed coarsest partition and the bisection work this
/// rank performed (the critical path the BSP model charges).
pub fn dist_init_partition(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    k: usize,
    ubfactor: f64,
    seed: u64,
    tag: u32,
) -> (Vec<u32>, Work) {
    let global = gather_global(ctx, lg, tag);
    let mut work = Work::default();
    let cfg = InitPartConfig::for_k(k, ubfactor);
    // labels this rank computed: (vertex gid, label)
    let mut mine: Vec<u32> = Vec::new();
    let vmap: Vec<Vid> = (0..global.n() as Vid).collect();
    nested(&global, &vmap, k, 0, 0, ctx.ranks, ctx.rank, seed, &cfg, &mut work, &mut mine);
    // gather all leaf assignments at rank 0, stitch, broadcast
    let gathered = ctx.gather(tag + 2, mine);
    let full: Vec<u32> = if ctx.rank == 0 {
        let mut part = vec![u32::MAX; global.n()];
        for msg in &gathered {
            for pair in msg.chunks_exact(2) {
                part[pair[0] as usize] = pair[1];
            }
        }
        debug_assert!(part.iter().all(|&p| p != u32::MAX), "uncovered vertices");
        part
    } else {
        Vec::new()
    };
    let full = ctx.bcast(tag + 4, full);
    let (lo, hi) = (lg.first() as usize, lg.vtxdist[ctx.rank + 1] as usize);
    (full[lo..hi].to_vec(), work)
}

/// One branch of the nested bisection tree. Ranks `rank_lo..rank_hi` hold
/// identical copies of `g`; they compute the same bisection (same seed ⇒
/// deterministic), split over the halves, and recurse. A singleton group
/// finishes its subtree with the ordinary serial recursive bisection.
/// Labels are appended to `out` as `(gid, label)` pairs by the ranks that
/// own the leaves.
#[allow(clippy::too_many_arguments)]
fn nested(
    g: &CsrGraph,
    vmap: &[Vid],
    k: usize,
    offset: u32,
    rank_lo: usize,
    rank_hi: usize,
    my_rank: usize,
    seed: u64,
    cfg: &InitPartConfig,
    work: &mut Work,
    out: &mut Vec<u32>,
) {
    debug_assert!((rank_lo..rank_hi).contains(&my_rank));
    if k == 1 {
        // group leader records the leaf
        if my_rank == rank_lo {
            for (i, &gid) in vmap.iter().enumerate() {
                let _ = i;
                out.extend([gid, offset]);
            }
            work.vertices += g.n() as u64;
        }
        return;
    }
    if rank_hi - rank_lo == 1 {
        // single rank: complete this whole subtree serially
        let mut rng = SplitMix64::stream(seed, offset as u64 + 1);
        let part = recursive_bisection(g, k, cfg, &mut rng, work);
        for (i, &gid) in vmap.iter().enumerate() {
            out.extend([gid, (offset + part[i]) as u32]);
        }
        return;
    }
    // shared (redundant) bisection: every rank of the group computes the
    // same split — identical seed, identical graph, identical result
    let k0 = k.div_ceil(2);
    let total = g.total_vwgt();
    let target0 = (total as f64 * k0 as f64 / k as f64).round() as u64;
    let targets = BisectTargets { target: [target0, total - target0], ubfactor: cfg.ubfactor };
    let mut rng = SplitMix64::stream(seed, offset as u64);
    let (bipart, _cut) = gggp_bisect(g, &targets, cfg.trials, cfg.fm_passes, &mut rng, work);
    let select0: Vec<bool> = bipart.iter().map(|&p| p == 0).collect();
    let (g0, map0) = induced_subgraph(g, &select0);
    let select1: Vec<bool> = bipart.iter().map(|&p| p == 1).collect();
    let (g1, map1) = induced_subgraph(g, &select1);
    work.edges += g.adjncy.len() as u64;
    work.vertices += g.n() as u64;
    let vmap0: Vec<Vid> = map0.iter().map(|&l| vmap[l as usize]).collect();
    let vmap1: Vec<Vid> = map1.iter().map(|&l| vmap[l as usize]).collect();
    // split the rank group proportionally to the part counts
    let group = rank_hi - rank_lo;
    let r0 = ((group * k0) / k).clamp(1, group - 1);
    let mid = rank_lo + r0;
    if my_rank < mid {
        nested(&g0, &vmap0, k0, offset, rank_lo, mid, my_rank, seed, cfg, work, out);
    } else {
        nested(
            &g1,
            &vmap1,
            k - k0,
            offset + k0 as u32,
            mid,
            rank_hi,
            my_rank,
            seed,
            cfg,
            work,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d};
    use gpm_msg::{run_cluster, ClusterConfig};

    #[test]
    fn gather_reconstructs_graph() {
        let g = grid2d(9, 7);
        let res = run_cluster(&ClusterConfig::intra_node(4), |ctx| {
            let lg = LocalGraph::from_global(&g, 4, ctx.rank);
            gather_global(ctx, &lg, 10)
        });
        for (gathered, _) in &res {
            assert_eq!(gathered, &g);
        }
    }

    #[test]
    fn init_partition_valid_and_agreed() {
        let g = delaunay_like(600, 5);
        let k = 8;
        let res = run_cluster(&ClusterConfig::intra_node(4), |ctx| {
            let lg = LocalGraph::from_global(&g, 4, ctx.rank);
            dist_init_partition(ctx, &lg, k, 1.03, 42, 100)
        });
        // stitch slices and validate globally
        let mut part = Vec::new();
        for (slice, _) in &res {
            part.extend_from_slice(&slice.0);
        }
        gpm_graph::metrics::validate_partition(&g, &part, k, 1.12).unwrap();
    }
}
