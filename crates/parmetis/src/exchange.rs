//! Ghost-value exchange: the request/response halo pattern every
//! distributed phase needs (fetch the match state / coarse label /
//! partition of remote vertices from their owners).

use crate::local::LocalGraph;
use gpm_msg::RankCtx;

/// Fetch `lookup(gid)` for every (remote) gid in `gids` from its owner.
/// All ranks must call this collectively with the same `tag`.
/// Returns the values in the order of `gids`: `out[i] = lookup(gids[i])`.
pub fn fetch_remote(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    gids: &[u32],
    tag: u32,
    lookup: impl Fn(u32) -> u32,
) -> Vec<u32> {
    let p = ctx.ranks;
    // group requested gids by owner
    let mut reqs: Vec<Vec<u32>> = vec![Vec::new(); p];
    for &g in gids {
        let o = lg.owner(g);
        debug_assert_ne!(o, ctx.rank, "fetch_remote called with a local gid {g}");
        reqs[o].push(g);
    }
    // request assembly (owner grouping + packing) costs a pass over gids
    ctx.work(0, gids.len() as u64);
    let incoming = ctx.all_to_all(tag, reqs);
    // answer: values aligned with the request order (lookup + packing)
    let answer_count: u64 = incoming.iter().map(|r| r.len() as u64).sum();
    ctx.work(0, 2 * answer_count);
    let replies: Vec<Vec<u32>> =
        incoming.into_iter().map(|req| req.into_iter().map(&lookup).collect()).collect();
    let answered = ctx.all_to_all(tag + 1, replies);
    // each owner answered in the order its gids appear in `gids`, so one
    // cursor per owner walks the replies back into request order
    let mut cursors: Vec<_> = answered.iter().map(|r| r.iter()).collect();
    gids.iter().map(|&g| *cursors[lg.owner(g)].next().expect("owner answered every gid")).collect()
}

/// Share one wire word per rank with everyone (tiny allgather); returns
/// the per-rank values.
pub fn allgather_word(ctx: &mut RankCtx, tag: u32, value: u32) -> Vec<u32> {
    let p = ctx.ranks;
    let out: Vec<Vec<u32>> = (0..p).map(|_| vec![value]).collect();
    ctx.all_to_all(tag, out).into_iter().map(|v| v[0]).collect()
}

/// Element-wise global sum of a `u64` vector (gather at 0 + broadcast).
/// Wrapping arithmetic, so two's-complement-encoded signed deltas sum
/// correctly.
pub fn allreduce_sum_vec(ctx: &mut RankCtx, tag: u32, local: &[u64]) -> Vec<u64> {
    let packed: Vec<u32> =
        local.iter().flat_map(|&x| [(x & 0xFFFF_FFFF) as u32, (x >> 32) as u32]).collect();
    let gathered = ctx.gather(tag, packed);
    let summed: Vec<u32> = if ctx.rank == 0 {
        let mut acc = vec![0u64; local.len()];
        for v in &gathered {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = a.wrapping_add((v[2 * i] as u64) | ((v[2 * i + 1] as u64) << 32));
            }
        }
        acc.iter().flat_map(|&x| [(x & 0xFFFF_FFFF) as u32, (x >> 32) as u32]).collect()
    } else {
        Vec::new()
    };
    let b = ctx.bcast(tag + 1, summed);
    (0..local.len()).map(|i| (b[2 * i] as u64) | ((b[2 * i + 1] as u64) << 32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::grid2d;
    use gpm_msg::{run_cluster, ClusterConfig};

    #[test]
    fn fetch_remote_returns_owner_values() {
        let g = grid2d(8, 8);
        let p = 4;
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let ghosts = lg.ghost_gids();
            // owner's lookup: value = gid * 3
            let vals = fetch_remote(ctx, &lg, &ghosts, 10, |gid| gid * 3);
            vals.len() == ghosts.len() && ghosts.iter().zip(&vals).all(|(&g, &v)| v == g * 3)
        });
        assert!(res.iter().all(|(ok, _)| *ok));
    }

    #[test]
    fn fetch_remote_aligns_interleaved_owners() {
        // every remote gid, requested in an order that alternates owners
        // on every step (round-robin over the other ranks' blocks, with
        // repeats), so per-owner grouping must be undone exactly
        let g = grid2d(9, 7); // 63 vertices over 4 ranks: unequal blocks
        let p = 4;
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let blocks: Vec<Vec<u32>> = (0..p)
                .filter(|&r| r != ctx.rank)
                .map(|r| (lg.vtxdist[r]..lg.vtxdist[r + 1]).rev().collect())
                .collect();
            let longest = blocks.iter().map(Vec::len).max().unwrap_or(0);
            let mut gids: Vec<u32> = Vec::new();
            for i in 0..longest {
                for b in &blocks {
                    if let Some(&x) = b.get(i) {
                        gids.push(x);
                    }
                }
            }
            let repeats: Vec<u32> = gids.iter().step_by(5).copied().collect();
            gids.extend(repeats);
            let vals = fetch_remote(ctx, &lg, &gids, 20, |gid| 1000 + 7 * gid);
            let want: Vec<u32> = gids.iter().map(|&x| 1000 + 7 * x).collect();
            (vals == want, gids.len())
        });
        for ((ok, asked), _) in &res {
            assert!(*ok);
            assert!(*asked > 40, "test did not request most of the graph: {asked}");
        }
    }

    #[test]
    fn fetch_remote_empty_requests() {
        // all ranks empty, then only some ranks asking: the collective
        // still completes and an empty request gets an empty answer
        let g = grid2d(6, 6);
        let p = 3;
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let none = fetch_remote(ctx, &lg, &[], 30, |gid| gid);
            let gids = if ctx.rank == 1 { Vec::new() } else { lg.ghost_gids() };
            let vals = fetch_remote(ctx, &lg, &gids, 40, |gid| gid + 1);
            none.is_empty()
                && vals.len() == gids.len()
                && gids.iter().zip(&vals).all(|(&g, &v)| v == g + 1)
        });
        assert!(res.iter().all(|(ok, _)| *ok));
    }

    #[test]
    fn allgather_collects_all_ranks() {
        let res = run_cluster(&ClusterConfig::intra_node(3), |ctx| {
            allgather_word(ctx, 1, ctx.rank as u32 * 10)
        });
        for (v, _) in &res {
            assert_eq!(v, &vec![0, 10, 20]);
        }
    }

    #[test]
    fn allreduce_sums_vectors() {
        let res = run_cluster(&ClusterConfig::intra_node(4), |ctx| {
            let local = vec![ctx.rank as u64, 1u64, 1u64 << 40];
            allreduce_sum_vec(ctx, 5, &local)
        });
        for (v, _) in &res {
            assert_eq!(v, &vec![6, 4, 4u64 << 40]);
        }
    }
}
