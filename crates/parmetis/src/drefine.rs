//! Distributed projection and k-way refinement (§II.B): the same ordering
//! method as the coarsening phase is applied in passes — moves alternate
//! between "up" (toward higher partition ids) and "down" — and at the end
//! of each pass the requested moves are committed only if they do not
//! violate the global balance constraint. Global partition weights are
//! tracked with an allreduce per pass; each rank spends from a 1/p share
//! of the remaining headroom of each destination partition so committed
//! moves can never overflow it.

use crate::exchange::{allreduce_sum_vec, fetch_remote};
use crate::local::LocalGraph;
use gpm_graph::boundary::ConnRows;
use gpm_graph::csr::Vid;
use gpm_graph::metrics::max_part_weight;
use gpm_msg::RankCtx;

/// Project a coarse partition to the fine level: `part_f[u] =
/// part_c[cmap[u]]`, fetching remote coarse labels from their owners.
/// Collective.
pub fn dist_project(
    ctx: &mut RankCtx,
    lg_fine: &LocalGraph,
    lg_coarse: &LocalGraph,
    cmap_local: &[Vid],
    part_coarse: &[u32],
    tag: u32,
) -> Vec<u32> {
    let remote: Vec<Vid> = {
        let mut v: Vec<Vid> =
            cmap_local.iter().copied().filter(|&c| !lg_coarse.is_local(c)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // aligned to `remote`: a ghost's label sits at its position there
    let ghost = fetch_remote(ctx, lg_coarse, &remote, tag, |cgid| part_coarse[lg_coarse.lid(cgid)]);
    ctx.work(0, lg_fine.n_local() as u64);
    ctx.ws(lg_fine.bytes() * lg_fine.ranks() as u64);
    cmap_local
        .iter()
        .map(|&c| {
            if lg_coarse.is_local(c) {
                part_coarse[lg_coarse.lid(c)]
            } else {
                ghost[remote.binary_search(&c).expect("remote coarse ids were requested")]
            }
        })
        .collect()
}

/// One level of distributed k-way refinement, in place on the local
/// partition slice. Collective.
#[allow(clippy::too_many_arguments)]
pub fn dist_refine(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    part: &mut [u32],
    k: usize,
    ubfactor: f64,
    total_vwgt: u64,
    max_passes: usize,
    tag: u32,
) -> u64 {
    let n = lg.n_local();
    assert_eq!(part.len(), n);
    let p = ctx.ranks as u64;
    let maxw = max_part_weight(total_vwgt, k, ubfactor);
    let ghost_gids = lg.ghost_gids();
    ctx.ws(lg.bytes() * lg.ranks() as u64);
    let mut total_moves = 0u64;

    // global part weights
    let mut local_w = vec![0u64; k];
    for u in 0..n {
        local_w[part[u] as usize] += lg.vwgt[u] as u64;
    }
    let mut pw = allreduce_sum_vec(ctx, tag, &local_w);

    // --- incremental boundary state ------------------------------------
    // ext[u] = number of adjacency entries of u in a foreign partition
    // (w.r.t. the current pass's ghost snapshot). Maintained across
    // passes: local commits update it in O(deg), and between passes only
    // the edges touching *changed* ghost labels are re-examined, via a
    // reverse ghost→local-neighbors CSR built once here. `rows` is the
    // per-vertex connectivity cache in adjacency first-encounter order
    // (identical to a fresh gather), invalidated only for vertices whose
    // neighborhood actually changed.
    let ng = ghost_gids.len();
    let mut gdeg = vec![0u32; n]; // ghost-edge count per local vertex
    let mut rev_xadj = vec![0u32; ng + 1];
    for (u, gd) in gdeg.iter_mut().enumerate() {
        for (v, _) in lg.edges(u) {
            if !lg.is_local(v) {
                *gd += 1;
                let gi = ghost_gids.binary_search(&v).unwrap();
                rev_xadj[gi + 1] += 1;
            }
        }
    }
    for i in 0..ng {
        rev_xadj[i + 1] += rev_xadj[i];
    }
    let mut rev_adj = vec![0 as Vid; rev_xadj[ng] as usize];
    {
        let mut cursor = rev_xadj.clone();
        for u in 0..n {
            for (v, _) in lg.edges(u) {
                if !lg.is_local(v) {
                    let gi = ghost_gids.binary_search(&v).unwrap();
                    rev_adj[cursor[gi] as usize] = u as Vid;
                    cursor[gi] += 1;
                }
            }
        }
    }
    ctx.work(lg.adjncy.len() as u64, 0); // one-time reverse-map build
    let mut ext = vec![0u32; n];
    let mut prev_ghost: Vec<u32> = Vec::new(); // aligned to ghost_gids
                                               // pass 0 fills every row, so the arenas take the whole adjacency
    let mut rows = ConnRows::with_capacity(n, lg.adjncy.len());

    for pass in 0..max_passes {
        let up = pass % 2 == 0;
        let ptag = tag + 10 + pass as u32 * 10;
        // refresh ghost partition labels, aligned to ghost_gids
        let gp_now: Vec<u32> = fetch_remote(ctx, lg, &ghost_gids, ptag, |gid| part[lg.lid(gid)]);
        let part_of = |gid: Vid, part: &[u32]| -> u32 {
            if lg.is_local(gid) {
                part[lg.lid(gid)]
            } else {
                gp_now[ghost_gids.binary_search(&gid).expect("remote neighbor is a ghost")]
            }
        };

        let mut ghost_touches = 0u64;
        if pass > 0 {
            // diff the ghost snapshot: only edges into changed ghosts can
            // alter ext, and only their local endpoints' caches go stale
            for gi in 0..ng {
                let (old, new) = (prev_ghost[gi], gp_now[gi]);
                if old == new {
                    continue;
                }
                for &lv in &rev_adj[rev_xadj[gi] as usize..rev_xadj[gi + 1] as usize] {
                    let u = lv as usize;
                    let pu = part[u];
                    if old != pu && new == pu {
                        ext[u] -= 1;
                    } else if old == pu && new != pu {
                        ext[u] += 1;
                    }
                    rows.invalidate(u);
                    ghost_touches += 1;
                }
            }
        }

        // candidate moves, best gain first
        let mut cands: Vec<(i64, usize, u32)> = Vec::new(); // (gain, lid, dest)
        for u in 0..n {
            let pu = part[u];
            ctx.work(0, 1);
            if pass > 0 && ext[u] == 0 {
                // O(1) interior skip: no foreign neighbor, no candidate
                continue;
            }
            if !rows.is_valid(u) {
                // gather connectivity (and on pass 0, seed ext) in one
                // adjacency walk — first-encounter order as always
                let mut e = 0u32;
                let edges = lg.edges(u).map(|(v, w)| {
                    let pv = part_of(v, part);
                    if pv != pu {
                        e += 1;
                    }
                    (pv, w)
                });
                rows.fill(u, lg.degree(u), edges);
                ext[u] = e;
                ctx.work(lg.degree(u) as u64, 0);
                ghost_touches += gdeg[u] as u64;
            }
            if ext[u] == 0 {
                continue;
            }
            let (parts, wgts) = rows.row(u);
            let w_own = parts.iter().position(|&x| x == pu).map_or(0, |i| wgts[i]);
            let overweight = pw[pu as usize] > maxw;
            let mut best: Option<(u32, i64)> = None;
            for (&q, &wq) in parts.iter().zip(wgts.iter()) {
                if q == pu || up != (q > pu) {
                    continue;
                }
                let gain = wq - w_own;
                if gain > 0 || (overweight && pw[q as usize] < pw[pu as usize]) {
                    match best {
                        Some((_, bg)) if bg >= gain => {}
                        _ => best = Some((q, gain)),
                    }
                }
            }
            if let Some((q, gain)) = best {
                cands.push((gain, u, q));
            }
        }
        // modeled halo indirection: ~3 extra memory ops per ghost access,
        // what real ParMetis pays for halo data (the host reads ghosts by
        // position in the sorted ghost list)
        ctx.work(3 * ghost_touches, 0);
        cands.sort_unstable_by_key(|&(g, _, _)| std::cmp::Reverse(g));

        // commit within this rank's 1/p share of each destination's headroom
        let mut budget: Vec<i64> =
            (0..k).map(|q| ((maxw.saturating_sub(pw[q])) / p) as i64).collect();
        let mut delta = vec![0i64; k];
        let mut moves = 0u64;
        for (_gain, u, q) in cands {
            let vw = lg.vwgt[u] as i64;
            if budget[q as usize] < vw {
                continue;
            }
            budget[q as usize] -= vw;
            let from = part[u];
            delta[from as usize] -= vw;
            delta[q as usize] += vw;
            part[u] = q;
            // keep ext exact in O(deg): recount u against the current
            // snapshot, adjust local neighbors, stale both caches
            let mut e = 0u32;
            for (v, _) in lg.edges(u) {
                let pv = part_of(v, part);
                if pv != q {
                    e += 1;
                }
                if lg.is_local(v) {
                    let vl = lg.lid(v);
                    if pv == from {
                        ext[vl] += 1;
                    } else if pv == q {
                        ext[vl] -= 1;
                    }
                    rows.invalidate(vl);
                }
            }
            ext[u] = e;
            rows.invalidate(u);
            ctx.work(lg.degree(u) as u64 + 3 * gdeg[u] as u64, 0);
            moves += 1;
        }
        ctx.work(0, moves);
        prev_ghost = gp_now;

        // update global weights and decide termination collectively
        let delta_enc: Vec<u64> = delta.iter().map(|&d| d as u64).collect();
        let global_delta = allreduce_sum_vec(ctx, ptag + 4, &delta_enc);
        for q in 0..k {
            pw[q] = (pw[q] as i64 + global_delta[q] as i64) as u64;
        }
        let global_moves = ctx.allreduce_u64(ptag + 6, moves, |a, b| a + b);
        total_moves += moves;
        if global_moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::grid2d;
    use gpm_graph::metrics::edge_cut;
    use gpm_graph::rng::SplitMix64;
    use gpm_msg::{run_cluster, ClusterConfig};

    #[test]
    fn refinement_improves_random_partition() {
        let g = grid2d(20, 20);
        let k = 4;
        let mut rng = SplitMix64::new(7);
        let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        let before = edge_cut(&g, &init);
        let p = 4;
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let (lo, hi) = (lg.first() as usize, lg.vtxdist[ctx.rank + 1] as usize);
            let mut part = init[lo..hi].to_vec();
            dist_refine(ctx, &lg, &mut part, k, 1.05, g.total_vwgt(), 6, 1000);
            part
        });
        let mut part = Vec::new();
        for (slice, _) in &res {
            part.extend_from_slice(slice);
        }
        let after = edge_cut(&g, &part);
        assert!(after < before, "{before} -> {after}");
        // balance cap respected
        let maxw = max_part_weight(g.total_vwgt(), k, 1.05);
        let pws = gpm_graph::metrics::part_weights(&g, &part, k);
        for &w in &pws {
            assert!(w <= maxw + 8, "{pws:?} vs {maxw}");
        }
    }

    #[test]
    fn projection_matches_serial() {
        // exercised end-to-end in lib.rs tests; here check the remote
        // fetch path with a synthetic 2-level setup in dcontract tests.
        let g = grid2d(8, 8);
        let p = 2;
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            use crate::dcontract::dist_contract;
            use crate::dmatch::dist_matching;
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let m = dist_matching(ctx, &lg, u32::MAX, 3, 100);
            let (coarse, cmap) = dist_contract(ctx, &lg, &m, 200);
            // coarse partition: parity of coarse gid
            let cpart: Vec<u32> = (0..coarse.n_local()).map(|l| coarse.gid(l) % 2).collect();
            let fpart = dist_project(ctx, &lg, &coarse, &cmap, &cpart, 300);
            // every fine vertex's label equals its coarse gid parity
            (0..lg.n_local()).all(|u| fpart[u] == cmap[u] % 2)
        });
        assert!(res.iter().all(|(ok, _)| *ok));
    }
}
