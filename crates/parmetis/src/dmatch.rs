//! Distributed heavy-edge matching (§II.B): local pairs match directly;
//! cross-rank pairs use the paper's alternating-direction request passes —
//! in even passes a vertex may only send a match request "upward" (to a
//! higher rank), in odd passes only "downward", which breaks the symmetric
//! request cycles. Requests are batched into one message per rank pair per
//! pass; grants carry the partner's vertex weight so contraction can
//! compute coarse weights without further traffic.

use crate::local::LocalGraph;
use gpm_graph::csr::Vid;
use gpm_msg::RankCtx;

/// Matching state of the local vertices: `mat[lid]` is the partner's
/// *global* id (own gid = unmatched/self), `pvw[lid]` the partner's vertex
/// weight for cross-rank pairs (0 otherwise).
#[derive(Debug, Clone)]
pub struct DistMatching {
    pub mat: Vec<Vid>,
    pub pvw: Vec<u32>,
}

/// Run `passes` alternating-direction matching passes. Collective.
pub fn dist_matching(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    max_vwgt: u32,
    passes: usize,
    tag: u32,
) -> DistMatching {
    let n = lg.n_local();
    let p = ctx.ranks;
    let me = ctx.rank;
    let mut mat: Vec<Vid> = (0..n).map(|l| lg.gid(l)).collect();
    let mut pvw = vec![0u32; n];
    let mut requesting = vec![false; n];
    ctx.ws(lg.bytes() * lg.ranks() as u64);

    for pass in 0..passes {
        requesting.iter_mut().for_each(|r| *r = false);
        let up = pass % 2 == 0;
        // --- propose ------------------------------------------------------
        let mut reqs: Vec<Vec<u32>> = vec![Vec::new(); p];
        for u in 0..n {
            if mat[u] != lg.gid(u) {
                continue;
            }
            // remote-neighbor state checks go through ghost tables
            let remote = lg.edges(u).filter(|&(v, _)| !lg.is_local(v)).count() as u64;
            ctx.work(lg.degree(u) as u64 + 3 * remote, 1);
            let uw = lg.vwgt[u];
            // HEM among candidates: unmatched local neighbors, or remote
            // neighbors on the direction-allowed side (their state is
            // unknown; the owner checks at grant time).
            let mut best: Option<(Vid, u32, bool)> = None; // (gid, w, is_local)
            for (v, w) in lg.edges(u) {
                let (ok, local) = if lg.is_local(v) {
                    let vl = lg.lid(v);
                    (
                        mat[vl] == v
                            && !requesting[vl]
                            && vl != u
                            && uw.saturating_add(lg.vwgt[vl]) <= max_vwgt,
                        true,
                    )
                } else {
                    let o = lg.owner(v);
                    (if up { o > me } else { o < me }, false)
                };
                if !ok {
                    continue;
                }
                match best {
                    Some((_, bw, _)) if bw >= w => {}
                    _ => best = Some((v, w, local)),
                }
            }
            match best {
                Some((v, _, true)) => {
                    let vl = lg.lid(v);
                    mat[u] = v;
                    mat[vl] = lg.gid(u);
                }
                Some((v, _, false)) => {
                    requesting[u] = true;
                    reqs[lg.owner(v)].extend([lg.gid(u), v, uw]);
                }
                None => {}
            }
        }
        // --- grant --------------------------------------------------------
        let incoming = ctx.all_to_all(tag + pass as u32 * 2, reqs);
        let mut grants: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (from, triples) in incoming.iter().enumerate() {
            for t in triples.chunks_exact(3) {
                let (u_gid, v_gid, u_vwgt) = (t[0], t[1], t[2]);
                let vl = lg.lid(v_gid);
                ctx.work(0, 1);
                if mat[vl] == v_gid
                    && !requesting[vl]
                    && lg.vwgt[vl].saturating_add(u_vwgt) <= max_vwgt
                {
                    mat[vl] = u_gid;
                    pvw[vl] = u_vwgt;
                    grants[from].extend([v_gid, u_gid, lg.vwgt[vl]]);
                }
            }
        }
        let granted = ctx.all_to_all(tag + pass as u32 * 2 + 1, grants);
        for triples in granted {
            for t in triples.chunks_exact(3) {
                let (v_gid, u_gid, v_vwgt) = (t[0], t[1], t[2]);
                let ul = lg.lid(u_gid);
                mat[ul] = v_gid;
                pvw[ul] = v_vwgt;
            }
        }
        // un-granted requesters stay unmatched and retry next pass
    }
    DistMatching { mat, pvw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d};
    use gpm_msg::{run_cluster, ClusterConfig};

    /// Gather the distributed matching into a global vector and check the
    /// matching invariants against the global graph.
    fn check_global(g: &gpm_graph::CsrGraph, p: usize, passes: usize) -> f64 {
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(g, p, ctx.rank);
            let m = dist_matching(ctx, &lg, u32::MAX, passes, 100);
            (lg.first(), m.mat)
        });
        let mut global = vec![0 as Vid; g.n()];
        for ((first, mat), _) in res {
            for (l, &v) in mat.iter().enumerate() {
                global[first as usize + l] = v;
            }
        }
        // involution + adjacency
        for u in 0..g.n() {
            let v = global[u];
            assert_eq!(global[v as usize], u as Vid, "not mutual at {u}");
            if v != u as Vid {
                assert!(g.neighbors(u as Vid).contains(&v), "pair ({u},{v}) not an edge");
            }
        }
        let matched = global.iter().enumerate().filter(|&(u, &v)| u as Vid != v).count();
        matched as f64 / g.n() as f64
    }

    #[test]
    fn valid_matching_on_grid_various_ranks() {
        let g = grid2d(16, 16);
        for p in [1, 2, 4] {
            let frac = check_global(&g, p, 4);
            assert!(frac > 0.4, "p={p}: matched fraction {frac}");
        }
    }

    #[test]
    fn valid_on_delaunay_8_ranks() {
        let g = delaunay_like(2_000, 3);
        let frac = check_global(&g, 8, 4);
        assert!(frac > 0.4, "matched fraction {frac}");
    }

    #[test]
    fn more_passes_match_more() {
        let g = grid2d(20, 20);
        let f1 = check_global(&g, 4, 1);
        let f4 = check_global(&g, 4, 5);
        assert!(f4 >= f1, "passes should help: {f1} vs {f4}");
    }

    #[test]
    fn weight_cap_respected() {
        let mut g = delaunay_like(400, 1);
        for w in g.vwgt.iter_mut() {
            *w = 10;
        }
        let res = run_cluster(&ClusterConfig::intra_node(4), |ctx| {
            let lg = LocalGraph::from_global(&g, 4, ctx.rank);
            let m = dist_matching(ctx, &lg, 15, 3, 100);
            m.mat.iter().enumerate().all(|(l, &v)| v == lg.gid(l))
        });
        assert!(res.iter().all(|(ok, _)| *ok), "cap 15 forbids all pairs");
    }
}
