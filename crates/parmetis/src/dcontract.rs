//! Distributed contraction: coarse vertices live on the owner of the
//! pair's smaller-gid endpoint; coarse labels are assigned blockwise so
//! the coarse graph is again block-distributed. Cross-rank pairs ship the
//! non-representative's adjacency row (already mapped to coarse ids) to
//! the representative's owner in one message per rank pair.

use crate::dmatch::DistMatching;
use crate::exchange::{allgather_word, fetch_remote};
use crate::local::LocalGraph;
use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::Vid;
use gpm_msg::RankCtx;

/// Contract the distributed fine graph. Collective. Returns the coarse
/// local graph and `cmap_local` (coarse gid of every local fine vertex).
/// Convenience wrapper over [`dist_contract_ws`] with a cold, single-use
/// workspace — the level loop in `try_partition` holds one per rank for
/// the whole coarsening descent instead.
pub fn dist_contract(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    m: &DistMatching,
    tag: u32,
) -> (LocalGraph, Vec<Vid>) {
    dist_contract_ws(ctx, lg, m, tag, &mut CoarsenWorkspace::new())
}

/// Two-pass counting contraction drawing the per-rank dense dedup table
/// from `ws` (epoch-stamped resets instead of a `vec![u32::MAX;
/// nc_global]` refill per level). Pass 1 counts each coarse row's exact
/// distinct neighbors across the row's three sources (own edges, local
/// partner's edges, shipped cross-rank rows); pass 2 scatters into the
/// exactly-sized final arrays in the same first-encounter order the
/// historical push-grown builder used, so the output is byte-identical
/// (pinned by `tests/dcontract_identity.rs`).
#[allow(clippy::needless_range_loop)] // rank- and vertex-indexed assembly loops
pub fn dist_contract_ws(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    m: &DistMatching,
    tag: u32,
    ws: &mut CoarsenWorkspace,
) -> (LocalGraph, Vec<Vid>) {
    let n = lg.n_local();
    let p = ctx.ranks;
    ctx.ws(lg.bytes() * lg.ranks() as u64);

    // --- coarse labels -----------------------------------------------------
    // u is representative iff its partner gid is >= its own gid.
    let is_rep = |u: usize| m.mat[u] >= lg.gid(u);
    let rep_count = (0..n).filter(|&u| is_rep(u)).count() as Vid;
    let counts = allgather_word(ctx, tag, rep_count);
    let mut vtxdist_c = vec![0 as Vid; p + 1];
    for r in 0..p {
        vtxdist_c[r + 1] = vtxdist_c[r] + counts[r];
    }
    let my_c0 = vtxdist_c[ctx.rank];

    let mut cmap_local = vec![Vid::MAX; n];
    let mut next = my_c0;
    for u in 0..n {
        if is_rep(u) {
            cmap_local[u] = next;
            next += 1;
        }
    }
    // local-pair non-reps copy their rep's label; cross-pair labels travel
    let mut label_msgs: Vec<Vec<u32>> = vec![Vec::new(); p];
    for u in 0..n {
        if !is_rep(u) {
            let partner = m.mat[u];
            if lg.is_local(partner) {
                cmap_local[u] = cmap_local[lg.lid(partner)];
            }
        } else {
            let partner = m.mat[u];
            if partner != lg.gid(u) && !lg.is_local(partner) {
                label_msgs[lg.owner(partner)].extend([partner, cmap_local[u]]);
            }
        }
    }
    let incoming = ctx.all_to_all(tag + 2, label_msgs);
    for msgs in incoming {
        for pair in msgs.chunks_exact(2) {
            cmap_local[lg.lid(pair[0])] = pair[1];
        }
    }
    debug_assert!(cmap_local.iter().all(|&c| c != Vid::MAX));
    ctx.work(0, 2 * n as u64);

    // --- ghost fine cmap -----------------------------------------------------
    let ghosts = lg.ghost_gids();
    let ghost_cmap = fetch_remote(ctx, lg, &ghosts, tag + 4, |gid| cmap_local[lg.lid(gid)]);
    // ghost reads by position in the sorted ghost list
    let cmap_of = |gid: Vid| -> Vid {
        if lg.is_local(gid) {
            cmap_local[lg.lid(gid)]
        } else {
            ghost_cmap[ghosts.binary_search(&gid).expect("remote neighbor is a ghost")]
        }
    };

    // --- ship non-rep rows of cross pairs to the rep's owner ----------------
    let mut row_msgs: Vec<Vec<u32>> = vec![Vec::new(); p];
    for u in 0..n {
        if is_rep(u) {
            continue;
        }
        let rep = m.mat[u];
        if lg.is_local(rep) {
            continue; // local pair: merged directly below
        }
        let owner = lg.owner(rep);
        let msg = &mut row_msgs[owner];
        msg.push(cmap_local[u]);
        msg.push(lg.degree(u) as u32);
        for (v, w) in lg.edges(u) {
            msg.push(cmap_of(v));
            msg.push(w);
        }
        ctx.work(lg.degree(u) as u64, 1);
    }
    let incoming_rows = ctx.all_to_all(tag + 6, row_msgs);
    // Shipped rows land on the rank that owns their coarse gid, and each
    // local coarse vertex receives at most one: the row of its rep's
    // remote partner. Keep one offset per coarse vertex, indexed densely
    // by (cgid - my_c0), into the received buffers read back to back
    // (`base[r]` is where rank r's buffer starts); `usize::MAX` = none.
    let mut base = Vec::with_capacity(p + 1);
    base.push(0usize);
    for msgs in &incoming_rows {
        base.push(base[base.len() - 1] + msgs.len());
    }
    let mut shipped = vec![usize::MAX; rep_count as usize];
    for (r, msgs) in incoming_rows.iter().enumerate() {
        let mut i = 0usize;
        while i < msgs.len() {
            let at = &mut shipped[(msgs[i] - my_c0) as usize];
            debug_assert_eq!(*at, usize::MAX, "one shipped row per coarse vertex");
            *at = base[r] + i;
            i += 2 + 2 * msgs[i + 1] as usize;
        }
    }
    // The (coarse neighbor, weight) words of coarse vertex `c`'s shipped
    // row, empty when none was shipped.
    let shipped_row = |c: Vid| -> &[u32] {
        let at = shipped[(c - my_c0) as usize];
        if at == usize::MAX {
            return &[];
        }
        let r = base.partition_point(|&b| b <= at) - 1;
        let (msgs, i) = (&incoming_rows[r], at - base[r]);
        &msgs[i + 2..i + 2 + 2 * msgs[i + 1] as usize]
    };

    // --- build coarse rows ---------------------------------------------------
    let nc_local = rep_count as usize;
    let mut xadj = vec![0 as Vid; nc_local + 1];
    let mut vwgt = vec![0u32; nc_local];
    // Dense epoch-stamped dedup table from the recycled workspace, keyed
    // by *global* coarse id (rows reference remote coarse vertices).
    let nc_global = vtxdist_c[p] as usize;
    let slot = ws.serial_slots();
    slot.reset(nc_global);

    // pass 1: exact distinct-coarse-neighbor count per row, traversing
    // the row's sources in the same order the scatter will
    {
        let mut ci = 0usize;
        for u in 0..n {
            if !is_rep(u) {
                continue;
            }
            let c = cmap_local[u];
            let partner = m.mat[u];
            slot.next_row();
            let mut deg = 0 as Vid;
            let mut count = |cn: Vid, slot: &mut gpm_graph::EpochSlots| {
                if cn != c && slot.get(cn).is_none() {
                    slot.insert(cn, 0);
                    deg += 1;
                }
            };
            for (v, _) in lg.edges(u) {
                count(cmap_of(v), slot);
            }
            if partner != lg.gid(u) && lg.is_local(partner) {
                for (v, _) in lg.edges(lg.lid(partner)) {
                    count(cmap_of(v), slot);
                }
            }
            for e in shipped_row(c).chunks_exact(2) {
                count(e[0], slot);
            }
            xadj[ci + 1] = deg;
            ci += 1;
        }
        debug_assert_eq!(ci, nc_local);
    }
    for ci in 0..nc_local {
        xadj[ci + 1] += xadj[ci];
    }
    let total = xadj[nc_local] as usize;

    // pass 2: scatter into the exactly-sized final arrays
    let mut adjncy = vec![0 as Vid; total];
    let mut adjwgt = vec![0u32; total];
    let mut ci = 0usize;
    for u in 0..n {
        if !is_rep(u) {
            continue;
        }
        let c = cmap_local[u];
        let partner = m.mat[u];
        vwgt[ci] = lg.vwgt[u]
            + if partner == lg.gid(u) {
                0
            } else if lg.is_local(partner) {
                lg.vwgt[lg.lid(partner)]
            } else {
                m.pvw[u]
            };
        slot.next_row();
        let mut cursor = xadj[ci];
        let mut emit = |cn: Vid,
                        w: u32,
                        adjncy: &mut [Vid],
                        adjwgt: &mut [u32],
                        slot: &mut gpm_graph::EpochSlots| {
            if cn == c {
                return;
            }
            match slot.get(cn) {
                Some(s) => adjwgt[s as usize] += w,
                None => {
                    slot.insert(cn, cursor);
                    adjncy[cursor as usize] = cn;
                    adjwgt[cursor as usize] = w;
                    cursor += 1;
                }
            }
        };
        for (v, w) in lg.edges(u) {
            emit(cmap_of(v), w, &mut adjncy, &mut adjwgt, slot);
        }
        ctx.work(lg.degree(u) as u64, 1);
        if partner != lg.gid(u) && lg.is_local(partner) {
            let pl = lg.lid(partner);
            for (v, w) in lg.edges(pl) {
                emit(cmap_of(v), w, &mut adjncy, &mut adjwgt, slot);
            }
            ctx.work(lg.degree(pl) as u64, 0);
        }
        let row = shipped_row(c);
        if !row.is_empty() {
            for e in row.chunks_exact(2) {
                emit(e[0], e[1], &mut adjncy, &mut adjwgt, slot);
            }
            ctx.work(row.len() as u64 / 2, 0);
        }
        debug_assert_eq!(cursor, xadj[ci + 1], "count pass disagrees with scatter");
        ci += 1;
    }
    debug_assert_eq!(ci, nc_local);

    let coarse = LocalGraph { rank: ctx.rank, vtxdist: vtxdist_c, xadj, adjncy, adjwgt, vwgt };
    (coarse, cmap_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmatch::dist_matching;
    use gpm_graph::builder::GraphBuilder;
    use gpm_graph::csr::CsrGraph;
    use gpm_graph::gen::{delaunay_like, grid2d};
    use gpm_msg::{run_cluster, ClusterConfig};

    /// Run distributed match + contract and reassemble the global coarse
    /// graph for validation.
    fn coarsen_once(g: &CsrGraph, p: usize) -> (CsrGraph, Vec<Vid>) {
        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(g, p, ctx.rank);
            let m = dist_matching(ctx, &lg, u32::MAX, 4, 100);
            let (coarse, cmap) = dist_contract(ctx, &lg, &m, 200);
            (coarse, cmap)
        });
        // reassemble
        let nc_global = res[0].0 .0.n_global();
        let mut vwgt = vec![0u32; nc_global];
        let mut rows: Vec<Vec<(Vid, u32)>> = vec![Vec::new(); nc_global];
        let mut cmap_global = vec![0 as Vid; g.n()];
        for ((coarse, _cmap), _) in &res {
            for l in 0..coarse.n_local() {
                let gid = coarse.gid(l) as usize;
                vwgt[gid] = coarse.vwgt[l];
                rows[gid] = coarse.edges(l).collect();
            }
            let first = coarse.vtxdist[coarse.rank]; // coarse rank == fine rank
            let _ = first;
        }
        for (r, ((_, cmap), _)) in res.iter().enumerate() {
            let lg = LocalGraph::from_global(g, p, r);
            for (l, &c) in cmap.iter().enumerate() {
                cmap_global[lg.gid(l) as usize] = c;
            }
        }
        // the distributed rows must already be symmetric with equal weights
        for (u, row) in rows.iter().enumerate() {
            for &(v, w) in row {
                assert!(
                    rows[v as usize].contains(&(u as Vid, w)),
                    "coarse edge ({u},{v},{w}) not mirrored"
                );
            }
        }
        let mut b = GraphBuilder::new(nc_global).vertex_weights(vwgt);
        for (u, row) in rows.iter().enumerate() {
            for &(v, w) in row {
                if (u as Vid) < v {
                    b.add_edge(u as Vid, v, w);
                }
            }
        }
        (b.build(), cmap_global)
    }

    #[test]
    fn conserves_weight_and_validates() {
        let g = grid2d(12, 12);
        for p in [1, 2, 4] {
            let (coarse, cmap) = coarsen_once(&g, p);
            coarse.validate().unwrap();
            assert_eq!(coarse.total_vwgt(), g.total_vwgt(), "p={p}");
            assert!(coarse.n() < g.n());
            assert!(cmap.iter().all(|&c| (c as usize) < coarse.n()));
        }
    }

    #[test]
    fn preserves_cut_through_cmap() {
        let g = delaunay_like(900, 7);
        let (coarse, cmap) = coarsen_once(&g, 4);
        let cpart: Vec<u32> = (0..coarse.n() as u32).map(|c| c % 3).collect();
        let fpart: Vec<u32> = (0..g.n()).map(|u| cpart[cmap[u] as usize]).collect();
        assert_eq!(
            gpm_graph::metrics::edge_cut(&coarse, &cpart),
            gpm_graph::metrics::edge_cut(&g, &fpart)
        );
    }

    #[test]
    fn coarse_graph_symmetric_across_ranks() {
        // the reassembled graph passing validate() (symmetry check) for a
        // graph whose boundary crosses ranks heavily is the real test
        let g = grid2d(9, 9);
        let (coarse, _) = coarsen_once(&g, 8);
        coarse.validate().unwrap();
    }
}
