//! Induced subgraph extraction — used by recursive bisection, which
//! partitions each half of a bisection independently — and the halo/ghost
//! shard view the multi-GPU pipeline partitions a graph across devices
//! with.

use crate::csr::{CsrGraph, Vid};

/// Extract the subgraph induced by the vertices with `select[u] == true`.
///
/// Returns the subgraph (vertex and edge weights preserved, edges leaving
/// the selection dropped) and the map from new vertex ids to original ids.
pub fn induced_subgraph(g: &CsrGraph, select: &[bool]) -> (CsrGraph, Vec<Vid>) {
    assert_eq!(select.len(), g.n());
    let mut old_to_new = vec![Vid::MAX; g.n()];
    let mut new_to_old: Vec<Vid> = Vec::new();
    for u in 0..g.n() {
        if select[u] {
            old_to_new[u] = new_to_old.len() as Vid;
            new_to_old.push(u as Vid);
        }
    }
    let nn = new_to_old.len();
    let mut xadj = vec![0 as Vid; nn + 1];
    // First pass: count surviving edges.
    for (nu, &ou) in new_to_old.iter().enumerate() {
        let cnt = g.neighbors(ou).iter().filter(|&&v| select[v as usize]).count() as Vid;
        xadj[nu + 1] = xadj[nu] + cnt;
    }
    let total = xadj[nn] as usize;
    let mut adjncy = vec![0 as Vid; total];
    let mut adjwgt = vec![0u32; total];
    let mut vwgt = vec![0u32; nn];
    for (nu, &ou) in new_to_old.iter().enumerate() {
        vwgt[nu] = g.vwgt[ou as usize];
        let mut c = xadj[nu] as usize;
        for (v, w) in g.edges(ou) {
            if select[v as usize] {
                adjncy[c] = old_to_new[v as usize];
                adjwgt[c] = w;
                c += 1;
            }
        }
    }
    let sub = CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt);
    debug_assert!(sub.validate().is_ok());
    (sub, new_to_old)
}

/// Shard owning vertex `u` under the contiguous block distribution of `n`
/// vertices over `d` shards (the layout the multi-GPU pipeline uses:
/// block boundaries preserve the locality of mesh-ordered inputs).
pub fn shard_of(u: usize, n: usize, d: usize) -> usize {
    (u * d / n.max(1)).min(d - 1)
}

/// One directed cross-shard edge stub: a local vertex's edge to a ghost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloStub {
    /// Local (shard) id of the owned endpoint.
    pub u: Vid,
    /// Border-slot of `u` in [`HaloShard::border`].
    pub u_border: u32,
    /// Index of the remote endpoint in [`HaloShard::ghosts`].
    pub ghost: u32,
    /// Edge weight.
    pub w: u32,
}

/// One shard of a graph distributed over `d` devices: the local induced
/// subgraph plus the halo bookkeeping (border vertices, ghost table and
/// cross-edge stubs) needed for boundary-cmap exchange and ghost-aware
/// refinement. Every list is sorted, so the view is deterministic: two
/// builds of the same graph produce byte-identical shards.
#[derive(Debug, Clone)]
pub struct HaloShard {
    /// The local induced subgraph (cross edges dropped).
    pub sub: CsrGraph,
    /// Local id → global id (ascending: blocks are contiguous).
    pub new_to_old: Vec<Vid>,
    /// Local ids with at least one cross edge, ascending.
    pub border: Vec<Vid>,
    /// Global ids of the distinct remote endpoints, ascending.
    pub ghosts: Vec<Vid>,
    /// Owning shard of each ghost.
    pub ghost_owner: Vec<u32>,
    /// Border-slot of each ghost in its owner's `border` list.
    pub ghost_owner_border: Vec<u32>,
    /// Directed cross edges, sorted by (local u, ghost index).
    pub stubs: Vec<HaloStub>,
}

/// Split `g` into `d` contiguous-block shards with full halo bookkeeping.
///
/// Each vertex belongs to exactly one shard ([`shard_of`]); the shard
/// keeps its induced subgraph and, for each edge leaving the block, a
/// [`HaloStub`] naming the remote endpoint through a deduplicated,
/// sorted ghost table. Both endpoints of every cross edge appear in their
/// owners' border sets, so boundary-label exchange between shards is a
/// gather over `border` on the sender and a scatter over `ghosts` on the
/// receiver.
///
/// Blocks are contiguous, so each shard is carved directly out of the
/// CSR slice `[start, end)` — local id = global id − block start, no
/// per-shard selection vectors — and the `d` extractions run as
/// independent pool tasks (index-ordered results: the output is
/// byte-identical for any worker count).
pub fn halo_shards(g: &CsrGraph, d: usize) -> Vec<HaloShard> {
    assert!(d >= 1);
    let n = g.n();
    let mut start = vec![n as Vid; d + 1];
    for u in (0..n).rev() {
        start[shard_of(u, n, d)] = u as Vid;
    }
    start[d] = n as Vid;
    for i in (0..d).rev() {
        if start[i] == n as Vid || start[i] > start[i + 1] {
            start[i] = start[i + 1];
        }
    }
    let build = |i: usize| -> HaloShard {
        let s0 = start[i] as usize;
        let s1 = start[i + 1] as usize;
        let nn = s1 - s0;
        let local = |v: Vid| (v as usize) >= s0 && (v as usize) < s1;
        // Count local edges per row; collect the ghost table.
        let mut xadj = vec![0 as Vid; nn + 1];
        let mut ghosts: Vec<Vid> = Vec::new();
        for lu in 0..nn {
            let mut cnt = 0 as Vid;
            for &v in g.neighbors((s0 + lu) as Vid) {
                if local(v) {
                    cnt += 1;
                } else {
                    ghosts.push(v);
                }
            }
            xadj[lu + 1] = xadj[lu] + cnt;
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        let ghost_owner: Vec<u32> =
            ghosts.iter().map(|&v| shard_of(v as usize, n, d) as u32).collect();
        // Fill rows (adjacency order preserved); border + stubs on the fly.
        let total = xadj[nn] as usize;
        let mut adjncy = vec![0 as Vid; total];
        let mut adjwgt = vec![0u32; total];
        let mut vwgt = vec![0u32; nn];
        let mut border: Vec<Vid> = Vec::new();
        let mut stubs: Vec<HaloStub> = Vec::new();
        for lu in 0..nn {
            let ou = (s0 + lu) as Vid;
            vwgt[lu] = g.vwgt[ou as usize];
            let mut c = xadj[lu] as usize;
            let mut cross = false;
            for (v, w) in g.edges(ou) {
                if local(v) {
                    adjncy[c] = v - s0 as Vid;
                    adjwgt[c] = w;
                    c += 1;
                } else {
                    cross = true;
                    let gi = ghosts.binary_search(&v).unwrap() as u32;
                    stubs.push(HaloStub { u: lu as Vid, u_border: 0, ghost: gi, w });
                }
            }
            if cross {
                border.push(lu as Vid);
            }
        }
        stubs.sort_unstable_by_key(|s| (s.u, s.ghost));
        for s in &mut stubs {
            s.u_border = border.binary_search(&s.u).unwrap() as u32;
        }
        let sub = CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt);
        debug_assert!(sub.validate().is_ok());
        HaloShard {
            sub,
            new_to_old: (s0 as Vid..s1 as Vid).collect(),
            border,
            ghosts,
            ghost_owner,
            ghost_owner_border: Vec::new(),
            stubs,
        }
    };
    let mut shards: Vec<HaloShard> =
        if d == 1 { vec![build(0)] } else { gpm_pool::scoped_blocking(d, build) };
    // Second pass: resolve each ghost to its owner's border slot. Blocks
    // are contiguous, so owner-local id = global id - block start.
    for i in 0..d {
        let slots: Vec<u32> = shards[i]
            .ghosts
            .iter()
            .zip(&shards[i].ghost_owner)
            .map(|(&gv, &j)| {
                let local = gv - start[j as usize];
                shards[j as usize].border.binary_search(&local).unwrap() as u32
            })
            .collect();
        shards[i].ghost_owner_border = slots;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::grid2d;

    #[test]
    fn extracts_half_of_square() {
        let g = grid2d(2, 2); // 0-1 / 2-3 with vertical edges 0-2, 1-3
        let (sub, map) = induced_subgraph(&g, &[true, true, false, false]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 1);
        assert_eq!(map, vec![0, 1]);
        sub.validate().unwrap();
    }

    #[test]
    fn preserves_weights() {
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, 9), (1, 2, 4)])
            .vertex_weights(vec![7, 8, 9])
            .build();
        let (sub, map) = induced_subgraph(&g, &[false, true, true]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.vwgt, vec![8, 9]);
        assert_eq!(sub.neighbor_weights(0), &[4]);
    }

    #[test]
    fn empty_selection() {
        let g = grid2d(3, 3);
        let (sub, map) = induced_subgraph(&g, &[false; 9]);
        assert_eq!(sub.n(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn full_selection_is_identity() {
        let g = grid2d(3, 3);
        let (sub, map) = induced_subgraph(&g, &[true; 9]);
        assert_eq!(sub, g);
        assert_eq!(map, (0..9).collect::<Vec<Vid>>());
    }

    #[test]
    fn by_part_helper() {
        let g = grid2d(2, 2);
        let (sub, map) = induced_subgraph(&g, &[false, true, false, true]);
        assert_eq!(map, vec![1, 3]);
        assert_eq!(sub.m(), 1);
    }

    #[test]
    fn shard_of_covers_all_blocks() {
        for (n, d) in [(10, 3), (7, 7), (100, 8), (5, 1)] {
            let mut counts = vec![0usize; d];
            let mut last = 0;
            for u in 0..n {
                let s = shard_of(u, n, d);
                assert!(s >= last, "blocks must be contiguous");
                last = s;
                counts[s] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "n={n} d={d}: {counts:?}");
        }
    }

    #[test]
    fn halo_shards_conserve_edges() {
        // Σ (local directed edges + stubs) over shards == directed edges
        // of the whole graph: nothing is held out.
        let g = grid2d(7, 5);
        for d in [1usize, 2, 3, 4] {
            let shards = halo_shards(&g, d);
            let local: usize = shards.iter().map(|s| 2 * s.sub.m()).sum();
            let stubs: usize = shards.iter().map(|s| s.stubs.len()).sum();
            assert_eq!(local + stubs, 2 * g.m(), "d={d}");
            let nn: usize = shards.iter().map(|s| s.sub.n()).sum();
            assert_eq!(nn, g.n());
        }
    }

    #[test]
    fn halo_ghosts_resolve_to_owner_borders() {
        let g = grid2d(6, 6);
        let shards = halo_shards(&g, 3);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.ghosts.len(), s.ghost_owner.len());
            assert_eq!(s.ghosts.len(), s.ghost_owner_border.len());
            for (gi, &gv) in s.ghosts.iter().enumerate() {
                let j = s.ghost_owner[gi] as usize;
                assert_ne!(j, i);
                let slot = s.ghost_owner_border[gi] as usize;
                let local = shards[j].border[slot];
                assert_eq!(shards[j].new_to_old[local as usize], gv);
            }
            // Every stub's endpoint is a border vertex of this shard.
            for st in &s.stubs {
                assert_eq!(s.border[st.u_border as usize], st.u);
            }
        }
    }

    #[test]
    fn halo_shards_deterministic() {
        let g = grid2d(9, 4);
        let a = halo_shards(&g, 4);
        let b = halo_shards(&g, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sub, y.sub);
            assert_eq!(x.border, y.border);
            assert_eq!(x.ghosts, y.ghosts);
            assert_eq!(x.stubs, y.stubs);
        }
    }

    #[test]
    fn single_shard_has_no_halo() {
        let g = grid2d(4, 4);
        let shards = halo_shards(&g, 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].sub, g);
        assert!(shards[0].border.is_empty());
        assert!(shards[0].ghosts.is_empty());
        assert!(shards[0].stubs.is_empty());
    }
}
