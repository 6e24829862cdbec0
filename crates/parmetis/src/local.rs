//! The per-rank slice of a block-distributed graph.
//!
//! ParMetis distributes the `n` vertices in contiguous blocks of `n/p`
//! (§II.B of the paper); each rank stores the CSR rows of its own
//! vertices, with adjacency entries holding *global* vertex ids. The
//! `vtxdist` array (ParMetis's name) maps global ids to owners.

use gpm_graph::csr::{CsrGraph, Vid};

/// A rank's local part of a distributed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalGraph {
    /// This rank.
    pub rank: usize,
    /// Block boundaries: rank `r` owns global ids
    /// `vtxdist[r]..vtxdist[r + 1]`; length `ranks + 1`.
    pub vtxdist: Vec<Vid>,
    /// Local adjacency pointers (length `n_local + 1`).
    pub xadj: Vec<Vid>,
    /// Adjacency lists in *global* ids.
    pub adjncy: Vec<Vid>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u32>,
    /// Local vertex weights.
    pub vwgt: Vec<u32>,
}

impl LocalGraph {
    /// First global id owned by this rank.
    #[inline]
    pub fn first(&self) -> Vid {
        self.vtxdist[self.rank]
    }

    /// Number of local vertices.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.vwgt.len()
    }

    /// Global vertex count.
    #[inline]
    pub fn n_global(&self) -> usize {
        *self.vtxdist.last().unwrap() as usize
    }

    /// Number of ranks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.vtxdist.len() - 1
    }

    /// Owner rank of a global id: the unique `r` with
    /// `vtxdist[r] <= gid < vtxdist[r + 1]` (empty blocks share boundary
    /// values, so take the last block starting at or before `gid`).
    #[inline]
    pub fn owner(&self, gid: Vid) -> usize {
        debug_assert!((gid as usize) < self.n_global());
        let r = self.vtxdist.partition_point(|&x| x <= gid) - 1;
        debug_assert!(self.vtxdist[r] <= gid && gid < self.vtxdist[r + 1]);
        r
    }

    /// True if this rank owns `gid`.
    #[inline]
    pub fn is_local(&self, gid: Vid) -> bool {
        gid >= self.first() && gid < self.vtxdist[self.rank + 1]
    }

    /// Local index of a locally owned global id.
    #[inline]
    pub fn lid(&self, gid: Vid) -> usize {
        debug_assert!(self.is_local(gid));
        (gid - self.first()) as usize
    }

    /// Global id of a local index.
    #[inline]
    pub fn gid(&self, lid: usize) -> Vid {
        self.first() + lid as Vid
    }

    /// Degree of a local vertex.
    #[inline]
    pub fn degree(&self, lid: usize) -> usize {
        (self.xadj[lid + 1] - self.xadj[lid]) as usize
    }

    /// Iterate `(neighbor_gid, edge_weight)` of a local vertex.
    #[inline]
    pub fn edges(&self, lid: usize) -> impl Iterator<Item = (Vid, u32)> + '_ {
        let s = self.xadj[lid] as usize;
        let e = self.xadj[lid + 1] as usize;
        self.adjncy[s..e].iter().copied().zip(self.adjwgt[s..e].iter().copied())
    }

    /// Approximate bytes of this rank's CSR arrays.
    pub fn bytes(&self) -> u64 {
        ((self.xadj.len() + self.adjncy.len()) * std::mem::size_of::<Vid>()) as u64
            + ((self.adjwgt.len() + self.vwgt.len()) * 4) as u64
    }

    /// Block-distribute a global graph: the slice owned by `rank` out of
    /// `ranks` (the paper's initial V/p distribution).
    pub fn from_global(g: &CsrGraph, ranks: usize, rank: usize) -> LocalGraph {
        let n = g.n();
        let mut vtxdist = Vec::with_capacity(ranks + 1);
        for r in 0..=ranks {
            let base = n / ranks;
            let rem = n % ranks;
            let start = r * base + r.min(rem);
            vtxdist.push(start as Vid);
        }
        let (lo, hi) = (vtxdist[rank] as usize, vtxdist[rank + 1] as usize);
        let nl = hi - lo;
        let mut xadj = vec![0 as Vid; nl + 1];
        for u in 0..nl {
            xadj[u + 1] = xadj[u] + g.degree((lo + u) as Vid) as Vid;
        }
        let s = g.xadj[lo] as usize;
        let e = g.xadj[hi] as usize;
        LocalGraph {
            rank,
            vtxdist,
            xadj,
            adjncy: g.adjncy[s..e].to_vec(),
            adjwgt: g.adjwgt[s..e].to_vec(),
            vwgt: g.vwgt[lo..hi].to_vec(),
        }
    }

    /// Collect this rank's distinct remote neighbor gids (its ghost set).
    pub fn ghost_gids(&self) -> Vec<Vid> {
        let mut set: Vec<Vid> =
            self.adjncy.iter().copied().filter(|&g| !self.is_local(g)).collect();
        set.sort_unstable();
        set.dedup();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::grid2d;

    #[test]
    fn distribution_covers_graph() {
        let g = grid2d(7, 5); // 35 vertices
        let parts: Vec<LocalGraph> = (0..4).map(|r| LocalGraph::from_global(&g, 4, r)).collect();
        let total: usize = parts.iter().map(|l| l.n_local()).sum();
        assert_eq!(total, 35);
        let total_deg: usize = parts.iter().map(|l| l.adjncy.len()).sum();
        assert_eq!(total_deg, g.adjncy.len());
        for l in &parts {
            assert_eq!(l.n_global(), 35);
        }
    }

    #[test]
    fn owner_and_lid_roundtrip() {
        let g = grid2d(10, 10);
        let l = LocalGraph::from_global(&g, 3, 1);
        for gid in 0..100 as Vid {
            let owner = l.owner(gid);
            assert!(gid >= l.vtxdist[owner] && gid < l.vtxdist[owner + 1]);
        }
        assert!(l.is_local(l.first()));
        assert_eq!(l.lid(l.first()), 0);
        assert_eq!(l.gid(0), l.first());
    }

    #[test]
    fn edges_match_global() {
        let g = grid2d(6, 6);
        let l = LocalGraph::from_global(&g, 2, 1);
        for lid in 0..l.n_local() {
            let gid = l.gid(lid);
            let local: Vec<(Vid, u32)> = l.edges(lid).collect();
            let global: Vec<(Vid, u32)> = g.edges(gid).collect();
            assert_eq!(local, global);
        }
    }

    #[test]
    fn ghosts_are_remote_only() {
        let g = grid2d(8, 8);
        let l = LocalGraph::from_global(&g, 4, 2);
        let ghosts = l.ghost_gids();
        assert!(!ghosts.is_empty());
        for &gh in &ghosts {
            assert!(!l.is_local(gh));
        }
        // deduped
        let mut s = ghosts.clone();
        s.dedup();
        assert_eq!(s, ghosts);
    }

    #[test]
    fn single_rank_owns_everything() {
        let g = grid2d(4, 4);
        let l = LocalGraph::from_global(&g, 1, 0);
        assert_eq!(l.n_local(), 16);
        assert!(l.ghost_gids().is_empty());
        assert_eq!(l.owner(15), 0);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = grid2d(2, 2);
        let parts: Vec<LocalGraph> = (0..8).map(|r| LocalGraph::from_global(&g, 8, r)).collect();
        let total: usize = parts.iter().map(|l| l.n_local()).sum();
        assert_eq!(total, 4);
        // owner() still resolves every gid despite empty blocks
        for gid in 0..4 as Vid {
            let o = parts[0].owner(gid);
            assert!(parts[o].is_local(gid), "gid {gid} owner {o}");
        }
    }
}
