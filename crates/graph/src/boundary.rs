//! Incremental boundary and connectivity tracking for k-way refinement.
//!
//! Every refiner used to re-scan the full adjacency of every vertex on
//! every pass just to decide whether it lies on a partition boundary,
//! making each pass O(|E|) even when the boundary is a sliver of the
//! graph. [`BoundaryTracker`] maintains the Metis-style external-degree
//! counter per vertex — built once in O(|E|), updated in O(deg(u)) when a
//! vertex moves — so the boundary test becomes O(1), plus a lazily cached
//! per-vertex part-connectivity table ([`ConnRows`]) that replaces the
//! repeated linear gather over the adjacency. The tracker is a pure work
//! reduction: the connectivity it reports is bit-for-bit the list the old
//! gather built (same first-encounter order, which equal-gain
//! tie-breaking depends on), so refinement decisions — and therefore
//! partitions — are byte-identical to the sweep implementation for every
//! seed.

use crate::csr::{CsrGraph, Vid};

/// Incremental boundary state for one partition vector.
///
/// Invariant: `ext[u]` equals the number of adjacency entries of `u`
/// whose endpoint lies in a different partition than `u`, for the
/// current `part` — provided every mutation of `part` goes through
/// [`BoundaryTracker::apply_move`].
pub struct BoundaryTracker {
    /// Per-vertex count of neighbors in a foreign partition. Counts, not
    /// weights: `ext[u] > 0` must match `any(part[v] != part[u])` even
    /// for zero-weight edges.
    ext: Vec<u32>,
    /// Number of vertices with `ext > 0`.
    nbnd: usize,
    /// Cached connectivity rows; a row is stale once `u` or a neighbor
    /// moves.
    rows: ConnRows,
    /// Adjacency entries walked since the last [`BoundaryTracker::drain_scanned`] —
    /// the quantity refiners charge to `Work::edges`.
    scanned: u64,
}

impl BoundaryTracker {
    /// Build the tracker for `part` in one O(|E|) sweep.
    pub fn build(g: &CsrGraph, part: &[u32]) -> Self {
        let n = g.n();
        debug_assert_eq!(part.len(), n);
        let mut ext = vec![0u32; n];
        let mut nbnd = 0usize;
        for u in 0..n {
            let pu = part[u];
            let mut e = 0u32;
            for &v in g.neighbors(u as Vid) {
                if part[v as usize] != pu {
                    e += 1;
                }
            }
            ext[u] = e;
            if e > 0 {
                nbnd += 1;
            }
        }
        BoundaryTracker { ext, nbnd, rows: ConnRows::new(n), scanned: g.adjncy.len() as u64 }
    }

    /// Assemble a tracker from externally computed per-vertex foreign-edge
    /// counts (e.g. a parallel build): `ext[u]` must equal the number of
    /// adjacency entries of `u` lying in a partition other than `u`'s own.
    /// Charges no edge work to the scan counter — the caller accounts for
    /// the build sweep itself.
    pub fn from_ext(g: &CsrGraph, ext: Vec<u32>) -> Self {
        let n = g.n();
        debug_assert_eq!(ext.len(), n);
        let nbnd = ext.iter().filter(|&&e| e > 0).count();
        BoundaryTracker { ext, nbnd, rows: ConnRows::new(n), scanned: 0 }
    }

    /// O(1) boundary test.
    #[inline]
    pub fn is_boundary(&self, u: Vid) -> bool {
        self.ext[u as usize] > 0
    }

    /// External-neighbor count of `u`.
    #[inline]
    pub fn ext(&self, u: Vid) -> u32 {
        self.ext[u as usize]
    }

    /// Number of boundary vertices.
    #[inline]
    pub fn boundary_count(&self) -> usize {
        self.nbnd
    }

    /// Connectivity of `u`: `(parts, weights)` in adjacency
    /// first-encounter order, exactly as the old per-pass gather built
    /// it. Served from cache when `u` and its neighborhood have not
    /// moved since the last query; rebuilt in O(deg(u)) otherwise.
    pub fn connectivity(&mut self, g: &CsrGraph, part: &[u32], u: Vid) -> (&[u32], &[i64]) {
        let ui = u as usize;
        if !self.rows.is_valid(ui) {
            let deg = g.degree(u);
            self.rows.fill(ui, deg, g.edges(u).map(|(v, w)| (part[v as usize], w)));
            self.scanned += deg as u64;
        }
        self.rows.row(ui)
    }

    /// Move `u` to partition `to`, updating `part` and all tracker state
    /// in O(deg(u)): the external counters of `u` and its neighbors and
    /// the cache validity of the touched neighborhood.
    pub fn apply_move(&mut self, g: &CsrGraph, part: &mut [u32], u: Vid, to: u32) {
        let ui = u as usize;
        let from = part[ui];
        if from == to {
            return;
        }
        part[ui] = to;
        let mut ext_u = 0u32;
        for &v in g.neighbors(u) {
            let vi = v as usize;
            let pv = part[vi];
            if pv != to {
                ext_u += 1;
            }
            // u left `from` and joined `to`: neighbors in `from` gained an
            // external edge, neighbors in `to` lost one
            if pv == from {
                self.bump(vi, 1);
            } else if pv == to {
                self.bump(vi, -1);
            }
            self.rows.invalidate(vi);
        }
        self.set_ext(ui, ext_u);
        self.rows.invalidate(ui);
        self.scanned += g.degree(u) as u64;
    }

    /// Adjacency entries walked since the last call; resets the counter.
    /// Refiners add this to `Work::edges` once per pass.
    pub fn drain_scanned(&mut self) -> u64 {
        std::mem::take(&mut self.scanned)
    }

    #[inline]
    fn bump(&mut self, vi: usize, d: i32) {
        let old = self.ext[vi];
        let new = (old as i32 + d) as u32;
        self.ext[vi] = new;
        if old == 0 && new > 0 {
            self.nbnd += 1;
        } else if old > 0 && new == 0 {
            self.nbnd -= 1;
        }
    }

    #[inline]
    fn set_ext(&mut self, ui: usize, new: u32) {
        let old = self.ext[ui];
        self.ext[ui] = new;
        if old == 0 && new > 0 {
            self.nbnd += 1;
        } else if old > 0 && new == 0 {
            self.nbnd -= 1;
        }
    }
}

/// Per-vertex part-connectivity rows in one flat arena.
///
/// Row `u` lists the partitions adjacent to `u` in adjacency
/// first-encounter order, with the incident edge weight into each. The
/// first [`ConnRows::fill`] of `u` reserves `deg(u)` slots at the end of
/// the arena (a row never has more entries than the vertex has
/// neighbors); every later fill rebuilds the row in place. So the store
/// holds at most one `u32` and one `i64` per adjacency entry of a vertex
/// that was ever filled, plus two words per vertex, and the arena grows
/// by doubling: O(log n) allocations instead of two per queried vertex.
pub struct ConnRows {
    /// Arena offset of each row; [`ConnRows::UNRESERVED`] until the first
    /// fill.
    start: Vec<Vid>,
    /// Entries in each row, or [`ConnRows::STALE`] when the row does not
    /// reflect the current partition.
    len: Vec<u32>,
    /// Adjacent partitions, row after row.
    parts: Vec<u32>,
    /// Incident edge weight into each entry of `parts`.
    wgts: Vec<i64>,
}

impl ConnRows {
    const UNRESERVED: Vid = Vid::MAX;
    const STALE: u32 = u32::MAX;

    /// `n` stale rows with no arena space reserved.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// `n` stale rows, with arena capacity for `slots` row entries
    /// allocated up front: a caller that will fill every row passes the
    /// adjacency length and the arenas are allocated once, at exact size.
    pub fn with_capacity(n: usize, slots: usize) -> Self {
        ConnRows {
            start: vec![Self::UNRESERVED; n],
            len: vec![Self::STALE; n],
            parts: Vec::with_capacity(slots),
            wgts: Vec::with_capacity(slots),
        }
    }

    /// Whether row `u` was filled since its last invalidation.
    #[inline]
    pub fn is_valid(&self, u: usize) -> bool {
        self.len[u] != Self::STALE
    }

    /// Mark row `u` stale; its arena slots stay reserved.
    #[inline]
    pub fn invalidate(&mut self, u: usize) {
        self.len[u] = Self::STALE;
    }

    /// Rebuild row `u` from its adjacency, given as `(partition, edge
    /// weight)` pairs in adjacency order; `deg` is the vertex's degree
    /// (the same on every call), which bounds the row length.
    pub fn fill(&mut self, u: usize, deg: usize, edges: impl IntoIterator<Item = (u32, u32)>) {
        if self.start[u] == Self::UNRESERVED {
            let s = self.parts.len();
            self.start[u] = Vid::try_from(s).expect("arena offset fits the index type");
            self.parts.resize(s + deg, 0);
            self.wgts.resize(s + deg, 0);
        }
        let s = self.start[u] as usize;
        let parts = &mut self.parts[s..s + deg];
        let wgts = &mut self.wgts[s..s + deg];
        let mut len = 0usize;
        for (p, w) in edges {
            match parts[..len].iter().position(|&x| x == p) {
                Some(i) => wgts[i] += w as i64,
                None => {
                    parts[len] = p;
                    wgts[len] = w as i64;
                    len += 1;
                }
            }
        }
        self.len[u] = len as u32;
    }

    /// Row `u` as `(parts, weights)`; it must be valid.
    #[inline]
    pub fn row(&self, u: usize) -> (&[u32], &[i64]) {
        debug_assert!(self.is_valid(u), "row {u} read while stale");
        let s = self.start[u] as usize;
        let e = s + self.len[u] as usize;
        (&self.parts[s..e], &self.wgts[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{delaunay_like, grid2d, rmat};
    use crate::rng::SplitMix64;

    fn naive_ext(g: &CsrGraph, part: &[u32]) -> Vec<u32> {
        (0..g.n())
            .map(|u| {
                let pu = part[u];
                g.neighbors(u as Vid).iter().filter(|&&v| part[v as usize] != pu).count() as u32
            })
            .collect()
    }

    fn naive_gather(g: &CsrGraph, part: &[u32], u: Vid) -> (Vec<u32>, Vec<i64>) {
        let mut parts = Vec::new();
        let mut wgts: Vec<i64> = Vec::new();
        for (v, w) in g.edges(u) {
            let p = part[v as usize];
            match parts.iter().position(|&x| x == p) {
                Some(i) => wgts[i] += w as i64,
                None => {
                    parts.push(p);
                    wgts.push(w as i64);
                }
            }
        }
        (parts, wgts)
    }

    #[test]
    fn build_matches_naive_scan() {
        let g = delaunay_like(500, 3);
        let mut rng = SplitMix64::new(7);
        let part: Vec<u32> = (0..g.n()).map(|_| rng.below(4) as u32).collect();
        let bt = BoundaryTracker::build(&g, &part);
        let ext = naive_ext(&g, &part);
        for (u, &e) in ext.iter().enumerate() {
            assert_eq!(bt.ext(u as Vid), e, "vertex {u}");
        }
        assert_eq!(bt.boundary_count(), ext.iter().filter(|&&e| e > 0).count());
    }

    #[test]
    fn moves_keep_counters_exact() {
        // random walk of moves; after each, every counter must equal the
        // naive recomputation
        for (g, k) in [(grid2d(12, 12), 3u32), (rmat(8, 8, 5), 5u32)] {
            let mut rng = SplitMix64::new(11);
            let mut part: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
            let mut bt = BoundaryTracker::build(&g, &part);
            for _ in 0..200 {
                let u = rng.below(g.n() as u64) as Vid;
                let to = rng.below(k as u64) as u32;
                bt.apply_move(&g, &mut part, u, to);
                assert_eq!(bt.ext(u), naive_ext(&g, &part)[u as usize]);
            }
            let ext = naive_ext(&g, &part);
            for (u, &e) in ext.iter().enumerate() {
                assert_eq!(bt.ext(u as Vid), e, "vertex {u} after walk");
            }
            assert_eq!(bt.boundary_count(), ext.iter().filter(|&&e| e > 0).count());
        }
    }

    #[test]
    fn connectivity_matches_gather_order() {
        // the cached table must reproduce the first-encounter order the
        // old NeighborParts::gather produced — tie-breaking depends on it
        let g = delaunay_like(400, 9);
        let mut rng = SplitMix64::new(2);
        let mut part: Vec<u32> = (0..g.n()).map(|_| rng.below(6) as u32).collect();
        let mut bt = BoundaryTracker::build(&g, &part);
        for round in 0..50 {
            for u in [0 as Vid, 17, 200, 399] {
                let want = naive_gather(&g, &part, u);
                let (parts, wgts) = bt.connectivity(&g, &part, u);
                assert_eq!((parts.to_vec(), wgts.to_vec()), want, "round {round} u {u}");
            }
            let u = rng.below(g.n() as u64) as Vid;
            let to = rng.below(6) as u32;
            bt.apply_move(&g, &mut part, u, to);
        }
    }

    #[test]
    fn cache_hits_do_not_scan_edges() {
        let g = grid2d(10, 10);
        let part: Vec<u32> = (0..100).map(|i| ((i % 10) / 5) as u32).collect();
        let mut bt = BoundaryTracker::build(&g, &part);
        bt.drain_scanned();
        bt.connectivity(&g, &part, 4); // miss: one adjacency walk
        let first = bt.drain_scanned();
        assert_eq!(first, g.degree(4) as u64);
        bt.connectivity(&g, &part, 4); // hit: free
        assert_eq!(bt.drain_scanned(), 0);
    }

    #[test]
    fn move_invalidates_neighborhood_only() {
        let g = grid2d(8, 8);
        let mut part: Vec<u32> = (0..64).map(|i| ((i % 8) / 4) as u32).collect();
        let mut bt = BoundaryTracker::build(&g, &part);
        // warm two caches: one adjacent to the move, one far away
        bt.connectivity(&g, &part, 2);
        bt.connectivity(&g, &part, 60);
        bt.drain_scanned();
        bt.apply_move(&g, &mut part, 3, 1); // neighbor of 2, far from 60
        bt.drain_scanned();
        bt.connectivity(&g, &part, 60); // still cached
        assert_eq!(bt.drain_scanned(), 0);
        bt.connectivity(&g, &part, 2); // invalidated, rescans
        assert_eq!(bt.drain_scanned(), g.degree(2) as u64);
    }

    #[test]
    fn noop_move_changes_nothing() {
        let g = grid2d(6, 6);
        let mut part: Vec<u32> = (0..36).map(|i| (i % 2) as u32).collect();
        let mut bt = BoundaryTracker::build(&g, &part);
        let before: Vec<u32> = (0..36).map(|u| bt.ext(u as Vid)).collect();
        let p5 = part[5];
        bt.apply_move(&g, &mut part, 5, p5);
        let after: Vec<u32> = (0..36).map(|u| bt.ext(u as Vid)).collect();
        assert_eq!(before, after);
    }
}
