//! Construction of [`CsrGraph`]s from edge lists.
//!
//! The builder normalizes arbitrary edge input into the strict CSR
//! invariants the partitioners rely on: undirected symmetry, no self-loops,
//! parallel edges merged by summing their weights, adjacency lists sorted
//! by neighbor id.

use crate::csr::{CsrGraph, Vid};

/// Accumulates weighted edges and produces a normalized [`CsrGraph`].
pub struct GraphBuilder {
    n: usize,
    /// Directed half-edges; both directions are materialized in `build`.
    edges: Vec<(Vid, Vid, u32)>,
    vwgt: Option<Vec<u32>>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices and unit vertex weights.
    pub fn new(n: usize) -> Self {
        assert!(n <= Vid::MAX as usize, "vertex count exceeds Vid range");
        GraphBuilder { n, edges: Vec::new(), vwgt: None }
    }

    /// Convenience: builder pre-populated with unit-weight edges.
    pub fn from_edges(n: usize, edges: &[(Vid, Vid)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v, 1);
        }
        b
    }

    /// Convenience: builder pre-populated with weighted edges.
    pub fn from_weighted_edges(n: usize, edges: &[(Vid, Vid, u32)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b
    }

    /// Add an undirected edge. Self-loops are silently dropped; parallel
    /// edges are merged (weights summed) at build time.
    pub fn add_edge(&mut self, u: Vid, v: Vid, w: u32) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        if u != v {
            self.edges.push((u, v, w));
        }
    }

    /// Set explicit vertex weights (length must be `n`).
    pub fn vertex_weights(mut self, vwgt: Vec<u32>) -> Self {
        assert_eq!(vwgt.len(), self.n);
        self.vwgt = Some(vwgt);
        self
    }

    /// Produce the normalized CSR graph.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        // Materialize both directions, then counting-sort by source into
        // CSR, then sort + dedup each adjacency list.
        let mut deg = vec![0 as Vid; n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0 as Vid; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        let total = xadj[n] as usize;
        let mut adjncy = vec![0 as Vid; total];
        let mut adjwgt = vec![0u32; total];
        let mut cursor = xadj[..n].to_vec();
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }
        // Per-vertex sort + merge of parallel edges.
        let mut new_xadj = vec![0 as Vid; n + 1];
        let mut out_adj: Vec<Vid> = Vec::with_capacity(total);
        let mut out_wgt: Vec<u32> = Vec::with_capacity(total);
        let mut scratch: Vec<(Vid, u32)> = Vec::new();
        for u in 0..n {
            scratch.clear();
            let (s, e) = (xadj[u] as usize, xadj[u + 1] as usize);
            scratch.extend(adjncy[s..e].iter().copied().zip(adjwgt[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(v, _)| v);
            let mut i = 0;
            while i < scratch.len() {
                let (v, mut w) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == v {
                    w = w.saturating_add(scratch[j].1);
                    j += 1;
                }
                out_adj.push(v);
                out_wgt.push(w);
                i = j;
            }
            new_xadj[u + 1] = out_adj.len() as Vid;
        }
        let vwgt = self.vwgt.unwrap_or_else(|| vec![1; n]);
        let g = CsrGraph::from_parts(new_xadj, out_adj, out_wgt, vwgt);
        debug_assert!(g.validate().is_ok());
        g
    }
}

/// Build a CSR graph directly from Metis-style raw arrays, validating them.
pub fn from_raw(
    xadj: Vec<Vid>,
    adjncy: Vec<Vid>,
    adjwgt: Vec<u32>,
    vwgt: Vec<u32>,
) -> Result<CsrGraph, crate::csr::GraphError> {
    let g = CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt);
    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let g = GraphBuilder::from_edges(4, &[(3, 0), (0, 1), (2, 0)]).build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.m(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn drops_self_loops() {
        let g = GraphBuilder::from_edges(2, &[(0, 0), (0, 1), (1, 1)]).build();
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn merges_parallel_edges() {
        let g = GraphBuilder::from_weighted_edges(2, &[(0, 1, 2), (1, 0, 3), (0, 1, 1)]).build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbor_weights(0), &[6]);
        assert_eq!(g.neighbor_weights(1), &[6]);
        g.validate().unwrap();
    }

    #[test]
    fn explicit_vertex_weights() {
        let g =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]).vertex_weights(vec![5, 6, 7]).build();
        assert_eq!(g.total_vwgt(), 18);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::from_edges(5, &[(0, 1)]).build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        g.validate().unwrap();
    }

    #[test]
    fn from_raw_validates() {
        assert!(from_raw(vec![0, 1], vec![0], vec![1], vec![1]).is_err()); // self loop
        let ok = from_raw(vec![0, 1, 2], vec![1, 0], vec![1, 1], vec![1, 1]);
        assert!(ok.is_ok());
    }
}
