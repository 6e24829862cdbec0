//! Compressed Sparse Row graph representation.
//!
//! This is the memory layout the paper mandates for the GPU (§III): an
//! adjacency-pointer array of length `n + 1`, an adjacency array of length
//! `2|E|`, and parallel edge- and vertex-weight arrays. All partitioners in
//! the workspace consume this exact structure so that the CPU and GPU code
//! paths operate on identical data.

use std::fmt;
use std::sync::OnceLock;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// The index type a CSR graph is built over: vertex ids *and* adjacency
/// offsets (`xadj` entries, so `2m` must fit too). Sealed to `u32`/`u64` —
/// the two widths the loaders, workspaces and partitioners are tested
/// against; a third implementation would silently miss those suites.
///
/// The compiled-in width is selected by the `idx64` cargo feature through
/// the [`Vid`] alias rather than by generics: every array and kernel in
/// the workspace then agrees on one width, the default `u32` build keeps
/// its memory traffic (and byte-identity suites) unchanged, and the `u64`
/// build lifts the ~2 G half-edge ceiling for the full DIMACS-scale
/// inputs.
pub trait GraphIndex:
    sealed::Sealed
    + Copy
    + Ord
    + Eq
    + std::hash::Hash
    + Default
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
{
    /// Largest representable index (used as the "none" sentinel).
    const MAX: Self;
    /// Size of one index in bytes (resident-size accounting).
    const BYTES: usize;
    /// Widen to `usize` for array indexing.
    fn index(self) -> usize;
    /// Narrow from `usize`; debug-asserts the value fits.
    fn from_usize(x: usize) -> Self;
}

impl GraphIndex for u32 {
    const MAX: Self = u32::MAX;
    const BYTES: usize = 4;
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
    #[inline(always)]
    fn from_usize(x: usize) -> Self {
        debug_assert!(x <= u32::MAX as usize);
        x as u32
    }
}

impl GraphIndex for u64 {
    const MAX: Self = u64::MAX;
    const BYTES: usize = 8;
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
    #[inline(always)]
    fn from_usize(x: usize) -> Self {
        x as u64
    }
}

/// Vertex identifier and adjacency offset. The default 32-bit width
/// suffices for every workload in the paper's evaluation (the largest
/// input has ~24 M vertices) and halves memory traffic versus `usize`,
/// which matters for the coalescing model; the `idx64` feature widens it
/// to 64 bits for graphs beyond ~2 G half-edges. See [`GraphIndex`].
#[cfg(not(feature = "idx64"))]
pub type Vid = u32;
/// Vertex identifier and adjacency offset (64-bit build — see [`GraphIndex`]).
#[cfg(feature = "idx64")]
pub type Vid = u64;

/// Atomic cell holding a [`Vid`] — staging arrays written concurrently by
/// the parallel contraction and matching phases.
#[cfg(not(feature = "idx64"))]
pub type AtomicVid = std::sync::atomic::AtomicU32;
/// Atomic cell holding a [`Vid`] (64-bit build).
#[cfg(feature = "idx64")]
pub type AtomicVid = std::sync::atomic::AtomicU64;

/// An undirected graph in CSR form with integer vertex and edge weights.
///
/// Invariants (checked by [`CsrGraph::validate`]):
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` is non-decreasing,
///   `xadj[n] == adjncy.len()`;
/// * `adjncy.len() == adjwgt.len()`, every entry `< n`;
/// * no self-loops;
/// * symmetry: edge `(u, v, w)` appears iff `(v, u, w)` appears.
pub struct CsrGraph {
    /// Adjacency pointers (`adjp` in the paper), length `n + 1`.
    pub xadj: Vec<Vid>,
    /// Concatenated adjacency lists, length `2|E|`.
    pub adjncy: Vec<Vid>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u32>,
    /// Vertex weights, length `n`.
    pub vwgt: Vec<u32>,
    /// Memoized [`CsrGraph::uniform_edge_weights`] answer. The matcher
    /// asks once per coarsening level and the scan is O(m), so the answer
    /// is computed on first query and kept. Mutating `adjwgt` in place
    /// after that first query would make it stale — construct a new graph
    /// (or clone, which drops the cache) instead.
    uniform_ew: OnceLock<bool>,
}

impl Clone for CsrGraph {
    fn clone(&self) -> Self {
        // deliberately not cloning the cache: the typical reason to clone
        // is to mutate, and a stale flag is worse than an O(m) rescan
        CsrGraph::from_parts(
            self.xadj.clone(),
            self.adjncy.clone(),
            self.adjwgt.clone(),
            self.vwgt.clone(),
        )
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.xadj == other.xadj
            && self.adjncy == other.adjncy
            && self.adjwgt == other.adjwgt
            && self.vwgt == other.vwgt
    }
}

impl Eq for CsrGraph {}

/// Error produced by [`CsrGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    BadPointerArray(String),
    BadVertex { index: usize, value: Vid },
    SelfLoop { vertex: Vid },
    Asymmetric { u: Vid, v: Vid },
    WeightMismatch { u: Vid, v: Vid },
    LengthMismatch(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadPointerArray(s) => write!(f, "bad xadj array: {s}"),
            GraphError::BadVertex { index, value } => {
                write!(f, "adjncy[{index}] = {value} out of range")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
            GraphError::Asymmetric { u, v } => {
                write!(f, "edge ({u}, {v}) present but ({v}, {u}) missing")
            }
            GraphError::WeightMismatch { u, v } => {
                write!(f, "edge ({u}, {v}) weight differs from ({v}, {u})")
            }
            GraphError::LengthMismatch(s) => write!(f, "array length mismatch: {s}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl CsrGraph {
    /// An empty graph (zero vertices, zero edges).
    pub fn empty() -> Self {
        CsrGraph::from_parts(vec![0], Vec::new(), Vec::new(), Vec::new())
    }

    /// Assemble a graph from the four CSR arrays (no validation — call
    /// [`CsrGraph::validate`] when the arrays come from untrusted code).
    pub fn from_parts(xadj: Vec<Vid>, adjncy: Vec<Vid>, adjwgt: Vec<u32>, vwgt: Vec<u32>) -> Self {
        CsrGraph { xadj, adjncy, adjwgt, vwgt, uniform_ew: OnceLock::new() }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: Vid) -> usize {
        (self.xadj[u as usize + 1] - self.xadj[u as usize]) as usize
    }

    /// Adjacency list of `u`.
    #[inline]
    pub fn neighbors(&self, u: Vid) -> &[Vid] {
        &self.adjncy[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// Edge weights parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, u: Vid) -> &[u32] {
        &self.adjwgt[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// Iterate `(neighbor, edge_weight)` pairs of `u`.
    #[inline]
    pub fn edges(&self, u: Vid) -> impl Iterator<Item = (Vid, u32)> + '_ {
        self.neighbors(u).iter().copied().zip(self.neighbor_weights(u).iter().copied())
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().map(|&w| w as u64).sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_adjwgt(&self) -> u64 {
        let twice: u64 = self.adjwgt.iter().map(|&w| w as u64).sum();
        twice / 2
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.adjncy.len() as f64 / self.n() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as Vid).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Approximate resident size in bytes of the four CSR arrays — used by
    /// the GPU simulator to enforce the device-memory capacity the paper
    /// identifies as a core constraint.
    pub fn bytes(&self) -> u64 {
        (self.xadj.len() * Vid::BYTES
            + self.adjncy.len() * Vid::BYTES
            + self.adjwgt.len() * 4
            + self.vwgt.len() * 4) as u64
    }

    /// Full structural validation of the CSR invariants. `O(m log d)`.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.n();
        if self.xadj.len() != n + 1 {
            return Err(GraphError::LengthMismatch(format!(
                "xadj.len() = {}, expected n + 1 = {}",
                self.xadj.len(),
                n + 1
            )));
        }
        if self.adjncy.len() != self.adjwgt.len() {
            return Err(GraphError::LengthMismatch(format!(
                "adjncy.len() = {} != adjwgt.len() = {}",
                self.adjncy.len(),
                self.adjwgt.len()
            )));
        }
        if self.xadj[0] != 0 {
            return Err(GraphError::BadPointerArray("xadj[0] != 0".into()));
        }
        if self.xadj[n] as usize != self.adjncy.len() {
            return Err(GraphError::BadPointerArray("xadj[n] != adjncy.len()".into()));
        }
        for i in 0..n {
            if self.xadj[i] > self.xadj[i + 1] {
                return Err(GraphError::BadPointerArray(format!("xadj decreasing at {i}")));
            }
        }
        for (i, &v) in self.adjncy.iter().enumerate() {
            if v as usize >= n {
                return Err(GraphError::BadVertex { index: i, value: v });
            }
        }
        for u in 0..n as Vid {
            for &v in self.neighbors(u) {
                if v == u {
                    return Err(GraphError::SelfLoop { vertex: u });
                }
            }
        }
        // Symmetry: for every (u, v, w) there must be a matching (v, u, w).
        // Sort each adjacency list's (neighbor, weight) pairs once, in one
        // flat copy whose rows `xadj` indexes, then binary-search the
        // reverse edge.
        let mut sorted: Vec<(Vid, u32)> =
            self.adjncy.iter().copied().zip(self.adjwgt.iter().copied()).collect();
        let row = |u: usize| self.xadj[u] as usize..self.xadj[u + 1] as usize;
        for u in 0..n {
            sorted[row(u)].sort_unstable();
        }
        for u in 0..n as Vid {
            for &(v, w) in &sorted[row(u as usize)] {
                let rev = &sorted[row(v as usize)];
                match rev.binary_search_by_key(&u, |&(x, _)| x) {
                    Err(_) => return Err(GraphError::Asymmetric { u, v }),
                    Ok(i) => {
                        if rev[i].1 != w {
                            return Err(GraphError::WeightMismatch { u, v });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Sum of edge weights incident to `u` (the `adjwgtsum` of Metis).
    pub fn adjwgt_sum(&self, u: Vid) -> u64 {
        self.neighbor_weights(u).iter().map(|&w| w as u64).sum()
    }

    /// True if all edge weights are equal. O(m) on the first call, then
    /// cached — see the `uniform_ew` field note about in-place mutation.
    pub fn uniform_edge_weights(&self) -> bool {
        *self.uniform_ew.get_or_init(|| self.adjwgt.windows(2).all(|p| p[0] == p[1]))
    }

    /// The cached [`CsrGraph::uniform_edge_weights`] answer, if the scan
    /// already ran (or the cache was primed). Never forces the O(m) scan.
    pub fn uniform_edge_weights_cached(&self) -> Option<bool> {
        self.uniform_ew.get().copied()
    }

    /// Seed the uniform-edge-weight cache with an answer known by
    /// construction — e.g. a contraction that copied every edge weight
    /// from a uniform fine graph without merging parallel edges. The
    /// caller must guarantee `value` equals what the O(m) scan would
    /// compute; a wrong value would silently steer the matcher. No-op if
    /// the cache is already populated.
    pub fn prime_uniform_edge_weights(&self, value: bool) {
        let _ = self.uniform_ew.set(value);
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph {{ n: {}, m: {}, avg_deg: {:.2}, total_vwgt: {} }}",
            self.n(),
            self.m(),
            self.avg_degree(),
            self.total_vwgt()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.total_vwgt(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_vwgt(), 3);
        assert_eq!(g.total_adjwgt(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_and_weights() {
        let g = triangle();
        let mut nb: Vec<Vid> = g.neighbors(1).to_vec();
        nb.sort_unstable();
        assert_eq!(nb, vec![0, 2]);
        assert_eq!(g.neighbor_weights(1), &[1, 1]);
        assert_eq!(g.adjwgt_sum(1), 2);
    }

    #[test]
    fn validate_catches_asymmetry() {
        let mut g = triangle();
        g.adjncy[0] = 2; // vertex 0 now lists 2 twice and 1 zero times
        assert!(matches!(g.validate(), Err(GraphError::Asymmetric { .. })));
    }

    #[test]
    fn validate_catches_self_loop() {
        let mut g = triangle();
        g.adjncy[0] = 0;
        assert!(matches!(g.validate(), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn validate_catches_bad_pointer() {
        let mut g = triangle();
        g.xadj[1] = 5;
        assert!(matches!(g.validate(), Err(GraphError::BadPointerArray(_))));
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut g = triangle();
        g.adjncy[0] = 99;
        assert!(matches!(g.validate(), Err(GraphError::BadVertex { .. })));
    }

    #[test]
    fn validate_catches_weight_mismatch() {
        let mut g = triangle();
        g.adjwgt[0] = 7;
        assert!(matches!(g.validate(), Err(GraphError::WeightMismatch { .. })));
    }

    #[test]
    fn uniform_weights_detected() {
        let g = triangle();
        assert!(g.uniform_edge_weights());
        let mut g2 = g.clone();
        if let Some(w) = g2.adjwgt.first_mut() {
            *w = 3;
        }
        assert!(!g2.uniform_edge_weights());
    }

    #[test]
    fn uniform_cache_not_inherited_by_clone_or_parts() {
        let g = triangle();
        assert!(g.uniform_edge_weights()); // populates the cache
                                           // a clone must re-answer from its own (possibly mutated) weights
        let mut c = g.clone();
        c.adjwgt[0] = 3;
        c.adjwgt[2] = 3; // keep the reverse edge consistent
        assert!(!c.uniform_edge_weights());
        assert!(g.uniform_edge_weights());
        // a graph assembled from the arrays of a cached one starts cold
        let p = CsrGraph::from_parts(
            g.xadj.clone(),
            g.adjncy.clone(),
            vec![1, 2, 3, 4, 5, 6],
            g.vwgt.clone(),
        );
        assert!(!p.uniform_edge_weights());
        assert_eq!(g, g.clone(), "equality ignores the cache");
    }

    #[test]
    fn bytes_counts_all_arrays() {
        let g = triangle();
        // index arrays follow the build's Vid width; weights stay 4 bytes
        assert_eq!(g.bytes(), ((4 + 6) * Vid::BYTES + (6 + 3) * 4) as u64);
    }
}
