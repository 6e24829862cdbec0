//! Allocation regression for the boundary tracker's connectivity rows
//! (the cache under `kway_refine` and `kway_balance`): rows live in one
//! flat arena that grows by doubling, so the first query of every vertex
//! costs O(log n) allocator calls, not one or two per vertex, and later
//! queries — cache hits and in-place rebuilds after moves — cost none.
//!
//! This test installs a counting global allocator, so it lives alone in
//! its own integration-test binary; it counts only the test thread's
//! allocations.

use gpm_graph::boundary::BoundaryTracker;
use gpm_graph::csr::Vid;
use gpm_graph::gen::delaunay_like;
use gpm_graph::rng::SplitMix64;
use gpm_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn connectivity_queries_allocate_logarithmically() {
    for n in [2_000, 16_000] {
        let g = delaunay_like(n, 5);
        let mut rng = SplitMix64::new(9);
        let mut part: Vec<u32> = (0..g.n()).map(|_| rng.below(8) as u32).collect();
        let mut bt = BoundaryTracker::build(&g, &part);

        let start = ALLOC.thread_allocations();
        for u in 0..g.n() as Vid {
            bt.connectivity(&g, &part, u);
        }
        let first = ALLOC.thread_allocations() - start;
        // two arenas (parts, weights), each growing by doubling up to at
        // most one slot per adjacency entry
        let doublings = usize::BITS - g.adjncy.len().leading_zeros();
        let bound = 2 * (doublings as u64 + 1);
        assert!(first <= bound, "n={n}: {first} allocations for the first queries (bound {bound})");

        let start = ALLOC.thread_allocations();
        for u in 0..g.n() as Vid {
            bt.connectivity(&g, &part, u);
        }
        for _ in 0..200 {
            let u = rng.below(g.n() as u64) as Vid;
            bt.apply_move(&g, &mut part, u, rng.below(8) as u32);
            bt.connectivity(&g, &part, u);
            for &v in g.neighbors(u) {
                bt.connectivity(&g, &part, v);
            }
        }
        let later = ALLOC.thread_allocations() - start;
        assert_eq!(later, 0, "n={n}: cache hits and in-place rebuilds allocated");
    }
}
