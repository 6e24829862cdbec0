//! Allocation regression for the recycled coarsening workspace: once the
//! first (largest) level has sized the [`CoarsenWorkspace`] high-water,
//! further V-cycles on graphs of the same scale must stay off the
//! allocator except for the exactly-sized outputs each level retains —
//! amortized O(1) allocations per buffer per V-cycle.
//!
//! This test installs a counting global allocator, so it lives alone in
//! its own integration-test binary. It counts only the test thread's
//! allocations, so its tests can run in parallel, and it drives only the
//! *serial* contraction path, which allocates on that thread alone.

use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::delaunay_like;
use gpm_graph::rng::SplitMix64;
use gpm_metis::contract::contract_ws;
use gpm_metis::cost::Work;
use gpm_metis::matching::{find_matching, MatchScheme};
use gpm_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One full coarsening descent (match + contract per level) against a
/// caller-owned workspace. Returns the number of levels run.
fn vcycle(g: &CsrGraph, ws: &mut CoarsenWorkspace, seed: u64) -> usize {
    let mut cur = g.clone();
    let mut rng = SplitMix64::new(seed);
    let mut levels = 0;
    while cur.n() > 100 && levels < 32 {
        let mut work = Work::default();
        let mat = find_matching(&cur, MatchScheme::Hem, u32::MAX, &mut rng, &mut work);
        let (coarse, _cmap) = contract_ws(&cur, &mat, &mut work, ws);
        if coarse.n() as f64 / cur.n() as f64 > 0.95 {
            break;
        }
        cur = coarse;
        levels += 1;
    }
    levels
}

#[test]
fn warm_workspace_is_allocation_stable() {
    let g = delaunay_like(4_000, 11);
    let mut ws = CoarsenWorkspace::new();

    // Cold V-cycle: sizes the workspace high-water. Its allocation count
    // includes the workspace's own growth.
    let cold_start = ALLOC.thread_allocations();
    let levels = vcycle(&g, &mut ws, 1);
    let cold = ALLOC.thread_allocations() - cold_start;
    assert!(levels >= 3, "graph too easy: only {levels} levels");
    let grown = ws.grow_events();
    // Amortized O(1) allocations per workspace buffer per V-cycle: the
    // dense table grows at most once per level it was too small for, and
    // stays far below one-refill-per-level (the old `vec![u32::MAX; nc]`
    // pattern would count `levels` growth events here by construction).
    assert!(grown <= 2 * levels as u64, "workspace grew {grown} times over {levels} levels");

    // Warm V-cycles: the workspace is already high-water, so the only
    // allocator traffic left is the per-level outputs (matching, cmap,
    // coarse CSR) — identical work on every run, hence identical counts.
    let warm1_start = ALLOC.thread_allocations();
    vcycle(&g, &mut ws, 1);
    let warm1 = ALLOC.thread_allocations() - warm1_start;
    assert_eq!(ws.grow_events(), grown, "warm V-cycle grew the workspace");

    let warm2_start = ALLOC.thread_allocations();
    vcycle(&g, &mut ws, 1);
    let warm2 = ALLOC.thread_allocations() - warm2_start;

    assert_eq!(warm1, warm2, "warm V-cycles must have identical allocation counts");
    assert!(warm1 < cold, "warm V-cycle ({warm1}) not cheaper than cold ({cold})");
}

#[test]
fn per_level_scratch_allocations_are_constant() {
    // Measure each level's allocations on a warm workspace: the scratch
    // contributes zero, so the per-level count must track the *output*
    // sizes (monotonically shrinking graphs => non-increasing is too
    // strict because Vec sizing is exact, but equality across repeated
    // runs of the same level is guaranteed).
    let g = delaunay_like(2_500, 7);
    let mut ws = CoarsenWorkspace::new();
    vcycle(&g, &mut ws, 3); // warm up
    let grown = ws.grow_events();

    let mut rng = SplitMix64::new(3);
    let mut work = Work::default();
    let mat = find_matching(&g, MatchScheme::Hem, u32::MAX, &mut rng, &mut work);

    // Contract the same level twice against the warm workspace; both runs
    // allocate exactly the same (outputs only).
    let s1 = ALLOC.thread_allocations();
    let (c1, m1) = contract_ws(&g, &mat, &mut work, &mut ws);
    let a1 = ALLOC.thread_allocations() - s1;

    let s2 = ALLOC.thread_allocations();
    let (c2, m2) = contract_ws(&g, &mat, &mut work, &mut ws);
    let a2 = ALLOC.thread_allocations() - s2;

    assert_eq!(c1, c2);
    assert_eq!(m1, m2);
    assert_eq!(a1, a2, "same level, warm workspace: allocation counts must match");
    assert_eq!(ws.grow_events(), grown, "workspace grew during a warm contraction");

    // The same level against a *cold* workspace pays extra allocator
    // calls for the dense table — the warm path's advantage is exactly
    // the scratch, everything else (outputs, debug validation) is equal.
    let mut cold_ws = CoarsenWorkspace::new();
    let s3 = ALLOC.thread_allocations();
    let (c3, m3) = contract_ws(&g, &mat, &mut work, &mut cold_ws);
    let a3 = ALLOC.thread_allocations() - s3;
    assert_eq!(c1, c3);
    assert_eq!(m1, m3);
    assert!(a3 > a1, "cold workspace ({a3}) should out-allocate warm ({a1})");
    // one EpochSlots growth = two allocator calls (slot + stamp arrays)
    assert_eq!(
        a3 - a1,
        2 * cold_ws.grow_events(),
        "cold-vs-warm allocation gap must be exactly the workspace growth"
    );
}
