//! Benchmarks of the incremental boundary/connectivity layer: tracker
//! build cost, first-query cost of the connectivity rows, per-move update
//! cost, refinement pass cost as a function of the boundary fraction, and
//! an end-to-end guard. Writes `BENCH_refine.json`.
//!
//! The headline comparison is `pass/kway/*`: on the sliver instance the
//! boundary is <5% of the edges, so a pass costs O(n) visit checks plus
//! boundary-proportional connectivity work, while the random instance
//! puts nearly every vertex on the boundary and degenerates to the old
//! full-sweep cost. Before this layer both rows cost the same.

use gpm_graph::boundary::BoundaryTracker;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_graph::rng::SplitMix64;
use gpm_metis::cost::Work;
use gpm_metis::kway::kway_refine;
use gpm_metis::{partition, MetisConfig};
use gpm_mtmetis::prefine::parallel_refine;
use gpm_testkit::bench::{black_box, scaled, BenchSuite};

/// Vertical-halves grid with a perturbed seam: boundary <5% of |E|.
fn sliver_instance(side: usize) -> (CsrGraph, Vec<u32>) {
    let g = grid2d(side, side);
    let mut part: Vec<u32> = (0..side * side).map(|i| u32::from(i % side >= side / 2)).collect();
    let mut rng = SplitMix64::new(5);
    for _ in 0..40 {
        let y = rng.below(side as u64) as usize;
        let x = side / 2 - 1 + rng.below(2) as usize;
        part[y * side + x] ^= 1;
    }
    (g, part)
}

fn random_kpart(n: usize, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.below(k as u64) as u32).collect()
}

fn bench_build(b: &mut BenchSuite) {
    for (label, g) in [("delaunay", delaunay_like(scaled(20_000), 6)), ("rmat", rmat(10, 8, 3))] {
        let part = random_kpart(g.n(), 8, 11);
        b.run(&format!("build/{label}"), || BoundaryTracker::build(&g, &part));
    }
}

fn bench_connectivity(b: &mut BenchSuite) {
    // the first connectivity query of every vertex on a fresh tracker:
    // with a random 8-way partition nearly every vertex is on the
    // boundary, so this fills one row per vertex (the tracker build is
    // untimed; `build/delaunay` measures it)
    let g = delaunay_like(scaled(20_000), 6);
    let part = random_kpart(g.n(), 8, 11);
    b.run_with_setup(
        "connectivity/all",
        || BoundaryTracker::build(&g, &part),
        |bt| {
            let mut parts = 0usize;
            for u in 0..g.n() as Vid {
                parts += bt.connectivity(&g, &part, u).0.len();
            }
            parts
        },
    );
}

fn bench_update(b: &mut BenchSuite) {
    // per-move update cost: bounce one seam vertex between the two sides;
    // each move is O(deg) counter bumps plus cache invalidation
    let (g, part0) = sliver_instance(64);
    let u: Vid = (32 * 64 + 31) as Vid; // a seam vertex
    let mut part = part0.clone();
    let mut bt = BoundaryTracker::build(&g, &part);
    b.run("update/apply_move", || {
        let to = 1 - part[u as usize];
        bt.apply_move(&g, &mut part, u, to);
        bt.drain_scanned()
    });
}

fn bench_pass_vs_boundary(b: &mut BenchSuite) {
    // same graph, one pass, two boundary regimes
    let (g, sliver) = sliver_instance(64);
    let random = random_kpart(g.n(), 2, 7);
    for (label, init) in [("sliver", &sliver), ("random", &random)] {
        b.run(&format!("pass/kway/{label}"), || {
            let mut part = init.clone();
            let mut rng = SplitMix64::new(3);
            let mut work = Work::default();
            kway_refine(&g, &mut part, 2, 1.05, 1, &mut rng, &mut work);
            black_box(work.edges)
        });
        b.run(&format!("pass/prefine/{label}"), || {
            let mut part = init.clone();
            parallel_refine(&g, &mut part, 2, 1.05, 1, 4)
        });
    }
}

fn bench_end_to_end(b: &mut BenchSuite) {
    // guard: full serial multilevel partition; a regression here means
    // the tracker's build/update overhead outweighs the sweep savings
    let g = delaunay_like(scaled(30_000), 2);
    let cfg = MetisConfig::new(8).with_seed(3);
    b.run("metis_e2e/delaunay", || black_box(partition(&g, &cfg)).edge_cut);
}

fn main() {
    let mut b = BenchSuite::new("refine");
    bench_build(&mut b);
    bench_connectivity(&mut b);
    bench_update(&mut b);
    bench_pass_vs_boundary(&mut b);
    bench_end_to_end(&mut b);
    b.finish();
}
