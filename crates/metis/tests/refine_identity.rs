//! Golden digests of the boundary-tracked serial refiners `kway_refine`,
//! `kway_balance` and `fm_refine` (see `gpm_testkit::pin`). For every
//! graph, seed and k of a fixed case matrix, the partitions, stats and
//! every `Work` charge fold into one committed FNV-1a digest per test.
//! The digests were recorded while the full-sweep implementations the
//! tracker replaced still ran beside them and agreed label for label.
//! Golden tests on the `Work` counters then pin the point of the
//! tracker: the per-pass edge charge drops from O(|E|) to O(boundary).

use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_graph::rng::SplitMix64;
use gpm_metis::cost::Work;
use gpm_metis::fm::{fm_refine, BisectTargets};
use gpm_metis::kway::{kway_balance, kway_refine, RefineStats};
use gpm_testkit::{assert_pin, pinned, tk_assert, Fnv1a, Source};

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(4) {
        0 => delaunay_like(src.usize_in(50, 600), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 9) as u32, 8, src.below(1 << 30)),
        2 => grid2d(src.usize_in(4, 24), src.usize_in(4, 24)),
        _ => {
            let n = src.usize_in(8, 120);
            let mut b = GraphBuilder::new(n);
            for _ in 0..src.usize_in(n, 4 * n) {
                let u = src.usize_in(0, n) as Vid;
                let v = src.usize_in(0, n) as Vid;
                if u != v {
                    b.add_edge(u.min(v), u.max(v), src.u32_in(1, 20));
                }
            }
            let vwgt = (0..n).map(|_| src.u32_in(1, 8)).collect();
            b.vertex_weights(vwgt).build()
        }
    }
}

fn random_kpart(n: usize, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.below(k as u64) as u32).collect()
}

fn fold_work(h: &mut Fnv1a, w: Work) {
    let Work { edges, vertices, ws_bytes } = w;
    h.u64(edges).u64(vertices).u64(ws_bytes);
}

fn fold_kway(h: &mut Fnv1a, part: &[u32], s: RefineStats, w: Work) {
    let RefineStats { moves, passes, gain } = s;
    h.words(part).u64(moves).u64(passes.into()).u64(gain as u64);
    fold_work(h, w);
}

#[test]
fn kway_refine_is_pinned() {
    pinned("kway_refine_is_pinned", 48, 0x91748b81147ff459, |src, h| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        let seed = src.below(1 << 32);
        let passes = src.usize_in(1, 9);
        let mut part = random_kpart(g.n(), k, seed);
        let mut w = Work::default();
        let mut rng = SplitMix64::new(seed ^ 0xabc);
        let s = kway_refine(&g, &mut part, k, 1.05, passes, &mut rng, &mut w);
        fold_kway(h, &part, s, w);
        // RNG consumption is part of the contract: the stream position
        // after refinement is pinned too
        h.u64(rng.next_u64());
        // edge work is bounded by one build plus at most one rebuild and
        // one move-update sweep per pass (the asymptotic win is pinned by
        // the golden test below)
        tk_assert!(
            w.edges <= (2 * s.passes as u64 + 1) * g.adjncy.len() as u64,
            "tracked {} vs bound, passes {}",
            w.edges,
            s.passes
        );
        Ok(())
    });
}

#[test]
fn kway_balance_is_pinned() {
    pinned("kway_balance_is_pinned", 48, 0xc2b8dd54ddbb5236, |src, h| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        // skewed initial assignment so balancing has real work
        let mut part: Vec<u32> =
            (0..g.n()).map(|u| if src.chance(0.7) { 0 } else { (u % k) as u32 }).collect();
        let mut w = Work::default();
        let moves = kway_balance(&g, &mut part, k, 1.05, &mut w);
        h.words(&part).u64(moves);
        fold_work(h, w);
        Ok(())
    });
}

#[test]
fn fm_refine_is_pinned() {
    pinned("fm_refine_is_pinned", 48, 0xe7c60be32d54935e, |src, h| {
        let g = arbitrary_graph(src);
        let seed = src.below(1 << 32);
        let passes = src.usize_in(1, 8);
        let ub = *src.choose(&[1.03f64, 1.10]);
        let mut part: Vec<u32> = {
            let mut rng = SplitMix64::new(seed);
            (0..g.n()).map(|_| (rng.next_u64() & 1) as u32).collect()
        };
        let t = BisectTargets::even(g.total_vwgt(), ub);
        let mut w = Work::default();
        let cut = fm_refine(&g, &mut part, &t, passes, &mut w);
        h.words(&part).u64(cut);
        fold_work(h, w);
        Ok(())
    });
}

/// A 64x64 grid split into vertical halves, with a band of flips near the
/// seam so refinement has several passes of real work while the boundary
/// stays a sliver of the graph.
fn small_boundary_instance() -> (CsrGraph, Vec<u32>) {
    let (w, h) = (64usize, 64usize);
    let g = grid2d(w, h);
    let mut part: Vec<u32> = (0..w * h).map(|i| if i % w < w / 2 { 0 } else { 1 }).collect();
    let mut rng = SplitMix64::new(5);
    for _ in 0..40 {
        let y = rng.below(h as u64) as usize;
        let x = w / 2 - 1 + rng.below(2) as usize;
        part[y * w + x] ^= 1;
    }
    (g, part)
}

/// Edge endpoints on the boundary of `part` (sum of boundary degrees).
fn boundary_degree_sum(g: &CsrGraph, part: &[u32]) -> u64 {
    (0..g.n())
        .filter(|&u| {
            let pu = part[u];
            g.neighbors(u as Vid).iter().any(|&v| part[v as usize] != pu)
        })
        .map(|u| g.degree(u as Vid) as u64)
        .sum()
}

#[test]
fn work_edges_drop_to_boundary_scale() {
    let (g, init) = small_boundary_instance();
    let bdeg = boundary_degree_sum(&g, &init);
    let total_adj = g.adjncy.len() as u64;
    // the instance really has a <5% boundary
    assert!(bdeg * 20 <= total_adj, "boundary {bdeg} vs |adjncy| {total_adj}");

    let mut part = init;
    let mut w = Work::default();
    let mut rng = SplitMix64::new(77);
    let stats = kway_refine(&g, &mut part, 2, 1.05, 12, &mut rng, &mut w);
    let mut h = Fnv1a::new();
    fold_kway(&mut h, &part, stats, w);
    assert_pin("work_edges_drop_to_boundary_scale", 0x510e66929f9f33d6, h.finish());

    // a full sweep pays the whole adjacency every pass...
    let sweep = stats.passes as u64 * total_adj;
    // ...the tracker pays one build plus work proportional to the boundary
    assert!(
        w.edges <= total_adj + 24 * stats.passes as u64 * bdeg.max(64),
        "tracked edge work {} not O(build + boundary): passes={} bdeg={bdeg}",
        w.edges,
        stats.passes
    );
    // marginal per-pass cost (everything beyond the one-time build) is
    // under 10% of what the sweep pays over the same passes
    assert!(
        10 * (w.edges - total_adj) <= sweep,
        "marginal tracked work {} vs sweep {sweep}",
        w.edges - total_adj
    );
}

#[test]
fn fm_pass_cost_drops_after_first_build() {
    let (g, init) = small_boundary_instance();
    let t = BisectTargets::even(g.total_vwgt(), 1.05);
    let total_adj = g.adjncy.len() as u64;
    let mut part = init;
    let mut w = Work::default();
    fm_refine(&g, &mut part, &t, 12, &mut w);
    // old accounting was >= (passes+1) * |adjncy| with passes >= 2 here;
    // the incremental version pays the build once plus per-move updates
    assert!(
        w.edges <= total_adj + total_adj / 2,
        "fm edge work {} should be ~one build on a small-boundary instance ({})",
        w.edges,
        total_adj
    );
}
