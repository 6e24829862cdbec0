//! Golden digests of the boundary-tracked `parallel_refine` (see
//! `gpm_testkit::pin`). The buffered two-direction scheme is
//! scheduling-independent by construction (sorted commit buffers, frozen
//! weight snapshot), so its output is a pure function of (graph, initial
//! partition, k, ubfactor, passes): the partition and stats must be
//! equal for every logical thread count, with and without steal-order
//! fuzzing. Partitions, stats and every per-thread `Work` record fold
//! into one committed FNV-1a digest per test. The digests were recorded
//! while a sequential reference of the pre-tracker pass structure still
//! ran beside the pooled refiner and agreed label for label.

use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, rmat};
use gpm_graph::rng::SplitMix64;
use gpm_metis::cost::Work;
use gpm_mtmetis::prefine::{parallel_refine, ParRefineStats};
use gpm_testkit::{assert_pin, pinned, tk_assert_eq, Fnv1a, Source};

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(3) {
        0 => delaunay_like(src.usize_in(60, 700), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 9) as u32, 8, src.below(1 << 30)),
        _ => {
            let n = src.usize_in(10, 150);
            let mut b = GraphBuilder::new(n);
            for _ in 0..src.usize_in(n, 4 * n) {
                let u = src.usize_in(0, n) as Vid;
                let v = src.usize_in(0, n) as Vid;
                if u != v {
                    b.add_edge(u.min(v), u.max(v), src.u32_in(1, 20));
                }
            }
            b.build()
        }
    }
}

fn random_kpart(n: usize, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.below(k as u64) as u32).collect()
}

/// One refinement run's outputs: partition, stats, per-thread work.
type Refined = (Vec<u32>, ParRefineStats, Vec<Work>);

fn refine(g: &CsrGraph, init: &[u32], k: usize, passes: usize, threads: usize) -> Refined {
    let mut part = init.to_vec();
    let (stats, works) = parallel_refine(g, &mut part, k, 1.05, passes, threads);
    (part, stats, works)
}

/// The scheduling-independent part: partition and stats.
fn outcome((part, s, _): &Refined) -> (&[u32], u64, u64, u32) {
    (part, s.moves, s.rejected, s.passes)
}

fn fold(h: &mut Fnv1a, (part, stats, works): &Refined) {
    let ParRefineStats { moves, rejected, passes } = *stats;
    h.words(part).u64(moves).u64(rejected).u64(passes.into()).u64(works.len() as u64);
    for &Work { edges, vertices, ws_bytes } in works {
        h.u64(edges).u64(vertices).u64(ws_bytes);
    }
}

#[test]
fn prefine_is_pinned_and_equal_across_thread_counts() {
    pinned("prefine_is_pinned_and_equal_across_thread_counts", 32, 0xebdcf30a52dff066, |src, h| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        let passes = src.usize_in(1, 8);
        let init = random_kpart(g.n(), k, src.below(1 << 32));
        let one = refine(&g, &init, k, passes, 1);
        for threads in [1usize, 4, 8] {
            let r = refine(&g, &init, k, passes, threads);
            tk_assert_eq!(r.2.len(), threads);
            tk_assert_eq!(outcome(&r), outcome(&one), "threads={}", threads);
            fold(h, &r);
        }
        Ok(())
    });
}

#[test]
fn prefine_survives_steal_fuzz() {
    let g = rmat(9, 8, 11);
    let k = 6;
    let init = random_kpart(g.n(), k, 42);
    let want = refine(&g, &init, k, 6, 1);
    let mut h = Fnv1a::new();
    fold(&mut h, &want);
    assert_pin("prefine_survives_steal_fuzz", 0x771208e61beedb59, h.finish());
    // (Other tests in this binary stay correct with fuzz on — that is the
    // point — so the racy env write is harmless.)
    std::env::set_var("GPM_POOL_STEAL_FUZZ", "1");
    for round in 0..4 {
        for threads in [1usize, 4, 8] {
            let got = refine(&g, &init, k, 6, threads);
            assert_eq!(outcome(&got), outcome(&want), "round {round} threads {threads}");
        }
    }
    std::env::remove_var("GPM_POOL_STEAL_FUZZ");
}

#[test]
fn prefine_work_drops_on_small_boundary() {
    // vertical-halves 64x64 grid with a perturbed seam: boundary <5% of
    // edges; the scan phase must charge edge work proportional to the
    // boundary, not to |E| per pass
    let (w, h) = (64usize, 64usize);
    let g = gpm_graph::gen::grid2d(w, h);
    let mut init: Vec<u32> = (0..w * h).map(|i| if i % w < w / 2 { 0 } else { 1 }).collect();
    let mut rng = SplitMix64::new(5);
    for _ in 0..40 {
        let y = rng.below(h as u64) as usize;
        let x = w / 2 - 1 + rng.below(2) as usize;
        init[y * w + x] ^= 1;
    }
    let bdeg: u64 = (0..g.n())
        .filter(|&u| {
            let pu = init[u];
            g.neighbors(u as Vid).iter().any(|&v| init[v as usize] != pu)
        })
        .map(|u| g.degree(u as Vid) as u64)
        .sum();
    let total_adj = g.adjncy.len() as u64;
    assert!(bdeg * 20 <= total_adj, "boundary {bdeg} vs |adjncy| {total_adj}");

    let r = refine(&g, &init, 2, 12, 4);
    let mut digest = Fnv1a::new();
    fold(&mut digest, &r);
    assert_pin("prefine_work_drops_on_small_boundary", 0xdb3063c09009e6be, digest.finish());
    let edges: u64 = r.2.iter().map(|w| w.edges).sum();
    // one O(|E|) build plus per-pass work proportional to the boundary —
    // far below the old passes * |E| sweep cost
    assert!(
        edges <= total_adj + 24 * r.1.passes as u64 * bdeg.max(64),
        "scan edge work {} not O(build + boundary): passes={} bdeg={bdeg}",
        edges,
        r.1.passes
    );
}
