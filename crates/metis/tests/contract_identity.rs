//! Golden digests of the two-pass counting contraction `contract_ws`
//! (see `gpm_testkit::pin`). For every graph and matching of a fixed
//! case matrix, the coarse graph, cmap and every `Work` charge fold into
//! one committed FNV-1a digest per test. The digests were recorded while
//! the single-pass push-growth contraction the rewrite replaced still
//! ran beside it and agreed byte for byte. A workspace recycled across a
//! whole V-cycle (stale epochs, high-water buffers) must equal a cold
//! one, and every case passes the structural [`check_contraction`]
//! invariants.

use gpm_graph::builder::GraphBuilder;
use gpm_graph::check_contraction;
use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, grid2d, rmat, star};
use gpm_graph::rng::SplitMix64;
use gpm_metis::contract::contract_ws;
use gpm_metis::cost::Work;
use gpm_metis::matching::{find_matching, MatchScheme};
use gpm_testkit::{pinned, tk_assert_eq, Fnv1a, Source};

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(5) {
        0 => delaunay_like(src.usize_in(50, 600), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 9) as u32, 8, src.below(1 << 30)),
        2 => grid2d(src.usize_in(4, 24), src.usize_in(4, 24)),
        3 => star(src.usize_in(8, 200)),
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

fn arbitrary_matching(g: &CsrGraph, src: &mut Source) -> Vec<Vid> {
    let scheme = *src.choose(&[MatchScheme::Hem, MatchScheme::Rm]);
    let cap = if src.chance(0.3) { src.u32_in(2, 16) } else { u32::MAX };
    let mut rng = SplitMix64::new(src.next_u64());
    let mut w = Work::default();
    find_matching(g, scheme, cap, &mut rng, &mut w)
}

fn fold(h: &mut Fnv1a, coarse: &CsrGraph, cmap: &[Vid], w: Work) {
    let Work { edges, vertices, ws_bytes } = w;
    h.graph(coarse).words(cmap).u64(edges).u64(vertices).u64(ws_bytes);
}

#[test]
fn contract_ws_is_pinned() {
    pinned("contract_ws_is_pinned", 64, 0xbb2633bba9060494, |src, h| {
        let g = arbitrary_graph(src);
        let mat = arbitrary_matching(&g, src);
        let mut w = Work::default();
        let (coarse, cmap) = contract_ws(&g, &mat, &mut w, &mut CoarsenWorkspace::new());
        fold(h, &coarse, &cmap, w);
        check_contraction(&g, &coarse, &cmap)
    });
}

#[test]
fn recycled_workspace_equals_cold_across_vcycle() {
    pinned("recycled_workspace_equals_cold_across_vcycle", 24, 0xaf1ad127fc45f5b6, |src, h| {
        let mut cur = arbitrary_graph(src);
        let mut rng = SplitMix64::new(src.next_u64());
        let mut ws = CoarsenWorkspace::new();
        for _lvl in 0..6 {
            if cur.n() <= 8 || cur.m() == 0 {
                break;
            }
            let mat =
                find_matching(&cur, MatchScheme::Hem, u32::MAX, &mut rng, &mut Work::default());
            let mut w = Work::default();
            let (coarse, cmap) = contract_ws(&cur, &mat, &mut w, &mut ws);
            let mut w_cold = Work::default();
            let cold = contract_ws(&cur, &mat, &mut w_cold, &mut CoarsenWorkspace::new());
            tk_assert_eq!((&coarse, &cmap, w), (&cold.0, &cold.1, w_cold));
            fold(h, &coarse, &cmap, w);
            check_contraction(&cur, &coarse, &cmap)?;
            if coarse.n() as f64 / cur.n() as f64 > 0.98 {
                break;
            }
            cur = coarse;
        }
        Ok(())
    });
}
