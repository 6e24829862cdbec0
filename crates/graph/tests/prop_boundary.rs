//! Property tests pinning the tracker's flat connectivity rows to a naive
//! gather: after any sequence of moves, every row the tracker serves
//! must list the adjacent partitions in adjacency first-encounter order
//! with their summed incident weights, exactly as a fresh walk over the
//! adjacency builds them. The generated graphs always hold degree-0
//! vertices and zero-weight edges, and half of the moves hit a small hot
//! set, so the same rows are rebuilt in place many times.
//! (Runs on the in-repo `gpm-testkit` harness.)

use gpm_graph::boundary::BoundaryTracker;
use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_testkit::{check, tk_assert_eq, PropResult, Source};

/// A random graph on `n` vertices whose last `iso >= 1` vertices have no
/// edges; edge weights are drawn from `0..3`, so a third are zero.
fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    let n = src.usize_in(2, 40);
    let iso = src.usize_in(1, n.min(4) + 1);
    let linked = n - iso;
    let mut b = GraphBuilder::new(n);
    if linked >= 2 {
        for _ in 0..src.usize_in(0, 3 * linked) {
            let u = src.usize_in(0, linked) as Vid;
            let v = src.usize_in(0, linked) as Vid;
            b.add_edge(u, v, src.u32_in(0, 3));
        }
    }
    b.build()
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

fn row_matches(bt: &mut BoundaryTracker, g: &CsrGraph, part: &[u32], u: Vid) -> PropResult {
    let want = naive_gather(g, part, u);
    let (parts, wgts) = bt.connectivity(g, part, u);
    tk_assert_eq!((parts.to_vec(), wgts.to_vec()), want);
    let pu = part[u as usize];
    let ext = g.neighbors(u).iter().filter(|&&v| part[v as usize] != pu).count() as u32;
    tk_assert_eq!(bt.ext(u), ext);
    Ok(())
}

#[test]
fn flat_rows_equal_naive_gather_after_moves() {
    check("flat_rows_equal_naive_gather_after_moves", 128, |src| {
        let g = arbitrary_graph(src);
        let n = g.n();
        let k = src.u32_in(1, 6);
        let mut part: Vec<u32> = (0..n).map(|_| src.u32_in(0, k)).collect();
        let mut bt = BoundaryTracker::build(&g, &part);
        let hot: Vec<Vid> = (0..3).map(|_| src.usize_in(0, n) as Vid).collect();
        // first queries of an arbitrary subset reserve rows out of
        // vertex order
        for _ in 0..src.usize_in(0, n) {
            let u = src.usize_in(0, n) as Vid;
            row_matches(&mut bt, &g, &part, u)?;
        }
        for _ in 0..src.usize_in(0, 120) {
            let u = if src.chance(0.5) { *src.choose(&hot) } else { src.usize_in(0, n) as Vid };
            let to = src.u32_in(0, k);
            bt.apply_move(&g, &mut part, u, to);
            // re-query the moved vertex and its neighborhood: stale rows
            // rebuild in place from the new partition
            row_matches(&mut bt, &g, &part, u)?;
            for &v in g.neighbors(u) {
                row_matches(&mut bt, &g, &part, v)?;
            }
        }
        for u in 0..n as Vid {
            row_matches(&mut bt, &g, &part, u)?;
        }
        Ok(())
    });
}
