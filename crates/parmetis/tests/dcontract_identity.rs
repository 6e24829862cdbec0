//! Golden digests of the distributed two-pass contraction
//! `dist_contract_ws` (see `gpm_testkit::pin`). For every graph, rank
//! count and matching of a fixed case matrix, each rank's coarse
//! `LocalGraph`, cmap and full `RankPhase` ledger (work charges,
//! messages, bytes) fold into one committed FNV-1a digest per test. The
//! digests were recorded while the push-growth contraction the rewrite
//! replaced still ran beside it and agreed byte for byte. A workspace
//! recycled across levels must equal fresh ones, and every case passes
//! the structural [`check_contraction`] invariants on the reassembled
//! global coarse graph.

use gpm_graph::builder::GraphBuilder;
use gpm_graph::check_contraction;
use gpm_graph::coarsen_ws::CoarsenWorkspace;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_msg::{run_cluster, ClusterConfig, RankPhase};
use gpm_parmetis::dcontract::dist_contract_ws;
use gpm_parmetis::dmatch::dist_matching;
use gpm_parmetis::local::LocalGraph;
use gpm_testkit::{pinned, tk_assert_eq, Fnv1a, Source};

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(4) {
        0 => delaunay_like(src.usize_in(50, 400), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 8) as u32, 8, src.below(1 << 30)),
        2 => grid2d(src.usize_in(4, 18), src.usize_in(4, 18)),
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

/// A `run_cluster` result: each rank's (coarse piece, local cmap) plus
/// its full phase ledger.
type RankResult = ((LocalGraph, Vec<Vid>), Vec<RankPhase>);

/// Reassemble the per-rank coarse pieces into a global CSR graph plus
/// global cmap, for the structural checker.
fn reassemble(g: &CsrGraph, p: usize, res: &[RankResult]) -> (CsrGraph, Vec<Vid>) {
    let nc_global = res[0].0 .0.n_global();
    let mut vwgt = vec![0u32; nc_global];
    let mut rows: Vec<Vec<(Vid, u32)>> = vec![Vec::new(); nc_global];
    let mut cmap_global: Vec<Vid> = vec![0; g.n()];
    for ((coarse, _), _) in res {
        for l in 0..coarse.n_local() {
            let gid = coarse.gid(l) as usize;
            vwgt[gid] = coarse.vwgt[l];
            rows[gid] = coarse.edges(l).collect();
        }
    }
    for (r, ((_, cmap), _)) in res.iter().enumerate() {
        let lg = LocalGraph::from_global(g, p, r);
        for (l, &c) in cmap.iter().enumerate() {
            cmap_global[lg.gid(l) as usize] = c;
        }
    }
    let mut b = GraphBuilder::new(nc_global);
    for (u, row) in rows.iter().enumerate() {
        for &(v, w) in row {
            if (v as usize) > u {
                b.add_edge(u as Vid, v, w);
            }
        }
    }
    (b.vertex_weights(vwgt).build(), cmap_global)
}

fn fold_level(h: &mut Fnv1a, (coarse, cmap): &(LocalGraph, Vec<Vid>)) {
    let LocalGraph { rank, vtxdist, xadj, adjncy, adjwgt, vwgt } = coarse;
    h.u64(*rank as u64).words(vtxdist).words(xadj).words(adjncy).words(adjwgt).words(vwgt);
    h.words(cmap);
}

fn fold_ledger(h: &mut Fnv1a, ledger: &[RankPhase]) {
    h.u64(ledger.len() as u64);
    for RankPhase { name, edges, vertices, msgs, bytes, ws_bytes } in ledger {
        h.str(name).u64(*edges).u64(*vertices).u64(*msgs).u64(*bytes).u64(*ws_bytes);
    }
}

#[test]
fn dist_contract_is_pinned_per_rank() {
    pinned("dist_contract_is_pinned_per_rank", 20, 0xb3b7a0fb9040326a, |src, h| {
        let g = arbitrary_graph(src);
        let p = src.usize_in(1, 5);
        let passes = src.usize_in(1, 4);

        let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
            let lg = LocalGraph::from_global(&g, p, ctx.rank);
            let m = dist_matching(ctx, &lg, u32::MAX, passes, 100);
            dist_contract_ws(ctx, &lg, &m, 200, &mut CoarsenWorkspace::new())
        });
        for (level, ledger) in &res {
            fold_level(h, level);
            fold_ledger(h, ledger);
        }
        let (coarse, cmap) = reassemble(&g, p, &res);
        check_contraction(&g, &coarse, &cmap)
    });
}

#[test]
fn recycled_workspace_equals_fresh_across_levels() {
    // One workspace per rank carried across two consecutive contractions
    // (exactly lib.rs's level loop) versus fresh workspaces per level.
    pinned("recycled_workspace_equals_fresh_across_levels", 12, 0x1f1af261578eac29, |src, h| {
        let g = arbitrary_graph(src);
        let p = src.usize_in(1, 5);

        let run = |recycle: bool| {
            run_cluster(&ClusterConfig::intra_node(p), |ctx| {
                let mut ws = CoarsenWorkspace::new();
                let mut lg = LocalGraph::from_global(&g, p, ctx.rank);
                let mut out = Vec::new();
                for lvl in 0..2u32 {
                    let m = dist_matching(ctx, &lg, u32::MAX, 3, 100 + lvl * 1000);
                    let mut fresh = CoarsenWorkspace::new();
                    let ws = if recycle { &mut ws } else { &mut fresh };
                    let (coarse, cmap) = dist_contract_ws(ctx, &lg, &m, 200 + lvl * 1000, ws);
                    out.push((coarse.clone(), cmap));
                    lg = coarse;
                }
                out
            })
        };
        let warm = run(true);
        tk_assert_eq!(warm, run(false));
        for (levels, ledger) in &warm {
            levels.iter().for_each(|level| fold_level(h, level));
            fold_ledger(h, ledger);
        }
        Ok(())
    });
}
