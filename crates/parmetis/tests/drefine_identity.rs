//! Golden digests of the boundary-tracked `dist_refine` (see
//! `gpm_testkit::pin`). For every graph, seed, k and rank count of a
//! fixed case matrix, the partition, move count and every rank's full
//! `RankPhase` ledger fold into one committed FNV-1a digest. The
//! digests were recorded while the full-sweep implementation the
//! tracker replaced still ran beside it over the same deterministic
//! message substrate and agreed label for label.

use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_graph::rng::SplitMix64;
use gpm_msg::{run_cluster, ClusterConfig, RankPhase};
use gpm_parmetis::drefine::dist_refine;
use gpm_parmetis::local::LocalGraph;
use gpm_testkit::{pinned, Source};

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(3) {
        0 => delaunay_like(src.usize_in(60, 500), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 8) as u32, 8, src.below(1 << 30)),
        _ => grid2d(src.usize_in(5, 20), src.usize_in(5, 20)),
    }
}

/// Refine `init` on `p` ranks; return the partition, the total move
/// count and every rank's ledger.
fn run_refine(
    g: &CsrGraph,
    init: &[u32],
    k: usize,
    p: usize,
    passes: usize,
) -> (Vec<u32>, u64, Vec<Vec<RankPhase>>) {
    let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
        let lg = LocalGraph::from_global(g, p, ctx.rank);
        let (lo, hi) = (lg.first() as usize, lg.vtxdist[ctx.rank + 1] as usize);
        let mut part = init[lo..hi].to_vec();
        let moves = dist_refine(ctx, &lg, &mut part, k, 1.05, g.total_vwgt(), passes, 1000);
        (part, moves)
    });
    let mut part = Vec::new();
    let mut moves = 0u64;
    let mut ledgers = Vec::new();
    for ((slice, m), ledger) in res {
        part.extend_from_slice(&slice);
        moves += m;
        ledgers.push(ledger);
    }
    (part, moves, ledgers)
}

#[test]
fn dist_refine_is_pinned() {
    pinned("dist_refine_is_pinned", 24, 0xcf425abfbe19a6e8, |src, h| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        let p = *src.choose(&[1usize, 2, 4]);
        let passes = src.usize_in(1, 6);
        let mut rng = SplitMix64::new(src.below(1 << 32));
        let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        let (part, moves, ledgers) = run_refine(&g, &init, k, p, passes);
        h.words(&part).u64(moves);
        for ledger in &ledgers {
            h.u64(ledger.len() as u64);
            for RankPhase { name, edges, vertices, msgs, bytes, ws_bytes } in ledger {
                h.str(name).u64(*edges).u64(*vertices).u64(*msgs).u64(*bytes).u64(*ws_bytes);
            }
        }
        Ok(())
    });
}
