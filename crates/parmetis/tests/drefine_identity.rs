//! Byte-identity of the boundary-tracked `dist_refine` (ISSUE 4): the
//! per-rank incremental external-degree counters, ghost-diff updates, and
//! connectivity caching must not change a single label — the pre-change
//! full-sweep implementation is preserved here (accounting stripped) as
//! the reference, and both run over the same deterministic message
//! substrate across random graphs, seeds, k, and rank counts.

use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::{delaunay_like, grid2d, rmat};
use gpm_graph::metrics::max_part_weight;
use gpm_graph::rng::SplitMix64;
use gpm_msg::{run_cluster, ClusterConfig, RankCtx};
use gpm_parmetis::drefine::dist_refine;
use gpm_parmetis::exchange::{allreduce_sum_vec, fetch_remote};
use gpm_parmetis::local::LocalGraph;
use gpm_testkit::{check, tk_assert_eq, Source};
use std::collections::HashMap;

/// The pre-change `dist_refine`: full adjacency sweep every pass.
#[allow(clippy::too_many_arguments)]
fn ref_dist_refine(
    ctx: &mut RankCtx,
    lg: &LocalGraph,
    part: &mut [u32],
    k: usize,
    ubfactor: f64,
    total_vwgt: u64,
    max_passes: usize,
    tag: u32,
) -> u64 {
    let n = lg.n_local();
    let p = ctx.ranks as u64;
    let maxw = max_part_weight(total_vwgt, k, ubfactor);
    let ghost_gids = lg.ghost_gids();
    let mut total_moves = 0u64;
    let mut local_w = vec![0u64; k];
    for u in 0..n {
        local_w[part[u] as usize] += lg.vwgt[u] as u64;
    }
    let mut pw = allreduce_sum_vec(ctx, tag, &local_w);
    for pass in 0..max_passes {
        let up = pass % 2 == 0;
        let ptag = tag + 10 + pass as u32 * 10;
        let ghost_part: HashMap<u32, u32> = ghost_gids
            .iter()
            .copied()
            .zip(fetch_remote(ctx, lg, &ghost_gids, ptag, |gid| part[lg.lid(gid)]))
            .collect();
        let part_of = |gid: u32, part: &[u32]| -> u32 {
            if lg.is_local(gid) {
                part[lg.lid(gid)]
            } else {
                ghost_part[&gid]
            }
        };
        let mut cands: Vec<(i64, usize, u32)> = Vec::new();
        let mut parts: Vec<u32> = Vec::with_capacity(8);
        let mut wgts: Vec<i64> = Vec::with_capacity(8);
        for u in 0..n {
            let pu = part[u];
            parts.clear();
            wgts.clear();
            let mut boundary = false;
            for (v, w) in lg.edges(u) {
                let pv = part_of(v, part);
                if pv != pu {
                    boundary = true;
                }
                match parts.iter().position(|&x| x == pv) {
                    Some(i) => wgts[i] += w as i64,
                    None => {
                        parts.push(pv);
                        wgts.push(w as i64);
                    }
                }
            }
            if !boundary {
                continue;
            }
            let w_own = parts.iter().position(|&x| x == pu).map_or(0, |i| wgts[i]);
            let overweight = pw[pu as usize] > maxw;
            let mut best: Option<(u32, i64)> = None;
            for (&q, &wq) in parts.iter().zip(wgts.iter()) {
                if q == pu || up != (q > pu) {
                    continue;
                }
                let gain = wq - w_own;
                if gain > 0 || (overweight && pw[q as usize] < pw[pu as usize]) {
                    match best {
                        Some((_, bg)) if bg >= gain => {}
                        _ => best = Some((q, gain)),
                    }
                }
            }
            if let Some((q, gain)) = best {
                cands.push((gain, u, q));
            }
        }
        cands.sort_unstable_by_key(|&(g, _, _)| std::cmp::Reverse(g));
        let mut budget: Vec<i64> =
            (0..k).map(|q| ((maxw.saturating_sub(pw[q])) / p) as i64).collect();
        let mut delta = vec![0i64; k];
        let mut moves = 0u64;
        for (_gain, u, q) in cands {
            let vw = lg.vwgt[u] as i64;
            if budget[q as usize] < vw {
                continue;
            }
            budget[q as usize] -= vw;
            delta[part[u] as usize] -= vw;
            delta[q as usize] += vw;
            part[u] = q;
            moves += 1;
        }
        let delta_enc: Vec<u64> = delta.iter().map(|&d| d as u64).collect();
        let global_delta = allreduce_sum_vec(ctx, ptag + 4, &delta_enc);
        for q in 0..k {
            pw[q] = (pw[q] as i64 + global_delta[q] as i64) as u64;
        }
        let global_moves = ctx.allreduce_u64(ptag + 6, moves, |a, b| a + b);
        total_moves += moves;
        if global_moves == 0 {
            break;
        }
    }
    total_moves
}

fn arbitrary_graph(src: &mut Source) -> CsrGraph {
    match src.below(3) {
        0 => delaunay_like(src.usize_in(60, 500), src.below(1 << 30)),
        1 => rmat(src.usize_in(6, 8) as u32, 8, src.below(1 << 30)),
        _ => grid2d(src.usize_in(5, 20), src.usize_in(5, 20)),
    }
}

fn run_refine(
    g: &CsrGraph,
    init: &[u32],
    k: usize,
    p: usize,
    passes: usize,
    use_ref: bool,
) -> (Vec<u32>, u64) {
    let res = run_cluster(&ClusterConfig::intra_node(p), |ctx| {
        let lg = LocalGraph::from_global(g, p, ctx.rank);
        let (lo, hi) = (lg.first() as usize, lg.vtxdist[ctx.rank + 1] as usize);
        let mut part = init[lo..hi].to_vec();
        let moves = if use_ref {
            ref_dist_refine(ctx, &lg, &mut part, k, 1.05, g.total_vwgt(), passes, 1000)
        } else {
            dist_refine(ctx, &lg, &mut part, k, 1.05, g.total_vwgt(), passes, 1000)
        };
        (part, moves)
    });
    let mut part = Vec::new();
    let mut moves = 0u64;
    for ((slice, m), _) in &res {
        part.extend_from_slice(slice);
        moves += m;
    }
    (part, moves)
}

#[test]
fn drefine_identical_to_sweep_reference() {
    check("drefine_identical_to_sweep_reference", 24, |src| {
        let g = arbitrary_graph(src);
        let k = *src.choose(&[2usize, 4, 8]);
        let p = *src.choose(&[1usize, 2, 4]);
        let passes = src.usize_in(1, 6);
        let mut rng = SplitMix64::new(src.below(1 << 32));
        let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        let want = run_refine(&g, &init, k, p, passes, true);
        let got = run_refine(&g, &init, k, p, passes, false);
        tk_assert_eq!(got, want, "k={} p={} passes={}", k, p, passes);
        Ok(())
    });
}
