//! Property-based tests of the graph substrate: CSR construction, I/O
//! round-trips, subgraph extraction, and metric invariants hold for
//! arbitrary inputs. (Runs on the in-repo `gpm-testkit` harness.)

use gp_metis_repro::graph::builder::GraphBuilder;
use gp_metis_repro::graph::csr::{CsrGraph, Vid};
use gp_metis_repro::graph::io::write_metis;
use gp_metis_repro::graph::metrics::{comm_volume, edge_cut, imbalance, part_weights};
use gp_metis_repro::graph::stream::read_metis_streamed;
use gp_metis_repro::graph::subgraph::induced_subgraph;
use gpm_testkit::{check, tk_assert, tk_assert_eq, Source};

/// Generator: a random (possibly messy) edge list over `n` vertices —
/// duplicates, self-loops and all; the builder must normalize it.
fn arb_graph(src: &mut Source) -> CsrGraph {
    let n = src.usize_in(2, 60);
    let es = src.vec_of(0, n * 3, |s| {
        (s.u32_in(0, n as u32) as Vid, s.u32_in(0, n as u32) as Vid, s.u32_in(1, 9))
    });
    GraphBuilder::from_weighted_edges(n, &es).build()
}

#[test]
fn builder_always_produces_valid_csr() {
    check("builder_always_produces_valid_csr", 64, |src| {
        let g = arb_graph(src);
        tk_assert!(g.validate().is_ok());
        Ok(())
    });
}

#[test]
fn metis_io_roundtrip() {
    check("metis_io_roundtrip", 64, |src| {
        let g = arb_graph(src);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let g2 = read_metis_streamed(&buf).unwrap();
        tk_assert_eq!(g, g2);
        Ok(())
    });
}

#[test]
fn edge_cut_bounds_and_symmetry() {
    check("edge_cut_bounds_and_symmetry", 64, |src| {
        let g = arb_graph(src);
        let n = g.n();
        let part: Vec<u32> = (0..n as u32).map(|u| u % 3).collect();
        let cut = edge_cut(&g, &part);
        tk_assert!(cut <= g.total_adjwgt());
        // relabeling partitions does not change the cut
        let relabeled: Vec<u32> = part.iter().map(|&p| (p + 1) % 3).collect();
        tk_assert_eq!(cut, edge_cut(&g, &relabeled));
        // single partition cuts nothing
        tk_assert_eq!(edge_cut(&g, &vec![0; n]), 0);
        Ok(())
    });
}

#[test]
fn part_weights_sum_to_total() {
    check("part_weights_sum_to_total", 64, |src| {
        let g = arb_graph(src);
        let k = src.usize_in(1, 6);
        let n = g.n();
        let part: Vec<u32> = (0..n as u32).map(|u| u % k as u32).collect();
        let w = part_weights(&g, &part, k);
        tk_assert_eq!(w.iter().sum::<u64>(), g.total_vwgt());
        tk_assert!(imbalance(&g, &part, k) >= 1.0 - 1e-9);
        Ok(())
    });
}

#[test]
fn comm_volume_bounded_by_degree_sum() {
    check("comm_volume_bounded_by_degree_sum", 64, |src| {
        let g = arb_graph(src);
        let part: Vec<u32> = (0..g.n() as u32).map(|u| u % 2).collect();
        tk_assert!(comm_volume(&g, &part) <= g.adjncy.len() as u64);
        Ok(())
    });
}

#[test]
fn subgraph_is_valid_and_weight_consistent() {
    check("subgraph_is_valid_and_weight_consistent", 64, |src| {
        let g = arb_graph(src);
        let select: Vec<bool> = (0..g.n()).map(|u| u % 2 == 0).collect();
        let (sub, map) = induced_subgraph(&g, &select);
        tk_assert!(sub.validate().is_ok());
        tk_assert_eq!(sub.n(), select.iter().filter(|&&s| s).count());
        for (nu, &ou) in map.iter().enumerate() {
            tk_assert_eq!(sub.vwgt[nu], g.vwgt[ou as usize]);
            tk_assert!(sub.degree(nu as Vid) <= g.degree(ou));
        }
        // edges of the subgraph exist in the original with equal weight
        for nu in 0..sub.n() as Vid {
            for (nv, w) in sub.edges(nu) {
                let (ou, ov) = (map[nu as usize], map[nv as usize]);
                let pos = g.neighbors(ou).iter().position(|&x| x == ov);
                tk_assert!(pos.is_some());
                tk_assert_eq!(g.neighbor_weights(ou)[pos.unwrap()], w);
            }
        }
        Ok(())
    });
}

#[test]
fn random_partition_validates_in_range() {
    check("random_partition_validates_in_range", 64, |src| {
        let g = arb_graph(src);
        let part_seed = src.u64_in(0, 1000);
        let k = 4;
        let mut rng = gp_metis_repro::graph::rng::SplitMix64::new(part_seed);
        let part: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        // may be unbalanced, but never out of range / wrong length
        match gp_metis_repro::graph::metrics::validate_partition(&g, &part, k, 100.0) {
            Ok(()) => Ok(()),
            Err(e) => Err(format!("unexpected: {e}")),
        }
    });
}

#[test]
fn arbitrary_partitions_never_break_metrics() {
    check("arbitrary_partitions_never_break_metrics", 32, |src| {
        let g = arb_graph(src);
        let seed = src.u64_in(0, 100);
        let k = 3;
        let mut rng = gp_metis_repro::graph::rng::SplitMix64::new(seed);
        let part: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
        let _ = edge_cut(&g, &part);
        let _ = comm_volume(&g, &part);
        let _ = part_weights(&g, &part, k as usize);
        Ok(())
    });
}
