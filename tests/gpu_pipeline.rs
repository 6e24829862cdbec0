//! Integration tests of the GPU kernel pipeline against the serial
//! reference implementations, plus device-memory behaviour.

use gp_metis_repro::gpmetis::gpu_graph::{Distribution, GpuCsr};
use gp_metis_repro::gpmetis::kernels::cmap::gpu_cmap;
use gp_metis_repro::gpmetis::kernels::contract::{gpu_contract, MergeStrategy};
use gp_metis_repro::gpmetis::kernels::matching::gpu_matching;
use gp_metis_repro::gpmetis::kernels::refine::{gpu_part_weights, gpu_project, gpu_refine};
use gp_metis_repro::gpu::{exclusive_scan_u32, inclusive_scan_u32, Device, GpuConfig};
use gp_metis_repro::graph::gen::{delaunay_like, hugebubbles_like, rmat, usa_roads_like};
use gp_metis_repro::graph::metrics::{edge_cut, max_part_weight};
use gp_metis_repro::graph::rng::SplitMix64;
use gp_metis_repro::metis::contract::contract;
use gp_metis_repro::metis::cost::Work;
use gp_metis_repro::metis::matching::is_valid_matching;

fn dev() -> Device {
    Device::new(GpuConfig::gtx_titan())
}

#[test]
fn scan_matches_host_for_many_sizes_and_values() {
    let d = dev();
    let mut rng = SplitMix64::new(5);
    for n in [1usize, 2, 255, 256, 257, 1000, 65_537] {
        let data: Vec<u32> = (0..n).map(|_| rng.below(100) as u32).collect();
        let buf = d.h2d(&data).unwrap();
        let total = inclusive_scan_u32(&d, &buf).unwrap();
        let mut acc = 0u32;
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect();
        assert_eq!(buf.to_vec(), expect, "n={n}");
        assert_eq!(total, acc);
        // exclusive on the same data
        let buf2 = d.h2d(&data).unwrap();
        let total2 = exclusive_scan_u32(&d, &buf2).unwrap();
        assert_eq!(total2, acc);
        let out2 = buf2.to_vec();
        assert_eq!(out2[0], 0);
        if n > 1 {
            assert_eq!(out2[n - 1], acc.wrapping_sub(data[n - 1]));
        }
    }
}

#[test]
fn gpu_pipeline_one_level_equals_serial_on_many_graphs() {
    let graphs: Vec<gp_metis_repro::graph::csr::CsrGraph> =
        vec![delaunay_like(600, 1), usa_roads_like(600, 2), hugebubbles_like(600), rmat(8, 4, 3)];
    for (i, g) in graphs.iter().enumerate() {
        let d = dev();
        let gg = GpuCsr::upload(&d, g).unwrap();
        let (dmat, _) = gpu_matching(
            &d,
            &gg,
            u32::MAX,
            3,
            g.uniform_edge_weights(),
            42 + i as u64,
            Distribution::Cyclic,
            1024,
        )
        .unwrap();
        let mat = dmat.to_vec();
        assert!(is_valid_matching(g, &mat), "graph {i}");
        let (dcmap, nc) = gpu_cmap(&d, &dmat, Distribution::Cyclic, 1024).unwrap();
        for strategy in [MergeStrategy::SortMerge, MergeStrategy::Hash] {
            let coarse = gpu_contract(&d, &gg, &dmat, &dcmap, nc, strategy, 256)
                .unwrap()
                .download(&d)
                .unwrap();
            let mut w = Work::default();
            let (serial, _) = contract(g, &mat, &mut w);
            assert_eq!(coarse.n(), serial.n(), "graph {i} {strategy:?}");
            assert_eq!(coarse.total_vwgt(), serial.total_vwgt());
            assert_eq!(coarse.m(), serial.m());
        }
    }
}

#[test]
fn gpu_refinement_tracks_weights_exactly() {
    let g = delaunay_like(900, 8);
    let k = 6;
    let d = dev();
    let gg = GpuCsr::upload(&d, &g).unwrap();
    let mut rng = SplitMix64::new(2);
    let init: Vec<u32> = (0..g.n()).map(|_| rng.below(k as u64) as u32).collect();
    let part = d.h2d(&init).unwrap();
    let pw = gpu_part_weights(&d, &gg, &part, k, Distribution::Cyclic, 512).unwrap();
    let maxw = max_part_weight(g.total_vwgt(), k, 1.10) as u32;
    gpu_refine(&d, &gg, &part, &pw, k, maxw, 6, Distribution::Cyclic, 512).unwrap();
    let final_part = part.to_vec();
    let host_w = gp_metis_repro::graph::metrics::part_weights(&g, &final_part, k);
    let dev_w: Vec<u64> = pw.to_vec().into_iter().map(u64::from).collect();
    assert_eq!(host_w, dev_w, "device weight tracking diverged");
    assert!(edge_cut(&g, &final_part) <= edge_cut(&g, &init));
}

#[test]
fn projection_composes_through_two_levels() {
    let g = delaunay_like(800, 3);
    let d = dev();
    let gg = GpuCsr::upload(&d, &g).unwrap();
    // level 0 -> 1
    let (m0, _) = gpu_matching(&d, &gg, u32::MAX, 3, true, 1, Distribution::Cyclic, 512).unwrap();
    let (c0, nc0) = gpu_cmap(&d, &m0, Distribution::Cyclic, 512).unwrap();
    let g1 = gpu_contract(&d, &gg, &m0, &c0, nc0, MergeStrategy::Hash, 256).unwrap();
    // level 1 -> 2
    let (m1, _) = gpu_matching(&d, &g1, u32::MAX, 3, false, 2, Distribution::Cyclic, 512).unwrap();
    let (c1, nc1) = gpu_cmap(&d, &m1, Distribution::Cyclic, 512).unwrap();
    let _g2 = gpu_contract(&d, &g1, &m1, &c1, nc1, MergeStrategy::Hash, 256).unwrap();
    // color level 2, project down twice, check cut equality via cmaps
    let cpart: Vec<u32> = (0..nc1 as u32).map(|c| c % 2).collect();
    let dcpart = d.h2d(&cpart).unwrap();
    let p1 = gpu_project(&d, &c1, &dcpart, Distribution::Cyclic, 512).unwrap();
    let p0 = gpu_project(&d, &c0, &p1, Distribution::Cyclic, 512).unwrap();
    // manual composition on the host
    let c0h = c0.to_vec();
    let c1h = c1.to_vec();
    let expect: Vec<u32> = (0..g.n()).map(|u| cpart[c1h[c0h[u] as usize] as usize]).collect();
    assert_eq!(p0.to_vec(), expect);
}

#[test]
fn device_memory_reclaimed_between_levels() {
    let g = delaunay_like(2_000, 4);
    let d = dev();
    let before = d.mem_used();
    {
        let gg = GpuCsr::upload(&d, &g).unwrap();
        let (m, _) =
            gpu_matching(&d, &gg, u32::MAX, 2, true, 7, Distribution::Cyclic, 512).unwrap();
        let (c, nc) = gpu_cmap(&d, &m, Distribution::Cyclic, 512).unwrap();
        let coarse = gpu_contract(&d, &gg, &m, &c, nc, MergeStrategy::Hash, 256).unwrap();
        assert!(d.mem_used() > before + g.bytes());
        drop(coarse);
    }
    assert_eq!(d.mem_used(), before, "buffers leaked device memory");
}

#[test]
fn oom_propagates_from_mid_pipeline() {
    // device just big enough for the graph but not the level hierarchy
    let g = delaunay_like(3_000, 6);
    let cap = g.bytes() + g.bytes() / 4;
    let cfg = gp_metis_repro::gpmetis::GpMetisConfig {
        gpu: GpuConfig::tiny(cap),
        ..gp_metis_repro::gpmetis::GpMetisConfig::new(8).with_gpu_threshold(200)
    };
    let err = gp_metis_repro::gpmetis::partition(&g, &cfg);
    assert!(err.is_err(), "expected mid-pipeline OOM");
    match err.err().unwrap() {
        gp_metis_repro::gpmetis::PartitionError::Device(gp_metis_repro::gpu::DeviceError::Oom(
            oom,
        )) => assert_eq!(oom.capacity, cap),
        other => panic!("expected an OOM device error, got {other}"),
    }
}

/// FNV-1a over every field of every launch in a kernel log, in order.
fn kernel_log_hash(log: &[gp_metis_repro::gpu::KernelStats]) -> u64 {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    log.iter().fold(0xcbf29ce484222325, |mut h, k| {
        h = fnv(h, k.name.as_bytes());
        for w in [
            k.n_threads as u64,
            k.warps,
            k.warp_instr,
            k.lane_instr,
            k.transactions,
            k.accesses,
            k.mem_seconds.to_bits(),
            k.compute_seconds.to_bits(),
            k.seconds.to_bits(),
        ] {
            h = fnv(h, &w.to_le_bytes());
        }
        h
    })
}

/// Golden accounting of the simulator: the kernel log of whole
/// GP-metis runs, hashed field by field. Any change to how launches count
/// warps, instructions, accesses or coalesced transactions — or to the
/// modeled seconds derived from them — moves these values. The blocked
/// case defeats coalescing, so it pins the scattered-access counts too.
#[test]
fn kernel_log_accounting_is_pinned() {
    use gp_metis_repro::gpmetis::{partition, GpMetisConfig, VertexDistribution};
    let cases = [
        ("hugebubbles", hugebubbles_like(6_000), 1, VertexDistribution::Cyclic, 0x1343829cf07597f1),
        ("delaunay", delaunay_like(3_000, 2), 5, VertexDistribution::Cyclic, 0xebef337d8c9e65d7),
        (
            "hugebubbles-blocked",
            hugebubbles_like(6_000),
            3,
            VertexDistribution::Blocked,
            0xae989be6141134ee,
        ),
    ];
    for (name, g, seed, distribution, golden) in cases {
        let cfg = GpMetisConfig {
            distribution,
            ..GpMetisConfig::new(8).with_seed(seed).with_gpu_threshold(400)
        };
        let r = partition(&g, &cfg).unwrap();
        assert!(r.gpu.kernel_log.len() > 20, "{name}: too few launches to pin");
        let h = kernel_log_hash(&r.gpu.kernel_log);
        assert_eq!(h, golden, "{name}: kernel log accounting moved (got {h:#018x})");
    }
}
