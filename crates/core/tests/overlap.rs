//! The overlap timeline is *pure accounting* (DESIGN.md §16): recording
//! and evaluating it must not perturb the partition or the serialized
//! cost ledger by a single bit, and the schedule it produces must never
//! claim to be slower than the serialized sum it re-arranges.
//!
//! The seed pins at the top were captured on the pre-overlap tree
//! (FNV-1a over the partition labels, the ledger phase names + charge
//! bits, and the modeled-seconds bits), so they also guard the whole
//! single-GPU pipeline against accidental cost-model drift.

use gp_metis::multi_gpu::{partition_multi, MultiGpuConfig};
use gp_metis::{partition, GpMetisConfig};
use gpm_faults::{FaultKind, FaultPlan, Selector};
use gpm_gpu_sim::{LinkConfig, OverlapReport};
use gpm_graph::csr::CsrGraph;
use gpm_graph::digest::Fnv1a;
use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
use gpm_metis::PartitionResult;

/// Relative tolerance for makespan-vs-serialized comparisons: op
/// durations tile each ledger phase, but a telescoped sum of clock marks
/// differs from the single-subtraction phase charge by ULPs.
const REL_EPS: f64 = 1e-9;

fn part_hash(r: &PartitionResult) -> u64 {
    let mut h = Fnv1a::new();
    for p in &r.part {
        h.bytes(&p.to_le_bytes());
    }
    h.finish()
}

fn ledger_hash(r: &PartitionResult) -> u64 {
    let mut h = Fnv1a::new();
    for (name, s) in &r.ledger.phases {
        h.bytes(name.as_bytes()).f64(*s);
    }
    h.finish()
}

fn pin_codes() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid", grid2d(60, 60)),
        ("delaunay", delaunay_like(3_000, 2)),
        ("hugebubbles", hugebubbles_like(6_000)),
        ("usa-roads", usa_roads_like(4_000, 5)),
    ]
}

fn pin_cfg() -> GpMetisConfig {
    GpMetisConfig::new(8).with_seed(1).with_gpu_threshold(400)
}

/// (name, partition hash, ledger hash, modeled-seconds bits) captured on
/// the tree *before* the overlap timeline existed, plus the makespan bits
/// of the schedule (a clean single-GPU run is one serial chain, so each
/// equals its row's modeled-seconds bits).
const SEED_PINS: [(&str, u64, u64, u64, u64); 4] = [
    ("grid", 0xa17051d71c53dfd6, 0xcc6f7295f1c6bfa1, 0x3f6c6053ccf61bea, 0x3f6c6053ccf61bea),
    ("delaunay", 0x8079c090b8795941, 0xff996f50e9bd349f, 0x3f63985a68a5c8a1, 0x3f63985a68a5c8a1),
    ("hugebubbles", 0x34bab8cb19bb02a6, 0x911ddab2f810c4ed, 0x3f703d4f3709c893, 0x3f703d4f3709c893),
    ("usa-roads", 0xfd6e2f57ae258a90, 0xe092f7dd58e681c1, 0x3f73b60701d92c3c, 0x3f73b60701d92c3c),
];

#[test]
fn seed_pins_hold() {
    for (name, g) in pin_codes() {
        let pin = SEED_PINS.iter().find(|p| p.0 == name).unwrap();
        let r = partition(&g, &pin_cfg()).unwrap();
        assert_eq!(part_hash(&r.result), pin.1, "{name} partition");
        assert_eq!(ledger_hash(&r.result), pin.2, "{name} ledger");
        assert_eq!(r.result.modeled_seconds().to_bits(), pin.3, "{name} modeled seconds");
        let ov = r.overlap.expect("clean run reports a schedule");
        assert_eq!(ov.makespan.to_bits(), pin.4, "{name} makespan");
    }
}

/// (devices, partition hash, ledger hash, modeled-seconds bits, makespan
/// bits) of `partition_multi` on `delaunay_like(6_000, 2)` with
/// `pin_cfg()`, captured while the timeline could still be switched off.
const MULTI_PINS: [(usize, u64, u64, u64, u64); 2] = [
    (2, 0x591ef2478eeca906, 0x767b67d7e29311cd, 0x3f707c89f04b2008, 0x3f6e6dfc60e88340),
    (4, 0x81ebd023751aea60, 0x8c16049361bb11d5, 0x3f6ea1a3b7cb2ca4, 0x3f6b6663ba68c34d),
];

#[test]
fn multi_gpu_pins_hold() {
    let g = delaunay_like(6_000, 2);
    for (d, part, ledger, secs, makespan) in MULTI_PINS {
        let r = partition_multi(&g, &MultiGpuConfig::new(pin_cfg(), d)).unwrap();
        assert_eq!(part_hash(&r.result), part, "d={d} partition");
        assert_eq!(ledger_hash(&r.result), ledger, "d={d} ledger");
        assert_eq!(r.result.modeled_seconds().to_bits(), secs, "d={d} modeled seconds");
        assert_eq!(r.overlap.unwrap().makespan.to_bits(), makespan, "d={d} makespan");
    }
}

/// Every engine's occupancy tiles the makespan: an engine is busy, stalled
/// on a dependency, or idle after its last op — never more than the
/// schedule's length.
fn assert_engines_tile_makespan(ov: &OverlapReport, what: &str) {
    for e in &ov.engines {
        let name = e.engine.name();
        assert!(e.busy <= ov.makespan, "{what} {name}: busy {} > makespan {}", e.busy, ov.makespan);
        let total = e.busy + e.stall_transfer + e.stall_other + e.idle;
        assert!(
            (total - ov.makespan).abs() <= ov.makespan * REL_EPS,
            "{what} {name}: busy+stalls+idle {total} != makespan {}",
            ov.makespan
        );
    }
}

#[test]
fn makespan_never_exceeds_serialized() {
    for (name, g) in pin_codes() {
        let r = partition(&g, &pin_cfg()).unwrap();
        let ov = r.overlap.unwrap();
        assert_engines_tile_makespan(&ov, name);
        assert!(
            ov.makespan <= ov.serialized * (1.0 + REL_EPS),
            "{name}: makespan {} > serialized {}",
            ov.makespan,
            ov.serialized
        );
        assert_eq!(ov.serialized, r.result.ledger.total(), "{name}: serialized is the ledger");
    }
    let g = grid2d(160, 160);
    for d in [2usize, 4] {
        for link in [LinkConfig::pcie_gen2(), LinkConfig::nvlink()] {
            let cfg = MultiGpuConfig::new(pin_cfg(), d).with_link(link);
            let r = partition_multi(&g, &cfg).unwrap();
            let ov = r.overlap.unwrap();
            assert_engines_tile_makespan(&ov, &format!("d={d}"));
            assert!(
                ov.makespan <= ov.serialized * (1.0 + REL_EPS),
                "d={d}: makespan {} > serialized {}",
                ov.makespan,
                ov.serialized
            );
        }
    }
}

#[test]
fn multi_gpu_scales_memory_time_and_overlap() {
    // big enough that layout prefetch, chunked uploads and label-traffic
    // hiding all engage, and that sharding beats the single device
    let g = grid2d(400, 400);
    let run = |d| {
        partition_multi(&g, &MultiGpuConfig::new(GpMetisConfig::new(8).with_seed(1), d)).unwrap()
    };
    let one = run(1);
    let (peak1, t1) = (one.peak_device_bytes[0] as f64, one.result.modeled_seconds());
    let stall1 = one.overlap.unwrap().transfer_stall_fraction();
    for d in [2usize, 4, 8] {
        let r = run(d);
        // Sharding scales memory: the slack absorbs the halo graph, the
        // refinement state and shard-boundary rounding, and still fails
        // if any device holds O(n) state.
        let share = peak1 / d as f64;
        for (i, &p) in r.peak_device_bytes.iter().enumerate() {
            assert!(
                p as f64 <= 2.2 * share,
                "d={d}: device {i} peaks at {p} B, over 2.2x the 1/D share ({share:.0} B)"
            );
        }
        let td = r.result.modeled_seconds();
        assert!(td < t1, "d={d}: modeled {td:.6}s does not beat one device ({t1:.6}s)");
        // The schedule beats the serialized fold, and the transfers that
        // concentrate on the sharded pipeline's links stall compute more
        // than on one device, but never for half the makespan.
        let ov = r.overlap.unwrap();
        assert!(ov.speedup() > 1.01, "d={d}: speedup {:.4} not > 1.01", ov.speedup());
        let stall = ov.transfer_stall_fraction();
        assert!(
            stall > stall1,
            "d={d}: transfer stall {stall:.4} not above one device's {stall1:.4}"
        );
        assert!(stall < 0.5, "d={d}: compute stalls on transfers for {stall:.4} of the makespan");
    }
}

#[test]
fn checkpoint_download_streams_behind_next_level() {
    // An armed checkpoint (fallback + an active plan whose single
    // transient fault is retried away, clean finish) downloads every
    // level on the D2H copy engine while the next level's kernels run —
    // the schedule must come in under the serialized sum, which charges
    // those downloads end-to-end.
    let g = delaunay_like(6_000, 2);
    let cfg = pin_cfg().with_fallback(true);
    let r = partition(&g, &cfg).unwrap();
    assert!(r.overlap.as_ref().unwrap().speedup() == 1.0, "no checkpoints → serial chain");
    let plan = FaultPlan::new(11).with("gpu.h2d", Selector::One(1), FaultKind::TransferError);
    let ck = gp_metis::partition_with_plan(&g, &cfg, Some(plan)).unwrap();
    assert!(!ck.report.degraded);
    assert!(ck.report.checkpoint_gpu_levels >= 1, "checkpoint must be armed");
    let ov = ck.overlap.unwrap();
    assert!(
        ov.makespan < ov.serialized,
        "checkpoint streaming must overlap: makespan {} vs serialized {}",
        ov.makespan,
        ov.serialized
    );
    assert_eq!(ov.makespan.to_bits(), 0x3f73de5d51008fc1, "checkpointed makespan");
    assert_eq!(ov.serialized.to_bits(), 0x3f74f7eb198378c3, "checkpointed serialized");
    assert_eq!(ck.result.part, r.result.part, "checkpointing must not change the answer");
}

#[test]
fn no_report_on_degraded_path() {
    let g = delaunay_like(3_000, 2);
    // degraded: device lost mid-coarsening, CPU resumes from checkpoint —
    // the schedule would misrepresent a run that left the modeled device
    let cfg = pin_cfg().with_fallback(true);
    let plan = FaultPlan::new(7).with("gpu.launch", Selector::One(8), FaultKind::DeviceLost);
    let r = gp_metis::partition_with_plan(&g, &cfg, Some(plan)).unwrap();
    assert!(r.report.degraded, "fault plan must actually degrade the run");
    assert!(r.overlap.is_none(), "degraded run must not report a schedule");
}

#[test]
fn overlap_report_is_reproducible() {
    let g = grid2d(200, 200);
    let cfg = MultiGpuConfig::new(pin_cfg(), 4);
    let a = partition_multi(&g, &cfg).unwrap().overlap.unwrap();
    let b = partition_multi(&g, &cfg).unwrap().overlap.unwrap();
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.serialized.to_bits(), b.serialized.to_bits());
    assert_eq!(a.render(), b.render());
}
