//! Overlap tier (ISSUE 10): the overlap-aware execution timeline
//! (DESIGN.md section 16) measured at 10M / 50M edges for D in
//! {1, 2, 4} devices on the PCIe-gen2 fabric. For each configuration
//! the bench records
//!
//! * serialized modeled seconds (the running-sum ledger total) and the
//!   overlapped makespan (critical path over the op DAG),
//! * the speedup and the compute engines' transfer-stall fraction,
//! * wall time and edge cut.
//!
//! In-bench asserts (the CI overlap-smoke gate re-runs these at a
//! fraction of the size):
//!
//! * the makespan never exceeds the serialized total (every op duration
//!   is carved out of a ledger phase charge, so the DAG can only
//!   reorder, never invent, time) at every size and device count,
//! * at the full-scale 50M tier only: multi-GPU overlap hides >= 8% of
//!   the serialized time (measured: ~11% for D in {2, 4} — shard
//!   cutting, compute, and the merge/initial-partition bridge pin the
//!   critical path; what remains hideable is halo layouts, 7/8 of the
//!   chunked uploads, and label/allreduce traffic), the clean
//!   single-device run stays at speedup 1.0 (no checkpoint traffic, so
//!   its chain is fully serial), and the multi-GPU transfer-stall
//!   fraction exceeds the single-device one (transfers concentrate on
//!   the sharded pipeline's links).
//!
//! Sizes honor `GPM_BENCH_SCALE` (CI runs a fraction; the committed
//! baseline is the full 1.0 run). Writes `BENCH_overlap.json`.

use gp_metis::multi_gpu::{partition_multi, MultiGpuConfig};
use gp_metis::{partition, GpMetisConfig};
use gpm_gpu_sim::OverlapReport;
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::grid2d;
use gpm_testkit::bench::{black_box, BenchSuite};
use std::time::Instant;

/// Tolerance for makespan-vs-serialized comparisons: op durations tile
/// the ledger's phase charges exactly, but the telescoped per-op sums
/// differ from the phase totals by float-summation ULPs.
const REL_EPS: f64 = 1e-9;

/// A square grid whose edge count is as close to `target_m` as the
/// family allows (`m = 2s^2 - 2s` for an `s x s` grid).
fn grid_with_edges(target_m: usize) -> CsrGraph {
    let side = ((target_m as f64 / 2.0).sqrt().round() as usize).max(2);
    grid2d(side, side)
}

fn base(k: usize) -> GpMetisConfig {
    GpMetisConfig::new(k).with_seed(1)
}

/// Record one configuration's overlap numbers and check the tiling
/// invariant. Returns the report for the cross-configuration asserts.
fn record(b: &mut BenchSuite, tag: &str, ov: &OverlapReport, cut: u64, wall: u128) {
    b.record_value(&format!("{tag}/wall_ns"), wall);
    b.record_value(&format!("{tag}/serialized_ns"), (ov.serialized * 1e9) as u128);
    b.record_value(&format!("{tag}/makespan_ns"), (ov.makespan * 1e9) as u128);
    b.record_value(&format!("{tag}/speedup_milli"), (ov.speedup() * 1e3) as u128);
    b.record_value(
        &format!("{tag}/xfer_stall_milli"),
        (ov.transfer_stall_fraction() * 1e3) as u128,
    );
    b.record_value(&format!("{tag}/edge_cut"), cut as u128);
    eprintln!(
        "[{tag}] serialized {:.6}s, makespan {:.6}s, speedup {:.4}x, xfer stall {:.3}",
        ov.serialized,
        ov.makespan,
        ov.speedup(),
        ov.transfer_stall_fraction()
    );
    assert!(
        ov.makespan <= ov.serialized * (1.0 + REL_EPS),
        "{tag}: overlapped makespan ({:.9}s) exceeds the serialized total ({:.9}s)",
        ov.makespan,
        ov.serialized
    );
}

fn run_size(b: &mut BenchSuite, label: &str, target_m: usize, full_scale: bool) {
    let g = grid_with_edges(target_m);
    eprintln!("[overlap/{label}] n = {}, m = {}, CSR {} bytes", g.n(), g.m(), g.bytes());
    b.record_value(&format!("overlap/{label}/vertices"), g.n() as u128);
    b.record_value(&format!("overlap/{label}/edges"), g.m() as u128);

    // Single device: the clean GPU path has no checkpoint traffic, so
    // every op chains compute -> transfer serially and the DAG's
    // critical path equals the serialized total.
    let t0 = Instant::now();
    let r1 = black_box(partition(&g, &base(8)).expect("single-GPU partition"));
    let wall = t0.elapsed().as_nanos();
    let ov1 = r1.overlap.clone().expect("clean single-GPU run carries an overlap report");
    record(b, &format!("overlap/{label}/d1"), &ov1, r1.result.edge_cut, wall);

    let mut multi = Vec::new();
    for d in [2usize, 4] {
        let cfg = MultiGpuConfig::new(base(8), d);
        let t0 = Instant::now();
        let r = black_box(partition_multi(&g, &cfg).expect("multi-GPU partition"));
        let wall = t0.elapsed().as_nanos();
        let ov = r.overlap.clone().expect("clean multi-GPU run carries an overlap report");
        record(b, &format!("overlap/{label}/d{d}"), &ov, r.result.edge_cut, wall);
        multi.push((d, ov));
    }

    // Calibrated speedup/stall floors hold only at the genuine 50M tier
    // (at CI's scaled-down sizes the merge/initial-partition bridge and
    // per-pass latencies loom larger, so only the structural asserts
    // above run there).
    if full_scale {
        assert!(
            (ov1.speedup() - 1.0).abs() <= REL_EPS,
            "overlap/{label}: clean single-GPU speedup should be 1.0, got {:.6}",
            ov1.speedup()
        );
        for (d, ov) in &multi {
            assert!(
                ov.speedup() >= 1.08,
                "overlap/{label}: D={d} hides less than 8% of the serialized time \
                 (speedup {:.4})",
                ov.speedup()
            );
            assert!(
                ov.transfer_stall_fraction() > ov1.transfer_stall_fraction(),
                "overlap/{label}: D={d} transfer-stall fraction ({:.4}) should exceed the \
                 single-device one ({:.4})",
                ov.transfer_stall_fraction(),
                ov1.transfer_stall_fraction()
            );
            assert!(
                ov.transfer_stall_fraction() < 0.5,
                "overlap/{label}: D={d} compute engines stall on transfers more than half \
                 the makespan ({:.4})",
                ov.transfer_stall_fraction()
            );
        }
    }
}

fn main() {
    let mut b = BenchSuite::new("overlap");
    let scale: f64 =
        std::env::var("GPM_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let sizes = [("grid-10M", 10_000_000), ("grid-50M", 50_000_000)];
    for (i, (label, target_m)) in sizes.iter().enumerate() {
        let m = ((*target_m as f64 * scale) as usize).max(10_000);
        run_size(&mut b, label, m, i == sizes.len() - 1 && scale >= 1.0);
    }
    b.finish();
}
