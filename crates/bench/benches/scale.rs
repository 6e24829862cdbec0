//! Big-graph scale tier: the out-of-core input path measured end to end
//! at 10M / 50M / 100M edges. For each size the bench generates a
//! mesh-family graph, serializes it to an in-memory METIS file image,
//! and records
//!
//! * load wall time and peak heap for the two-pass streaming loader
//!   (`read_metis_streamed`),
//! * partition wall time, modeled (paper-testbed) time, and peak heap
//!   for the serial Metis engine at k = 8.
//!
//! Peak heap comes from the `gpm-testkit` allocator watermark
//! ([`CountingAlloc::peak_bytes`]), reset at each phase boundary so every
//! number is "bytes above the phase's entry live-set". Writes
//! `BENCH_scale.json`.
//!
//! The bench doubles as the CI scale-smoke's peak-RSS assertion: on any
//! graph past half a million edges the streaming loader's peak must stay
//! within 2x the CSR it builds — if it regresses, the binary panics and
//! the smoke stage fails.
//!
//! Sizes honor `GPM_BENCH_SCALE` (CI runs a fraction; the committed
//! baseline is the full 1.0 run).

use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::grid2d;
use gpm_graph::io::write_metis;
use gpm_graph::stream::read_metis_streamed;
use gpm_metis::{partition, MetisConfig};
use gpm_testkit::alloc::CountingAlloc;
use gpm_testkit::bench::{black_box, scaled, BenchSuite};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Measure one closure's wall time and peak heap above the current
/// live-set, in that order.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u128, u64) {
    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();
    let t0 = Instant::now();
    let out = black_box(f());
    let ns = t0.elapsed().as_nanos();
    (out, ns, ALLOC.peak_bytes().saturating_sub(base))
}

/// A square grid whose edge count is as close to `target_m` as the
/// family allows (`m = 2s^2 - 2s` for an `s x s` grid).
fn grid_with_edges(target_m: usize) -> CsrGraph {
    let side = ((target_m as f64 / 2.0).sqrt().round() as usize).max(2);
    grid2d(side, side)
}

fn run_size(b: &mut BenchSuite, label: &str, target_m: usize) {
    let g = grid_with_edges(target_m);
    let (n, m, csr_bytes) = (g.n(), g.m(), g.bytes());
    let mut file = Vec::new();
    write_metis(&g, &mut file).expect("serialize");
    drop(g);
    eprintln!("[scale/{label}] n = {n}, m = {m}, file = {} bytes", file.len());
    b.record_value(&format!("scale/{label}/vertices"), n as u128);
    b.record_value(&format!("scale/{label}/edges"), m as u128);
    b.record_value(&format!("scale/{label}/file_bytes"), file.len() as u128);
    b.record_value(&format!("scale/{label}/csr_bytes"), csr_bytes as u128);

    // Two-pass streaming loader (the parser gpartition maps a file into;
    // here the file image is already in memory, so the numbers isolate
    // parse cost from I/O).
    let (gs, stream_ns, stream_peak) =
        measured(|| read_metis_streamed(&file).expect("streamed parse"));
    b.record_value(&format!("scale/{label}/load_streamed_ns"), stream_ns);
    b.record_value(&format!("scale/{label}/load_streamed_peak_bytes"), stream_peak as u128);

    // Peak-RSS assertion (the CI scale-smoke gate). Only meaningful once
    // the graph dwarfs constant-size scratch, so gate on 500k edges.
    if m >= 500_000 {
        assert!(
            (stream_peak as f64) <= 2.0 * csr_bytes as f64,
            "scale/{label}: streaming loader peak ({stream_peak} B) exceeds 2x \
             the CSR it builds ({csr_bytes} B)"
        );
    }

    drop(file);

    // Partition (serial Metis, k = 8): wall time, the paper-testbed
    // modeled time, and the engine's peak working set above the graph.
    let cfg = MetisConfig::new(8).with_seed(1);
    let (r, part_ns, part_peak) = measured(|| partition(&gs, &cfg));
    b.record_value(&format!("scale/{label}/partition_wall_ns"), part_ns);
    b.record_value(
        &format!("scale/{label}/partition_modeled_ns"),
        (r.ledger.total() * 1e9) as u128,
    );
    b.record_value(&format!("scale/{label}/partition_peak_bytes"), part_peak as u128);
    assert_eq!(r.part.len(), n, "scale/{label}: partition is not vertex-complete");
}

fn main() {
    let mut b = BenchSuite::new("scale");
    for (label, target_m) in
        [("grid-10M", 10_000_000), ("grid-50M", 50_000_000), ("grid-100M", 100_000_000)]
    {
        run_size(&mut b, label, scaled(target_m));
    }
    b.finish();
}
