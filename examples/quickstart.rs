//! Quickstart: partition a mesh with GP-metis in a dozen lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gp_metis_repro::gpmetis::{self, GpMetisConfig};
use gp_metis_repro::graph::gen::delaunay_like;
use gp_metis_repro::graph::metrics::{comm_volume, edge_cut, imbalance};

fn main() {
    // 1. A graph: here a 50k-vertex planar triangulation (stand-in for
    //    the paper's delaunay_n20 input); swap in your own CsrGraph or
    //    load a Metis file with `graph::stream::read_metis_mmap`.
    let g = delaunay_like(50_000, 42);
    println!("graph: {:?}", g);

    // 2. Configure: 64 partitions at 3% imbalance, the paper's settings.
    let cfg = GpMetisConfig::new(64).with_seed(7);

    // 3. Partition on the hybrid CPU-GPU pipeline.
    let r = gpmetis::partition(&g, &cfg).expect("graph fits in device memory");

    // 4. Inspect the result.
    println!("edge cut      : {}", edge_cut(&g, &r.result.part));
    println!("imbalance     : {:.4}", imbalance(&g, &r.result.part, 64));
    println!("comm volume   : {}", comm_volume(&g, &r.result.part));
    println!(
        "levels        : {} ({} on GPU, {} on CPU)",
        r.result.levels, r.gpu.gpu_levels, r.gpu.cpu_levels
    );
    println!("modeled time  : {:.4} s (testbed model)", r.result.modeled_seconds());
    println!("  GPU kernels : {:.4} s", r.gpu.gpu_seconds);
    println!("  transfers   : {:.4} s ({} bytes)", r.gpu.transfer_seconds, r.gpu.transfer_bytes);
    println!("match conflicts resolved: {}", r.gpu.match_conflicts);
    println!("refinement moves        : {}", r.gpu.refine_moves);
}
