//! Partitioning a continental road network — the paper's USA-roads
//! workload, and the hardest class for GPUs: extremely sparse, huge
//! diameter, highly irregular small-scale structure.
//!
//! Demonstrates loading/saving Metis files and watching the multilevel
//! hierarchy shrink the graph level by level.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use gp_metis_repro::gpmetis::{self, GpMetisConfig};
use gp_metis_repro::graph::gen::usa_roads_like;
use gp_metis_repro::graph::io::write_metis_file;
use gp_metis_repro::graph::metrics::{edge_cut, imbalance};
use gp_metis_repro::graph::stream::read_metis_mmap;

fn main() {
    let k = 64;
    // Generate a 200k-vertex road-like network. If you have the real
    // DIMACS9 USA file, convert it with `graph::io::read_dimacs9` instead.
    let g = usa_roads_like(200_000, 99);
    println!("road network: {:?}", g);

    // Round-trip through the Metis file format with the streaming
    // loader (drop your own .graph files in the same place to partition
    // them).
    let path = std::env::temp_dir().join("usa_roads_like.graph");
    write_metis_file(&g, &path).expect("write");
    let g = read_metis_mmap(&path).expect("read");
    println!("round-tripped through {}", path.display());

    let r = gpmetis::partition(&g, &GpMetisConfig::new(k).with_seed(3))
        .expect("graph fits in device memory");

    println!("\nk = {k}:");
    println!("edge cut  : {}", edge_cut(&g, &r.result.part));
    println!("imbalance : {:.4} (tolerance 1.03)", imbalance(&g, &r.result.part, k));
    println!(
        "levels    : {} total, {} on the GPU (threshold {})",
        r.result.levels,
        r.gpu.gpu_levels,
        GpMetisConfig::new(k).gpu_threshold
    );
    println!("\nmodeled phase breakdown:");
    for (name, secs) in &r.result.ledger.phases {
        if *secs > 1e-5 {
            println!("  {name:<28} {secs:>10.5} s");
        }
    }
    std::fs::remove_file(&path).ok();
}
