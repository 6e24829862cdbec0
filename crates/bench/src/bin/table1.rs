//! Regenerates Table I: the input graphs of the evaluation, alongside the
//! real DIMACS sizes they stand in for.
//!
//! ```text
//! GPM_SCALE=small cargo run --release -p gpm-bench --bin table1
//! ```

use gpm_bench::EvalConfig;
use gpm_graph::gen::PaperGraph;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match EvalConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("Table I — Input graphs (generated stand-ins at scale {:?})", cfg.scale);
    println!(
        "{:<12} {:>12} {:>12} {:>9} | {:>12} {:>12}  Description",
        "Graph", "Vertices", "Edges", "AvgDeg", "Paper |V|", "Paper |E|"
    );
    for pg in PaperGraph::ALL {
        let g = pg.generate(cfg.scale, cfg.seed);
        println!(
            "{:<12} {:>12} {:>12} {:>9.2} | {:>12} {:>12}  {}",
            pg.name(),
            g.n(),
            g.m(),
            g.avg_degree(),
            pg.paper_vertices(),
            pg.paper_edges(),
            pg.description(),
        );
    }
    ExitCode::SUCCESS
}
