//! Runs the full evaluation once and prints the paper's results: Fig. 5,
//! Table II and Table III. The default run (small scale, one run) is
//! committed as `eval_small.txt`. A `GPM_SCALE` or `GPM_RUNS` value it
//! cannot read is an error (exit 1).
//!
//! ```text
//! GPM_SCALE=small GPM_RUNS=3 cargo run --release -p gpm-bench --bin evaluation
//! ```

use gpm_bench::{print_fig5, print_table2, print_table3, run_suite, EvalConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match EvalConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = run_suite(&cfg);
    print_fig5(&results);
    print_table2(&results);
    print_table3(&results);
    println!("\n(imbalance check)");
    for r in &results {
        println!(
            "{:<12} Metis {:.3}  ParMetis {:.3}  mt-metis {:.3}  GP-Metis {:.3}",
            r.graph.name(),
            r.metis.imbalance,
            r.parmetis.imbalance,
            r.mtmetis.imbalance,
            r.gpmetis.imbalance,
        );
    }
    ExitCode::SUCCESS
}
