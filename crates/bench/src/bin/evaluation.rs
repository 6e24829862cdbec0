//! Regenerates the paper's evidence: Fig. 5 and Tables II–III with no
//! arguments (the default run is `eval_small.txt`), Table I with `table1`,
//! and `ablations.txt` with `ablations` (`ablations <name> [n]` runs one;
//! see `gpm_bench::parse_command`). A bad argument, `GPM_SCALE` or
//! `GPM_RUNS` is an error (exit 1).
//!
//! ```text
//! GPM_SCALE=small GPM_RUNS=3 cargo run --release -p gpm-bench --bin evaluation
//! GPM_SCALE=small cargo run --release -p gpm-bench --bin evaluation -- table1
//! cargo run --release -p gpm-bench --bin evaluation -- ablations [<name> [n]]
//! ```

use gpm_bench::{ablations, parse_command, print_results, print_table1, run_suite};
use gpm_bench::{Command, EvalConfig};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_command(&args)? {
        Command::Tables => print_results(&run_suite(&EvalConfig::from_env()?)),
        Command::Table1 => print_table1(&EvalConfig::from_env()?),
        Command::AllAblations => ablations::run_all(),
        Command::Ablation(a, n) => (a.run)(n),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
