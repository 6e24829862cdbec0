//! `gpm-serve` — run the partition-as-a-service daemon.
//!
//! ```text
//! gpm-serve [--addr 127.0.0.1:0] [--port-file PATH] [--workers 2]
//!           [--queue 64] [--cache 128] [--quiet]
//!           [--idle-ms 300000] [--read-deadline-ms 30000]
//!           [--max-frames 0] [--max-bytes 0] [--breaker T:W:C]
//! ```
//!
//! Binds the socket, prints `gpm-serve listening on ADDR` (and writes
//! `ADDR` to `--port-file`, for scripts that started us with port 0),
//! then serves until a client sends a `Shutdown` frame. On shutdown the
//! queue is drained, every worker and connection thread is joined, and a
//! `clean shutdown` summary line is printed — the CI serve-smoke stage
//! greps for it to prove no leaked threads.

use gpm_serve::{start, ServeConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gpm-serve [--addr 127.0.0.1:0] [--port-file PATH] [--workers 2]\n\
         \x20               [--queue 64] [--cache 128] [--quiet]\n\
         \x20               [--idle-ms 300000] [--read-deadline-ms 30000]\n\
         \x20               [--max-frames 0] [--max-bytes 0] [--breaker T:W:C]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = argv.next().unwrap_or_else(|| usage()),
            "--port-file" => port_file = Some(argv.next().unwrap_or_else(|| usage())),
            "--workers" => {
                cfg.workers = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--queue" => {
                cfg.queue_cap = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--cache" => {
                cfg.cache_cap = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--quiet" => cfg.quiet = true,
            "--idle-ms" => {
                cfg.idle_timeout_ms =
                    argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--read-deadline-ms" => {
                cfg.read_deadline_ms =
                    argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--max-frames" => {
                cfg.max_frames = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--max-bytes" => {
                cfg.max_bytes = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--breaker" => {
                cfg.breaker = argv
                    .next()
                    .and_then(|s| gpm_serve::breaker::BreakerConfig::parse(&s))
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    if cfg.workers == 0 || cfg.queue_cap == 0 {
        eprintln!("error: --workers and --queue must be at least 1");
        return ExitCode::FAILURE;
    }

    let handle = match start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    println!("gpm-serve listening on {addr}");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("error: cannot write port file {path}: {e}");
            handle.shutdown();
            let _ = handle.join();
            return ExitCode::FAILURE;
        }
    }

    let summary = handle.join();
    println!(
        "clean shutdown: {} jobs completed, 0 in flight, {} threads joined \
         (cache {} hits / {} misses, {} rejected, {} deadline-expired, {} degraded, \
         {} panicked, {} respawns)",
        summary.completed,
        summary.threads_joined,
        summary.cache_hits,
        summary.cache_misses,
        summary.rejected,
        summary.deadline_expired,
        summary.degraded,
        summary.panicked,
        summary.worker_respawns,
    );
    ExitCode::SUCCESS
}
