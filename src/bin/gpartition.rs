//! `gpartition` — command-line partitioner in the style of the Metis
//! `gpmetis` tool, backed by any of the four engines in this workspace.
//!
//! ```text
//! gpartition <graph.metis> <k> [--algo gpmetis|metis|mtmetis|parmetis]
//!            [--ub 1.03] [--seed 1] [--threads 8] [--ranks 8]
//!            [--gpu-threshold N] [--fallback] [--output out.part] [--quiet]
//!            [--eval existing.part] [--devices D] [--interconnect pcie|nvlink]
//!            [--timeline]
//! ```
//!
//! The input is a Metis `.graph` file (or a DIMACS9 `.gr` file when the
//! path ends in `.gr`); the output (with `--output`) is one partition id
//! per line, in vertex order — the same format Metis writes.
//!
//! `.graph` files load through the memory-mapped streaming loader
//! ([`read_metis_mmap`]), which rejects a file that is not canonical
//! METIS (duplicate neighbors, an edge listed by one endpoint only,
//! self-loops) rather than partition a repaired graph. `--eval p.part`
//! skips partitioning and scores an existing partition file instead
//! (labels validated against `k`). The run always reports its peak heap
//! use.
//!
//! Overlap: the gpmetis engines evaluate an overlap-aware execution
//! timeline (streams, double-buffered transfers, comm/compute overlap —
//! DESIGN.md §16) alongside the serialized ledger. It is pure accounting:
//! the partition and the serialized ledger never depend on it.
//! `--timeline` prints the per-engine occupancy/stall ledger to stderr.
//!
//! Multi-GPU: `--devices D` (gpmetis only) shards the graph across `D`
//! simulated GPUs joined by the `--interconnect` fabric (`pcie` default,
//! `nvlink` for peer-to-peer links) and reports a per-device summary and
//! the per-link transfer ledger on stderr. `--devices 0`, and a fault
//! plan or `--fallback` at two or more devices, are rejected with a typed
//! configuration error. The engine flags `--devices`, `--interconnect`,
//! `--fallback` and `--gpu-threshold` are rejected with any other
//! `--algo`, and `--interconnect` is rejected without `--devices`, rather
//! than silently ignored.
//!
//! Engine flags: `--seed --ub --algo --fallback --gpu-threshold --threads
//! --ranks` are read by the parser `gpm-loadgen submit` shares
//! ([`gp_metis_repro::cli`]) into the same job request the daemon decodes,
//! and the engines are configured through that request's one mapping. The
//! request is validated before any engine runs: `--ub` must be finite in
//! [1, 10], `--threads` and `--ranks` in [1, 4096], and `k` at most the
//! vertex count. `--gpu-threshold` takes a switchover of at least 1 (0 is
//! the wire's "engine default"; leave the flag out for that).
//!
//! Fault injection: set `GPM_FAULTS=<seed>:<spec>[,<spec>...]` to run the
//! hybrid engine under a deterministic fault schedule (see `gpm-faults`),
//! e.g. `GPM_FAULTS="7:gpu.launch@8=lost"`. With `--fallback`, an
//! unrecoverable device failure degrades to the CPU engine from the last
//! checkpointed level instead of failing the run.

use gp_metis_repro::cli::{check_engine_flags, engine_flag, FlagError};
use gp_metis_repro::gpmetis;
use gp_metis_repro::gpmetis::multi_gpu::{partition_multi, MultiGpuConfig};
use gp_metis_repro::gpu::LinkConfig;
use gp_metis_repro::graph::csr::CsrGraph;
use gp_metis_repro::graph::io;
use gp_metis_repro::graph::metrics::{comm_volume, edge_cut, imbalance};
use gp_metis_repro::graph::stream::read_metis_mmap;
use gp_metis_repro::serve::protocol::{Algo, JobRequest};
use gp_metis_repro::{metis, mtmetis, parmetis};
use gpm_testkit::alloc::CountingAlloc;
use std::process::ExitCode;

/// Counting allocator so every run can report its peak heap use — the
/// number the out-of-core loader work exists to shrink.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    input: String,
    /// The engine options; the graph is moved in once it is loaded.
    req: JobRequest,
    output: Option<String>,
    quiet: bool,
    eval: Option<String>,
    devices: Option<usize>,
    interconnect: Option<String>,
    timeline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gpartition <graph.metis|graph.gr> <k> [--algo gpmetis|metis|mtmetis|parmetis]\n\
         \x20                [--ub 1.03] [--seed 1] [--threads 8] [--ranks 8]\n\
         \x20                [--gpu-threshold N] [--fallback] [--output out.part] [--quiet]\n\
         \x20                [--eval existing.part] [--devices D] [--interconnect pcie|nvlink]\n\
         \x20                [--timeline]"
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, FlagError> {
    let mut argv = std::env::args().skip(1);
    let input = argv.next().unwrap_or_else(|| usage());
    let k = argv.next().and_then(|s| s.parse().ok()).filter(|&k| k >= 1).unwrap_or_else(|| usage());
    let mut a = Args {
        input,
        req: JobRequest::new(CsrGraph::empty(), k),
        output: None,
        quiet: false,
        eval: None,
        devices: None,
        interconnect: None,
        timeline: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--timeline" => a.timeline = true,
            "--output" => a.output = Some(argv.next().unwrap_or_else(|| usage())),
            "--quiet" => a.quiet = true,
            "--eval" => a.eval = Some(argv.next().unwrap_or_else(|| usage())),
            "--devices" => {
                a.devices =
                    Some(argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--interconnect" => a.interconnect = Some(argv.next().unwrap_or_else(|| usage())),
            other => {
                if !engine_flag(&mut a.req, other, &mut argv)? {
                    usage()
                }
            }
        }
    }
    Ok(a)
}

/// The gpmetis-only flags, gpartition's own included, are rejected with
/// any other engine instead of being silently ignored; so is a fabric
/// without a device count.
fn check_flags(a: &Args) -> Result<(), String> {
    let own = [("--devices", a.devices.is_some()), ("--interconnect", a.interconnect.is_some())];
    check_engine_flags(&a.req, &own)?;
    if a.interconnect.is_some() && a.devices.is_none() {
        return Err("--interconnect needs --devices".into());
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

fn run() -> Result<(), String> {
    let mut a = parse_args().map_err(|e| e.to_string())?;
    check_flags(&a)?;
    let (g, loader) = if a.input.ends_with(".gr") {
        let f =
            std::fs::File::open(&a.input).map_err(|e| format!("cannot open {}: {e}", a.input))?;
        (io::read_dimacs9(std::io::BufReader::new(f)), "DIMACS9")
    } else {
        (read_metis_mmap(&a.input), "streaming mmap")
    };
    let g = g.map_err(|e| e.to_string())?;
    if !a.quiet {
        eprintln!(
            "read {:?} via {loader} loader (load peak heap {:.1} MiB)",
            g,
            ALLOC.peak_bytes() as f64 / (1 << 20) as f64
        );
    }

    let k = a.req.k as usize;
    if let Some(part_path) = &a.eval {
        // score an existing partition instead of computing one
        let f =
            std::fs::File::open(part_path).map_err(|e| format!("cannot open {part_path}: {e}"))?;
        let part = io::read_partition_checked(std::io::BufReader::new(f), Some(a.req.k))
            .map_err(|e| format!("{part_path}: {e}"))?;
        if part.len() != g.n() {
            return Err(format!("{part_path}: {} labels for {} vertices", part.len(), g.n()));
        }
        println!("{k} {} {}", edge_cut(&g, &part), imbalance(&g, &part, k));
        return Ok(());
    }

    a.req.graph = g;
    a.req.validate().map_err(|e| e.to_string())?;
    let (req, g) = (&a.req, &a.req.graph);
    let (part, modeled, name, overlap) = match req.algo {
        Algo::Metis => {
            let r = metis::partition(g, &req.metis_config());
            (r.part, r.ledger.total(), "Metis (serial)", None)
        }
        Algo::MtMetis => {
            let r = mtmetis::partition(g, &req.mtmetis_config());
            (r.part, r.ledger.total(), "mt-metis (shared-memory)", None)
        }
        Algo::ParMetis => {
            let r = parmetis::try_partition(g, &req.parmetis_config())
                .map_err(|e| format!("parmetis cluster failed: {e}"))?;
            (r.part, r.ledger.total(), "ParMetis (distributed)", None)
        }
        Algo::GpMetis => {
            let c = req.gpmetis_config();
            if let Some(devices) = a.devices {
                let fabric = a.interconnect.as_deref().unwrap_or("pcie");
                let link = LinkConfig::by_name(fabric)
                    .ok_or_else(|| format!("unknown interconnect {fabric:?}"))?;
                let cfg = MultiGpuConfig::new(c, devices).with_link(link);
                let r = partition_multi(g, &cfg).map_err(|e| e.to_string())?;
                if !a.quiet {
                    eprintln!(
                        "devices        : {} over {} ({})",
                        r.devices,
                        fabric,
                        if cfg.link.p2p { "peer-to-peer" } else { "staged via host" }
                    );
                    for i in 0..r.devices {
                        eprintln!(
                            "  gpu{i}: {} GPU level(s), peak {:.1} MiB",
                            r.gpu_levels[i],
                            r.peak_device_bytes[i] as f64 / (1 << 20) as f64
                        );
                    }
                    for (src, dst, ls) in &r.link_stats {
                        eprintln!(
                            "  link {src}->{dst}: {} B in {} transfer(s), {:.6} s",
                            ls.bytes, ls.transfers, ls.seconds
                        );
                    }
                    eprintln!(
                        "interconnect   : {} B total, {:.6} s modeled; {} boundary vertices",
                        r.interconnect_bytes, r.interconnect_seconds, r.boundary_vertices
                    );
                }
                (r.result.part, r.result.ledger.total(), "GP-metis (multi-GPU)", r.overlap)
            } else {
                let r = gpmetis::partition(g, &c).map_err(|e| e.to_string())?;
                if !a.quiet && r.report.faults_injected > 0 {
                    eprintln!(
                        "faults         : {} injected, {} retried",
                        r.report.faults_injected, r.report.device_retries
                    );
                }
                if r.report.degraded {
                    eprintln!(
                        "degraded       : GPU lost at {} ({}); resumed on CPU from checkpoint \
                         of {} GPU level(s)",
                        r.report.degrade_point.as_deref().unwrap_or("?"),
                        r.report.device_error.as_deref().unwrap_or("?"),
                        r.report.checkpoint_gpu_levels
                    );
                }
                (r.result.part, r.result.ledger.total(), "GP-metis (hybrid CPU-GPU)", r.overlap)
            }
        }
    };

    if !a.quiet {
        eprintln!("algorithm      : {name}");
        eprintln!("edge cut       : {}", edge_cut(g, &part));
        eprintln!("imbalance      : {:.4} (tolerance {:.2})", imbalance(g, &part, k), req.ub());
        eprintln!("comm volume    : {}", comm_volume(g, &part));
        eprintln!("modeled time   : {modeled:.4} s (paper-testbed model)");
        if let Some(ov) = &overlap {
            eprintln!(
                "overlapped     : {:.4} s ({:.2}x vs serialized, {:.1}% transfer stall)",
                ov.makespan,
                ov.speedup(),
                100.0 * ov.transfer_stall_fraction()
            );
        }
        eprintln!("peak heap      : {:.1} MiB", ALLOC.peak_bytes() as f64 / (1 << 20) as f64);
    }
    if a.timeline {
        match &overlap {
            Some(ov) => eprint!("{}", ov.render()),
            None => {
                eprintln!("timeline       : none (non-gpmetis engine, or degraded/CPU-only run)")
            }
        }
    }

    if let Some(out) = &a.output {
        std::fs::File::create(out)
            .map_err(io::IoError::from)
            .and_then(|f| io::write_partition(&part, f))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        if !a.quiet {
            eprintln!("wrote {out}");
        }
    } else {
        // summary to stdout so scripts can consume it
        println!("{k} {} {modeled}", edge_cut(g, &part));
    }
    Ok(())
}
