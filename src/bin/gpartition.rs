//! `gpartition` — command-line partitioner in the style of the Metis
//! `gpmetis` tool, backed by any of the four engines in this workspace.
//!
//! ```text
//! gpartition <graph.metis> <k> [--algo gpmetis|metis|mtmetis|parmetis]
//!            [--ub 1.03] [--seed 1] [--threads 8] [--ranks 8]
//!            [--gpu-threshold N] [--fallback] [--output out.part] [--quiet]
//!            [--mmap] [--compressed] [--eval existing.part]
//!            [--devices D] [--interconnect pcie|nvlink]
//!            [--timeline]
//! ```
//!
//! The input is a Metis `.graph` file (or a DIMACS9 `.gr` file when the
//! path ends in `.gr`); the output (with `--output`) is one partition id
//! per line, in vertex order — the same format Metis writes.
//!
//! Large graphs: `--mmap` loads `.graph` files through the streaming
//! memory-mapped parser (identical CSR, a fraction of the load-time peak
//! RSS); `--compressed` routes the graph through the varint-compressed
//! [`PackedCsr`] form and reports the compression; `--eval p.part` skips
//! partitioning and scores an existing partition file instead (labels
//! validated against `k`). The run always reports its peak heap use.
//!
//! [`PackedCsr`]: gp_metis_repro::graph::packed::PackedCsr
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
//! Fault injection: set `GPM_FAULTS=<seed>:<spec>[,<spec>...]` to run the
//! hybrid engine under a deterministic fault schedule (see `gpm-faults`),
//! e.g. `GPM_FAULTS="7:gpu.launch@8=lost"`. With `--fallback`, an
//! unrecoverable device failure degrades to the CPU engine from the last
//! checkpointed level instead of failing the run.

use gp_metis_repro::gpmetis;
use gp_metis_repro::gpmetis::multi_gpu::{partition_multi, MultiGpuConfig};
use gp_metis_repro::gpu::LinkConfig;
use gp_metis_repro::graph::io;
use gp_metis_repro::graph::metrics::{comm_volume, edge_cut, imbalance};
use gp_metis_repro::graph::packed::PackedCsr;
use gp_metis_repro::graph::stream::read_metis_mmap;
use gp_metis_repro::{metis, mtmetis, parmetis};
use gpm_testkit::alloc::CountingAlloc;
use std::io::Write;
use std::process::ExitCode;

/// Counting allocator so every run can report its peak heap use — the
/// number the out-of-core loader work exists to shrink.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    input: String,
    k: usize,
    algo: String,
    ub: f64,
    seed: u64,
    threads: usize,
    ranks: usize,
    output: Option<String>,
    quiet: bool,
    gpu_threshold: Option<usize>,
    fallback: bool,
    mmap: bool,
    compressed: bool,
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
         \x20                [--mmap] [--compressed] [--eval existing.part]\n\
         \x20                [--devices D] [--interconnect pcie|nvlink] [--timeline]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let input = argv.next().unwrap_or_else(|| usage());
    let k: usize = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let mut args = Args {
        input,
        k,
        algo: "gpmetis".into(),
        ub: 1.03,
        seed: 1,
        threads: 8,
        ranks: 8,
        output: None,
        quiet: false,
        gpu_threshold: None,
        fallback: false,
        mmap: false,
        compressed: false,
        eval: None,
        devices: None,
        interconnect: None,
        timeline: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--timeline" => args.timeline = true,
            "--algo" => args.algo = argv.next().unwrap_or_else(|| usage()),
            "--ub" => args.ub = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--seed" => {
                args.seed = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--threads" => {
                args.threads = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--ranks" => {
                args.ranks = argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--output" => args.output = Some(argv.next().unwrap_or_else(|| usage())),
            "--gpu-threshold" => {
                args.gpu_threshold =
                    Some(argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--fallback" => args.fallback = true,
            "--quiet" => args.quiet = true,
            "--mmap" => args.mmap = true,
            "--compressed" => args.compressed = true,
            "--eval" => args.eval = Some(argv.next().unwrap_or_else(|| usage())),
            "--devices" => {
                args.devices =
                    Some(argv.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--interconnect" => args.interconnect = Some(argv.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if args.k < 1 {
        usage();
    }
    args
}

/// Flags only the gpmetis engine reads are rejected with any other
/// engine instead of being silently ignored; so is a fabric without a
/// device count.
fn check_engine_flags(a: &Args) -> Result<(), String> {
    let engine_flags = [
        ("--devices", a.devices.is_some()),
        ("--interconnect", a.interconnect.is_some()),
        ("--fallback", a.fallback),
        ("--gpu-threshold", a.gpu_threshold.is_some()),
    ];
    let set: Vec<&str> = engine_flags.iter().filter(|f| f.1).map(|f| f.0).collect();
    if a.algo != "gpmetis" && !set.is_empty() {
        return Err(format!("--algo {} does not take {}", a.algo, set.join(", ")));
    }
    if a.interconnect.is_some() && a.devices.is_none() {
        return Err("--interconnect needs --devices".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = parse_args();
    if let Err(e) = check_engine_flags(&a) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut g = if a.input.ends_with(".gr") {
        let f = match std::fs::File::open(&a.input) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot open {}: {e}", a.input);
                return ExitCode::FAILURE;
            }
        };
        match io::read_dimacs9(std::io::BufReader::new(f)) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if a.mmap {
        match read_metis_mmap(&a.input) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match io::read_metis_file(&a.input) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if !a.quiet {
        eprintln!(
            "read {:?} via {} loader (load peak heap {:.1} MiB)",
            g,
            if a.mmap { "streaming mmap" } else { "buffered" },
            ALLOC.peak_bytes() as f64 / (1 << 20) as f64
        );
    }

    if a.compressed {
        let csr_bytes = g.bytes();
        let packed = PackedCsr::pack(&g);
        if !a.quiet {
            eprintln!(
                "compressed     : {:.1} MiB packed vs {:.1} MiB CSR ({:.2}x)",
                packed.bytes() as f64 / (1 << 20) as f64,
                csr_bytes as f64 / (1 << 20) as f64,
                csr_bytes as f64 / packed.bytes().max(1) as f64
            );
        }
        // hold the graph in compressed form; decompress for the engines
        drop(g);
        g = packed.to_csr();
    }

    if let Some(part_path) = &a.eval {
        // score an existing partition instead of computing one
        let f = match std::fs::File::open(part_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot open {part_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let part = match io::read_partition_checked(std::io::BufReader::new(f), Some(a.k as u32)) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {part_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if part.len() != g.n() {
            eprintln!("error: {part_path}: {} labels for {} vertices", part.len(), g.n());
            return ExitCode::FAILURE;
        }
        println!("{} {} {}", a.k, edge_cut(&g, &part), imbalance(&g, &part, a.k));
        return ExitCode::SUCCESS;
    }

    let (part, modeled, name, overlap) = match a.algo.as_str() {
        "metis" => {
            let mut c = metis::MetisConfig::new(a.k).with_seed(a.seed);
            c.ubfactor = a.ub;
            let r = metis::partition(&g, &c);
            (r.part, r.ledger.total(), "Metis (serial)", None)
        }
        "mtmetis" => {
            let mut c = mtmetis::MtMetisConfig::new(a.k).with_threads(a.threads).with_seed(a.seed);
            c.ubfactor = a.ub;
            let r = mtmetis::partition(&g, &c);
            (r.part, r.ledger.total(), "mt-metis (shared-memory)", None)
        }
        "parmetis" => {
            let mut c = parmetis::ParMetisConfig::new(a.k).with_ranks(a.ranks).with_seed(a.seed);
            c.ubfactor = a.ub;
            let r = parmetis::partition(&g, &c);
            (r.part, r.ledger.total(), "ParMetis (distributed)", None)
        }
        "gpmetis" => {
            let mut c = gpmetis::GpMetisConfig::new(a.k).with_seed(a.seed);
            c.ubfactor = a.ub;
            c.cpu_threads = a.threads;
            c.fallback = a.fallback;
            if let Some(t) = a.gpu_threshold {
                c.gpu_threshold = t;
            }
            if let Some(devices) = a.devices {
                let fabric = a.interconnect.as_deref().unwrap_or("pcie");
                let Some(link) = LinkConfig::by_name(fabric) else {
                    eprintln!("error: unknown interconnect {fabric:?}");
                    return ExitCode::FAILURE;
                };
                let cfg = MultiGpuConfig::new(c, devices).with_link(link);
                match partition_multi(&g, &cfg) {
                    Ok(r) => {
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
                                "interconnect   : {} B total, {:.6} s modeled; {} boundary \
                                 vertices",
                                r.interconnect_bytes, r.interconnect_seconds, r.boundary_vertices
                            );
                        }
                        (r.result.part, r.result.ledger.total(), "GP-metis (multi-GPU)", r.overlap)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match gpmetis::partition(&g, &c) {
                    Ok(r) => {
                        if !a.quiet && r.report.faults_injected > 0 {
                            eprintln!(
                                "faults         : {} injected, {} retried",
                                r.report.faults_injected, r.report.device_retries
                            );
                        }
                        if r.report.degraded {
                            eprintln!(
                                "degraded       : GPU lost at {} ({}); resumed on CPU from \
                             checkpoint of {} GPU level(s)",
                                r.report.degrade_point.as_deref().unwrap_or("?"),
                                r.report.device_error.as_deref().unwrap_or("?"),
                                r.report.checkpoint_gpu_levels
                            );
                        }
                        (
                            r.result.part,
                            r.result.ledger.total(),
                            "GP-metis (hybrid CPU-GPU)",
                            r.overlap,
                        )
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        other => {
            eprintln!("error: unknown algorithm {other:?}");
            return ExitCode::FAILURE;
        }
    };

    if !a.quiet {
        eprintln!("algorithm      : {name}");
        eprintln!("edge cut       : {}", edge_cut(&g, &part));
        eprintln!("imbalance      : {:.4} (tolerance {:.2})", imbalance(&g, &part, a.k), a.ub);
        eprintln!("comm volume    : {}", comm_volume(&g, &part));
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
        let f = match std::fs::File::create(out) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut w = std::io::BufWriter::new(f);
        for p in &part {
            if writeln!(w, "{p}").is_err() {
                eprintln!("error: write failed");
                return ExitCode::FAILURE;
            }
        }
        if !a.quiet {
            eprintln!("wrote {out}");
        }
    } else {
        // summary to stdout so scripts can consume it
        println!("{} {} {}", a.k, edge_cut(&g, &part), modeled);
    }
    ExitCode::SUCCESS
}
