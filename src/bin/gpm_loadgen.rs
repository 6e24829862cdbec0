//! `gpm-loadgen` — load generator and scripting client for `gpm-serve`.
//!
//! ```text
//! gpm-loadgen run --addr A [--jobs 1000] [--seed 42] [--connections 4]
//! gpm-loadgen submit <addr> <graph.metis> <k> [--seed 1] [--ub 1.03]
//!                 [--algo gpmetis] [--deadline-ms 0] [--faults PLAN]
//!                 [--fallback] [--gpu-threshold N] [--threads 8]
//!                 [--ranks 8] [--output out.part]
//! gpm-loadgen stats <addr>
//! gpm-loadgen shutdown <addr>
//! gpm-loadgen chaos --addr A [--seed 42] [--breaker 3:8:4] [--verify 6]
//!                 [--no-shutdown]
//! ```
//!
//! `run` drives a mixed workload — several graph families and sizes,
//! several k values, a bounded seed pool so identical jobs recur and hit
//! the result cache, and a sprinkle of per-job fault plans to exercise
//! the degradation ladder — as fast as the daemon accepts it, then
//! asserts that *every* submitted job got a response (zero lost jobs)
//! and prints latency percentiles (p50/p95/p99), throughput, cache-hit
//! and degradation counts. The repository benchmark (`gpbench`, its
//! `serve-closed` workload) is where serving performance is measured.
//!
//! `submit`, `stats`, and `shutdown` are one-shot verbs used by the CI
//! serve-smoke stage. `submit` reads the engine flags with `gpartition`'s
//! parser ([`gp_metis_repro::cli`]) and writes the partition with the
//! same writer as `gpartition --output`, so the two can be diffed
//! byte-for-byte; it honors `QueueFull` back-pressure by retrying with
//! the daemon's `retry_after` hint (capped backoff, `--retries` attempts).
//!
//! `chaos` is the deterministic chaos harness (DESIGN.md §14): from one
//! seed it derives a schedule of hostile clients — mid-job half-close
//! disconnects, truncated frames, malformed floods, dead-air and
//! instant-abort connections — and interleaves them with a scripted
//! panic/quarantine sequence and a breaker trip-cooldown-probe-recover
//! cycle on the main connection. It asserts zero lost jobs via the
//! stats-frame accounting identity, a healed worker pool, and byte-
//! identical partitions against in-process reference runs, then prints a
//! `CHAOS-REPORT` block whose lines are bit-reproducible across
//! `GPM_THREADS` settings — the chaos-smoke CI stage diffs it.

use gp_metis_repro::cli::{check_engine_flags, engine_flag};
use gp_metis_repro::graph::csr::CsrGraph;
use gp_metis_repro::graph::stream::read_metis_mmap;
use gp_metis_repro::graph::{gen, io};
use gpm_graph::digest::Fnv1a;
use gpm_graph::rng::SplitMix64;
use gpm_serve::client::Client;
use gpm_serve::protocol::{Algo, JobRequest, Response};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: gpm-loadgen run --addr A [--jobs 1000] [--seed 42] [--connections 4]\n\
         \x20      gpm-loadgen submit <addr> <graph.metis> <k> [--seed 1] [--ub 1.03]\n\
         \x20                   [--algo gpmetis] [--deadline-ms 0] [--faults PLAN]\n\
         \x20                   [--fallback] [--gpu-threshold N] [--threads 8]\n\
         \x20                   [--ranks 8] [--output out.part] [--retries 8]\n\
         \x20      gpm-loadgen stats <addr>\n\
         \x20      gpm-loadgen shutdown <addr>\n\
         \x20      gpm-loadgen chaos --addr A [--seed 42] [--breaker 3:8:4]\n\
         \x20                   [--verify 6] [--no-shutdown]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("run") => run_load(argv.collect()),
        Some("submit") => run_submit(argv.collect()),
        Some("stats") => run_stats(argv.collect()),
        Some("shutdown") => run_shutdown(argv.collect()),
        Some("chaos") => run_chaos(argv.collect()),
        _ => usage(),
    }
}

// ---------------------------------------------------------------------------
// submit / stats / shutdown (CI verbs)
// ---------------------------------------------------------------------------

fn run_submit(args: Vec<String>) -> ExitCode {
    let mut it = args.into_iter();
    let addr = it.next().unwrap_or_else(|| usage());
    let input = it.next().unwrap_or_else(|| usage());
    let k: u32 = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let mut req = JobRequest::new(CsrGraph::empty(), k);
    let mut output: Option<String> = None;
    let mut retries = 8u32;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--retries" => {
                retries = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--deadline-ms" => {
                req.deadline_ms = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--faults" => req.fault_plan_str = it.next().unwrap_or_else(|| usage()),
            "--output" => output = Some(it.next().unwrap_or_else(|| usage())),
            other => match engine_flag(&mut req, other, &mut it) {
                Ok(true) => {}
                Ok(false) => usage(),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if let Err(e) = check_engine_flags(&req, &[]) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Large submissions share the out-of-core path: the streaming mmap
    // loader yields the same CSR as the buffered parser (pinned by the
    // gpm-graph property suites) at a fraction of the load-time peak.
    req.graph = match read_metis_mmap(&input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Honor QueueFull back-pressure: the daemon's retry_after hint (its
    // backlog depth) scales a capped backoff inside the helper.
    match client.submit_wait_retry(&req, retries) {
        Ok(Response::Ok(rep)) => {
            // decode-path twin of `read_partition_checked`: never trust
            // labels outside 0..k from the wire
            if let Err(e) = rep.check_labels(req.k) {
                eprintln!("error: reply failed validation: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "ok: cache_hit={} degraded={} edge_cut={} wall_us={}",
                rep.cache_hit as u32,
                rep.telemetry.degraded as u32,
                rep.telemetry.edge_cut,
                rep.telemetry.wall_us
            );
            if let Some(out) = output {
                let written = std::fs::File::create(&out)
                    .map_err(io::IoError::from)
                    .and_then(|f| io::write_partition(&rep.part, f));
                if let Err(e) = written {
                    eprintln!("error: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Ok(Response::Reject { code, msg, .. }) => {
            eprintln!("rejected: {} ({msg})", code.token());
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("error: unexpected response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_stats(args: Vec<String>) -> ExitCode {
    let addr = args.first().cloned().unwrap_or_else(|| usage());
    match Client::connect(&addr).and_then(|mut c| c.stats()) {
        Ok(stats) => {
            for (name, value) in stats {
                println!("{name} {value}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_shutdown(args: Vec<String>) -> ExitCode {
    let addr = args.first().cloned().unwrap_or_else(|| usage());
    match Client::connect(&addr).and_then(|mut c| c.shutdown()) {
        Ok(()) => {
            eprintln!("daemon acknowledged shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// run (load generation)
// ---------------------------------------------------------------------------

struct LoadArgs {
    addr: String,
    jobs: usize,
    seed: u64,
    connections: usize,
}

fn parse_load_args(args: Vec<String>) -> LoadArgs {
    let mut out = LoadArgs { addr: String::new(), jobs: 1000, seed: 42, connections: 4 };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => out.addr = it.next().unwrap_or_else(|| usage()),
            "--jobs" => {
                out.jobs = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => {
                out.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--connections" => {
                out.connections = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    if out.addr.is_empty() || out.jobs == 0 || out.connections == 0 {
        usage();
    }
    out
}

/// The mixed-size graph pool: a handful of families and sizes, generated
/// once and shared by every job referencing them.
fn graph_pool() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid-20x20", gen::grid2d(20, 20)),
        ("grid-40x30", gen::grid2d(40, 30)),
        ("hexmesh-20x24", gen::hexmesh(20, 24)),
        ("delaunay-900", gen::delaunay_like(900, 11)),
        ("roads-1200", gen::usa_roads_like(1200, 5)),
        ("er-600", gen::erdos_renyi(600, 2400, 7)),
    ]
}

/// One job drawn deterministically from the mix. A bounded seed pool
/// (4 seeds) over ~6 graphs × 3 k values yields ~72 distinct configs, so
/// a 1000-job run revisits each config ~14×: plenty of cache hits.
/// Every 97th job carries a fault plan plus `fallback`, forcing the
/// degradation ladder.
fn make_job(i: usize, rng: &mut SplitMix64, pool: &[(&'static str, CsrGraph)]) -> JobRequest {
    let (_, g) = &pool[rng.below(pool.len() as u64) as usize];
    let k = [4u32, 8, 16][rng.below(3) as usize];
    let mut req = JobRequest::new(g.clone(), k);
    req.tag = i as u64;
    req.seed = 1 + rng.below(4);
    req.gpu_threshold = 400; // small graphs: give the GPU stage real work
    if i % 97 == 96 {
        req.fault_plan_str = "7:gpu.launch@3=lost".into();
        req.fault_plan = Some(gpm_faults::FaultPlan::parse(&req.fault_plan_str).unwrap());
        req.fallback = true;
    }
    req
}

struct Outcome {
    latency: Duration,
    cache_hit: bool,
    degraded: bool,
    rejected: bool,
    deadline_expired: bool,
}

fn run_load(args: Vec<String>) -> ExitCode {
    let a = parse_load_args(args);
    let pool = graph_pool();
    let mut rng = SplitMix64::new(a.seed);
    let jobs: Vec<JobRequest> = (0..a.jobs).map(|i| make_job(i, &mut rng, &pool)).collect();

    eprintln!(
        "loadgen: {} jobs over {} connection(s) to {} (graph pool: {})",
        a.jobs,
        a.connections,
        a.addr,
        pool.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
    );

    // Spread jobs round-robin over the connections. Each connection gets
    // a sender thread (back-to-back submissions) and a reader thread
    // (drains responses, records latency by tag).
    let outcomes: Arc<Mutex<HashMap<u64, Outcome>>> =
        Arc::new(Mutex::new(HashMap::with_capacity(a.jobs)));
    let t_start = Instant::now();

    let mut threads = Vec::new();
    for conn_id in 0..a.connections {
        let my_jobs: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % a.connections == conn_id)
            .map(|(_, j)| j.clone())
            .collect();
        if my_jobs.is_empty() {
            continue;
        }
        let client = match Client::connect(&a.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to {}: {e}", a.addr);
                return ExitCode::FAILURE;
            }
        };
        let (mut tx, mut rx) = match client.split() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: cannot split connection: {e}");
                return ExitCode::FAILURE;
            }
        };
        let n = my_jobs.len();
        let outcomes2 = Arc::clone(&outcomes);
        let sent_at: Arc<Mutex<HashMap<u64, Instant>>> =
            Arc::new(Mutex::new(HashMap::with_capacity(n)));
        let sent_at2 = Arc::clone(&sent_at);

        let reader = std::thread::spawn(move || {
            for _ in 0..n {
                let resp = match rx.read_response() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: response stream died: {e}");
                        return false;
                    }
                };
                let (tag, outcome) = match resp {
                    Response::Ok(rep) => (
                        rep.tag,
                        Outcome {
                            latency: Duration::ZERO,
                            cache_hit: rep.cache_hit,
                            degraded: rep.telemetry.degraded,
                            rejected: false,
                            deadline_expired: false,
                        },
                    ),
                    Response::Reject { tag, code, .. } => (
                        tag,
                        Outcome {
                            latency: Duration::ZERO,
                            cache_hit: false,
                            degraded: false,
                            rejected: true,
                            deadline_expired: code
                                == gpm_serve::protocol::RejectCode::DeadlineExpired,
                        },
                    ),
                    other => {
                        eprintln!("error: unexpected response {other:?}");
                        return false;
                    }
                };
                let mut outcome = outcome;
                if let Some(t0) = sent_at2.lock().unwrap().get(&tag) {
                    outcome.latency = t0.elapsed();
                }
                outcomes2.lock().unwrap().insert(tag, outcome);
            }
            true
        });

        let sender = std::thread::spawn(move || {
            for req in &my_jobs {
                sent_at.lock().unwrap().insert(req.tag, Instant::now());
                if let Err(e) = tx.submit(req) {
                    eprintln!("error: submit failed: {e}");
                    return false;
                }
            }
            true
        });
        threads.push((sender, reader));
    }

    let mut ok = true;
    for (sender, reader) in threads {
        ok &= sender.join().unwrap_or(false);
        ok &= reader.join().unwrap_or(false);
    }
    let elapsed = t_start.elapsed();
    if !ok {
        eprintln!("error: a connection failed mid-run");
        return ExitCode::FAILURE;
    }

    // Zero lost jobs: every tag must have an outcome.
    let outcomes = Arc::try_unwrap(outcomes).ok().expect("threads joined").into_inner().unwrap();
    let lost: Vec<u64> = (0..a.jobs as u64).filter(|tag| !outcomes.contains_key(tag)).collect();
    if !lost.is_empty() {
        eprintln!(
            "error: {} job(s) lost (no response): {:?}...",
            lost.len(),
            &lost[..lost.len().min(8)]
        );
        return ExitCode::FAILURE;
    }

    // Aggregate.
    let mut latencies_ns: Vec<u128> = outcomes.values().map(|o| o.latency.as_nanos()).collect();
    latencies_ns.sort_unstable();
    let pct = |p: f64| -> u128 {
        let idx = ((latencies_ns.len() - 1) as f64 * p).round() as usize;
        latencies_ns[idx]
    };
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let completed = outcomes.values().filter(|o| !o.rejected).count();
    let cache_hits = outcomes.values().filter(|o| o.cache_hit).count();
    let degraded = outcomes.values().filter(|o| o.degraded).count();
    let rejected = outcomes.values().filter(|o| o.rejected).count();
    let deadline_expired = outcomes.values().filter(|o| o.deadline_expired).count();
    let throughput = a.jobs as f64 / elapsed.as_secs_f64();
    let hit_rate_pct = 100.0 * cache_hits as f64 / a.jobs as f64;

    eprintln!(
        "loadgen: {} jobs in {:.2}s ({:.1} jobs/s) — {} completed, {} cache hits ({:.1}%), \
         {} degraded, {} rejected ({} deadline-expired), p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
        a.jobs,
        elapsed.as_secs_f64(),
        throughput,
        completed,
        cache_hits,
        hit_rate_pct,
        degraded,
        rejected,
        deadline_expired,
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
    );

    let _ = std::io::stderr().flush();
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// chaos (deterministic chaos harness)
// ---------------------------------------------------------------------------

struct ChaosArgs {
    addr: String,
    seed: u64,
    /// The daemon's breaker tuning (must match its `--breaker` flag) so
    /// the storm/cooldown/probe script lines up with the real trip points.
    breaker: gpm_serve::breaker::BreakerConfig,
    verify: u64,
    shutdown: bool,
}

fn parse_chaos_args(args: Vec<String>) -> ChaosArgs {
    let mut out = ChaosArgs {
        addr: String::new(),
        seed: 42,
        breaker: gpm_serve::breaker::BreakerConfig::default(),
        verify: 6,
        shutdown: true,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => out.addr = it.next().unwrap_or_else(|| usage()),
            "--seed" => {
                out.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--breaker" => {
                out.breaker = it
                    .next()
                    .and_then(|s| gpm_serve::breaker::BreakerConfig::parse(&s))
                    .unwrap_or_else(|| usage())
            }
            "--verify" => {
                out.verify = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--no-shutdown" => out.shutdown = false,
            _ => usage(),
        }
    }
    if out.addr.is_empty() {
        usage();
    }
    out
}

/// A main-connection chaos job: the hybrid engine on a 400-vertex grid
/// with the GPU stage active.
fn chaos_job(tag: u64, seed: u64) -> JobRequest {
    let mut req = JobRequest::new(gen::grid2d(20, 20), 4);
    req.tag = tag;
    req.seed = seed;
    req.gpu_threshold = 200;
    req
}

/// Fold partition labels (4 little-endian bytes each) into the report's
/// partition checksum.
fn fold_part(h: &mut Fnv1a, part: &[u32]) {
    for p in part {
        h.bytes(&p.to_le_bytes());
    }
}

fn chaos_stats(addr: &str) -> std::io::Result<Vec<(String, u64)>> {
    Client::connect(addr)?.stats()
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
        eprintln!("error: stat {name} missing from daemon reply");
        std::process::exit(1);
    })
}

/// Hostile-client events. Every event either leaves the daemon's
/// counters unchanged or moves them by a schedule-determined amount, so
/// the end-of-run report is reproducible for a fixed seed.
enum ChaosEvent {
    /// Submit `jobs` valid MtMetis jobs, half-close, never read. The
    /// socket is kept open (returned) so the daemon's replies land in
    /// our receive buffer: the jobs are abandoned, not retracted.
    Disconnect { base: u64, jobs: u64 },
    /// A frame header promising more payload than is ever sent, then
    /// half-close: one deterministic `Truncated` protocol error.
    Truncated,
    /// Valid frames whose job payload is garbage: one protocol error
    /// per frame, connection survives until our half-close.
    Malformed { frames: u64 },
    /// Connect, optionally linger silently, vanish without a byte.
    DeadAir { linger_ms: u64 },
}

fn run_event(addr: &str, ev: ChaosEvent) -> std::io::Result<Option<std::net::TcpStream>> {
    use gpm_serve::protocol::{frame, read_frame, FT_JOB};
    use std::net::TcpStream;
    match ev {
        ChaosEvent::Disconnect { base, jobs } => {
            let mut s = TcpStream::connect(addr)?;
            for j in 0..jobs {
                let mut req = JobRequest::new(gen::grid2d(16, 16), 4);
                req.tag = 900_000 + base + j;
                req.seed = 50_000 + base + j;
                req.algo = Algo::MtMetis;
                s.write_all(&frame(FT_JOB, &gpm_serve::protocol::encode_job(&req)))?;
            }
            s.flush()?;
            s.shutdown(std::net::Shutdown::Write)?;
            // Abandon without closing: dropping now could RST the frames
            // out of the daemon's receive queue and make `accepted`
            // racy. The caller keeps the socket until after the report.
            Ok(Some(s))
        }
        ChaosEvent::Truncated => {
            let mut s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30))).ok();
            let full = frame(FT_JOB, &[0u8; 64]);
            s.write_all(&full[..full.len() / 2])?;
            s.flush()?;
            s.shutdown(std::net::Shutdown::Write)?;
            // Drain the protocol reject so our close cannot race it.
            while read_frame(&mut s)?.is_some() {}
            Ok(None)
        }
        ChaosEvent::Malformed { frames } => {
            let mut s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30))).ok();
            for _ in 0..frames {
                s.write_all(&frame(FT_JOB, &[0xAAu8; 32]))?;
            }
            s.flush()?;
            s.shutdown(std::net::Shutdown::Write)?;
            while read_frame(&mut s)?.is_some() {}
            Ok(None)
        }
        ChaosEvent::DeadAir { linger_ms } => {
            let s = TcpStream::connect(addr)?;
            std::thread::sleep(Duration::from_millis(linger_ms));
            drop(s);
            Ok(None)
        }
    }
}

fn run_chaos(args: Vec<String>) -> ExitCode {
    let a = parse_chaos_args(args);
    let mut rng = SplitMix64::new(a.seed);
    let brk = a.breaker;
    eprintln!(
        "chaos: seed {} against {} (breaker {}:{}:{}, {} verify jobs)",
        a.seed, a.addr, brk.threshold, brk.window, brk.cooldown, a.verify
    );
    let mut main = match Client::connect(&a.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", a.addr);
            return ExitCode::FAILURE;
        }
    };
    let baseline = match chaos_stats(&a.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stat(&baseline, "accepted") != 0 {
        eprintln!("error: chaos needs a fresh daemon (accepted != 0)");
        return ExitCode::FAILURE;
    }
    let workers = stat(&baseline, "workers");

    // -- Phase 1: panic isolation and quarantine (3 strikes of the same
    // fingerprint: reject, reject+quarantine, refused at admission).
    let mut panic_req = chaos_job(1, 71);
    panic_req.fault_plan_str = "1:serve.job@0=panic".into();
    panic_req.fault_plan = Some(gpm_faults::FaultPlan::parse(&panic_req.fault_plan_str).unwrap());
    for (strike, want) in [
        (1u64, gpm_serve::protocol::RejectCode::JobPanicked),
        (2, gpm_serve::protocol::RejectCode::JobPanicked),
        (3, gpm_serve::protocol::RejectCode::Quarantined),
    ] {
        panic_req.tag = strike;
        match main.submit_wait(&panic_req) {
            Ok(Response::Reject { code, .. }) if code == want => {}
            other => {
                eprintln!("error: panic strike {strike}: wanted {want:?}, got {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("chaos: panic isolation ok (2 kills, fingerprint quarantined)");

    // -- Phase 2: hostile clients, seed-shuffled, concurrent with the
    // breaker script below.
    let mut events = vec![
        ChaosEvent::Disconnect { base: 0, jobs: 2 },
        ChaosEvent::Disconnect { base: 100, jobs: 2 },
        ChaosEvent::Disconnect { base: 200, jobs: 3 },
        ChaosEvent::Truncated,
        ChaosEvent::Truncated,
        ChaosEvent::Malformed { frames: 2 },
        ChaosEvent::Malformed { frames: 2 },
        ChaosEvent::DeadAir { linger_ms: rng.below(60) },
        ChaosEvent::DeadAir { linger_ms: 0 },
    ];
    // Fisher-Yates with the schedule RNG: the *order* of hostility is
    // seed-derived, the counter deltas are order-independent.
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let expected_disconnect_jobs = 7u64;
    let expected_proto_errors = 2 + 2 * 2u64;
    let addr2 = a.addr.clone();
    let hostiles = std::thread::spawn(move || -> std::io::Result<Vec<std::net::TcpStream>> {
        let mut abandoned = Vec::new();
        for ev in events {
            if let Some(s) = run_event(&addr2, ev)? {
                abandoned.push(s);
            }
        }
        Ok(abandoned)
    });

    // -- Phase 3-5: breaker storm, cooldown service, half-open probe.
    // All sequential on the main connection: one job in flight at a
    // time, so the breaker trace is independent of worker count and
    // GPM_THREADS.
    let mut checksum = Fnv1a::new();
    for i in 0..brk.threshold as u64 {
        let mut req = chaos_job(10 + i, 31 + i);
        req.fault_plan_str = "9:gpu.launch@0=lost".into();
        req.fault_plan = Some(gpm_faults::FaultPlan::parse(&req.fault_plan_str).unwrap());
        req.fallback = true;
        match main.submit_wait(&req) {
            Ok(Response::Ok(rep)) if rep.telemetry.degraded => {}
            other => {
                eprintln!("error: storm job {i}: wanted degraded Ok, got {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("chaos: breaker storm done ({} fatal device jobs)", brk.threshold);
    for i in 0..brk.cooldown as u64 {
        let req = chaos_job(30 + i, 41 + i);
        match main.submit_wait(&req) {
            Ok(Response::Ok(rep)) => {
                if !rep.telemetry.degraded || rep.telemetry.breaker_state != 1 {
                    eprintln!("error: cooldown job {i} not served breaker-open: {rep:?}");
                    return ExitCode::FAILURE;
                }
                let reference = gpm_mtmetis::partition(&req.graph, &req.mtmetis_config());
                if rep.part != reference.part {
                    eprintln!("error: cooldown job {i} diverges from the mt-metis rung");
                    return ExitCode::FAILURE;
                }
                fold_part(&mut checksum, &rep.part);
            }
            other => {
                eprintln!("error: cooldown job {i}: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("chaos: {} cooldown jobs served CPU-only, byte-verified", brk.cooldown);
    let probe = chaos_job(50, 55);
    match main.submit_wait(&probe) {
        Ok(Response::Ok(rep)) => {
            if rep.telemetry.degraded || rep.telemetry.breaker_state != 0 {
                eprintln!("error: probe did not close the breaker: {rep:?}");
                return ExitCode::FAILURE;
            }
            let reference =
                gp_metis::partition_with_plan(&probe.graph, &probe.gpmetis_config(), None)
                    .expect("reference probe run");
            if rep.part != reference.result.part {
                eprintln!("error: probe diverges from fault-free reference");
                return ExitCode::FAILURE;
            }
            fold_part(&mut checksum, &rep.part);
        }
        other => {
            eprintln!("error: probe: {other:?}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("chaos: half-open probe closed the breaker");

    // -- Phase 6: recovered service, byte-verified against fault-free
    // in-process reference runs (the back-pressure-honoring submit).
    for i in 0..a.verify {
        let req = chaos_job(60 + i, 61 + i);
        match main.submit_wait_retry(&req, 10_000) {
            Ok(Response::Ok(rep)) => {
                let reference =
                    gp_metis::partition_with_plan(&req.graph, &req.gpmetis_config(), None)
                        .expect("reference run");
                if rep.part != reference.result.part {
                    eprintln!("error: verify job {i} diverges from fault-free reference");
                    return ExitCode::FAILURE;
                }
                fold_part(&mut checksum, &rep.part);
            }
            other => {
                eprintln!("error: verify job {i}: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("chaos: {} recovered jobs byte-identical to fault-free runs", a.verify);

    let abandoned = match hostiles.join() {
        Ok(Ok(socks)) => socks,
        Ok(Err(e)) => {
            eprintln!("error: hostile client failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("error: hostile client thread panicked");
            return ExitCode::FAILURE;
        }
    };

    // -- Phase 7: drain. The abandoned connections' jobs finish without
    // anyone reading the replies; queue and in-flight must hit zero.
    let t0 = Instant::now();
    let stats = loop {
        let s = match chaos_stats(&a.addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: stats poll failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if stat(&s, "queue_depth") == 0 && stat(&s, "in_flight") == 0 {
            break s;
        }
        if t0.elapsed() > Duration::from_secs(120) {
            eprintln!("error: daemon failed to drain within 120s");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    // -- Phase 8: the accounting identity (zero lost jobs) and the
    // self-healing invariants, then the reproducible report.
    let accepted = stat(&stats, "accepted");
    let completed = stat(&stats, "completed");
    let panicked = stat(&stats, "panicked");
    let identity =
        completed + stat(&stats, "deadline_expired") + stat(&stats, "engine_failed") + panicked;
    if accepted != identity {
        eprintln!("error: lost jobs: accepted {accepted} != answered {identity}");
        return ExitCode::FAILURE;
    }
    let expected_accepted =
        2 + brk.threshold as u64 + brk.cooldown as u64 + 1 + a.verify + expected_disconnect_jobs;
    let checks = [
        ("accepted", accepted, expected_accepted),
        ("panicked", panicked, 2),
        ("worker_respawns", stat(&stats, "worker_respawns"), 2),
        ("workers_alive", stat(&stats, "workers_alive"), workers),
        ("quarantined", stat(&stats, "quarantined"), 1),
        ("quarantined_fingerprints", stat(&stats, "quarantined_fingerprints"), 1),
        ("breaker_trips", stat(&stats, "breaker_trips"), 1),
        ("breaker_state", stat(&stats, "breaker_state"), 0),
        ("breaker_cpu_only", stat(&stats, "breaker_cpu_only"), brk.cooldown as u64),
        ("degraded", stat(&stats, "degraded"), brk.threshold as u64 + brk.cooldown as u64),
        ("engine_failed", stat(&stats, "engine_failed"), 0),
        ("deadline_expired", stat(&stats, "deadline_expired"), 0),
        ("protocol_errors", stat(&stats, "protocol_errors"), expected_proto_errors),
    ];
    for (name, got, want) in checks {
        if got != want {
            eprintln!("error: {name}: got {got}, want {want}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "CHAOS-REPORT-BEGIN seed={} breaker={}:{}:{}",
        a.seed, brk.threshold, brk.window, brk.cooldown
    );
    for (name, got, _) in checks {
        println!("{name} {got}");
    }
    println!("completed {completed}");
    println!("partition_checksum {:#018x}", checksum.finish());
    println!("CHAOS-REPORT-END");
    drop(abandoned);

    // -- Phase 9: shutdown racing in-flight submissions. Every job
    // pipelined into the closing daemon is still answered — served if it
    // was admitted first, typed-rejected otherwise.
    if a.shutdown {
        use gpm_serve::protocol::{frame, read_frame, RejectCode, FT_JOB};
        let mut raw = match std::net::TcpStream::connect(&a.addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot connect for shutdown race: {e}");
                return ExitCode::FAILURE;
            }
        };
        raw.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let race_jobs = 4u64;
        for j in 0..race_jobs {
            let mut req = JobRequest::new(gen::grid2d(16, 16), 4);
            req.tag = 950_000 + j;
            req.seed = 60_000 + j;
            req.algo = Algo::MtMetis;
            if raw.write_all(&frame(FT_JOB, &gpm_serve::protocol::encode_job(&req))).is_err() {
                break;
            }
        }
        let _ = raw.flush();
        let addr3 = a.addr.clone();
        let closer =
            std::thread::spawn(move || Client::connect(&addr3).and_then(|mut c| c.shutdown()));
        let mut answered = 0u64;
        while answered < race_jobs {
            match read_frame(&mut raw) {
                Ok(Some((ft, payload))) => {
                    match gpm_serve::protocol::decode_response(ft, &payload) {
                        Ok(Response::Ok(_)) => answered += 1,
                        Ok(Response::Reject { code, .. })
                            if code == RejectCode::ShuttingDown
                                || code == RejectCode::QueueFull =>
                        {
                            answered += 1
                        }
                        other => {
                            eprintln!("error: shutdown race: unexpected {other:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
        if answered < race_jobs {
            eprintln!("error: shutdown race lost {} job(s)", race_jobs - answered);
            return ExitCode::FAILURE;
        }
        match closer.join() {
            Ok(Ok(())) => eprintln!("chaos: concurrent shutdown acked with all jobs answered"),
            Ok(Err(e)) => {
                eprintln!("error: shutdown failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("error: shutdown thread panicked");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("chaos: all invariants held");
    ExitCode::SUCCESS
}
