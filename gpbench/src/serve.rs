//! `serve-closed`: closed-loop load against an in-process `gpm-serve`
//! daemon on loopback.
//!
//! The daemon runs `nproc` workers, and the benchmark holds one
//! connection open to it. An operation is a burst of [`JOBS_PER_OP`] jobs:
//! the client sends a job, waits for its reply and only then sends the
//! next, so a job never waits behind the client's own backlog and its
//! latency, from send to reply, is what a `gpm-serve` user waits for. One
//! client keeps the two cores of a small host to one job at a time: with
//! a client per core, two jobs contend for the cores and the host pool,
//! and latency follows the host's scheduling more than the code. Jobs
//! draw uniformly from a pool of configurations (small graphs of six
//! generator families, k of 4, 8 or 16, mostly GP-metis, every fifth
//! mt-metis), and the daemon's result cache holds a quarter of them, so
//! about a quarter of the jobs are cache reads and the rest are compute
//! plus a cache insert.

use crate::batch::{closed_loop, end_to_end, repeat_setup, traced_loop, SETUP_REPS};
use crate::check::Checker;
use crate::metrics::{median, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen;
use gpm_graph::rng::SplitMix64;
use gpm_serve::protocol::{self, Algo, JobReply, JobRequest, Response, FT_JOB, FT_STATS};
use gpm_serve::{ServeConfig, ServerHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Jobs sent, one after another, in one operation.
const JOBS_PER_OP: usize = 16;

/// GP-metis switchover for the small graphs, so the simulator runs.
const GPU_THRESHOLD: u32 = 250;

/// A reply that takes longer than this is lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One distinct job configuration, its request frame and its in-process
/// reference answer.
struct Config {
    req: JobRequest,
    frame: Vec<u8>,
    reference: Vec<u32>,
    modeled_s: f64,
    edge_cut: u64,
}

fn pool_size(ctx: &Ctx) -> usize {
    if ctx.tiny {
        8
    } else {
        64
    }
}

/// Small graphs from six generator families. They are the same for every
/// workload seed, so the slowest configurations, which set the tail, stay
/// the same; the seed varies the partitioner seeds and the job order.
fn graphs() -> Vec<CsrGraph> {
    vec![
        gen::grid2d(24, 24),
        gen::hugebubbles_like(600),
        gen::delaunay_like(600, 1),
        gen::usa_roads_like(800, 2),
        gen::erdos_renyi(400, 1600, 3),
        gen::geometric(600, 6.0, 4),
    ]
}

/// The configuration pool: distinct (graph, k, engine, seed) tuples. The
/// graph, k and engine of configuration `i` are fixed; the seeds come from
/// the workload seed. A request's tag is its configuration's index.
fn job_pool(ctx: &Ctx) -> Vec<JobRequest> {
    let graphs = graphs();
    let mut rng = SplitMix64::stream(ctx.seed, 0x5e7e);
    (0..pool_size(ctx))
        .map(|i| {
            let g = &graphs[i % graphs.len()];
            let mut req = JobRequest::new(g.clone(), [4, 8, 16][i / graphs.len() % 3]);
            req.tag = i as u64;
            req.algo = if i % 5 == 4 { Algo::MtMetis } else { Algo::GpMetis };
            req.seed = 1 + i as u64 * 1000 + rng.below(1000);
            req.gpu_threshold = GPU_THRESHOLD;
            req
        })
        .collect()
}

/// The answer the daemon must give, computed in-process with the
/// daemon's configuration mapping.
fn reference(req: &JobRequest) -> Result<(Vec<u32>, f64, u64), String> {
    let k = req.k as usize;
    let r = match req.algo {
        Algo::GpMetis => {
            let mut c = gp_metis::GpMetisConfig::new(k).with_seed(req.seed);
            c.ubfactor = req.ub();
            c.cpu_threads = req.threads as usize;
            c.fallback = req.fallback;
            c.gpu_threshold = req.gpu_threshold as usize;
            gp_metis::partition_with_plan(&req.graph, &c, None).map_err(|e| e.to_string())?.result
        }
        Algo::MtMetis => {
            let mut c = gpm_mtmetis::MtMetisConfig::new(k)
                .with_threads(req.threads as usize)
                .with_seed(req.seed);
            c.ubfactor = req.ub();
            gpm_mtmetis::partition(&req.graph, &c)
        }
        other => return Err(format!("engine {} is not in the job mix", other.name())),
    };
    Ok((r.part.clone(), r.modeled_seconds(), r.edge_cut))
}

/// A running daemon and the benchmark's connection to it. Dropping it
/// closes the connection, shuts the daemon down and joins its threads.
struct Daemon {
    conn: Option<TcpStream>,
    handle: Option<ServerHandle>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.conn.take());
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
    }
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("running daemon").addr()
    }

    fn conn(&self) -> &TcpStream {
        self.conn.as_ref().expect("open connection")
    }
}

/// Reference answers for the pool, a daemon with `workers` workers, a
/// connection to it, and one untimed warm-up job.
fn setup(ctx: &Ctx, workers: usize, check: &mut Checker) -> Result<(Vec<Config>, Daemon), String> {
    let mut configs = Vec::new();
    for req in job_pool(ctx) {
        let (reference, modeled_s, edge_cut) = reference(&req)?;
        let p = check.partition(&req.graph, &reference, req.k as usize, edge_cut, modeled_s);
        check.record("reference", p);
        let frame = protocol::frame(FT_JOB, &protocol::encode_job(&req));
        configs.push(Config { req, frame, reference, modeled_s, edge_cut });
    }
    let handle = gpm_serve::start(ServeConfig {
        workers,
        cache_cap: configs.len() / 4,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut daemon = Daemon { conn: None, handle: Some(handle) };
    daemon.conn = Some(connect(daemon.addr())?);
    let (_, problems) = burst(daemon.conn(), &configs, &[0]);
    check.record("warm-up", problems);
    Ok((configs, daemon))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(s)
}

fn read_response(mut s: &TcpStream) -> Result<Response, String> {
    match protocol::read_frame(&mut s) {
        Ok(Some((ft, payload))) => {
            protocol::decode_response(ft, &payload).map_err(|e| e.to_string())
        }
        Ok(None) => Err("daemon closed the connection".into()),
        Err(e) => Err(format!("reading a reply: {e}")),
    }
}

fn kind(r: &Response) -> String {
    match r {
        Response::Ok(_) => "ok".into(),
        Response::Reject { code, msg, .. } => format!("reject {}: {msg}", code.token()),
        Response::Stats(_) => "stats".into(),
        Response::ShutdownAck => "shutdown-ack".into(),
    }
}

/// One answered job, as the client saw it.
struct Job {
    sent: Instant,
    recv: Instant,
    cache_hit: bool,
    /// Engine wall the daemon reports, in microseconds.
    engine_us: u64,
}

impl Job {
    fn latency_ms(&self) -> f64 {
        (self.recv - self.sent).as_secs_f64() * 1e3
    }

    /// Latency beyond the engine's run: queue wait, protocol and
    /// scheduling.
    fn overhead_ms(&self) -> f64 {
        self.latency_ms() - self.engine_us as f64 / 1e3
    }
}

/// Send configurations `picks` on `conn`, one job at a time. Returns the
/// answered jobs and the problems: a reject, a lost reply, labels out of
/// range or an answer that differs from the in-process reference.
fn burst(mut conn: &TcpStream, configs: &[Config], picks: &[usize]) -> (Vec<Job>, Vec<String>) {
    let (mut jobs, mut problems) = (Vec::new(), Vec::new());
    for &i in picks {
        let want = &configs[i];
        let sent = Instant::now();
        if let Err(e) = conn.write_all(&want.frame) {
            problems.push(format!("send: {e}"));
            break;
        }
        let reply = read_response(conn);
        let recv = Instant::now();
        match reply {
            Ok(Response::Ok(rep)) => {
                problems.extend(reply_problem(&rep, want));
                jobs.push(Job {
                    sent,
                    recv,
                    cache_hit: rep.cache_hit,
                    engine_us: rep.telemetry.wall_us,
                });
            }
            Ok(other) => problems.push(format!("reply {}", kind(&other))),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }
    (jobs, problems)
}

fn reply_problem(rep: &JobReply, want: &Config) -> Option<String> {
    if rep.tag != want.req.tag {
        Some(format!("reply tag {} for job {}", rep.tag, want.req.tag))
    } else if let Err(e) = rep.check_labels(want.req.k) {
        Some(e.to_string())
    } else if rep.part != want.reference {
        Some("partition differs from the in-process reference".into())
    } else {
        None
    }
}

fn stats(addr: SocketAddr) -> Result<Vec<(String, u64)>, String> {
    let s = connect(addr)?;
    protocol::write_frame(&mut &s, FT_STATS, &[]).map_err(|e| e.to_string())?;
    match read_response(&s)? {
        Response::Stats(v) => Ok(v),
        other => Err(format!("stats: unexpected reply {}", kind(&other))),
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.connections = 1;
    let check = &mut out.check;
    let ((configs, daemon), setup_s) = repeat_setup(SETUP_REPS, || setup(ctx, workers, check))?;
    let picks = |rng: &mut SplitMix64| -> Vec<usize> {
        (0..JOBS_PER_OP).map(|_| rng.below(configs.len() as u64) as usize).collect()
    };
    let mut untraced_rng = SplitMix64::stream(ctx.seed, 0x10ad);
    let mut untraced_jobs = Vec::new();
    let untraced = |_: usize, _: &mut Checker| {
        let t0 = Instant::now();
        let (jobs, problems) = burst(daemon.conn(), &configs, &picks(&mut untraced_rng));
        let wall = t0.elapsed().as_secs_f64();
        untraced_jobs.extend(jobs);
        Ok((wall, problems))
    };

    if !ctx.trace {
        let walls = closed_loop(ctx, &mut out.check, untraced);
        let lat: Vec<f64> = untraced_jobs.iter().map(|j| j.latency_ms() / 1e3).collect();
        let modeled = configs.iter().map(|c| c.modeled_s).sum::<f64>() / configs.len() as f64;
        let cut = configs.iter().map(|c| c.edge_cut).sum::<u64>() as f64;
        let busy_s = walls.iter().sum();
        end_to_end(out, setup_s, &lat, busy_s, modeled, cut);
        return Ok(());
    }

    let mut traced_rng = SplitMix64::stream(ctx.seed, 0x7ace);
    let mut traced_jobs = Vec::new();
    let t = traced_loop(ctx, out, untraced, |_, tr, _| {
        let (jobs, problems) = burst(daemon.conn(), &configs, &picks(&mut traced_rng));
        record_spans(tr, &jobs);
        traced_jobs.extend(jobs);
        Ok(problems)
    });
    let counters = stats(daemon.addr())?;
    drop(daemon);

    let rep = &mut out.report;
    let misses: Vec<f64> =
        traced_jobs.iter().filter(|j| !j.cache_hit).map(|j| j.engine_us as f64 / 1e3).collect();
    let overhead: Vec<f64> = traced_jobs.iter().map(Job::overhead_ms).collect();
    let hits = traced_jobs.iter().filter(|j| j.cache_hit).count() as f64;
    let stat = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v) as f64;
    rep.set("serve.engine_ms_p50", median(&misses));
    rep.set("serve.overhead_ms_p50", median(&overhead));
    rep.set("serve.overhead_ms_p99", percentile(&overhead, 0.99));
    rep.set("serve.cache_hit_ratio", ratio(hits, traced_jobs.len() as f64));
    rep.set(
        "serve.rejected",
        stat("rejected_queue_full")
            + stat("rejected_shutdown")
            + stat("engine_failed")
            + stat("quarantined"),
    );
    rep.set("serve.deadline_expired", stat("deadline_expired"));
    protocol_costs(rep, &configs);
    t.report_trace(out);
    Ok(())
}

/// Spans of the jobs under the operation's root span: the job from send
/// to reply, and inside it the engine time the daemon reports, placed at
/// the end of the job since the daemon does not say when it started. The
/// root's coverage is then the share of the burst with a job in flight.
fn record_spans(tr: &mut Tracer, jobs: &[Job]) {
    let root = tr.current();
    for j in jobs {
        let (sent, recv) = (tr.ns(j.sent), tr.ns(j.recv));
        let id = tr.spans.len();
        tr.record("serve.job", root, sent, recv);
        let engine_ns = j.engine_us * 1000;
        tr.record("serve.engine", Some(id), recv.saturating_sub(engine_ns).max(sent), recv);
    }
}

/// Per-call costs of the wire codec on the workload's own job mix.
fn protocol_costs(rep: &mut Report, configs: &[Config]) {
    const REPS: usize = 20;
    let payloads: Vec<Vec<u8>> = configs.iter().map(|c| protocol::encode_job(&c.req)).collect();
    let replies: Vec<Vec<u8>> = configs
        .iter()
        .map(|c| {
            let reply = JobReply {
                tag: c.req.tag,
                cache_hit: false,
                telemetry: Default::default(),
                part: c.reference.clone(),
            };
            protocol::encode_job_ok(&reply)
        })
        .collect();
    let calls = (REPS * configs.len()) as f64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        for c in configs {
            std::hint::black_box(protocol::encode_job(std::hint::black_box(&c.req)));
        }
    }
    rep.set("protocol.encode_job_us", t0.elapsed().as_secs_f64() * 1e6 / calls);
    let t0 = Instant::now();
    for _ in 0..REPS {
        for p in &payloads {
            std::hint::black_box(protocol::decode_job(std::hint::black_box(p)).is_ok());
        }
    }
    rep.set("protocol.decode_job_us", t0.elapsed().as_secs_f64() * 1e6 / calls);
    let t0 = Instant::now();
    for _ in 0..REPS {
        for r in &replies {
            std::hint::black_box(protocol::decode_job_ok(std::hint::black_box(r)).is_ok());
        }
    }
    rep.set("protocol.decode_reply_us", t0.elapsed().as_secs_f64() * 1e6 / calls);
    rep.set(
        "protocol.reply_bytes",
        median(&replies.iter().map(|r| r.len() as f64).collect::<Vec<_>>()),
    );
}
