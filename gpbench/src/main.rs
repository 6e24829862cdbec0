//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! gpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! gpbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod check;
mod hybrid;
mod metrics;
mod multigpu;
mod roads;
mod serve;
mod trace;

use check::Checker;
use metrics::{Report, Spec, END_TO_END, MIB, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["hybrid-mesh", "cpu-roads", "serve-closed", "multigpu-delaunay"];

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test scale: tiny inputs, a few operations.
    pub tiny: bool,
    /// Scratch directory for input files, removed when the run ends.
    pub work: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub check: Checker,
    pub tracer: Tracer,
    /// Client connections the workload opened to the daemon.
    pub connections: usize,
    /// Jobs behind the end-to-end latency metrics (0 in a traced run).
    pub jobs: usize,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// (stolen, total) CPU ticks of the host since boot, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(h) = read(r) {
        return h.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Removes the run's scratch directory when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke();
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("gpbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let _guard = WorkDir(work.clone());
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        work,
    };
    let ticks = cpu_ticks();
    let mut out = Outcome::default();
    let run = match ctx.workload.as_str() {
        "hybrid-mesh" => hybrid::run(&ctx, &mut out),
        "cpu-roads" => roads::run(&ctx, &mut out),
        "serve-closed" => serve::run(&ctx, &mut out),
        _ => multigpu::run(&ctx, &mut out),
    };
    if let Err(e) = run {
        eprintln!("gpbench: {}: {e}", ctx.workload);
        return ExitCode::from(1);
    }
    match finish(&ctx, out, ticks) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gpbench: {}: {e}", ctx.workload);
            ExitCode::from(1)
        }
    }
}

/// Print the environment, the metric table and the result line. `ticks`
/// are the host CPU ticks when the run started; the environment line
/// gives the share of host CPU time the hypervisor took from this machine
/// since then (`steal_frac`), which slows every wall metric.
fn finish(ctx: &Ctx, mut out: Outcome, ticks: (u64, u64)) -> Result<(), String> {
    let specs: &'static [Spec] = if ctx.trace { PER_LAYER } else { END_TO_END };
    let (stolen, total) = cpu_ticks();
    let steal = metrics::ratio((stolen - ticks.0) as f64, (total - ticks.1) as f64);
    if ctx.trace {
        out.report.set("check.imbalance_max", out.check.imbalance_max);
        out.report.zero_rest(PER_LAYER);
        let dir = Path::new(".bench_out");
        let file = dir.join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, out.tracer.to_json()))
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        eprintln!("gpbench: {} spans written to {}", out.tracer.spans.len(), file.display());
    } else {
        out.report.set("peak_rss_mb", peak_rss_mb());
    }
    let values = out.report.finish(specs)?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"pool_workers\": {}, \"connections\": {}, \"jobs\": {}, \"steal_frac\": {steal:.4}, \"git_commit\": \"{}\"}}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        gpm_pool::global().workers(),
        out.connections,
        out.jobs,
        git_commit()
    );
    for (s, v) in &values {
        let kind = match s.kind {
            metrics::Kind::Exact => "exact",
            metrics::Kind::Wall => "wall",
        };
        let better = match s.better {
            metrics::Better::Lower => "lower",
            metrics::Better::Higher => "higher",
        };
        let base = if s.base.is_empty() { String::new() } else { format!("  (over {})", s.base) };
        println!("# {:<32} {:>16.6} {:<9} {:<6} {kind}{base}", s.name, v, s.unit, better);
    }
    for e in &out.check.errors {
        eprintln!("gpbench: check failed: {e}");
    }
    let correct = out.check.failed == 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|(s, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", s.name, s.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check.attempted.max(1),
        out.check.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// Tiny-scale smoke test: run every workload in both modes as a child
/// process, and check that each emits every registry metric with its unit,
/// that no end-to-end metric reads 0, that every per-layer metric but the
/// failure counts reads non-zero on some workload, and that
/// `BENCHMARK.json` lists the same metrics.
fn smoke() -> ExitCode {
    // Failure counts: 0 on a healthy run.
    const ZERO_WHEN_HEALTHY: &[&str] = &["serve.rejected", "serve.deadline_expired"];
    let mut reached: Vec<&str> = Vec::new();
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            for s in END_TO_END.iter().chain(PER_LAYER) {
                if !text.contains(&format!("\"name\": \"{}\", \"unit\": \"{}\"", s.name, s.unit)) {
                    problems.push(format!("BENCHMARK.json lacks {} in {}", s.name, s.unit));
                }
            }
            let listed = text.matches("\"unit\": ").count();
            if listed != END_TO_END.len() + PER_LAYER.len() {
                problems.push(format!("BENCHMARK.json lists {listed} metrics"));
            }
        }
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smoke: {e}");
            return ExitCode::from(1);
        }
    };
    for w in WORKLOADS {
        for (trace, specs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let run = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.5",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match run {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    problems.push(format!("{w} trace {trace}: exit {}", o.status));
                    continue;
                }
                Err(e) => {
                    problems.push(format!("{w} trace {trace}: {e}"));
                    continue;
                }
            };
            let last = stdout.lines().last().unwrap_or("");
            if !last.starts_with("{\"correct\": true, ") {
                problems.push(format!("{w} trace {trace}: not correct"));
            }
            for s in specs {
                let value = format!("\"{}\": {{\"value\": ", s.name);
                let unit = format!("\"unit\": \"{}\"}}", s.unit);
                let Some(i) = last.find(&value).filter(|&i| {
                    last[i..].split('}').next().is_some_and(|m| m.contains(&unit[..unit.len() - 1]))
                }) else {
                    problems.push(format!(
                        "{w} trace {trace}: {} missing or not in {}",
                        s.name, s.unit
                    ));
                    continue;
                };
                let v =
                    last[i + value.len()..].split(',').next().and_then(|v| v.parse::<f64>().ok());
                match (trace, v) {
                    ("0", Some(0.0)) => problems.push(format!("{w}: {} reads 0", s.name)),
                    ("1", Some(v)) if v != 0.0 => reached.push(s.name),
                    _ => {}
                }
            }
            println!("smoke: {w} trace {trace} ran");
        }
    }
    for s in PER_LAYER {
        if !reached.contains(&s.name) && !ZERO_WHEN_HEALTHY.contains(&s.name) {
            problems.push(format!("{} reads 0 on every workload", s.name));
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("smoke: FAIL {p}");
        }
        ExitCode::from(1)
    }
}
