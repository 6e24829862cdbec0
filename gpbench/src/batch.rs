//! Shared harness of the workloads: repeated set-up, the untraced closed
//! loop, the traced loop, and their end-to-end and per-layer summaries.
//!
//! A batch workload's run cycles through [`VARIANTS`] input variants
//! derived from the workload seed, so that one run's medians average over
//! several inputs rather than resting on one; `serve-closed` draws every
//! operation's jobs from its own configuration pool instead.

use crate::check::Checker;
use crate::metrics::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Input variants per run.
pub const VARIANTS: usize = 4;

/// How often each run sets up from scratch; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The seed of variant `i` of workload seed `seed`; distinct seeds give
/// disjoint variant seeds.
pub fn variant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(VARIANTS as u64).wrapping_add(i as u64)
}

/// Run `setup` `reps` times, keep the last result, and return it with the
/// median set-up seconds. Each result is dropped before the next set-up
/// starts, outside the timing.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// The first answer seen for each variant; later answers must equal it.
pub struct References<T>(RefCell<Vec<Option<T>>>);

impl<T> References<T> {
    pub fn new() -> Self {
        References(RefCell::new((0..VARIANTS).map(|_| None).collect()))
    }

    /// Whether `r` answers variant `v` as its reference did, by `same`;
    /// the first answer of a variant becomes its reference.
    pub fn matches(&self, v: usize, r: T, same: impl Fn(&T, &T) -> bool) -> bool {
        let mut refs = self.0.borrow_mut();
        match &refs[v] {
            Some(want) => same(&r, want),
            None => {
                refs[v] = Some(r);
                true
            }
        }
    }

    /// `f` of variant `v`'s reference, if it has one.
    pub fn with<U>(&self, v: usize, f: impl FnOnce(&T) -> U) -> Option<U> {
        self.0.borrow()[v].as_ref().map(f)
    }

    /// The mean of `f` over the variants' references.
    pub fn mean(&self, f: impl Fn(&T) -> f64) -> f64 {
        let xs: Vec<f64> = self.0.borrow().iter().flatten().map(f).collect();
        ratio(xs.iter().sum(), xs.len() as f64)
    }
}

/// An untraced operation on variant `v`: its host wall and the checker's
/// findings.
pub type OpResult = Result<(f64, Vec<String>), String>;

/// A closed loop with one client: run `op` back to back, cycling through
/// the variants, for the run's seconds and at least once per variant.
/// Returns the walls of the operations.
pub fn closed_loop(
    ctx: &Ctx,
    check: &mut Checker,
    mut op: impl FnMut(usize, &mut Checker) -> OpResult,
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut walls = Vec::new();
    let mut i = 0;
    while i < VARIANTS || Instant::now() < deadline {
        match op(i % VARIANTS, check) {
            Ok((wall, problems)) => {
                walls.push(wall);
                check.record("operation", problems);
            }
            Err(e) => {
                check.record("operation", vec![e]);
            }
        }
        i += 1;
    }
    walls
}

/// Jobs per window of [`tail`].
const TAIL_WINDOW: usize = 256;

/// Tail latency: the 99th percentile of each window of [`TAIL_WINDOW`]
/// consecutive jobs, and the median of those, so that one pause of the
/// host moves one window rather than the run's tail. With fewer than two
/// windows of jobs, the highest percentile that still has ten jobs beyond
/// it (never below the median): about the 70th on a run of 35 operations,
/// whose slowest few record the host's pauses rather than the program.
fn tail(latencies: &[f64]) -> f64 {
    let n = latencies.len();
    if n < 2 * TAIL_WINDOW {
        return percentile(latencies, (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99));
    }
    median(&latencies.chunks_exact(TAIL_WINDOW).map(|w| percentile(w, 0.99)).collect::<Vec<_>>())
}

/// End-to-end metrics of a workload whose jobs took `latencies` seconds
/// each, served in `busy_s` seconds of closed-loop time. On the batch
/// workloads a job is an operation, so `latencies` are the operation
/// walls and `busy_s` their sum.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    latencies: &[f64],
    busy_s: f64,
    modeled_s: f64,
    edge_cut: f64,
) {
    out.jobs = latencies.len();
    let (rep, check) = (&mut out.report, &out.check);
    rep.set("setup_s", setup_s);
    rep.set("wall_s", median(latencies));
    rep.set("modeled_s", modeled_s);
    rep.set("edge_cut", edge_cut);
    rep.set("success_rate", ratio((check.attempted - check.failed) as f64, check.attempted as f64));
    rep.set("p99_ms", tail(latencies) * 1e3);
    rep.set("throughput_jps", ratio(latencies.len() as f64, busy_s));
}

/// The traced run's root spans (one per traced operation) and the
/// untraced walls measured between them.
pub struct Traced {
    pub roots: Vec<usize>,
    untraced: Vec<f64>,
}

impl Traced {
    /// Median over traced operations of the total time in spans `name`.
    pub fn per_op(&self, tr: &Tracer, name: &str) -> f64 {
        median(&self.roots.iter().map(|&r| tr.total_under(r, name)).collect::<Vec<_>>())
    }

    /// Median traced operation wall.
    pub fn wall(&self, tr: &Tracer) -> f64 {
        median(&self.roots.iter().map(|&r| tr.spans[r].secs()).collect::<Vec<_>>())
    }

    /// `trace.overhead_frac` and `trace.coverage_frac`.
    pub fn report_trace(&self, out: &mut Outcome) {
        let overhead = self.wall(&out.tracer) / median(&self.untraced) - 1.0;
        out.report.set("trace.overhead_frac", overhead);
        out.report.set("trace.coverage_frac", out.tracer.coverage("op"));
    }
}

/// The traced run: untraced and traced operations alternate, so the
/// overhead ratio compares neighbours in time. `traced_op` runs inside a
/// root span named `op` and returns the checker's findings. The pool
/// counters' deltas over a traced operation, averaged over the variants,
/// are reported as `pool.*`.
pub fn traced_loop(
    ctx: &Ctx,
    out: &mut Outcome,
    mut untraced_op: impl FnMut(usize, &mut Checker) -> OpResult,
    mut traced_op: impl FnMut(usize, &mut Tracer, &mut Checker) -> Result<Vec<String>, String>,
) -> Traced {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut t = Traced { roots: Vec::new(), untraced: Vec::new() };
    let mut pool = [[0.0; 3]; VARIANTS];
    let mut i = 0;
    while i < VARIANTS || Instant::now() < deadline {
        let v = i % VARIANTS;
        i += 1;
        match untraced_op(v, &mut out.check) {
            Ok((wall, problems)) => {
                t.untraced.push(wall);
                out.check.record("untraced", problems);
            }
            Err(e) => {
                out.check.record("untraced", vec![e]);
            }
        }
        let before = gpm_pool::stats();
        let root = out.tracer.open("op");
        let problems = traced_op(v, &mut out.tracer, &mut out.check);
        out.tracer.close(root);
        let after = gpm_pool::stats();
        pool[v] = [
            (after.batches - before.batches) as f64,
            (after.chunks - before.chunks) as f64,
            (after.blocking_tasks - before.blocking_tasks) as f64,
        ];
        t.roots.push(root);
        out.check.record("traced", problems.unwrap_or_else(|e| vec![e]));
    }
    for (i, name) in ["pool.batches", "pool.chunks", "pool.blocking_tasks"].into_iter().enumerate()
    {
        out.report.set(name, pool.iter().map(|d| d[i]).sum::<f64>() / VARIANTS as f64);
    }
    t
}
