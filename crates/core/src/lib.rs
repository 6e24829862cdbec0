//! GP-metis — the paper's primary contribution: a lock-free multilevel
//! k-way graph partitioner for a heterogeneous CPU-GPU system.
//!
//! Pipeline (Fig. 1 of the paper):
//!
//! 1. the CSR graph is copied to GPU global memory;
//! 2. the GPU runs coarsening levels (lock-free matching + conflict
//!    resolution, 4-kernel cmap construction, two-phase contraction)
//!    while the graph is large enough to keep its thousands of threads
//!    busy;
//! 3. below the threshold the coarse graph moves to the CPU, which
//!    finishes coarsening, computes the initial k-way partition, and
//!    refines back up to the threshold level (all via the mt-metis
//!    engine, as in the paper);
//! 4. the partition returns to the GPU, which projects and refines
//!    through the remaining (large) levels with the buffered lock-free
//!    refinement;
//! 5. the final partition vector is copied back to the host.
//!
//! The GPU is simulated (see `gpm-gpu-sim` and DESIGN.md §1): the kernels
//! run with real host-thread concurrency and CUDA-like memory semantics,
//! and their time is modeled from coalesced-transaction and warp-
//! instruction counts with GTX Titan constants.
//!
//! This crate is the partitioner only. A long-lived service's per-job
//! policy (the GPU circuit breaker and the mt-metis last rung) lives in
//! `gpm-serve`.

pub mod gpu_graph;
pub mod kernels;
pub mod multi_gpu;

use gpm_faults::{FaultInjector, FaultPlan, PlanParseError};
use gpm_gpu_sim::{DBuf, Device, DeviceError, EngineId, EventId, GpuConfig, KernelStats, Timeline};
use gpm_graph::csr::CsrGraph;
use gpm_metis::coarsen::{CoarsenConfig, Hierarchy, Level};
use gpm_metis::cost::{CostLedger, CpuModel};
use gpm_metis::PartitionResult;
use gpm_mtmetis::MtMetisConfig;
use gpu_graph::{Distribution, GpuCsr};
use kernels::cmap::gpu_cmap_ws;
use kernels::contract::{gpu_contract_ws, GpuCoarsenScratch, MergeStrategy};
use kernels::matching::gpu_matching;
use kernels::refine::{gpu_part_weights, gpu_project, gpu_refine};
use std::sync::Arc;

pub use gpu_graph::Distribution as VertexDistribution;
pub use kernels::contract::MergeStrategy as ContractStrategy;

/// Configuration of the hybrid partitioner.
#[derive(Debug, Clone)]
pub struct GpMetisConfig {
    /// Number of partitions (the paper evaluates k = 64).
    pub k: usize,
    /// Balance tolerance (the paper uses 1.03).
    pub ubfactor: f64,
    /// The CPU/GPU switchover: levels with more vertices than this run on
    /// the GPU, smaller ones on the CPU (the paper's threshold, tuned so
    /// the GPU always has enough parallel work).
    pub gpu_threshold: usize,
    /// Proposal/resolve rounds per coarsening level (1 = exactly the
    /// paper's single match + resolve kernel pair; more rounds let
    /// conflict losers retry within the level).
    pub match_rounds: usize,
    /// Adjacency-merge strategy for the contraction kernel.
    pub merge: MergeStrategy,
    /// Refinement passes per GPU uncoarsening level.
    pub refine_passes: usize,
    /// Vertex→thread assignment (Cyclic = coalesced; Blocked for the
    /// ablation).
    pub distribution: Distribution,
    /// Maximum GPU threads per kernel launch (shrinks automatically with
    /// the graph).
    pub max_threads: usize,
    /// CPU threads for the middle phase (the paper's 8-core Xeon).
    pub cpu_threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// GPU machine model.
    pub gpu: GpuConfig,
    /// Degrade gracefully on unrecoverable device failure: checkpoint the
    /// hierarchy level-by-level while a fault plan is active and, when the
    /// device dies, finish the partition on the CPU engine from the last
    /// checkpoint instead of failing. Off by default — checkpointing
    /// downloads each coarse level over (modeled) PCIe.
    pub fallback: bool,
}

impl GpMetisConfig {
    /// Paper defaults: k parts, 3% imbalance, GTX Titan, 8 CPU threads.
    pub fn new(k: usize) -> Self {
        GpMetisConfig {
            k,
            ubfactor: 1.03,
            gpu_threshold: 5_000,
            match_rounds: 4,
            merge: MergeStrategy::Hash,
            refine_passes: 8,
            distribution: Distribution::Cyclic,
            max_threads: 1 << 15,
            cpu_threads: 8,
            seed: 1,
            gpu: GpuConfig::gtx_titan(),
            fallback: false,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style switchover-threshold override.
    pub fn with_gpu_threshold(mut self, t: usize) -> Self {
        self.gpu_threshold = t;
        self
    }

    /// Builder-style fallback (graceful degradation) override.
    pub fn with_fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }
}

/// Why a hybrid run could not produce a partition.
#[derive(Debug)]
pub enum PartitionError {
    /// The device failed (OOM, or an unrecoverable injected fault) and no
    /// fallback path was available.
    Device(DeviceError),
    /// The `GPM_FAULTS` environment variable did not parse.
    Plan(PlanParseError),
    /// The balance cap exceeds the device's 32-bit weight words.
    WeightOverflow,
    /// The run configuration was invalid (e.g. a zero device count).
    Config(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Device(e) => write!(f, "device failure: {e}"),
            PartitionError::Plan(e) => write!(f, "invalid GPM_FAULTS: {e}"),
            PartitionError::WeightOverflow => {
                write!(f, "total vertex weight exceeds the device's 32-bit weight word")
            }
            PartitionError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<DeviceError> for PartitionError {
    fn from(e: DeviceError) -> Self {
        PartitionError::Device(e)
    }
}

impl From<PlanParseError> for PartitionError {
    fn from(e: PlanParseError) -> Self {
        PartitionError::Plan(e)
    }
}

/// What actually happened during a run: fault-injection and degradation
/// bookkeeping, present on every result (all zeros/None for a clean run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The GPU died and the run finished on the CPU fallback path.
    pub degraded: bool,
    /// Pipeline phase where the device failed (e.g. `gpu:coarsen`).
    pub degrade_point: Option<String>,
    /// The device error that triggered degradation.
    pub device_error: Option<String>,
    /// Faults the active plan injected (device sites only).
    pub faults_injected: u64,
    /// Transient device faults absorbed by retry.
    pub device_retries: u64,
    /// GPU coarsening levels captured in the checkpoint and reused by the
    /// fallback (0 when checkpointing was off).
    pub checkpoint_gpu_levels: usize,
}

/// Host-side copy of the device hierarchy, maintained level-by-level while
/// `fallback` is armed so the CPU engine can resume where the GPU died.
pub(crate) struct Checkpoint {
    /// Finished GPU levels: the fine graph at each level plus its
    /// fine-to-coarse map (same shape as the CPU engine's hierarchy).
    pub(crate) host_levels: Vec<Level>,
    /// The graph after the last completed GPU level.
    pub(crate) coarse: CsrGraph,
}

/// GPU-side report accompanying a run.
#[derive(Debug, Clone)]
pub struct GpuReport {
    /// Coarsening levels executed on the GPU.
    pub gpu_levels: usize,
    /// Coarsening levels executed on the CPU middle phase.
    pub cpu_levels: usize,
    /// Total matching conflicts observed by the resolve kernels.
    pub match_conflicts: u64,
    /// Total refinement moves committed by the explore kernels.
    pub refine_moves: u64,
    /// PCIe seconds (all transfers, both directions).
    pub transfer_seconds: f64,
    /// PCIe bytes moved.
    pub transfer_bytes: u64,
    /// Modeled GPU kernel seconds.
    pub gpu_seconds: f64,
    /// Peak device memory in use, bytes.
    pub peak_device_bytes: u64,
    /// Per-kernel statistics log.
    pub kernel_log: Vec<KernelStats>,
}

/// Result of a GP-metis run.
#[derive(Debug, Clone)]
pub struct GpMetisResult {
    /// The partition, quality numbers and modeled-time ledger (same shape
    /// as every other partitioner in the workspace).
    pub result: PartitionResult,
    /// GPU-side details.
    pub gpu: GpuReport,
    /// Fault-injection and degradation record.
    pub report: RunReport,
    /// Overlap-aware schedule of the run (critical-path makespan and
    /// per-engine occupancy) when the run finished on the clean GPU path.
    /// `None` on the degraded path, whose timeline the DAG does not model.
    pub overlap: Option<gpm_gpu_sim::OverlapReport>,
}

/// A device-resident multilevel level.
pub(crate) struct GpuLevel {
    pub(crate) graph: GpuCsr,
    pub(crate) cmap: DBuf<u32>,
}

/// Outcome of a device coarsening loop.
struct CoarsenOutcome {
    levels: Vec<GpuLevel>,
    coarsest: GpuCsr,
    conflicts: u64,
    peak_mem: u64,
    /// The loop's last compute op on the overlap timeline.
    last: EventId,
}

/// A completed device coarsening level.
pub(crate) struct CoarseStep {
    pub(crate) cmap: DBuf<u32>,
    pub(crate) coarse: GpuCsr,
    /// Device bytes in use as the contraction finished, with the level's
    /// matching still resident: the level's memory high-water mark.
    pub(crate) mem_used: u64,
}

/// One device coarsening level of `cur` (level `lvl`), for the
/// single-GPU loop and every multi-GPU shard: lock-free matching, the
/// cmap, and — unless the level stalled, shrinking the graph by less than
/// the reduction cutoff — the contraction. Returns the matching conflicts
/// and the completed level, if any.
pub(crate) fn gpu_coarsen_level(
    dev: &Device,
    cur: &GpuCsr,
    max_vwgt: u32,
    uniform: bool,
    lvl: usize,
    cfg: &GpMetisConfig,
    scratch: &mut GpuCoarsenScratch,
) -> Result<(u64, Option<CoarseStep>), DeviceError> {
    let (mat, mstats) = gpu_matching(
        dev,
        cur,
        max_vwgt,
        cfg.match_rounds,
        uniform,
        cfg.seed.wrapping_add(lvl as u64),
        cfg.distribution,
        cfg.max_threads,
    )?;
    let (cmap, nc) = gpu_cmap_ws(dev, &mat, cfg.distribution, cfg.max_threads, scratch)?;
    if nc as f64 / cur.n as f64 > CoarsenConfig::for_k(cfg.k).reduction_cutoff {
        return Ok((mstats.conflicts, None));
    }
    let coarse = gpu_contract_ws(dev, cur, &mat, &cmap, nc, cfg.merge, cfg.max_threads, scratch)?;
    let mem_used = dev.mem_used();
    Ok((mstats.conflicts, Some(CoarseStep { cmap, coarse, mem_used })))
}

/// Run GPU coarsening levels on `dev` until the graph drops below the
/// threshold or matching stalls. Each level's kernels are recorded on the
/// timeline after `last` as they finish, its checkpoint download (when
/// armed) beside them on the D2H copy engine.
fn gpu_coarsen_loop(
    dev: &Device,
    g: &CsrGraph,
    g0: GpuCsr,
    cfg: &GpMetisConfig,
    mut ckpt: Option<&mut Checkpoint>,
    tl: &mut Timeline,
    mut last: EventId,
) -> Result<CoarsenOutcome, DeviceError> {
    let ccfg = CoarsenConfig::for_k(cfg.k);
    let max_vwgt = ccfg.max_vwgt(g.total_vwgt());
    let mut uniform = g.uniform_edge_weights();
    let mut levels: Vec<GpuLevel> = Vec::new();
    let mut cur = g0;
    let mut conflicts = 0u64;
    let mut peak_mem = 0u64;
    let mut prev = dev.elapsed();
    // One device scratch for the whole coarsening loop: the first level
    // sizes the contraction temporaries and scan buffers high-water,
    // later levels recycle them without touching the device allocator.
    // Dropped with this function, before the uncoarsening ascent.
    let mut scratch = GpuCoarsenScratch::new();
    while cur.n > cfg.gpu_threshold && levels.len() < ccfg.max_levels {
        let lvl = levels.len();
        let (level_conflicts, step) =
            gpu_coarsen_level(dev, &cur, max_vwgt, uniform, lvl, cfg, &mut scratch)?;
        conflicts += level_conflicts;
        let Some(CoarseStep { cmap, coarse, mem_used }) = step else {
            break; // stalled; hand over to the CPU
        };
        peak_mem = peak_mem.max(mem_used);
        let kernels_done = dev.elapsed();
        if let Some(ck) = ckpt.as_deref_mut() {
            // Checkpoint the finished level on the host. If the download
            // itself dies the checkpoint keeps its pre-level state.
            let cmap_host = dev.d2h(&cmap)?;
            let coarse_host = coarse.download(dev)?;
            let fine = std::mem::replace(&mut ck.coarse, coarse_host);
            ck.host_levels.push(Level { graph: fine, cmap: cmap_host });
        }
        let c = tl.record(
            EngineId::Compute(0),
            &format!("gpu:coarsen:l{lvl}"),
            kernels_done - prev,
            &[last],
        );
        prev = dev.elapsed();
        if prev > kernels_done {
            // the checkpoint download streams on the copy engine: the next
            // level's kernels don't wait for it
            tl.record(EngineId::D2H(0), &format!("ckpt:d2h:l{lvl}"), prev - kernels_done, &[c]);
        }
        last = c;
        uniform = false; // contraction sums weights; HEM has signal now
        levels.push(GpuLevel { graph: std::mem::replace(&mut cur, coarse), cmap });
    }
    let end = dev.elapsed();
    if end > prev || levels.is_empty() {
        // the stalled matching+cmap that ended the loop (and the whole
        // phase when no level completed)
        last = tl.record(EngineId::Compute(0), "gpu:coarsen:tail", end - prev, &[last]);
    }
    Ok(CoarsenOutcome { levels, coarsest: cur, conflicts, peak_mem, last })
}

/// Project + refine back up through the device levels, recording one
/// compute op per level after `last`. Returns the fine device partition,
/// the number of committed moves and the last recorded op.
fn gpu_uncoarsen_loop(
    dev: &Device,
    levels: &[GpuLevel],
    mut dpart: DBuf<u32>,
    maxw: u32,
    cfg: &GpMetisConfig,
    tl: &mut Timeline,
    mut last: EventId,
) -> Result<(DBuf<u32>, u64, EventId), DeviceError> {
    let mut refine_moves = 0u64;
    let mut prev = dev.elapsed();
    for (step, lvl) in (0..levels.len()).rev().enumerate() {
        let fine = &levels[lvl].graph;
        dpart = gpu_project(dev, &levels[lvl].cmap, &dpart, cfg.distribution, cfg.max_threads)?;
        let pw = gpu_part_weights(dev, fine, &dpart, cfg.k, cfg.distribution, cfg.max_threads)?;
        let stats = gpu_refine(
            dev,
            fine,
            &dpart,
            &pw,
            cfg.k,
            maxw,
            cfg.refine_passes,
            cfg.distribution,
            cfg.max_threads,
        )?;
        refine_moves += stats.moves;
        let now = dev.elapsed();
        last =
            tl.record(EngineId::Compute(0), &format!("gpu:uncoarsen:s{step}"), now - prev, &[last]);
        prev = now;
    }
    if levels.is_empty() {
        last = tl.record(EngineId::Compute(0), "gpu:uncoarsen", dev.elapsed() - prev, &[last]);
    }
    Ok((dpart, refine_moves, last))
}

/// The mt-metis configuration the CPU middle phase (and the fallback
/// path) runs with.
fn mt_config(cfg: &GpMetisConfig) -> MtMetisConfig {
    MtMetisConfig {
        k: cfg.k,
        threads: cfg.cpu_threads,
        ubfactor: cfg.ubfactor,
        seed: cfg.seed,
        ..MtMetisConfig::new(cfg.k)
    }
}

/// CPU coarsening + initial partitioning of `coarse` (the first half of
/// the mt-metis middle phase).
fn cpu_coarsen_init(
    coarse: &CsrGraph,
    cfg: &GpMetisConfig,
    mt: &MtMetisConfig,
    model: &CpuModel,
    cpu_ledger: &mut CostLedger,
) -> (Hierarchy, Vec<u32>) {
    let hierarchy = gpm_mtmetis::parallel_coarsen(coarse, mt, model, cpu_ledger);
    let (cpart, init_crit) = gpm_mtmetis::pinit::parallel_init_partition(
        hierarchy.coarsest(),
        cfg.k,
        cfg.ubfactor,
        mt.gggp_trials,
        mt.fm_passes,
        cfg.seed,
        cfg.cpu_threads,
    );
    cpu_ledger.parallel("initpart", model, &[init_crit], 1);
    (hierarchy, cpart)
}

/// Level and work counters of a run, reported in [`GpuReport`].
#[derive(Default)]
struct RunCounts {
    gpu_levels: usize,
    cpu_levels: usize,
    conflicts: u64,
    refine_moves: u64,
    peak_mem: u64,
}

/// One single-GPU run: the device, the serialized ledger with the device
/// clock at its last charge, and the overlap timeline (DESIGN.md §16).
/// Each timeline op is recorded where its ledger phase is charged, so op
/// durations tile the serialized phases and the critical path can never
/// exceed the serialized total.
struct Run<'a> {
    g: &'a CsrGraph,
    cfg: &'a GpMetisConfig,
    t0: std::time::Instant,
    dev: Device,
    injector: Option<Arc<FaultInjector>>,
    mt: MtMetisConfig,
    model: CpuModel,
    ledger: CostLedger,
    mark: f64,
    tl: Timeline,
}

impl Run<'_> {
    /// Charge the device time since the last charge to ledger phase
    /// `name`; returns the seconds charged.
    fn charge(&mut self, name: &str) -> f64 {
        let now = self.dev.elapsed();
        let secs = now - self.mark;
        self.ledger.seconds(name, secs);
        self.mark = now;
        secs
    }

    /// [`Run::charge`] a transfer phase and record it on `engine` after
    /// `deps`, labelled like the phase.
    fn charge_op(&mut self, engine: EngineId, name: &str, deps: &[EventId]) -> EventId {
        let secs = self.charge(name);
        self.tl.record(engine, name, secs, deps)
    }

    /// The fault bookkeeping of the run so far.
    fn report(&self, checkpoint_gpu_levels: usize) -> RunReport {
        RunReport {
            faults_injected: self.injector.as_ref().map_or(0, |i| i.injected()),
            device_retries: self.dev.fault_retries(),
            checkpoint_gpu_levels,
            ..RunReport::default()
        }
    }

    /// The device failed at `point`: without a checkpoint that is the
    /// run's error; with one, degrade to the CPU engine. `entry` is the
    /// CPU middle phase's partition of the checkpointed coarse graph when
    /// the device died after that phase; it is projected and refined up
    /// through the salvaged GPU levels. Without it, the CPU engine first
    /// finishes coarsening from the last checkpointed level, and one
    /// combined uncoarsen+refine walks back up through both the CPU and
    /// the salvaged GPU levels.
    fn degrade(
        mut self,
        (point, err): (&str, DeviceError),
        ckpt: Option<Checkpoint>,
        entry: Option<Vec<u32>>,
        mut counts: RunCounts,
    ) -> Result<GpMetisResult, PartitionError> {
        let Some(ck) = ckpt else { return Err(err.into()) };
        self.ledger.seconds(&format!("{point}(aborted)"), self.dev.elapsed() - self.mark);
        let report = RunReport {
            degraded: true,
            degrade_point: Some(point.to_string()),
            device_error: Some(err.to_string()),
            ..self.report(ck.host_levels.len())
        };
        let mut fb_ledger = CostLedger::new();
        counts.gpu_levels = ck.host_levels.len();
        let mut levels = ck.host_levels;
        let cpart = match entry {
            Some(part) => {
                levels.push(Level { graph: ck.coarse, cmap: Vec::new() });
                part
            }
            None => {
                let (cpu_hier, cpart) =
                    cpu_coarsen_init(&ck.coarse, self.cfg, &self.mt, &self.model, &mut fb_ledger);
                counts.cpu_levels = cpu_hier.depth();
                levels.extend(cpu_hier.levels);
                cpart
            }
        };
        let part = gpm_mtmetis::uncoarsen_with_refine(
            &Hierarchy { levels },
            cpart,
            &self.mt,
            &self.model,
            &mut fb_ledger,
        );
        for (name, secs) in &fb_ledger.phases {
            self.ledger.seconds(&format!("cpufb:{name}"), *secs);
        }
        counts.peak_mem = counts.peak_mem.max(self.dev.mem_used());
        Ok(self.finish(part, counts, report, None))
    }

    /// Assemble the [`GpMetisResult`] of a finished partition.
    fn finish(
        self,
        part: Vec<u32>,
        c: RunCounts,
        report: RunReport,
        overlap: Option<gpm_gpu_sim::OverlapReport>,
    ) -> GpMetisResult {
        let (g, cfg, dev) = (self.g, self.cfg, &self.dev);
        let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
        let imbalance = gpm_graph::metrics::imbalance(g, &part, cfg.k);
        GpMetisResult {
            result: PartitionResult {
                part,
                k: cfg.k,
                edge_cut,
                imbalance,
                ledger: self.ledger,
                wall_seconds: self.t0.elapsed().as_secs_f64(),
                levels: c.gpu_levels + c.cpu_levels + 1,
            },
            gpu: GpuReport {
                gpu_levels: c.gpu_levels,
                cpu_levels: c.cpu_levels,
                match_conflicts: c.conflicts,
                refine_moves: c.refine_moves,
                transfer_seconds: dev.transfer_seconds_total(),
                transfer_bytes: dev.transfer_bytes_total(),
                gpu_seconds: dev.elapsed() - dev.transfer_seconds_total(),
                peak_device_bytes: c.peak_mem,
                kernel_log: dev.kernel_log(),
            },
            report,
            overlap,
        }
    }
}

/// Partition `g` into `cfg.k` parts with the hybrid CPU-GPU algorithm.
///
/// Reads `GPM_FAULTS` for a deterministic fault-injection plan (see
/// `gpm-faults`); [`partition_with_plan`] takes the plan programmatically.
/// Fails with [`PartitionError::Device`] when the graph (plus the level
/// hierarchy) does not fit in device memory — the constraint the paper's
/// future-work multi-GPU extension targets (see [`crate::multi_gpu`]) —
/// or when an injected fault kills the device and `cfg.fallback` is off.
///
/// ```
/// use gpm_graph::gen::delaunay_like;
/// use gp_metis::{partition, GpMetisConfig};
///
/// let g = delaunay_like(2_000, 42);
/// let cfg = GpMetisConfig::new(8).with_gpu_threshold(500);
/// let r = partition(&g, &cfg).unwrap();
/// assert!(r.gpu.gpu_levels >= 1);
/// assert!(!r.report.degraded);
/// gpm_graph::metrics::validate_partition(&g, &r.result.part, 8, 1.15).unwrap();
/// ```
pub fn partition(g: &CsrGraph, cfg: &GpMetisConfig) -> Result<GpMetisResult, PartitionError> {
    let plan = FaultPlan::from_env()?;
    partition_with_plan(g, cfg, plan)
}

/// [`partition`] with an explicit fault plan (`None` = no injection; the
/// environment is ignored). With `cfg.fallback` set and an active plan,
/// an unrecoverable device failure degrades to the CPU engine from the
/// last per-level checkpoint instead of failing the run; the returned
/// [`RunReport`] records what happened.
pub fn partition_with_plan(
    g: &CsrGraph,
    cfg: &GpMetisConfig,
    plan: Option<FaultPlan>,
) -> Result<GpMetisResult, PartitionError> {
    let t0 = std::time::Instant::now();
    let injector = plan.map(|p| Arc::new(FaultInjector::new(p)));
    let dev = match &injector {
        Some(i) => Device::with_faults(cfg.gpu.clone(), Arc::clone(i)),
        None => Device::new(cfg.gpu.clone()),
    };
    // Checkpointing only arms when degradation is both requested and
    // possible — an inactive injector cannot fault, and the level
    // downloads would perturb the modeled times of clean runs.
    let ckpt_armed = cfg.fallback && injector.as_ref().is_some_and(|i| i.is_active());
    let mut ckpt = ckpt_armed.then(|| Checkpoint { host_levels: Vec::new(), coarse: g.clone() });
    let mut run = Run {
        g,
        cfg,
        t0,
        mark: dev.elapsed(),
        dev,
        injector,
        mt: mt_config(cfg),
        model: CpuModel::xeon_e5540(cfg.cpu_threads),
        ledger: CostLedger::new(),
        tl: Timeline::new(),
    };

    // 1-3. GPU front half: upload, coarsening levels, coarse D2H.
    let front = (|| {
        let g0 = GpuCsr::upload(&run.dev, g).map_err(|e| ("xfer:h2d:graph", e))?;
        let up = run.charge_op(EngineId::H2D(0), "xfer:h2d:graph", &[]);
        let outcome = gpu_coarsen_loop(&run.dev, g, g0, cfg, ckpt.as_mut(), &mut run.tl, up)
            .map_err(|e| ("gpu:coarsen", e))?;
        run.charge("gpu:coarsen");
        let coarse_host =
            outcome.coarsest.download(&run.dev).map_err(|e| ("xfer:d2h:coarse", e))?;
        let down = run.charge_op(EngineId::D2H(0), "xfer:d2h:coarse", &[outcome.last]);
        Ok((outcome, coarse_host, down))
    })();
    let (outcome, coarse_host, down) = match front {
        Ok(v) => v,
        Err(failure) => return run.degrade(failure, ckpt, None, RunCounts::default()),
    };
    let CoarsenOutcome { levels, coarsest: _, conflicts, peak_mem, last: _ } = outcome;

    // 4. CPU middle phase (mt-metis): finish coarsening, initial
    //    partitioning, refine back up to the threshold level.
    let mut cpu_ledger = CostLedger::new();
    let (hierarchy, cpart) =
        cpu_coarsen_init(&coarse_host, cfg, &run.mt, &run.model, &mut cpu_ledger);
    let part_at_entry =
        gpm_mtmetis::uncoarsen_with_refine(&hierarchy, cpart, &run.mt, &run.model, &mut cpu_ledger);
    let mut cpu_last = down;
    for (name, secs) in &cpu_ledger.phases {
        let name = format!("cpu:{name}");
        run.ledger.seconds(&name, *secs);
        cpu_last = run.tl.record(EngineId::Cpu, &name, *secs, &[cpu_last]);
    }
    let mut counts = RunCounts {
        gpu_levels: levels.len(),
        cpu_levels: hierarchy.depth(),
        conflicts,
        refine_moves: 0,
        peak_mem,
    };

    // 5-7. GPU back half: partition H2D, project + refine per level, D2H.
    let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), cfg.k, cfg.ubfactor);
    let maxw = u32::try_from(maxw).map_err(|_| PartitionError::WeightOverflow)?;
    let back = (|| {
        let dpart = run.dev.h2d(&part_at_entry).map_err(|e| ("xfer:h2d:part", e))?;
        let up = run.charge_op(EngineId::H2D(0), "xfer:h2d:part", &[cpu_last]);
        let (dpart, refine_moves, last) =
            gpu_uncoarsen_loop(&run.dev, &levels, dpart, maxw, cfg, &mut run.tl, up)
                .map_err(|e| ("gpu:uncoarsen", e))?;
        counts.peak_mem = counts.peak_mem.max(run.dev.mem_used());
        run.charge("gpu:uncoarsen");
        let part = run.dev.d2h(&dpart).map_err(|e| ("xfer:d2h:part", e))?;
        run.charge_op(EngineId::D2H(0), "xfer:d2h:part", &[last]);
        Ok((part, refine_moves))
    })();
    match back {
        Ok((part, refine_moves)) => {
            counts.refine_moves = refine_moves;
            let report = run.report(ckpt.as_ref().map_or(0, |c| c.host_levels.len()));
            let overlap = run.tl.report(run.ledger.total());
            Ok(run.finish(part, counts, report, Some(overlap)))
        }
        Err(failure) => run.degrade(failure, ckpt, Some(part_at_entry), counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;

    fn small_cfg(k: usize) -> GpMetisConfig {
        // low threshold so tests exercise real GPU levels on small graphs
        GpMetisConfig::new(k).with_gpu_threshold(400)
    }

    #[test]
    fn partitions_grid_k4_with_gpu_levels() {
        let g = grid2d(40, 40);
        let r = partition(&g, &small_cfg(4)).unwrap();
        validate_partition(&g, &r.result.part, 4, 1.10).unwrap();
        assert!(r.gpu.gpu_levels >= 1, "expected GPU coarsening levels");
        assert!(r.gpu.transfer_bytes > 0);
        assert!(r.gpu.gpu_seconds > 0.0);
        assert!(r.result.modeled_seconds() > 0.0);
    }

    #[test]
    fn partitions_delaunay_k8() {
        let g = delaunay_like(3_000, 2);
        let r = partition(&g, &small_cfg(8).with_seed(3)).unwrap();
        validate_partition(&g, &r.result.part, 8, 1.12).unwrap();
        assert!(r.result.edge_cut < g.total_adjwgt() / 4, "cut {}", r.result.edge_cut);
        assert!(r.gpu.gpu_levels >= 1);
        assert!(r.gpu.refine_moves > 0);
    }

    #[test]
    fn partitions_road_k16() {
        let g = usa_roads_like(4_000, 5);
        let r = partition(&g, &small_cfg(16).with_seed(5)).unwrap();
        validate_partition(&g, &r.result.part, 16, 1.15).unwrap();
    }

    #[test]
    fn partitions_hex_k64() {
        let g = hugebubbles_like(15_000);
        let r = partition(&g, &small_cfg(64).with_seed(9)).unwrap();
        validate_partition(&g, &r.result.part, 64, 1.20).unwrap();
        let used: std::collections::HashSet<u32> = r.result.part.iter().copied().collect();
        assert_eq!(used.len(), 64);
    }

    #[test]
    fn small_graph_runs_entirely_on_cpu() {
        let g = grid2d(10, 10);
        let r = partition(&g, &GpMetisConfig::new(4)).unwrap(); // threshold 5000 > n
        assert_eq!(r.gpu.gpu_levels, 0);
        validate_partition(&g, &r.result.part, 4, 1.25).unwrap();
    }

    #[test]
    fn oom_reported_for_tiny_device() {
        let g = grid2d(30, 30);
        let mut cfg = small_cfg(4);
        cfg.gpu = GpuConfig::tiny(1024);
        assert!(partition(&g, &cfg).is_err());
    }

    #[test]
    fn quality_comparable_to_serial_metis() {
        let g = delaunay_like(3_000, 11);
        let serial = gpm_metis::partition(&g, &gpm_metis::MetisConfig::new(8).with_seed(4));
        let hybrid = partition(&g, &small_cfg(8).with_seed(4)).unwrap();
        // paper Table III: GP-metis cut within ~10-20% of Metis
        assert!(
            (hybrid.result.edge_cut as f64) < 1.8 * serial.edge_cut as f64,
            "gp {} vs serial {}",
            hybrid.result.edge_cut,
            serial.edge_cut
        );
    }

    #[test]
    fn both_merge_strategies_work() {
        let g = delaunay_like(1_500, 6);
        for merge in [MergeStrategy::SortMerge, MergeStrategy::Hash] {
            let mut cfg = small_cfg(4);
            cfg.merge = merge;
            let r = partition(&g, &cfg).unwrap();
            validate_partition(&g, &r.result.part, 4, 1.12)
                .unwrap_or_else(|e| panic!("{merge:?}: {e}"));
        }
    }

    #[test]
    fn ledger_has_all_pipeline_phases() {
        let g = delaunay_like(2_000, 8);
        let r = partition(&g, &small_cfg(4)).unwrap();
        let l = &r.result.ledger;
        assert!(l.total_for("xfer:") > 0.0);
        assert!(l.total_for("gpu:coarsen") > 0.0);
        assert!(l.total_for("cpu:") > 0.0);
        assert!(l.total_for("gpu:uncoarsen") > 0.0);
    }

    use gpm_faults::{FaultKind, Selector};

    /// Launch invocation (0-based) of the first kernel of GPU coarsening
    /// level 1 in a clean run — the ISSUE's canonical kill point.
    fn level1_first_launch(g: &CsrGraph, cfg: &GpMetisConfig) -> u64 {
        let clean = partition_with_plan(g, cfg, None).unwrap();
        assert!(clean.gpu.gpu_levels >= 2, "need >= 2 GPU levels to target level 1");
        let log = clean.gpu.kernel_log;
        let first = log[0].name.clone();
        // level 1 starts at the second occurrence of level 0's first kernel
        (log.iter().skip(1).position(|k| k.name == first).unwrap() + 1) as u64
    }

    #[test]
    fn device_loss_at_level1_degrades_to_cpu_from_checkpoint() {
        let g = delaunay_like(3_000, 2);
        let cfg = small_cfg(8).with_seed(3).with_fallback(true);
        let kill = level1_first_launch(&g, &cfg);
        let plan = FaultPlan::new(7).with("gpu.launch", Selector::One(kill), FaultKind::DeviceLost);
        let r = partition_with_plan(&g, &cfg, Some(plan)).unwrap();
        assert!(r.report.degraded);
        assert_eq!(r.report.degrade_point.as_deref(), Some("gpu:coarsen"));
        assert_eq!(r.report.checkpoint_gpu_levels, 1, "level 0 was checkpointed");
        assert!(r.report.device_error.is_some());
        assert!(r.report.faults_injected >= 1);
        validate_partition(&g, &r.result.part, 8, 1.12).unwrap();
        // quality stays in the CPU engine's league
        let mt = gpm_mtmetis::partition(
            &g,
            &gpm_mtmetis::MtMetisConfig { seed: 3, ..gpm_mtmetis::MtMetisConfig::new(8) },
        );
        assert!(
            (r.result.edge_cut as f64) < 1.5 * mt.edge_cut as f64,
            "degraded {} vs mtmetis {}",
            r.result.edge_cut,
            mt.edge_cut
        );
        // the fallback work shows up under its own ledger prefix
        assert!(r.result.ledger.total_for("cpufb:") > 0.0);
        assert!(r.result.ledger.total_for("gpu:coarsen(aborted)") >= 0.0);
    }

    #[test]
    fn device_loss_without_fallback_is_a_typed_error() {
        let g = delaunay_like(3_000, 2);
        let cfg = small_cfg(8).with_seed(3);
        let kill = level1_first_launch(&g, &cfg);
        let plan = FaultPlan::new(7).with("gpu.launch", Selector::One(kill), FaultKind::DeviceLost);
        match partition_with_plan(&g, &cfg, Some(plan)) {
            Err(PartitionError::Device(e)) => assert!(!e.is_transient()),
            other => panic!("expected device error, got {other:?}"),
        }
    }

    #[test]
    fn transient_faults_retry_without_changing_the_partition() {
        let g = delaunay_like(2_000, 8);
        let cfg = small_cfg(4);
        let clean = partition_with_plan(&g, &cfg, None).unwrap();
        let plan = FaultPlan::new(11)
            .with("gpu.h2d", Selector::One(1), FaultKind::TransferError)
            .with("gpu.launch", Selector::One(3), FaultKind::KernelAbort);
        let r = partition_with_plan(&g, &cfg, Some(plan)).unwrap();
        assert!(!r.report.degraded);
        assert!(r.report.device_retries >= 2);
        assert!(r.report.faults_injected >= 2);
        assert_eq!(r.result.part, clean.result.part, "retries must not change the answer");
        // retries cost modeled time
        assert!(r.result.modeled_seconds() > clean.result.modeled_seconds());
    }

    #[test]
    fn empty_plan_is_byte_identical_to_no_plan() {
        let g = delaunay_like(2_000, 8);
        let cfg = small_cfg(4).with_fallback(true);
        let a = partition_with_plan(&g, &cfg, None).unwrap();
        let b = partition_with_plan(&g, &cfg, Some(FaultPlan::new(99))).unwrap();
        assert_eq!(a.result.part, b.result.part);
        assert_eq!(
            a.result.modeled_seconds().to_bits(),
            b.result.modeled_seconds().to_bits(),
            "empty plan must not perturb modeled time"
        );
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let g = delaunay_like(3_000, 2);
        let cfg = small_cfg(8).with_seed(3).with_fallback(true);
        let kill = level1_first_launch(&g, &cfg);
        let plan =
            || FaultPlan::new(7).with("gpu.launch", Selector::One(kill), FaultKind::DeviceLost);
        let a = partition_with_plan(&g, &cfg, Some(plan())).unwrap();
        let b = partition_with_plan(&g, &cfg, Some(plan())).unwrap();
        assert_eq!(a.result.part, b.result.part);
        assert_eq!(a.report, b.report);
        assert_eq!(a.result.modeled_seconds().to_bits(), b.result.modeled_seconds().to_bits());
    }

    #[test]
    fn death_after_middle_degrades_via_host_uncoarsen() {
        let g = delaunay_like(3_000, 2);
        let cfg = small_cfg(8).with_seed(3).with_fallback(true);
        // 4 h2d transfers upload the graph; invocation 4 is the partition
        // vector returning to the device after the CPU middle phase
        let plan = FaultPlan::new(5).with("gpu.h2d", Selector::One(4), FaultKind::DeviceLost);
        let r = partition_with_plan(&g, &cfg, Some(plan)).unwrap();
        assert!(r.report.degraded);
        assert_eq!(r.report.degrade_point.as_deref(), Some("xfer:h2d:part"));
        assert!(r.report.checkpoint_gpu_levels >= 1);
        validate_partition(&g, &r.result.part, 8, 1.12).unwrap();
        assert!(r.result.ledger.total_for("cpufb:") > 0.0);
    }

    #[test]
    fn deterministic_gpu_level_structure() {
        // racing threads make labels nondeterministic, but the level count
        // and validity must be stable
        let g = grid2d(30, 30);
        let a = partition(&g, &small_cfg(4).with_seed(3)).unwrap();
        let b = partition(&g, &small_cfg(4).with_seed(3)).unwrap();
        assert_eq!(a.gpu.gpu_levels, b.gpu.gpu_levels);
    }
}
