//! Multi-GPU partitioning — the paper's stated future work ("partitioning
//! of bigger graphs that do not fit to the global memory can be done on a
//! cluster of GPUs").
//!
//! The pipeline (DESIGN.md §15) shards the vertex range into one
//! contiguous block per device ([`gpm_graph::subgraph::halo_shards`]) and
//! runs the per-device loops as **real concurrent tasks** on `gpm-pool`
//! workers, joined by an [`Interconnect`] cost model
//! ([`gpm_gpu_sim::DeviceGroup`]):
//!
//! * **Coarsening supersteps** — each device contracts its local block
//!   one level per superstep (same kernels and per-level seeds as the
//!   single-GPU path); after every superstep, neighboring shards exchange
//!   boundary-cmap updates (each device keeps a `bmap`: border slot →
//!   current coarse id, composed on-device through the level's cmap), so
//!   every shard always knows the coarse identity of its ghosts. Modeled
//!   superstep time = max over devices + the slowest link's halo traffic.
//! * **Merge** — the coarsest shard graphs are downloaded and stitched
//!   with the cross-shard edges mapped through the exchanged bmaps (cross
//!   edges are *never dropped*; they are carried at every granularity),
//!   and the CPU partitions the merged coarse graph with mt-metis.
//! * **Uncoarsening supersteps** — devices refine back up level-locked
//!   from the coarse end (a device with fewer levels idles at its
//!   coarsest until the deeper devices catch up, so all reach the finest
//!   level together). Each superstep builds a device-local *halo graph*
//!   (ghost vertices appended with zero weight, reverse edges for
//!   re-marking) and runs ghost-aware refinement passes
//!   ([`crate::kernels::halo::HaloRefine`]): between passes the
//!   orchestrator ships only the moved border labels to the devices that
//!   ghost them and allreduces the partition weights; per-partition
//!   headroom caps (each device may claim `1/D` of the remaining balance
//!   headroom, the `gpm-parmetis` trick) keep concurrent commits jointly
//!   balance-safe. There is no trailing CPU seam-repair pass — the halo
//!   exchange is the seam repair.
//!
//! Determinism: shards, halo layouts and exchange routes are sorted
//! host-side; merges and moved-list consumption are index-ordered or
//! set-idempotent; device kernels carry the single-GPU path's
//! thread-count-independence guarantees. Partitions and modeled-time
//! ledgers are therefore byte-identical for any `GPM_THREADS`.

use crate::gpu_graph::{h2d_idx, GpuCsr};
use crate::kernels::cmap::gpu_cmap_ws;
use crate::kernels::contract::{gpu_contract_ws, GpuCoarsenScratch};
use crate::kernels::halo::{
    gpu_build_halo_graph, gpu_compose_bmap, gpu_project_halo, HaloLayout, HaloRefine,
};
use crate::kernels::matching::gpu_matching;
use crate::{GpMetisConfig, GpuLevel, PartitionError, RunReport};
use gpm_faults::FaultPlan;
use gpm_gpu_sim::{
    DBuf, Device, DeviceError, DeviceGroup, EngineId, EventId, LinkConfig, LinkStats,
    OverlapReport, Timeline,
};
use gpm_graph::boundary::BoundaryTracker;
use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::subgraph::{halo_shards, HaloShard};
use gpm_metis::coarsen::CoarsenConfig;
use gpm_metis::cost::{CostLedger, CpuModel, Work};
use gpm_metis::PartitionResult;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Chunks per shard slice on the overlap timeline: device `i`'s copy
/// engine uploads chunk `c` while the host cuts chunk `c+1`
/// (double-buffered H2D transfers, DESIGN.md §16). Accounting only —
/// the real upload is one call either way.
const UPLOAD_CHUNKS: usize = 8;

/// Configuration: a per-device [`GpMetisConfig`], the device count, and
/// the fabric joining the devices.
#[derive(Debug, Clone)]
pub struct MultiGpuConfig {
    /// Per-device settings (including each device's memory capacity).
    pub base: GpMetisConfig,
    /// Number of simulated devices.
    pub devices: usize,
    /// Interconnect cost model (default: PCIe gen2, staged through host).
    pub link: LinkConfig,
}

impl MultiGpuConfig {
    /// `devices` GPUs with the given per-device base configuration on the
    /// default PCIe-gen2 fabric. A zero device count is reported as a
    /// typed [`PartitionError::Config`] by [`partition_multi`], not here.
    pub fn new(base: GpMetisConfig, devices: usize) -> Self {
        MultiGpuConfig { base, devices, link: LinkConfig::pcie_gen2() }
    }

    /// Builder-style interconnect override.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// Result of a multi-GPU run.
#[derive(Debug, Clone)]
pub struct MultiGpuResult {
    /// The partition and modeled-time ledger.
    pub result: PartitionResult,
    /// Devices used.
    pub devices: usize,
    /// GPU coarsening levels per device.
    pub gpu_levels: Vec<usize>,
    /// Peak device memory per device (each must fit its own capacity).
    pub peak_device_bytes: Vec<u64>,
    /// Total PCIe bytes moved (all devices, host transfers).
    pub transfer_bytes: u64,
    /// Per-ordered-link interconnect traffic ledger.
    pub link_stats: Vec<(u32, u32, LinkStats)>,
    /// Total device-to-device payload bytes.
    pub interconnect_bytes: u64,
    /// Total modeled interconnect seconds.
    pub interconnect_seconds: f64,
    /// Cross-partition boundary vertices of the final partition
    /// ([`BoundaryTracker`] over the whole graph).
    pub boundary_vertices: usize,
    /// Fault/degradation record (the multi-GPU path runs clean: fault
    /// plans and fallback are rejected at two or more devices).
    pub report: RunReport,
    /// Overlap-aware schedule (critical-path makespan over per-device
    /// compute/copy engines, per-link comm engines and the host CPU lane).
    /// Pure accounting — the pipeline never consults it. `None` only when
    /// a one-device run degraded to the CPU.
    pub overlap: Option<OverlapReport>,
}

/// Per-superstep communication: modeled seconds per ordered link, folded
/// into the ledger as the *slowest link* (links are full-duplex and
/// mutually independent, so a superstep's exchange completes when its
/// busiest link drains).
#[derive(Default)]
struct CommStep {
    per_link: BTreeMap<(u32, u32), f64>,
}

impl CommStep {
    fn add(&mut self, secs: f64, src: u32, dst: u32) {
        *self.per_link.entry((src, dst)).or_default() += secs;
    }

    fn max(&self) -> f64 {
        self.per_link.values().fold(0.0, |a, &b| a.max(b))
    }
}

/// Orchestrator-side state of one device's pipeline.
struct DevState {
    shard: HaloShard,
    /// Level hierarchy; uncoarsening *pops* levels as it walks back up,
    /// so coarser levels' device buffers are released as soon as they
    /// have been projected through (the per-device peak stays ~1/D).
    levels: Vec<GpuLevel>,
    /// Total coarsening levels (recorded before uncoarsening pops them).
    total_levels: usize,
    /// Current coarse graph during coarsening.
    cur: Option<GpuCsr>,
    /// Border slot → current coarse id, composed per level on-device.
    bmap: Option<DBuf<u32>>,
    /// Host snapshot of `bmap` after each completed level (the payload of
    /// the per-level boundary-cmap halo exchange).
    bmap_levels: Vec<Vec<u32>>,
    scratch: Option<GpuCoarsenScratch>,
    uniform: bool,
    stalled: bool,
    peak: u64,
    coarse_host: Option<CsrGraph>,
    /// Partition vector at the device's current granularity (augmented
    /// with ghost slots while a refinement level is in flight).
    part: Option<DBuf<u32>>,
    halo: Option<GpuCsr>,
    refine: Option<HaloRefine>,
    pw: Option<DBuf<u32>>,
    caps: Option<DBuf<u32>>,
    /// Local (non-ghost) vertex count at the current granularity.
    n_local: usize,
}

fn lock_all<'a>(states: &'a [Mutex<DevState>]) -> Vec<MutexGuard<'a, DevState>> {
    states.iter().map(|m| m.lock().unwrap()).collect()
}

fn clocks(group: &DeviceGroup) -> Vec<f64> {
    group.devices().iter().map(Device::elapsed).collect()
}

/// Per-device modeled seconds since `before` — each device's own share of
/// a superstep (the overlap timeline charges these individually).
fn deltas(group: &DeviceGroup, before: &[f64]) -> Vec<f64> {
    group.devices().iter().zip(before).map(|(dv, &b)| dv.elapsed() - b).collect()
}

/// Modeled superstep seconds: devices ran concurrently, so the superstep
/// costs as much as its slowest device.
fn max_delta(group: &DeviceGroup, before: &[f64]) -> f64 {
    deltas(group, before).into_iter().fold(0.0, f64::max)
}

fn join<T>(results: Vec<Result<T, DeviceError>>) -> Result<Vec<T>, DeviceError> {
    results.into_iter().collect()
}

/// The current coarse id of border slot `b` once `lvls` levels have been
/// composed (0 levels = the border vertex's own local id).
#[allow(clippy::unnecessary_cast)] // `Vid as u32` is a real narrowing under idx64
fn border_id(st: &DevState, b: usize, lvls: usize) -> u32 {
    if lvls == 0 {
        st.shard.border[b] as u32
    } else {
        st.bmap_levels[lvls - 1][b]
    }
}

/// Partition `g` across `cfg.devices` simulated GPUs joined by
/// `cfg.link`. Each device only ever holds `~1/devices` of the graph
/// (plus its halo), so graphs exceeding a single device's memory become
/// partitionable; cross-shard edges participate in every phase through
/// the halo exchange.
pub fn partition_multi(
    g: &CsrGraph,
    cfg: &MultiGpuConfig,
) -> Result<MultiGpuResult, PartitionError> {
    if cfg.devices == 0 {
        return Err(PartitionError::Config("device count must be at least 1".to_string()));
    }
    if cfg.devices == 1 {
        // One device is exactly the single-GPU pipeline: delegate so the
        // partition AND the modeled-time ledger are byte-identical.
        let r = crate::partition(g, &cfg.base)?;
        let boundary_vertices = BoundaryTracker::build(g, &r.result.part).boundary_count();
        return Ok(MultiGpuResult {
            devices: 1,
            gpu_levels: vec![r.gpu.gpu_levels],
            peak_device_bytes: vec![r.gpu.peak_device_bytes],
            transfer_bytes: r.gpu.transfer_bytes,
            link_stats: Vec::new(),
            interconnect_bytes: 0,
            interconnect_seconds: 0.0,
            boundary_vertices,
            report: r.report,
            overlap: r.overlap,
            result: r.result,
        });
    }
    // The sharded pipeline has no fault sites and no checkpoint path: a
    // plan or a fallback request is rejected, never silently ignored.
    let plan = FaultPlan::from_env()?;
    if cfg.base.fallback || plan.is_some_and(|p| !p.is_empty()) {
        return Err(PartitionError::Config(
            "fault injection and fallback need a single device".to_string(),
        ));
    }

    let t0 = std::time::Instant::now();
    let base = &cfg.base;
    let k = base.k;
    let n = g.n();
    let d = cfg.devices.min(n.max(1));
    let model = CpuModel::xeon_e5540(base.cpu_threads);
    let ccfg = CoarsenConfig::for_k(k);
    let max_vwgt = ccfg.max_vwgt(g.total_vwgt());
    let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), k, base.ubfactor);
    let maxw = u32::try_from(maxw).map_err(|_| PartitionError::WeightOverflow)?;
    let mut ledger = CostLedger::new();
    let group = DeviceGroup::new(d, &base.gpu, cfg.link.clone());
    let ic = group.interconnect();

    // Overlap timeline (DESIGN.md §16): ops are recorded at the same
    // phase boundaries the serialized ledger charges, with explicit event
    // dependencies, and evaluated into a critical-path schedule at the
    // end. Pure accounting — the pipeline never consults it, so it
    // cannot perturb the partition or the ledger.
    let mut tl = Timeline::new();
    // last device-side op per device (the dep target for cross-engine
    // edges: halo exchanges, downloads, allreduce legs)
    let mut last_comp: Vec<EventId> = Vec::new();

    // --- shard with halo bookkeeping -----------------------------------
    let shards = halo_shards(g, d);
    // Shard extraction runs as d concurrent pool tasks (see halo_shards);
    // the scans are sequential copies over the block's CSR slice (vertex
    // rate), the ghost lookups per cross edge are gathers (edge rate).
    let shard_works: Vec<Work> = shards
        .iter()
        .map(|sh| {
            Work::new(sh.stubs.len() as u64, (sh.sub.adjncy.len() + 2 * sh.sub.n()) as u64)
                .with_ws(sh.sub.bytes())
        })
        .collect();
    ledger.parallel("cpu:mg:shard", &model, &shard_works, 1);
    // The CPU lane cuts the shards one block after another, in chunks:
    // device i's copy engine uploads chunk c while the lane cuts chunk
    // c+1 (double-buffered transfers). Equal slices of the phase charge
    // keep the lane's busy time exactly the ledger value; chunk
    // granularity treats bandwidth as dominant (PCIe latency is µs
    // against ms-scale shard uploads).
    let mut shard_chunk_ids: Vec<Vec<EventId>> = vec![Vec::new(); d];
    let chunk = ledger.phases.last().map_or(0.0, |(_, s)| *s) / (d * UPLOAD_CHUNKS) as f64;
    for ids in shard_chunk_ids.iter_mut() {
        for _ in 0..UPLOAD_CHUNKS {
            ids.push(tl.record(EngineId::Cpu, "cpu:mg:shard", chunk, &[]));
        }
    }
    // Distinct border slots receiver j references on owner i — the
    // per-level payload of the boundary-cmap exchange.
    let mut needed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (j, sh) in shards.iter().enumerate() {
        let mut per_owner: BTreeMap<usize, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for (gi, &own) in sh.ghost_owner.iter().enumerate() {
            per_owner.entry(own as usize).or_default().insert(sh.ghost_owner_border[gi]);
        }
        for (i, slots) in per_owner {
            needed.insert((i, j), slots.len() as u64);
        }
    }
    let states: Vec<Mutex<DevState>> = shards
        .into_iter()
        .map(|shard| {
            Mutex::new(DevState {
                shard,
                levels: Vec::new(),
                total_levels: 0,
                cur: None,
                bmap: None,
                bmap_levels: Vec::new(),
                scratch: None,
                uniform: false,
                stalled: false,
                peak: 0,
                coarse_host: None,
                part: None,
                halo: None,
                refine: None,
                pw: None,
                caps: None,
                n_local: 0,
            })
        })
        .collect();

    // --- upload (concurrent) -------------------------------------------
    let before = clocks(&group);
    join(gpm_pool::scoped_blocking(d, |i| -> Result<(), DeviceError> {
        let mut st = states[i].lock().unwrap();
        let dev = group.device(i);
        let g0 = GpuCsr::upload(dev, &st.shard.sub)?;
        if !st.shard.border.is_empty() {
            st.bmap = Some(h2d_idx(dev, &st.shard.border)?);
        }
        st.uniform = st.shard.sub.uniform_edge_weights();
        st.cur = Some(g0);
        st.scratch = Some(GpuCoarsenScratch::new());
        Ok(())
    }))?;
    ledger.seconds("xfer:h2d:graph(multi,max)", max_delta(&group, &before));
    for (i, &dur) in deltas(&group, &before).iter().enumerate() {
        // One chunk per shard chunk; copy-engine chaining serializes the
        // chunks while each waits only for its slice of the shard cut.
        let mut last = None;
        for &sid in &shard_chunk_ids[i] {
            last = Some(tl.record(
                EngineId::H2D(i as u32),
                "xfer:h2d:graph",
                dur / UPLOAD_CHUNKS as f64,
                &[sid],
            ));
        }
        last_comp.push(last.expect("UPLOAD_CHUNKS > 0"));
    }

    // --- coarsening supersteps (concurrent, one level each) ------------
    let mut gpu_coarsen_secs = 0.0;
    let mut ic_coarsen_secs = 0.0;
    // Exchange payloads (bmap snapshots) are consumed host-side at merge
    // time, not by the next superstep's kernels — so on the timeline the
    // exchanges feed the merge, and each device's levels form one
    // uninterrupted compute chain (comm/compute overlap replacing the
    // serialized superstep fold).
    let mut coarsen_exchange_ids: Vec<EventId> = Vec::new();
    loop {
        let can: Vec<bool> = {
            let sts = lock_all(&states);
            (0..d)
                .map(|i| {
                    !sts[i].stalled
                        && sts[i].levels.len() < ccfg.max_levels
                        && sts[i].cur.as_ref().is_some_and(|c| c.n > base.gpu_threshold)
                })
                .collect()
        };
        if !can.iter().any(|&c| c) {
            break;
        }
        let before = clocks(&group);
        let stepped = join(gpm_pool::scoped_blocking(d, |i| -> Result<bool, DeviceError> {
            if !can[i] {
                return Ok(false);
            }
            let mut st = states[i].lock().unwrap();
            let st = &mut *st;
            let dev = group.device(i);
            let lvl = st.levels.len();
            let cur = st.cur.as_ref().unwrap();
            let (mat, _mstats) = gpu_matching(
                dev,
                cur,
                max_vwgt,
                base.match_rounds,
                st.uniform,
                base.seed.wrapping_add(lvl as u64),
                base.distribution,
                base.max_threads,
            )?;
            let scratch = st.scratch.as_mut().unwrap();
            let (cmap, nc) = gpu_cmap_ws(dev, &mat, base.distribution, base.max_threads, scratch)?;
            if nc as f64 / cur.n as f64 > ccfg.reduction_cutoff {
                st.stalled = true; // stalled; this shard hands over early
                return Ok(false);
            }
            let coarse =
                gpu_contract_ws(dev, cur, &mat, &cmap, nc, base.merge, base.max_threads, scratch)?;
            st.peak = st.peak.max(dev.mem_used());
            if let Some(bmap) = st.bmap.as_ref() {
                gpu_compose_bmap(dev, &cmap, bmap, base.distribution, base.max_threads)?;
                let snap: Vec<u32> = (0..bmap.len()).map(|s| bmap.load(s)).collect();
                st.bmap_levels.push(snap);
            } else {
                st.bmap_levels.push(Vec::new());
            }
            st.uniform = false;
            let fine = std::mem::replace(st.cur.as_mut().unwrap(), coarse);
            st.levels.push(GpuLevel { graph: fine, cmap });
            Ok(true)
        }))?;
        gpu_coarsen_secs += max_delta(&group, &before);
        for (i, &dur) in deltas(&group, &before).iter().enumerate() {
            if dur > 0.0 {
                last_comp[i] =
                    tl.record(EngineId::Compute(i as u32), "gpu:coarsen", dur, &[last_comp[i]]);
            }
        }
        // Boundary-cmap halo exchange: every device that finished a level
        // ships its changed border slots to each neighbor that ghosts
        // them (coarse ids renumber every level, so all needed slots are
        // changed slots).
        let mut comm = CommStep::default();
        for (i, &did) in stepped.iter().enumerate() {
            if !did {
                continue;
            }
            for (&(_, j), &slots) in needed.range((i, 0)..(i + 1, 0)) {
                let secs = ic.record(i as u32, j as u32, 4 * slots);
                comm.add(secs, i as u32, j as u32);
                coarsen_exchange_ids.push(tl.record(
                    EngineId::Link(i as u32, j as u32),
                    "ic:coarsen:halo",
                    secs,
                    &[last_comp[i]],
                ));
            }
        }
        ic_coarsen_secs += comm.max();
    }
    ledger.seconds("gpu:coarsen(multi,max)", gpu_coarsen_secs);
    ledger.seconds("ic:coarsen:halo", ic_coarsen_secs);

    // --- download coarsest shards (concurrent) -------------------------
    let before = clocks(&group);
    join(gpm_pool::scoped_blocking(d, |i| -> Result<(), DeviceError> {
        let mut st = states[i].lock().unwrap();
        st.scratch = None; // contraction scratch is done for good
        st.total_levels = st.levels.len();
        let cur = st.cur.take().unwrap();
        let host = cur.download(group.device(i))?;
        st.peak = st.peak.max(group.device(i).mem_used());
        st.coarse_host = Some(host);
        Ok(())
    }))?;
    ledger.seconds("xfer:d2h:coarse(multi,max)", max_delta(&group, &before));
    let mut d2h_coarse_ids: Vec<EventId> = Vec::new();
    for (i, &dur) in deltas(&group, &before).iter().enumerate() {
        d2h_coarse_ids.push(tl.record(
            EngineId::D2H(i as u32),
            "xfer:d2h:coarse",
            dur,
            &[last_comp[i]],
        ));
    }

    // --- merge coarsest shards + cross edges on the host ---------------
    let (merged, offsets) = {
        let sts = lock_all(&states);
        let mut offsets = vec![0 as Vid; d + 1];
        for i in 0..d {
            offsets[i + 1] = offsets[i] + sts[i].coarse_host.as_ref().unwrap().n() as Vid;
        }
        let nc_total = offsets[d] as usize;
        let mut b = GraphBuilder::new(nc_total);
        let mut vwgt = vec![0u32; nc_total];
        for i in 0..d {
            let ch = sts[i].coarse_host.as_ref().unwrap();
            let off = offsets[i];
            for c in 0..ch.n() as Vid {
                vwgt[(off + c) as usize] = ch.vwgt[c as usize];
                for (x, w) in ch.edges(c) {
                    if c < x {
                        b.add_edge(off + c, off + x, w);
                    }
                }
            }
        }
        for i in 0..d {
            let li = sts[i].levels.len();
            for s in &sts[i].shard.stubs {
                let gu = sts[i].shard.new_to_old[s.u as usize];
                let gv = sts[i].shard.ghosts[s.ghost as usize];
                if gu >= gv {
                    continue; // each cross edge once, from its low endpoint
                }
                let j = sts[i].shard.ghost_owner[s.ghost as usize] as usize;
                let js = sts[i].shard.ghost_owner_border[s.ghost as usize] as usize;
                let cu = offsets[i] + border_id(&sts[i], s.u_border as usize, li) as Vid;
                let cv = offsets[j] + border_id(&sts[j], js, sts[j].levels.len()) as Vid;
                b.add_edge(cu, cv, s.w);
            }
        }
        (b.vertex_weights(vwgt).build(), offsets)
    };
    ledger.serial(
        "cpu:mg:merge",
        &model,
        Work::new(merged.adjncy.len() as u64, merged.n() as u64).with_ws(merged.bytes()),
    );
    // the merge needs every coarse shard and every exchanged bmap
    let deps: Vec<EventId> = d2h_coarse_ids.iter().chain(&coarsen_exchange_ids).copied().collect();
    let secs = ledger.phases.last().map_or(0.0, |(_, s)| *s);
    tl.record(EngineId::Cpu, "cpu:mg:merge", secs, &deps);

    // --- CPU partitions the merged coarse graph ------------------------
    let mid = gpm_mtmetis::partition(&merged, &crate::mt_config(base));
    let mut mt_done: Option<EventId> = None;
    for (name, secs) in &mid.ledger.phases {
        ledger.seconds(&format!("cpu:{name}"), *secs);
        mt_done = Some(tl.record(EngineId::Cpu, &format!("cpu:{name}"), *secs, &[]));
    }
    let mut global_pw = vec![0u32; k];
    for (c, &p) in mid.part.iter().enumerate() {
        global_pw[p as usize] += merged.vwgt[c];
    }

    // --- scatter coarse partition slices (concurrent) ------------------
    let before = clocks(&group);
    join(gpm_pool::scoped_blocking(d, |i| -> Result<(), DeviceError> {
        let mut st = states[i].lock().unwrap();
        let slice: Vec<u32> = (offsets[i]..offsets[i + 1]).map(|c| mid.part[c as usize]).collect();
        st.n_local = slice.len();
        st.part = Some(group.device(i).h2d(&slice)?);
        Ok(())
    }))?;
    ledger.seconds("xfer:h2d:part(multi,max)", max_delta(&group, &before));
    let mut scatter_ids: Vec<EventId> = Vec::new();
    let deps: Vec<EventId> = mt_done.into_iter().collect();
    for (i, &dur) in deltas(&group, &before).iter().enumerate() {
        scatter_ids.push(tl.record(EngineId::H2D(i as u32), "xfer:h2d:part", dur, &deps));
    }

    // --- uncoarsening supersteps ---------------------------------------
    // Level-locked from the coarse end: device i idles at its coarsest
    // until superstep `lmax - levels_i`, then walks one level per
    // superstep; every device reaches level 0 on the final superstep.
    let lmax = {
        let sts = lock_all(&states);
        sts.iter().map(|s| s.total_levels).max().unwrap_or(0)
    };
    let mut gpu_uncoarsen_secs = 0.0;
    let mut ic_label_secs = 0.0;
    let mut ic_allreduce_secs = 0.0;
    // per-device host-side layout work: stub aggregation (gathers) and
    // prefix-sum/fill passes (sequential writes)
    let mut halo_edge_works = vec![0u64; d];
    let mut halo_vert_works = vec![0u64; d];
    // Timeline bookkeeping: layout ops get provisional durations
    // (rescaled to the cpu:mg:halo charge once it is known), and events
    // that gate a device's next refinement pass accumulate here between
    // passes — split by what they actually gate: allreduce results
    // (capacity headroom) gate the whole pass, incoming label ships only
    // its boundary portion (interior/boundary comm/compute overlap).
    let mut halo_ops: Vec<(EventId, f64)> = Vec::new();
    let mut caps_deps: Vec<Vec<EventId>> = vec![Vec::new(); d];
    let mut ghost_deps: Vec<Vec<EventId>> = vec![Vec::new(); d];
    for step in 0..lmax {
        // Orchestrator: schedule, ghost views and halo layouts.
        let mut active = vec![false; d];
        let mut lvl = vec![0usize; d];
        // (sorted (owner, coarse-id) ghost slots, fine-to-slot map)
        type GhostView = (Vec<(u32, u32)>, Vec<u32>);
        let mut gviews: Vec<Option<GhostView>> = (0..d).map(|_| None).collect();
        let mut layouts: Vec<Option<HaloLayout>> = (0..d).map(|_| None).collect();
        let mut routes: Vec<BTreeMap<u32, Vec<(usize, u32)>>> =
            (0..d).map(|_| BTreeMap::new()).collect();
        let mut layout_ids: Vec<Option<EventId>> = vec![None; d];
        {
            let sts = lock_all(&states);
            for i in 0..d {
                let li = sts[i].total_levels;
                if li > 0 && step >= lmax - li {
                    active[i] = true;
                    lvl[i] = li - 1 - (step - (lmax - li));
                }
            }
            // Granularity each device's partition sits at after this
            // superstep's projection (idle devices stay at the coarsest).
            let cl: Vec<usize> =
                (0..d).map(|i| if active[i] { lvl[i] } else { sts[i].total_levels }).collect();
            for j in 0..d {
                if !active[j] {
                    continue;
                }
                let sh = &sts[j].shard;
                // Ghost slots: distinct (owner, owner-current-id) pairs.
                let pairs: Vec<(u32, u32)> = (0..sh.ghosts.len())
                    .map(|gi| {
                        let own = sh.ghost_owner[gi] as usize;
                        let b = sh.ghost_owner_border[gi] as usize;
                        (own as u32, border_id(&sts[own], b, cl[own]))
                    })
                    .collect();
                let mut slots = pairs.clone();
                slots.sort_unstable();
                slots.dedup();
                let fine_to_slot: Vec<u32> =
                    pairs.iter().map(|p| slots.binary_search(p).unwrap() as u32).collect();
                for (slotno, &(own, cur)) in slots.iter().enumerate() {
                    routes[own as usize].entry(cur).or_default().push((j, slotno as u32));
                }
                // Halo edges at this granularity, aggregated per
                // (local coarse id, ghost slot) like contraction does.
                // (`lvl[j]` is always the last remaining level: the
                // device phase pops one per superstep, coarse end first.)
                let fine_gpu = &sts[j].levels[lvl[j]].graph;
                let n_local = fine_gpu.n;
                let n_ghost = slots.len();
                let n_aug = n_local + n_ghost;
                let mut agg: BTreeMap<(u32, u32), u32> = BTreeMap::new();
                for s in &sh.stubs {
                    let cu = border_id(&sts[j], s.u_border as usize, lvl[j]);
                    let slot = fine_to_slot[s.ghost as usize];
                    *agg.entry((cu, slot)).or_default() += s.w;
                }
                let mut fwd_cnt = vec![0u32; n_local];
                let mut rev_cnt = vec![0u32; n_ghost];
                for &(cu, slot) in agg.keys() {
                    fwd_cnt[cu as usize] += 1;
                    rev_cnt[slot as usize] += 1;
                }
                let old_xadj = fine_gpu.xadj.to_vec();
                let mut aug_xadj = vec![0u32; n_aug + 1];
                let mut extra_off = vec![0u32; n_aug + 1];
                for u in 0..n_local {
                    let deg = old_xadj[u + 1] - old_xadj[u];
                    aug_xadj[u + 1] = aug_xadj[u] + deg + fwd_cnt[u];
                    extra_off[u + 1] = extra_off[u] + fwd_cnt[u];
                }
                for t in 0..n_ghost {
                    aug_xadj[n_local + t + 1] = aug_xadj[n_local + t] + rev_cnt[t];
                    extra_off[n_local + t + 1] = extra_off[n_local + t] + rev_cnt[t];
                }
                let total_extra = extra_off[n_aug] as usize;
                let mut extra_adj = vec![0u32; total_extra];
                let mut extra_w = vec![0u32; total_extra];
                let mut cursor = extra_off.clone();
                for (&(cu, slot), &w) in &agg {
                    let c = cursor[cu as usize] as usize;
                    extra_adj[c] = n_local as u32 + slot;
                    extra_w[c] = w;
                    cursor[cu as usize] += 1;
                }
                let mut rev: Vec<(u32, u32, u32)> =
                    agg.iter().map(|(&(cu, slot), &w)| (slot, cu, w)).collect();
                rev.sort_unstable();
                for (slot, cu, w) in rev {
                    let c = cursor[n_local + slot as usize] as usize;
                    extra_adj[c] = cu;
                    extra_w[c] = w;
                    cursor[n_local + slot as usize] += 1;
                }
                let e_inc = (sh.stubs.len() + total_extra) as u64;
                let v_inc = n_aug as u64;
                halo_edge_works[j] += e_inc;
                halo_vert_works[j] += v_inc;
                // Layouts read only coarsening-era data (shard stubs
                // and bmap snapshots), so the CPU lane prepares step
                // s+1's layouts while the devices still refine step s.
                let w = Work::new(e_inc, v_inc).seconds(&model);
                let id = tl.record(EngineId::Cpu, "cpu:mg:halo", w, &[]);
                layout_ids[j] = Some(id);
                halo_ops.push((id, w));
                layouts[j] = Some(HaloLayout { aug_xadj, extra_off, extra_adj, extra_w });
                gviews[j] = Some((slots, fine_to_slot));
            }
        }

        // Devices: project, assemble halo graph, allocate pass state.
        let before = clocks(&group);
        join(gpm_pool::scoped_blocking(d, |i| -> Result<(), DeviceError> {
            if !active[i] {
                return Ok(());
            }
            let mut st = states[i].lock().unwrap();
            let st = &mut *st;
            let dev = group.device(i);
            let layout = layouts[i].as_ref().unwrap();
            let level = st.levels.pop().unwrap();
            let n_local = level.graph.n;
            let n_ghost = layout.aug_xadj.len() - 1 - n_local;
            let coarse_part = st.part.take().unwrap();
            let part = gpu_project_halo(
                dev,
                &level.cmap,
                &coarse_part,
                n_ghost,
                base.distribution,
                base.max_threads,
            )?;
            drop(coarse_part);
            let halo = gpu_build_halo_graph(
                dev,
                &level.graph,
                layout,
                base.distribution,
                base.max_threads,
            )?;
            // in-superstep memory peak: fine graph + halo copy coexist
            // only here; dropping the level frees the fine graph and its
            // cmap before the refinement pass state is allocated
            st.peak = st.peak.max(dev.mem_used());
            drop(level);
            st.refine = Some(HaloRefine::new(dev, &halo, n_local, k)?);
            st.pw = Some(dev.alloc::<u32>(k)?);
            st.caps = Some(dev.alloc::<u32>(k)?);
            st.n_local = n_local;
            st.part = Some(part);
            st.halo = Some(halo);
            Ok(())
        }))?;
        gpu_uncoarsen_secs += max_delta(&group, &before);
        for (i, &dur) in deltas(&group, &before).iter().enumerate() {
            if !active[i] {
                continue;
            }
            // projection + halo-graph assembly: needs this step's
            // layout (CPU lane) and, on the first active step, the
            // scattered coarse slice
            let deps = [layout_ids[i].unwrap(), scatter_ids[i]];
            last_comp[i] =
                tl.record(EngineId::Compute(i as u32), "gpu:uncoarsen:project", dur, &deps);
        }

        // Full ghost-label exchange: after projection every active device
        // needs its ghosts' labels at the new granularity.
        let mut bfrac = vec![0.0f64; d];
        {
            let sts = lock_all(&states);
            // Boundary share of each device's pass work at this
            // granularity: ghost slots plus ghosted border vertices over
            // the augmented vertex count. Splits the modeled pass op so
            // only this fraction waits on label traffic.
            for j in 0..d {
                let Some((slots, _)) = &gviews[j] else { continue };
                let ghosts = slots.len() as f64;
                let border = routes[j].len() as f64;
                let aug = sts[j].n_local as f64 + ghosts;
                if aug > 0.0 {
                    bfrac[j] = ((ghosts + border) / aug).min(1.0);
                }
            }
            let mut comm = CommStep::default();
            for j in 0..d {
                let Some((slots, _)) = &gviews[j] else { continue };
                let base_slot = sts[j].n_local;
                let jpart = sts[j].part.as_ref().unwrap();
                let mut per_owner: BTreeMap<u32, u64> = BTreeMap::new();
                for (slotno, &(own, cur)) in slots.iter().enumerate() {
                    let label = sts[own as usize].part.as_ref().unwrap().load(cur as usize);
                    jpart.store(base_slot + slotno, label);
                    *per_owner.entry(own).or_default() += 4;
                }
                for (own, bytes) in per_owner {
                    let secs = ic.record(own, j as u32, bytes);
                    comm.add(secs, own, j as u32);
                    // reads the owner's projected labels, lands in the
                    // receiver's ghost slots
                    let deps = [last_comp[own as usize], last_comp[j]];
                    let id =
                        tl.record(EngineId::Link(own, j as u32), "ic:refine:labels", secs, &deps);
                    ghost_deps[j].push(id);
                }
            }
            ic_label_secs += comm.max();
        }

        // Refinement passes: all active devices run one pass concurrently,
        // then the orchestrator ships moved border labels and allreduces
        // the partition weights.
        let mut pending_gchg: Vec<Vec<u32>> = vec![Vec::new(); d];
        for pass in 0..base.refine_passes {
            let dir_up = (pass % 2 == 0) as u32;
            {
                let sts = lock_all(&states);
                for (i, st) in sts.iter().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    let pwb = st.pw.as_ref().unwrap();
                    let capsb = st.caps.as_ref().unwrap();
                    for (q, &w) in global_pw.iter().enumerate() {
                        pwb.store(q, w);
                        // This device's share of the remaining headroom:
                        // D concurrent committers can't jointly overshoot.
                        let headroom = maxw.saturating_sub(w);
                        capsb.store(q, w.saturating_add(headroom / d as u32));
                    }
                }
            }
            let snap = global_pw.clone();
            let gchg: Vec<Vec<u32>> = pending_gchg.iter_mut().map(std::mem::take).collect();
            let before = clocks(&group);
            let res =
                join(gpm_pool::scoped_blocking(d, |i| -> Result<(u64, Vec<u32>), DeviceError> {
                    if !active[i] {
                        return Ok((0, Vec::new()));
                    }
                    let mut st = states[i].lock().unwrap();
                    let st = &mut *st;
                    let dev = group.device(i);
                    st.refine.as_mut().unwrap().pass(
                        dev,
                        st.halo.as_ref().unwrap(),
                        st.n_local,
                        st.part.as_ref().unwrap(),
                        st.pw.as_ref().unwrap(),
                        st.caps.as_ref().unwrap(),
                        k,
                        dir_up,
                        &gchg[i],
                        base.distribution,
                        base.max_threads,
                    )
                }))?;
            gpu_uncoarsen_secs += max_delta(&group, &before);
            for (i, &dur) in deltas(&group, &before).iter().enumerate() {
                if !active[i] {
                    continue;
                }
                // Interior vertices carry no ghost edges, so their
                // share of the pass needs only the previous pass's
                // allreduce result (capacity headroom) and runs while
                // the boundary's label traffic is still in flight; the
                // boundary portion then consumes the shipped labels
                // (two kernel launches, interior first).
                let f = bfrac[i];
                let caps = std::mem::take(&mut caps_deps[i]);
                tl.record(
                    EngineId::Compute(i as u32),
                    "gpu:uncoarsen:pass",
                    dur * (1.0 - f),
                    &caps,
                );
                let ghosts = std::mem::take(&mut ghost_deps[i]);
                last_comp[i] = tl.record(
                    EngineId::Compute(i as u32),
                    "gpu:uncoarsen:pass:boundary",
                    dur * f,
                    &ghosts,
                );
            }
            let total: u64 = res.iter().map(|r| r.0).sum();
            {
                let sts = lock_all(&states);
                // Ship each moved border label to every device that
                // ghosts it; receivers remember the changed slots for the
                // next pass's incremental re-mark.
                let mut ship: BTreeMap<(usize, usize), Vec<(u32, u32)>> = BTreeMap::new();
                for (i, (_, moved)) in res.iter().enumerate() {
                    for &u in moved {
                        if let Some(targets) = routes[i].get(&u) {
                            let label = sts[i].part.as_ref().unwrap().load(u as usize);
                            for &(j, slot) in targets {
                                ship.entry((i, j)).or_default().push((slot, label));
                            }
                        }
                    }
                }
                let mut comm = CommStep::default();
                for ((i, j), mut entries) in ship {
                    entries.sort_unstable();
                    let secs = ic.record(i as u32, j as u32, 4 * entries.len() as u64);
                    comm.add(secs, i as u32, j as u32);
                    let id = tl.record(
                        EngineId::Link(i as u32, j as u32),
                        "ic:refine:labels",
                        secs,
                        &[last_comp[i]],
                    );
                    ghost_deps[j].push(id);
                    let base_slot = sts[j].n_local;
                    let jpart = sts[j].part.as_ref().unwrap();
                    for (slot, label) in entries {
                        jpart.store(base_slot + slot as usize, label);
                        pending_gchg[j].push(slot);
                    }
                }
                for l in &mut pending_gchg {
                    l.sort_unstable();
                    l.dedup();
                }
                ic_label_secs += comm.max();
                // Partition-weight allreduce (star through the lowest
                // active device): gather per-device deltas, scatter the
                // new global weights. The orchestrator (host) performs the
                // reduction itself, so each leg is host-terminated and
                // pays one link traversal — not a full device-to-device
                // staged hop (see `Interconnect::record_host_leg`).
                let root = active.iter().position(|&a| a).unwrap() as u32;
                let mut comm = CommStep::default();
                let mut next: Vec<i64> = snap.iter().map(|&v| v as i64).collect();
                let mut gather_ids: Vec<EventId> = Vec::new();
                for (i, st) in sts.iter().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    let pwb = st.pw.as_ref().unwrap();
                    for (q, nw) in next.iter_mut().enumerate() {
                        *nw += pwb.load(q) as i64 - snap[q] as i64;
                    }
                    if i as u32 != root {
                        let secs = ic.record_host_leg(i as u32, root, 4 * k as u64);
                        comm.add(secs, i as u32, root);
                        gather_ids.push(tl.record(
                            EngineId::Link(i as u32, root),
                            "ic:refine:allreduce",
                            secs,
                            &[last_comp[i]],
                        ));
                    }
                }
                // scatter legs: the reduced weights leave only after every
                // gather arrived, and the next pass waits for its copy
                for i in 0..d {
                    if !active[i] || i as u32 == root {
                        continue;
                    }
                    let secs = ic.record_host_leg(root, i as u32, 4 * k as u64);
                    comm.add(secs, root, i as u32);
                    let id = tl.record(
                        EngineId::Link(root, i as u32),
                        "ic:refine:allreduce",
                        secs,
                        &gather_ids,
                    );
                    caps_deps[i].push(id);
                }
                caps_deps[root as usize].extend(gather_ids);
                ic_allreduce_secs += comm.max();
                for (q, nw) in next.iter().enumerate() {
                    global_pw[q] = *nw as u32;
                }
            }
            if total == 0 {
                break;
            }
        }

        // Superstep epilogue: release the level's halo state.
        {
            let mut sts = lock_all(&states);
            for (i, st) in sts.iter_mut().enumerate() {
                if !active[i] {
                    continue;
                }
                st.peak = st.peak.max(group.device(i).mem_used());
                st.halo = None;
                st.refine = None;
                st.pw = None;
                st.caps = None;
            }
        }
    }
    // layouts for different devices are independent host-side work
    let works: Vec<Work> =
        halo_edge_works.iter().zip(&halo_vert_works).map(|(&e, &v)| Work::new(e, v)).collect();
    ledger.parallel("cpu:mg:halo", &model, &works, lmax as u64);
    // Rescale the provisional layout ops so the CPU lane's busy time
    // equals the phase charge exactly (the ledger models the layouts
    // as thread-parallel; the lane runs at that wall-clock rate).
    let t_halo = ledger.phases.last().map_or(0.0, |(_, s)| *s);
    let wsum: f64 = halo_ops.iter().map(|&(_, w)| w).sum();
    for &(id, w) in &halo_ops {
        tl.set_duration(id, if wsum > 0.0 { t_halo * (w / wsum) } else { 0.0 });
    }
    ledger.seconds("gpu:uncoarsen(multi,max)", gpu_uncoarsen_secs);
    ledger.seconds("ic:refine:labels", ic_label_secs);
    ledger.seconds("ic:refine:allreduce", ic_allreduce_secs);

    // --- gather fine partitions (concurrent) ---------------------------
    let before = clocks(&group);
    let fins = join(gpm_pool::scoped_blocking(d, |i| -> Result<Vec<u32>, DeviceError> {
        let mut st = states[i].lock().unwrap();
        let dpart = st.part.take().unwrap();
        group.device(i).d2h(&dpart)
    }))?;
    ledger.seconds("xfer:d2h:part(multi,max)", max_delta(&group, &before));
    for (i, &dur) in deltas(&group, &before).iter().enumerate() {
        tl.record(EngineId::D2H(i as u32), "xfer:d2h:part", dur, &[last_comp[i]]);
    }
    let mut part = vec![0u32; n];
    let (gpu_levels, peaks, transfer_bytes) = {
        let sts = lock_all(&states);
        for (i, st) in sts.iter().enumerate() {
            for (lu, &old) in st.shard.new_to_old.iter().enumerate() {
                part[old as usize] = fins[i][lu];
            }
        }
        let gpu_levels: Vec<usize> = sts.iter().map(|s| s.total_levels).collect();
        let peaks: Vec<u64> =
            sts.iter().enumerate().map(|(i, s)| s.peak.max(group.device(i).mem_used())).collect();
        let xfer: u64 = group.devices().iter().map(Device::transfer_bytes_total).sum();
        (gpu_levels, peaks, xfer)
    };

    // diagnostics (like edge_cut/imbalance below, not a pipeline phase)
    let tracker = BoundaryTracker::build(g, &part);
    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, k);
    let levels = gpu_levels.iter().max().copied().unwrap_or(0) + mid.levels;
    let overlap = Some(tl.report(ledger.total()));
    Ok(MultiGpuResult {
        result: PartitionResult {
            part,
            k,
            edge_cut,
            imbalance,
            ledger,
            wall_seconds: t0.elapsed().as_secs_f64(),
            levels,
        },
        devices: d,
        gpu_levels,
        peak_device_bytes: peaks,
        transfer_bytes,
        link_stats: ic.links(),
        interconnect_bytes: ic.total_bytes(),
        interconnect_seconds: ic.total_seconds(),
        boundary_vertices: tracker.boundary_count(),
        report: RunReport::default(),
        overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::gen::{delaunay_like, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;

    fn base(k: usize) -> GpMetisConfig {
        GpMetisConfig::new(k).with_seed(1).with_gpu_threshold(500)
    }

    #[test]
    fn rejects_zero_devices_and_multi_device_fallback() {
        let g = delaunay_like(1_000, 5);
        for (cfg, why) in [
            (MultiGpuConfig::new(base(4), 0), "device count"),
            (MultiGpuConfig::new(base(4).with_fallback(true), 2), "single device"),
        ] {
            match partition_multi(&g, &cfg) {
                Err(PartitionError::Config(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_device_is_byte_identical_to_single_gpu() {
        let g = delaunay_like(3_000, 4);
        let single = crate::partition(&g, &base(8)).unwrap();
        let multi = partition_multi(&g, &MultiGpuConfig::new(base(8), 1)).unwrap();
        assert_eq!(multi.devices, 1);
        assert_eq!(multi.result.part, single.result.part, "partition must match");
        assert_eq!(
            multi.result.modeled_seconds().to_bits(),
            single.result.modeled_seconds().to_bits(),
            "modeled-time ledger must match bit-for-bit"
        );
        assert_eq!(multi.result.ledger.phases, single.result.ledger.phases);
        assert_eq!(multi.gpu_levels, vec![single.gpu.gpu_levels]);
        assert_eq!(multi.peak_device_bytes, vec![single.gpu.peak_device_bytes]);
        assert!(multi.link_stats.is_empty());
        assert_eq!(multi.interconnect_bytes, 0);
    }

    #[test]
    fn partitions_across_two_devices() {
        let g = delaunay_like(4_000, 3);
        let r = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        validate_partition(&g, &r.result.part, 8, 1.15).unwrap();
        assert_eq!(r.devices, 2);
        assert_eq!(r.gpu_levels.len(), 2);
        assert!(r.gpu_levels.iter().all(|&l| l >= 1));
        assert!(r.interconnect_bytes > 0, "halo exchange must move bytes");
        assert!(r.interconnect_seconds > 0.0);
        assert!(!r.link_stats.is_empty());
        assert!(r.boundary_vertices > 0);
    }

    #[test]
    fn graph_too_big_for_one_device_fits_on_four() {
        let g = hugebubbles_like(6_000);
        // capacity: enough for the graph but not the level hierarchy a
        // single device needs; a quarter-block plus its hierarchy fits
        let cap = g.bytes() + g.bytes() / 8;
        let mut b = base(8);
        b.gpu = GpuConfig::tiny(cap);
        // single GPU fails mid-pipeline
        assert!(crate::partition(&g, &b).is_err(), "single device should OOM");
        // four devices succeed, each within its own capacity
        let r = partition_multi(&g, &MultiGpuConfig::new(b, 4)).unwrap();
        validate_partition(&g, &r.result.part, 8, 1.20).unwrap();
        for &p in &r.peak_device_bytes {
            assert!(p <= cap);
        }
    }

    #[test]
    fn halo_never_worse_than_stitch_on_generator_suite() {
        // Edge cuts of the retired fold-and-stitch prototype (cross edges
        // held out of coarsening, blind per-device refinement, CPU seam
        // repair) on this suite at D=2, frozen as ceilings.
        let suite: Vec<(CsrGraph, &str, u64)> = vec![
            (delaunay_like(4_000, 3), "delaunay", 543),
            (hugebubbles_like(6_000), "hugebubbles", 238),
            (usa_roads_like(4_000, 5), "usa-roads", 71),
        ];
        for (g, name, stitch_cut) in &suite {
            let halo = partition_multi(g, &MultiGpuConfig::new(base(8), 2)).unwrap();
            assert!(
                halo.result.edge_cut <= *stitch_cut,
                "{name}: halo {} vs stitch {stitch_cut}",
                halo.result.edge_cut
            );
        }
    }

    #[test]
    fn quality_in_league_of_single_gpu() {
        let g = delaunay_like(4_000, 7);
        let single = crate::partition(&g, &base(8)).unwrap();
        let multi = partition_multi(&g, &MultiGpuConfig::new(base(8), 3)).unwrap();
        assert!(
            (multi.result.edge_cut as f64) < 1.6 * single.result.edge_cut as f64,
            "multi {} vs single {}",
            multi.result.edge_cut,
            single.result.edge_cut
        );
    }

    #[test]
    fn reruns_are_byte_identical() {
        let g = delaunay_like(3_000, 9);
        let cfg = MultiGpuConfig::new(base(8), 3);
        let a = partition_multi(&g, &cfg).unwrap();
        let b = partition_multi(&g, &cfg).unwrap();
        assert_eq!(a.result.part, b.result.part);
        assert_eq!(
            a.result.modeled_seconds().to_bits(),
            b.result.modeled_seconds().to_bits(),
            "modeled ledger must replay bit-for-bit"
        );
        assert_eq!(a.interconnect_bytes, b.interconnect_bytes);
        assert_eq!(a.link_stats, b.link_stats);
    }

    #[test]
    fn nvlink_same_partition_cheaper_comm_than_pcie() {
        let g = delaunay_like(3_000, 6);
        let pcie = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        let nv =
            partition_multi(&g, &MultiGpuConfig::new(base(8), 2).with_link(LinkConfig::nvlink()))
                .unwrap();
        // the fabric prices transfers, it never changes the answer
        assert_eq!(pcie.result.part, nv.result.part);
        assert_eq!(pcie.interconnect_bytes, nv.interconnect_bytes);
        assert!(
            nv.interconnect_seconds < pcie.interconnect_seconds,
            "nvlink p2p {} should beat staged pcie {}",
            nv.interconnect_seconds,
            pcie.interconnect_seconds
        );
    }

    #[test]
    fn ledger_shows_multi_phases() {
        let g = delaunay_like(3_000, 9);
        let r = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        let l = &r.result.ledger;
        assert!(l.total_for("gpu:coarsen(multi") > 0.0);
        assert!(l.total_for("ic:") > 0.0);
        assert!(l.total_for("cpu:mg:merge") > 0.0);
        assert!(l.total_for("gpu:uncoarsen(multi") > 0.0);
        assert!(l.total_for("ic:refine:") > 0.0);
        // the halo path has no CPU seam-repair phase
        assert_eq!(l.total_for("cpu:boundary-refine"), 0.0);
    }
}
