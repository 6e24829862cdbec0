//! Multi-GPU partitioning — the paper's stated future work ("partitioning
//! of bigger graphs that do not fit to the global memory can be done on a
//! cluster of GPUs").
//!
//! The pipeline (DESIGN.md §15) shards the vertex range into one
//! contiguous block per device ([`gpm_graph::subgraph::halo_shards`]) and
//! runs the per-device loops as **real concurrent tasks** on `gpm-pool`
//! workers, joined by an [`gpm_gpu_sim::Interconnect`] cost model
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
//!   re-marking) and runs ghost-aware refinement passes (the single-GPU
//!   pass, through `crate::kernels::halo::HaloRefine`): between passes the
//!   orchestrator ships only the moved border labels to the devices that
//!   ghost them and allreduces the partition weights; per-partition
//!   headroom caps (each device may claim `1/D` of the remaining balance
//!   headroom, the `gpm-parmetis` trick) keep concurrent commits jointly
//!   balance-safe. There is no trailing CPU seam-repair pass — the halo
//!   exchange is the seam repair.
//!
//! The code follows that shape: [`partition_multi`] is a short sequence of
//! phase functions over one run context — shard and upload, coarsening
//! supersteps, the CPU bridge (download, merge, CPU partition, scatter),
//! uncoarsening supersteps, gather — each charging the ledger and
//! recording its overlap-timeline ops in one place. Every device phase
//! runs through one helper that snapshots the device clocks, fans the
//! work out and returns each device's modeled seconds (DESIGN.md §15).
//!
//! Determinism: shards, halo layouts and exchange routes are sorted
//! host-side; merges and moved-list consumption are index-ordered or
//! set-idempotent; device kernels carry the single-GPU path's
//! thread-count-independence guarantees. Partitions and modeled-time
//! ledgers are therefore byte-identical for any `GPM_THREADS`.

use crate::gpu_graph::GpuCsr;
use crate::kernels::contract::GpuCoarsenScratch;
use crate::kernels::halo::{
    gpu_build_halo_graph, gpu_compose_bmap, HaloLayout, HaloRefine, HALO_KERNELS,
};
use crate::kernels::refine::project_padded;
use crate::{gpu_coarsen_level, CoarseStep, GpMetisConfig, GpuLevel, PartitionError, RunReport};
use gpm_faults::FaultPlan;
use gpm_gpu_sim::{
    DBuf, Device, DeviceError, DeviceGroup, EngineId, EventId, LinkConfig, LinkStats,
    OverlapReport, Timeline,
};
use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::subgraph::{halo_shards, HaloShard};
use gpm_metis::coarsen::CoarsenConfig;
use gpm_metis::cost::{CostLedger, CpuModel, Work};
use gpm_metis::PartitionResult;
use std::collections::{BTreeMap, BTreeSet};
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
    /// ([`gpm_graph::metrics::boundary_count`] over the whole graph).
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

/// Orchestrator-side state of one device's pipeline, live from the upload
/// to the gather.
struct DevState {
    shard: HaloShard,
    /// Level hierarchy; uncoarsening *pops* levels as it walks back up,
    /// so coarser levels' device buffers are released as soon as they
    /// have been projected through (the per-device peak stays ~1/D).
    levels: Vec<GpuLevel>,
    /// Host snapshot of the border map after each completed level (the
    /// payload of the per-level boundary-cmap halo exchange); later
    /// phases read these, never the device copy.
    bmap_levels: Vec<Vec<u32>>,
    peak: u64,
    /// Partition vector at the device's current granularity (augmented
    /// with ghost slots while a refinement level is in flight): scattered
    /// by the bridge, projected by each superstep, taken by the gather.
    part: Option<DBuf<u32>>,
}

/// One device's coarsening state: created by the upload, consumed by the
/// coarse download.
struct Coarsening {
    /// Current coarse graph.
    cur: GpuCsr,
    /// Border slot → current coarse id, composed per level on-device
    /// (`None` for a shard without border vertices).
    bmap: Option<DBuf<u32>>,
    scratch: GpuCoarsenScratch,
    uniform: bool,
    stalled: bool,
}

/// One active device's refinement state for one uncoarsening superstep:
/// created by the projection, dropped by the superstep's epilogue.
struct StepState {
    /// The level graph with ghost rows appended.
    halo: GpuCsr,
    refine: HaloRefine,
    /// Global partition weights as of the pass start.
    pw: DBuf<u32>,
    /// This device's per-partition headroom caps.
    caps: DBuf<u32>,
}

fn lock_all(states: &[Mutex<DevState>]) -> Vec<MutexGuard<'_, DevState>> {
    states.iter().map(|m| m.lock().unwrap()).collect()
}

/// Modeled phase seconds: devices ran concurrently, so the phase costs as
/// much as its slowest device.
fn slowest(deltas: &[f64]) -> f64 {
    deltas.iter().copied().fold(0.0, f64::max)
}

/// The current coarse id of border slot `b` once `lvls` levels have been
/// composed (0 levels = the border vertex's own local id).
fn border_id(st: &DevState, b: usize, lvls: usize) -> u32 {
    if lvls == 0 {
        st.shard.border[b]
    } else {
        st.bmap_levels[lvls - 1][b]
    }
}

/// One sharded run: the configuration, the devices with their fabric and
/// per-device state, the serialized ledger, and the overlap timeline
/// (DESIGN.md §16). Each phase records its timeline ops where it charges
/// the ledger, with explicit event dependencies; the schedule is
/// evaluated once at the end. Pure accounting — the pipeline never
/// consults the timeline, so it cannot perturb the partition or the
/// ledger.
struct Multi<'a> {
    base: &'a GpMetisConfig,
    model: CpuModel,
    group: DeviceGroup,
    states: Vec<Mutex<DevState>>,
    ledger: CostLedger,
    tl: Timeline,
    /// Last device-side op per device (the dep target for cross-engine
    /// edges: halo exchanges, downloads, allreduce legs).
    last_comp: Vec<EventId>,
}

impl Multi<'_> {
    /// Run `f` on every device as concurrent blocking pool tasks. Returns
    /// the results in device order and each device's modeled seconds over
    /// the phase (the overlap timeline charges these individually).
    fn on_devices<T: Send>(
        &self,
        f: impl Fn(usize, &Device) -> Result<T, DeviceError> + Sync,
    ) -> Result<(Vec<T>, Vec<f64>), DeviceError> {
        let devs = self.group.devices();
        let before: Vec<f64> = devs.iter().map(Device::elapsed).collect();
        let out = gpm_pool::scoped_blocking(devs.len(), |i| f(i, &devs[i]));
        let out = out.into_iter().collect::<Result<Vec<T>, _>>()?;
        Ok((out, devs.iter().zip(&before).map(|(dv, &b)| dv.elapsed() - b).collect()))
    }

    /// Seconds of the ledger phase charged last.
    fn last_charge(&self) -> f64 {
        self.ledger.phases.last().map_or(0.0, |(_, s)| *s)
    }

    /// Shard the graph with halo bookkeeping, then upload every shard.
    fn shard_and_upload(&mut self, g: &CsrGraph) -> Result<Vec<Mutex<Coarsening>>, DeviceError> {
        let d = self.group.len();
        let shards = halo_shards(g, d);
        // Shard extraction runs as d concurrent pool tasks (see
        // halo_shards); the scans are sequential copies over the block's
        // CSR slice (vertex rate), the ghost lookups per cross edge are
        // gathers (edge rate).
        let works: Vec<Work> = shards
            .iter()
            .map(|sh| {
                Work::new(sh.stubs.len() as u64, (sh.sub.adjncy.len() + 2 * sh.sub.n()) as u64)
                    .with_ws(sh.sub.bytes())
            })
            .collect();
        self.ledger.parallel("cpu:mg:shard", &self.model, &works, 1);
        // The CPU lane cuts the shards one block after another, in chunks:
        // device i's copy engine uploads chunk c while the lane cuts chunk
        // c+1 (double-buffered transfers). Equal slices of the phase
        // charge keep the lane's busy time exactly the ledger value; chunk
        // granularity treats bandwidth as dominant (PCIe latency is µs
        // against ms-scale shard uploads).
        let chunk = self.last_charge() / (d * UPLOAD_CHUNKS) as f64;
        let mut cut = || self.tl.record(EngineId::Cpu, "cpu:mg:shard", chunk, &[]);
        let cut_ids: Vec<Vec<EventId>> =
            (0..d).map(|_| (0..UPLOAD_CHUNKS).map(|_| cut()).collect()).collect();
        self.states = shards
            .into_iter()
            .map(|shard| {
                let (levels, bmap_levels) = (Vec::new(), Vec::new());
                Mutex::new(DevState { shard, levels, bmap_levels, peak: 0, part: None })
            })
            .collect();
        let (coarsening, secs) = self.on_devices(|i, dev| {
            let st = self.states[i].lock().unwrap();
            let cur = GpuCsr::upload(dev, &st.shard.sub)?;
            let border = &st.shard.border;
            let bmap = if border.is_empty() { None } else { Some(dev.h2d(border)?) };
            let uniform = st.shard.sub.uniform_edge_weights();
            let scratch = GpuCoarsenScratch::new();
            Ok(Mutex::new(Coarsening { cur, bmap, scratch, uniform, stalled: false }))
        })?;
        self.ledger.seconds("xfer:h2d:graph(multi,max)", slowest(&secs));
        for (i, (&dur, ids)) in secs.iter().zip(&cut_ids).enumerate() {
            // One upload per shard chunk; copy-engine chaining serializes
            // the chunks while each waits only for its slice of the cut.
            let mut last = None;
            for &cut in ids {
                let up = EngineId::H2D(i as u32);
                last =
                    Some(self.tl.record(up, "xfer:h2d:graph", dur / UPLOAD_CHUNKS as f64, &[cut]));
            }
            self.last_comp.push(last.expect("UPLOAD_CHUNKS > 0"));
        }
        Ok(coarsening)
    }

    /// Coarsening supersteps: every device contracts its block one level
    /// per superstep, then ships its changed border slots to each neighbor
    /// that ghosts them. Returns the exchange ops, which feed the merge.
    fn coarsen(
        &mut self,
        coarsening: &[Mutex<Coarsening>],
        max_vwgt: u32,
    ) -> Result<Vec<EventId>, DeviceError> {
        let base = self.base;
        let ccfg = CoarsenConfig::for_k(base.k);
        // Distinct border slots receiver j references on owner i — the
        // per-level payload of the boundary-cmap exchange.
        let mut needed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (j, st) in lock_all(&self.states).iter().enumerate() {
            let sh = &st.shard;
            let mut per_owner: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
            for (gi, &own) in sh.ghost_owner.iter().enumerate() {
                per_owner.entry(own as usize).or_default().insert(sh.ghost_owner_border[gi]);
            }
            for (i, slots) in per_owner {
                needed.insert((i, j), slots.len() as u64);
            }
        }
        let (mut gpu_secs, mut ic_secs) = (0.0, 0.0);
        // Exchange payloads (bmap snapshots) are consumed host-side at
        // merge time, not by the next superstep's kernels — so on the
        // timeline the exchanges feed the merge, and each device's levels
        // form one uninterrupted compute chain (comm/compute overlap
        // replacing the serialized superstep fold).
        let mut exchange_ids: Vec<EventId> = Vec::new();
        loop {
            let can: Vec<bool> = (lock_all(&self.states).iter().zip(coarsening))
                .map(|(st, c)| {
                    let c = c.lock().unwrap();
                    !c.stalled && st.levels.len() < ccfg.max_levels && c.cur.n > base.gpu_threshold
                })
                .collect();
            if !can.iter().any(|&c| c) {
                break;
            }
            let (stepped, secs) = self.on_devices(|i, dev| {
                if !can[i] {
                    return Ok(false);
                }
                let (mut st, mut c) =
                    (self.states[i].lock().unwrap(), coarsening[i].lock().unwrap());
                let (st, c) = (&mut *st, &mut *c);
                let lvl = st.levels.len();
                let (_, step) =
                    gpu_coarsen_level(dev, &c.cur, max_vwgt, c.uniform, lvl, base, &mut c.scratch)?;
                let Some(CoarseStep { cmap, coarse, mem_used }) = step else {
                    c.stalled = true; // stalled; this shard hands over early
                    return Ok(false);
                };
                st.peak = st.peak.max(mem_used);
                if let Some(bmap) = c.bmap.as_ref() {
                    gpu_compose_bmap(dev, &cmap, bmap, base.distribution, base.max_threads)?;
                    let snap: Vec<u32> = (0..bmap.len()).map(|s| bmap.load(s)).collect();
                    st.bmap_levels.push(snap);
                } else {
                    st.bmap_levels.push(Vec::new());
                }
                c.uniform = false;
                let fine = std::mem::replace(&mut c.cur, coarse);
                st.levels.push(GpuLevel { graph: fine, cmap });
                Ok(true)
            })?;
            gpu_secs += slowest(&secs);
            for (i, &dur) in secs.iter().enumerate() {
                if dur > 0.0 {
                    let deps = [self.last_comp[i]];
                    self.last_comp[i] =
                        self.tl.record(EngineId::Compute(i as u32), "gpu:coarsen", dur, &deps);
                }
            }
            // Boundary-cmap halo exchange: every device that finished a
            // level ships its changed border slots to each neighbor that
            // ghosts them (coarse ids renumber every level, so all needed
            // slots are changed slots).
            let ic = self.group.interconnect();
            let mut comm = CommStep::default();
            for i in (0..stepped.len()).filter(|&i| stepped[i]) {
                for (&(_, j), &slots) in needed.range((i, 0)..(i + 1, 0)) {
                    let (src, dst) = (i as u32, j as u32);
                    let secs = ic.record(src, dst, 4 * slots);
                    comm.add(secs, src, dst);
                    let deps = [self.last_comp[i]];
                    let link = EngineId::Link(src, dst);
                    exchange_ids.push(self.tl.record(link, "ic:coarsen:halo", secs, &deps));
                }
            }
            ic_secs += comm.max();
        }
        self.ledger.seconds("gpu:coarsen(multi,max)", gpu_secs);
        self.ledger.seconds("ic:coarsen:halo", ic_secs);
        Ok(exchange_ids)
    }

    /// The CPU bridge between the device phases: download the coarsest
    /// shards, merge them on the host, partition the merged graph with
    /// mt-metis, and scatter each device's slice of that partition back.
    /// Returns the CPU levels, the global partition weights and the
    /// scatter ops.
    fn bridge(
        &mut self,
        coarsening: Vec<Mutex<Coarsening>>,
        exchange_ids: Vec<EventId>,
    ) -> Result<(usize, Vec<u32>, Vec<EventId>), DeviceError> {
        // the contraction scratch and the device border maps are done
        // for good
        let curs: Vec<GpuCsr> =
            coarsening.into_iter().map(|c| c.into_inner().unwrap().cur).collect();
        let (hosts, secs) = self.on_devices(|i, dev| {
            let host = curs[i].download(dev)?;
            let mut st = self.states[i].lock().unwrap();
            st.peak = st.peak.max(dev.mem_used());
            Ok(host)
        })?;
        drop(curs);
        self.ledger.seconds("xfer:d2h:coarse(multi,max)", slowest(&secs));
        let mut deps: Vec<EventId> = (secs.iter().enumerate())
            .map(|(i, &dur)| {
                let last = [self.last_comp[i]];
                self.tl.record(EngineId::D2H(i as u32), "xfer:d2h:coarse", dur, &last)
            })
            .collect();
        // the merge needs every coarse shard and every exchanged bmap
        deps.extend(exchange_ids);
        let (merged, offsets) = merge_shards(&lock_all(&self.states), &hosts);
        let work = Work::new(merged.adjncy.len() as u64, merged.n() as u64).with_ws(merged.bytes());
        self.ledger.serial("cpu:mg:merge", &self.model, work);
        self.tl.record(EngineId::Cpu, "cpu:mg:merge", self.last_charge(), &deps);

        let mid = gpm_mtmetis::partition(&merged, &crate::mt_config(self.base));
        let mut mt_done: Vec<EventId> = Vec::new();
        for (name, secs) in &mid.ledger.phases {
            let name = format!("cpu:{name}");
            self.ledger.seconds(&name, *secs);
            mt_done = vec![self.tl.record(EngineId::Cpu, &name, *secs, &[])];
        }
        let mut global_pw = vec![0u32; self.base.k];
        for (c, &p) in mid.part.iter().enumerate() {
            global_pw[p as usize] += merged.vwgt[c];
        }

        let (_, secs) = self.on_devices(|i, dev| {
            let slice: Vec<u32> =
                (offsets[i]..offsets[i + 1]).map(|c| mid.part[c as usize]).collect();
            self.states[i].lock().unwrap().part = Some(dev.h2d(&slice)?);
            Ok(())
        })?;
        self.ledger.seconds("xfer:h2d:part(multi,max)", slowest(&secs));
        let scatter_ids = (secs.iter().enumerate())
            .map(|(i, &dur)| {
                self.tl.record(EngineId::H2D(i as u32), "xfer:h2d:part", dur, &mt_done)
            })
            .collect();
        Ok((mid.levels, global_pw, scatter_ids))
    }

    /// Download every device's fine partition slice into the global
    /// partition vector. Returns it with each device's memory peak.
    fn gather(&mut self, n: usize) -> Result<(Vec<u32>, Vec<u64>), DeviceError> {
        let (fins, secs) = self.on_devices(|i, dev| {
            let dpart = self.states[i].lock().unwrap().part.take().unwrap();
            dev.d2h(&dpart)
        })?;
        self.ledger.seconds("xfer:d2h:part(multi,max)", slowest(&secs));
        for (i, &dur) in secs.iter().enumerate() {
            self.tl.record(EngineId::D2H(i as u32), "xfer:d2h:part", dur, &[self.last_comp[i]]);
        }
        let mut part = vec![0u32; n];
        let sts = lock_all(&self.states);
        for (st, fin) in sts.iter().zip(&fins) {
            for (lu, &old) in st.shard.new_to_old.iter().enumerate() {
                part[old as usize] = fin[lu];
            }
        }
        let devs = self.group.devices();
        Ok((part, sts.iter().zip(devs).map(|(s, dv)| s.peak.max(dv.mem_used())).collect()))
    }
}

/// The coarsest shards stitched into one host graph, with every cross
/// edge mapped through the exchanged border maps (cross edges are never
/// dropped). Returns the graph and each shard's vertex offset in it.
fn merge_shards(sts: &[MutexGuard<DevState>], hosts: &[CsrGraph]) -> (CsrGraph, Vec<Vid>) {
    let d = sts.len();
    let mut offsets = vec![0 as Vid; d + 1];
    for i in 0..d {
        offsets[i + 1] = offsets[i] + hosts[i].n() as Vid;
    }
    let nc_total = offsets[d] as usize;
    let mut b = GraphBuilder::new(nc_total);
    let mut vwgt = vec![0u32; nc_total];
    for (ch, &off) in hosts.iter().zip(&offsets) {
        for c in 0..ch.n() as Vid {
            vwgt[(off + c) as usize] = ch.vwgt[c as usize];
            for (x, w) in ch.edges(c) {
                if c < x {
                    b.add_edge(off + c, off + x, w);
                }
            }
        }
    }
    for (i, st) in sts.iter().enumerate() {
        for s in &st.shard.stubs {
            let sh = &st.shard;
            if sh.new_to_old[s.u as usize] >= sh.ghosts[s.ghost as usize] {
                continue; // each cross edge once, from its low endpoint
            }
            let j = sh.ghost_owner[s.ghost as usize] as usize;
            let js = sh.ghost_owner_border[s.ghost as usize] as usize;
            let cu = offsets[i] + border_id(st, s.u_border as usize, st.levels.len()) as Vid;
            let cv = offsets[j] + border_id(&sts[j], js, sts[j].levels.len()) as Vid;
            b.add_edge(cu, cv, s.w);
        }
    }
    (b.vertex_weights(vwgt).build(), offsets)
}

/// Host-side halo layout of device `j` for a superstep at level `lvl`:
/// its ghost slots — distinct (owner, owner's current coarse id) pairs,
/// sorted, where `cl[i]` is the granularity device `i`'s partition sits
/// at after the superstep's projection — and the adjacency that appends
/// them to the level graph, with halo edges aggregated per (local coarse
/// id, ghost slot) like contraction does. Also returns the layout's work.
fn halo_layout(
    sts: &[MutexGuard<DevState>],
    j: usize,
    lvl: usize,
    cl: &[usize],
) -> (Vec<(u32, u32)>, HaloLayout, Work) {
    let sh = &sts[j].shard;
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
    // (`lvl` is always the last remaining level: the projection pops one
    // per superstep, coarse end first.)
    let fine_gpu = &sts[j].levels[lvl].graph;
    let n_local = fine_gpu.n;
    let n_ghost = slots.len();
    let n_aug = n_local + n_ghost;
    let mut agg: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for s in &sh.stubs {
        let cu = border_id(&sts[j], s.u_border as usize, lvl);
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
    let mut rev: Vec<(u32, u32, u32)> = agg.iter().map(|(&(cu, slot), &w)| (slot, cu, w)).collect();
    rev.sort_unstable();
    for (slot, cu, w) in rev {
        let c = cursor[n_local + slot as usize] as usize;
        extra_adj[c] = cu;
        extra_w[c] = w;
        cursor[n_local + slot as usize] += 1;
    }
    let work = Work::new((sh.stubs.len() + total_extra) as u64, n_aug as u64);
    (slots, HaloLayout { aug_xadj, extra_off, extra_adj, extra_w }, work)
}

/// The orchestrator's view of one uncoarsening superstep.
struct Superstep {
    active: Vec<bool>,
    /// Per active device: its sorted ghost slots (see [`halo_layout`]).
    slots: Vec<Vec<(u32, u32)>>,
    /// Per owner device: current coarse id → every (receiver, ghost slot)
    /// that mirrors it.
    routes: Vec<BTreeMap<u32, Vec<(usize, u32)>>>,
    /// Per active device: its halo layout and the CPU-lane op building it.
    layouts: Vec<Option<(HaloLayout, EventId)>>,
    /// Per active device: local (non-ghost) vertex count at this level.
    n_local: Vec<usize>,
    /// Per active device: refinement state, created by the projection.
    devs: Vec<Option<Mutex<StepState>>>,
    /// Per device: ghost slots the last ship rewrote, which seed the next
    /// pass's incremental re-mark.
    changed: Vec<Vec<u32>>,
}

/// The uncoarsening phase: supersteps level-locked from the coarse end,
/// plus the bookkeeping carried across them.
struct Uncoarsening<'m, 'a> {
    mg: &'m mut Multi<'a>,
    /// Coarsening levels per device.
    depth: Vec<usize>,
    maxw: u32,
    /// Global partition weights, allreduced after every pass.
    global_pw: Vec<u32>,
    /// The scattered coarse slices (the first projection's input).
    scatter_ids: Vec<EventId>,
    gpu_secs: f64,
    label_secs: f64,
    allreduce_secs: f64,
    /// Per-device host-side layout work: stub aggregation (gathers) and
    /// prefix-sum/fill passes (sequential writes).
    halo_works: Vec<Work>,
    /// Layout ops with provisional durations, rescaled to the
    /// `cpu:mg:halo` charge once it is known.
    halo_ops: Vec<(EventId, f64)>,
    /// Events gating each device's next refinement pass, split by what
    /// they actually gate: allreduce results (capacity headroom) gate the
    /// whole pass, incoming label ships only its boundary portion
    /// (interior/boundary comm/compute overlap).
    caps_deps: Vec<Vec<EventId>>,
    ghost_deps: Vec<Vec<EventId>>,
}

impl Uncoarsening<'_, '_> {
    /// Run every superstep: device i idles at its coarsest until superstep
    /// `lmax - depth[i]`, then walks one level per superstep, so every
    /// device reaches level 0 on the final one. Then charge the phase.
    fn run(mut self) -> Result<(), DeviceError> {
        let lmax = self.depth.iter().copied().max().unwrap_or(0);
        for step in 0..lmax {
            self.superstep(step, lmax)?;
        }
        let mg = self.mg;
        // layouts for different devices are independent host-side work
        mg.ledger.parallel("cpu:mg:halo", &mg.model, &self.halo_works, lmax as u64);
        // Rescale the provisional layout ops so the CPU lane's busy time
        // equals the phase charge exactly (the ledger models the layouts
        // as thread-parallel; the lane runs at that wall-clock rate).
        let t_halo = mg.last_charge();
        let wsum: f64 = self.halo_ops.iter().map(|&(_, w)| w).sum();
        for &(id, w) in &self.halo_ops {
            mg.tl.set_duration(id, if wsum > 0.0 { t_halo * (w / wsum) } else { 0.0 });
        }
        mg.ledger.seconds("gpu:uncoarsen(multi,max)", self.gpu_secs);
        mg.ledger.seconds("ic:refine:labels", self.label_secs);
        mg.ledger.seconds("ic:refine:allreduce", self.allreduce_secs);
        Ok(())
    }

    /// One superstep: layouts, projection, ghost-label exchange, then
    /// refinement passes, each followed by the moved-label ship and the
    /// partition-weight allreduce.
    fn superstep(&mut self, step: usize, lmax: usize) -> Result<(), DeviceError> {
        let mut ss = self.plan(step, lmax);
        self.project(&mut ss)?;
        self.exchange_ghost_labels(&ss);
        for pass in 0..self.mg.base.refine_passes {
            let res = self.refine_pass(&mut ss, pass)?;
            self.ship_labels(&mut ss, &res);
            self.allreduce(&ss);
            if res.iter().map(|r| r.0).sum::<u64>() == 0 {
                break;
            }
        }
        // Epilogue: the peak includes the level's halo state, which drops
        // with `ss`.
        for (i, st) in lock_all(&self.mg.states).iter_mut().enumerate() {
            if ss.active[i] {
                st.peak = st.peak.max(self.mg.group.device(i).mem_used());
            }
        }
        Ok(())
    }

    /// Schedule the superstep and build the active devices' ghost views
    /// and halo layouts. Layouts read only coarsening-era data (shard
    /// stubs and bmap snapshots), so the CPU lane prepares step s+1's
    /// layouts while the devices still refine step s.
    fn plan(&mut self, step: usize, lmax: usize) -> Superstep {
        let d = self.depth.len();
        let mut active = vec![false; d];
        let mut lvl = vec![0usize; d];
        for (i, &li) in self.depth.iter().enumerate() {
            if li > 0 && step >= lmax - li {
                active[i] = true;
                lvl[i] = li - 1 - (step - (lmax - li));
            }
        }
        // Granularity each device's partition sits at after this
        // superstep's projection (idle devices stay at the coarsest).
        let cl: Vec<usize> =
            (0..d).map(|i| if active[i] { lvl[i] } else { self.depth[i] }).collect();
        let mut slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); d];
        let mut routes: Vec<BTreeMap<u32, Vec<(usize, u32)>>> = vec![BTreeMap::new(); d];
        let mut layouts: Vec<Option<(HaloLayout, EventId)>> = (0..d).map(|_| None).collect();
        let sts = lock_all(&self.mg.states);
        for j in (0..d).filter(|&j| active[j]) {
            let (s, layout, work) = halo_layout(&sts, j, lvl[j], &cl);
            for (slotno, &(own, cur)) in s.iter().enumerate() {
                routes[own as usize].entry(cur).or_default().push((j, slotno as u32));
            }
            self.halo_works[j].add(work);
            let w = work.seconds(&self.mg.model);
            let id = self.mg.tl.record(EngineId::Cpu, "cpu:mg:halo", w, &[]);
            self.halo_ops.push((id, w));
            layouts[j] = Some((layout, id));
            slots[j] = s;
        }
        let (n_local, devs, changed) = (Vec::new(), Vec::new(), vec![Vec::new(); d]);
        Superstep { active, slots, routes, layouts, n_local, devs, changed }
    }

    /// Devices: project the partition to this level (ghost slots
    /// appended), assemble the halo graph, allocate the pass state.
    fn project(&mut self, ss: &mut Superstep) -> Result<(), DeviceError> {
        let (mg, layouts) = (&mut *self.mg, &ss.layouts);
        let base = mg.base;
        let (devs, secs) = mg.on_devices(|i, dev| {
            let Some((layout, _)) = &layouts[i] else { return Ok(None) };
            let mut st = mg.states[i].lock().unwrap();
            let st = &mut *st;
            let level = st.levels.pop().unwrap();
            let n_local = level.graph.n;
            let n_ghost = layout.aug_xadj.len() - 1 - n_local;
            let coarse_part = st.part.take().unwrap();
            let (dist, threads) = (base.distribution, base.max_threads);
            // ghost slots stay 0 for the label exchange to fill
            let name = HALO_KERNELS.project;
            let part =
                project_padded(dev, name, &level.cmap, &coarse_part, n_ghost, dist, threads)?;
            drop(coarse_part);
            let halo = gpu_build_halo_graph(dev, &level.graph, layout, dist, threads)?;
            // in-superstep memory peak: fine graph + halo copy coexist
            // only here; dropping the level frees the fine graph and its
            // cmap before the refinement pass state is allocated
            st.peak = st.peak.max(dev.mem_used());
            drop(level);
            let refine = HaloRefine::new(dev, &halo, n_local, base.k)?;
            let pw = dev.alloc::<u32>(base.k)?;
            let caps = dev.alloc::<u32>(base.k)?;
            st.part = Some(part);
            Ok(Some((n_local, Mutex::new(StepState { halo, refine, pw, caps }))))
        })?;
        self.gpu_secs += slowest(&secs);
        for (i, &dur) in secs.iter().enumerate() {
            // projection + halo-graph assembly: needs this step's layout
            // (CPU lane) and, on the first active step, the scattered
            // coarse slice
            let Some((_, layout_id)) = ss.layouts[i] else { continue };
            let deps = [layout_id, self.scatter_ids[i]];
            let compute = EngineId::Compute(i as u32);
            mg.last_comp[i] = mg.tl.record(compute, "gpu:uncoarsen:project", dur, &deps);
        }
        (ss.n_local, ss.devs) = (devs.into_iter())
            .map(|dev| dev.map_or((0, None), |(n_local, state)| (n_local, Some(state))))
            .unzip();
        Ok(())
    }

    /// Full ghost-label exchange: after projection every active device
    /// needs its ghosts' labels at the new granularity.
    fn exchange_ghost_labels(&mut self, ss: &Superstep) {
        let mg = &mut *self.mg;
        let sts = lock_all(&mg.states);
        let ic = mg.group.interconnect();
        let mut comm = CommStep::default();
        for j in (0..sts.len()).filter(|&j| ss.active[j]) {
            let jpart = sts[j].part.as_ref().unwrap();
            let mut per_owner: BTreeMap<u32, u64> = BTreeMap::new();
            for (slotno, &(own, cur)) in ss.slots[j].iter().enumerate() {
                let label = sts[own as usize].part.as_ref().unwrap().load(cur as usize);
                jpart.store(ss.n_local[j] + slotno, label);
                *per_owner.entry(own).or_default() += 4;
            }
            for (own, bytes) in per_owner {
                let secs = ic.record(own, j as u32, bytes);
                comm.add(secs, own, j as u32);
                // reads the owner's projected labels, lands in the
                // receiver's ghost slots
                let deps = [mg.last_comp[own as usize], mg.last_comp[j]];
                let link = EngineId::Link(own, j as u32);
                self.ghost_deps[j].push(mg.tl.record(link, "ic:refine:labels", secs, &deps));
            }
        }
        self.label_secs += comm.max();
    }

    /// One refinement pass on all active devices concurrently. Returns
    /// each device's committed move count and moved local vertices.
    fn refine_pass(
        &mut self,
        ss: &mut Superstep,
        pass: usize,
    ) -> Result<Vec<(u64, Vec<u32>)>, DeviceError> {
        let mg = &mut *self.mg;
        let (base, d) = (mg.base, ss.active.len());
        for s in ss.devs.iter().flatten() {
            let s = s.lock().unwrap();
            for (q, &w) in self.global_pw.iter().enumerate() {
                s.pw.store(q, w);
                // This device's share of the remaining headroom: D
                // concurrent committers can't jointly overshoot.
                let headroom = self.maxw.saturating_sub(w);
                s.caps.store(q, w.saturating_add(headroom / d as u32));
            }
        }
        let changed: Vec<Vec<u32>> = ss.changed.iter_mut().map(std::mem::take).collect();
        let dir_up = pass.is_multiple_of(2) as u32;
        let (res, secs) = mg.on_devices(|i, dev| {
            let Some(s) = &ss.devs[i] else { return Ok((0, Vec::new())) };
            let mut s = s.lock().unwrap();
            let s = &mut *s;
            s.refine.pass(
                dev,
                &s.halo,
                mg.states[i].lock().unwrap().part.as_ref().unwrap(),
                &s.pw,
                &s.caps,
                dir_up,
                &changed[i],
                base.distribution,
                base.max_threads,
            )
        })?;
        self.gpu_secs += slowest(&secs);
        for (i, &dur) in secs.iter().enumerate() {
            if !ss.active[i] {
                continue;
            }
            // The simulator runs the pass as one launch; the timeline
            // splits its modeled seconds in two. Interior vertices carry
            // no ghost edges, so their share needs only the previous
            // pass's allreduce result (capacity headroom) and is modeled
            // as running while the boundary's label traffic is still in
            // flight; the boundary share then waits for the shipped
            // labels. The boundary share is the ghost slots plus ghosted
            // border vertices over the augmented vertex count.
            let (ghosts, border) = (ss.slots[i].len() as f64, ss.routes[i].len() as f64);
            let aug = ss.n_local[i] as f64 + ghosts;
            let f = if aug > 0.0 { ((ghosts + border) / aug).min(1.0) } else { 0.0 };
            let compute = EngineId::Compute(i as u32);
            let caps = std::mem::take(&mut self.caps_deps[i]);
            mg.tl.record(compute, "gpu:uncoarsen:pass", dur * (1.0 - f), &caps);
            let ghosts = std::mem::take(&mut self.ghost_deps[i]);
            mg.last_comp[i] =
                mg.tl.record(compute, "gpu:uncoarsen:pass:boundary", dur * f, &ghosts);
        }
        Ok(res)
    }

    /// Ship each moved border label to every device that ghosts it;
    /// receivers remember the changed slots for the next pass.
    fn ship_labels(&mut self, ss: &mut Superstep, res: &[(u64, Vec<u32>)]) {
        let mg = &mut *self.mg;
        let sts = lock_all(&mg.states);
        let mut ship: BTreeMap<(usize, usize), Vec<(u32, u32)>> = BTreeMap::new();
        for (i, (_, moved)) in res.iter().enumerate() {
            for &u in moved {
                if let Some(targets) = ss.routes[i].get(&u) {
                    let label = sts[i].part.as_ref().unwrap().load(u as usize);
                    for &(j, slot) in targets {
                        ship.entry((i, j)).or_default().push((slot, label));
                    }
                }
            }
        }
        let ic = mg.group.interconnect();
        let mut comm = CommStep::default();
        for ((i, j), mut entries) in ship {
            entries.sort_unstable();
            let secs = ic.record(i as u32, j as u32, 4 * entries.len() as u64);
            comm.add(secs, i as u32, j as u32);
            let link = EngineId::Link(i as u32, j as u32);
            self.ghost_deps[j].push(mg.tl.record(
                link,
                "ic:refine:labels",
                secs,
                &[mg.last_comp[i]],
            ));
            let jpart = sts[j].part.as_ref().unwrap();
            for (slot, label) in entries {
                jpart.store(ss.n_local[j] + slot as usize, label);
                ss.changed[j].push(slot);
            }
        }
        for l in &mut ss.changed {
            l.sort_unstable();
            l.dedup();
        }
        self.label_secs += comm.max();
    }

    /// Partition-weight allreduce (star through the lowest active device):
    /// gather per-device deltas, scatter the new global weights. The
    /// orchestrator (host) performs the reduction itself, so each leg is
    /// host-terminated and pays one link traversal — not a full
    /// device-to-device staged hop (see `Interconnect::record_host_leg`).
    fn allreduce(&mut self, ss: &Superstep) {
        let mg = &mut *self.mg;
        let ic = mg.group.interconnect();
        let bytes = 4 * mg.base.k as u64;
        let root = ss.active.iter().position(|&a| a).unwrap() as u32;
        let mut comm = CommStep::default();
        let mut next: Vec<i64> = self.global_pw.iter().map(|&v| v as i64).collect();
        let mut gather_ids: Vec<EventId> = Vec::new();
        for (i, s) in ss.devs.iter().enumerate() {
            let Some(s) = s else { continue };
            let s = s.lock().unwrap();
            for (q, nw) in next.iter_mut().enumerate() {
                *nw += s.pw.load(q) as i64 - self.global_pw[q] as i64;
            }
            if i as u32 != root {
                let secs = ic.record_host_leg(i as u32, root, bytes);
                comm.add(secs, i as u32, root);
                let link = EngineId::Link(i as u32, root);
                gather_ids.push(mg.tl.record(
                    link,
                    "ic:refine:allreduce",
                    secs,
                    &[mg.last_comp[i]],
                ));
            }
        }
        // scatter legs: the reduced weights leave only after every
        // gather arrived, and the next pass waits for its copy
        for i in (0..ss.active.len()).filter(|&i| ss.active[i] && i as u32 != root) {
            let secs = ic.record_host_leg(root, i as u32, bytes);
            comm.add(secs, root, i as u32);
            let link = EngineId::Link(root, i as u32);
            self.caps_deps[i].push(mg.tl.record(link, "ic:refine:allreduce", secs, &gather_ids));
        }
        self.caps_deps[root as usize].extend(gather_ids);
        self.allreduce_secs += comm.max();
        for (q, nw) in next.iter().enumerate() {
            self.global_pw[q] = *nw as u32;
        }
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
        let boundary_vertices = gpm_graph::metrics::boundary_count(g, &r.result.part);
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
    let (k, d) = (base.k, cfg.devices.min(g.n().max(1)));
    let max_vwgt = CoarsenConfig::for_k(k).max_vwgt(g.total_vwgt());
    let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), k, base.ubfactor);
    let maxw = u32::try_from(maxw).map_err(|_| PartitionError::WeightOverflow)?;
    let mut mg = Multi {
        base,
        model: CpuModel::xeon_e5540(base.cpu_threads),
        group: DeviceGroup::new(d, &base.gpu, cfg.link.clone()),
        states: Vec::new(),
        ledger: CostLedger::new(),
        tl: Timeline::new(),
        last_comp: Vec::new(),
    };
    let coarsening = mg.shard_and_upload(g)?;
    let exchange_ids = mg.coarsen(&coarsening, max_vwgt)?;
    let depth: Vec<usize> = lock_all(&mg.states).iter().map(|s| s.levels.len()).collect();
    let (cpu_levels, global_pw, scatter_ids) = mg.bridge(coarsening, exchange_ids)?;
    Uncoarsening {
        mg: &mut mg,
        depth: depth.clone(),
        maxw,
        global_pw,
        scatter_ids,
        gpu_secs: 0.0,
        label_secs: 0.0,
        allreduce_secs: 0.0,
        halo_works: vec![Work::default(); d],
        halo_ops: Vec::new(),
        caps_deps: vec![Vec::new(); d],
        ghost_deps: vec![Vec::new(); d],
    }
    .run()?;
    let (part, peak_device_bytes) = mg.gather(g.n())?;

    // diagnostics (like edge_cut/imbalance below, not a pipeline phase)
    let boundary_vertices = gpm_graph::metrics::boundary_count(g, &part);
    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, k);
    let levels = depth.iter().max().copied().unwrap_or(0) + cpu_levels;
    let overlap = Some(mg.tl.report(mg.ledger.total()));
    let ic = mg.group.interconnect();
    Ok(MultiGpuResult {
        result: PartitionResult {
            part,
            k,
            edge_cut,
            imbalance,
            ledger: mg.ledger,
            wall_seconds: t0.elapsed().as_secs_f64(),
            levels,
        },
        devices: d,
        gpu_levels: depth,
        peak_device_bytes,
        transfer_bytes: mg.group.devices().iter().map(Device::transfer_bytes_total).sum(),
        link_stats: ic.links(),
        interconnect_bytes: ic.total_bytes(),
        interconnect_seconds: ic.total_seconds(),
        boundary_vertices,
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
