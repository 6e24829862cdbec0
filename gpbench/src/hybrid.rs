//! `hybrid-mesh`: single-GPU GP-metis (D = 1) on a hugebubbles-like mesh
//! loaded from a METIS file with `read_metis_mmap`.
//!
//! The traced run drives the pipeline through its public kernels in
//! `gp_metis::partition_with_plan`'s order, with a span around every
//! call, and must reproduce the untraced partition and ledger total
//! bit-for-bit.

use crate::batch::{
    closed_loop, end_to_end, repeat_setup, traced_loop, variant_seed, References, SETUP_REPS,
    VARIANTS,
};
use crate::check::{self, edge_cut, Checker};
use crate::metrics::{ratio, MIB};
use crate::{Ctx, Outcome};
use gp_metis::gpu_graph::GpuCsr;
use gp_metis::kernels::cmap::gpu_cmap_ws;
use gp_metis::kernels::contract::{gpu_contract_ws, GpuCoarsenScratch};
use gp_metis::kernels::matching::gpu_matching;
use gp_metis::kernels::refine::{gpu_part_weights, gpu_project, gpu_refine};
use gp_metis::{GpMetisConfig, GpMetisResult};
use gpm_gpu_sim::{DBuf, Device, DeviceError, KernelStats};
use gpm_graph::csr::CsrGraph;
use gpm_graph::stream::read_metis_mmap;
use gpm_metis::coarsen::CoarsenConfig;
use gpm_metis::cost::{CostLedger, CpuModel};
use gpm_mtmetis::MtMetisConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Target vertex count (about 1.5 edges per vertex).
fn vertices(ctx: &Ctx) -> usize {
    if ctx.tiny {
        8_000
    } else {
        120_000
    }
}

/// One untraced operation: load, then partition through the public entry
/// point. Returns the result and the host wall seconds.
fn op(path: &Path, cfg: &GpMetisConfig) -> Result<(CsrGraph, GpMetisResult, f64), String> {
    let t0 = Instant::now();
    let g = read_metis_mmap(path).map_err(|e| e.to_string())?;
    let r = gp_metis::partition(&g, cfg).map_err(|e| e.to_string())?;
    Ok((g, r, t0.elapsed().as_secs_f64()))
}

/// The checker's findings on an untraced answer to variant `v`.
fn problems(
    check: &mut Checker,
    g: &CsrGraph,
    r: GpMetisResult,
    v: usize,
    refs: &References<GpMetisResult>,
) -> Vec<String> {
    let res = &r.result;
    let mut p = check.partition(g, &res.part, res.k, res.edge_cut, res.modeled_seconds());
    match &r.overlap {
        Some(ov) => p.extend(check::overlap(ov.makespan, ov.serialized)),
        None => p.push("no overlap report".into()),
    }
    let same = |a: &GpMetisResult, b: &GpMetisResult| {
        a.result.part == b.result.part
            && a.result.modeled_seconds().to_bits() == b.result.modeled_seconds().to_bits()
    };
    if !refs.matches(v, r, same) {
        p.push("partition or ledger differs from the variant's first run".into());
    }
    p
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let cfgs: Vec<GpMetisConfig> = (0..VARIANTS)
        .map(|i| GpMetisConfig::new(64).with_seed(variant_seed(ctx.seed, i)))
        .collect();
    let path: PathBuf = ctx.work.join("mesh.graph");
    let refs = References::new();
    let check = &mut out.check;
    let (_, setup_s) = repeat_setup(SETUP_REPS, || {
        let g = gpm_graph::gen::hugebubbles_like(vertices(ctx));
        gpm_graph::io::write_metis_file(&g, &path).map_err(|e| e.to_string())?;
        let (g, r, _) = op(&path, &cfgs[0])?;
        let p = problems(check, &g, r, 0, &refs);
        check.record("warm-up", p);
        Ok(())
    })?;
    let untraced = |v: usize, check: &mut Checker| {
        let (g, r, wall) = op(&path, &cfgs[v])?;
        Ok((wall, problems(check, &g, r, v, &refs)))
    };

    if !ctx.trace {
        let walls = closed_loop(ctx, &mut out.check, untraced);
        let modeled = refs.mean(|r| r.result.modeled_seconds());
        let cut = refs.mean(|r| r.result.edge_cut as f64);
        let busy_s = walls.iter().sum();
        end_to_end(out, setup_s, &walls, busy_s, modeled, cut);
        return Ok(());
    }

    let mid = References::new();
    let t = traced_loop(ctx, out, untraced, |v, tr, _| {
        let t = traced_op(&path, &cfgs[v], tr)?;
        let mut p = Vec::new();
        let same = refs.with(v, |r| {
            let gr = &r.gpu;
            t.part == r.result.part
                && t.ledger_total.to_bits() == r.result.modeled_seconds().to_bits()
                && (t.gpu_levels, t.cpu_levels, t.conflicts, t.refine_moves, t.peak_mem)
                    == (
                        gr.gpu_levels,
                        gr.cpu_levels,
                        gr.match_conflicts,
                        gr.refine_moves,
                        gr.peak_device_bytes,
                    )
        });
        if same != Some(true) {
            p.push(
                "traced partition, ledger or level counts differ from the untraced run".to_string(),
            );
        }
        let bits = |m: &(f64, u64)| (m.0.to_bits(), m.1);
        if !mid.matches(v, (t.mt_modeled, t.mt_cut), |a, b| bits(a) == bits(b)) {
            p.push("middle phase differs between traced runs".to_string());
        }
        Ok(p)
    });

    let tr = &out.tracer;
    let rep = &mut out.report;
    let mut kernel_wall = 0.0;
    for (metric, span) in [
        ("core.match_s", "core.match"),
        ("core.cmap_s", "core.cmap"),
        ("core.contract_s", "core.contract"),
        ("core.project_s", "core.project"),
        ("core.part_weights_s", "core.part_weights"),
        ("core.refine_s", "core.refine"),
    ] {
        let secs = t.per_op(tr, span);
        kernel_wall += secs;
        rep.set(metric, secs);
    }
    for (metric, span) in [
        ("graph.load_s", "graph.load"),
        ("core.upload_s", "core.upload"),
        ("core.download_s", "core.download"),
        ("mtmetis.coarsen_s", "mtmetis.coarsen"),
        ("mtmetis.initpart_s", "mtmetis.initpart"),
        ("mtmetis.uncoarsen_s", "mtmetis.uncoarsen"),
    ] {
        rep.set(metric, t.per_op(tr, span));
    }
    rep.set("mtmetis.modeled_s", mid.mean(|m| m.0));
    rep.set("mtmetis.edge_cut", mid.mean(|m| m.1 as f64));

    let ledger = |prefix: &'static str| refs.mean(move |r| r.result.ledger.total_for(prefix));
    rep.set("core.coarsen_modeled_s", ledger("gpu:coarsen"));
    rep.set("core.uncoarsen_modeled_s", ledger("gpu:uncoarsen"));
    rep.set("core.cpu_modeled_s", ledger("cpu:"));
    rep.set("core.xfer_modeled_s", ledger("xfer:"));
    rep.set("core.gpu_levels", refs.mean(|r| r.gpu.gpu_levels as f64));
    rep.set("core.cpu_levels", refs.mean(|r| r.gpu.cpu_levels as f64));
    rep.set("core.match_conflicts", refs.mean(|r| r.gpu.match_conflicts as f64));
    rep.set("core.refine_moves", refs.mean(|r| r.gpu.refine_moves as f64));
    rep.set("core.peak_device_mb", refs.mean(|r| r.gpu.peak_device_bytes as f64 / MIB));
    rep.set(
        "core.overlap_speedup",
        refs.mean(|r| r.overlap.as_ref().map_or(0.0, |ov| ov.speedup())),
    );
    let log_sum = |f: fn(&KernelStats) -> u64| {
        refs.mean(move |r| r.gpu.kernel_log.iter().map(f).sum::<u64>() as f64)
    };
    let accesses = log_sum(|k| k.accesses);
    let transactions = log_sum(|k| k.transactions);
    rep.set("gpusim.launches", refs.mean(|r| r.gpu.kernel_log.len() as f64));
    rep.set("gpusim.warps", log_sum(|k| k.warps));
    rep.set("gpusim.accesses", accesses);
    rep.set("gpusim.transactions", transactions);
    rep.set("gpusim.coalescing", ratio(accesses, transactions));
    rep.set("gpusim.transfer_bytes", refs.mean(|r| r.gpu.transfer_bytes as f64));
    rep.set("gpusim.transfer_modeled_s", refs.mean(|r| r.gpu.transfer_seconds));
    rep.set("gpusim.kernel_wall_s", kernel_wall);
    rep.set("gpusim.ns_per_access", ratio(kernel_wall * 1e9, accesses));
    t.report_trace(out);
    let coverage = out.tracer.coverage("op");
    if coverage < 0.9 {
        out.check.record("trace", vec![format!("layer coverage {coverage:.3} below 0.9")]);
    }
    Ok(())
}

/// What the traced pipeline reproduces from the untraced run.
struct Traced {
    part: Vec<u32>,
    ledger_total: f64,
    gpu_levels: usize,
    cpu_levels: usize,
    conflicts: u64,
    refine_moves: u64,
    peak_mem: u64,
    /// Modeled seconds and coarse-graph cut of the mt-metis middle phase.
    mt_modeled: f64,
    mt_cut: u64,
}

/// `partition_with_plan` (no fault plan) rebuilt from the public kernels,
/// with a span around every call into a layer.
fn traced_op(
    path: &Path,
    cfg: &GpMetisConfig,
    tr: &mut crate::trace::Tracer,
) -> Result<Traced, String> {
    let g = tr.span("graph.load", || read_metis_mmap(path)).map_err(|e| e.to_string())?;
    let dev_err = |e: DeviceError| e.to_string();
    let dev = Device::new(cfg.gpu.clone());
    let mut ledger = CostLedger::new();
    let ccfg = CoarsenConfig::for_k(cfg.k);
    let max_vwgt = ccfg.max_vwgt(g.total_vwgt());
    let mt = MtMetisConfig {
        k: cfg.k,
        threads: cfg.cpu_threads,
        ubfactor: cfg.ubfactor,
        seed: cfg.seed,
        ..MtMetisConfig::new(cfg.k)
    };
    let model = CpuModel::xeon_e5540(cfg.cpu_threads);
    let mut mark = dev.elapsed();
    let charge = |ledger: &mut CostLedger, name: &str, mark: &mut f64| {
        let now = dev.elapsed();
        ledger.seconds(name, now - *mark);
        *mark = now;
    };

    // GPU front half: upload, coarsening levels, coarse download.
    let g0 = tr.span("core.upload", || GpuCsr::upload(&dev, &g)).map_err(dev_err)?;
    charge(&mut ledger, "xfer:h2d:graph", &mut mark);
    let mut levels: Vec<(GpuCsr, DBuf<u32>)> = Vec::new();
    let mut cur = g0;
    let mut uniform = g.uniform_edge_weights();
    let (mut conflicts, mut peak_mem) = (0u64, 0u64);
    {
        let mut scratch = GpuCoarsenScratch::new();
        while cur.n > cfg.gpu_threshold && levels.len() < ccfg.max_levels {
            let lvl = levels.len() as u64;
            let (mat, mstats) = tr
                .span("core.match", || {
                    gpu_matching(
                        &dev,
                        &cur,
                        max_vwgt,
                        cfg.match_rounds,
                        uniform,
                        cfg.seed.wrapping_add(lvl),
                        cfg.distribution,
                        cfg.max_threads,
                    )
                })
                .map_err(dev_err)?;
            conflicts += mstats.conflicts;
            let (cmap, nc) = tr
                .span("core.cmap", || {
                    gpu_cmap_ws(&dev, &mat, cfg.distribution, cfg.max_threads, &mut scratch)
                })
                .map_err(dev_err)?;
            if nc as f64 / cur.n as f64 > ccfg.reduction_cutoff {
                break;
            }
            let coarse = tr
                .span("core.contract", || {
                    gpu_contract_ws(
                        &dev,
                        &cur,
                        &mat,
                        &cmap,
                        nc,
                        cfg.merge,
                        cfg.max_threads,
                        &mut scratch,
                    )
                })
                .map_err(dev_err)?;
            peak_mem = peak_mem.max(dev.mem_used());
            uniform = false;
            levels.push((std::mem::replace(&mut cur, coarse), cmap));
        }
    }
    charge(&mut ledger, "gpu:coarsen", &mut mark);
    let coarse_host = tr.span("core.download", || cur.download(&dev)).map_err(dev_err)?;
    charge(&mut ledger, "xfer:d2h:coarse", &mut mark);
    // `cur` stays resident until the end, as in the untraced pipeline, so
    // the device peak matches.

    // CPU middle phase (mt-metis).
    let mut cpu_ledger = CostLedger::new();
    let hierarchy = tr.span("mtmetis.coarsen", || {
        gpm_mtmetis::parallel_coarsen(&coarse_host, &mt, &model, &mut cpu_ledger)
    });
    let (cpart, init_crit) = tr.span("mtmetis.initpart", || {
        gpm_mtmetis::pinit::parallel_init_partition(
            hierarchy.coarsest(),
            cfg.k,
            cfg.ubfactor,
            mt.gggp_trials,
            mt.fm_passes,
            cfg.seed,
            cfg.cpu_threads,
        )
    });
    cpu_ledger.parallel("initpart", &model, &[init_crit], 1);
    let part_at_entry = tr.span("mtmetis.uncoarsen", || {
        gpm_mtmetis::uncoarsen_with_refine(&hierarchy, cpart, &mt, &model, &mut cpu_ledger)
    });
    for (name, secs) in &cpu_ledger.phases {
        ledger.seconds(&format!("cpu:{name}"), *secs);
    }
    let mt_cut = edge_cut(&coarse_host, &part_at_entry);

    // GPU back half: partition upload, project + refine per level, download.
    let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), cfg.k, cfg.ubfactor);
    let maxw = u32::try_from(maxw).map_err(|_| "balance cap overflows u32".to_string())?;
    mark = dev.elapsed();
    let mut dpart = tr.span("core.upload", || dev.h2d(&part_at_entry)).map_err(dev_err)?;
    charge(&mut ledger, "xfer:h2d:part", &mut mark);
    let mut refine_moves = 0u64;
    for (fine, cmap) in levels.iter().rev() {
        dpart = tr
            .span("core.project", || {
                gpu_project(&dev, cmap, &dpart, cfg.distribution, cfg.max_threads)
            })
            .map_err(dev_err)?;
        let pw = tr
            .span("core.part_weights", || {
                gpu_part_weights(&dev, fine, &dpart, cfg.k, cfg.distribution, cfg.max_threads)
            })
            .map_err(dev_err)?;
        let stats = tr
            .span("core.refine", || {
                gpu_refine(
                    &dev,
                    fine,
                    &dpart,
                    &pw,
                    cfg.k,
                    maxw,
                    cfg.refine_passes,
                    cfg.distribution,
                    cfg.max_threads,
                )
            })
            .map_err(dev_err)?;
        refine_moves += stats.moves;
    }
    peak_mem = peak_mem.max(dev.mem_used());
    charge(&mut ledger, "gpu:uncoarsen", &mut mark);
    let part = tr.span("core.download", || dev.d2h(&dpart)).map_err(dev_err)?;
    charge(&mut ledger, "xfer:d2h:part", &mut mark);

    Ok(Traced {
        part,
        ledger_total: ledger.total(),
        gpu_levels: levels.len(),
        cpu_levels: hierarchy.depth(),
        conflicts,
        refine_moves,
        peak_mem,
        mt_modeled: cpu_ledger.total(),
        mt_cut,
    })
}
