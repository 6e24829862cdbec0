//! `multigpu-delaunay`: `partition_multi` at D = 4 on a Delaunay-like
//! graph. `partition_multi` is one function, so the traced run times it
//! whole and times its sharding step (`halo_shards`) on its own beside it.

use crate::batch::{
    closed_loop, end_to_end, repeat_setup, traced_loop, variant_seed, References, SETUP_REPS,
    VARIANTS,
};
use crate::check::{self, Checker};
use crate::metrics::{median, MIB};
use crate::{Ctx, Outcome};
use gp_metis::multi_gpu::{partition_multi, MultiGpuConfig, MultiGpuResult};
use gp_metis::GpMetisConfig;
use gpm_graph::csr::CsrGraph;
use std::time::Instant;

const DEVICES: usize = 4;

fn vertices(ctx: &Ctx) -> usize {
    if ctx.tiny {
        24_000
    } else {
        80_000
    }
}

fn op(g: &CsrGraph, cfg: &MultiGpuConfig) -> Result<(MultiGpuResult, f64), String> {
    let t0 = Instant::now();
    let r = partition_multi(g, cfg).map_err(|e| e.to_string())?;
    Ok((r, t0.elapsed().as_secs_f64()))
}

/// The checker's findings on an answer to variant `v`.
fn problems(
    check: &mut Checker,
    g: &CsrGraph,
    r: MultiGpuResult,
    v: usize,
    refs: &References<MultiGpuResult>,
) -> Vec<String> {
    let res = &r.result;
    let mut p = check.partition(g, &res.part, res.k, res.edge_cut, res.modeled_seconds());
    match &r.overlap {
        Some(ov) => p.extend(check::overlap(ov.makespan, ov.serialized)),
        None => p.push("no overlap report".into()),
    }
    let key = |r: &MultiGpuResult| {
        (r.result.modeled_seconds().to_bits(), r.overlap.as_ref().map(|ov| ov.makespan.to_bits()))
    };
    if !refs.matches(v, r, |a, b| a.result.part == b.result.part && key(a) == key(b)) {
        p.push("partition or ledger differs from the variant's first run".into());
    }
    p
}

fn makespan(r: &MultiGpuResult) -> f64 {
    r.overlap.as_ref().map_or(f64::NAN, |ov| ov.makespan)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let cfgs: Vec<MultiGpuConfig> = (0..VARIANTS)
        .map(|i| {
            MultiGpuConfig::new(
                GpMetisConfig::new(64).with_seed(variant_seed(ctx.seed, i)),
                DEVICES,
            )
        })
        .collect();
    let refs = References::new();
    let check = &mut out.check;
    let (graphs, setup_s) = repeat_setup(SETUP_REPS, || {
        let graphs: Vec<CsrGraph> = (0..VARIANTS)
            .map(|i| gpm_graph::gen::delaunay_like(vertices(ctx), variant_seed(ctx.seed, i)))
            .collect();
        let (r, _) = op(&graphs[0], &cfgs[0])?;
        let p = problems(check, &graphs[0], r, 0, &refs);
        check.record("warm-up", p);
        Ok(graphs)
    })?;
    let untraced = |v: usize, check: &mut Checker| {
        let (r, wall) = op(&graphs[v], &cfgs[v])?;
        Ok((wall, problems(check, &graphs[v], r, v, &refs)))
    };

    if !ctx.trace {
        let walls = closed_loop(ctx, &mut out.check, untraced);
        let cut = refs.mean(|r| r.result.edge_cut as f64);
        let (busy_s, modeled) = (walls.iter().sum(), refs.mean(makespan));
        end_to_end(out, setup_s, &walls, busy_s, modeled, cut);
        return Ok(());
    }

    // The sharding step partition_multi starts with, timed on its own as
    // root spans of their own, three times per variant.
    let shard_secs: Vec<f64> = (0..3 * VARIANTS)
        .map(|i| {
            let id = out.tracer.open("graph.halo_shards");
            drop(gpm_graph::subgraph::halo_shards(&graphs[i % VARIANTS], DEVICES));
            out.tracer.close(id);
            out.tracer.spans[id].secs()
        })
        .collect();
    let t = traced_loop(ctx, out, untraced, |v, tr, check| {
        let r = tr.span("multigpu.partition_multi", || partition_multi(&graphs[v], &cfgs[v]));
        Ok(problems(check, &graphs[v], r.map_err(|e| e.to_string())?, v, &refs))
    });

    let rep = &mut out.report;
    let shards = median(&shard_secs);
    rep.set("graph.halo_shards_s", shards);
    rep.set("multigpu.orchestrate_s", t.per_op(&out.tracer, "multigpu.partition_multi") - shards);
    rep.set("multigpu.interconnect_bytes", refs.mean(|r| r.interconnect_bytes as f64));
    rep.set(
        "multigpu.interconnect_transfers",
        refs.mean(|r| r.link_stats.iter().map(|(_, _, s)| s.transfers).sum::<u64>() as f64),
    );
    rep.set("multigpu.interconnect_modeled_s", refs.mean(|r| r.interconnect_seconds));
    rep.set(
        "multigpu.serialized_modeled_s",
        refs.mean(|r| r.overlap.as_ref().map_or(0.0, |ov| ov.serialized)),
    );
    rep.set("multigpu.makespan_modeled_s", refs.mean(makespan));
    rep.set(
        "multigpu.overlap_speedup",
        refs.mean(|r| r.overlap.as_ref().map_or(0.0, |ov| ov.speedup())),
    );
    rep.set(
        "multigpu.peak_device_mb_max",
        refs.mean(|r| r.peak_device_bytes.iter().copied().max().unwrap_or(0) as f64 / MIB),
    );
    rep.set("multigpu.boundary_vertices", refs.mean(|r| r.boundary_vertices as f64));
    rep.set("gpusim.transfer_bytes", refs.mean(|r| r.transfer_bytes as f64));
    t.report_trace(out);
    Ok(())
}
