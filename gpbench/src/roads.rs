//! `cpu-roads`: Metis, mt-metis and ParMetis on a USA-roads-like graph
//! loaded from a METIS file. No simulator is involved.
//!
//! The traced run calls Metis and ParMetis whole, and drives mt-metis
//! through `parallel_coarsen`, `pinit::parallel_init_partition` and its
//! uncoarsening calls, reproducing `gpm_mtmetis::partition` bit-for-bit.

use crate::batch::{
    closed_loop, end_to_end, repeat_setup, traced_loop, variant_seed, References, SETUP_REPS,
    VARIANTS,
};
use crate::check::Checker;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use gpm_graph::csr::CsrGraph;
use gpm_graph::stream::read_metis_mmap;
use gpm_metis::cost::{CostLedger, CpuModel, Work};
use gpm_metis::{MetisConfig, PartitionResult};
use gpm_mtmetis::MtMetisConfig;
use gpm_parmetis::ParMetisConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

const K: usize = 64;

fn vertices(ctx: &Ctx) -> usize {
    if ctx.tiny {
        6_000
    } else {
        250_000
    }
}

struct Configs {
    metis: MetisConfig,
    mt: MtMetisConfig,
    par: ParMetisConfig,
}

impl Configs {
    fn new(seed: u64) -> Configs {
        Configs {
            metis: MetisConfig::new(K).with_seed(seed),
            mt: MtMetisConfig::new(K).with_seed(seed),
            par: ParMetisConfig::new(K).with_seed(seed),
        }
    }
}

type Answers = [PartitionResult; 3];

/// One untraced operation: load, then the three codes' public entry
/// points. Returns the results in (Metis, mt-metis, ParMetis) order.
fn op(path: &Path, c: &Configs) -> Result<(CsrGraph, Answers, f64), String> {
    let t0 = Instant::now();
    let g = read_metis_mmap(path).map_err(|e| e.to_string())?;
    let metis = gpm_metis::partition(&g, &c.metis);
    let mt = gpm_mtmetis::partition(&g, &c.mt);
    let par = gpm_parmetis::try_partition(&g, &c.par).map_err(|e| e.to_string())?;
    Ok((g, [metis, mt, par], t0.elapsed().as_secs_f64()))
}

/// The checker's findings on an untraced answer to variant `v`.
fn problems(
    check: &mut Checker,
    g: &CsrGraph,
    rs: Answers,
    v: usize,
    refs: &References<Answers>,
) -> Vec<String> {
    let mut p = Vec::new();
    for r in &rs {
        p.extend(check.partition(g, &r.part, r.k, r.edge_cut, r.modeled_seconds()));
    }
    let same = |a: &Answers, b: &Answers| {
        a.iter().zip(b).all(|(x, y)| {
            x.part == y.part && x.modeled_seconds().to_bits() == y.modeled_seconds().to_bits()
        })
    };
    if !refs.matches(v, rs, same) {
        p.push("partition or ledger differs from the variant's first run".into());
    }
    p
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let cfgs: Vec<Configs> =
        (0..VARIANTS).map(|i| Configs::new(variant_seed(ctx.seed, i))).collect();
    let paths: Vec<PathBuf> =
        (0..VARIANTS).map(|i| ctx.work.join(format!("roads-{i}.graph"))).collect();
    let refs = References::new();
    let check = &mut out.check;
    let (_, setup_s) = repeat_setup(SETUP_REPS, || {
        for (i, path) in paths.iter().enumerate() {
            let g = gpm_graph::gen::usa_roads_like(vertices(ctx), variant_seed(ctx.seed, i));
            gpm_graph::io::write_metis_file(&g, path).map_err(|e| e.to_string())?;
        }
        let (g, rs, _) = op(&paths[0], &cfgs[0])?;
        let p = problems(check, &g, rs, 0, &refs);
        check.record("warm-up", p);
        Ok(())
    })?;
    let untraced = |v: usize, check: &mut Checker| {
        let (g, rs, wall) = op(&paths[v], &cfgs[v])?;
        Ok((wall, problems(check, &g, rs, v, &refs)))
    };

    if !ctx.trace {
        let walls = closed_loop(ctx, &mut out.check, untraced);
        let modeled = refs.mean(|rs| rs.iter().map(PartitionResult::modeled_seconds).sum());
        let cut = refs.mean(|rs| rs.iter().map(|r| r.edge_cut).sum::<u64>() as f64);
        let busy_s = walls.iter().sum();
        end_to_end(out, setup_s, &walls, busy_s, modeled, cut);
        return Ok(());
    }

    let t = traced_loop(ctx, out, untraced, |v, tr, _| {
        let (parts, totals) = traced_op(&paths[v], &cfgs[v], tr)?;
        let same = refs.with(v, |want| {
            want.iter().zip(parts.iter().zip(totals)).all(|(w, (part, total))| {
                *part == w.part && total.to_bits() == w.modeled_seconds().to_bits()
            })
        });
        Ok(if same == Some(true) {
            Vec::new()
        } else {
            vec!["traced partition or ledger differs from the untraced run".to_string()]
        })
    });

    let tr = &out.tracer;
    let rep = &mut out.report;
    for (metric, span) in [
        ("graph.load_s", "graph.load"),
        ("metis.wall_s", "metis"),
        ("parmetis.wall_s", "parmetis"),
        ("mtmetis.coarsen_s", "mtmetis.coarsen"),
        ("mtmetis.initpart_s", "mtmetis.initpart"),
        ("mtmetis.uncoarsen_s", "mtmetis.uncoarsen"),
    ] {
        rep.set(metric, t.per_op(tr, span));
    }
    let codes = [
        ("metis.modeled_s", "metis.edge_cut"),
        ("mtmetis.modeled_s", "mtmetis.edge_cut"),
        ("parmetis.modeled_s", "parmetis.edge_cut"),
    ];
    for (i, (modeled, cut)) in codes.into_iter().enumerate() {
        rep.set(modeled, refs.mean(|rs| rs[i].modeled_seconds()));
        rep.set(cut, refs.mean(|rs| rs[i].edge_cut as f64));
    }
    t.report_trace(out);
    Ok(())
}

/// The traced operation: partitions and ledger totals per code.
fn traced_op(
    path: &Path,
    c: &Configs,
    tr: &mut Tracer,
) -> Result<([Vec<u32>; 3], [f64; 3]), String> {
    let g = tr.span("graph.load", || read_metis_mmap(path)).map_err(|e| e.to_string())?;
    let metis = tr.span("metis", || gpm_metis::partition(&g, &c.metis));
    let (mt_part, mt_total) = traced_mtmetis(&g, &c.mt, tr);
    let par = tr
        .span("parmetis", || gpm_parmetis::try_partition(&g, &c.par))
        .map_err(|e| e.to_string())?;
    Ok(([metis.part, mt_part, par.part], [metis.ledger.total(), mt_total, par.ledger.total()]))
}

/// `gpm_mtmetis::partition`, phase by phase.
fn traced_mtmetis(g: &CsrGraph, cfg: &MtMetisConfig, tr: &mut Tracer) -> (Vec<u32>, f64) {
    let model = CpuModel::xeon_e5540(cfg.threads);
    let mut ledger = CostLedger::new();
    let hierarchy =
        tr.span("mtmetis.coarsen", || gpm_mtmetis::parallel_coarsen(g, cfg, &model, &mut ledger));
    let (mut part, init_crit) = tr.span("mtmetis.initpart", || {
        gpm_mtmetis::pinit::parallel_init_partition(
            hierarchy.coarsest(),
            cfg.k,
            cfg.ubfactor,
            cfg.gggp_trials,
            cfg.fm_passes,
            cfg.seed,
            cfg.threads,
        )
    });
    ledger.parallel("initpart", &model, &[init_crit], 1);
    tr.span("mtmetis.uncoarsen", || {
        for lvl in (0..hierarchy.depth()).rev() {
            part = hierarchy.project_step(lvl, &part);
            let fine = &hierarchy.levels[lvl].graph;
            ledger.parallel(
                &format!("uncoarsen:project:l{lvl}"),
                &model,
                &vec![
                    Work::new(0, (fine.n() / cfg.threads.max(1)) as u64).with_ws(fine.bytes());
                    cfg.threads
                ],
                1,
            );
            if gpm_graph::metrics::imbalance(fine, &part, cfg.k) > cfg.ubfactor {
                let mut w = Work::default().with_ws(fine.bytes());
                gpm_metis::kway::kway_balance(fine, &mut part, cfg.k, cfg.ubfactor, &mut w);
                ledger.serial(&format!("uncoarsen:balance:l{lvl}"), &model, w);
            }
            let (_stats, works) = gpm_mtmetis::prefine::parallel_refine(
                fine,
                &mut part,
                cfg.k,
                cfg.ubfactor,
                cfg.refine_passes,
                cfg.threads,
            );
            ledger.parallel(&format!("uncoarsen:refine:l{lvl}"), &model, &works, 2);
        }
        if hierarchy.depth() == 0 {
            let (_stats, works) = gpm_mtmetis::prefine::parallel_refine(
                g,
                &mut part,
                cfg.k,
                cfg.ubfactor,
                cfg.refine_passes,
                cfg.threads,
            );
            ledger.parallel("refine:flat", &model, &works, 2);
        }
    });
    (part, ledger.total())
}
