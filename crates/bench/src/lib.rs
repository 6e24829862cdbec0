//! Shared driver for the reproduction harness: runs the paper's four
//! partitioners over the four evaluation graphs and collects the numbers
//! Tables II/III and Fig. 5 report, prints Table I, and parses the
//! `evaluation` binary's subcommands.

pub mod ablations;

use ablations::Ablation;
use gpm_graph::gen::{PaperGraph, SuiteScale};
use gpm_metis::PartitionResult;
use gpm_serve::protocol::JobRequest;

/// One partitioner's numbers on one graph.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Final edge cut.
    pub edge_cut: u64,
    /// Modeled seconds on the paper's testbed (min over runs, as the
    /// paper reports the minimum of three experiments).
    pub modeled_seconds: f64,
    /// Final imbalance.
    pub imbalance: f64,
}

/// All four partitioners on one graph.
#[derive(Debug, Clone)]
pub struct GraphResults {
    pub graph: PaperGraph,
    pub metis: RunRecord,
    pub parmetis: RunRecord,
    pub mtmetis: RunRecord,
    pub gpmetis: RunRecord,
}

impl GraphResults {
    /// Speedup of `r` over serial Metis (Fig. 5's y-axis).
    pub fn speedup(&self, r: &RunRecord) -> f64 {
        self.metis.modeled_seconds / r.modeled_seconds
    }

    /// Edge-cut ratio relative to Metis (Table III).
    pub fn cut_ratio(&self, r: &RunRecord) -> f64 {
        r.edge_cut as f64 / self.metis.edge_cut as f64
    }
}

/// Evaluation parameters: the paper's k = 64, minimum of three runs. The
/// paper's 3% imbalance and 8 cores / ranks are [`JobRequest::new`]'s
/// defaults, the ones every entry point starts from.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    pub k: u32,
    pub runs: usize,
    pub seed: u64,
    pub scale: SuiteScale,
}

impl EvalConfig {
    /// Paper defaults, with the suite scale read from `GPM_SCALE` and the
    /// run count from `GPM_RUNS` (see [`EvalConfig::from_vars`]).
    pub fn from_env() -> Result<Self, String> {
        let var = |key| std::env::var(key).ok();
        Self::from_vars(var("GPM_SCALE").as_deref(), var("GPM_RUNS").as_deref())
    }

    /// Paper defaults with `scale` ("tiny", "small", "medium", "full", or
    /// a finite fraction > 0 like "0.02"; unset is small) and `runs` (an
    /// integer >= 1; unset is 1). Any other value is an error naming the
    /// variable, never a silent default.
    pub fn from_vars(scale: Option<&str>, runs: Option<&str>) -> Result<Self, String> {
        let bad = |key: &str, v: &str| format!("{key}: bad value {v:?}");
        let scale = match scale {
            None | Some("small") => SuiteScale::Small,
            Some("tiny") => SuiteScale::Tiny,
            Some("medium") => SuiteScale::Medium,
            Some("full") => SuiteScale::Full,
            Some(s) => match s.parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => SuiteScale::Fraction(f),
                _ => return Err(bad("GPM_SCALE", s)),
            },
        };
        let runs = match runs {
            None => 1,
            Some(r) => match r.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(bad("GPM_RUNS", r)),
            },
        };
        Ok(EvalConfig { k: 64, runs, seed: 1, scale })
    }
}

/// What one `evaluation` run prints: no arguments, `table1`,
/// `ablations`, or `ablations <name> [n]` (one ablation, no header).
#[derive(Debug)]
pub enum Command {
    Tables,
    Table1,
    AllAblations,
    Ablation(&'static Ablation, usize),
}

/// Parse `evaluation`'s arguments (the program name excluded). An unknown
/// subcommand or ablation, a size that is not an integer >= 1, and an
/// extra argument are errors, never a silent default.
pub fn parse_command<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let ablation = |name: &str| {
        ablations::ALL.iter().find(|a| a.name == name).ok_or_else(|| {
            let names: Vec<&str> = ablations::ALL.iter().map(|a| a.name).collect();
            format!("unknown ablation {name:?} (expected one of: {})", names.join(", "))
        })
    };
    match args[..] {
        [] => Ok(Command::Tables),
        ["table1"] => Ok(Command::Table1),
        ["ablations"] => Ok(Command::AllAblations),
        ["ablations", name] => ablation(name).map(|a| Command::Ablation(a, a.n)),
        ["ablations", name, n] => match (ablation(name)?, n.parse::<usize>()) {
            (a, Ok(n)) if n >= 1 => Ok(Command::Ablation(a, n)),
            _ => Err(format!("ablation size: bad value {n:?} (expected an integer >= 1)")),
        },
        ["table1", x, ..] | ["ablations", _, _, x, ..] => Err(format!("unexpected argument {x:?}")),
        [cmd, ..] => Err(format!("unknown subcommand {cmd:?} (expected table1 or ablations)")),
    }
}

/// The run of `f` with the least `score` over `cfg.runs` runs, run `i`
/// (from 1) on seed `cfg.seed * 100 + i`.
fn min_of<R>(
    job: &mut JobRequest,
    cfg: &EvalConfig,
    f: impl Fn(&JobRequest) -> R,
    score: impl Fn(&R) -> f64,
) -> R {
    let mut best: Option<R> = None;
    for i in 1..=cfg.runs.max(1) as u64 {
        job.seed = cfg.seed * 100 + i;
        let r = f(job);
        if best.as_ref().is_none_or(|b| score(&r) < score(b)) {
            best = Some(r);
        }
    }
    best.unwrap()
}

/// Run all four partitioners on `job`'s graph, each configured by the
/// job's engine mapping (the paper runs each three times and keeps the
/// minimum runtime).
pub fn run_graph(pg: PaperGraph, mut job: JobRequest, cfg: &EvalConfig) -> GraphResults {
    let (n, m) = (job.graph.n(), job.graph.m());
    eprintln!("  [{}] n={n} m={m} ...", pg.name());
    let modeled = |r: &PartitionResult| r.modeled_seconds();
    let metis =
        min_of(&mut job, cfg, |j| gpm_metis::partition(&j.graph, &j.metis_config()), modeled);
    eprintln!("    Metis     {:>10.4}s cut {}", metis.modeled_seconds(), metis.edge_cut);
    let par =
        min_of(&mut job, cfg, |j| gpm_parmetis::partition(&j.graph, &j.parmetis_config()), modeled);
    eprintln!("    ParMetis  {:>10.4}s cut {}", par.modeled_seconds(), par.edge_cut);
    let mt =
        min_of(&mut job, cfg, |j| gpm_mtmetis::partition(&j.graph, &j.mtmetis_config()), modeled);
    eprintln!("    mt-metis  {:>10.4}s cut {}", mt.modeled_seconds(), mt.edge_cut);
    let gp = min_of(
        &mut job,
        cfg,
        |j| {
            gp_metis::partition(&j.graph, &j.gpmetis_config())
                .expect("suite graphs fit in device memory")
        },
        |r| r.result.modeled_seconds(),
    );
    eprintln!(
        "    GP-metis  {:>10.4}s cut {} ({} GPU levels)",
        gp.result.modeled_seconds(),
        gp.result.edge_cut,
        gp.gpu.gpu_levels
    );

    let rec = |r: &PartitionResult| RunRecord {
        edge_cut: r.edge_cut,
        modeled_seconds: r.modeled_seconds(),
        imbalance: r.imbalance,
    };
    GraphResults {
        graph: pg,
        metis: rec(&metis),
        parmetis: rec(&par),
        mtmetis: rec(&mt),
        gpmetis: rec(&gp.result),
    }
}

/// Run the whole evaluation suite.
pub fn run_suite(cfg: &EvalConfig) -> Vec<GraphResults> {
    eprintln!("evaluation: k={} scale={:?} ({} runs each)", cfg.k, cfg.scale, cfg.runs);
    PaperGraph::ALL
        .iter()
        .map(|&pg| run_graph(pg, JobRequest::new(pg.generate(cfg.scale, cfg.seed), cfg.k), cfg))
        .collect()
}

/// Print Table I: the input graphs at `cfg.scale`, alongside the real
/// DIMACS sizes they stand in for.
pub fn print_table1(cfg: &EvalConfig) {
    println!("Table I — Input graphs (generated stand-ins at scale {:?})", cfg.scale);
    println!(
        "{:<12} {:>12} {:>12} {:>9} | {:>12} {:>12}  Description",
        "Graph", "Vertices", "Edges", "AvgDeg", "Paper |V|", "Paper |E|"
    );
    for pg in PaperGraph::ALL {
        let g = pg.generate(cfg.scale, cfg.seed);
        println!(
            "{:<12} {:>12} {:>12} {:>9.2} | {:>12} {:>12}  {}",
            pg.name(),
            g.n(),
            g.m(),
            g.avg_degree(),
            pg.paper_vertices(),
            pg.paper_edges(),
            pg.description(),
        );
    }
}

/// Print the suite's results: Fig. 5 (speedup over Metis), Table II
/// (modeled runtimes), Table III (edge-cut ratio to Metis) and every
/// partitioner's final imbalance, per graph.
pub fn print_results(results: &[GraphResults]) {
    println!("\nFig. 5 — Speedup of ParMetis, mt-metis, and GP-metis over Metis");
    println!("{:<12} {:>10} {:>10} {:>10}", "Graph", "ParMetis", "mt-metis", "GP-Metis");
    for r in results {
        println!(
            "{:<12} {:>9.2}x {:>9.2}x {:>9.2}x",
            r.graph.name(),
            r.speedup(&r.parmetis),
            r.speedup(&r.mtmetis),
            r.speedup(&r.gpmetis),
        );
    }
    println!("\nTable II — Runtime (modeled seconds on the paper's testbed)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "Graph", "Metis", "ParMetis", "mt-metis", "GP-Metis"
    );
    for r in results {
        println!(
            "{:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            r.graph.name(),
            r.metis.modeled_seconds,
            r.parmetis.modeled_seconds,
            r.mtmetis.modeled_seconds,
            r.gpmetis.modeled_seconds,
        );
    }
    println!("\nTable III — Edge-cut ratio in comparison to Metis");
    println!("{:<12} {:>10} {:>10} {:>10}", "Graph", "ParMetis", "mt-metis", "GP-Metis");
    for r in results {
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3}",
            r.graph.name(),
            r.cut_ratio(&r.parmetis),
            r.cut_ratio(&r.mtmetis),
            r.cut_ratio(&r.gpmetis),
        );
    }
    println!("\n(imbalance check)");
    for r in results {
        println!(
            "{:<12} Metis {:.3}  ParMetis {:.3}  mt-metis {:.3}  GP-Metis {:.3}",
            r.graph.name(),
            r.metis.imbalance,
            r.parmetis.imbalance,
            r.mtmetis.imbalance,
            r.gpmetis.imbalance,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parse of `args`, rendered so a test can compare it.
    fn parsed(args: &[&str]) -> Result<String, String> {
        parse_command(args).map(|c| match c {
            Command::Ablation(a, n) => format!("{} {n}", a.name),
            other => format!("{other:?}"),
        })
    }

    #[test]
    fn parse_command_accepts_each_form() {
        assert_eq!(parsed(&[]), Ok("Tables".into()));
        assert_eq!(parsed(&["table1"]), Ok("Table1".into()));
        assert_eq!(parsed(&["ablations"]), Ok("AllAblations".into()));
        assert_eq!(parsed(&["ablations", "k"]), Ok("k 60000".into()));
        assert_eq!(parsed(&["ablations", "match_rounds", "5000"]), Ok("match_rounds 5000".into()));
        for a in &ablations::ALL {
            assert_eq!(parsed(&["ablations", a.name]), Ok(format!("{} {}", a.name, a.n)));
        }
    }

    #[test]
    fn parse_command_rejects_everything_else() {
        let size = |v: &str| format!("ablation size: bad value {v:?} (expected an integer >= 1)");
        for v in ["6O000", "0", "-1", "1.5", "", "60_000"] {
            assert_eq!(parsed(&["ablations", "k", v]), Err(size(v)), "{v:?}");
        }
        let err = parsed(&["ablations", "coalesce"]).unwrap_err();
        assert!(err.starts_with(r#"unknown ablation "coalesce" (expected one of: coalescing, "#));
        assert_eq!(
            parsed(&["ablation"]),
            Err(r#"unknown subcommand "ablation" (expected table1 or ablations)"#.into())
        );
        assert!(parsed(&["--help"]).unwrap_err().starts_with("unknown subcommand"));
        let extra = Err(r#"unexpected argument "x""#.to_string());
        assert_eq!(parsed(&["table1", "x"]), extra);
        assert_eq!(parsed(&["ablations", "k", "100", "x"]), extra);
        // an unknown name is reported before a bad size
        assert!(parsed(&["ablations", "kk", "0"]).unwrap_err().starts_with("unknown ablation"));
    }

    #[test]
    fn eval_config_env_defaults() {
        // The paper's protocol: k = 64 on the request defaults, at small
        // scale and one run when neither variable is set.
        let c = EvalConfig::from_vars(None, None).unwrap();
        assert_eq!((c.k, c.runs, c.scale), (64, 1, SuiteScale::Small));
        let job = JobRequest::new(gpm_graph::csr::CsrGraph::empty(), c.k);
        assert_eq!((job.ub(), job.threads, job.ranks), (1.03, 8, 8));
    }

    #[test]
    fn eval_config_rejects_bad_scale() {
        let scale = |v| EvalConfig::from_vars(Some(v), None).map(|c| c.scale);
        assert_eq!(scale("tiny"), Ok(SuiteScale::Tiny));
        assert_eq!(scale("full"), Ok(SuiteScale::Full));
        assert_eq!(scale("0.02"), Ok(SuiteScale::Fraction(0.02)));
        assert_eq!(scale("1e-9"), Ok(SuiteScale::Fraction(1e-9)));
        assert_eq!(scale("smal"), Err(r#"GPM_SCALE: bad value "smal""#.to_string()));
        for v in ["", "Small", "0", "-0", "-1", "NaN", "inf", "0.02x"] {
            assert_eq!(scale(v), Err(format!("GPM_SCALE: bad value {v:?}")), "{v:?}");
        }
    }

    #[test]
    fn eval_config_rejects_bad_runs() {
        let runs = |v| EvalConfig::from_vars(None, Some(v)).map(|c| c.runs);
        assert_eq!(runs("1"), Ok(1));
        assert_eq!(runs("3"), Ok(3));
        assert_eq!(runs("0"), Err(r#"GPM_RUNS: bad value "0""#.to_string()));
        for v in ["", "-1", "1.5", "three"] {
            assert_eq!(runs(v), Err(format!("GPM_RUNS: bad value {v:?}")), "{v:?}");
        }
    }

    #[test]
    fn tiny_suite_runs_end_to_end() {
        let cfg = EvalConfig { k: 8, runs: 1, seed: 3, scale: SuiteScale::Fraction(0.002) };
        let pg = PaperGraph::Delaunay;
        let mut job = JobRequest::new(pg.generate(cfg.scale, cfg.seed), cfg.k);
        job.threads = 4;
        job.ranks = 4;
        let r = run_graph(pg, job, &cfg);
        assert!(r.metis.edge_cut > 0);
        assert!(r.speedup(&r.mtmetis) > 0.0);
        assert!(r.cut_ratio(&r.gpmetis) > 0.3 && r.cut_ratio(&r.gpmetis) < 3.0);
    }
}
