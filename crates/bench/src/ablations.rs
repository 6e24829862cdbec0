//! The ablations: design choices the paper argues in prose, each a
//! function of the graph size `n` that prints one table. [`ALL`] lists
//! them in the order of the committed `ablations.txt`.

use gp_metis::gpu_graph::{Distribution, GpuCsr};
use gp_metis::kernels::matching::gpu_matching;
use gp_metis::{partition, ContractStrategy, GpMetisConfig};
use gpm_gpu_sim::{Device, GpuConfig};
use gpm_graph::analysis::{bfs_order, shuffle_labels};
use gpm_graph::gen::{delaunay_like, ldoor_like, usa_roads_like};

/// One ablation: its name in `evaluation ablations <name>`, the
/// `===HEADER===` line before its section of `ablations.txt` (the first
/// and the mode section have none), its default size `n`, and the
/// function that prints its table at a size.
#[derive(Debug)]
pub struct Ablation {
    pub name: &'static str,
    pub header: Option<&'static str>,
    pub n: usize,
    pub run: fn(usize),
}

/// Every ablation, in the order of `ablations.txt`.
pub static ALL: [Ablation; 8] = [
    Ablation { name: "coalescing", header: None, n: 200_000, run: coalescing },
    Ablation { name: "contraction", header: Some("CONTRACTION"), n: 100_000, run: contraction },
    Ablation { name: "threshold", header: Some("THRESHOLD"), n: 200_000, run: threshold },
    Ablation { name: "match_rounds", header: Some("ROUNDS"), n: 100_000, run: match_rounds },
    Ablation { name: "scaling", header: Some("SCALING"), n: 100_000, run: scaling },
    Ablation { name: "locality", header: Some("LOCALITY"), n: 100_000, run: locality },
    Ablation { name: "mode", header: None, n: 60_000, run: mode },
    Ablation { name: "k", header: Some("K"), n: 60_000, run: k },
];

/// Every ablation at its default size, each section after its header:
/// the committed `ablations.txt`.
pub fn run_all() {
    for a in &ALL {
        if let Some(header) = a.header {
            println!("==={header}===");
        }
        (a.run)(a.n);
    }
}

/// Fig. 2: the GPU matching kernels' transactions, coalescing and modeled
/// time with the paper's warp-contiguous (cyclic) vertex assignment
/// versus a blocked one.
pub fn coalescing(n: usize) {
    let g = delaunay_like(n, 7);
    println!("matching kernels on {:?}\n", g);
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "assign", "transactions", "accesses", "coalescing", "kernel time"
    );
    for (name, dist) in [("cyclic", Distribution::Cyclic), ("blocked", Distribution::Blocked)] {
        let dev = Device::new(GpuConfig::gtx_titan());
        let gg = GpuCsr::upload(&dev, &g).unwrap();
        gpu_matching(&dev, &gg, u32::MAX, 4, true, 42, dist, 1 << 15).unwrap();
        let log = dev.kernel_log();
        let txns: u64 = log.iter().map(|k| k.transactions).sum();
        let acc: u64 = log.iter().map(|k| k.accesses).sum();
        let secs: f64 = log.iter().map(|k| k.seconds).sum();
        println!(
            "{:<10} {:>14} {:>14} {:>11.2}x {:>11.5}s",
            name,
            txns,
            acc,
            acc as f64 / txns as f64,
            secs
        );
    }
    println!("\n(cyclic assignment = Fig. 2's coalesced pattern: adjacent lanes read");
    println!(" adjacent xadj/vwgt entries, one 128 B transaction per warp)");
}

/// §III.A: modeled contraction-kernel time of sort + dedup versus the
/// hash table ("the hash table approach is faster than the sorting") on
/// each evaluation graph family.
pub fn contraction(n: usize) {
    println!("{:<14} {:>14} {:>14} {:>10}", "graph", "sort-merge", "hash-table", "hash wins");
    let graphs: Vec<(&str, gpm_graph::CsrGraph)> = vec![
        ("ldoor-like", ldoor_like(n / 4)),
        ("delaunay-like", delaunay_like(n, 1)),
        ("roads-like", usa_roads_like(n, 1)),
    ];
    for (name, g) in &graphs {
        let mut times = Vec::new();
        for strategy in [ContractStrategy::SortMerge, ContractStrategy::Hash] {
            let mut cfg = GpMetisConfig::new(64).with_seed(2);
            cfg.merge = strategy;
            let r = partition(g, &cfg).unwrap();
            // contraction cost = total of the contraction kernels
            let t: f64 = r
                .gpu
                .kernel_log
                .iter()
                .filter(|k| k.name.starts_with("gp:contract"))
                .map(|k| k.seconds)
                .sum();
            times.push(t);
        }
        println!(
            "{:<14} {:>13.5}s {:>13.5}s {:>9.2}x",
            name,
            times[0],
            times[1],
            times[0] / times[1]
        );
    }
}

/// §III: sweeps the level size at which GP-metis hands the graph to the
/// CPU; the minimum of the modeled total is the paper's "last level in
/// which coarsening executes faster on the GPU than the CPU".
pub fn threshold(n: usize) {
    let g = delaunay_like(n, 3);
    println!("GP-metis on {:?}, k = 64\n", g);
    println!(
        "{:<12} {:>6} {:>6} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "threshold", "gpuL", "cpuL", "total (s)", "gpu (s)", "cpu (s)", "xfer (s)", "cut"
    );
    for threshold in [500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, n + 1] {
        let cfg = GpMetisConfig::new(64).with_seed(4).with_gpu_threshold(threshold);
        let r = partition(&g, &cfg).unwrap();
        let cpu: f64 = r.result.ledger.total_for("cpu:");
        println!(
            "{:<12} {:>6} {:>6} {:>11.5} {:>11.5} {:>11.5} {:>11.5} {:>9}",
            threshold,
            r.gpu.gpu_levels,
            r.gpu.cpu_levels,
            r.result.modeled_seconds(),
            r.gpu.gpu_seconds,
            cpu,
            r.gpu.transfer_seconds,
            r.result.edge_cut,
        );
    }
}

/// Fig. 3: with one match/resolve round per level (the paper's kernels)
/// conflict losers wait for the next *level*; with more rounds they retry
/// within the level.
pub fn match_rounds(n: usize) {
    let g = delaunay_like(n, 9);
    println!("GP-metis on {:?}, k = 64\n", g);
    println!(
        "{:<8} {:>10} {:>7} {:>7} {:>12} {:>9}",
        "rounds", "conflicts", "gpuL", "cpuL", "total (s)", "cut"
    );
    for rounds in [1usize, 2, 4, 8] {
        let mut cfg = GpMetisConfig::new(64).with_seed(5);
        cfg.match_rounds = rounds;
        let r = partition(&g, &cfg).unwrap();
        println!(
            "{:<8} {:>10} {:>7} {:>7} {:>12.5} {:>9}",
            rounds,
            r.gpu.match_conflicts,
            r.gpu.gpu_levels,
            r.gpu.cpu_levels,
            r.result.modeled_seconds(),
            r.result.edge_cut,
        );
    }
}

/// Strong scaling of mt-metis (threads) and ParMetis (ranks) over serial
/// Metis: the context of the paper's fixed 8-core comparison.
pub fn scaling(n: usize) {
    let g = delaunay_like(n, 6);
    let k = 64;
    let serial = gpm_metis::partition(&g, &gpm_metis::MetisConfig::new(k).with_seed(1));
    println!("{:?}, k = {k}; Metis baseline {:.4}s\n", g, serial.modeled_seconds());
    println!("{:<8} {:>12} {:>12}", "cores", "mt-metis", "ParMetis");
    for p in [1usize, 2, 4, 8, 16] {
        let mt = gpm_mtmetis::partition(
            &g,
            &gpm_mtmetis::MtMetisConfig::new(k).with_threads(p).with_seed(1),
        );
        let par = gpm_parmetis::partition(
            &g,
            &gpm_parmetis::ParMetisConfig::new(k).with_ranks(p).with_seed(1),
        );
        println!(
            "{:<8} {:>11.2}x {:>11.2}x",
            p,
            serial.modeled_seconds() / mt.modeled_seconds(),
            serial.modeled_seconds() / par.modeled_seconds(),
        );
    }
}

/// Locality, the flip side of the coalescing argument: natural versus
/// randomly relabeled versus BFS-relabeled vertex numbering, which decides
/// how well block distributions and warp-contiguous assignment fit.
pub fn locality(n: usize) {
    let k = 64;
    let natural = delaunay_like(n, 8);
    let (shuffled, _) = shuffle_labels(&natural, 99);
    let (restored, _) = bfs_order(&shuffled);
    println!("delaunay-like n={} m={}, k={k}\n", natural.n(), natural.m());
    println!("{:<12} {:>12} {:>12} {:>12}", "ordering", "ParMetis", "GP-Metis", "mt-metis");
    for (name, g) in [("natural", &natural), ("shuffled", &shuffled), ("bfs", &restored)] {
        let par = gpm_parmetis::partition(g, &gpm_parmetis::ParMetisConfig::new(k).with_seed(1));
        let gp = gp_metis::partition(g, &gp_metis::GpMetisConfig::new(k).with_seed(1)).unwrap();
        let mt = gpm_mtmetis::partition(g, &gpm_mtmetis::MtMetisConfig::new(k).with_seed(1));
        println!(
            "{:<12} {:>11.4}s {:>11.4}s {:>11.4}s",
            name,
            par.modeled_seconds(),
            gp.result.modeled_seconds(),
            mt.modeled_seconds(),
        );
    }
}

/// kmetis (the paper's pipeline: bisect the coarsest graph, refine k-way)
/// versus pmetis (pure multilevel recursive bisection): cut and time.
pub fn mode(n: usize) {
    use gpm_metis::{partition, pmetis::partition_rb, MetisConfig};
    let k = 64;
    println!(
        "{:<14} {:>12} {:>12} {:>11} {:>11}",
        "graph", "kmetis cut", "pmetis cut", "kmetis (s)", "pmetis (s)"
    );
    let graphs: Vec<(&str, gpm_graph::CsrGraph)> = vec![
        ("ldoor-like", ldoor_like(n / 4)),
        ("delaunay-like", delaunay_like(n, 1)),
        ("roads-like", usa_roads_like(n, 1)),
    ];
    for (name, g) in &graphs {
        let kway = partition(g, &MetisConfig::new(k).with_seed(2));
        let rb = partition_rb(g, &MetisConfig::new(k).with_seed(2));
        println!(
            "{:<14} {:>12} {:>12} {:>11.4} {:>11.4}",
            name,
            kway.edge_cut,
            rb.edge_cut,
            kway.modeled_seconds(),
            rb.modeled_seconds(),
        );
    }
}

/// Cut and modeled time of all four partitioners versus k, around the
/// paper's fixed k = 64.
pub fn k(n: usize) {
    let g = delaunay_like(n, 4);
    println!("{:?}\n", g);
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} | {:>9} {:>9} {:>9} {:>9}",
        "k", "Metis", "ParMetis", "mt-metis", "GP-Metis", "t(Metis)", "t(Par)", "t(mt)", "t(GP)"
    );
    for k in [2usize, 8, 16, 64, 128] {
        let m = gpm_metis::partition(&g, &gpm_metis::MetisConfig::new(k).with_seed(1));
        let p = gpm_parmetis::partition(&g, &gpm_parmetis::ParMetisConfig::new(k).with_seed(1));
        let t = gpm_mtmetis::partition(&g, &gpm_mtmetis::MtMetisConfig::new(k).with_seed(1));
        let h = gp_metis::partition(&g, &gp_metis::GpMetisConfig::new(k).with_seed(1)).unwrap();
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10} | {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            k,
            m.edge_cut,
            p.edge_cut,
            t.edge_cut,
            h.result.edge_cut,
            m.modeled_seconds(),
            p.modeled_seconds(),
            t.modeled_seconds(),
            h.result.modeled_seconds(),
        );
    }
}
