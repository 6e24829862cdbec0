//! Benchmarks of the persistent work-stealing executor (ISSUE PR 2):
//! dispatch latency against the per-phase `thread::scope` baseline it
//! replaced, the hand-off latency of the small batches a served job
//! launches, edge-balanced vs static chunking on skewed graphs, the
//! pooled mtmetis phases, and an end-to-end guard. Writes
//! `BENCH_pool.json`.
//!
//! The acceptance criterion lives in `dispatch/*`, and the bench asserts
//! it: at 8 logical threads and tiny scale, `dispatch/pool` median must
//! beat `dispatch/scope` by >= 2x — the pool skips per-phase thread
//! spawn/join entirely.

use gpm_graph::gen::{delaunay_like, rmat};
use gpm_graph::rng::SplitMix64;
use gpm_mtmetis::pmatch::parallel_matching;
use gpm_mtmetis::prefine::parallel_refine;
use gpm_mtmetis::util::{chunk_range, chunks_by_edges};
use gpm_mtmetis::{partition, MtMetisConfig};
use gpm_testkit::bench::{black_box, scaled, BenchSuite};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

/// The dispatch workload: touch a tiny slice per worker, like a phase on
/// a near-coarsest graph where dispatch overhead dominates the work.
fn tiny_chunk_work(data: &[u64], t: usize) -> u64 {
    let (lo, hi) = chunk_range(data.len(), THREADS, t);
    data[lo..hi].iter().sum()
}

fn bench_dispatch(b: &mut BenchSuite) {
    let data: Vec<u64> = (0..4096u64).collect();
    // spawn the pool's workers before timing, so the first timed
    // dispatch does not pay for them
    gpm_pool::global();
    // baseline: what every phase did before this PR — spawn a fresh
    // scoped team per dispatch
    let scope = b
        .run(&format!("dispatch/scope/{THREADS}"), || {
            let data = &data;
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..THREADS).map(|t| s.spawn(move || tiny_chunk_work(data, t))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        })
        .median_ns;
    let pool = b
        .run(&format!("dispatch/pool/{THREADS}"), || {
            gpm_pool::parallel_chunks(THREADS, |t| tiny_chunk_work(&data, t))
                .into_iter()
                .sum::<u64>()
        })
        .median_ns;
    assert!(
        scope >= 2 * pool,
        "dispatch/pool ({pool} ns) must beat dispatch/scope ({scope} ns) by 2x"
    );
}

/// Busy-wait for `us` microseconds and return the spin count.
fn busy(us: u64) -> u64 {
    let t0 = Instant::now();
    let mut spins = 0u64;
    while t0.elapsed() < Duration::from_micros(us) {
        spins += 1;
        std::hint::spin_loop();
    }
    spins
}

fn bench_launch(b: &mut BenchSuite) {
    // The serve launch shape: a served job's kernels on small levels
    // deal a few warp groups of a few µs each, so the hand-off to the
    // workers, not the work, sets the batch time. `serial` runs the same
    // chunks inline: the bar the pool must beat.
    for us in [5u64, 20] {
        b.run(&format!("launch/serial/4x{us}us"), || (0..4).map(|_| busy(us)).sum::<u64>());
        b.run(&format!("launch/pool/4x{us}us"), || {
            gpm_pool::parallel_chunks(4, |_| busy(us)).into_iter().sum::<u64>()
        });
    }
}

fn bench_chunking(b: &mut BenchSuite) {
    // skewed graph: a handful of hub vertices own most of the adjacency,
    // so the static equal-vertex split serializes behind one chunk while
    // edge-balanced chunks can be stolen around the hubs
    let skewed = rmat(10, 8, 3);
    let uniform = delaunay_like(scaled(10_000), 4);
    for (label, g) in [("skewed", &skewed), ("uniform", &uniform)] {
        b.run(&format!("chunking/static/{label}"), || {
            gpm_pool::parallel_chunks(THREADS, |t| {
                let (lo, hi) = chunk_range(g.n(), THREADS, t);
                let mut acc = 0u64;
                for u in lo..hi {
                    for (v, w) in g.edges(u as u32) {
                        acc += (v as u64) ^ (w as u64);
                    }
                }
                acc
            })
        });
        b.run(&format!("chunking/edges/{label}"), || {
            let chunks = chunks_by_edges(g, THREADS);
            gpm_pool::parallel_chunks(chunks.len(), |c| {
                let (lo, hi) = chunks[c];
                let mut acc = 0u64;
                for u in lo..hi {
                    for (v, w) in g.edges(u as u32) {
                        acc += (v as u64) ^ (w as u64);
                    }
                }
                acc
            })
        });
    }
}

fn bench_phases(b: &mut BenchSuite) {
    for (label, g) in [("delaunay", delaunay_like(scaled(20_000), 6)), ("rmat", rmat(10, 8, 3))] {
        b.run(&format!("pmatch/{label}/{THREADS}"), || {
            parallel_matching(&g, THREADS, u32::MAX, 13)
        });
        let mut rng = SplitMix64::new(5);
        let part0: Vec<u32> = (0..g.n()).map(|_| rng.below(8) as u32).collect();
        b.run(&format!("prefine/{label}/{THREADS}"), || {
            let mut part = part0.clone();
            parallel_refine(&g, &mut part, 8, 1.05, 4, THREADS)
        });
    }
}

fn bench_end_to_end(b: &mut BenchSuite) {
    // guard: the pooled partitioner's wall time on a mid-size mesh; a
    // regression here means the executor added overhead to real phases
    let g = delaunay_like(scaled(30_000), 2);
    let cfg = MtMetisConfig::new(8).with_threads(THREADS).with_seed(3);
    b.run("mtmetis_e2e/delaunay", || black_box(partition(&g, &cfg)).edge_cut);
}

fn main() {
    let mut b = BenchSuite::new("pool");
    bench_dispatch(&mut b);
    bench_launch(&mut b);
    bench_chunking(&mut b);
    bench_phases(&mut b);
    bench_end_to_end(&mut b);
    b.finish();
}
