//! Dispatch latency of the persistent pool: handing a batch of tiny
//! chunks to the warmed global pool must take at most half as long as
//! spawning and joining a fresh `std::thread::scope` team for the same
//! work, which is what every parallel phase did before the pool. Both
//! sides are timed in this process, so the scoped team is the reference
//! on whatever host runs the test.

use gpm_pool::chunk_range;
use std::hint::black_box;
use std::time::Instant;

const THREADS: usize = 8;
const RUNS: usize = 15;

/// Touch a tiny slice per chunk, like a phase on a near-coarsest graph
/// where dispatch overhead dominates the work.
fn tiny_chunk_work(data: &[u64], t: usize) -> u64 {
    let (lo, hi) = chunk_range(data.len(), THREADS, t);
    data[lo..hi].iter().sum()
}

/// Median wall time of `RUNS` calls of `f`, each checked against `want`.
fn median_ns(want: u64, mut f: impl FnMut() -> u64) -> u128 {
    let mut times: Vec<u128> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let got = black_box(f());
            let ns = t0.elapsed().as_nanos();
            assert_eq!(got, want);
            ns
        })
        .collect();
    times.sort_unstable();
    times[RUNS / 2]
}

#[test]
fn pool_dispatch_beats_a_fresh_scoped_team_by_2x() {
    let data: Vec<u64> = (0..4096).collect();
    let want: u64 = data.iter().sum();
    // spawn the pool's workers before timing, so no timed dispatch pays
    // for them
    gpm_pool::global();

    let scope = median_ns(want, || {
        let data = &data;
        std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..THREADS).map(|t| s.spawn(move || tiny_chunk_work(data, t))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    });
    let pool = median_ns(want, || {
        gpm_pool::parallel_chunks(THREADS, |t| tiny_chunk_work(&data, t)).into_iter().sum()
    });

    eprintln!("dispatch at {THREADS} threads, median of {RUNS}: scope {scope} ns, pool {pool} ns");
    assert!(
        scope >= 2 * pool,
        "pool dispatch ({pool} ns) must beat a scoped team ({scope} ns) by 2x"
    );
}
