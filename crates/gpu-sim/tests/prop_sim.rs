//! Property tests of the GPU simulator: primitives agree with host
//! references for arbitrary inputs, and the accounting invariants hold.
//! (Runs on the in-repo `gpm-testkit` harness.)

use gpm_gpu_sim::{
    exclusive_scan_u32, inclusive_scan_u32, reduce_max_u32, reduce_sum_u32, DBuf, Device, GpuConfig,
};
use gpm_testkit::{check, tk_assert, tk_assert_eq};
use std::collections::BTreeSet;

fn dev() -> Device {
    Device::new(GpuConfig::gtx_titan())
}

#[test]
fn inclusive_scan_matches_host() {
    check("inclusive_scan_matches_host", 32, |src| {
        let data = src.vec_of(0, 2000, |s| s.u32_in(0, 1000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let total = inclusive_scan_u32(&d, &buf).unwrap();
        let mut acc = 0u32;
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect();
        tk_assert_eq!(buf.to_vec(), expect);
        tk_assert_eq!(total, acc);
        Ok(())
    });
}

#[test]
fn exclusive_scan_matches_host() {
    check("exclusive_scan_matches_host", 32, |src| {
        let data = src.vec_of(0, 2000, |s| s.u32_in(0, 1000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let total = exclusive_scan_u32(&d, &buf).unwrap();
        let mut acc = 0u32;
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| {
                let prev = acc;
                acc = acc.wrapping_add(x);
                prev
            })
            .collect();
        tk_assert_eq!(buf.to_vec(), expect);
        tk_assert_eq!(total, acc);
        Ok(())
    });
}

#[test]
fn reduce_matches_host() {
    check("reduce_matches_host", 32, |src| {
        let data = src.vec_of(0, 3000, |s| s.u32_in(0, 10_000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let sum: u32 = data.iter().copied().fold(0u32, u32::wrapping_add);
        tk_assert_eq!(reduce_sum_u32(&d, &buf).unwrap(), sum);
        tk_assert_eq!(reduce_max_u32(&d, &buf).unwrap(), data.iter().copied().max().unwrap_or(0));
        Ok(())
    });
}

#[test]
fn kernel_touches_every_element() {
    check("kernel_touches_every_element", 32, |src| {
        let n = src.usize_in(1, 5000);
        let d = dev();
        let buf = d.alloc::<u32>(n).unwrap();
        let stats = d
            .launch("fill", n, |lane| {
                lane.st(&buf, lane.tid, lane.tid as u32 ^ 0xABCD);
            })
            .unwrap();
        for i in 0..n {
            tk_assert_eq!(buf.load(i), i as u32 ^ 0xABCD);
        }
        // accounting invariants
        tk_assert!(stats.transactions <= stats.accesses);
        tk_assert!(stats.lane_instr <= stats.warp_instr * 32);
        let dv = stats.divergence();
        tk_assert!((0.0..=1.0).contains(&dv));
        tk_assert!(stats.seconds >= d.config().kernel_launch_overhead);
        Ok(())
    });
}

#[test]
fn atomic_counter_exact_under_racing() {
    check("atomic_counter_exact_under_racing", 32, |src| {
        let n = src.usize_in(1, 20_000);
        let d = dev();
        let counter = d.alloc::<u32>(1).unwrap();
        d.launch("count", n, |lane| {
            lane.atomic_add(&counter, 0, 1);
        })
        .unwrap();
        tk_assert_eq!(counter.load(0) as usize, n);
        Ok(())
    });
}

/// Words per 128-byte memory segment.
const SEG_WORDS: usize = 32;

/// Naive reference for a launch's memory accounting, given each lane's
/// accessed segment ids. Each lane's accesses pass its 4-entry locality
/// ring; the survivors fill its trace up to `trace_cap` and the rest are
/// charged one transaction each. A warp's transactions are, per lockstep
/// position, the size of a `BTreeSet` of the lanes' segments there.
/// Returns `(transactions, accesses)`.
fn reference_counts(lanes: &[Vec<usize>], ws: usize, trace_cap: usize) -> (u64, u64) {
    let (mut txns, mut accesses) = (0u64, 0u64);
    for warp in lanes.chunks(ws) {
        let mut traces = Vec::new();
        for segs in warp {
            let (mut ring, mut next) = ([usize::MAX; 4], 0);
            let mut trace = Vec::new();
            for &s in segs {
                if ring.contains(&s) {
                    continue;
                }
                ring[next] = s;
                next = (next + 1) % 4;
                if trace.len() < trace_cap {
                    trace.push(s);
                } else {
                    txns += 1;
                    accesses += 1;
                }
            }
            accesses += trace.len() as u64;
            traces.push(trace);
        }
        let maxlen = traces.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..maxlen {
            let at_k: BTreeSet<usize> = traces.iter().filter_map(|t| t.get(k).copied()).collect();
            txns += at_k.len() as u64;
        }
    }
    (txns, accesses)
}

/// The replay that counts coalesced transactions must agree exactly with
/// the naive per-position reference on random ragged warp traces: small
/// segment-id spaces (heavy sharing, both between adjacent lanes and
/// scattered) and large ones (nearly all distinct), lanes overflowing a
/// small `trace_cap`, warp sizes 32 to 128, and launches of hundreds of
/// short warps spread over the host workers.
#[test]
fn replay_counts_match_naive_reference() {
    check("replay_counts_match_naive_reference", 48, |src| {
        let ws = *src.choose(&[32usize, 64, 128]);
        let id_space = *src.choose(&[8usize, 1 << 14]);
        let max_len = *src.choose(&[3usize, 40, 300]);
        let trace_cap = if src.chance(0.3) { src.usize_in(1, 16) } else { 4096 };
        let n_warps = if max_len == 3 { src.usize_in(1, 600) } else { src.usize_in(1, 12) };
        let n_threads = n_warps * ws - src.usize_in(0, ws);
        let d = Device::new(GpuConfig { warp_size: ws, trace_cap, ..GpuConfig::gtx_titan() });
        let buf = d.alloc::<u32>(id_space * SEG_WORDS).unwrap();
        let lanes = random_lanes(src, n_threads, max_len, id_space);
        check_launch(&d, &buf, &lanes, src)
    });
}

/// Each lane's accessed segment ids, with random ragged lengths.
fn random_lanes(
    src: &mut gpm_testkit::Source,
    n_threads: usize,
    max_len: usize,
    id_space: usize,
) -> Vec<Vec<usize>> {
    (0..n_threads)
        .map(|_| {
            let len = src.usize_in(0, max_len + 1);
            (0..len).map(|_| src.usize_in(0, id_space)).collect()
        })
        .collect()
}

/// Launch one lane per entry of `lanes`, each loading a random word of
/// each of its segments of `buf` in order, and compare the launch's
/// counts with [`reference_counts`].
fn check_launch(
    d: &Device,
    buf: &DBuf<u32>,
    lanes: &[Vec<usize>],
    src: &mut gpm_testkit::Source,
) -> gpm_testkit::PropResult {
    let (ws, cap) = (d.config().warp_size, d.config().trace_cap);
    // Any word of a segment maps to that segment.
    let words: Vec<Vec<usize>> = lanes
        .iter()
        .map(|l| l.iter().map(|&s| s * SEG_WORDS + src.usize_in(0, SEG_WORDS)).collect())
        .collect();
    let stats = d
        .launch("replay", lanes.len(), |lane| {
            for &w in &words[lane.tid] {
                let _ = lane.ld(buf, w);
            }
        })
        .unwrap();
    let (txns, accesses) = reference_counts(lanes, ws, cap);
    let ids = buf.len() / SEG_WORDS;
    tk_assert_eq!(stats.transactions, txns, "ws={ws} ids={ids} cap={cap}");
    tk_assert_eq!(stats.accesses, accesses, "ws={ws} ids={ids} cap={cap}");
    Ok(())
}

/// The replay table is reused from warp to warp and emptied by an 8-bit
/// generation stamp, which wraps every 255 warps. A launch of at most 8
/// warps runs on the calling thread, so this test can place a warp `A`
/// exactly a multiple of 255 warps after its previous run, separated by
/// one-access warps that leave most of `A`'s table slots untouched: a
/// wrap that failed to empty the table would find `A`'s stale entries
/// under a current stamp and undercount.
#[test]
fn replay_counts_survive_generation_wraparound() {
    check("replay_counts_survive_generation_wraparound", 12, |src| {
        let d = dev();
        let buf = d.alloc::<u32>(16 * SEG_WORDS).unwrap();
        let n_threads = src.usize_in(1, 8 * d.config().warp_size);
        let a = random_lanes(src, n_threads, 6, 16);
        let gap = src.usize_in(1, 4) * 255 - 1;
        check_launch(&d, &buf, &a, src)?;
        for _ in 0..gap {
            check_launch(&d, &buf, &[vec![0]], src)?;
        }
        check_launch(&d, &buf, &a, src)
    });
}
