//! Result cache for the daemon, keyed by a graph fingerprint plus the
//! complete engine configuration. Two jobs collide in the cache only if
//! the graph bytes AND every knob that can influence the output (k,
//! balance, seed, algorithm, threads, ranks, GPU threshold, fallback,
//! fault plan) are identical — so a hit can be served byte-for-byte
//! without recomputation, including the telemetry of the original run.
//!
//! Eviction is least-recently-used over a bounded entry count. Entries
//! carry a logical tick updated on every hit; eviction removes the
//! minimum tick. That is O(capacity) per eviction, which is irrelevant
//! next to the cost of even the smallest partition job.

use crate::protocol::JobRequest;
use crate::protocol::JobTelemetry;
use gpm_graph::digest::{Fnv1a, OFFSET_BASIS};
use std::collections::HashMap;

/// 64-bit FNV-1a over little-endian words, each folded at its stored
/// width, starting from `seed` XOR the offset basis. Not cryptographic —
/// collisions only cost a recomputation miss, and the full key still
/// includes every scalar knob verbatim.
fn fnv1a_words<W: Copy + Into<u64>>(seed: u64, words: &[W]) -> u64 {
    let width = std::mem::size_of::<W>();
    let mut h = Fnv1a::from_state(seed ^ OFFSET_BASIS);
    for &w in words {
        h.bytes(&w.into().to_le_bytes()[..width]);
    }
    h.finish()
}

/// Structural fingerprint of a CSR graph: folds n, m and all four
/// arrays. Any single-bit difference in topology or weights yields a
/// different fingerprint with overwhelming probability.
pub fn graph_fingerprint(g: &gpm_graph::csr::CsrGraph) -> u64 {
    let mut h = fnv1a_words(g.n() as u64 ^ ((g.adjncy.len() as u64) << 32), &g.xadj);
    h = fnv1a_words(h, &g.adjncy);
    h = fnv1a_words(h, &g.adjwgt);
    fnv1a_words(h, &g.vwgt)
}

/// Identity of a job for the supervisor's poison list, compressed to one
/// word: the graph fingerprint folded with every knob that changes what
/// the job body executes (same domain as [`CacheKey`]). Two submissions
/// of the same pathological job hash to the same fingerprint, so the
/// second worker kill quarantines every future copy of it.
pub fn job_fingerprint(req: &JobRequest) -> u64 {
    let mut h = graph_fingerprint(&req.graph);
    h = fnv1a_words(h, &[req.k as u64, req.ub_bits, req.seed, req.algo.to_wire() as u64]);
    h = fnv1a_words(
        h,
        &[req.gpu_threshold as u64, req.threads as u64, req.ranks as u64, u64::from(req.fallback)],
    );
    fnv1a_words(h, req.fault_plan_str.as_bytes())
}

/// Full cache key: graph fingerprint plus every output-affecting knob.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub fingerprint: u64,
    pub k: u32,
    pub ub_bits: u64,
    pub seed: u64,
    pub algo: u32,
    pub gpu_threshold: u32,
    pub threads: u32,
    pub ranks: u32,
    pub fallback: bool,
    pub fault_plan: String,
}

impl CacheKey {
    /// Derive the key for a decoded job.
    pub fn for_job(req: &JobRequest) -> CacheKey {
        CacheKey {
            fingerprint: graph_fingerprint(&req.graph),
            k: req.k,
            ub_bits: req.ub_bits,
            seed: req.seed,
            algo: req.algo.to_wire(),
            gpu_threshold: req.gpu_threshold,
            threads: req.threads,
            ranks: req.ranks,
            fallback: req.fallback,
            fault_plan: req.fault_plan_str.clone(),
        }
    }
}

/// What a hit returns: the partition and the telemetry of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub part: Vec<u32>,
    pub telemetry: JobTelemetry,
}

/// Bounded LRU map from [`CacheKey`] to [`CacheEntry`].
pub struct ResultCache {
    map: HashMap<CacheKey, (u64, CacheEntry)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching entirely (every lookup is a miss, inserts are dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { map: HashMap::new(), capacity, tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((tick, entry)) => {
                *tick = self.tick;
                self.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a computed result, evicting the least-recently-used entry
    /// if at capacity.
    pub fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) =
                self.map.iter().min_by_key(|(_, (tick, _))| *tick).map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (self.tick, entry));
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen::grid2d;

    fn key(seed: u64) -> CacheKey {
        let mut req = JobRequest::new(grid2d(4, 4), 2);
        req.seed = seed;
        CacheKey::for_job(&req)
    }

    fn entry(cut: u64) -> CacheEntry {
        CacheEntry {
            part: vec![0, 1],
            telemetry: JobTelemetry { edge_cut: cut, ..JobTelemetry::default() },
        }
    }

    #[test]
    fn fingerprint_sensitive_to_every_array() {
        let g = grid2d(5, 5);
        let base = graph_fingerprint(&g);
        let mut g2 = g.clone();
        g2.vwgt[3] = 7;
        assert_ne!(base, graph_fingerprint(&g2));
        let mut g3 = g.clone();
        g3.adjwgt[0] += 1;
        assert_ne!(base, graph_fingerprint(&g3));
        assert_eq!(base, graph_fingerprint(&g.clone()));
    }

    /// Pinned literals of one fixed request: any change to how the
    /// fingerprints hash fails here.
    #[test]
    fn fingerprints_are_pinned() {
        let mut req = JobRequest::new(grid2d(10, 10), 4);
        req.seed = 7;
        req.fault_plan_str = "1:serve.job@0=panic".into();
        let got = (graph_fingerprint(&req.graph), job_fingerprint(&req));
        assert_eq!(got, (0x63eda3d6187dd38b, 0xf9fe1b7cc257945c), "now {:#018x?}", got);
    }

    #[test]
    fn job_fingerprint_separates_jobs_like_the_cache_key() {
        let g = grid2d(4, 4);
        let base = job_fingerprint(&JobRequest::new(g.clone(), 2));
        assert_eq!(base, job_fingerprint(&JobRequest::new(g.clone(), 2)), "stable");
        assert_ne!(base, job_fingerprint(&JobRequest::new(g.clone(), 4)));
        let mut req = JobRequest::new(g.clone(), 2);
        req.fault_plan_str = "1:serve.job@0=panic".into();
        assert_ne!(base, job_fingerprint(&req));
        let mut req = JobRequest::new(g, 2);
        req.seed = 99;
        assert_ne!(base, job_fingerprint(&req));
    }

    #[test]
    fn key_separates_configs_on_same_graph() {
        let g = grid2d(4, 4);
        let a = CacheKey::for_job(&JobRequest::new(g.clone(), 2));
        let b = CacheKey::for_job(&JobRequest::new(g.clone(), 4));
        assert_ne!(a, b);
        let mut req = JobRequest::new(g, 2);
        req.fault_plan_str = "7:gpu.launch@1=lost".into();
        assert_ne!(a, CacheKey::for_job(&req));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        let (ka, kb, kc) = (key(1), key(2), key(3));
        c.insert(ka.clone(), entry(10));
        c.insert(kb.clone(), entry(20));
        assert!(c.get(&ka).is_some(), "touch a so b becomes LRU");
        c.insert(kc.clone(), entry(30));
        assert_eq!(c.len(), 2);
        assert!(c.get(&kb).is_none(), "b was least recently used");
        assert!(c.get(&ka).is_some());
        assert!(c.get(&kc).is_some());
        let (hits, misses, evictions) = c.counters();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let mut c = ResultCache::new(2);
        let (ka, kb) = (key(1), key(2));
        c.insert(ka.clone(), entry(1));
        c.insert(kb.clone(), entry(2));
        c.insert(ka.clone(), entry(3)); // overwrite, not a third entry
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().2, 0, "no eviction on overwrite");
        assert_eq!(c.get(&ka).unwrap().telemetry.edge_cut, 3);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(key(1), entry(1));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }
}
