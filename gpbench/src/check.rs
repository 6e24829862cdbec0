//! The answer checker. Every operation the benchmark times is checked
//! here, with loops of its own rather than `gpm_graph::metrics`: labels
//! below `k`, the recomputed cut equal to the reported cut, balance within
//! [`IMBALANCE_TOL`], modeled seconds finite, and the overlap makespan no
//! longer than the serialized total.

use gpm_graph::csr::CsrGraph;

/// Largest accepted `max part weight / average part weight`. The runs ask
/// for 1.03; coarse-level granularity may leave a part slightly heavier.
pub const IMBALANCE_TOL: f64 = 1.10;

/// Failed and attempted operations, the worst balance seen, and the first
/// few failure messages.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub imbalance_max: f64,
    pub errors: Vec<String>,
}

/// Edge cut of `part` on `g`: every cut edge is seen from both ends.
pub fn edge_cut(g: &CsrGraph, part: &[u32]) -> u64 {
    let mut twice = 0u64;
    for u in 0..g.n() {
        for (v, w) in g.edges(u as _) {
            if part[u] != part[v as usize] {
                twice += w as u64;
            }
        }
    }
    twice / 2
}

/// `max part weight / (total weight / k)`.
pub fn imbalance(g: &CsrGraph, part: &[u32], k: usize) -> f64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p as usize] += g.vwgt[u] as u64;
    }
    let total: u64 = w.iter().sum();
    let max = w.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * k as f64 / total as f64
    }
}

impl Checker {
    /// Count one operation; `problems` lists what went wrong with it.
    pub fn record(&mut self, what: &str, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        for p in problems {
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {p}"));
            }
        }
        false
    }

    /// Problems with one partition answer (empty when it is correct).
    pub fn partition(
        &mut self,
        g: &CsrGraph,
        part: &[u32],
        k: usize,
        reported_cut: u64,
        modeled_s: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if part.len() != g.n() {
            out.push(format!("{} labels for {} vertices", part.len(), g.n()));
            return out;
        }
        if let Some((v, p)) = part.iter().enumerate().find(|(_, &p)| p as usize >= k) {
            out.push(format!("vertex {v} has label {p}, k = {k}"));
            return out;
        }
        let cut = edge_cut(g, part);
        if cut != reported_cut {
            out.push(format!("reported cut {reported_cut}, recomputed {cut}"));
        }
        let imb = imbalance(g, part, k);
        self.imbalance_max = self.imbalance_max.max(imb);
        if imb > IMBALANCE_TOL {
            out.push(format!("imbalance {imb:.4} above {IMBALANCE_TOL}"));
        }
        if !modeled_s.is_finite() || modeled_s < 0.0 {
            out.push(format!("modeled seconds {modeled_s}"));
        }
        out
    }
}

/// Problems with an overlap report: makespan above the serialized total.
pub fn overlap(makespan: f64, serialized: f64) -> Vec<String> {
    // Op durations tile the serialized ledger up to summation order.
    if makespan.is_finite() && makespan <= serialized * (1.0 + 1e-9) {
        Vec::new()
    } else {
        vec![format!("makespan {makespan} above serialized {serialized}")]
    }
}
