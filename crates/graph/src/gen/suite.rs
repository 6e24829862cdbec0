//! The paper's four-graph evaluation suite (Table I), at configurable
//! scale.
//!
//! The real inputs are `ldoor` (952 K vertices / 22.8 M edges),
//! `delaunay_n20` (1.05 M / 3.1 M), `hugebubbles` (21.2 M / 31.8 M) and
//! USA roads (23.9 M / 28.9 M). The suite preserves the *ratios* between
//! the four graphs — hugebubbles and USA roads are ~20x larger in vertex
//! count than ldoor/delaunay, which is exactly what drives the paper's
//! "GP-metis wins on the larger graphs" crossover — while letting the
//! absolute scale be set to fit the machine.

use crate::csr::CsrGraph;
use crate::gen::{delaunay_like, hugebubbles_like, ldoor_like, usa_roads_like};

/// Identifies one of the paper's four evaluation graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperGraph {
    Ldoor,
    Delaunay,
    Hugebubbles,
    UsaRoads,
}

impl PaperGraph {
    /// All four, in the paper's Table I order.
    pub const ALL: [PaperGraph; 4] =
        [PaperGraph::Ldoor, PaperGraph::Delaunay, PaperGraph::Hugebubbles, PaperGraph::UsaRoads];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            PaperGraph::Ldoor => "ldoor",
            PaperGraph::Delaunay => "Delaunay",
            PaperGraph::Hugebubbles => "Hugebubble",
            PaperGraph::UsaRoads => "USA Roads",
        }
    }

    /// Table I description.
    pub fn description(self) -> &'static str {
        match self {
            PaperGraph::Ldoor => "Sparse matrix (FEM brick stand-in)",
            PaperGraph::Delaunay => "Delaunay triangulation of random points",
            PaperGraph::Hugebubbles => "2D dynamic simulation mesh",
            PaperGraph::UsaRoads => "Road network",
        }
    }

    /// Vertex count of the real DIMACS graph — used to derive scaled sizes.
    pub fn paper_vertices(self) -> usize {
        match self {
            PaperGraph::Ldoor => 952_203,
            PaperGraph::Delaunay => 1_048_576,
            PaperGraph::Hugebubbles => 21_198_119,
            PaperGraph::UsaRoads => 23_947_347,
        }
    }

    /// Edge count of the real DIMACS graph.
    pub fn paper_edges(self) -> usize {
        match self {
            PaperGraph::Ldoor => 22_785_136,
            PaperGraph::Delaunay => 3_145_686,
            PaperGraph::Hugebubbles => 31_790_179,
            PaperGraph::UsaRoads => 28_947_347,
        }
    }

    /// Generate the stand-in graph at `scale` (fraction of the real vertex
    /// count).
    pub fn generate(self, scale: SuiteScale, seed: u64) -> CsrGraph {
        let n = ((self.paper_vertices() as f64) * scale.fraction()).round() as usize;
        let n = n.max(1_000);
        match self {
            PaperGraph::Ldoor => ldoor_like(n),
            PaperGraph::Delaunay => delaunay_like(n, seed),
            PaperGraph::Hugebubbles => hugebubbles_like(n),
            PaperGraph::UsaRoads => usa_roads_like(n, seed),
        }
    }
}

/// How much of the real graph size to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuiteScale {
    /// ~1/100 of the paper sizes — seconds per partition; used by tests.
    Tiny,
    /// ~1/20 of the paper sizes — `evaluation`'s default.
    Small,
    /// ~1/5 of the paper sizes.
    Medium,
    /// Full paper sizes: the whole evaluation took 378 s and peaked at
    /// 4.9 GB RSS on a 2-vCPU VM.
    Full,
    /// Arbitrary fraction.
    Fraction(f64),
}

impl SuiteScale {
    /// The fraction of the real vertex count this scale generates.
    pub fn fraction(self) -> f64 {
        match self {
            SuiteScale::Tiny => 0.01,
            SuiteScale::Small => 0.05,
            SuiteScale::Medium => 0.2,
            SuiteScale::Full => 1.0,
            SuiteScale::Fraction(f) => f,
        }
    }
}

/// Generate all four suite graphs.
pub fn paper_suite(scale: SuiteScale, seed: u64) -> Vec<(PaperGraph, CsrGraph)> {
    PaperGraph::ALL.iter().map(|&pg| (pg, pg.generate(scale, seed))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_ratios_preserved() {
        let suite = paper_suite(SuiteScale::Tiny, 42);
        assert_eq!(suite.len(), 4);
        let n: Vec<usize> = suite.iter().map(|(_, g)| g.n()).collect();
        // hugebubbles and usa roads are much larger than ldoor/delaunay
        assert!(n[2] > 10 * n[0]);
        assert!(n[3] > 10 * n[1]);
    }

    #[test]
    fn degree_classes_match_paper() {
        let suite = paper_suite(SuiteScale::Tiny, 42);
        let avg: Vec<f64> = suite.iter().map(|(_, g)| g.avg_degree()).collect();
        assert!(avg[0] > 15.0, "ldoor-like should be dense, got {}", avg[0]);
        assert!((4.5..6.5).contains(&avg[1]), "delaunay-like {}", avg[1]);
        assert!(avg[2] < 3.5, "hugebubbles-like {}", avg[2]);
        assert!(avg[3] < 3.0, "usa-roads-like {}", avg[3]);
    }

    #[test]
    fn all_valid() {
        for (pg, g) in paper_suite(SuiteScale::Fraction(0.002), 1) {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", pg.name()));
        }
    }

    #[test]
    fn names_and_metadata() {
        assert_eq!(PaperGraph::Ldoor.name(), "ldoor");
        assert!(PaperGraph::UsaRoads.paper_edges() > PaperGraph::Delaunay.paper_edges());
        assert!(!PaperGraph::Hugebubbles.description().is_empty());
    }
}
