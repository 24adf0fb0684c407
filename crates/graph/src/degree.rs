//! Degree-distribution statistics.
//!
//! Used by the benchmark harness to verify that the synthetic stand-ins for
//! the paper's real-world datasets preserve the degree skew that drives
//! partitioning difficulty (§1: "skewed-degree distribution, namely, there
//! are a few high-degree vertices, whereas the rest have low degree").

use crate::Graph;

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree (0 if isolated vertices exist).
    pub min: u64,
    /// Maximum degree.
    pub max: u64,
    /// Mean degree `2|E|/|V|`.
    pub mean: f64,
    /// Median degree.
    pub p50: u64,
    /// 90th percentile degree.
    pub p90: u64,
    /// 99th percentile degree.
    pub p99: u64,
    /// Ratio `max / mean` — a quick skew indicator (≫ 1 for power-law
    /// graphs, ≈ 1–2 for road networks).
    pub skew: f64,
}

/// Compute [`DegreeStats`] for a graph. `O(|V| log |V|)`.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, skew: 0.0 };
    }
    let mut degrees: Vec<u64> = g.vertices().map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let pct = |q: f64| -> u64 {
        let idx = ((n as f64 - 1.0) * q).round() as usize;
        degrees[idx]
    };
    let mean = 2.0 * g.num_edges() as f64 / n as f64;
    let max = *degrees.last().unwrap();
    DegreeStats {
        min: degrees[0],
        max,
        mean,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_star() {
        let g = gen::star(11);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert_eq!(s.p50, 1);
        assert!((s.mean - 2.0 * 10.0 / 11.0).abs() < 1e-12);
        assert!(s.skew > 4.0);
    }

    #[test]
    fn stats_of_cycle_are_flat() {
        let g = gen::cycle(50);
        let s = degree_stats(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.p99, 2);
        assert!((s.skew - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::Graph::from_canonical_edges(0, vec![]);
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }
}
