//! Hybrid Ginger (PowerLyra, Chen et al., EuroSys 2015).
//!
//! PowerLyra's best partitioner: start from hybrid hashing, then improve the
//! placement of *low-degree* vertices with a Fennel-derived objective —
//! move a low-degree vertex's anchor to the partition holding most of its
//! neighbors, minus a load penalty, so its whole edge bundle migrates with
//! it. High-degree vertices keep their hash placement (they replicate
//! regardless).
//!
//! Adaptation note: the original operates on directed in-edges inside a live
//! system; this re-implementation keeps the algorithmic core — hybrid
//! anchoring + Fennel-scored refinement sweeps of low-degree anchors with a
//! combined vertex/edge balance penalty — on undirected graphs.

use crate::assignment::{EdgeAssignment, PartitionId};
use crate::traits::EdgePartitioner;
use dne_graph::hash::mix2;
use dne_graph::{Adjacency, Graph};

/// PowerLyra "Hybrid Ginger" partitioner.
#[derive(Debug, Clone)]
pub struct GingerPartitioner {
    seed: u64,
    /// Degree threshold θ separating low from high-degree vertices.
    pub threshold: u64,
    /// Number of refinement sweeps over the low-degree vertices.
    pub sweeps: usize,
    /// Balance-penalty weight γ in the Fennel-style objective.
    pub gamma: f64,
}

impl GingerPartitioner {
    /// Seeded constructor with PowerLyra-flavoured defaults.
    pub fn new(seed: u64) -> Self {
        Self { seed, threshold: 100, sweeps: 3, gamma: 1.5 }
    }

    /// Override the number of refinement sweeps.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps;
        self
    }
}

impl EdgePartitioner for GingerPartitioner {
    fn name(&self) -> String {
        "HybridGinger".into()
    }

    fn partition(&self, g: &Graph, k: PartitionId) -> EdgeAssignment {
        let n = g.num_vertices() as usize;
        let kk = k as usize;
        let is_low = |v: u64| g.degree(v) <= self.threshold;
        // Anchor of every vertex: initially its hybrid hash cell.
        let mut anchor: Vec<PartitionId> =
            (0..n).map(|v| (mix2(self.seed, v as u64) % k as u64) as PartitionId).collect();
        // Loads for the balance penalty: vertices anchored and edges pulled
        // along (a low vertex drags ~deg(v) edges with its anchor).
        let mut vload = vec![0f64; kk];
        let mut eload = vec![0f64; kk];
        for v in 0..n as u64 {
            vload[anchor[v as usize] as usize] += 1.0;
            eload[anchor[v as usize] as usize] += g.degree(v) as f64;
        }
        let avg_v = n as f64 / kk as f64;
        let avg_e = (2 * g.num_edges()) as f64 / kk as f64;
        let mut nbr_counts = vec![0f64; kk];
        let adj = Adjacency::build(g);
        for _ in 0..self.sweeps {
            for v in 0..n as u64 {
                if !is_low(v) {
                    continue;
                }
                nbr_counts.iter_mut().for_each(|c| *c = 0.0);
                for &u in adj.of(v) {
                    // Low neighbors attract with weight 1 (their bundle can
                    // co-locate); high neighbors attract weakly (replicated
                    // anyway, but an edge to them still lands somewhere).
                    let w = if is_low(u) { 1.0 } else { 0.3 };
                    nbr_counts[anchor[u as usize] as usize] += w;
                }
                let old = anchor[v as usize] as usize;
                let deg = g.degree(v) as f64;
                let mut best = old;
                let mut best_score = f64::NEG_INFINITY;
                for p in 0..kk {
                    // Fennel-style: neighbor affinity minus marginal load
                    // cost of hosting this vertex (and its edge bundle).
                    let score = nbr_counts[p]
                        - self.gamma * (vload[p] / avg_v + (eload[p] + deg) / avg_e) / 2.0;
                    if score > best_score + 1e-12 {
                        best_score = score;
                        best = p;
                    }
                }
                if best != old {
                    anchor[v as usize] = best as PartitionId;
                    vload[old] -= 1.0;
                    vload[best] += 1.0;
                    eload[old] -= deg;
                    eload[best] += deg;
                }
            }
        }
        // Final edge placement: hybrid rule over the refined anchors.
        EdgeAssignment::from_fn(g, k, |e| {
            let (u, v) = g.edge(e);
            let (lo, hi) = if g.degree(u) <= g.degree(v) { (u, v) } else { (v, u) };
            if is_low(lo) {
                anchor[lo as usize]
            } else {
                anchor[hi as usize]
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_based::HybridHashPartitioner;
    use crate::quality::PartitionQuality;
    use dne_graph::gen;

    #[test]
    fn refinement_improves_on_plain_hybrid() {
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 6));
        let qh = PartitionQuality::measure(&g, &HybridHashPartitioner::new(1).partition(&g, 16));
        let qg = PartitionQuality::measure(&g, &GingerPartitioner::new(1).partition(&g, 16));
        assert!(
            qg.replication_factor < qh.replication_factor,
            "Ginger {} should beat HybridHash {}",
            qg.replication_factor,
            qh.replication_factor
        );
    }

    #[test]
    fn zero_sweeps_equals_hybrid_anchoring() {
        let g = gen::cycle(40);
        let a = GingerPartitioner::new(1).with_sweeps(0).partition(&g, 4);
        assert!(a.is_valid_for(&g));
    }

    #[test]
    fn valid_and_deterministic() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 9));
        let a = GingerPartitioner::new(5).partition(&g, 8);
        assert!(a.is_valid_for(&g));
        assert_eq!(a, GingerPartitioner::new(5).partition(&g, 8));
    }

    #[test]
    fn two_cliques_mostly_separate() {
        let g = gen::two_cliques_bridge(12);
        let a = GingerPartitioner::new(2).partition(&g, 2);
        let q = PartitionQuality::measure(&g, &a);
        // Good refinement should land close to the ideal cut (RF ≈ 1).
        assert!(q.replication_factor < 1.6, "RF {}", q.replication_factor);
    }
}
