//! Spinner-like balanced label propagation (Martella et al., ICDE 2017).
//!
//! "Spinner is the state-of-the-art hash-based vertex partitioning method,
//! where vertices are assigned randomly followed by the iterative
//! refinements based on Label Propagation" (paper §7.1). The initial random
//! assignment is what limits its final quality — the paper groups it with
//! the hash-based family for exactly this reason, and Figure 8 shows it
//! behind the direct methods.

use crate::assignment::PartitionId;
use crate::traits::VertexPartitioner;
use crate::vertex::label_propagation_refine;
use dne_graph::hash::mix2;
use dne_graph::{Adjacency, Graph};

/// Spinner-style vertex partitioner: random init + balanced LP.
#[derive(Debug, Clone)]
pub struct SpinnerPartitioner {
    seed: u64,
    /// Maximum label-propagation sweeps (Spinner default ~ tens).
    pub sweeps: usize,
    /// Capacity slack for the balance penalty (Spinner's c ≈ 1.05).
    pub slack: f64,
}

impl SpinnerPartitioner {
    /// Seeded constructor with Spinner-flavoured defaults.
    pub fn new(seed: u64) -> Self {
        Self { seed, sweeps: 30, slack: 1.05 }
    }
}

impl VertexPartitioner for SpinnerPartitioner {
    fn name(&self) -> String {
        "Spinner-like".into()
    }

    fn partition_vertices(&self, g: &Graph, k: PartitionId) -> Vec<PartitionId> {
        // Random initial assignment — the defining (and limiting) step.
        let mut labels: Vec<PartitionId> =
            (0..g.num_vertices()).map(|v| (mix2(self.seed, v) % k as u64) as PartitionId).collect();
        let adj = Adjacency::build(g);
        label_propagation_refine(g, &adj, &mut labels, k as usize, self.sweeps, self.slack);
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::PartitionQuality;
    use crate::traits::{EdgePartitioner, VertexToEdge};
    use dne_graph::gen;

    #[test]
    fn labels_in_range_and_deterministic() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let s = SpinnerPartitioner::new(3);
        let l1 = s.partition_vertices(&g, 8);
        let l2 = s.partition_vertices(&g, 8);
        assert_eq!(l1, l2);
        assert!(l1.iter().all(|&p| p < 8));
    }

    #[test]
    fn beats_pure_random_conversion_on_clustered_graph() {
        let g = gen::two_cliques_bridge(16);
        let spinner = VertexToEdge::new(SpinnerPartitioner::new(1), 1);
        let qs = PartitionQuality::measure(&g, &spinner.partition(&g, 2));
        // Ideal RF ≈ 1.03; LP should find the clique structure.
        assert!(qs.replication_factor < 1.5, "RF {}", qs.replication_factor);
    }

    #[test]
    fn respects_edge_capacity_roughly() {
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 2));
        let labels = SpinnerPartitioner::new(2).partition_vertices(&g, 4);
        let mut deg_loads = [0u64; 4];
        for v in g.vertices() {
            deg_loads[labels[v as usize] as usize] += g.degree(v);
        }
        let mean = deg_loads.iter().sum::<u64>() as f64 / 4.0;
        let max = *deg_loads.iter().max().unwrap() as f64;
        assert!(max / mean < 1.6, "degree-load balance {}", max / mean);
    }
}
