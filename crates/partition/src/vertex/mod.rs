//! Vertex-partitioning baselines and the elimination-tree edge partitioner.
//!
//! The paper benchmarks three vertex partitioners — Spinner, XtraPuLP and
//! ParMETIS — whose outputs are converted to edge partitions via
//! [`crate::VertexToEdge`], plus Sheep, a *distributed edge* partitioner
//! that works by converting the graph to an elimination tree and
//! partitioning the tree (§2.2). All four are re-implemented here at the
//! algorithmic-core level and labelled `*-like` in benchmark output.

mod metis_like;
mod sheep;
mod spinner;
mod xtrapulp;

pub use metis_like::MetisLikePartitioner;
pub use sheep::SheepPartitioner;
pub use spinner::SpinnerPartitioner;
pub use xtrapulp::XtraPulpPartitioner;

use crate::assignment::PartitionId;
use dne_graph::{Adjacency, Graph};

/// Shared label-propagation refinement used by Spinner-like and
/// XtraPuLP-like: asynchronous sweeps where each vertex adopts the label
/// maximizing `(neighbor affinity)/deg + (1 − load_after/capacity)` —
/// Spinner's additive balance-penalized LP score. Loads are measured in
/// vertex degree so that *edge* balance is what the penalty protects (both
/// systems balance edges, not vertex counts, on skewed graphs).
pub(crate) fn label_propagation_refine(
    g: &Graph,
    adj: &Adjacency,
    labels: &mut [PartitionId],
    k: usize,
    sweeps: usize,
    capacity_slack: f64,
) {
    let total_degree: u64 = 2 * g.num_edges();
    let capacity = (capacity_slack * total_degree as f64 / k as f64).max(1.0);
    let mut loads = vec![0f64; k];
    for v in g.vertices() {
        loads[labels[v as usize] as usize] += g.degree(v) as f64;
    }
    let mut affinity = vec![0f64; k];
    for _ in 0..sweeps {
        let mut moves = 0u64;
        for v in g.vertices() {
            let deg = g.degree(v);
            if deg == 0 {
                continue;
            }
            affinity.iter_mut().for_each(|a| *a = 0.0);
            for &u in adj.of(v) {
                affinity[labels[u as usize] as usize] += 1.0;
            }
            let old = labels[v as usize] as usize;
            let mut best = old;
            let mut best_score = f64::NEG_INFINITY;
            for p in 0..k {
                // Load the label would carry if v ends up there.
                let load_after = if p == old { loads[p] } else { loads[p] + deg as f64 };
                // Additive balance penalty; may go negative.
                let penalty = 1.0 - load_after / capacity;
                // Slight stickiness to the current label damps oscillation.
                let sticky = if p == old { 1e-6 } else { 0.0 };
                let score = affinity[p] / deg as f64 + penalty + sticky;
                if score > best_score {
                    best_score = score;
                    best = p;
                }
            }
            if best != old {
                loads[old] -= deg as f64;
                loads[best] += deg as f64;
                labels[v as usize] = best as PartitionId;
                moves += 1;
            }
        }
        // Converged: fewer than 0.1 % of vertices moved.
        if moves * 1000 < g.num_vertices() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;

    #[test]
    fn lp_refine_separates_two_cliques() {
        let g = gen::two_cliques_bridge(10);
        // Start from an alternating (bad) labeling.
        let mut labels: Vec<PartitionId> =
            (0..g.num_vertices()).map(|v| (v % 2) as PartitionId).collect();
        label_propagation_refine(&g, &Adjacency::build(&g), &mut labels, 2, 20, 1.2);
        // Each clique should end up monochromatic.
        let first = &labels[0..10];
        let second = &labels[10..20];
        assert!(first.iter().all(|&l| l == first[0]), "clique 1 split: {first:?}");
        assert!(second.iter().all(|&l| l == second[0]), "clique 2 split: {second:?}");
    }

    #[test]
    fn lp_refine_keeps_labels_in_range() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 3));
        let mut labels: Vec<PartitionId> =
            (0..g.num_vertices()).map(|v| (v % 4) as PartitionId).collect();
        label_propagation_refine(&g, &Adjacency::build(&g), &mut labels, 4, 10, 1.1);
        assert!(labels.iter().all(|&l| l < 4));
    }
}
