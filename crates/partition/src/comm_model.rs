//! Analytical communication-cost model for an edge partitioning.
//!
//! Vertex-cut systems synchronize every replicated vertex once per
//! superstep in each direction (mirror→master partials, master→mirror
//! updates), so the per-superstep traffic of an assignment is determined
//! by the replica counts alone:
//!
//! ```text
//! messages/superstep = 2 · Σ_v (r(v) − 1),   r(v) = |{p : v ∈ V(E_p)}|
//! ```
//!
//! This is the quantity the replication factor controls — the analytic
//! backbone of Table 5's RF → COM → ET causal chain. The model lets users
//! estimate application communication *before* deploying a partitioning;
//! `dne-apps` then measures the real thing.

use crate::assignment::EdgeAssignment;
use crate::replica::ReplicaTable;
use dne_graph::Graph;

/// Analytic per-superstep communication estimate for an assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEstimate {
    /// `Σ_v max(r(v) − 1, 0)` — mirror count (messages each way per
    /// superstep in an all-active application like PageRank).
    pub mirrors: u64,
    /// Estimated bytes per superstep assuming `bytes_per_msg` for each
    /// mirror sync in each direction.
    pub bytes_per_superstep: u64,
    /// Mirrors of the busiest partition (its per-superstep receive load).
    pub max_partition_mirrors: u64,
}

/// Bytes of one `(vertex id, f64 value)` sync message of the `dne-apps`
/// engine, as an upper bound: in a sequence the id is a varint (at most 8
/// bytes for ids below 2^56, fewer for small ids) and the value an 8-byte
/// `f64`.
pub const SYNC_MSG_BYTES: u64 = 16;

/// Estimate the per-superstep communication of `assignment` on `g`.
pub fn estimate_comm(g: &Graph, assignment: &EdgeAssignment) -> CommEstimate {
    let table = ReplicaTable::build(g, assignment);
    let covered = g.vertices().filter(|&v| !table.of(v).is_empty()).count() as u64;
    let mirrors = table.total() - covered;
    // Max per-partition mirrors: vertices in that partition that are
    // replicated elsewhere — bounded by the partition's vertex count.
    let counts = table.counts(assignment.num_partitions());
    let max_partition_mirrors = counts.into_iter().max().unwrap_or(0);
    CommEstimate {
        mirrors,
        bytes_per_superstep: 2 * mirrors * SYNC_MSG_BYTES,
        max_partition_mirrors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_based::RandomPartitioner;
    use crate::quality::PartitionQuality;
    use crate::traits::EdgePartitioner;
    use dne_graph::gen;

    #[test]
    fn single_partition_has_zero_mirrors() {
        let g = gen::complete(6);
        let a = EdgeAssignment::new(vec![0; g.num_edges() as usize], 1);
        let est = estimate_comm(&g, &a);
        assert_eq!(est.mirrors, 0);
        assert_eq!(est.bytes_per_superstep, 0);
    }

    #[test]
    fn mirrors_match_replication_factor_arithmetic() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let a = RandomPartitioner::new(1).partition(&g, 8);
        let q = PartitionQuality::measure(&g, &a);
        let covered = g.vertices().filter(|&v| g.degree(v) > 0).count() as u64;
        let est = estimate_comm(&g, &a);
        assert_eq!(est.mirrors, q.total_replicas - covered);
    }

    #[test]
    fn model_ranks_partitionings_like_the_engine() {
        // Lower RF ⇒ lower modeled traffic; the engine's measured COM obeys
        // the same ordering (tested end-to-end in tests/apps_correctness).
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 3));
        let coarse = RandomPartitioner::new(3).partition(&g, 16);
        let fine = RandomPartitioner::new(3).partition(&g, 2);
        let est16 = estimate_comm(&g, &coarse);
        let est2 = estimate_comm(&g, &fine);
        assert!(
            est2.mirrors < est16.mirrors,
            "fewer partitions must produce fewer mirrors: {} vs {}",
            est2.mirrors,
            est16.mirrors
        );
    }
}
