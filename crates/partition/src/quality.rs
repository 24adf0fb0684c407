//! Partitioning-quality metrics: replication factor and balance.
//!
//! * **Replication factor** (paper Equation 1):
//!   `RF = (1/|V|) · Σ_{p∈P} |V(E_p)|` — the primary quality metric of the
//!   whole evaluation (Figures 8, Table 4, Table 5's "RF" column, Table 6).
//! * **Balance** (paper §7.6): `B({x_p}) = max_p x_p / mean_p x_p`; applied
//!   to `|E_p|` (edge balance, "EB") and `|V(E_p)|` (vertex balance, "VB").
//!
//! `measure` takes `|V(E_p)|` from the [`ReplicaTable`] — one sequential
//! edge scan on any storage backend.

use crate::assignment::EdgeAssignment;
use crate::replica::ReplicaTable;
use dne_graph::Graph;

/// Balance `B({x_p}) = max_p x_p / mean_p x_p` (paper §7.6); 1.0 when every
/// `x_p` is zero.
pub fn balance(xs: &[u64]) -> f64 {
    let max = xs.iter().copied().max().unwrap_or(0) as f64;
    let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Quality summary of one edge partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Replication factor `RF ≥ 1` (1.0 = no vertex is replicated).
    pub replication_factor: f64,
    /// Edge balance `max |E_p| / mean |E_p|` (1.0 = perfectly balanced).
    pub edge_balance: f64,
    /// Vertex balance `max |V(E_p)| / mean |V(E_p)|`.
    pub vertex_balance: f64,
    /// `|E_p|` per partition.
    pub edge_counts: Vec<u64>,
    /// `|V(E_p)|` per partition.
    pub vertex_counts: Vec<u64>,
    /// `Σ_p |V(E_p)|` (total vertex replicas, numerator of RF).
    pub total_replicas: u64,
}

impl PartitionQuality {
    /// Measure the quality of `assignment` on `g`.
    ///
    /// # Panics
    /// If the assignment does not cover exactly `g`'s edges.
    pub fn measure(g: &Graph, assignment: &EdgeAssignment) -> Self {
        let vertex_counts = ReplicaTable::build(g, assignment).counts(assignment.num_partitions());
        let edge_counts = assignment.edge_counts();
        let total_replicas: u64 = vertex_counts.iter().sum();
        let nv = g.num_vertices();
        PartitionQuality {
            replication_factor: if nv == 0 { 0.0 } else { total_replicas as f64 / nv as f64 },
            edge_balance: balance(&edge_counts),
            vertex_balance: balance(&vertex_counts),
            edge_counts,
            vertex_counts,
            total_replicas,
        }
    }

    /// Whether the balance constraint `max_p |E_p| < α·|E|/|P|` (paper
    /// Equation 2) holds for the given imbalance factor `alpha`.
    pub fn satisfies_balance(&self, alpha: f64) -> bool {
        let total: u64 = self.edge_counts.iter().sum();
        let k = self.edge_counts.len() as f64;
        let cap = alpha * total as f64 / k;
        self.edge_counts.iter().all(|&c| (c as f64) <= cap.ceil())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::EdgeAssignment;
    use dne_graph::gen;

    #[test]
    fn single_partition_has_rf_one_for_connected_graph() {
        let g = gen::complete(5);
        let a = EdgeAssignment::new(vec![0; g.num_edges() as usize], 1);
        let q = PartitionQuality::measure(&g, &a);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
        assert_eq!(q.edge_balance, 1.0);
        assert_eq!(q.total_replicas, 5);
    }

    #[test]
    fn star_split_replicates_hub() {
        // Star with hub 0 and 4 spokes; 2 partitions with 2 edges each.
        let g = gen::star(5);
        let a = EdgeAssignment::new(vec![0, 0, 1, 1], 2);
        let q = PartitionQuality::measure(&g, &a);
        // V(E_0) = {0, s1, s2}, V(E_1) = {0, s3, s4} → 6 replicas / 5 verts.
        assert_eq!(q.total_replicas, 6);
        assert!((q.replication_factor - 6.0 / 5.0).abs() < 1e-12);
        assert_eq!(q.vertex_counts, vec![3, 3]);
    }

    #[test]
    fn worst_case_rf_on_path() {
        // Path 0-1-2: edges (0,1),(1,2) in different partitions → vertex 1
        // replicated.
        let g = gen::path(3);
        let a = EdgeAssignment::new(vec![0, 1], 2);
        let q = PartitionQuality::measure(&g, &a);
        assert_eq!(q.total_replicas, 4);
        assert!((q.replication_factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn balance_constraint_check() {
        let g = gen::cycle(8);
        let balanced = EdgeAssignment::from_fn(&g, 4, |e| (e % 4) as u32);
        let q = PartitionQuality::measure(&g, &balanced);
        assert!(q.satisfies_balance(1.0));
        let skewed = EdgeAssignment::from_fn(&g, 4, |e| if e < 5 { 0 } else { (e % 4) as u32 });
        let q2 = PartitionQuality::measure(&g, &skewed);
        assert!(!q2.satisfies_balance(1.1));
        assert!(q2.edge_balance > 2.0);
    }

    #[test]
    fn streamed_storage_measures_identically() {
        // Round-trip the graph through a binary file opened with the
        // chunk-streamed backend and re-measure.
        let g = gen::rmat(&gen::RmatConfig::graph500(6, 6, 11));
        let a = EdgeAssignment::from_fn(&g, 5, |e| (e % 5) as u32);
        let q = PartitionQuality::measure(&g, &a);
        let dir = std::env::temp_dir().join("dne_partition_quality_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("streamed.chunks");
        dne_graph::io::write_chunked(&g, &p, 7).unwrap();
        let s =
            dne_graph::io::open_chunked_with(&p, dne_graph::StorageKind::ChunkStreamed).unwrap();
        assert_eq!(PartitionQuality::measure(&s, &a), q);
    }

    #[test]
    fn measured_values_are_the_parent_commits_bit_for_bit() {
        // RF / EB / VB bit patterns printed by the implementation this
        // module had at commit 0cbf2c8, which chose between a stamp walk
        // over adjacency and a hash-set scan by storage backend. Both paths
        // printed the same three words for each case (in-memory graph, and
        // the same graph re-opened chunk-streamed); k = 65 puts the table's
        // bitmap past one word.
        use crate::traits::EdgePartitioner;
        let g1 = gen::rmat(&gen::RmatConfig::graph500(9, 8, 1));
        let a1 = crate::hash_based::RandomPartitioner::new(1).partition(&g1, 8);
        let g2 = gen::road_grid(40, 30, 0.7, 0.05, 2);
        let a2 = crate::streaming::HdrfPartitioner::new(2).partition(&g2, 5);
        let g3 = gen::rmat(&gen::RmatConfig::graph500(8, 6, 7));
        let a3 = crate::greedy::NePartitioner::new(7).partition(&g3, 65);
        let cases = [
            (g1, a1, [0x400c_a400_0000_0000u64, 0x3ff1_618c_aa4e_afb2, 0x3ff0_f80a_0e3e_d909]),
            (g2, a2, [0x3ff6_eeee_eeee_eeef, 0x3ff0_1654_0a8b_3dde, 0x3ff0_4771_1dc4_7712]),
            (g3, a3, [0x4002_0000_0000_0000, 0x4032_3333_3333_3333, 0x4015_371c_71c7_1c71]),
        ];
        let dir = std::env::temp_dir().join("dne_partition_quality_bits_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (g, a, bits)) in cases.into_iter().enumerate() {
            let p = dir.join(format!("{i}.chunks"));
            dne_graph::io::write_chunked(&g, &p, 7).unwrap();
            for g in [
                dne_graph::io::open_chunked_with(&p, dne_graph::StorageKind::ChunkStreamed)
                    .unwrap(),
                g,
            ] {
                let q = PartitionQuality::measure(&g, &a);
                let got =
                    [q.replication_factor, q.edge_balance, q.vertex_balance].map(f64::to_bits);
                assert_eq!(got, bits, "case {i}, {} storage", g.storage_kind());
            }
        }
    }

    #[test]
    fn rf_lower_bound_is_one_when_all_vertices_covered() {
        // Any partitioning of a graph without isolated vertices has RF >= 1.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 8, 3));
        let a = EdgeAssignment::from_fn(&g, 8, |e| (e % 8) as u32);
        let q = PartitionQuality::measure(&g, &a);
        // Isolated vertices (degree 0) reduce RF below 1 in principle; RMAT
        // may have them, so only check positivity and sanity here.
        assert!(q.replication_factor > 0.0);
        assert!(q.total_replicas >= g.vertices().filter(|&v| g.degree(v) > 0).count() as u64);
    }
}
