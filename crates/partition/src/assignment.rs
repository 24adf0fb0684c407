//! The output type of every edge partitioner: a dense edge → partition map.

use dne_graph::hash::mix2;
use dne_graph::{EdgeId, Graph, HeapSize};

/// Partition identifier. The paper's experiments go up to `|P| = 1024`;
/// `u32` leaves ample headroom while keeping assignments compact.
pub type PartitionId = u32;

/// Sentinel for "not (yet) assigned". Final assignments never contain it.
pub const UNASSIGNED: PartitionId = PartitionId::MAX;

/// A complete `|P|`-way edge partitioning of a graph: `parts[e]` is the
/// partition of edge `e`. Because edge partitions are *disjoint covers* of
/// `E` (paper §2.1), a plain dense vector is the lossless representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeAssignment {
    parts: Vec<PartitionId>,
    num_partitions: PartitionId,
}

impl EdgeAssignment {
    /// Wrap a dense assignment vector.
    ///
    /// # Panics
    /// If any entry is `>= num_partitions` (including [`UNASSIGNED`]).
    pub fn new(parts: Vec<PartitionId>, num_partitions: PartitionId) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        for (e, &p) in parts.iter().enumerate() {
            assert!(p < num_partitions, "edge {e} has invalid partition {p}");
        }
        Self { parts, num_partitions }
    }

    /// Build by evaluating `f` for every edge of `g`.
    pub fn from_fn(
        g: &Graph,
        num_partitions: PartitionId,
        mut f: impl FnMut(EdgeId) -> PartitionId,
    ) -> Self {
        let parts = (0..g.num_edges()).map(&mut f).collect();
        Self::new(parts, num_partitions)
    }

    /// Number of partitions `|P|`.
    #[inline]
    pub fn num_partitions(&self) -> PartitionId {
        self.num_partitions
    }

    /// Number of edges covered.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.parts.len() as u64
    }

    /// Partition of edge `e`.
    #[inline]
    pub fn part_of(&self, e: EdgeId) -> PartitionId {
        self.parts[e as usize]
    }

    /// The raw dense vector (index = edge id).
    #[inline]
    pub fn as_slice(&self) -> &[PartitionId] {
        &self.parts
    }

    /// `|E_p|` for every partition `p`, indexed by partition id.
    pub fn edge_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_partitions as usize];
        for &p in &self.parts {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Edge ids grouped per partition (order: ascending edge id).
    pub fn edges_by_partition(&self) -> Vec<Vec<EdgeId>> {
        let mut out = vec![Vec::new(); self.num_partitions as usize];
        for (e, &p) in self.parts.iter().enumerate() {
            out[p as usize].push(e as EdgeId);
        }
        out
    }

    /// Check that this assignment covers exactly the edges of `g`.
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        self.parts.len() as u64 == g.num_edges()
    }

    /// Order-sensitive 64-bit fingerprint of the full assignment
    /// (partition count and every edge's partition, in edge-id order).
    /// Two assignments compare equal iff they fingerprint equal, up to
    /// hash collisions — the equivalence suites use this to compare runs
    /// across storage and transport backends without shipping whole
    /// vectors around.
    pub fn fingerprint(&self) -> u64 {
        let mut h = dne_graph::hash::mix64(self.num_partitions as u64 ^ self.parts.len() as u64);
        for &p in &self.parts {
            h = mix2(h, p as u64);
        }
        h
    }

    /// Order-*insensitive* fingerprint: [`edge_set_fingerprint`] of every
    /// partition's edge set, folded by [`combine_fingerprints`]. A
    /// multi-process run computes the same value without ever holding the
    /// full assignment — each rank hashes its own edge set and one
    /// all-gather combines them — which is how `dne-tcp-worker` and the
    /// equivalence suites compare runs across backends.
    pub fn partition_fingerprint(&self) -> u64 {
        let per_part: Vec<u64> =
            self.edges_by_partition().iter_mut().map(|edges| edge_set_fingerprint(edges)).collect();
        combine_fingerprints(&per_part)
    }
}

/// Hash of one partition's edge-id set, independent of the order the ids
/// arrive in (`edges` is sorted in place).
pub fn edge_set_fingerprint(edges: &mut [EdgeId]) -> u64 {
    edges.sort_unstable();
    edges.iter().fold(0x444E_4531u64, |h, &e| mix2(h, e))
}

/// Fold per-partition [`edge_set_fingerprint`]s, indexed by partition id,
/// into one assignment fingerprint.
pub fn combine_fingerprints(per_partition: &[u64]) -> u64 {
    per_partition.iter().fold(0x4D45_5348u64, |h, &f| mix2(h, f))
}

impl HeapSize for EdgeAssignment {
    fn heap_bytes(&self) -> usize {
        self.parts.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;

    #[test]
    fn counts_and_grouping_agree() {
        let g = gen::cycle(6);
        let a = EdgeAssignment::new(vec![0, 1, 0, 1, 2, 2], 3);
        assert!(a.is_valid_for(&g));
        assert_eq!(a.edge_counts(), vec![2, 2, 2]);
        let groups = a.edges_by_partition();
        assert_eq!(groups[0], vec![0, 2]);
        assert_eq!(groups[2], vec![4, 5]);
    }

    #[test]
    fn from_fn_round_robin() {
        let g = gen::path(5);
        let a = EdgeAssignment::from_fn(&g, 2, |e| (e % 2) as PartitionId);
        assert_eq!(a.part_of(0), 0);
        assert_eq!(a.part_of(3), 1);
        assert_eq!(a.num_edges(), 4);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = EdgeAssignment::new(vec![0, 1, 2], 3);
        let b = EdgeAssignment::new(vec![0, 1, 2], 3);
        let c = EdgeAssignment::new(vec![2, 1, 0], 3);
        let d = EdgeAssignment::new(vec![0, 1, 2], 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn partition_fingerprint_is_pinned_and_order_insensitive() {
        // The value the four private copies of this construction produced
        // before they were folded into this module; `tcp_compare.tsv`'s
        // FPRINT column and the equivalence suites depend on it.
        let a = EdgeAssignment::new(vec![0, 1, 0, 1, 2, 2], 3);
        assert_eq!(a.partition_fingerprint(), 0xdf81_2bfb_c752_a246);
        // A rank hashes its edge set in whatever order it allocated it.
        let per_part = [
            edge_set_fingerprint(&mut [2, 0]),
            edge_set_fingerprint(&mut [3, 1]),
            edge_set_fingerprint(&mut [5, 4]),
        ];
        assert_eq!(combine_fingerprints(&per_part), a.partition_fingerprint());
    }

    #[test]
    #[should_panic(expected = "invalid partition")]
    fn rejects_out_of_range_partition() {
        EdgeAssignment::new(vec![0, 5], 3);
    }

    #[test]
    #[should_panic(expected = "invalid partition")]
    fn rejects_unassigned_sentinel() {
        EdgeAssignment::new(vec![UNASSIGNED], 3);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_partitions() {
        EdgeAssignment::new(vec![], 0);
    }
}
