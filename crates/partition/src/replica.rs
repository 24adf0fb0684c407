//! Replica sets `{p : v ∈ V(E_p)}` — what an edge assignment implies for
//! every vertex, computed once.
//!
//! The replication factor (paper Equation 1), the vertex balance, the
//! served replica-set lookup, the application engine's mirror routing and
//! the communication model all start from the same per-vertex sets.
//! [`ReplicaTable::build`] derives them in one sequential
//! [`Graph::for_each_edge`] scan, so every storage backend feeds it at its
//! best access pattern, with `|V| · ⌈k/64⌉` words of transient memory however many
//! replicas there are.

use crate::assignment::{EdgeAssignment, PartitionId};
use dne_graph::{Graph, VertexId};

/// The replica set of every vertex under one [`EdgeAssignment`], as two
/// flat arrays (CSR over vertices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTable {
    /// `parts[offsets[v]..offsets[v + 1]]` is the set of vertex `v`;
    /// `|V| + 1` entries.
    offsets: Vec<usize>,
    /// The sets, concatenated in vertex order, each ascending.
    parts: Vec<PartitionId>,
}

impl ReplicaTable {
    /// Derive the replica sets of `assignment` over the edges of `g`.
    ///
    /// # Panics
    /// If the assignment does not cover exactly `g`'s edges.
    pub fn build(g: &Graph, assignment: &EdgeAssignment) -> Self {
        assert!(assignment.is_valid_for(g), "assignment does not match graph");
        let n = g.num_vertices() as usize;
        // Bit `p` of row `v` ⇔ some edge of partition `p` touches `v`.
        let words = (assignment.num_partitions() as usize).div_ceil(64);
        let mut bits = vec![0u64; n * words];
        g.for_each_edge(|e, u, v| {
            let p = assignment.part_of(e) as usize;
            for w in [u, v] {
                bits[w as usize * words + p / 64] |= 1 << (p % 64);
            }
        });
        let total = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut parts = Vec::with_capacity(total);
        offsets.push(0);
        for row in bits.chunks_exact(words) {
            for (i, &word) in row.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    parts.push(i as PartitionId * 64 + rest.trailing_zeros());
                    rest &= rest - 1;
                }
            }
            offsets.push(parts.len());
        }
        Self { offsets, parts }
    }

    /// The replica set of `v`: every partition whose edge set touches it,
    /// ascending. Empty for every id no edge touches — isolated vertices
    /// and ids beyond `|V|` alike, so a lookup key from outside the
    /// program needs no range check first.
    pub fn of(&self, v: VertexId) -> &[PartitionId] {
        match usize::try_from(v) {
            Ok(i) if i < self.offsets.len() - 1 => {
                &self.parts[self.offsets[i]..self.offsets[i + 1]]
            }
            _ => &[],
        }
    }

    /// `|V(E_p)|` for every partition `p < k`.
    pub fn counts(&self, k: PartitionId) -> Vec<u64> {
        let mut counts = vec![0u64; k as usize];
        for &p in &self.parts {
            counts[p as usize] += 1;
        }
        counts
    }

    /// `Σ_p |V(E_p)|` — the numerator of the replication factor.
    pub fn total(&self) -> u64 {
        self.parts.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::{io, EdgeListBuilder, StorageKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinct chunk file per case: the mmap backend caches its CSR beside
    /// the source by modification time.
    static CASE: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On every storage backend and on both sides of a bitmap word
        /// boundary the table is the `BTreeSet` model: each set ascending
        /// and equal, per-partition counts and their sum equal, vertices no
        /// edge touches — inside `|V|` or beyond it — empty.
        #[test]
        fn table_matches_a_set_model_on_every_backend(
            pairs in prop::collection::vec((0u64..40, 0u64..40), 0..100),
            raw_parts in prop::collection::vec(0u32..130, 1..24),
        ) {
            let mut b = EdgeListBuilder::new();
            b.extend_edges(pairs.iter().copied());
            // Vertices 40..44 are isolated in every case.
            let mem = b.into_graph(44);
            let dir = std::env::temp_dir().join(format!("dne-replica-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{}.chunks", CASE.fetch_add(1, Ordering::Relaxed)));
            io::write_chunked(&mem, &path, 9).unwrap();
            for kind in StorageKind::ALL {
                let g = io::open_chunked_with(&path, kind).unwrap();
                for k in [1u32, 7, 64, 65, 130] {
                    let a = EdgeAssignment::from_fn(&g, k, |e| {
                        raw_parts[e as usize % raw_parts.len()] % k
                    });
                    let mut model = vec![BTreeSet::new(); g.num_vertices() as usize];
                    g.for_each_edge(|e, u, v| {
                        model[u as usize].insert(a.part_of(e));
                        model[v as usize].insert(a.part_of(e));
                    });
                    let table = ReplicaTable::build(&g, &a);
                    let mut counts = vec![0u64; k as usize];
                    for (v, set) in model.iter().enumerate() {
                        let want: Vec<PartitionId> = set.iter().copied().collect();
                        prop_assert_eq!(table.of(v as u64), &want[..], "vertex {} k {} {}", v, k, kind);
                        set.iter().for_each(|&p| counts[p as usize] += 1);
                    }
                    prop_assert_eq!(table.total(), counts.iter().sum::<u64>());
                    prop_assert_eq!(table.counts(k), counts);
                    for v in [40, 43, 44, 45, u64::MAX] {
                        prop_assert!(table.of(v).is_empty(), "vertex {} k {} {}", v, k, kind);
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
