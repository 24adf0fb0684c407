//! The expansion process's boundary priority queue (Algorithm 1's `B_p`).
//!
//! `B_p` is "a priority queue of ⟨D_rest(v), v⟩". In the distributed
//! algorithm a vertex joins a partition's boundary exactly once (the
//! membership sync deduplicates joins), with a `D_rest` score summed from
//! the allocators' local contributions at join time. Scores are *not*
//! updated afterwards — the epoch-staleness is inherent to the distributed
//! setting and accepted by the paper (the sequential NE keeps exact scores;
//! that difference is exactly the quality gap of Table 4). Consequently the
//! queue needs no decrease-key: it is a plain binary min-heap plus the set
//! of vertices that ever entered it, which filters re-joins. A vertex only
//! leaves the heap by being popped for expansion, so the expanded set is
//! that set minus the heap's vertices and is not stored.

use crate::snapshot::SnapshotError;
use dne_graph::hash::FastSet;
use dne_graph::VertexId;
use dne_runtime::wire_struct;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-`D_rest` boundary queue with multi-expansion pops (Algorithm 4).
#[derive(Debug, Default)]
pub struct Boundary {
    heap: BinaryHeap<Reverse<(u64, VertexId)>>,
    enqueued: FastSet<VertexId>,
}

impl Boundary {
    /// Empty boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert vertex `v` with its (join-time) global `D_rest` score.
    /// Ignored if `v` was already enqueued or expanded for this partition.
    pub fn insert(&mut self, v: VertexId, drest: u64) {
        if !self.enqueued.insert(v) {
            return;
        }
        self.heap.push(Reverse((drest, v)));
    }

    /// Number of boundary vertices not yet expanded (`|B_p|`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the boundary is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Capacity-aware multi-expansion pop: the `k = ⌈λ·|B_p|⌉` (at least
    /// 1 — Algorithm 4 line 5 with the λ→0 floor of Algorithm 1)
    /// minimum-score vertices (`popK-MinDrestVertices`, ties by vertex
    /// id), but only while their join-time `D_rest` scores fit in
    /// `edge_budget` (the partition's remaining capacity). Join-time scores
    /// are upper bounds on the edges a one-hop expansion can allocate
    /// (rest degrees only shrink after the join), so the one-hop phase can
    /// never exceed the budget. Returns empty when even the cheapest
    /// boundary vertex does not fit — the partition's capacity is
    /// effectively exhausted (Equation 2's constraint, which the paper's
    /// reported edge balance of ≈ α implies is enforced) — and fewer than
    /// `k` when the boundary runs dry.
    pub fn pop_lambda_capped(&mut self, lambda: f64, edge_budget: u64) -> Vec<VertexId> {
        let k = ((lambda * self.heap.len() as f64).ceil() as usize).max(1);
        let mut out = Vec::new();
        let mut estimated = 0u64;
        while out.len() < k {
            let Some(&Reverse((score, _))) = self.heap.peek() else { break };
            if estimated + score.max(1) > edge_budget {
                break; // even a zero-score vertex costs one slot
            }
            let Reverse((score, v)) = self.heap.pop().expect("peeked");
            estimated += score.max(1);
            out.push(v);
        }
        out
    }

    /// Estimated heap bytes (for the mem-score accounting): what the heap
    /// and the set's table have allocated, not what they hold.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * 16 + self.enqueued.capacity() * 8
    }

    /// Export the queue's full state in a canonical (sorted) order for
    /// checkpointing: the pending `(score, vertex)` heap entries plus the
    /// expanded and enqueued sets (the expanded one derived: enqueued and
    /// no longer pending). Rebuilding via [`Boundary::from_export`] is
    /// behaviorally identical: heap entries are distinct (a vertex is
    /// enqueued at most once), so the pop order is fully determined by the
    /// element multiset, not by the heap's internal layout.
    pub fn export(&self) -> BoundaryExport {
        let mut heap: Vec<(u64, VertexId)> = self.heap.iter().map(|&Reverse(p)| p).collect();
        heap.sort_unstable();
        let mut enqueued: Vec<VertexId> = self.enqueued.iter().copied().collect();
        enqueued.sort_unstable();
        let pending: FastSet<VertexId> = heap.iter().map(|&(_, v)| v).collect();
        let expanded = enqueued.iter().copied().filter(|v| !pending.contains(v)).collect();
        BoundaryExport { heap, expanded, enqueued }
    }

    /// Rebuild a boundary from an [`export`](Boundary::export). A file can
    /// carry a valid checksum over lists no queue exports — a vertex both
    /// pending and expanded, one enqueued but neither, an unsorted list —
    /// and each is a [`SnapshotError::Mismatch`].
    pub fn from_export(export: BoundaryExport) -> Result<Self, SnapshotError> {
        let rebuilt = Self {
            heap: export.heap.iter().copied().map(Reverse).collect(),
            enqueued: export.enqueued.iter().copied().collect(),
        };
        // With the lengths adding up, equality with what `rebuilt` exports
        // says the pending vertices are distinct, all enqueued, and
        // `expanded` is exactly the rest.
        if export.heap.len() + export.expanded.len() != export.enqueued.len()
            || rebuilt.export() != export
        {
            return Err(SnapshotError::Mismatch {
                detail: "boundary: pending and expanded are not a sorted split of enqueued".into(),
            });
        }
        Ok(rebuilt)
    }
}

/// Canonical serializable form of a [`Boundary`] (see
/// [`Boundary::export`]). All three vectors are sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BoundaryExport {
    /// Pending `(join-time D_rest, vertex)` heap entries.
    pub heap: Vec<(u64, VertexId)>,
    /// Vertices already expanded for this partition.
    pub expanded: Vec<VertexId>,
    /// Vertices that ever entered the queue.
    pub enqueued: Vec<VertexId>,
}

wire_struct!(BoundaryExport { heap, expanded, enqueued });

#[cfg(test)]
mod tests {
    use super::*;

    /// No capacity limit: the pop is `⌈λ·|B_p|⌉` minimum-score vertices.
    const ANY: u64 = u64::MAX;

    #[test]
    fn pops_in_score_order() {
        let mut b = Boundary::new();
        b.insert(10, 5);
        b.insert(11, 1);
        b.insert(12, 3);
        assert_eq!(b.pop_lambda_capped(1.0, ANY), vec![11, 12, 10]);
        assert!(b.is_empty());
    }

    #[test]
    fn expanded_vertices_never_rejoin() {
        let mut b = Boundary::new();
        b.insert(1, 2);
        assert_eq!(b.pop_lambda_capped(1.0, ANY), vec![1]);
        b.insert(1, 0); // stale re-join attempt
        assert!(b.is_empty());
    }

    #[test]
    fn duplicate_inserts_ignored() {
        let mut b = Boundary::new();
        b.insert(7, 3);
        b.insert(7, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop_lambda_capped(1.0, ANY), vec![7]);
    }

    #[test]
    fn lambda_pop_sizes() {
        let mut b = Boundary::new();
        for v in 0..100 {
            b.insert(v, v);
        }
        // λ = 0.1 over 100 → 10 vertices.
        assert_eq!(b.pop_lambda_capped(0.1, ANY).len(), 10);
        // λ small → at least one.
        assert_eq!(b.pop_lambda_capped(1e-6, ANY).len(), 1);
        // λ = 1.0 → everything left.
        assert_eq!(b.pop_lambda_capped(1.0, ANY).len(), 89);
    }

    #[test]
    fn capacity_stops_the_pop_before_lambda_does() {
        let mut b = Boundary::new();
        for v in 0..10 {
            b.insert(v, 3);
        }
        // λ asks for all ten; a budget of 10 fits three 3-edge vertices.
        assert_eq!(b.pop_lambda_capped(1.0, 10), vec![0, 1, 2]);
        // Even the cheapest does not fit: nothing is popped.
        assert!(b.pop_lambda_capped(1.0, 2).is_empty());
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn tie_break_is_by_vertex_id() {
        let mut b = Boundary::new();
        b.insert(5, 2);
        b.insert(3, 2);
        assert_eq!(b.pop_lambda_capped(1.0, ANY), vec![3, 5]);
    }
}
