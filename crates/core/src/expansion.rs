//! The expansion process (Algorithm 1 / Algorithm 4).
//!
//! Each machine hosts the expansion process of exactly one partition
//! (`partition id == rank`). Per iteration it:
//!
//! 1. selects `k = ⌈λ·|B_p|⌉` minimum-`D_rest` boundary vertices
//!    (multi-expansion, Algorithm 4) — or, when the boundary is empty,
//!    requests one random free vertex from an allocator ("basically taken
//!    from the allocation process in the same machine. It is from the other
//!    machines only if necessary");
//! 2. multicasts the selection to the allocators in charge;
//! 3. after the allocation rounds, folds the returned boundary vertices
//!    (with their summed local `D_rest` scores) and allocated edges into
//!    `B_p` / `E_p`;
//! 4. stops expanding once `|E_p| > α·|E_init|/|P|` or every edge is
//!    allocated (Algorithm 1 line 15).

use dne_graph::hash::FastMap;
use dne_graph::{EdgeId, VertexId};
use dne_runtime::{wire_enum, WireDecode, WireEncode, WireError, WireReader, WireSize};

use crate::boundary::Boundary;
use crate::messages::Part;

/// What the expansion process wants this iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectAction {
    /// Expand these boundary vertices.
    Vertices {
        /// The selected boundary vertices, in pop order.
        vertices: Vec<VertexId>,
    },
    /// Boundary empty: ask allocator `target` for one random free vertex
    /// fitting the remaining capacity `budget`.
    Random {
        /// Rank of the allocator asked for the random vertex.
        target: usize,
        /// Remaining edge capacity the vertex's local degree must fit.
        budget: u64,
    },
    /// Partition full (or graph exhausted): participate in the rounds but
    /// select nothing.
    Nothing,
}

// Tag 0 is taken: see [`NextSelect`].
wire_enum!(SelectAction { 1 => Vertices { vertices }, 2 => Random { target, budget }, 3 => Nothing });

/// The round loop's speculated next selection as a checkpoint stores it:
/// `None` is tag 0 *in `SelectAction`'s own tag space*, so the no-speculation
/// case costs one byte and every other case is the action's plain encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextSelect(pub Option<SelectAction>);

// By hand because the layout is not a field list: `DNESNAP2` shares one tag
// byte between the `Option` and the enum inside it.
impl WireSize for NextSelect {
    fn wire_bytes(&self) -> usize {
        self.0.as_ref().map_or(1, WireSize::wire_bytes)
    }
}

impl WireEncode for NextSelect {
    fn encode(&self, buf: &mut Vec<u8>) {
        match &self.0 {
            None => buf.push(0),
            Some(action) => action.encode(buf),
        }
    }
}

impl WireDecode for NextSelect {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.peek()? == 0 {
            r.read_bytes(1)?;
            return Ok(Self(None));
        }
        SelectAction::decode(r).map(|action| Self(Some(action)))
    }
}

/// Per-partition expansion state.
pub struct ExpansionState {
    /// The partition this process expands (== rank).
    pub part: Part,
    /// Boundary priority queue `B_p`.
    pub boundary: Boundary,
    /// Allocated edge ids `E_p` (the partition's final content).
    pub edges: Vec<EdgeId>,
    /// Capacity `α·|E_init|/|P|`.
    pub limit: u64,
    /// Expansion factor λ.
    pub lambda: f64,
}

impl ExpansionState {
    /// Fresh state for partition `part` with capacity `limit`.
    pub fn new(part: Part, limit: u64, lambda: f64) -> Self {
        Self { part, boundary: Boundary::new(), edges: Vec::new(), limit, lambda }
    }

    /// Size `edges` once for the whole run of a `num_edges`-edge graph:
    /// room for `min(limit, |E|)` ids, which a partition outgrows only by
    /// the bounded overshoot of its last round ([`ExpansionState::absorb`]
    /// then grows it by exactly what arrives).
    pub fn reserve_edges(&mut self, num_edges: u64) {
        let room = self.limit.min(num_edges) as usize;
        self.edges.reserve_exact(room.saturating_sub(self.edges.len()));
    }

    /// Whether this partition reached its capacity (stops selecting; the
    /// machine keeps serving allocation duties for the others).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.edges.len() as u64 >= self.limit
    }

    /// Decide this iteration's selection (Algorithm 1 lines 3–7 /
    /// Algorithm 4 lines 3–9).
    ///
    /// `local_free` is the colocated allocator's free-edge count;
    /// `free_hints` the last-known free counts of all allocators (gossip).
    ///
    /// The only state this mutates is the boundary queue (the popped
    /// frontier vertices), and it never reads or writes `edges` — the
    /// driver relies on this to *speculate* the next round's selection
    /// while the termination all-gather of [`ExpansionState::size`] is
    /// still in flight, without perturbing the gathered value or the
    /// final edge set.
    pub fn select(
        &mut self,
        local_rank: usize,
        local_free: u64,
        free_hints: &[u64],
    ) -> SelectAction {
        if self.is_full() {
            return SelectAction::Nothing;
        }
        let budget = self.limit - self.size();
        if !self.boundary.is_empty() {
            let vs = self.boundary.pop_lambda_capped(self.lambda, budget);
            if !vs.is_empty() {
                return SelectAction::Vertices { vertices: vs };
            }
            // Even the min-D_rest boundary vertex would overshoot the
            // capacity (its join-time score exceeds the budget — possibly
            // stale-high). Fall through to a budget-fitting random restart
            // so the partition keeps filling with small edge bundles
            // instead of starving; the global stall/trickle path catches
            // the case where nothing fits anywhere.
        }
        if local_free > 0 {
            return SelectAction::Random { target: local_rank, budget };
        }
        // Remote random restart: allocator with the most free edges.
        let best = free_hints
            .iter()
            .enumerate()
            .max_by_key(|&(i, &f)| (f, std::cmp::Reverse(i)))
            .map(|(i, &f)| (i, f));
        match best {
            Some((target, f)) if f > 0 => SelectAction::Random { target, budget },
            _ => SelectAction::Nothing,
        }
    }

    /// Fold one iteration's results: `boundary_updates` are `(vertex,
    /// local-D_rest)` contributions from the allocators (a vertex may be
    /// reported by several allocators; scores sum to the global `D_rest`,
    /// Equation 3/4), `new_edges` the edge ids newly allocated to this
    /// partition.
    pub fn absorb(&mut self, boundary_updates: &[(VertexId, u64)], new_edges: &[EdgeId]) {
        let mut summed: FastMap<VertexId, u64> = FastMap::default();
        for &(v, d) in boundary_updates {
            *summed.entry(v).or_insert(0) += d;
        }
        // Deterministic insertion order (scores are per-vertex totals, but
        // heap ties break by id, so order does not matter for quality —
        // sorting keeps runs bit-identical anyway).
        let mut items: Vec<(VertexId, u64)> = summed.into_iter().collect();
        items.sort_unstable();
        for (v, d) in items {
            self.boundary.insert(v, d);
        }
        self.edges.reserve_exact(new_edges.len()); // no-op unless past the pre-sized room
        self.edges.extend_from_slice(new_edges);
    }

    /// `|E_p|` so far.
    #[inline]
    pub fn size(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Estimated live heap bytes (mem-score accounting).
    pub fn heap_bytes(&self) -> usize {
        self.edges.capacity() * 8 + self.boundary.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_from_boundary_when_available() {
        let mut e = ExpansionState::new(0, 100, 0.5);
        e.absorb(&[(5, 2), (6, 1)], &[]);
        match e.select(0, 10, &[10]) {
            SelectAction::Vertices { vertices } => assert_eq!(vertices, vec![6]), // ⌈0.5·2⌉ = 1, min score
            other => panic!("expected vertices, got {other:?}"),
        }
    }

    #[test]
    fn random_restart_prefers_local() {
        let mut e = ExpansionState::new(0, 100, 0.1);
        assert_eq!(e.select(3, 5, &[0, 0, 0, 5]), SelectAction::Random { target: 3, budget: 100 });
    }

    #[test]
    fn random_restart_falls_back_to_richest_remote() {
        let mut e = ExpansionState::new(0, 100, 0.1);
        assert_eq!(e.select(0, 0, &[0, 7, 9, 9]), SelectAction::Random { target: 2, budget: 100 });
    }

    #[test]
    fn nothing_when_everything_empty() {
        let mut e = ExpansionState::new(0, 100, 0.1);
        assert_eq!(e.select(0, 0, &[0, 0]), SelectAction::Nothing);
    }

    #[test]
    fn full_partition_stops_selecting() {
        let mut e = ExpansionState::new(0, 2, 0.1);
        e.absorb(&[(1, 1)], &[10, 11]);
        assert!(e.is_full());
        assert_eq!(e.select(0, 5, &[5]), SelectAction::Nothing);
    }

    #[test]
    fn absorb_sums_drest_across_allocators() {
        let mut e = ExpansionState::new(0, 100, 1.0);
        // Vertex 9 reported by three allocators with local scores 1, 2, 4.
        e.absorb(&[(9, 1), (9, 2), (9, 4)], &[]);
        e.absorb(&[(8, 3)], &[]);
        match e.select(0, 1, &[1]) {
            SelectAction::Vertices { vertices } => {
                // λ=1 pops both; 8 (score 3) before 9 (score 7).
                assert_eq!(vertices, vec![8, 9]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn edges_accumulate() {
        let mut e = ExpansionState::new(0, 10, 0.1);
        e.absorb(&[], &[1, 2]);
        e.absorb(&[], &[3]);
        assert_eq!(e.size(), 3);
        assert_eq!(e.edges, vec![1, 2, 3]);
    }

    #[test]
    fn next_select_shares_the_actions_tag_space() {
        assert_eq!(NextSelect(None).to_wire(), [0]);
        assert_eq!(NextSelect(Some(SelectAction::Nothing)).to_wire(), [3]);
        for action in [
            SelectAction::Vertices { vertices: vec![5, 9] },
            SelectAction::Random { target: 3, budget: 17 },
            SelectAction::Nothing,
        ] {
            let next = NextSelect(Some(action.clone()));
            assert_eq!(next.to_wire(), action.to_wire(), "Some(a) is a's plain encoding");
            assert_eq!(next.to_wire().len(), next.wire_bytes());
            assert_eq!(NextSelect::from_wire(&next.to_wire()).unwrap(), next);
        }
        assert_eq!(NextSelect::from_wire(&[0]).unwrap(), NextSelect(None));
        assert_eq!(NextSelect::from_wire(&[4]), Err(WireError::BadTag { tag: 4 }));
        assert_eq!(SelectAction::from_wire(&[0]), Err(WireError::BadTag { tag: 0 }));
        assert!(matches!(NextSelect::from_wire(&[]), Err(WireError::Truncated { .. })));
    }
}
