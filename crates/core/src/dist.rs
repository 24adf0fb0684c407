//! Initial 2D-hash distribution and the allocator-local CSR subgraph
//! (paper §4, "Data Structure").
//!
//! The input graph is distributed over the `|P|` allocation processes by 2D
//! hash: processes form an `R × C` grid and edge `e{u,v}` (canonical
//! `u < v`) lands on cell `(h(u) mod R, h(v) mod C)`. Two properties the
//! paper exploits are preserved exactly:
//!
//! * **edges are unique, vertices are replicated** — conflict resolution is
//!   local to an allocator (an edge has exactly one owner), while vertex
//!   allocation ids need the sync round;
//! * **replica metadata is functional** — the replica set of vertex `x` is
//!   `row(h(x)) ∪ column(h(x))`, computed from the id, never stored
//!   ("the metadata of replicated vertices can be calculated from vertex id
//!   …, which suppresses memory space in the case of trillion-edge
//!   graphs").
//!
//! The subgraph itself is CSR over local edge slots with one allocation
//! word per edge — "stored without any memory-consuming data structure such
//! as the hash map" (§7.3); the only hash map is the global→local id
//! mapping built at load time (charged to loading, like the paper's
//! excluded deployment phase).

use dne_graph::hash::{mix2, FastMap, SplitMix64};
use dne_graph::{EdgeId, Graph, HeapSize, VertexId};

use crate::messages::Part;

/// "Unallocated" sentinel in the per-edge allocation word.
pub const FREE: Part = Part::MAX;

/// The process grid of the 2D-hash distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2D {
    rows: u32,
    cols: u32,
    salt_row: u64,
    salt_col: u64,
}

impl Grid2D {
    /// Grid for `p` processes (uses the same near-square factorization as
    /// the Grid baseline partitioner).
    pub fn new(p: u32, seed: u64) -> Self {
        let (rows, cols) = dne_partition::hash_based::grid_dims(p);
        Self { rows, cols, salt_row: seed ^ 0x2D_5F52_4F57, salt_col: seed ^ 0x2D_5F43_4F4C }
    }

    /// Number of processes `rows × cols`.
    pub fn nprocs(&self) -> u32 {
        self.rows * self.cols
    }

    /// Row index of vertex `x` (as canonical first endpoint).
    #[inline]
    pub fn row_of(&self, x: VertexId) -> u32 {
        (mix2(self.salt_row, x) % self.rows as u64) as u32
    }

    /// Column index of vertex `x` (as canonical second endpoint).
    #[inline]
    pub fn col_of(&self, x: VertexId) -> u32 {
        (mix2(self.salt_col, x) % self.cols as u64) as u32
    }

    /// Owner process of canonical edge `(u, v)`.
    #[inline]
    pub fn owner(&self, u: VertexId, v: VertexId) -> u32 {
        self.row_of(u) * self.cols + self.col_of(v)
    }

    /// Replica set of vertex `x`: every process that may own an edge
    /// incident to `x` — its whole row plus its whole column. Computed,
    /// never stored. `R + C − 1` processes.
    pub fn replicas(&self, x: VertexId) -> Vec<u32> {
        let r = self.row_of(x);
        let c = self.col_of(x);
        let mut out = Vec::with_capacity((self.rows + self.cols - 1) as usize);
        for col in 0..self.cols {
            out.push(r * self.cols + col);
        }
        for row in 0..self.rows {
            let cell = row * self.cols + c;
            if row != r {
                out.push(cell);
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether process `rank` is a replica holder of vertex `x` (O(1),
    /// avoids materializing the replica vector on hot paths).
    #[inline]
    pub fn is_replica(&self, rank: u32, x: VertexId) -> bool {
        rank / self.cols == self.row_of(x) || rank % self.cols == self.col_of(x)
    }
}

/// Allocator-local subgraph: the edges owned by one allocation process in
/// CSR form, plus the mutable allocation state.
pub struct AllocatorPart {
    /// Global vertex id of each local vertex (sorted ascending).
    pub global_ids: Vec<VertexId>,
    /// Reverse map global → local (built once at load).
    local_of: FastMap<VertexId, u32>,
    /// CSR offsets over local vertices.
    offsets: Vec<u64>,
    /// Adjacency: local index of the neighbor.
    adj_nbr: Vec<u32>,
    /// Adjacency: local edge slot.
    adj_edge: Vec<u32>,
    /// Global edge id per local edge slot.
    pub edge_global: Vec<EdgeId>,
    /// Allocation word per local edge ([`FREE`] until claimed).
    pub edge_part: Vec<Part>,
    /// Remaining (unallocated) local degree per local vertex.
    pub rest: Vec<u64>,
    /// Partition memberships per local vertex (sorted, tiny). Private so
    /// that `vparts_heap_bytes` cannot drift: sets grow only through
    /// [`AllocatorPart::add_membership`] and are replaced only through
    /// [`AllocatorPart::set_vparts`].
    vparts: Vec<Vec<Part>>,
    /// Heap bytes of the membership sets, `Σ capacity · 4` — what a walk
    /// over `vparts` would sum, kept current so the per-round memory
    /// report is O(1).
    vparts_heap_bytes: usize,
    /// Locally allocated edge count per partition (`SubG.NumEdges`).
    pub part_edges: Vec<u64>,
    /// Number of still-unallocated local edges.
    pub free_edges: u64,
    /// Shuffled local-vertex scan order for random restarts.
    scan_order: Vec<u32>,
    scan_cursor: usize,
}

impl AllocatorPart {
    /// Build the subgraph of `rank` by scanning the full edge stream for
    /// this rank's 2D-hash share (test convenience; the partitioner
    /// pre-buckets once and calls [`AllocatorPart::from_owned_edges`]).
    pub fn build(g: &Graph, grid: &Grid2D, rank: u32, seed: u64) -> Self {
        let mut local_edges: Vec<(EdgeId, VertexId, VertexId)> = Vec::new();
        g.for_each_edge(|e, u, v| {
            if grid.owner(u, v) == rank {
                local_edges.push((e, u, v));
            }
        });
        Self::from_owned_edges(local_edges, rank, seed)
    }

    /// Build the subgraph from this rank's pre-bucketed `(edge id, u, v)`
    /// triplets — the "initial deployment" the paper excludes from
    /// partitioning time. The triplets carry their own endpoints, so the
    /// build never reads back through the input graph: one sequential
    /// edge-stream pass over *any* storage backend (including the
    /// chunk-streamed one) is enough to deploy all allocators.
    pub fn from_owned_edges(
        local_edges: Vec<(EdgeId, VertexId, VertexId)>,
        rank: u32,
        seed: u64,
    ) -> Self {
        // Local vertex set.
        let mut verts: Vec<VertexId> = Vec::with_capacity(local_edges.len() * 2);
        for &(_, u, v) in &local_edges {
            verts.push(u);
            verts.push(v);
        }
        verts.sort_unstable();
        verts.dedup();
        let local_of: FastMap<VertexId, u32> =
            verts.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        let n = verts.len();
        // Degrees → offsets.
        let mut deg = vec![0u64; n];
        for &(_, u, v) in &local_edges {
            deg[local_of[&u] as usize] += 1;
            deg[local_of[&v] as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let slots = offsets[n] as usize;
        let mut adj_nbr = vec![0u32; slots];
        let mut adj_edge = vec![0u32; slots];
        let mut cursor = offsets.clone();
        for (le, &(_, u, v)) in local_edges.iter().enumerate() {
            let (lu, lv) = (local_of[&u], local_of[&v]);
            let cu = cursor[lu as usize] as usize;
            adj_nbr[cu] = lv;
            adj_edge[cu] = le as u32;
            cursor[lu as usize] += 1;
            let cv = cursor[lv as usize] as usize;
            adj_nbr[cv] = lu;
            adj_edge[cv] = le as u32;
            cursor[lv as usize] += 1;
        }
        let free_edges = local_edges.len() as u64;
        let local_edges: Vec<EdgeId> = local_edges.into_iter().map(|(e, _, _)| e).collect();
        let mut scan_order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix64::new(mix2(seed, rank as u64) ^ 0x41_4C4C_4F43); // "ALLOC"
        for i in (1..scan_order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            scan_order.swap(i, j);
        }
        Self {
            global_ids: verts,
            local_of,
            offsets,
            adj_nbr,
            adj_edge,
            edge_part: vec![FREE; local_edges.len()],
            edge_global: local_edges,
            rest: deg,
            vparts: vec![Vec::new(); n],
            vparts_heap_bytes: 0,
            part_edges: Vec::new(), // sized on first use via ensure_parts
            free_edges,
            scan_order,
            scan_cursor: 0,
        }
    }

    /// Size the per-partition edge counters for `p` partitions.
    pub fn ensure_parts(&mut self, p: usize) {
        if self.part_edges.len() < p {
            self.part_edges.resize(p, 0);
        }
    }

    /// Local index of a global vertex, if present here.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> Option<u32> {
        self.local_of.get(&v).copied()
    }

    /// Number of local vertices.
    pub fn num_local_vertices(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of local (owned) edges.
    pub fn num_local_edges(&self) -> usize {
        self.edge_global.len()
    }

    /// Adjacency slots of local vertex `lv`: `(neighbor local idx, edge slot)`.
    #[inline]
    pub fn neighbors(&self, lv: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[lv as usize] as usize;
        let hi = self.offsets[lv as usize + 1] as usize;
        self.adj_nbr[lo..hi].iter().copied().zip(self.adj_edge[lo..hi].iter().copied())
    }

    /// Record membership `(lv, p)`; returns true if it is new.
    #[inline]
    pub fn add_membership(&mut self, lv: u32, p: Part) -> bool {
        let set = &mut self.vparts[lv as usize];
        match set.binary_search(&p) {
            Ok(_) => false,
            Err(pos) => {
                let before = set.heap_bytes();
                set.insert(pos, p);
                self.vparts_heap_bytes += set.heap_bytes() - before;
                true
            }
        }
    }

    /// Partition memberships of local vertex `lv`, sorted ascending.
    #[inline]
    pub fn memberships(&self, lv: u32) -> &[Part] {
        &self.vparts[lv as usize]
    }

    /// Every local vertex's membership set (checkpointing).
    pub fn vparts(&self) -> &[Vec<Part>] {
        &self.vparts
    }

    /// Replace all membership sets from a checkpoint (one per local
    /// vertex) and rebuild the cached byte count from their capacities.
    pub fn set_vparts(&mut self, vparts: Vec<Vec<Part>>) {
        assert_eq!(vparts.len(), self.num_local_vertices(), "one membership set per local vertex");
        self.vparts = vparts;
        self.vparts_heap_bytes = self.recount_vparts_heap_bytes();
    }

    /// Cached heap bytes of the membership sets (the term
    /// [`HeapSize::heap_bytes`] charges for them).
    pub(crate) fn vparts_heap_bytes(&self) -> usize {
        self.vparts_heap_bytes
    }

    /// The walk `vparts_heap_bytes` caches: O(|V_local|), for the debug
    /// cross-check at the end of a run and for tests — never per round.
    pub(crate) fn recount_vparts_heap_bytes(&self) -> usize {
        self.vparts.iter().map(HeapSize::heap_bytes).sum()
    }

    /// Whether local vertex `lv` is a member of partition `p`.
    #[inline]
    pub fn is_member(&self, lv: u32, p: Part) -> bool {
        self.vparts[lv as usize].binary_search(&p).is_ok()
    }

    /// Claim edge slot `le` for partition `p`. Returns false if already
    /// allocated (the conflict case the paper resolves locally).
    #[inline]
    pub fn claim_edge(&mut self, le: u32, p: Part) -> bool {
        if self.edge_part[le as usize] != FREE {
            return false;
        }
        self.edge_part[le as usize] = p;
        self.part_edges[p as usize] += 1;
        self.free_edges -= 1;
        true
    }

    /// Decrement the rest degree of both endpoints of edge slot `le`.
    #[inline]
    pub fn consume_rest(&mut self, lu: u32, lv: u32) {
        self.rest[lu as usize] -= 1;
        self.rest[lv as usize] -= 1;
    }

    /// Position of the random-restart scan cursor (checkpointing).
    pub fn scan_cursor(&self) -> usize {
        self.scan_cursor
    }

    /// Restore the random-restart scan cursor from a checkpoint.
    pub fn set_scan_cursor(&mut self, cursor: usize) {
        assert!(cursor <= self.scan_order.len(), "scan cursor {cursor} out of range");
        self.scan_cursor = cursor;
    }

    /// Next local vertex with unallocated edges in the shuffled scan order
    /// (the allocator-side random restart of Algorithm 1 line 7).
    pub fn random_free_vertex(&mut self) -> Option<u32> {
        self.random_free_vertex_within(u64::MAX)
    }

    /// Budget-aware random restart: the first free vertex (in the seeded
    /// shuffled order) whose remaining local degree fits `budget`, so a
    /// nearly-full partition cannot be handed a hub that blows its
    /// `α·|E|/|P|` capacity. The scan cursor only advances past exhausted
    /// vertices; over-budget vertices stay available for later (or for
    /// other partitions).
    pub fn random_free_vertex_within(&mut self, budget: u64) -> Option<u32> {
        while self.scan_cursor < self.scan_order.len() {
            let lv = self.scan_order[self.scan_cursor];
            if self.rest[lv as usize] > 0 {
                break;
            }
            self.scan_cursor += 1;
        }
        for i in self.scan_cursor..self.scan_order.len() {
            let lv = self.scan_order[i];
            let rest = self.rest[lv as usize];
            if rest > 0 && rest <= budget {
                return Some(lv);
            }
        }
        None
    }
}

impl HeapSize for AllocatorPart {
    fn heap_bytes(&self) -> usize {
        // The CSR arrays plus the mutable allocation state; the global→local
        // map is charged too (it is live through the whole run). Called
        // once per round, so every term is O(1): the membership sets are
        // charged through their cached count (their outer `Vec` headers
        // are not charged).
        self.global_ids.heap_bytes()
            + self.offsets.heap_bytes()
            + self.adj_nbr.heap_bytes()
            + self.adj_edge.heap_bytes()
            + self.edge_global.heap_bytes()
            + self.edge_part.heap_bytes()
            + self.rest.heap_bytes()
            + self.vparts_heap_bytes
            + self.part_edges.heap_bytes()
            + self.scan_order.heap_bytes()
            + self.local_of.capacity() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;

    #[test]
    fn grid_partitions_every_edge_exactly_once() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let p = 6;
        let grid = Grid2D::new(p, 42);
        let mut seen = 0u64;
        for rank in 0..p {
            let part = AllocatorPart::build(&g, &grid, rank, 42);
            seen += part.num_local_edges() as u64;
        }
        assert_eq!(seen, g.num_edges());
    }

    #[test]
    fn replica_set_covers_all_incident_edges() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
        let grid = Grid2D::new(8, 7);
        for e in 0..g.num_edges() {
            let (u, v) = g.edge(e);
            let owner = grid.owner(u, v);
            assert!(grid.replicas(u).contains(&owner), "edge owner must hold endpoint u");
            assert!(grid.replicas(v).contains(&owner), "edge owner must hold endpoint v");
            assert!(grid.is_replica(owner, u));
            assert!(grid.is_replica(owner, v));
        }
    }

    #[test]
    fn replica_count_is_row_plus_col_minus_one() {
        let grid = Grid2D::new(12, 1); // 3 x 4
        for x in 0..100u64 {
            assert_eq!(grid.replicas(x).len(), 3 + 4 - 1);
        }
    }

    #[test]
    fn is_replica_matches_replica_list() {
        let grid = Grid2D::new(8, 3);
        for x in 0..50u64 {
            let set = grid.replicas(x);
            for rank in 0..8 {
                assert_eq!(set.contains(&rank), grid.is_replica(rank, x), "vertex {x} rank {rank}");
            }
        }
    }

    #[test]
    fn local_csr_is_consistent() {
        let g = gen::complete(10);
        let grid = Grid2D::new(4, 5);
        for rank in 0..4 {
            let part = AllocatorPart::build(&g, &grid, rank, 5);
            let mut slot_seen = vec![0u32; part.num_local_edges()];
            for lv in 0..part.num_local_vertices() as u32 {
                for (nbr, le) in part.neighbors(lv) {
                    assert!(nbr != lv, "self loop in local CSR");
                    slot_seen[le as usize] += 1;
                }
            }
            // Every local edge appears in exactly two adjacency slots.
            assert!(slot_seen.iter().all(|&c| c == 2));
        }
    }

    #[test]
    fn claim_and_conflict_semantics() {
        let g = gen::cycle(8);
        let grid = Grid2D::new(1, 1);
        let mut part = AllocatorPart::build(&g, &grid, 0, 1);
        part.ensure_parts(2);
        assert!(part.claim_edge(0, 1));
        assert!(!part.claim_edge(0, 0), "second claim must fail");
        assert_eq!(part.edge_part[0], 1);
        assert_eq!(part.part_edges[1], 1);
        assert_eq!(part.free_edges, 7);
    }

    #[test]
    fn membership_dedup() {
        let g = gen::path(4);
        let grid = Grid2D::new(1, 1);
        let mut part = AllocatorPart::build(&g, &grid, 0, 1);
        assert!(part.add_membership(0, 2));
        assert!(!part.add_membership(0, 2));
        assert!(part.is_member(0, 2));
        assert!(!part.is_member(0, 1));
    }

    /// `heap_bytes` with the membership term recounted by the walk the
    /// cached counter replaced — the reference the counter must equal.
    fn recounted_heap_bytes(part: &AllocatorPart) -> usize {
        part.global_ids.heap_bytes()
            + part.offsets.heap_bytes()
            + part.adj_nbr.heap_bytes()
            + part.adj_edge.heap_bytes()
            + part.edge_global.heap_bytes()
            + part.edge_part.heap_bytes()
            + part.rest.heap_bytes()
            + part.vparts.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + part.part_edges.heap_bytes()
            + part.scan_order.heap_bytes()
            + part.local_of.capacity() * 16
    }

    mod properties {
        use super::*;
        use crate::snapshot::AllocState;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The O(1) byte count is exact after every step of any
            /// `add_membership` sequence (new and duplicate memberships,
            /// sets growing through several capacity doublings), and
            /// across a checkpoint capture → restore, which swaps in sets
            /// of different capacity.
            #[test]
            fn heap_bytes_equals_a_full_recount(
                ops in prop::collection::vec((0u32..12, 0u32..40, 0u8..16), 0..300),
            ) {
                let g = gen::path(12);
                let mut part = AllocatorPart::build(&g, &Grid2D::new(1, 1), 0, 1);
                prop_assert_eq!(part.heap_bytes(), recounted_heap_bytes(&part));
                for (lv, p, roundtrip) in ops {
                    part.add_membership(lv, p);
                    if roundtrip == 0 {
                        AllocState::capture(&part).restore(&mut part).expect("same shape");
                    }
                    prop_assert_eq!(part.heap_bytes(), recounted_heap_bytes(&part));
                }
            }
        }
    }

    #[test]
    fn random_free_vertex_skips_exhausted() {
        let g = gen::path(3);
        let grid = Grid2D::new(1, 1);
        let mut part = AllocatorPart::build(&g, &grid, 0, 9);
        part.ensure_parts(1);
        // Allocate everything.
        for le in 0..part.num_local_edges() as u32 {
            let _ = part.claim_edge(le, 0);
        }
        part.rest.iter_mut().for_each(|r| *r = 0);
        assert_eq!(part.random_free_vertex(), None);
    }
}
