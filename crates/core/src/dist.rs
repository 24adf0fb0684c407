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
//! as the hash map" (§7.3). Global ids translate to local ones through
//! [`LocalIds`]: a rank bitmap over the machine's id range, set in one pass
//! over the endpoints, so `local_of` is a bit test plus a popcount.
//!
//! ## Layout
//!
//! What one [`AllocatorPart`] holds, all of it charged by
//! [`HeapSize::heap_bytes`] and none of it with slack after
//! [`AllocatorPart::from_owned_edges`] (capacity equals length):
//!
//! | per local edge | bytes | |
//! |---|---|---|
//! | adjacency | 16 | neighbor + edge slot, `u32` each, once per endpoint |
//! | global edge id | ≈ 1.25–2 | `edge_global`, a [`PackedIds`]: deltas from each 64-edge block's minimum, plus a 16-byte header per block (1.25 at P = 4, 1.5 at 16, 2.0 at 256 on RMAT) |
//! | allocation word | 4 | `edge_part`, [`FREE`] until claimed |
//!
//! | per local (replicated) vertex | bytes | |
//! |---|---|---|
//! | global id | ≈ 1.2–1.8 | ascending (local ids are monotone in global ids), packed like the edge ids |
//! | rank bitmap | 12 per 64 ids | [`LocalIds`]' bit words and their counts, below the rank's largest id |
//! | CSR offset | 4 | `u32` — the slot count is asserted to fit |
//! | rest degree | 4 | `u32` — it counts `u32`-indexed adjacency slots |
//! | scan slot | 4 | the shuffled random-restart order |
//! | memberships | 8 | two inline `Part` words: sets of up to two partitions |
//!
//! A vertex in three or more partitions spills its set into one shared
//! arena (power-of-two blocks of at least four words, abandoned blocks
//! reused through per-size free lists); the arena is the only part of the
//! allocator that grows during a run, `part_edges` (8 bytes per
//! *partition*) the only other term. A vertex never owns a heap
//! allocation of its own.

use dne_graph::hash::{mix2, SplitMix64};
use dne_graph::{EdgeId, Graph, HeapSize, LocalIds, PackedIds, VertexId};

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

/// Word of an unused inline membership slot.
const EMPTY: Part = Part::MAX;
/// Flag in a vertex's second membership word: the set has spilled — the low
/// bits are its length and the first word is its arena offset.
const SPILLED: Part = 1 << 31;
/// End of a free-block list.
const NO_BLOCK: u32 = u32::MAX;

/// Arena block capacity that holds a spilled set of `len` memberships.
#[inline]
fn block_cap(len: usize) -> usize {
    len.next_power_of_two().max(4)
}

/// The membership sets `Parti(v)` of every local vertex, flat: two inline
/// words per vertex and one shared arena for the sets of three or more.
/// Every set reads as one sorted slice; no vertex owns a heap allocation.
struct Memberships {
    /// `[a, b]` per local vertex: `[EMPTY, EMPTY]`, `[p, EMPTY]`, `[p, q]`
    /// with `p < q`, or `[arena offset, SPILLED | len]`.
    inline: Vec<[Part; 2]>,
    /// Spilled sets in power-of-two blocks of at least four words; a set
    /// moves to the next block size when it outgrows its block.
    arena: Vec<Part>,
    /// Head of the abandoned-block list per size class (`4 << class`
    /// words), reused before the arena grows; a free block's first word
    /// links the next one.
    free: Vec<u32>,
}

impl Memberships {
    fn new(n: usize) -> Self {
        Self { inline: vec![[EMPTY; 2]; n], arena: Vec::new(), free: Vec::new() }
    }

    /// One store holding exactly `sets` (each sorted ascending), every
    /// spilled set in a block of its own size and the arena without slack.
    fn from_sets(sets: &[Vec<Part>]) -> Self {
        let mut store = Self::new(sets.len());
        let spill = sets.iter().filter(|s| s.len() > 2).map(|s| block_cap(s.len())).sum();
        assert!(spill <= SPILLED as usize, "membership arena outgrew its 31-bit offsets");
        store.arena = Vec::with_capacity(spill);
        for (slot, set) in store.inline.iter_mut().zip(sets) {
            match set[..] {
                [] => {}
                [p] => slot[0] = p,
                [p, q] => *slot = [p, q],
                _ => {
                    *slot = [store.arena.len() as Part, SPILLED | set.len() as Part];
                    store.arena.extend_from_slice(set);
                    store.arena.resize(store.arena.len() + block_cap(set.len()) - set.len(), EMPTY);
                }
            }
        }
        store
    }

    #[inline]
    fn get(&self, lv: u32) -> &[Part] {
        let words = &self.inline[lv as usize];
        match words[1] {
            EMPTY => &words[..usize::from(words[0] != EMPTY)],
            w if w & SPILLED != 0 => {
                let at = words[0] as usize;
                &self.arena[at..at + (w & !SPILLED) as usize]
            }
            _ => words,
        }
    }

    /// Add `p` to the set of `lv`; false if it was already there.
    fn insert(&mut self, lv: u32, p: Part) -> bool {
        debug_assert!(p < SPILLED, "partition id {p} collides with the spill flag");
        let set = self.get(lv);
        let Err(pos) = set.binary_search(&p) else { return false };
        let len = set.len();
        let [a, b] = self.inline[lv as usize];
        if len < 2 {
            self.inline[lv as usize] = match (len, pos) {
                (0, _) => [p, EMPTY],
                (_, 0) => [p, a],
                _ => [a, p],
            };
            return true;
        }
        let cap = block_cap(len + 1);
        let at = if len > 2 && cap == block_cap(len) {
            a as usize
        } else {
            let at = self.take_block(cap);
            if len == 2 {
                self.arena[at..at + 2].copy_from_slice(&[a, b]);
            } else {
                self.arena.copy_within(a as usize..a as usize + len, at);
                self.give_block(a, block_cap(len));
            }
            at
        };
        self.arena.copy_within(at + pos..at + len, at + pos + 1);
        self.arena[at + pos] = p;
        self.inline[lv as usize] = [at as Part, SPILLED | (len + 1) as Part];
        true
    }

    /// Offset of a block of `cap` words: an abandoned one of that size if
    /// there is one, else fresh arena.
    fn take_block(&mut self, cap: usize) -> usize {
        let class = cap.trailing_zeros() as usize - 2;
        if self.free.len() <= class {
            self.free.resize(class + 1, NO_BLOCK);
        }
        let head = self.free[class];
        if head != NO_BLOCK {
            self.free[class] = self.arena[head as usize];
            return head as usize;
        }
        let at = self.arena.len();
        assert!(at + cap <= SPILLED as usize, "membership arena outgrew its 31-bit offsets");
        self.arena.resize(at + cap, EMPTY);
        at
    }

    fn give_block(&mut self, at: Part, cap: usize) {
        let class = cap.trailing_zeros() as usize - 2;
        self.arena[at as usize] = self.free[class];
        self.free[class] = at;
    }

    /// Every set as an owned vector (the shape `DNESNAP2` stores).
    fn to_sets(&self) -> Vec<Vec<Part>> {
        (0..self.inline.len() as u32).map(|lv| self.get(lv).to_vec()).collect()
    }

    /// What [`HeapSize::heap_bytes`] must equal, from a walk: the inline
    /// words by count, the arena as the blocks the sets occupy plus the
    /// blocks on the free lists plus its unused tail. O(|V_local|) — for
    /// the end-of-run debug cross-check and for tests, never per round.
    fn recount_heap_bytes(&self) -> usize {
        let live: usize = (0..self.inline.len() as u32)
            .map(|lv| self.get(lv).len())
            .filter(|&len| len > 2)
            .map(block_cap)
            .sum();
        let mut abandoned = 0;
        for (class, &head) in self.free.iter().enumerate() {
            let mut at = head;
            while at != NO_BLOCK {
                abandoned += 4 << class;
                at = self.arena[at as usize];
            }
        }
        let tail = self.arena.capacity() - self.arena.len();
        self.inline.len() * 8 + (live + abandoned + tail) * 4 + self.free.heap_bytes()
    }
}

impl HeapSize for Memberships {
    fn heap_bytes(&self) -> usize {
        self.inline.heap_bytes() + self.arena.heap_bytes() + self.free.heap_bytes()
    }
}

/// Allocator-local subgraph: the edges owned by one allocation process in
/// CSR form, plus the mutable allocation state.
pub struct AllocatorPart {
    /// The local vertices: global id of each local id (sorted ascending)
    /// and the translation back.
    local: LocalIds,
    /// CSR offsets over local vertices.
    offsets: Vec<u32>,
    /// Adjacency: local index of the neighbor. Within a vertex's range the
    /// slots are a permutation of the load-time order in which the still
    /// free ones keep their relative order (see
    /// [`AllocatorPart::free_slots`]).
    adj_nbr: Vec<u32>,
    /// Adjacency: local edge slot (moves together with `adj_nbr`).
    adj_edge: Vec<u32>,
    /// Global edge id per local edge slot, read through
    /// [`AllocatorPart::edge_id`].
    edge_global: PackedIds,
    /// Allocation word per local edge ([`FREE`] until claimed).
    pub edge_part: Vec<Part>,
    /// Remaining (unallocated) local degree per local vertex: the number
    /// of [`FREE`] slots in the vertex's adjacency range.
    pub rest: Vec<u32>,
    /// Partition memberships per local vertex. Private: sets grow only
    /// through [`AllocatorPart::add_membership`] and are replaced only
    /// through [`AllocatorPart::set_vparts`].
    members: Memberships,
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
    ///
    /// Every array it returns is exactly as large as its contents,
    /// whatever slack the bucket came with.
    pub fn from_owned_edges(
        local_edges: Vec<(EdgeId, VertexId, VertexId)>,
        rank: u32,
        seed: u64,
    ) -> Self {
        let slots = 2 * local_edges.len();
        assert!(slots <= u32::MAX as usize, "{slots} adjacency slots overflow the u32 offsets");
        let local = LocalIds::new(local_edges.iter().flat_map(|&(_, u, v)| [u, v]));
        let lid = |v| local.get(v).expect("an endpoint of a local edge is a local vertex");
        let n = local.len();
        // Degrees → offsets.
        let mut deg = vec![0u32; n];
        for &(_, u, v) in &local_edges {
            deg[lid(u) as usize] += 1;
            deg[lid(v) as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut adj_nbr = vec![0u32; slots];
        let mut adj_edge = vec![0u32; slots];
        let mut cursor = offsets.clone();
        for (le, &(_, u, v)) in local_edges.iter().enumerate() {
            let (lu, lv) = (lid(u), lid(v));
            let cu = cursor[lu as usize] as usize;
            adj_nbr[cu] = lv;
            adj_edge[cu] = le as u32;
            cursor[lu as usize] += 1;
            let cv = cursor[lv as usize] as usize;
            adj_nbr[cv] = lu;
            adj_edge[cv] = le as u32;
            cursor[lv as usize] += 1;
        }
        // Packed straight from the bucket, which is dropped with its slack.
        let edge_global = PackedIds::new(local_edges.iter().map(|&(e, _, _)| e));
        drop(local_edges);
        let mut scan_order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix64::new(mix2(seed, rank as u64) ^ 0x41_4C4C_4F43); // "ALLOC"
        for i in (1..scan_order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            scan_order.swap(i, j);
        }
        Self {
            local,
            offsets,
            adj_nbr,
            adj_edge,
            edge_part: vec![FREE; edge_global.len()],
            free_edges: edge_global.len() as u64,
            edge_global,
            rest: deg,
            members: Memberships::new(n),
            part_edges: Vec::new(), // sized on first use via ensure_parts
            scan_order,
            scan_cursor: 0,
        }
    }

    /// Size the per-partition edge counters for `p` partitions.
    pub fn ensure_parts(&mut self, p: usize) {
        assert!(p < SPILLED as usize, "{p} partitions collide with the membership spill flag");
        if self.part_edges.len() < p {
            self.part_edges.reserve_exact(p - self.part_edges.len());
            self.part_edges.resize(p, 0);
        }
    }

    /// Local index of a global vertex, if present here.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> Option<u32> {
        self.local.get(v)
    }

    /// Global id of local vertex `lv` (local ids ascend with global ones).
    #[inline]
    pub fn global_id(&self, lv: u32) -> VertexId {
        self.local.id(lv)
    }

    /// Global id of local edge slot `le`.
    #[inline]
    pub fn edge_id(&self, le: u32) -> EdgeId {
        self.edge_global.get(le as usize)
    }

    /// Number of local vertices.
    pub fn num_local_vertices(&self) -> usize {
        self.local.len()
    }

    /// Number of local (owned) edges.
    pub fn num_local_edges(&self) -> usize {
        self.edge_global.len()
    }

    /// Adjacency range of local vertex `lv` (positions for
    /// [`AllocatorPart::slot`]).
    #[inline]
    fn range(&self, lv: u32) -> std::ops::Range<usize> {
        self.offsets[lv as usize] as usize..self.offsets[lv as usize + 1] as usize
    }

    /// The adjacency slot at `pos`: `(neighbor local idx, edge slot)`.
    #[inline]
    pub fn slot(&self, pos: usize) -> (u32, u32) {
        (self.adj_nbr[pos], self.adj_edge[pos])
    }

    /// Adjacency slots of local vertex `lv`: `(neighbor local idx, edge slot)`.
    #[inline]
    pub fn neighbors(&self, lv: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.range(lv).map(|pos| self.slot(pos))
    }

    /// The still-[`FREE`] adjacency slots of `lv`, as a range of positions
    /// for [`AllocatorPart::slot`]: what `neighbors(lv)` filtered by
    /// `edge_part == FREE` yields, in the same order, at the cost of the
    /// slots it has to pass rather than of the vertex's whole degree.
    ///
    /// The walk stops once it has seen `rest[lv]` free slots (it reads
    /// nothing when `rest[lv] == 0`) and swaps each one forward to the
    /// front of the range, behind the free slots already found. Each swap
    /// exchanges it with a claimed slot, so free slots keep their relative
    /// order — every later scan still yields the load-time order — and the
    /// range stays a permutation of itself. Claiming a slot of the
    /// returned range does not move anything.
    pub fn free_slots(&mut self, lv: u32) -> std::ops::Range<usize> {
        let range = self.range(lv);
        let stop = range.start + self.rest[lv as usize] as usize;
        let mut end = range.start;
        for pos in range.clone() {
            if end == stop {
                break;
            }
            if self.edge_part[self.adj_edge[pos] as usize] == FREE {
                self.adj_nbr.swap(end, pos);
                self.adj_edge.swap(end, pos);
                end += 1;
            }
        }
        // The bound above is the range end whatever `rest` says; that the
        // two agree is the invariant every claim keeps by pairing
        // `claim_edge` with `consume_rest`.
        debug_assert_eq!(end, stop, "rest[{lv}] != number of FREE slots");
        range.start..end
    }

    /// Record membership `(lv, p)`; returns true if it is new.
    #[inline]
    pub fn add_membership(&mut self, lv: u32, p: Part) -> bool {
        self.members.insert(lv, p)
    }

    /// Partition memberships of local vertex `lv`, sorted ascending.
    #[inline]
    pub fn memberships(&self, lv: u32) -> &[Part] {
        self.members.get(lv)
    }

    /// Every local vertex's membership set (checkpointing).
    pub fn vparts(&self) -> Vec<Vec<Part>> {
        self.members.to_sets()
    }

    /// Replace all membership sets from a checkpoint (one per local
    /// vertex, each sorted ascending).
    pub fn set_vparts(&mut self, vparts: &[Vec<Part>]) {
        assert_eq!(vparts.len(), self.num_local_vertices(), "one membership set per local vertex");
        self.members = Memberships::from_sets(vparts);
    }

    /// What [`HeapSize::heap_bytes`] must equal, recounted from lengths
    /// and a walk over the membership store instead of read off
    /// capacities: it differs if any load-time array carries slack or the
    /// membership arena lost track of a block. O(|V_local|) — for the
    /// end-of-run debug cross-check and for tests, never per round.
    pub(crate) fn recount_heap_bytes(&self) -> usize {
        let (n, m) = (self.num_local_vertices(), self.num_local_edges());
        // The local ids (packed ids, bitmap words and counts) and the
        // packed edge ids as their own walks find them; per local vertex:
        // offset, rest, scan slot; per local edge: two adjacency slots of
        // two words, allocation word.
        self.local.recount_heap_bytes()
            + self.edge_global.recount_heap_bytes()
            + n * (4 + 4 + 4)
            + 4
            + m * (2 * 2 * 4 + 4)
            + self.members.recount_heap_bytes()
            + self.part_edges.len() * 8
    }

    /// Whether local vertex `lv` is a member of partition `p`.
    #[inline]
    pub fn is_member(&self, lv: u32, p: Part) -> bool {
        self.memberships(lv).binary_search(&p).is_ok()
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
            let rest = self.rest[lv as usize] as u64;
            if rest > 0 && rest <= budget {
                return Some(lv);
            }
        }
        None
    }
}

impl HeapSize for AllocatorPart {
    fn heap_bytes(&self) -> usize {
        // Everything the allocator owns, by capacity. Called once per
        // round, so every term is O(1).
        self.local.heap_bytes()
            + self.offsets.heap_bytes()
            + self.adj_nbr.heap_bytes()
            + self.adj_edge.heap_bytes()
            + self.edge_global.heap_bytes()
            + self.edge_part.heap_bytes()
            + self.rest.heap_bytes()
            + self.members.heap_bytes()
            + self.part_edges.heap_bytes()
            + self.scan_order.heap_bytes()
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

    #[test]
    fn deploy_keeps_no_slack_whatever_the_bucket_came_with() {
        // The two ways a bucket reaches `from_owned_edges` oversized: grown
        // by `push` (what `partition_with_stats` hands over) and allocated
        // ahead; and a bucket out of edge-id order, which the packed ids
        // must read back in slot order all the same.
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let mut pushed = Vec::new();
        g.for_each_edge(|e, u, v| pushed.push((e, u, v)));
        assert!(pushed.capacity() > pushed.len(), "the trap needs a bucket with slack");
        let mut ahead = Vec::with_capacity(4 * pushed.len());
        ahead.extend_from_slice(&pushed);
        let mut shuffled = pushed.clone();
        let mut rng = SplitMix64::new(7);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for (bucket, ascending) in [(pushed, true), (ahead, true), (shuffled, false)] {
            let m = bucket.len();
            let ids: Vec<EdgeId> = bucket.iter().map(|&(e, _, _)| e).collect();
            let part = AllocatorPart::from_owned_edges(bucket, 0, 1);
            let n = part.num_local_vertices();
            assert_eq!((part.offsets.len(), part.offsets.capacity()), (n + 1, n + 1));
            assert_eq!((part.adj_nbr.len(), part.adj_nbr.capacity()), (2 * m, 2 * m));
            assert_eq!((part.adj_edge.len(), part.adj_edge.capacity()), (2 * m, 2 * m));
            assert_eq!((part.edge_part.len(), part.edge_part.capacity()), (m, m));
            assert_eq!((part.rest.len(), part.rest.capacity()), (n, n));
            assert_eq!((part.scan_order.len(), part.scan_order.capacity()), (n, n));
            assert_eq!((part.members.inline.len(), part.members.inline.capacity()), (n, n));
            assert_eq!(part.members.arena.capacity(), 0);
            assert!((0..m as u32).all(|le| part.edge_id(le) == ids[le as usize]));
            assert!((1..n as u32).all(|lv| part.global_id(lv - 1) < part.global_id(lv)));
            // An ascending bucket's ids are dense deltas; a shuffled one's
            // still fit, at up to 8 bytes each plus the headers and the two
            // closing words.
            let packed = part.edge_global.heap_bytes();
            assert!(if ascending {
                packed < 2 * m
            } else {
                packed <= 8 * (m + 2) + 16 * (m / 64 + 2)
            });
            // The local ids and the edge ids as their walks find them +
            // offsets + two adjacency words in both directions + allocation
            // word + rest + two inline memberships + scan slot; nothing per
            // partition before ensure_parts.
            let closed_form = part.local.recount_heap_bytes()
                + part.edge_global.recount_heap_bytes()
                + 4 * (n + 1)
                + 2 * 4 * 2 * m
                + 4 * m
                + 4 * n
                + 2 * 4 * n
                + 4 * n;
            assert_eq!(part.heap_bytes(), closed_form);
            assert_eq!(part.heap_bytes(), part.recount_heap_bytes());
        }
    }

    mod properties {
        use super::*;
        use crate::snapshot::AllocState;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The flat membership store against a `BTreeSet` per vertex,
            /// through any `add_membership` sequence (new and duplicate
            /// memberships, sets spilling and outgrowing several blocks,
            /// abandoned blocks reused): every set reads sorted and equal
            /// to the model, the O(1) byte count is what a walk finds, and
            /// a checkpoint capture → restore → capture is the identity.
            #[test]
            fn memberships_match_a_set_model(
                ops in prop::collection::vec((0u32..12, 0u32..40, 0u8..16), 0..300),
            ) {
                let g = gen::path(12);
                let mut part = AllocatorPart::build(&g, &Grid2D::new(1, 1), 0, 1);
                part.ensure_parts(40);
                let mut model = vec![BTreeSet::new(); 12];
                prop_assert_eq!(part.heap_bytes(), part.recount_heap_bytes());
                for (lv, p, roundtrip) in ops {
                    prop_assert_eq!(part.add_membership(lv, p), model[lv as usize].insert(p));
                    if roundtrip == 0 {
                        let before = AllocState::capture(&part);
                        before.clone().restore(&mut part).expect("same shape");
                        prop_assert_eq!(AllocState::capture(&part), before);
                    }
                    for (lv, set) in model.iter().enumerate() {
                        let want: Vec<Part> = set.iter().copied().collect();
                        prop_assert_eq!(part.memberships(lv as u32), &want[..]);
                        prop_assert_eq!(part.is_member(lv as u32, p), set.contains(&p));
                    }
                    prop_assert_eq!(part.heap_bytes(), part.recount_heap_bytes());
                }
            }

            /// Under any interleaving of claims and scans, `free_slots`
            /// yields what filtering the load-time adjacency yields, in
            /// that order, and only ever permutes a vertex's range.
            #[test]
            fn free_slots_is_the_filtered_adjacency_in_load_order(
                seed in 0u64..1_000,
                ops in prop::collection::vec((0u32..64, 0u8..4), 0..200),
            ) {
                let g = gen::rmat(&gen::RmatConfig::graph500(5, 4, seed));
                let grid = Grid2D::new(1, 1);
                let mut part = AllocatorPart::build(&g, &grid, 0, 1);
                let mut pristine = AllocatorPart::build(&g, &grid, 0, 1);
                part.ensure_parts(1);
                pristine.ensure_parts(1);
                let n = part.num_local_vertices() as u32;
                for (x, op) in ops {
                    let lv = x % n;
                    if op == 0 {
                        // Claim the x-th of lv's free edges on both sides.
                        let free: Vec<(u32, u32)> = pristine
                            .neighbors(lv)
                            .filter(|&(_, le)| pristine.edge_part[le as usize] == FREE)
                            .collect();
                        let Some(&(nbr, le)) = free.get(x as usize % free.len().max(1)) else {
                            continue;
                        };
                        for side in [&mut part, &mut pristine] {
                            prop_assert!(side.claim_edge(le, 0));
                            side.consume_rest(lv, nbr);
                        }
                    }
                    let scanned: Vec<(u32, u32)> =
                        part.free_slots(lv).map(|pos| part.slot(pos)).collect();
                    let filtered: Vec<(u32, u32)> = pristine
                        .neighbors(lv)
                        .filter(|&(_, le)| pristine.edge_part[le as usize] == FREE)
                        .collect();
                    prop_assert_eq!(scanned, filtered);
                }
                let mut slot_seen = vec![0u32; part.num_local_edges()];
                for lv in 0..n {
                    let mut mine: Vec<(u32, u32)> = part.neighbors(lv).collect();
                    let mut loaded: Vec<(u32, u32)> = pristine.neighbors(lv).collect();
                    mine.sort_unstable();
                    loaded.sort_unstable();
                    prop_assert_eq!(mine, loaded, "range of {} is not a permutation", lv);
                    part.neighbors(lv).for_each(|(_, le)| slot_seen[le as usize] += 1);
                }
                prop_assert!(slot_seen.iter().all(|&c| c == 2));
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
