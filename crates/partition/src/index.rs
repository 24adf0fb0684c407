//! Sharded in-memory assignment index: the lookup-serving view of an
//! [`EdgeAssignment`].
//!
//! A finished partition is only useful when a downstream system can ask
//! "which machine owns edge `(u, v)`?" without replaying the partitioner.
//! [`ShardedAssignmentIndex`] answers that query from hash-sharded edge
//! maps, and the replication set of a vertex plus per-partition quality
//! stats from the assignment's [`ReplicaTable`] — both built by sequential
//! edge scans, so it works unchanged on every `DNE_GRAPH_STORAGE`
//! backend.
//!
//! The edge maps are sharded by the workspace's existing edge hash
//! ([`dne_graph::hash::mix2`]) masked to a power-of-two shard count (what
//! `dne-server` reads from `DNE_SERVER_SHARDS`), so a future sharded
//! *server* can route an owner lookup to the right shard from the key
//! alone; replica sets are one flat table indexed by vertex id. The index
//! fingerprints to exactly [`EdgeAssignment::fingerprint`], which is how
//! `dne-client` proves a remote server answers for the same partition it
//! computed offline.

use crate::assignment::{EdgeAssignment, PartitionId};
use crate::quality::balance;
use crate::replica::ReplicaTable;
use dne_graph::hash::{mix2, FastMap};
use dne_graph::{EdgeId, Graph, VertexId};

/// What a valid shard count looks like — quoted by every parse error.
const SHARD_FORMS: &str = "a power-of-two shard count like 1, 8, or 64";

/// Parse a shard count: a positive power of two.
pub fn parse_shards(s: &str) -> Result<usize, String> {
    let t = s.trim();
    let n: usize = t.parse().map_err(|e| format!("{e} (expected {SHARD_FORMS})"))?;
    if n == 0 || !n.is_power_of_two() {
        return Err(format!("{n} is not a power of two (expected {SHARD_FORMS})"));
    }
    Ok(n)
}

/// The shard an edge key belongs to, out of `shards` (a power of two).
#[inline]
fn edge_shard(u: VertexId, v: VertexId, shards: usize) -> usize {
    (mix2(u.min(v), u.max(v)) & (shards as u64 - 1)) as usize
}

/// One shard of the owner-of-edge map: unordered endpoint pair
/// `(min, max)` → `(edge id, partition)`. Multi-edges collapse to the
/// lowest edge id (deterministic, and the one a linear scan finds first).
type Shard = FastMap<(VertexId, VertexId), (EdgeId, PartitionId)>;

/// An [`EdgeAssignment`] indexed for serving: owner-of-edge, replication
/// set of a vertex, and per-partition stats (see the module docs).
pub struct ShardedAssignmentIndex {
    shards: Vec<Shard>,
    replicas: ReplicaTable,
    edge_counts: Vec<u64>,
    replica_counts: Vec<u64>,
    num_vertices: u64,
    num_edges: u64,
    num_partitions: PartitionId,
    fingerprint: u64,
}

impl ShardedAssignmentIndex {
    /// Index `assignment` over the edges of `g` into `shards` shards.
    ///
    /// Sequential [`Graph::for_each_edge`] scans only, so any storage
    /// backend feeds it at its best access pattern.
    ///
    /// # Panics
    /// If `shards` is not a positive power of two, or the assignment does
    /// not cover exactly `g`'s edges.
    pub fn build(g: &Graph, assignment: &EdgeAssignment, shards: usize) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count {shards} is not a positive power of two"
        );
        let replicas = ReplicaTable::build(g, assignment);
        let mut out = Self {
            shards: vec![Shard::default(); shards],
            replica_counts: replicas.counts(assignment.num_partitions()),
            replicas,
            edge_counts: assignment.edge_counts(),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            num_partitions: assignment.num_partitions(),
            fingerprint: assignment.fingerprint(),
        };
        g.for_each_edge(|e, u, v| {
            let p = assignment.part_of(e);
            let key = (u.min(v), u.max(v));
            let slot = out.shards[edge_shard(u, v, shards)].entry(key).or_insert((e, p));
            if e < slot.0 {
                *slot = (e, p);
            }
        });
        out
    }

    /// The partition owning edge `{u, v}` (endpoint order irrelevant),
    /// with the edge id that established it, or `None` when the graph has
    /// no such edge. Multi-edges answer with their lowest edge id.
    pub fn owner_of(&self, u: VertexId, v: VertexId) -> Option<(EdgeId, PartitionId)> {
        let key = (u.min(v), u.max(v));
        self.shards[edge_shard(u, v, self.shards.len())].get(&key).copied()
    }

    /// The replication set of vertex `v`: every partition whose edge set
    /// touches it, ascending. Empty for vertices no edge touches.
    pub fn replica_set(&self, v: VertexId) -> &[PartitionId] {
        self.replicas.of(v)
    }

    /// `|E_p|` for partition `p` (`None` when `p` is out of range).
    pub fn edge_count(&self, p: PartitionId) -> Option<u64> {
        self.edge_counts.get(p as usize).copied()
    }

    /// `|V(E_p)|` for partition `p` (`None` when `p` is out of range).
    pub fn replica_count(&self, p: PartitionId) -> Option<u64> {
        self.replica_counts.get(p as usize).copied()
    }

    /// `Σ_p |V(E_p)|` — the numerator of the replication factor.
    pub fn total_replicas(&self) -> u64 {
        self.replicas.total()
    }

    /// Replication factor `RF = total replicas / |V|` (paper Equation 1).
    pub fn replication_factor(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.total_replicas() as f64 / self.num_vertices as f64
        }
    }

    /// Edge balance `max_p |E_p| / mean_p |E_p|` (paper §7.6).
    pub fn edge_balance(&self) -> f64 {
        balance(&self.edge_counts)
    }

    /// Number of partitions `|P|`.
    pub fn num_partitions(&self) -> PartitionId {
        self.num_partitions
    }

    /// Number of indexed edges.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of hash shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The indexed assignment's fingerprint — equal to
    /// [`EdgeAssignment::fingerprint`] of the assignment this index was
    /// built from, which is how remote lookups are proven to be served
    /// from the right partition.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::PartitionQuality;
    use dne_graph::gen;

    fn rmat_with_assignment() -> (Graph, EdgeAssignment) {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 8, 17));
        let a = EdgeAssignment::from_fn(&g, 5, |e| ((e * 7 + 3) % 5) as PartitionId);
        (g, a)
    }

    #[test]
    fn owner_matches_linear_scan_at_every_shard_count() {
        let (g, a) = rmat_with_assignment();
        for shards in [1usize, 2, 8] {
            let idx = ShardedAssignmentIndex::build(&g, &a, shards);
            g.for_each_edge(|e, u, v| {
                let (hit, part) = idx.owner_of(u, v).expect("indexed edge");
                assert_eq!(part, a.part_of(hit));
                // The lowest edge id with these endpoints wins.
                let mut lowest = e;
                g.for_each_edge(|e2, u2, v2| {
                    if (u2.min(v2), u2.max(v2)) == (u.min(v), u.max(v)) && e2 < lowest {
                        lowest = e2;
                    }
                });
                assert_eq!(hit, lowest, "edge ({u},{v})");
                // Endpoint order must not matter.
                assert_eq!(idx.owner_of(v, u), idx.owner_of(u, v));
            });
        }
    }

    #[test]
    fn replica_sets_and_stats_match_quality_measure() {
        let (g, a) = rmat_with_assignment();
        let q = PartitionQuality::measure(&g, &a);
        let idx = ShardedAssignmentIndex::build(&g, &a, 4);
        assert_eq!(idx.total_replicas(), q.total_replicas);
        assert!((idx.replication_factor() - q.replication_factor).abs() < 1e-12);
        assert!((idx.edge_balance() - q.edge_balance).abs() < 1e-12);
        for p in 0..a.num_partitions() {
            assert_eq!(idx.edge_count(p), Some(q.edge_counts[p as usize]));
            assert_eq!(idx.replica_count(p), Some(q.vertex_counts[p as usize]));
        }
        assert_eq!(idx.edge_count(a.num_partitions()), None);
        // Replica sets are sorted and consistent with ownership.
        for v in g.vertices() {
            let set = idx.replica_set(v);
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        }
    }

    #[test]
    fn fingerprint_matches_the_assignment() {
        let (g, a) = rmat_with_assignment();
        for shards in [1usize, 8] {
            assert_eq!(
                ShardedAssignmentIndex::build(&g, &a, shards).fingerprint(),
                a.fingerprint()
            );
        }
    }

    #[test]
    fn missing_edges_and_untouched_vertices_answer_empty() {
        let g = gen::path(4); // edges (0,1) (1,2) (2,3)
        let a = EdgeAssignment::new(vec![0, 1, 0], 2);
        let idx = ShardedAssignmentIndex::build(&g, &a, 2);
        assert_eq!(idx.owner_of(0, 1), Some((0, 0)));
        assert_eq!(idx.owner_of(3, 2), Some((2, 0)));
        assert_eq!(idx.owner_of(0, 3), None);
        assert_eq!(idx.replica_set(1), &[0, 1]);
        // Vertex keys arrive from clients: |V|, |V| + 1 and the largest id
        // answer empty, in debug and release builds alike.
        for v in [4, 5, 99, u64::MAX] {
            assert_eq!(idx.replica_set(v), &[] as &[PartitionId]);
        }
    }

    #[test]
    fn streamed_storage_builds_an_identical_index() {
        let (g, a) = rmat_with_assignment();
        let mem = ShardedAssignmentIndex::build(&g, &a, 8);
        let dir = std::env::temp_dir().join("dne_index_streamed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.chunks");
        dne_graph::io::write_chunked(&g, &p, 9).unwrap();
        let s =
            dne_graph::io::open_chunked_with(&p, dne_graph::StorageKind::ChunkStreamed).unwrap();
        let streamed = ShardedAssignmentIndex::build(&s, &a, 8);
        assert_eq!(streamed.fingerprint(), mem.fingerprint());
        assert_eq!(streamed.total_replicas(), mem.total_replicas());
        g.for_each_edge(|_, u, v| {
            assert_eq!(streamed.owner_of(u, v), mem.owner_of(u, v));
        });
    }

    #[test]
    fn shard_parsing_is_strict() {
        assert_eq!(parse_shards("8"), Ok(8));
        assert_eq!(parse_shards(" 1 "), Ok(1));
        assert!(parse_shards("12").unwrap_err().contains("power of two"));
        assert!(parse_shards("0").unwrap_err().contains("power of two"));
        assert!(parse_shards("eight").unwrap_err().contains("power-of-two"));
    }

    #[test]
    #[should_panic(expected = "not a positive power of two")]
    fn build_rejects_non_power_of_two_shards() {
        let (g, a) = rmat_with_assignment();
        ShardedAssignmentIndex::build(&g, &a, 3);
    }
}
