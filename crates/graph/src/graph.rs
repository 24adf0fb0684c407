//! The graph type shared by every partitioner and application.

use std::sync::Arc;

use crate::storage::{GraphStorage, InMemoryCsr, StorageKind};
use crate::types::{Edge, EdgeId, VertexId};
use crate::HeapSize;

/// An undirected, unweighted graph: its canonical edge list, served by a
/// pluggable [`GraphStorage`] backend.
///
/// Logical content — identical across backends:
///
/// * `edge(e)` — the canonical endpoint pair of edge `e` (`u < v`); edge
///   ids number the strictly sorted, self-loop-free list.
/// * `degree(v)` — the number of edges incident to `v`, so the degrees
///   sum to `2|E|`.
///
/// Where the list *lives* is the backend's business ([`StorageKind`]):
/// on the heap (the default), in a read-only memory-mapped file, or in a
/// file re-streamed per scan. Every backend serves every accessor
/// except [`Self::edges`], which needs a contiguous in-memory slice and
/// documents the panic it raises without one. The portable way to touch
/// every edge on any backend is [`Self::for_each_edge`]. Neighbour lists
/// are derived, not stored: the paper's partitioner deploys from one
/// sequential pass over the edge stream (§7.3), and callers that walk
/// neighbours build a [`crate::Adjacency`].
///
/// Equality compares `|V|`, `|E|`, and the canonical edge streams, so two
/// graphs compare equal exactly when they describe the same graph —
/// backends are compared by content, not by representation. `Clone`
/// shares the (immutable) backend instead of deep-copying it.
#[derive(Clone)]
pub struct Graph {
    storage: Arc<dyn GraphStorage>,
}

impl Graph {
    /// Build from a canonical (sorted, deduplicated, loop-free) edge list
    /// on the in-memory backend.
    ///
    /// Prefer [`crate::EdgeListBuilder`] which establishes those properties.
    ///
    /// # Panics
    /// If an endpoint is out of range, a self loop is present, or the list is
    /// not strictly sorted.
    pub fn from_canonical_edges(num_vertices: VertexId, edges: Vec<Edge>) -> Self {
        Self::from_canonical_edges_parallel(num_vertices, edges, 1)
    }

    /// Build from a canonical edge list like [`Self::from_canonical_edges`],
    /// using up to `threads` threads for validation and degree counting
    /// (small inputs use one).
    ///
    /// The result is byte-identical to the sequential constructor for every
    /// thread count.
    ///
    /// # Panics
    /// As [`Self::from_canonical_edges`], with the same messages.
    pub fn from_canonical_edges_parallel(
        num_vertices: VertexId,
        edges: Vec<Edge>,
        threads: usize,
    ) -> Self {
        Self::from_storage(Arc::new(InMemoryCsr::from_canonical_edges(
            num_vertices,
            edges,
            threads,
        )))
    }

    /// Wrap an already-built storage backend. This is how the out-of-core
    /// openers in [`crate::io`] construct graphs; it also lets downstream
    /// code plug in its own [`GraphStorage`] implementation.
    pub fn from_storage(storage: Arc<dyn GraphStorage>) -> Self {
        Self { storage }
    }

    /// Which storage backend serves this graph.
    #[inline]
    pub fn storage_kind(&self) -> StorageKind {
        self.storage.kind()
    }

    /// The backend itself (for capability probing or storage-aware code).
    #[inline]
    pub fn storage(&self) -> &Arc<dyn GraphStorage> {
        &self.storage
    }

    /// Live heap bytes owned by the storage backend right now — what the
    /// mem-score accounting charges for holding the graph. In-memory
    /// reports its two arrays; mmap reports 0 (pages belong to the OS);
    /// chunk-streamed reports its one cached block (plus its degree array
    /// once degrees were asked for).
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.storage.resident_bytes()
    }

    /// Number of vertices `|V|` (ids are `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        self.storage.num_vertices()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.storage.num_edges()
    }

    /// Average number of edges per vertex (`|E| / |V|`, the paper's
    /// "edge factor" is `2|E|/|V|`... no: Graph500's edge factor counts
    /// generated edges per vertex, i.e. `|E|/|V|` before dedup; we report the
    /// post-dedup density here).
    #[inline]
    pub fn density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of vertex `v`. Available on every backend (chunk-streamed
    /// storage computes all degrees lazily with one extra pass).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.storage.degree(v)
    }

    /// The canonical endpoints of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.storage.edge(e)
    }

    /// All edges in canonical order (edge id == slice index).
    ///
    /// # Panics
    /// If the backend holds no contiguous in-memory edge array (mmap,
    /// chunk-streamed). Use [`Self::for_each_edge`] for backend-agnostic
    /// edge scans.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        self.storage.edge_slice().unwrap_or_else(|| {
            panic!(
                "Graph::edges() needs a contiguous in-memory edge slice, which {} storage \
                 does not keep; use for_each_edge() instead",
                self.storage.kind()
            )
        })
    }

    /// Visit every edge in canonical order as `f(edge_id, u, v)` on any
    /// backend — the bulk-scan primitive the distributed partitioner uses.
    ///
    /// # Panics
    /// On an I/O failure of disk-backed storage; use
    /// [`Self::try_for_each_edge`] to handle that as an error.
    pub fn for_each_edge(&self, f: impl FnMut(EdgeId, VertexId, VertexId)) {
        self.try_for_each_edge(f)
            .unwrap_or_else(|e| panic!("edge scan failed on {} storage: {e}", self.storage.kind()));
    }

    /// Fallible [`Self::for_each_edge`]: visits every edge in canonical
    /// order, surfacing storage I/O problems as errors.
    pub fn try_for_each_edge(
        &self,
        mut f: impl FnMut(EdgeId, VertexId, VertexId),
    ) -> std::io::Result<()> {
        self.storage.try_for_each_edge(&mut f)
    }

    /// Iterate all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Maximum degree over all vertices (0 for empty graphs).
    pub fn max_degree(&self) -> u64 {
        (0..self.num_vertices()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The other endpoint of edge `e` as seen from `v`.
    ///
    /// # Panics
    /// In debug builds if `v` is not an endpoint of `e`.
    #[inline]
    pub fn opposite(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.edge(e);
        debug_assert!(v == a || v == b, "vertex {v} is not an endpoint of edge {e}");
        if v == a {
            b
        } else {
            a
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("storage", &self.storage.kind())
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        if self.num_vertices() != other.num_vertices() || self.num_edges() != other.num_edges() {
            return false;
        }
        // One sequential scan of `self`; `other` answers by edge id, which
        // every backend serves (the chunk-streamed one from its one-block
        // cache, which this ascending order keeps hitting).
        let mut same = true;
        self.for_each_edge(|e, u, v| same &= other.edge(e) == (u, v));
        same
    }
}

impl Eq for Graph {}

impl HeapSize for Graph {
    fn heap_bytes(&self) -> usize {
        self.storage.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeListBuilder;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 0-2 (triangle), 2-3 (tail)
        let mut b = EdgeListBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        b.into_graph(4)
    }

    #[test]
    fn counts_and_degrees_small() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn opposite_names_the_other_endpoint() {
        let g = triangle_plus_tail();
        g.for_each_edge(|e, u, v| {
            assert_eq!(g.opposite(e, u), v);
            assert_eq!(g.opposite(e, v), u);
        });
    }

    #[test]
    fn sum_of_degrees_is_twice_edges() {
        let g = triangle_plus_tail();
        let total: u64 = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_canonical_edges(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.for_each_edge(|_, _, _| panic!("no edge to visit"));
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let mut b = EdgeListBuilder::new();
        b.push(0, 1);
        let g = b.into_graph(5);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoint() {
        Graph::from_canonical_edges(2, vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn rejects_unsorted_edges() {
        Graph::from_canonical_edges(4, vec![(1, 2), (0, 1)]);
    }

    #[test]
    fn heap_bytes_is_positive_for_nonempty() {
        let g = triangle_plus_tail();
        assert!(g.heap_bytes() > 0);
    }

    #[test]
    fn default_backend_is_in_memory_and_charges_edges_plus_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.storage_kind(), StorageKind::InMemory);
        assert_eq!(g.resident_bytes(), 16 * 4 + 8 * 4);
        assert_eq!(g.resident_bytes(), g.heap_bytes());
    }

    #[test]
    fn edge_scan_matches_edge_slice() {
        let g = triangle_plus_tail();
        let mut from_scan = Vec::new();
        g.for_each_edge(|e, u, v| {
            assert_eq!(e as usize, from_scan.len());
            from_scan.push((u, v));
        });
        assert_eq!(from_scan.as_slice(), g.edges());
    }

    #[test]
    fn equality_is_by_content_across_every_backend_pair() {
        use crate::io;
        // A 200-edge path, and the same path with its last endpoint moved:
        // equal counts, so only the scan can tell them apart.
        let mut edges: Vec<Edge> = (0..200).map(|i| (i, i + 1)).collect();
        let g = Graph::from_canonical_edges(202, edges.clone());
        edges[199] = (199, 201);
        let other = Graph::from_canonical_edges(202, edges);
        let dir = std::env::temp_dir().join(format!("dne-graph-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let open_all = |name: &str, g: &Graph| {
            let path = dir.join(name);
            io::write_chunked(g, &path, 37).unwrap();
            StorageKind::ALL.map(|kind| io::open_chunked_with(&path, kind).unwrap())
        };
        let (same, differing) = (open_all("a.chunks", &g), open_all("b.chunks", &other));
        for a in &same {
            assert_eq!(a, &g, "{} vs in-memory original", a.storage_kind());
            for b in &same {
                assert_eq!(a, b, "{} vs {}", a.storage_kind(), b.storage_kind());
            }
            for b in &differing {
                assert_ne!(a, b, "{} vs {}", a.storage_kind(), b.storage_kind());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clone_shares_storage_and_compares_equal() {
        let g = triangle_plus_tail();
        let c = g.clone();
        assert!(Arc::ptr_eq(g.storage(), c.storage()));
        assert_eq!(g, c);
        let other = Graph::from_canonical_edges(4, vec![(0, 1), (1, 2)]);
        assert_ne!(g, other);
    }
}
