//! Canonicalizing edge-list builder.
//!
//! Every path into a [`crate::Graph`] goes through [`EdgeListBuilder`]: the
//! generators, the IO readers, and test fixtures. The builder enforces the
//! paper's graph model (§2.1): undirected, unweighted, no self loops, no
//! parallel edges. Duplicate compaction also reproduces the paper's
//! observation (§7.3) that RMAT graphs with a high edge factor contain many
//! duplicate samples which Distributed NE compacts — we compact once at build
//! time so all partitioners see the same deduplicated graph.

use crate::types::{canonical, Edge, VertexId};

/// Incrementally collects raw endpoint pairs and finalizes them into a
/// canonical, sorted, deduplicated edge list.
///
/// ```
/// use dne_graph::EdgeListBuilder;
/// let mut b = EdgeListBuilder::new();
/// b.push(1, 0);
/// b.push(0, 1); // duplicate (other direction)
/// b.push(2, 2); // self loop — dropped
/// b.push(1, 2);
/// let edges = b.finish();
/// assert_eq!(edges, vec![(0, 1), (1, 2)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EdgeListBuilder {
    raw: Vec<Edge>,
}

impl EdgeListBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with reserved capacity for `n` raw pairs.
    pub fn with_capacity(n: usize) -> Self {
        Self { raw: Vec::with_capacity(n) }
    }

    /// Append one endpoint pair (any order; self loops are dropped later).
    #[inline]
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        self.raw.push(canonical(u, v));
    }

    /// Append many endpoint pairs.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in it {
            self.push(u, v);
        }
    }

    /// Finalize: drop self loops, sort canonically, deduplicate.
    pub fn finish(mut self) -> Vec<Edge> {
        self.raw.retain(|&(u, v)| u != v);
        self.raw.sort_unstable();
        self.raw.dedup();
        self.raw
    }

    /// Finalize like [`Self::finish`] using up to `threads` threads: the raw
    /// vector is split into per-thread chunks, each chunk compacted and
    /// sorted in parallel, and the sorted runs merge-deduplicated pairwise.
    ///
    /// The output is byte-identical to [`Self::finish`] for every thread
    /// count (it is the sorted set of canonical pairs); `threads == 1` takes
    /// the sequential path directly.
    pub fn finish_parallel(self, threads: usize) -> Vec<Edge> {
        crate::parallel::sort_dedup_parallel(self.raw, threads)
    }

    /// Finalize directly into a [`crate::Graph`] using up to `threads`
    /// threads for both canonicalization ([`Self::finish_parallel`]) and CSR
    /// construction ([`crate::Graph::from_canonical_edges_parallel`]).
    ///
    /// Byte-identical to [`Self::into_graph`] for every thread count.
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn build_parallel(self, num_vertices: VertexId, threads: usize) -> crate::Graph {
        let edges = self.finish_parallel(threads);
        crate::Graph::from_canonical_edges_parallel(num_vertices, edges, threads)
    }

    /// Finalize directly into a [`crate::Graph`] with `num_vertices`
    /// vertices. Panics if any endpoint is `>= num_vertices`.
    pub fn into_graph(self, num_vertices: VertexId) -> crate::Graph {
        crate::Graph::from_canonical_edges(num_vertices, self.finish())
    }

    /// Finalize into a [`crate::Graph`] sized by the maximum endpoint seen
    /// (`max + 1` vertices). An empty builder yields an empty graph.
    pub fn into_graph_auto(self) -> crate::Graph {
        let edges = self.finish();
        let n = edges.iter().map(|&(_, v)| v + 1).max().unwrap_or(0);
        crate::Graph::from_canonical_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = EdgeListBuilder::new();
        for _ in 0..5 {
            b.push(3, 1);
            b.push(1, 3);
        }
        b.push(0, 0);
        b.push(4, 4);
        b.push(0, 2);
        let e = b.finish();
        assert_eq!(e, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn empty_builder_yields_empty_graph() {
        let g = EdgeListBuilder::new().into_graph_auto();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn auto_sizing_uses_max_endpoint() {
        let mut b = EdgeListBuilder::new();
        b.push(0, 9);
        let g = b.into_graph_auto();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn sorted_output() {
        let mut b = EdgeListBuilder::new();
        b.push(5, 4);
        b.push(1, 0);
        b.push(3, 2);
        let e = b.finish();
        assert!(e.windows(2).all(|w| w[0] < w[1]));
    }
}
