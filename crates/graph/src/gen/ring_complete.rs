//! The ring + complete-graph construction from Theorem 2.
//!
//! The tightness proof of the upper bound (paper §6, Theorem 2) uses a graph
//! consisting of two isolated components: a complete graph `K_n` with
//! `n(n-1)/2` edges and a ring with `n(n-1)/2` vertices and edges. Under
//! `|P| = n(n-1)/2` partitions, the replication factor of a parallel
//! expansion that seeds inside the ring approaches the bound
//! `UB = (|E| + |V| + |P|) / |V|` as `n → ∞`.
//!
//! `tests/bound_properties.rs` and `dne-core::theory` use this generator to
//! validate the theorem empirically.

use crate::types::VertexId;
use crate::{EdgeListBuilder, Graph};

/// Build the Theorem-2 graph for clique size `n` (`n >= 3`).
///
/// Layout: vertices `0..n` form the complete graph; vertices
/// `n..n + n(n-1)/2` form the ring. Total `|V| = n + n(n-1)/2`,
/// `|E| = n(n-1)`.
pub fn ring_complete(n: VertexId) -> Graph {
    assert!(n >= 3, "theorem construction needs n >= 3");
    let ring_len = n * (n - 1) / 2;
    let mut b = EdgeListBuilder::with_capacity((n * (n - 1)) as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            b.push(u, v);
        }
    }
    let base = n;
    for i in 0..ring_len {
        b.push(base + i, base + (i + 1) % ring_len);
    }
    b.into_graph(n + ring_len)
}

/// The number of partitions used by the Theorem-2 analysis for clique size
/// `n`: `|P| = n(n-1)/2`.
pub fn theorem2_partitions(n: VertexId) -> u64 {
    n * (n - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_theorem() {
        for n in [3u64, 4, 6, 10] {
            let g = ring_complete(n);
            assert_eq!(g.num_vertices(), n + n * (n - 1) / 2);
            assert_eq!(g.num_edges(), n * (n - 1));
        }
    }

    #[test]
    fn ring_vertices_have_degree_two() {
        let n = 5;
        let g = ring_complete(n);
        for v in n..g.num_vertices() {
            assert_eq!(g.degree(v), 2, "ring vertex {v}");
        }
        for v in 0..n {
            assert_eq!(g.degree(v), n - 1, "clique vertex {v}");
        }
    }

    #[test]
    fn components_are_disconnected() {
        let n = 4;
        let g = ring_complete(n);
        g.for_each_edge(|_, u, v| {
            assert_eq!(u < n, v < n, "no edge joins the clique and the ring");
        });
    }
}
