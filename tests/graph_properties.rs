//! Property tests of the graph substrate: adjacency invariants, builder
//! idempotence, component labels, generator guarantees.

use distributed_ne::graph::gen;
use distributed_ne::graph::transform;
use distributed_ne::graph::{Adjacency, EdgeListBuilder, Graph};
use proptest::prelude::*;

/// Strategy: an arbitrary small raw edge list (with duplicates and loops).
fn raw_edges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 0u64..64), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder always yields a canonical, loop-free, deduplicated list.
    #[test]
    fn builder_canonicalizes(raw in raw_edges()) {
        let mut b = EdgeListBuilder::new();
        b.extend_edges(raw.clone());
        let edges = b.finish();
        for w in edges.windows(2) {
            prop_assert!(w[0] < w[1], "must be strictly sorted");
        }
        for &(u, v) in &edges {
            prop_assert!(u < v, "must be canonical and loop-free");
        }
        // Idempotence: re-ingesting the output reproduces it.
        let mut b2 = EdgeListBuilder::new();
        b2.extend_edges(edges.clone());
        prop_assert_eq!(b2.finish(), edges);
    }

    /// Derived adjacency is an involution: every edge appears in exactly
    /// two slots (the degrees sum to 2|E|, and so do the list lengths),
    /// and `u ∈ of(v) ⇔ v ∈ of(u)`.
    #[test]
    fn csr_adjacency_involution(raw in raw_edges()) {
        let mut b = EdgeListBuilder::new();
        b.extend_edges(raw);
        let g = b.into_graph(64);
        let adj = Adjacency::build(&g);
        let degree_sum: u64 = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(adj.of(v).len() as u64, g.degree(v));
            for &u in adj.of(v) {
                prop_assert!(adj.of(u).contains(&v), "{} ∈ of({}) but not the converse", u, v);
            }
        }
        for &(u, v) in g.edges() {
            prop_assert!(adj.of(u).contains(&v) && adj.of(v).contains(&u));
        }
    }

    /// Component labels partition the vertex set and are closed over edges.
    #[test]
    fn component_labels_are_consistent(raw in raw_edges()) {
        let mut b = EdgeListBuilder::new();
        b.extend_edges(raw);
        let g = b.into_graph(64);
        let labels = transform::component_labels(&g);
        for &(u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Every label is the smallest vertex id of its component.
        for v in g.vertices() {
            prop_assert!(labels[v as usize] <= v);
        }
    }

    /// RMAT stays within its configured vertex budget and sample cap.
    #[test]
    fn rmat_respects_budgets(scale in 4u32..9, ef in 1u64..8, seed in 0u64..500) {
        let cfg = gen::RmatConfig::graph500(scale, ef, seed);
        let g = gen::rmat(&cfg);
        prop_assert_eq!(g.num_vertices(), 1u64 << scale);
        prop_assert!(g.num_edges() <= cfg.num_samples());
    }
}

#[test]
fn empty_graph_transforms() {
    let g = Graph::from_canonical_edges(0, vec![]);
    let labels = transform::component_labels(&g);
    assert!(labels.is_empty());
}
