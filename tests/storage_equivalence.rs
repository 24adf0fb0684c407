//! The cross-backend storage equivalence harness — the acceptance gate
//! for the pluggable `GraphStorage` seam.
//!
//! One shared driver materializes each graph as a binary graph file,
//! reopens it with **every** storage backend (in-memory | mmap |
//! chunk-streamed), and runs `DistributedNe` under every transport: the
//! results must be bit-identical to the in-memory/loopback reference —
//! assignment fingerprint, iteration counts, replication factor, edge
//! balance, and exact communication totals. The partitioner only ever
//! touches the graph through one sequential edge scan, so *nothing* about
//! where the bytes live may leak into the algorithm.
//!
//! Property tests then fuzz the storage layer itself: for arbitrary edge
//! lists, the three backends must agree on every accessor the partition
//! stack uses (counts, `edge`, `degree`, the edge iterator) and produce
//! identical partitions and quality measurements.

mod common;

use common::{materialize_chunked, reopen, storage_transport_pairs, STORAGES};
use distributed_ne::core::{DistributedNe, NeConfig};
use distributed_ne::graph::{gen, EdgeListBuilder};
use distributed_ne::partition::PartitionQuality;
use distributed_ne::runtime::TransportKind;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn distributed_ne_is_equivalent_across_every_storage_transport_pair() {
    let graphs = [
        ("rmat", gen::rmat(&gen::RmatConfig::graph500(8, 6, 5))),
        ("star", gen::star(64)),
        ("path", gen::path(100)),
    ];
    let k = 4u32;
    for (name, g) in &graphs {
        let path = materialize_chunked(g, &format!("ne_equiv_{name}"));
        let run = |g: &distributed_ne::graph::Graph, kind| {
            DistributedNe::new(NeConfig::default().with_seed(11).with_transport(kind))
                .partition_with_stats(g, k)
        };
        let (a_ref, s_ref) = run(g, TransportKind::Loopback);
        let q_ref = PartitionQuality::measure(g, &a_ref);
        let fp_ref = a_ref.fingerprint();
        for (storage, transport) in storage_transport_pairs() {
            let reopened = reopen(&path, storage);
            assert_eq!(reopened.storage_kind(), storage);
            let label = format!("{name}/{storage}/{transport}");
            let (a, s) = run(&reopened, transport);
            assert_eq!(a.fingerprint(), fp_ref, "{label}: assignment fingerprint");
            assert_eq!(a, a_ref, "{label}: assignments must be bit-identical");
            assert_eq!(s.iterations, s_ref.iterations, "{label}: iteration count");
            assert_eq!(s.comm_bytes, s_ref.comm_bytes, "{label}: comm bytes");
            assert_eq!(s.comm_msgs, s_ref.comm_msgs, "{label}: comm msgs");
            // Quality measured *through the backend under test* (the
            // streamed backend exercises the adjacency-free scan path).
            let q = PartitionQuality::measure(&reopened, &a);
            assert_eq!(q.replication_factor, q_ref.replication_factor, "{label}: RF");
            assert_eq!(q.edge_balance, q_ref.edge_balance, "{label}: EB");
            assert_eq!(q.vertex_balance, q_ref.vertex_balance, "{label}: VB");
        }
    }
}

static PROP_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary multigraph edge lists (duplicates and self-loops
    /// included — the builder canonicalizes) round-trip through every
    /// backend with identical accessors, partitions, and quality.
    #[test]
    fn backends_agree_on_arbitrary_graphs(
        raw in prop::collection::vec((0u64..60, 0u64..60), 1usize..300),
        k in 1u32..5,
        seed in 0u64..1000,
    ) {
        let mut b = EdgeListBuilder::new();
        b.extend_edges(raw);
        let g = b.into_graph(60);
        prop_assume!(g.num_edges() > 0);
        let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
        let path = materialize_chunked(&g, &format!("prop_{case}"));
        let (a_ref, _) = DistributedNe::new(NeConfig::default().with_seed(seed))
            .partition_with_stats(&g, k);
        let q_ref = PartitionQuality::measure(&g, &a_ref);
        for storage in STORAGES {
            let r = reopen(&path, storage);
            prop_assert_eq!(r.num_vertices(), g.num_vertices());
            prop_assert_eq!(r.num_edges(), g.num_edges());
            prop_assert!(r == g, "{} storage: edge streams must agree", storage);
            for v in [0, g.num_vertices() / 2, g.num_vertices() - 1] {
                prop_assert_eq!(r.degree(v), g.degree(v), "degree({}) on {}", v, storage);
            }
            for e in [0, g.num_edges() - 1] {
                prop_assert_eq!(r.edge(e), g.edge(e), "edge({}) on {}", e, storage);
            }
            let (a, _) = DistributedNe::new(NeConfig::default().with_seed(seed))
                .partition_with_stats(&r, k);
            prop_assert_eq!(a.fingerprint(), a_ref.fingerprint(), "{} partition", storage);
            let q = PartitionQuality::measure(&r, &a);
            prop_assert_eq!(q, q_ref.clone(), "{} quality", storage);
        }
    }
}
