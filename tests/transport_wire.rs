//! Cross-crate properties of the transport layer and wire codec: the
//! loopback (pointer-passing, estimated bytes), bytes (real serialization,
//! exact bytes), and tcp (the same frames over real localhost sockets)
//! backends must be observationally identical — same partitioning results,
//! same application results, same communication accounting — and the codec
//! must reject malformed frames with errors, not panics.

mod common;

use common::{cluster, transport_topology_pairs};
use distributed_ne::core::{DistributedNe, NeConfig, NeMsg};
use distributed_ne::graph::gen;
use distributed_ne::partition::{EdgePartitioner, PartitionQuality};
use distributed_ne::runtime::{TransportKind, WireDecode, WireEncode, WireSize};
use proptest::prelude::*;

// ---------------------------------------------------------------- codec --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every NeMsg shape encodes to exactly its WireSize estimate and
    /// round-trips losslessly — the invariant that makes loopback byte
    /// accounting exact.
    #[test]
    fn nemsg_estimate_equals_actual_and_roundtrips(
        vertices in prop::collection::vec(0u64..u64::MAX, 0..50),
        pairs in prop::collection::vec((0u64..u64::MAX, 0u32..u32::MAX), 0..50),
        boundary in prop::collection::vec((0u64..u64::MAX, 0u64..1 << 40), 0..50),
        edges in prop::collection::vec(0u64..u64::MAX, 0..50),
        budget in 0u64..u64::MAX,
        free in 0u64..u64::MAX,
    ) {
        let msgs = [
            NeMsg::Select { vertices, random_budget: budget },
            NeMsg::Sync { pairs },
            NeMsg::Result { boundary, edges, free_edges: free },
        ];
        for msg in msgs {
            let bytes = msg.to_wire();
            prop_assert_eq!(bytes.len(), msg.wire_bytes(), "estimate != encoded for {:?}", msg);
            prop_assert_eq!(NeMsg::from_wire(&bytes).unwrap(), msg);
        }
    }

    /// The apps-engine message type ((vertex, value) pair lists) obeys the
    /// same invariant through the generic codec impls. Values are drawn as
    /// raw bit patterns so NaNs and infinities are exercised too.
    #[test]
    fn app_msg_estimate_equals_actual_and_roundtrips(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..100),
    ) {
        let msg: Vec<(u64, f64)> =
            raw.into_iter().map(|(v, bits)| (v, f64::from_bits(bits))).collect();
        let bytes = msg.to_wire();
        prop_assert_eq!(bytes.len(), msg.wire_bytes());
        let back = Vec::<(u64, f64)>::from_wire(&bytes).unwrap();
        prop_assert_eq!(back.len(), msg.len());
        for ((v0, x0), (v1, x1)) in msg.iter().zip(&back) {
            prop_assert_eq!(v0, v1);
            prop_assert_eq!(x0.to_bits(), x1.to_bits(), "f64 must round-trip bit-exactly");
        }
    }

    /// Fuzz: truncating a valid frame anywhere yields an error, never a
    /// panic; so does flipping the tag byte to garbage.
    #[test]
    fn truncated_and_corrupt_frames_error_not_panic(
        vertices in prop::collection::vec(0u64..u64::MAX, 0..20),
        cut_seed in 0usize..usize::MAX,
        tag_off in 0u8..253,
    ) {
        let msg = NeMsg::Select { vertices, random_budget: 1 };
        let bytes = msg.to_wire();
        let cut = cut_seed % bytes.len(); // bytes.len() >= 17, never empty
        prop_assert!(NeMsg::from_wire(&bytes[..cut]).is_err());
        let mut corrupt = bytes.clone();
        corrupt[0] = 3 + tag_off;
        prop_assert!(NeMsg::from_wire(&corrupt).is_err());
    }
}

// ------------------------------------------------------ runtime behavior --

#[test]
fn zero_length_payload_rounds_work_on_every_pair() {
    // Empty vectors (the common "nothing for you this round" envelope)
    // still frame, ship, and account correctly: each costs exactly its
    // 1-byte varint length prefix — on every (transport × topology) pair.
    for (kind, topo) in transport_topology_pairs() {
        let out = cluster(3, kind, topo).run::<Vec<u64>, _, _>(|ctx| {
            for _ in 0..4 {
                let got = ctx.exchange(|_| Vec::new());
                assert_eq!(got, vec![Vec::new(), Vec::new(), Vec::new()]);
            }
            ctx.barrier();
        });
        // 4 rounds × 3 ranks × 2 non-self links × 1-byte prefix, plus one
        // barrier at the topology's published per-collective cost.
        let (barrier, _) = topo.total_traffic(3);
        assert_eq!(out.comm.total_bytes(), 4 * 3 * 2 + barrier, "{kind}/{topo}");
    }
}

#[test]
fn single_machine_collectives_and_exchange_on_every_pair() {
    for (kind, topo) in transport_topology_pairs() {
        let out = cluster(1, kind, topo).run::<Vec<u64>, _, _>(|ctx| {
            let got = ctx.exchange(|_| vec![1, 2, 3]);
            assert_eq!(got, vec![vec![1, 2, 3]]);
            ctx.barrier();
            assert_eq!(ctx.all_gather_u64(9), vec![9]);
            assert_eq!(ctx.all_reduce_max_u64(4), 4);
            assert!(!ctx.all_reduce_any(false));
            ctx.all_reduce_sum_u64(7)
        });
        assert_eq!(out.results, vec![7]);
        assert_eq!(out.comm.total_bytes(), 0, "{kind}/{topo}: nprocs = 1 moves nothing");
    }
}

// ------------------------------------------- end-to-end paper workloads --

#[test]
fn distributed_ne_is_transport_invariant() {
    // The acceptance property: identical assignments, iteration counts and
    // (thanks to estimate == actual) identical comm accounting under every
    // transport — including real sockets — across several graph shapes.
    let graphs = [
        ("rmat", gen::rmat(&gen::RmatConfig::graph500(8, 6, 5))),
        ("star", gen::star(64)),
        ("path", gen::path(100)),
    ];
    for (name, g) in &graphs {
        let run = |kind| {
            DistributedNe::new(NeConfig::default().with_seed(11).with_transport(kind))
                .partition_with_stats(g, 4)
        };
        let (a_loop, s_loop) = run(TransportKind::Loopback);
        for kind in [TransportKind::Bytes, TransportKind::Tcp] {
            let (a_kind, s_kind) = run(kind);
            assert_eq!(a_loop, a_kind, "{name}/{kind}: assignments must match across transports");
            assert_eq!(s_loop.iterations, s_kind.iterations, "{name}/{kind}: iteration counts");
            assert_eq!(s_loop.comm_bytes, s_kind.comm_bytes, "{name}/{kind}: comm accounting");
            assert_eq!(s_loop.comm_msgs, s_kind.comm_msgs, "{name}/{kind}: message counts");
            let q_loop = PartitionQuality::measure(g, &a_loop);
            let q_kind = PartitionQuality::measure(g, &a_kind);
            assert_eq!(q_loop.replication_factor, q_kind.replication_factor, "{name}/{kind}: RF");
        }
    }
}

#[test]
fn app_engine_is_transport_invariant() {
    use distributed_ne::apps::Engine;
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
    let a = DistributedNe::new(NeConfig::default().with_seed(3)).partition(&g, 4);
    let run = |kind| {
        let engine = Engine::new(&g, &a).with_transport(kind);
        (engine.wcc(), engine.pagerank(5))
    };
    let (wcc_loop, pr_loop) = run(TransportKind::Loopback);
    for kind in [TransportKind::Bytes, TransportKind::Tcp] {
        let (wcc_kind, pr_kind) = run(kind);
        for (l, b) in [(&wcc_loop, &wcc_kind), (&pr_loop, &pr_kind)] {
            assert_eq!(l.supersteps, b.supersteps, "{}/{kind}: supersteps", l.name);
            assert_eq!(l.comm_bytes, b.comm_bytes, "{}/{kind}: comm accounting", l.name);
            assert_eq!(l.values.len(), b.values.len());
            for (x, y) in l.values.iter().zip(&b.values) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}/{kind}: values must be bit-identical",
                    l.name
                );
            }
        }
    }
}

#[test]
fn killed_tcp_peer_fails_the_run_with_a_typed_error() {
    // Fault injection end-to-end: one machine of a TCP cluster dies
    // abnormally mid-run; the sibling machines observe a typed transport
    // disconnect (surfaced through the infallible Ctx wrappers as a panic
    // naming the dead peer), never a silent hang.
    use distributed_ne::runtime::Cluster;
    let result = std::panic::catch_unwind(|| {
        Cluster::with_transport(3, TransportKind::Tcp).run::<u64, _, _>(|ctx| {
            if ctx.rank() == 1 {
                panic!("injected failure"); // unwinds: endpoint drops mid-protocol
            }
            // The survivors' next collective cannot complete.
            ctx.all_gather_u64(ctx.rank() as u64);
        });
    });
    assert!(result.is_err(), "the dead peer must abort the run");
}
