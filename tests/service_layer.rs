//! Cross-crate properties of the partitioning service layer: the lookup
//! protocol's codec must round-trip losslessly and reject malformed
//! bytes with typed errors (never panics), the sharded index must answer
//! exactly like a linear scan of the assignment at every shard count,
//! and the full client → server → index round trip over real sockets
//! must reproduce the offline answers byte for byte.

use distributed_ne::graph::{EdgeListBuilder, Graph};
use distributed_ne::partition::{
    EdgeAssignment, EdgePartitioner, PartitionId, ShardedAssignmentIndex,
};
use distributed_ne::runtime::{WireDecode, WireEncode, WireSize};
use dne_bench::lookup::{AssignmentService, LookupRequest, LookupResponse};
use proptest::prelude::*;

/// Build a graph and a valid assignment from raw proptest fuel: endpoint
/// pairs over a small vertex universe (self loops and duplicates are
/// compacted away by the builder) plus one partition choice per surviving
/// edge.
fn graph_and_assignment(
    pairs: &[(u64, u64)],
    parts: &[PartitionId],
    k: PartitionId,
) -> (Graph, EdgeAssignment) {
    let mut b = EdgeListBuilder::new();
    b.extend_edges(pairs.iter().copied());
    let edges = b.finish();
    let n = edges.iter().map(|&(_, v)| v + 1).max().unwrap_or(0);
    let assigned: Vec<PartitionId> =
        edges.iter().enumerate().map(|(e, _)| parts[e % parts.len()] % k).collect();
    (Graph::from_canonical_edges(n, edges), EdgeAssignment::new(assigned, k))
}

// ---------------------------------------------------------------- codec --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request/response shape encodes to exactly its size estimate
    /// and round-trips losslessly through the wire codec.
    #[test]
    fn lookup_codec_estimate_equals_actual_and_roundtrips(
        u in 0u64..u64::MAX,
        v in 0u64..u64::MAX,
        part in 0u32..u32::MAX,
        owner_raw in (0u64..u64::MAX, 0u32..u32::MAX, 0u8..2),
        replicas in prop::collection::vec(0u32..u32::MAX, 0..40),
        counts_raw in (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2),
        bits in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let requests = [
            LookupRequest::LookupEdge { u, v },
            LookupRequest::ReplicaSet { v },
            LookupRequest::PartStats { part },
            LookupRequest::Fingerprint,
            LookupRequest::Shutdown,
        ];
        for req in requests {
            let bytes = req.to_wire();
            prop_assert_eq!(bytes.len(), req.wire_bytes(), "estimate != actual for {:?}", req);
            prop_assert_eq!(LookupRequest::from_wire(&bytes).unwrap(), req);
        }
        let owner = (owner_raw.2 == 1).then_some((owner_raw.0, owner_raw.1));
        let counts = (counts_raw.2 == 1).then_some((counts_raw.0, counts_raw.1));
        let responses = [
            LookupResponse::Owner { owner },
            LookupResponse::Replicas { parts: replicas },
            LookupResponse::PartStats { counts, rf_bits: bits.0, eb_bits: bits.1 },
            LookupResponse::Fingerprint {
                fingerprint: bits.2,
                num_partitions: part,
                num_edges: u,
            },
            LookupResponse::ShuttingDown,
        ];
        for resp in responses {
            let bytes = resp.to_wire();
            prop_assert_eq!(bytes.len(), resp.wire_bytes(), "estimate != actual for {:?}", resp);
            prop_assert_eq!(LookupResponse::from_wire(&bytes).unwrap(), resp);
        }
    }

    /// Fuzz: truncating a valid message anywhere, appending trailing
    /// garbage, or flipping the tag byte yields a typed error — never a
    /// panic, never a bogus success.
    #[test]
    fn corrupt_lookup_messages_error_not_panic(
        v in 0u64..u64::MAX,
        replicas in prop::collection::vec(0u32..u32::MAX, 0..20),
        cut_seed in 0usize..usize::MAX,
        tag_off in 0u8..251,
        junk in 1usize..9,
    ) {
        let req = LookupRequest::ReplicaSet { v };
        let resp = LookupResponse::Replicas { parts: replicas };
        let (req_bytes, resp_bytes) = (req.to_wire(), resp.to_wire());
        // Truncation at any prefix (both messages are at least 1 byte).
        prop_assert!(LookupRequest::from_wire(&req_bytes[..cut_seed % req_bytes.len()]).is_err());
        prop_assert!(
            LookupResponse::from_wire(&resp_bytes[..cut_seed % resp_bytes.len()]).is_err()
        );
        // Trailing bytes beyond a complete message are rejected.
        let mut long = req_bytes.clone();
        long.extend(vec![0u8; junk]);
        prop_assert!(LookupRequest::from_wire(&long).is_err());
        // Tags outside the 5-variant vocabulary are rejected.
        let mut corrupt = req_bytes.clone();
        corrupt[0] = 5 + tag_off;
        prop_assert!(LookupRequest::from_wire(&corrupt).is_err());
        let mut corrupt = resp_bytes.clone();
        corrupt[0] = 5 + tag_off;
        prop_assert!(LookupResponse::from_wire(&corrupt).is_err());
    }
}

// ---------------------------------------------------------------- index --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sharded index answers exactly like a linear scan of the
    /// assignment — owner of every edge (queried in both endpoint
    /// orders), replica set of every vertex — at shard counts 1, 2, 8.
    #[test]
    fn sharded_index_matches_linear_scan(
        pairs in prop::collection::vec((0u64..48, 0u64..48), 1..120),
        parts in prop::collection::vec(0u32..8, 1..16),
        k in 1u32..8,
    ) {
        let (g, a) = graph_and_assignment(&pairs, &parts, k);
        for shards in [1usize, 2, 8] {
            let idx = ShardedAssignmentIndex::build(&g, &a, shards);
            // Owners: every real edge answers its (edge id, partition);
            // endpoint order must not matter.
            g.for_each_edge(|e, u, v| {
                assert_eq!(idx.owner_of(u, v), Some((e, a.part_of(e))), "{shards} shards");
                assert_eq!(idx.owner_of(v, u), idx.owner_of(u, v));
            });
            // Replica sets: the ascending set of partitions touching the
            // vertex, recomputed here by linear scan.
            for x in 0..g.num_vertices() {
                let mut scan: Vec<PartitionId> = Vec::new();
                g.for_each_edge(|e, u, v| {
                    if (u == x || v == x) && !scan.contains(&a.part_of(e)) {
                        scan.push(a.part_of(e));
                    }
                });
                scan.sort_unstable();
                prop_assert_eq!(idx.replica_set(x), &scan[..], "vertex {} at {} shards", x, shards);
            }
            // Absent edges miss; the fingerprint is the assignment's.
            prop_assert_eq!(idx.owner_of(1_000_000, 2_000_000), None);
            prop_assert_eq!(idx.fingerprint(), a.fingerprint());
        }
    }
}

// ----------------------------------------------------------- end-to-end --

/// Full stack on real sockets: a `WireServer` serving an
/// `AssignmentService` answers every request byte-identically to the
/// offline `answer()` path, across two sequential client connections,
/// then shuts down cleanly on request.
#[cfg(unix)]
#[test]
fn lookup_service_over_sockets_matches_offline_answers() {
    use distributed_ne::graph::gen;
    use distributed_ne::runtime::{WireClient, WireServer};

    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 9));
    let a = distributed_ne::core::DistributedNe::new(
        distributed_ne::core::NeConfig::default().with_seed(9),
    )
    .partition(&g, 3);
    let offline = AssignmentService::new(ShardedAssignmentIndex::build(&g, &a, 4));

    let server = WireServer::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || {
        let mut svc = AssignmentService::new(ShardedAssignmentIndex::build(&g, &a, 4));
        server.serve(&mut svc).unwrap()
    });

    let requests: Vec<LookupRequest> = (0..200)
        .map(|i| {
            let r = distributed_ne::graph::hash::mix2(9, i);
            match r % 4 {
                0 => LookupRequest::ReplicaSet { v: r >> 2 & 0xff },
                1 => LookupRequest::PartStats { part: (r >> 2 & 3) as PartitionId },
                2 => LookupRequest::Fingerprint,
                _ => LookupRequest::LookupEdge { u: r >> 2 & 0xff, v: r >> 10 & 0xff },
            }
        })
        .collect();
    for _conn in 0..2 {
        let mut client = WireClient::<LookupRequest, LookupResponse>::connect(addr).unwrap();
        for req in &requests {
            let got = client.call(req).unwrap();
            assert_eq!(got.to_wire(), offline.answer(req).to_wire(), "{req:?}");
        }
    }

    let mut closer = WireClient::<LookupRequest, LookupResponse>::connect(addr).unwrap();
    assert_eq!(closer.call(&LookupRequest::Shutdown).unwrap(), LookupResponse::ShuttingDown);
    let stats = serving.join().unwrap();
    assert_eq!(stats.requests, 2 * requests.len() as u64 + 1);
    assert_eq!(stats.protocol_errors, 0);
}

/// A 64-deep pipelined client costs the server well under one `read` (and
/// one `write`) per request: both ends pay for the socket per batch that
/// arrived, and every response is still byte-identical to the offline
/// answer, in order, under its request's sequence number.
#[cfg(unix)]
#[test]
fn pipelined_lookups_cost_well_under_one_read_per_request() {
    use distributed_ne::graph::gen;
    use distributed_ne::runtime::{WireClient, WireServer};

    const WINDOW: usize = 64;
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 11));
    let a = distributed_ne::core::DistributedNe::new(
        distributed_ne::core::NeConfig::default().with_seed(11),
    )
    .partition(&g, 3);
    let offline = AssignmentService::new(ShardedAssignmentIndex::build(&g, &a, 4));

    let server = WireServer::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || {
        let mut svc = AssignmentService::new(ShardedAssignmentIndex::build(&g, &a, 4));
        server.serve(&mut svc).unwrap()
    });

    let requests: Vec<LookupRequest> = (0..10_000)
        .map(|i| {
            let r = distributed_ne::graph::hash::mix2(11, i);
            LookupRequest::LookupEdge { u: r & 0xff, v: r >> 8 & 0xff }
        })
        .collect();
    let mut client = WireClient::<LookupRequest, LookupResponse>::connect(addr).unwrap();
    let mut answered = 0;
    for (i, req) in requests.iter().enumerate() {
        assert_eq!(client.send(req).unwrap(), i as u32);
        if i + 1 - answered >= WINDOW {
            let (seq, got) = client.recv().unwrap();
            assert_eq!((seq, got), (answered as u32, offline.answer(&requests[answered])));
            answered += 1;
        }
    }
    while answered < requests.len() {
        let (seq, got) = client.recv().unwrap();
        assert_eq!((seq, got), (answered as u32, offline.answer(&requests[answered])));
        answered += 1;
    }
    assert_eq!(client.call(&LookupRequest::Shutdown).unwrap(), LookupResponse::ShuttingDown);

    let stats = serving.join().unwrap();
    assert_eq!(stats.requests, requests.len() as u64 + 1);
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.requests >= 4 * stats.read_calls, "{stats:?}");
    assert!(stats.requests >= 4 * stats.write_calls, "{stats:?}");
}
