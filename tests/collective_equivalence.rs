//! The cross-topology equivalence harness — the acceptance gate for the
//! pluggable collective topologies.
//!
//! One shared driver runs `DistributedNe` and the application engine
//! under **every** (transport × topology) pair and asserts the results
//! are bit-identical to the flat/loopback reference: assignment
//! fingerprint, iteration counts, replication factor, edge balance, and
//! application values. Communication totals are checked *exactly* against
//! each topology's published per-collective cost
//! (`CollectiveTopology::total_traffic`): the point-to-point traffic is
//! topology-independent, so
//! `comm(T) = comm(Flat) + rounds · (coll(T) − coll(Flat))`.
//!
//! Property tests then fuzz the collective primitives themselves: for
//! arbitrary `P ∈ 1..=17` (non-power-of-two ranks included — the classic
//! recursive-doubling edge case) and random payloads, the tree and
//! recursive-doubling all-gather/all-reduce must agree with the flat
//! reference and charge exactly the published per-rank traffic, on both
//! the loopback and bytes backends.
//!
//! Finally, fault injection: a rank killed mid-collective under the tcp
//! backend must surface a typed `TransportError` at every survivor, for
//! every topology — never a hang.

mod common;

use common::{assignment_fingerprint, transport_topology_pairs, TOPOLOGIES};
use distributed_ne::apps::Engine;
use distributed_ne::core::{DistributedNe, NeConfig};
use distributed_ne::graph::gen;
use distributed_ne::partition::{EdgePartitioner, PartitionQuality};
use distributed_ne::runtime::comm::CommEndpoint;
use distributed_ne::runtime::{
    BatchConfig, CollectiveTopology, Collectives, CommStats, Ctx, MemoryTracker, TcpTransport,
    TransportError, TransportKind,
};
use proptest::prelude::*;

// ------------------------------------------------ closed-form accounting --

/// The documented closed-form per-collective totals (bytes, messages) at
/// the paper-scale rank counts — including the non-power-of-two P = 7.
/// These literals are the ARCHITECTURE.md table; `total_traffic` must
/// reproduce them, and measured traffic must reproduce `total_traffic`.
const EXPECTED_TOTALS: [(usize, [(u64, u64); 3]); 4] = [
    // P,  [Flat,          Binomial,      RecursiveDoubling]
    (4, [(96, 12), (128, 6), (96, 8)]),
    (7, [(336, 42), (408, 12), (360, 14)]),
    (16, [(1920, 240), (2176, 30), (1920, 64)]),
    (64, [(32256, 4032), (33792, 126), (32256, 384)]),
];

#[test]
fn per_collective_totals_match_the_documented_closed_forms() {
    for (p, per_topo) in EXPECTED_TOTALS {
        for (topo, want) in TOPOLOGIES.into_iter().zip(per_topo) {
            assert_eq!(topo.total_traffic(p), want, "{topo} at P={p}");
        }
    }
}

#[test]
fn measured_collective_traffic_matches_the_closed_forms() {
    // One barrier per rank on the estimating and the serializing
    // in-process backends: CommStats must land exactly on the documented
    // totals, and each rank exactly on its rank_traffic share.
    for (p, per_topo) in EXPECTED_TOTALS {
        for kind in [TransportKind::Loopback, TransportKind::Bytes] {
            for (topo, (want_bytes, want_msgs)) in TOPOLOGIES.into_iter().zip(per_topo) {
                let stats = CommStats::new(p);
                let fabric = ranks(kind, topo, p, stats.clone());
                std::thread::scope(|s| {
                    for mut coll in fabric {
                        s.spawn(move || coll.barrier().unwrap());
                    }
                });
                assert_eq!(stats.total_bytes(), want_bytes, "{kind}/{topo} P={p} bytes");
                assert_eq!(stats.total_msgs(), want_msgs, "{kind}/{topo} P={p} msgs");
                for rank in 0..p {
                    let (b, m) = topo.rank_traffic(rank, p);
                    assert_eq!(stats.bytes_sent_by(rank), b, "{kind}/{topo} P={p} rank {rank}");
                    assert_eq!(stats.msgs_sent_by(rank), m, "{kind}/{topo} P={p} rank {rank}");
                }
            }
        }
    }
}

// --------------------------------------------------- equivalence harness --

#[test]
fn distributed_ne_is_equivalent_across_every_transport_topology_pair() {
    // The headline driver: identical partitioning under all 9 pairs, with
    // exactly-predicted communication totals per topology.
    let graphs = [
        ("rmat", gen::rmat(&gen::RmatConfig::graph500(8, 6, 5))),
        ("star", gen::star(64)),
        ("path", gen::path(100)),
    ];
    let k = 4u32;
    for (name, g) in &graphs {
        let run = |kind, topo| {
            DistributedNe::new(
                NeConfig::default().with_seed(11).with_transport(kind).with_collectives(topo),
            )
            .partition_with_stats(g, k)
        };
        let (a_ref, s_ref) = run(TransportKind::Loopback, CollectiveTopology::Flat);
        let q_ref = PartitionQuality::measure(g, &a_ref);
        let fp_ref = assignment_fingerprint(&a_ref);
        let rounds = s_ref.collective_rounds;
        assert!(rounds > 0, "{name}: the NE loop must synchronize with collectives");
        // Point-to-point traffic is what remains after stripping the flat
        // collectives from the flat reference totals.
        let (flat_cb, flat_cm) = CollectiveTopology::Flat.total_traffic(k as usize);
        let p2p_bytes = s_ref.comm_bytes - rounds * flat_cb;
        let p2p_msgs = s_ref.comm_msgs - rounds * flat_cm;
        for (kind, topo) in transport_topology_pairs() {
            let (a, s) = run(kind, topo);
            let label = format!("{name}/{kind}/{topo}");
            assert_eq!(a, a_ref, "{label}: assignments must be bit-identical");
            assert_eq!(assignment_fingerprint(&a), fp_ref, "{label}: assignment fingerprint");
            assert_eq!(s.iterations, s_ref.iterations, "{label}: iteration count");
            assert_eq!(s.collective_rounds, rounds, "{label}: collective round count");
            let q = PartitionQuality::measure(g, &a);
            assert_eq!(q.replication_factor, q_ref.replication_factor, "{label}: RF");
            assert_eq!(q.edge_balance, q_ref.edge_balance, "{label}: EB");
            // Exact per-topology communication totals.
            let (cb, cm) = topo.total_traffic(k as usize);
            assert_eq!(s.comm_bytes, p2p_bytes + rounds * cb, "{label}: comm bytes");
            assert_eq!(s.comm_msgs, p2p_msgs + rounds * cm, "{label}: comm msgs");
        }
    }
}

#[test]
fn app_engine_is_equivalent_across_every_transport_topology_pair() {
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
    let k = 4u32;
    let a = DistributedNe::new(NeConfig::default().with_seed(3)).partition(&g, k);
    let run = |kind, topo| {
        let engine = Engine::new(&g, &a).with_transport(kind).with_collectives(topo);
        (engine.wcc(), engine.pagerank(5))
    };
    let (wcc_ref, pr_ref) = run(TransportKind::Loopback, CollectiveTopology::Flat);
    let (flat_cb, _) = CollectiveTopology::Flat.total_traffic(k as usize);
    for (kind, topo) in transport_topology_pairs() {
        let (wcc, pr) = run(kind, topo);
        for (l, r) in [(&wcc_ref, &wcc), (&pr_ref, &pr)] {
            let label = format!("{}/{kind}/{topo}", l.name);
            assert_eq!(l.supersteps, r.supersteps, "{label}: supersteps");
            assert_eq!(l.values.len(), r.values.len(), "{label}: value count");
            for (x, y) in l.values.iter().zip(&r.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: values must be bit-identical");
            }
        }
        // WCC runs one all_reduce_any per superstep: its comm shifts by
        // exactly supersteps · Δ(per-collective bytes). PageRank runs a
        // fixed superstep count with no collectives at all, so its comm
        // is identical under every topology.
        let (cb, _) = topo.total_traffic(k as usize);
        let want_wcc = wcc_ref.comm_bytes - wcc_ref.supersteps * flat_cb + wcc_ref.supersteps * cb;
        assert_eq!(wcc.comm_bytes, want_wcc, "WCC/{kind}/{topo}: comm bytes");
        assert_eq!(pr.comm_bytes, pr_ref.comm_bytes, "PageRank/{kind}/{topo}: comm bytes");
    }
}

// ------------------------------------------------------- property tests --

/// One rank of a raw fabric driven only through its collectives: its
/// endpoint of the session's one mesh with the schedule executor over it,
/// the fallible collectives under their plain names.
struct CollRank(Ctx<u64>);

impl CollRank {
    fn new(comm: CommEndpoint<u64>, topo: CollectiveTopology) -> Self {
        let (rank, n) = (comm.rank(), comm.nprocs());
        CollRank(Ctx::from_parts(comm, Collectives::new(topo, rank, n), MemoryTracker::new(n)))
    }
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn barrier(&mut self) -> Result<(), TransportError> {
        self.0.try_barrier()
    }
    fn all_gather_u64(&mut self, v: u64) -> Result<Vec<u64>, TransportError> {
        self.0.try_all_gather_u64(v)
    }
    fn all_reduce_sum_u64(&mut self, v: u64) -> Result<u64, TransportError> {
        self.0.try_all_reduce_sum_u64(v)
    }
    fn all_reduce_max_u64(&mut self, v: u64) -> Result<u64, TransportError> {
        self.0.try_all_reduce_max_u64(v)
    }
    fn all_reduce_sum_f64(&mut self, v: f64) -> Result<f64, TransportError> {
        self.0.try_all_reduce_sum_f64(v)
    }
    fn all_reduce_any(&mut self, v: bool) -> Result<bool, TransportError> {
        self.0.try_all_reduce_any(v)
    }
}

/// The `n` ranks of a raw `kind` fabric under `topo`, charging `stats`.
fn ranks(
    kind: TransportKind,
    topo: CollectiveTopology,
    n: usize,
    stats: std::sync::Arc<CommStats>,
) -> Vec<CollRank> {
    let endpoints = CommEndpoint::fabric(kind, n, BatchConfig::disabled(), stats);
    endpoints.into_iter().map(|comm| CollRank::new(comm, topo)).collect()
}

/// Run one collective program on a raw fabric, one thread per rank,
/// returning the per-rank outcomes in rank order.
fn run_fabric<R: Send>(
    kind: TransportKind,
    topo: CollectiveTopology,
    n: usize,
    stats: std::sync::Arc<CommStats>,
    f: impl Fn(usize, &mut CollRank) -> R + Sync,
) -> Vec<R> {
    let fabric = ranks(kind, topo, n, stats);
    std::thread::scope(|s| {
        let handles: Vec<_> = fabric
            .into_iter()
            .map(|mut coll| {
                let f = &f;
                s.spawn(move || f(coll.rank(), &mut coll))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tree and recursive-doubling all-gather/all-reduce agree with the
    /// flat reference for arbitrary rank counts 1..=17 (non-power-of-two
    /// included) and random payload words — results bit-identical, and
    /// every rank charged exactly its published traffic — on both the
    /// loopback and bytes backends.
    #[test]
    fn collectives_agree_with_flat_reference(
        // Words bounded so a 17-rank sum cannot overflow (the production
        // collectives sum edge counts and use a plain checked sum).
        values in prop::collection::vec(0u64..(1 << 59), 1usize..18),
    ) {
        let p = values.len();
        // Full-range f64 bit patterns (NaNs and infinities included),
        // derived from the bounded words.
        let fbits: Vec<u64> =
            values.iter().map(|&v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        // The flat reference semantics, computed locally: the gathered
        // vector is the rank-indexed contributions; every reduction folds
        // it in rank order.
        let want_gather = values.clone();
        let want_sum: u64 = values.iter().sum();
        let want_max: u64 = values.iter().copied().max().unwrap_or(0);
        let want_f64: u64 =
            fbits.iter().map(|&b| f64::from_bits(b)).sum::<f64>().to_bits();
        for kind in [TransportKind::Loopback, TransportKind::Bytes] {
            for topo in CollectiveTopology::ALL {
                let stats = CommStats::new(p);
                let (values, fbits) = (&values, &fbits);
                let out = run_fabric(kind, topo, p, stats.clone(), |rank, coll| {
                    let v = values[rank];
                    let gathered = coll.all_gather_u64(v).unwrap();
                    let sum = coll.all_reduce_sum_u64(v).unwrap();
                    let max = coll.all_reduce_max_u64(v).unwrap();
                    let fsum = coll.all_reduce_sum_f64(f64::from_bits(fbits[rank])).unwrap();
                    let any = coll.all_reduce_any(v % 2 == 0).unwrap();
                    (gathered, sum, max, fsum.to_bits(), any)
                });
                let want_any = values.iter().any(|&v| v % 2 == 0);
                for (rank, (gathered, sum, max, fbits, any)) in out.into_iter().enumerate() {
                    let label = format!("{kind}/{topo} P={p} rank {rank}");
                    prop_assert_eq!(&gathered, &want_gather, "{}: all_gather", label);
                    prop_assert_eq!(sum, want_sum, "{}: sum", label);
                    prop_assert_eq!(max, want_max, "{}: max", label);
                    prop_assert_eq!(fbits, want_f64, "{}: f64 sum must be bit-identical", label);
                    prop_assert_eq!(any, want_any, "{}: any", label);
                }
                // Five collectives ran; each rank charged 5× its share.
                for rank in 0..p {
                    let (b, m) = topo.rank_traffic(rank, p);
                    prop_assert_eq!(stats.bytes_sent_by(rank), 5 * b);
                    prop_assert_eq!(stats.msgs_sent_by(rank), 5 * m);
                    prop_assert_eq!(stats.collectives_by(rank), 5);
                }
            }
        }
    }
}

// -------------------------------------------------------- fault injection --

#[test]
fn killed_rank_mid_collective_is_a_typed_error_under_every_topology() {
    // Extend the PR-4 `abort()` hook across topologies: rank 1 of a
    // 3-rank tcp collectives fabric dies abnormally (sockets slammed, no
    // goodbye frames — exactly what a killed process looks like). Both
    // survivors' next collective must surface a typed `TransportError`
    // (`Disconnected` from a closed stream, or `Io` when the schedule has
    // the survivor writing into the dead socket) — never a hang and never
    // a panic, whichever schedule the topology runs.
    for topo in CollectiveTopology::ALL {
        let stats = CommStats::new(3);
        let mut links = TcpTransport::<u64>::fabric(3);
        let victim = links.remove(1);
        victim.abort();
        drop(victim); // goodbye writes fail silently on the dead sockets
        let survivors: Vec<CollRank> = links
            .into_iter()
            .map(|l| CollRank::new(CommEndpoint::from_transport(Box::new(l), stats.clone()), topo))
            .collect();
        std::thread::scope(|s| {
            for mut coll in survivors {
                s.spawn(move || {
                    let rank = coll.rank();
                    let err = coll
                        .all_gather_u64(rank as u64)
                        .expect_err("a dead peer cannot satisfy a 3-rank collective");
                    assert!(
                        matches!(
                            err,
                            TransportError::Disconnected { .. } | TransportError::Io { .. }
                        ),
                        "{topo} rank {rank}: expected a typed disconnect/io error, got {err}"
                    );
                });
            }
        });
    }
}

#[test]
fn panicking_machine_fails_tcp_collectives_for_every_topology() {
    // End-to-end through the cluster layer: one machine of a tcp cluster
    // unwinds mid-run; under every topology the survivors observe the
    // failure (surfaced through the infallible Ctx wrappers as a panic
    // naming the transport error) instead of hanging.
    for topo in TOPOLOGIES {
        let result = std::panic::catch_unwind(|| {
            common::cluster(3, TransportKind::Tcp, topo).run::<u64, _, _>(|ctx| {
                if ctx.rank() == 1 {
                    panic!("injected failure");
                }
                ctx.all_gather_u64(ctx.rank() as u64);
            });
        });
        assert!(result.is_err(), "{topo}: the dead peer must abort the run");
    }
}
