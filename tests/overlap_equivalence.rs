//! The coalescing/overlap equivalence harness — the acceptance gate for
//! the pipelined communication path (frame coalescing, eager receive
//! draining, and the double-buffered NE termination gather).
//!
//! Coalescing and overlap are *performance* levers: they change how many
//! physical frames cross the fabric and when, never what the algorithms
//! compute or how much logical traffic they charge. The suites here pin
//! that contract: `DistributedNe` and the application engine must produce
//! bit-identical results and identical logical message/byte accounting
//! with batching on or off, under every transport backend, while the
//! physical frame count may only stay equal or drop.
//!
//! Fault injection then covers the overlapped round shape: a rank that
//! dies abnormally in the middle of a pipelined round (send fan-out done,
//! split all-gather in flight) must surface a typed `TransportError` at
//! every survivor — never a hang.

mod common;

use common::{assignment_fingerprint, TRANSPORTS};
use distributed_ne::apps::Engine;
use distributed_ne::core::{DistributedNe, NeConfig, NeMsg};
use distributed_ne::graph::gen;
use distributed_ne::partition::{EdgePartitioner, PartitionQuality};
use distributed_ne::runtime::{
    BatchConfig, Cluster, TcpProcessCluster, TransportError, TransportKind,
};

/// The batch settings every suite sweeps: coalescing off (the classic
/// one-frame-per-envelope behavior), a small threshold that forces many
/// mid-round auto-flushes, and one large enough that only the explicit
/// flush points emit frames.
const BATCHES: [(&str, BatchConfig); 3] = [
    ("off", BatchConfig::disabled()),
    ("msgs8", BatchConfig::msgs(8)),
    ("msgs512", BatchConfig::msgs(512)),
];

#[test]
fn distributed_ne_is_bit_identical_with_coalescing_on_and_off() {
    let graphs = [
        ("rmat", gen::rmat(&gen::RmatConfig::graph500(8, 6, 5))),
        ("star", gen::star(64)),
        ("path", gen::path(100)),
    ];
    let k = 4u32;
    for (name, g) in &graphs {
        let run = |kind, batch| {
            DistributedNe::new(
                NeConfig::default().with_seed(11).with_transport(kind).with_comm_batch(batch),
            )
            .partition_with_stats(g, k)
        };
        let (a_ref, s_ref) = run(TransportKind::Loopback, BatchConfig::disabled());
        let q_ref = PartitionQuality::measure(g, &a_ref);
        let fp_ref = assignment_fingerprint(&a_ref);
        for kind in TRANSPORTS {
            for (bname, batch) in BATCHES {
                let (a, s) = run(kind, batch);
                let label = format!("{name}/{kind}/batch={bname}");
                assert_eq!(a, a_ref, "{label}: assignments must be bit-identical");
                assert_eq!(assignment_fingerprint(&a), fp_ref, "{label}: assignment fingerprint");
                assert_eq!(s.iterations, s_ref.iterations, "{label}: iteration count");
                assert_eq!(s.collective_rounds, s_ref.collective_rounds, "{label}: rounds");
                let q = PartitionQuality::measure(g, &a);
                assert_eq!(q.replication_factor, q_ref.replication_factor, "{label}: RF");
                assert_eq!(q.edge_balance, q_ref.edge_balance, "{label}: EB");
                // Logical accounting is batching- and transport-invariant.
                assert_eq!(s.comm_bytes, s_ref.comm_bytes, "{label}: comm bytes");
                assert_eq!(s.comm_msgs, s_ref.comm_msgs, "{label}: comm msgs");
                // Physical frames are the only thing allowed to move, and
                // only downward.
                assert_eq!(
                    run(kind, BatchConfig::disabled()).1.comm_frames,
                    s_ref.comm_frames,
                    "{label}: unbatched frame counts must agree across transports"
                );
                assert!(
                    s.comm_frames <= s_ref.comm_frames,
                    "{label}: coalescing must not add frames ({} > {})",
                    s.comm_frames,
                    s_ref.comm_frames
                );
            }
        }
    }
}

#[test]
fn app_engine_is_bit_identical_with_coalescing_on_and_off() {
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
    let k = 4u32;
    let a = DistributedNe::new(NeConfig::default().with_seed(3)).partition(&g, k);
    let run = |kind, batch| {
        let engine = Engine::new(&g, &a).with_transport(kind).with_comm_batch(batch);
        (engine.wcc(), engine.pagerank(5), engine.triangles())
    };
    let (wcc_ref, pr_ref, tri_ref) = run(TransportKind::Loopback, BatchConfig::disabled());
    for kind in TRANSPORTS {
        for (bname, batch) in BATCHES {
            let (wcc, pr, tri) = run(kind, batch);
            for (l, r) in [(&wcc_ref, &wcc), (&pr_ref, &pr), (&tri_ref, &tri)] {
                let label = format!("{}/{kind}/batch={bname}", l.name);
                assert_eq!(l.supersteps, r.supersteps, "{label}: supersteps");
                assert_eq!(l.comm_bytes, r.comm_bytes, "{label}: comm bytes");
                assert_eq!(l.comm_msgs, r.comm_msgs, "{label}: comm msgs");
                assert_eq!(l.aggregate, r.aggregate, "{label}: aggregate");
                for (x, y) in l.values.iter().zip(&r.values) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label}: values must be bit-identical");
                }
            }
        }
    }
}

#[test]
fn coalescing_cuts_tcp_frames_at_least_three_fold_at_p16() {
    // The ISSUE acceptance gate, verbatim: 10k small `NeMsg` envelopes
    // over real sockets at P = 16 must cross the fabric in at least 3×
    // fewer physical frames than envelopes once coalescing is on. 42
    // envelopes per destination per rank = 42 · 15 · 16 = 10 080 remote
    // envelopes; with `DNE_COMM_BATCH=64` nothing auto-flushes below 64,
    // so each rank's per-destination buffer collapses into exactly one
    // multi-message frame at the receive flush point.
    let p = 16usize;
    let per_dst = 42u64;
    let run = |batch| {
        let outcome = Cluster::with_transport(p, TransportKind::Tcp)
            .with_comm_batch(batch)
            .run::<NeMsg, u64, _>(|ctx| {
                for dst in (0..p).filter(|&d| d != ctx.rank()) {
                    for i in 0..per_dst {
                        ctx.send(dst, NeMsg::Select { vertices: vec![i, i + 1], random_budget: 0 });
                    }
                }
                let mut got = 0u64;
                for _ in 0..per_dst as usize * (p - 1) {
                    let (_, msg) = ctx.recv();
                    if let NeMsg::Select { vertices, .. } = msg {
                        got += vertices.len() as u64;
                    }
                }
                got
            });
        (outcome.comm.total_msgs(), outcome.comm.total_frames())
    };
    let envelopes = per_dst * (p as u64 - 1) * p as u64;
    assert!(envelopes >= 10_000, "the sweep must move at least 10k envelopes");
    let (plain_msgs, plain_frames) = run(BatchConfig::disabled());
    assert_eq!(plain_msgs, envelopes, "logical envelope count");
    assert_eq!(plain_frames, envelopes, "unbatched: one frame per remote envelope");
    let (batched_msgs, batched_frames) = run(BatchConfig::msgs(64));
    assert_eq!(batched_msgs, envelopes, "coalescing must not change logical accounting");
    assert!(
        3 * batched_frames <= envelopes,
        "coalescing must cut frames at least 3x: {batched_frames} frames for {envelopes} envelopes"
    );
}

#[test]
fn aborted_rank_mid_pipelined_round_is_a_typed_error_at_survivors() {
    // The overlapped round shape under fire: three tcp process sessions
    // run pipelined rounds (coalesced exchange fan-out, then a split
    // all-gather with an eager drain between start and finish). Rank 1
    // completes one round and then dies abnormally — its thread panics,
    // so its endpoint slams the sockets without goodbye frames, exactly
    // what a killed process looks like. Both survivors must surface a
    // typed `Disconnected`/`Io` error from whichever pipelined call they
    // are blocked in — never a hang.
    let p = 3usize;
    let host = TcpProcessCluster::host(p, "127.0.0.1:0").unwrap();
    let addr = host.addr().to_string();
    let mut host = Some(host);
    let errors: Vec<TransportError> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..p {
            let addr = addr.clone();
            let cluster = host.take();
            handles.push(s.spawn(move || {
                let cluster = match cluster {
                    Some(h) => h,
                    None => TcpProcessCluster::join(rank, p, &addr).unwrap(),
                };
                let mut session = cluster
                    .with_comm_batch(BatchConfig::msgs(8))
                    .connect::<u64>()
                    .expect("bootstrap");
                let ctx = &mut session.ctx;
                let mut round = 0u64;
                loop {
                    round += 1;
                    // Coalesced point-to-point fan-out (two envelopes per
                    // destination, flushed by the lock-step receive).
                    let r = (|| {
                        for dst in 0..p {
                            ctx.try_send(dst, round)?;
                            ctx.try_send(dst, round * 10 + ctx.rank() as u64)?;
                        }
                        ctx.try_flush()?;
                        for _ in 0..2 * p {
                            let _ = ctx.try_recv()?;
                        }
                        // Split all-gather with the eager drain in the
                        // overlap window — the pipelined termination shape.
                        let pending = ctx.try_start_all_gather_u64(round)?;
                        let _ = ctx.try_drain_ready()?;
                        let gathered = ctx.try_finish_all_gather_u64(pending)?;
                        assert_eq!(gathered, vec![round; p]);
                        Ok(())
                    })();
                    match r {
                        Ok(()) if ctx.rank() == 1 && round == 1 => {
                            // Dies abnormally: the unwinding thread drops
                            // the session in panic, which slams every
                            // socket with no goodbye.
                            panic!("injected mid-run failure");
                        }
                        Ok(()) => continue,
                        Err(e) => return e,
                    }
                }
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .filter_map(|(rank, h)| match h.join() {
                Ok(err) => Some(err),
                Err(_) => {
                    assert_eq!(rank, 1, "only the victim may panic");
                    None
                }
            })
            .collect()
    });
    assert_eq!(errors.len(), p - 1, "every survivor must observe the failure");
    for err in errors {
        assert!(
            matches!(err, TransportError::Disconnected { .. } | TransportError::Io { .. }),
            "expected a typed disconnect/io error, got {err}"
        );
    }
}
