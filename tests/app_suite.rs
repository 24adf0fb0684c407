//! The Graphalytics-grade application suite: six reference-checked kernels
//! (BFS, SSSP, WCC, PageRank, LCC, Triangles) over the sampled
//! transport × topology × storage matrix.
//!
//! The structure mirrors LDBC Graphalytics' validation methodology:
//! every kernel result is checked against an independently implemented
//! sequential reference under a **stated tolerance contract**
//! ([`Kernel::tolerance`]) — bit-identical for the integer-valued kernels,
//! an asserted ULP bound for the floating-point ones. The engine runs over
//! a *reopened* storage backend (in-memory / mmap / chunk-streamed) while
//! references run on the generated in-memory graph, so the matrix also
//! gates the storage seam: same file, any backend, same answers.
//!
//! The matrix is sampled as a Latin square (`common::matrix_cells`): 9
//! cells covering all 27 pairwise axis combinations of the 3×3×3 cube.
//!
//! This file also subsumes the former `apps_correctness.rs` suite (its
//! tests are folded in verbatim below), adds cross-kernel property tests
//! (triangle counts invariant under vertex relabeling, LCC confined to
//! `[0, 1]`, BFS levels ≡ SSSP distances on unit weights), and extends the
//! PR-4/PR-5 fault-injection pattern to the new kernels: a tcp rank killed
//! mid-kernel must surface a typed `TransportError` at every survivor —
//! never a hang.
#![allow(clippy::needless_range_loop)]

mod common;

use std::collections::HashSet;

use common::{materialize_chunked, matrix_cells, reopen};
use distributed_ne::apps::engine::VertexProgram;
use distributed_ne::apps::verify::{check_values, verify_kernel, Kernel};
use distributed_ne::apps::{
    bfs_reference, lcc_reference, pagerank_reference, sssp_reference, triangle_total,
    triangles_reference, wcc_reference, AdjMsg, AppMsg, Engine,
};
use distributed_ne::core::{DistributedNe, NeConfig};
use distributed_ne::graph::hash::SplitMix64;
use distributed_ne::graph::{gen, io, EdgeListBuilder, Graph};
use distributed_ne::partition::hash_based::{GridPartitioner, RandomPartitioner};
use distributed_ne::partition::streaming::HdrfPartitioner;
use distributed_ne::partition::{EdgeAssignment, EdgePartitioner};
use distributed_ne::runtime::comm::CommEndpoint;
use distributed_ne::runtime::{
    CollectiveTopology, Collectives, CommStats, Ctx, MemoryTracker, TcpTransport, TransportError,
    WireDecode, WireEncode,
};
use proptest::prelude::*;

// ---------------------------------------------------------- test graphs --

/// A deliberately messy graph the canonicalizer must absorb: raw input
/// containing self-loops and duplicate edges (both dropped by
/// `EdgeListBuilder`), two separate components — a triangle-with-tail and
/// a distant 4-clique — and blocks of isolated vertices (4..10 and
/// 14..17). Exercises exactly what the old `apps_correctness.rs` suite
/// never did: disconnected structure and vertices with no edges at all,
/// on every kernel at once.
fn frayed_graph() -> Graph {
    let mut b = EdgeListBuilder::new();
    // Component 1: triangle with a tail (known LCC profile [1, 1, 1/3, 0]).
    b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
    // Raw-input noise: duplicates (both orientations) and self-loops.
    b.extend_edges([(1, 0), (2, 2), (0, 1), (3, 3)]);
    // Component 2: a 4-clique far from the BFS/SSSP source.
    b.extend_edges([(10, 11), (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)]);
    b.into_graph(17)
}

/// The graph roster of the headline matrix: skewed (RMAT), uniform
/// (Erdős–Rényi), power-law with a tunable exponent (Chung-Lu), and the
/// adversarial frayed graph above.
fn suite_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", gen::rmat(&gen::RmatConfig::graph500(7, 6, 42))),
        ("erdos_renyi", gen::erdos_renyi(150, 400, 7)),
        ("chung_lu", gen::chung_lu(150, 400, 2.5, 9)),
        ("frayed", frayed_graph()),
    ]
}

// ------------------------------------------------------ headline matrix --

#[test]
fn latin_square_sample_covers_every_pairwise_combination() {
    // 9 cells, and every two-axis projection hits all 9 of its pairs —
    // the guarantee that lets the suite run 9 cells instead of 27.
    let cells = matrix_cells();
    assert_eq!(cells.len(), 9);
    let tt: HashSet<String> = cells.iter().map(|(t, p, _)| format!("{t}/{p}")).collect();
    let ts: HashSet<String> = cells.iter().map(|(t, _, s)| format!("{t}/{s}")).collect();
    let ps: HashSet<String> = cells.iter().map(|(_, p, s)| format!("{p}/{s}")).collect();
    assert_eq!(tt.len(), 9, "every transport × topology pair");
    assert_eq!(ts.len(), 9, "every transport × storage pair");
    assert_eq!(ps.len(), 9, "every topology × storage pair");
}

#[test]
fn six_kernels_match_references_across_the_sampled_matrix() {
    for (name, g) in suite_graphs() {
        let a = DistributedNe::new(NeConfig::default().with_seed(7)).partition(&g, 4);
        // References once per graph, on the in-memory original.
        let refs: Vec<(Kernel, Vec<f64>)> =
            Kernel::suite().into_iter().map(|k| (k, k.reference(&g))).collect();
        let path = materialize_chunked(&g, &format!("app_suite_matrix_{name}"));
        for (kind, topo, storage) in matrix_cells() {
            let reopened = reopen(&path, storage);
            let engine = Engine::new(&reopened, &a).with_transport(kind).with_collectives(topo);
            for (kernel, want) in &refs {
                let label = format!("{name}/{kind}/{topo}/{storage}/{}", kernel.name());
                let run = kernel.run(&engine);
                check_values(kernel.name(), &run.values, want, kernel.tolerance())
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                if *kernel == Kernel::Triangles {
                    assert_eq!(
                        run.aggregate,
                        Some(triangle_total(want)),
                        "{label}: global triangle count"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_defaults_resolve_the_environment_cell() {
    // CI reruns this binary under explicit DNE_TRANSPORT /
    // DNE_COLLECTIVES / DNE_GRAPH_STORAGE exports; the env-default engine
    // over an env-opened graph must land on that cell and still match
    // every reference.
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 11));
    let a = DistributedNe::new(NeConfig::default().with_seed(11)).partition(&g, 4);
    let path = materialize_chunked(&g, "app_suite_env");
    let reopened = io::open_chunked_env(&path).expect("open with the env-selected backend");
    let engine = Engine::new(&reopened, &a);
    for kernel in Kernel::suite() {
        verify_kernel(kernel, &engine, &g).unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    }
}

// ------------------------- folded in from the former apps_correctness.rs --

fn assignments(g: &Graph, k: u32) -> Vec<(String, EdgeAssignment)> {
    vec![
        ("Random".into(), RandomPartitioner::new(3).partition(g, k)),
        ("Grid".into(), GridPartitioner::new(3).partition(g, k)),
        ("HDRF".into(), HdrfPartitioner::new(3).partition(g, k)),
        (
            "DistributedNE".into(),
            DistributedNe::new(NeConfig::default().with_seed(3)).partition(g, k),
        ),
    ]
}

#[test]
fn sssp_agrees_with_bfs_for_every_partitioner() {
    let g = gen::rmat(&gen::RmatConfig::graph500(8, 6, 1));
    let want = sssp_reference(&g, 0);
    for (name, a) in assignments(&g, 6) {
        let run = Engine::new(&g, &a).sssp(0);
        for v in 0..g.num_vertices() as usize {
            if g.degree(v as u64) > 0 {
                assert_eq!(run.values[v], want[v], "{name}: vertex {v}");
            }
        }
    }
}

#[test]
fn wcc_agrees_with_reference_on_disconnected_graph() {
    let g = gen::ring_complete(7);
    let want = wcc_reference(&g);
    for (name, a) in assignments(&g, 5) {
        let run = Engine::new(&g, &a).wcc();
        assert_eq!(run.values, want, "{name}");
    }
}

#[test]
fn pagerank_agrees_within_fp_tolerance() {
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 6, 9));
    let want = pagerank_reference(&g, 15);
    for (name, a) in assignments(&g, 4) {
        let run = Engine::new(&g, &a).pagerank(15);
        for v in 0..g.num_vertices() as usize {
            if g.degree(v as u64) > 0 {
                assert!(
                    (run.values[v] - want[v]).abs() < 1e-8,
                    "{name}: vertex {v}: {} vs {}",
                    run.values[v],
                    want[v]
                );
            }
        }
    }
}

#[test]
fn better_partitions_move_fewer_bytes() {
    // Table 5's causal chain: lower RF ⇒ lower COM, measured on PageRank
    // (the communication-heavy app).
    let g = gen::rmat(&gen::RmatConfig::graph500(10, 12, 5));
    let k = 8;
    let random = RandomPartitioner::new(5).partition(&g, k);
    let dne = DistributedNe::new(NeConfig::default().with_seed(5)).partition(&g, k);
    let com_random = Engine::new(&g, &random).pagerank(5).comm_bytes;
    let com_dne = Engine::new(&g, &dne).pagerank(5).comm_bytes;
    assert!(com_dne < com_random, "D.NE comm {com_dne} should be below Random {com_random}");
}

// -------------------------------------------------------- property tests --

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: u64, seed: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..p.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// WCC correctness over random graphs and partition counts.
    #[test]
    fn wcc_random_graphs(n in 20u64..120, m in 20u64..300, seed in 0u64..500, k in 2u32..6) {
        let g = gen::erdos_renyi(n, m, seed);
        prop_assume!(g.num_edges() > 0);
        let a = RandomPartitioner::new(seed).partition(&g, k);
        let run = Engine::new(&g, &a).wcc();
        prop_assert_eq!(run.values, wcc_reference(&g));
    }

    /// Triangles are a structural invariant: relabeling the vertices of a
    /// graph permutes the per-vertex counts and leaves the global count
    /// unchanged. The distributed kernel on the original must therefore
    /// match the sequential reference on an independently relabeled copy,
    /// vertex-for-vertex through the permutation.
    #[test]
    fn triangle_counts_are_invariant_under_vertex_relabeling(
        n in 20u64..100, m in 20u64..250, seed in 0u64..500, k in 2u32..6,
    ) {
        let g = gen::erdos_renyi(n, m, seed);
        prop_assume!(g.num_edges() > 0);
        let perm = permutation(g.num_vertices(), seed ^ 0xA5A5);
        let mut b = EdgeListBuilder::new();
        g.for_each_edge(|_, u, v| b.push(perm[u as usize], perm[v as usize]));
        let h = b.into_graph(g.num_vertices());
        let want = triangles_reference(&h);
        let a = RandomPartitioner::new(seed).partition(&g, k);
        let run = Engine::new(&g, &a).triangles();
        prop_assert_eq!(run.aggregate, Some(triangle_total(&want)), "global count");
        for v in 0..g.num_vertices() as usize {
            prop_assert_eq!(run.values[v], want[perm[v] as usize], "vertex {}", v);
        }
    }

    /// Every LCC value is a proportion: confined to `[0, 1]` on a simple
    /// undirected graph, and bit-identical to the reference.
    #[test]
    fn lcc_stays_in_the_unit_interval(
        n in 10u64..100, m in 10u64..250, seed in 0u64..500, k in 2u32..6,
    ) {
        let g = gen::erdos_renyi(n, m, seed);
        prop_assume!(g.num_edges() > 0);
        let a = RandomPartitioner::new(seed).partition(&g, k);
        let run = Engine::new(&g, &a).lcc();
        let want = lcc_reference(&g);
        for v in 0..g.num_vertices() as usize {
            prop_assert!(
                (0.0..=1.0).contains(&run.values[v]),
                "vertex {}: lcc {} outside [0, 1]", v, run.values[v]
            );
            prop_assert_eq!(run.values[v].to_bits(), want[v].to_bits(), "vertex {}", v);
        }
    }

    /// On unit weights, BFS levels and SSSP distances are the same
    /// function — the distributed runs must agree bit-for-bit with each
    /// other and with the level-synchronous reference, from any source.
    #[test]
    fn bfs_levels_equal_sssp_distances_on_unit_weights(
        n in 10u64..100, m in 10u64..250, seed in 0u64..500, k in 2u32..6,
        src_pick in 0u64..1000,
    ) {
        let g = gen::erdos_renyi(n, m, seed);
        prop_assume!(g.num_edges() > 0);
        let source = src_pick % g.num_vertices();
        let a = RandomPartitioner::new(seed).partition(&g, k);
        let engine = Engine::new(&g, &a);
        let bfs = engine.bfs(source);
        let sssp = engine.sssp(source);
        for v in 0..g.num_vertices() as usize {
            prop_assert_eq!(
                bfs.values[v].to_bits(), sssp.values[v].to_bits(),
                "vertex {}: BFS level vs SSSP distance", v
            );
        }
        prop_assert_eq!(&bfs.values, &bfs_reference(&g, source));
    }
}

// -------------------------------------------------------- fault injection --

/// The fault fixture: a 3-partition assignment whose engine the survivors
/// drive directly over a hand-built tcp fabric.
fn fault_fixture() -> (Graph, EdgeAssignment) {
    let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 8));
    let a = RandomPartitioner::new(8).partition(&g, 3);
    (g, a)
}

/// Build the 3-rank tcp fabric (one mesh: point-to-point messages and
/// collectives), kill rank 1 the way a dead process dies (sockets slammed
/// shut, no goodbye frames), and return the two survivors' contexts.
fn surviving_ctxs<M>() -> Vec<Ctx<M>>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    let stats = CommStats::new(3);
    let mem = MemoryTracker::new(3);
    let mut links = TcpTransport::<M>::fabric(3);
    let victim = links.remove(1);
    victim.abort();
    drop(victim);
    links
        .into_iter()
        .map(|link| {
            let comm = CommEndpoint::from_transport(Box::new(link), stats.clone());
            let coll = Collectives::new(CollectiveTopology::Flat, comm.rank(), comm.nprocs());
            Ctx::from_parts(comm, coll, mem.clone())
        })
        .collect()
}

#[test]
fn killed_rank_mid_bfs_is_a_typed_error_not_a_hang() {
    // Rank 1 dies before BFS's first mirror→master exchange; both
    // survivors must surface a typed `TransportError` (`Disconnected` from
    // the slammed stream, or `Io` when the schedule has the survivor
    // writing into the dead socket) — never a hang, never a panic.
    let (g, a) = fault_fixture();
    let engine = Engine::new(&g, &a);
    let prog = VertexProgram::bfs(0);
    std::thread::scope(|s| {
        for mut ctx in surviving_ctxs::<AppMsg>() {
            let (engine, prog) = (&engine, &prog);
            s.spawn(move || {
                let rank = ctx.rank();
                let err = engine
                    .run_rank(&mut ctx, prog)
                    .expect_err("a dead peer cannot satisfy the mirror→master exchange");
                assert!(
                    matches!(err, TransportError::Disconnected { .. } | TransportError::Io { .. }),
                    "BFS rank {rank}: expected a typed disconnect/io error, got {err}"
                );
            });
        }
    });
}

#[test]
fn killed_rank_mid_adjacency_kernel_is_a_typed_error_not_a_hang() {
    // Triangles and LCC share the three-round adjacency kernel
    // (`run_triangles_rank`), so this one wire path covers both new apps.
    // Rank 1 dies before round 1's fragment exchange.
    let (g, a) = fault_fixture();
    let engine = Engine::new(&g, &a);
    std::thread::scope(|s| {
        for mut ctx in surviving_ctxs::<AdjMsg>() {
            let engine = &engine;
            s.spawn(move || {
                let rank = ctx.rank();
                let err = engine
                    .run_triangles_rank(&mut ctx)
                    .expect_err("a dead peer cannot satisfy the fragment exchange");
                assert!(
                    matches!(err, TransportError::Disconnected { .. } | TransportError::Io { .. }),
                    "adjacency kernel rank {rank}: expected a typed disconnect/io error, got {err}"
                );
            });
        }
    });
}
