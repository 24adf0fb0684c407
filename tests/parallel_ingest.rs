//! Property tests for the parallel ingestion subsystem: every parallel
//! path must be byte-identical to its sequential counterpart for every
//! thread count, and the parallel generators must be seed-deterministic
//! regardless of how many threads sample the stream.

use distributed_ne::graph::gen::{
    barabasi_albert, barabasi_albert_parallel, chung_lu, chung_lu_parallel, erdos_renyi,
    erdos_renyi_parallel, rmat, rmat_parallel, RmatConfig,
};
use distributed_ne::graph::{io, EdgeListBuilder, Graph};
use proptest::prelude::*;

const THREADS: &[usize] = &[1, 2, 8];

fn build_serial(pairs: &[(u64, u64)], n: u64) -> Graph {
    let mut b = EdgeListBuilder::with_capacity(pairs.len());
    b.extend_edges(pairs.iter().copied());
    b.into_graph(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `build_parallel(t)` produces a byte-identical `Graph` for t ∈
    /// {1, 2, 8}. Edge counts straddle the parallel cutover so both the
    /// sequential fallback and the chunk/merge/parallel-CSR path run.
    #[test]
    fn build_parallel_is_byte_identical(
        pairs in prop::collection::vec((0u64..600, 0u64..600), 0..12_000),
        extra_vertices in 0u64..4,
    ) {
        let n = 600 + extra_vertices;
        let serial = build_serial(&pairs, n);
        for &t in THREADS {
            let mut b = EdgeListBuilder::with_capacity(pairs.len());
            b.extend_edges(pairs.iter().copied());
            prop_assert_eq!(&serial, &b.build_parallel(n, t), "threads {}", t);
        }
    }

    /// `finish_parallel` matches `finish` exactly (same sorted dedup list).
    #[test]
    fn finish_parallel_matches_finish(
        pairs in prop::collection::vec((0u64..300, 0u64..300), 0..10_000),
        threads in 1usize..9,
    ) {
        let mut a = EdgeListBuilder::new();
        a.extend_edges(pairs.iter().copied());
        let mut b = EdgeListBuilder::new();
        b.extend_edges(pairs.iter().copied());
        prop_assert_eq!(a.finish(), b.finish_parallel(threads));
    }

    /// The parallel RMAT generator is seed-deterministic across thread
    /// counts and equals the serial stream. Scale 11 × EF 16 spans
    /// multiple sample chunks.
    #[test]
    fn rmat_parallel_seed_deterministic(seed in 0u64..1000) {
        let cfg = RmatConfig::graph500(11, 16, seed);
        let serial = rmat(&cfg);
        for &t in THREADS {
            prop_assert_eq!(&serial, &rmat_parallel(&cfg, t), "threads {}", t);
        }
    }

    /// Same for Erdős–Rényi (including its bounded-attempts semantics)
    /// and Chung–Lu.
    #[test]
    fn random_generators_parallel_seed_deterministic(seed in 0u64..500) {
        let er = erdos_renyi(400, 9000, seed);
        let cl = chung_lu(500, 20_000, 2.4, seed);
        for &t in THREADS {
            prop_assert_eq!(&er, &erdos_renyi_parallel(400, 9000, seed, t), "threads {}", t);
            prop_assert_eq!(&cl, &chung_lu_parallel(500, 20_000, 2.4, seed, t), "threads {}", t);
        }
    }

    /// Barabási–Albert: sequential growth, parallel finalization.
    #[test]
    fn barabasi_parallel_seed_deterministic(seed in 0u64..200) {
        let serial = barabasi_albert(2000, 3, seed);
        for &t in THREADS {
            prop_assert_eq!(&serial, &barabasi_albert_parallel(2000, 3, seed, t), "threads {}", t);
        }
    }

    /// The binary on-disk format round-trips exactly for any writer
    /// buffer size.
    #[test]
    fn chunked_io_roundtrips(seed in 0u64..50, chunk in 1usize..5000) {
        let g = rmat(&RmatConfig::graph500(10, 8, seed));
        let dir = std::env::temp_dir().join("dne_parallel_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("g_{seed}_{chunk}.chunked"));
        io::write_chunked(&g, &p, chunk).unwrap();
        prop_assert_eq!(&g, &io::open_chunked_with(&p, distributed_ne::graph::StorageKind::InMemory).unwrap());
        std::fs::remove_file(&p).ok();
    }
}
