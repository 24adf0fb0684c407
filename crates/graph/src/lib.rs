//! # dne-graph — graph substrate for Distributed NE
//!
//! This crate provides the graph representation and the synthetic
//! graph generators used throughout the Distributed NE reproduction:
//!
//! * [`Graph`] — an undirected, unweighted graph as its **canonical edge
//!   list**: globally numbered, sorted, deduplicated edges plus a degree
//!   per vertex. `Graph` is a facade over the pluggable [`GraphStorage`]
//!   seam: the default backend keeps the two arrays on the heap, while
//!   the `mmap` and `chunk-streamed` backends ([`storage`], [`mmap`])
//!   serve the same accessors from disk for graphs bigger than RAM
//!   (`DNE_GRAPH_STORAGE` selects one at [`io::open_chunked_env`]).
//! * [`Adjacency`] — neighbour lists in compressed sparse row form,
//!   *derived* from a `Graph` on any backend by the callers that walk
//!   them (the baseline partitioners and the sequential application
//!   references); the paper's own partitioner deploys from one pass over
//!   the edge stream and builds its CSR per machine (§4 "Data Structure").
//! * [`LocalIds`] — a machine's distinct vertex ids, ascending, read off a
//!   rank bitmap over its id range: dense local ids and an O(1)
//!   global→local translation (a bit test plus a popcount) without a hash
//!   map (both per-machine CSRs number their vertices through it).
//! * [`PackedIds`] — a sequence of `u64` ids in blocks of fixed-width
//!   deltas from each block's minimum, with O(1) reads: how the allocator
//!   keeps its global edge ids and [`LocalIds`] its global vertex ids.
//! * [`EdgeListBuilder`] — canonicalizing edge-list builder (drops self
//!   loops, deduplicates parallel edges, sorts) used by every generator and
//!   by the IO layer.
//! * [`gen`] — synthetic generators: Graph500-style RMAT ([`gen::rmat()`]),
//!   the ring+complete construction from Theorem 2
//!   ([`gen::ring_complete()`]), 2D-lattice road networks ([`gen::road`]),
//!   Erdős–Rényi, Chung–Lu power-law, and small classic graphs for tests.
//! * [`hash`] — fast non-cryptographic hashing (splitmix64-based) used for
//!   1D/2D hash partitioning and for internal hash maps.
//! * [`io`] — a plain-text edge-list reader/writer, and the one binary
//!   graph file (`DNECSRF2`: fixed-width edge records, then a degree per
//!   vertex) that every storage backend opens directly.
//! * [`parallel`] — the parallel ingestion machinery behind
//!   [`EdgeListBuilder::build_parallel`],
//!   [`Graph::from_canonical_edges_parallel`] and the `gen::*_parallel`
//!   generators; every parallel path is byte-identical to its sequential
//!   counterpart for any thread count.
//! * [`degree`] — degree-distribution statistics used by the benchmark
//!   harness to validate that dataset stand-ins preserve skew.
//!
//! The crate is dependency-free by design (generators use an internal
//! splitmix64 RNG) so that every other crate in the workspace can build on
//! it.
//!
//! ## Quick start
//!
//! ```
//! use dne_graph::{EdgeListBuilder, Graph};
//!
//! // Raw input with a self loop, a duplicate, and both orientations.
//! let mut b = EdgeListBuilder::new();
//! b.extend_edges([(0, 1), (1, 0), (1, 2), (1, 2), (2, 2)]);
//! let g: Graph = b.into_graph(3);
//!
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 2); // (0,1) and (1,2)
//! assert_eq!(g.degree(1), 2);
//!
//! // Generators produce ready-made graphs.
//! let r = dne_graph::gen::rmat(&dne_graph::gen::RmatConfig::graph500(8, 4, 42));
//! assert_eq!(r.num_vertices(), 1 << 8);
//! ```

#![deny(missing_docs)]

pub mod adjacency;
pub mod degree;
pub mod edge_list;
pub mod gen;
pub mod graph;
pub mod hash;
pub mod io;
pub mod local_ids;
pub mod mmap;
pub mod packed_ids;
pub mod parallel;
pub mod storage;
pub mod transform;
pub mod types;

pub use adjacency::Adjacency;
pub use edge_list::EdgeListBuilder;
pub use graph::Graph;
pub use local_ids::LocalIds;
pub use packed_ids::PackedIds;
pub use storage::{GraphStorage, StorageKind};
pub use types::{EdgeId, VertexId, INVALID_VERTEX};

/// Types that can report (an estimate of) their owned heap allocation.
///
/// Used by the simulated-cluster memory accounting (`dne-runtime`) to
/// reproduce the paper's "mem score" metric (Figure 9): total bytes of live
/// partitioning state at the peak snapshot, normalized by `|E|`.
///
/// The Distributed NE round loop calls `heap_bytes` on its live state once
/// per rank per round, so an implementation must be O(1): a sum of
/// capacities and cached counters, never an iteration over a container —
/// and each term is what is *allocated*, not what is in use. State that
/// would live in nested containers is better kept flat (`dne_core`'s
/// `AllocatorPart` holds its per-vertex membership sets in two arrays, so
/// their bytes are two capacities).
pub trait HeapSize {
    /// Estimated number of heap bytes owned by `self` (excluding
    /// `size_of::<Self>()`). Constant time — see the trait docs.
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}
