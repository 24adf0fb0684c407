#![deny(missing_docs)]
//! # dne-partition — partitioning framework and baseline partitioners
//!
//! Defines the workspace-wide partitioning abstractions and implements every
//! *baseline* the paper compares against (§7.1 "Benchmark Partitioning
//! Algorithms"). Distributed NE itself lives in `dne-core` and plugs into
//! the same [`EdgePartitioner`] trait.
//!
//! ## Framework
//!
//! * [`EdgeAssignment`] — a dense `edge id → partition id` map, the output
//!   of every edge partitioner.
//! * [`PartitionQuality`] — replication factor (Equation 1), edge balance
//!   and vertex balance (§7.6 definitions) measured from an assignment.
//! * [`ReplicaTable`] — the replica set of every vertex under an
//!   assignment; quality, the served index, the application engine and
//!   the communication model all read this one table.
//! * [`EdgePartitioner`] / [`VertexPartitioner`] — the two partitioner
//!   families; [`VertexToEdge`] converts a vertex partitioner into an edge
//!   partitioner by assigning each edge to the partition of one of its
//!   endpoints at random, exactly as the paper does for ParMETIS, Spinner
//!   and XtraPuLP ("each edge is randomly assigned to one of its adjacent
//!   vertices' partitions", after Bourse et al.).
//!
//! ## Baselines (paper §2.2 / §7.1 → module)
//!
//! | Paper name        | Kind                 | Module |
//! |-------------------|----------------------|--------|
//! | Random (1D hash)  | hash                 | [`hash_based::RandomPartitioner`] |
//! | 2D-Random / Grid  | hash                 | [`hash_based::GridPartitioner`] |
//! | DBH               | degree-based hash    | [`hash_based::DbhPartitioner`] |
//! | Hybrid Hash       | degree-based hash    | [`hash_based::HybridHashPartitioner`] |
//! | Oblivious         | greedy streaming     | [`streaming::ObliviousPartitioner`] |
//! | HDRF              | greedy streaming     | [`streaming::HdrfPartitioner`] |
//! | Hybrid Ginger     | hash + refinement    | [`streaming::GingerPartitioner`] |
//! | NE (sequential)   | offline greedy       | [`greedy::NePartitioner`] |
//! | SNE               | streaming NE         | [`greedy::SnePartitioner`] |
//! | Spinner           | LP vertex partition  | [`vertex::SpinnerPartitioner`] |
//! | XtraPuLP          | LP vertex partition  | [`vertex::XtraPulpPartitioner`] |
//! | ParMETIS          | multilevel vertex    | [`vertex::MetisLikePartitioner`] |
//! | Sheep             | elimination tree     | [`vertex::SheepPartitioner`] |
//!
//! The re-implementations follow the published algorithm cores; they are
//! labelled `*-like` in benchmark output where the original is a large
//! external system (ParMETIS, Sheep, XtraPuLP, Spinner).
//!
//! ## Quick start
//!
//! ```
//! use dne_graph::gen::{rmat, RmatConfig};
//! use dne_partition::hash_based::RandomPartitioner;
//! use dne_partition::{EdgePartitioner, PartitionQuality};
//!
//! let g = rmat(&RmatConfig::graph500(8, 8, 1));
//! let assignment = RandomPartitioner::new(1).partition(&g, 4);
//! assert!(assignment.is_valid_for(&g));
//!
//! let q = PartitionQuality::measure(&g, &assignment);
//! assert!(q.replication_factor >= 1.0);
//! ```

pub mod assignment;
pub mod comm_model;
pub mod dynamic;
pub mod greedy;
pub mod hash_based;
pub mod index;
pub mod quality;
pub mod replica;
pub mod streaming;
pub mod traits;
pub mod vertex;

pub use assignment::{
    combine_fingerprints, edge_set_fingerprint, EdgeAssignment, PartitionId, UNASSIGNED,
};
pub use comm_model::{estimate_comm, CommEstimate};
pub use dynamic::IncrementalVertexCut;
pub use index::{parse_shards, ShardedAssignmentIndex};
pub use quality::PartitionQuality;
pub use replica::ReplicaTable;
pub use traits::{EdgePartitioner, VertexPartitioner, VertexToEdge};

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::{gen, io};

    #[test]
    fn baselines_are_the_parent_commits_bit_for_bit() {
        // Assignment fingerprints printed at commit 508f3d9, when `Graph`
        // stored adjacency and these methods read it there. Every one of
        // them walks neighbours (sequential NE: incident edge ids), and the
        // chunk-streamed reopen is the backend that could not run them.
        use greedy::NePartitioner;
        use streaming::GingerPartitioner;
        use vertex::{MetisLikePartitioner, SheepPartitioner, SpinnerPartitioner};
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 6, 24));
        assert_eq!((g.num_vertices(), g.num_edges()), (512, 2261));
        let methods: [(Box<dyn EdgePartitioner>, u64); 6] = [
            (Box::new(NePartitioner::new(7)), 0xaafc_f08a_1b2c_b890),
            (Box::new(GingerPartitioner::new(7)), 0xc864_5d61_0b6f_3d7c),
            (Box::new(VertexToEdge::new(MetisLikePartitioner::new(7), 7)), 0xb6b3_f9f6_c176_a67f),
            (
                Box::new(VertexToEdge::new(vertex::XtraPulpPartitioner::new(7), 7)),
                0x2454_d264_0176_7f00,
            ),
            (Box::new(SheepPartitioner::new()), 0xa643_d4da_15f9_3f00),
            (Box::new(VertexToEdge::new(SpinnerPartitioner::new(7), 7)), 0xf0f0_e63c_0367_7972),
        ];
        let dir = std::env::temp_dir().join(format!("dne-baselines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.chunks");
        io::write_chunked(&g, &path, 256).unwrap();
        let streamed = io::open_chunked_with(&path, dne_graph::StorageKind::ChunkStreamed).unwrap();
        for (method, pinned) in &methods {
            for g in [&g, &streamed] {
                assert_eq!(
                    method.partition(g, 4).fingerprint(),
                    *pinned,
                    "{} on {} storage",
                    method.name(),
                    g.storage_kind()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
