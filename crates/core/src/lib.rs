//! # dne-core — Distributed Neighbor Expansion (Distributed NE)
//!
//! The paper's primary contribution: a parallel and distributed edge
//! partitioning method that scales to trillion-edge graphs while providing
//! high partitioning quality with a proven upper bound
//! (Hanai et al., PVLDB 12(13), 2019).
//!
//! ## Algorithm map (paper → module)
//!
//! | Paper element | Module |
//! |---|---|
//! | Algorithm 1 (expansion process: vertex selection, allocation request, boundary/edge-set update, termination) | [`expansion`] |
//! | Algorithm 2 + 3 (distributed edge allocation: one-hop, vertex sync, two-hop, local D_rest) | [`allocation`] |
//! | §4 data structure (2D-hash initial distribution, CSR subgraphs, vertices replicated / edges unique, functional replica metadata) | [`dist`] |
//! | Algorithm 4 (multi-expansion with factor λ) | [`boundary`] + [`expansion`] |
//! | §6 Theorems 1–3 (upper bound, tightness, power-law expectations, Table 1) | [`theory`] |
//! | Figure 4 work/data flow | [`partitioner`] (drives one machine per rank with colocated expansion + allocation processes) |
//! | Elastic fault tolerance (beyond the paper: per-round `DNESNAP2` checkpoints, restart-and-rejoin) | [`snapshot`] |
//! | Dead-rank edge migration (beyond the paper: evacuate a lost partition onto survivors from checkpoints) | [`recovery`] |
//!
//! ## Quick start
//!
//! ```
//! use dne_core::{DistributedNe, NeConfig};
//! use dne_partition::{EdgePartitioner, PartitionQuality};
//! use dne_graph::gen::{rmat, RmatConfig};
//!
//! let g = rmat(&RmatConfig::graph500(10, 8, 7));
//! let ne = DistributedNe::new(NeConfig::default().with_seed(7));
//! let (assignment, stats) = ne.partition_with_stats(&g, 8);
//! let q = PartitionQuality::measure(&g, &assignment);
//! // Theorem 1: RF ≤ (|E| + |V| + |P|) / |V|
//! let ub = dne_core::theory::upper_bound(g.num_edges(), g.num_vertices(), 8);
//! assert!(q.replication_factor <= ub);
//! assert!(stats.iterations > 0);
//! ```

#![deny(missing_docs)]

pub mod allocation;
pub mod boundary;
pub mod config;
pub mod dist;
pub mod expansion;
pub mod messages;
pub mod partitioner;
pub mod recovery;
pub mod snapshot;
pub mod stats;
pub mod theory;

pub use config::{CheckpointPolicy, NeConfig};
pub use messages::NeMsg;
pub use partitioner::{DistributedNe, RankRun};
pub use recovery::{migrate_dead_rank, MigrationReport};
pub use snapshot::{RankSnapshot, SnapshotError};
pub use stats::NeStats;
