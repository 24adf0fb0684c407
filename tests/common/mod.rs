//! Shared helpers for the cross-crate integration suites: one place that
//! knows how to enumerate the runtime's (transport × topology) and the
//! graph crate's storage-backend matrices, so adding a backend or a
//! topology automatically widens every suite that samples it instead of
//! silently rotting a hand-copied roster.
#![allow(dead_code)] // each test binary uses a different subset

use distributed_ne::graph::{io, Graph, StorageKind};
use distributed_ne::runtime::{Cluster, CollectiveTopology, TransportKind};
use std::path::PathBuf;

/// Every transport backend, in canonical order.
pub const TRANSPORTS: [TransportKind; 3] = TransportKind::ALL;

/// Every collective topology, in canonical order.
pub const TOPOLOGIES: [CollectiveTopology; 3] = CollectiveTopology::ALL;

/// Every graph-storage backend, in canonical order.
pub const STORAGES: [StorageKind; 3] = StorageKind::ALL;

/// Every (transport × topology) pair — the full 3×3 sampling matrix.
pub fn transport_topology_pairs() -> Vec<(TransportKind, CollectiveTopology)> {
    TRANSPORTS
        .into_iter()
        .flat_map(|kind| TOPOLOGIES.into_iter().map(move |topo| (kind, topo)))
        .collect()
}

/// Every (storage × transport) pair — the 3×3 matrix the storage
/// equivalence suite drives.
pub fn storage_transport_pairs() -> Vec<(StorageKind, TransportKind)> {
    STORAGES.into_iter().flat_map(|s| TRANSPORTS.into_iter().map(move |t| (s, t))).collect()
}

/// A Latin-square sample of the full (transport × topology × storage)
/// cube: all 9 (transport, topology) pairs, with the storage axis rotated
/// so that every (transport, storage) and every (topology, storage) pair
/// also appears exactly once. 9 cells cover all 27 pairwise interactions
/// of the 3×3×3 matrix — the sampling that keeps the app-suite cell count
/// tractable in CI while leaving no two-axis combination untested.
pub fn matrix_cells() -> Vec<(TransportKind, CollectiveTopology, StorageKind)> {
    TRANSPORTS
        .into_iter()
        .enumerate()
        .flat_map(|(ti, kind)| {
            TOPOLOGIES
                .into_iter()
                .enumerate()
                .map(move |(pi, topo)| (kind, topo, STORAGES[(ti + pi) % STORAGES.len()]))
        })
        .collect()
}

/// Order-insensitive fingerprint of an edge assignment — the construction
/// `dne-tcp-worker` gathers across real processes for its multi-process
/// gate.
pub fn assignment_fingerprint(a: &distributed_ne::partition::EdgeAssignment) -> u64 {
    a.partition_fingerprint()
}

/// Write `g` as a binary graph file under a per-`label` scratch directory
/// and return the path; every storage backend opens that one file.
/// `label` must be unique per call site — suites run concurrently inside
/// one test binary.
pub fn materialize_chunked(g: &Graph, label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dne_integration_chunked").join(label);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("graph.chunks");
    io::write_chunked(g, &path, 1 << 12).expect("write graph file");
    path
}

/// Reopen a materialized graph file with the given storage backend.
pub fn reopen(path: &std::path::Path, kind: StorageKind) -> Graph {
    io::open_chunked_with(path, kind)
        .unwrap_or_else(|e| panic!("open {} with {kind}: {e}", path.display()))
}

/// A cluster pinned to an explicit (transport, topology) pair — immune to
/// whatever `DNE_TRANSPORT` / `DNE_COLLECTIVES` the surrounding test run
/// exports.
pub fn cluster(nprocs: usize, kind: TransportKind, topo: CollectiveTopology) -> Cluster {
    Cluster::with_transport(nprocs, kind).with_collectives(topo)
}
