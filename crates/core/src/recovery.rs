//! Dead-rank edge migration: the second half of elastic fault tolerance.
//!
//! [`snapshot`] + the epoch re-rendezvous handle a rank
//! that *restarts*: the cluster rolls back to the newest commonly
//! checkpointed round and replays bit-identically. This module handles a
//! rank that is **permanently dead**: its partition's edge set — plus any
//! edges still unallocated at the checkpoint — is migrated onto the
//! survivors by the same replication-free placement rules that drive the
//! incremental partitioner ([`IncrementalVertexCut`]), and the resulting
//! complete assignment is re-measured.
//!
//! The checkpoint files carry everything needed without the dead machine:
//! each rank's snapshot records the allocation word of every edge *hosted*
//! in its 2D-hash bucket, and the bucket's local→global order is rebuilt
//! deterministically from `(graph, seed)` by scanning edges in id order
//! through [`Grid2D::owner`] — the exact order
//! [`AllocatorPart::from_owned_edges`](crate::dist::AllocatorPart::from_owned_edges)
//! assigns local slots. Merging all buckets yields the checkpointed global
//! assignment; edges belonging to the dead partition (and still-free
//! edges) are then re-inserted with the dead partition
//! [banned](IncrementalVertexCut::ban), so every one of them lands on a
//! survivor.

use std::path::Path;

use dne_graph::Graph;
use dne_partition::quality::balance;
use dne_partition::{EdgeAssignment, IncrementalVertexCut, PartitionId, PartitionQuality};

use crate::dist::{Grid2D, FREE};
use crate::snapshot::{self, run_fingerprint, RankSnapshot, SnapshotError};

/// What a completed [`migrate_dead_rank`] did, with quality re-measured
/// over the final survivor-only placement.
#[derive(Debug)]
pub struct MigrationReport {
    /// The permanently-dead rank whose partition was evacuated.
    pub dead_rank: u32,
    /// The checkpoint round the migration started from (the newest round
    /// every rank, including the dead one, had written).
    pub round: u64,
    /// Edges that belonged to the dead partition at the checkpoint and
    /// were re-placed onto survivors.
    pub migrated_edges: u64,
    /// Edges still unallocated at the checkpoint, placed fresh onto
    /// survivors (the checkpointed partial run is completed, not replayed).
    pub completed_edges: u64,
    /// Replication factor of the final assignment (Equation 1), measured
    /// by [`PartitionQuality`].
    pub replication_factor: f64,
    /// Edge balance `max/mean` over the *surviving* partitions (the dead
    /// partition is empty by construction and excluded from the mean).
    pub edge_balance: f64,
    /// The complete post-migration assignment: every edge owned by a
    /// survivor, the dead partition owning none.
    pub assignment: EdgeAssignment,
}

/// The newest round for which *every* rank `0..nprocs` has a snapshot in
/// `dir` — the migration equivalent of the restart path's min-round
/// agreement (with [`RETAINED_GENERATIONS`](snapshot::RETAINED_GENERATIONS)
/// generations kept, the newest common round is always still on disk).
fn newest_common_round(dir: &Path, nprocs: u32) -> Result<u64, SnapshotError> {
    let mut common: Option<Vec<u64>> = None;
    for rank in 0..nprocs {
        let rounds: Vec<u64> =
            snapshot::list_rounds(dir, rank)?.into_iter().map(|(round, _)| round).collect();
        if rounds.is_empty() {
            return Err(SnapshotError::Mismatch {
                detail: format!("rank {rank} has no snapshot in {}", dir.display()),
            });
        }
        common = Some(match common {
            None => rounds,
            Some(prev) => prev.into_iter().filter(|r| rounds.contains(r)).collect(),
        });
    }
    common.unwrap_or_default().into_iter().max().ok_or_else(|| SnapshotError::Mismatch {
        detail: format!("no checkpoint round common to all {nprocs} ranks in {}", dir.display()),
    })
}

/// Migrate a permanently-dead rank's edges onto the survivors.
///
/// Loads every rank's snapshot at the newest common round in `dir`
/// (validating each against the `(graph, nprocs, seed)` run identity),
/// merges the per-bucket allocation words into the checkpointed global
/// assignment, then re-places the dead partition's edges — and any edges
/// the interrupted run had not allocated yet — onto surviving partitions
/// via [`IncrementalVertexCut`] seeded with the survivors' placements.
///
/// The result is a *complete* assignment: every edge owned, none by the
/// dead partition. Quality is re-measured from scratch and returned in
/// the [`MigrationReport`].
pub fn migrate_dead_rank(
    dir: &Path,
    g: &Graph,
    nprocs: u32,
    seed: u64,
    dead: u32,
) -> Result<MigrationReport, SnapshotError> {
    assert!(nprocs >= 2, "migration needs at least one survivor");
    assert!(dead < nprocs, "dead rank {dead} out of range (nprocs {nprocs})");
    let fingerprint = run_fingerprint(g.num_edges(), nprocs, seed);
    let round = newest_common_round(dir, nprocs)?;

    // Rebuild each rank's 2D-hash bucket order (ascending edge id — the
    // order AllocatorPart assigns local slots) and apply its checkpointed
    // allocation words.
    let grid = Grid2D::new(nprocs, seed);
    let mut bucket_of: Vec<Vec<u64>> = vec![Vec::new(); nprocs as usize];
    g.for_each_edge(|e, u, v| bucket_of[grid.owner(u, v) as usize].push(e));
    let mut parts: Vec<PartitionId> = vec![FREE; g.num_edges() as usize];
    for rank in 0..nprocs {
        let snap = RankSnapshot::load_round(dir, rank, round)?;
        snap.validate(rank, nprocs, fingerprint)?;
        let bucket = &bucket_of[rank as usize];
        if snap.alloc.edge_part.len() != bucket.len() {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "rank {rank} snapshot covers {} hosted edges but the graph's bucket has {}",
                    snap.alloc.edge_part.len(),
                    bucket.len()
                ),
            });
        }
        for (slot, &e) in bucket.iter().enumerate() {
            parts[e as usize] = snap.alloc.edge_part[slot];
        }
    }

    // Seed the survivors' placements, then re-place the dead partition's
    // edges and complete the still-free ones — every placement restricted
    // to live partitions.
    let mut inc = IncrementalVertexCut::new(nprocs);
    inc.ban(dead);
    for (e, &p) in parts.iter().enumerate() {
        if p != FREE && p != dead {
            let (u, v) = g.edge(e as u64);
            inc.seed_edge(u, v, p);
        }
    }
    let (mut migrated, mut completed) = (0u64, 0u64);
    for e in 0..g.num_edges() {
        let p = parts[e as usize];
        if p == dead || p == FREE {
            let (u, v) = g.edge(e);
            parts[e as usize] = inc.insert(u, v);
            if p == dead {
                migrated += 1;
            } else {
                completed += 1;
            }
        }
    }

    let assignment = EdgeAssignment::new(parts, nprocs);
    let quality = PartitionQuality::measure(g, &assignment);
    let mut live = quality.edge_counts;
    live.remove(dead as usize);
    Ok(MigrationReport {
        dead_rank: dead,
        round,
        migrated_edges: migrated,
        completed_edges: completed,
        replication_factor: quality.replication_factor,
        edge_balance: balance(&live),
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedNe, NeConfig};
    use dne_graph::gen::{rmat, RmatConfig};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dnerecov-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn migration_covers_every_dead_edge_with_survivors() {
        let g = rmat(&RmatConfig::graph500(9, 8, 11));
        let k = 4u32;
        let dir = temp_dir("migrate");
        let ne = DistributedNe::new(NeConfig::default().with_seed(11).with_checkpoint(1, &dir));
        let (uninterrupted, _) = ne.partition_with_stats(&g, k);
        let q_full = PartitionQuality::measure(&g, &uninterrupted);

        let dead = 1u32;
        let report = migrate_dead_rank(&dir, &g, k, 11, dead).expect("migration succeeds");

        // Completeness: a valid total assignment, dead partition empty.
        assert!(report.assignment.is_valid_for(&g));
        assert_eq!(report.assignment.edge_counts()[dead as usize], 0, "dead partition evacuated");
        for e in 0..g.num_edges() {
            assert_ne!(report.assignment.part_of(e), dead, "edge {e} still on the dead rank");
        }
        assert!(report.migrated_edges > 0, "the dead partition owned edges at the checkpoint");

        // Quality: RF within 10% of the uninterrupted k-way run (the
        // acceptance bar `dne-tcp-worker recover` asserts end-to-end),
        // live balance sane.
        assert!(
            report.replication_factor <= q_full.replication_factor * 1.10
                || report.replication_factor <= q_full.replication_factor + 0.2,
            "migration RF {} too far above uninterrupted {}",
            report.replication_factor,
            q_full.replication_factor
        );
        assert!(report.edge_balance < 1.6, "live balance {}", report.edge_balance);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_needs_a_common_round_from_every_rank() {
        let g = rmat(&RmatConfig::graph500(8, 8, 3));
        let dir = temp_dir("missing");
        let ne = DistributedNe::new(NeConfig::default().with_seed(3).with_checkpoint(1, &dir));
        let _ = ne.partition_with_stats(&g, 4);
        // Delete rank 2's snapshots: the agreement must fail loudly.
        for (_, path) in snapshot::list_rounds(&dir, 2).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let err = migrate_dead_rank(&dir, &g, 4, 3, 1).expect_err("missing rank must fail");
        assert!(err.to_string().contains("rank 2"), "names the missing rank: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_rejects_a_different_runs_snapshots() {
        let g = rmat(&RmatConfig::graph500(8, 8, 5));
        let dir = temp_dir("wrongrun");
        let ne = DistributedNe::new(NeConfig::default().with_seed(5).with_checkpoint(1, &dir));
        let _ = ne.partition_with_stats(&g, 4);
        // Same graph, different seed: the run fingerprint must reject.
        let err = migrate_dead_rank(&dir, &g, 4, 99, 1).expect_err("wrong seed must fail");
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "typed mismatch: {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
