//! `DNESNAP2` — per-round checkpoints of a Distributed NE machine.
//!
//! Elastic fault tolerance for the bulk-synchronous round loop: every
//! `DNE_CHECKPOINT_EVERY` completed rounds each rank serializes the
//! *mutable* half of its machine state into a compact wire format (the
//! same [`dne_runtime::wire`] codec every `NeMsg` envelope travels
//! through) and atomically replaces a per-rank file.
//! The structural half — the allocator's CSR subgraph, global↔local id
//! maps, shuffled scan order — is *not* stored: it is rebuilt bit-
//! identically from `(graph, rank, seed)` by
//! [`AllocatorPart::from_owned_edges`], which keeps snapshots a small
//! multiple of the partition's edge set rather than of the subgraph.
//!
//! A restarted rank (`dne-tcp-worker --rejoin`) loads its newest
//! snapshot, the re-rendezvoused cluster agrees on the newest round
//! *every* rank completed (an all-gather of snapshot rounds, taking the
//! minimum — snapshots are written at the same post-barrier loop point on
//! all ranks, so equal rounds mean equal global state), and the loop
//! resumes from that round. Because the round loop is deterministic, a
//! resumed run reproduces the uninterrupted run's assignment
//! bit-identically — asserted by `dne-tcp-worker recover` and the
//! kill-and-restart integration test.
//!
//! ## File format
//!
//! | field | bytes | notes |
//! |---|---|---|
//! | magic | 8 | `"DNESNAP2"` |
//! | rank, nprocs | 4 + 4 | little-endian `u32` |
//! | run fingerprint | 8 | `mix2`-fold of `(edges, parts, seed)` |
//! | round | 8 | completed rounds at capture time |
//! | loop state | var | `prev_total`, `stall`, `free_hints`, `global_sizes`, speculated `next_select` |
//! | expansion | var | `E_p` edge ids + boundary heap/expanded/enqueued |
//! | allocator | var | `edge_part`, `rest`, `vparts`, `part_edges`, `free_edges`, `scan_cursor` |
//! | checksum | 8 | `mix2`-fold over everything above |
//!
//! The rows are four structs — [`SnapshotHeader`] (the first three rows),
//! [`LoopState`] (the next two), [`BoundaryExport`] (after the `E_p` edge
//! ids) and [`AllocState`] — and each states its field order once, in the
//! `wire_struct!` table under its definition; [`RankSnapshot`] is their
//! concatenation. `next_select` is one tag byte: 0 = none, 1–3 = the
//! [`SelectAction`](crate::expansion::SelectAction) variants (see
//! [`NextSelect`]). Every vector is a varint length and elements whose
//! integers are varints (see [`dne_runtime::wire`]); the scalar rows keep
//! the widths above. The magic names the encoding: a `DNESNAP1` file, from
//! before vectors became varints, is a [`SnapshotError::Corrupt`] error
//! naming its magic, never decoded. The golden test pins whole files.
//!
//! Files are named `rank<r>-round<n>.dnesnap`; writes go through a unique
//! temporary then `rename(2)`, so readers never observe a torn file, and
//! the trailing checksum rejects any that slipped through. The two newest
//! rounds are retained per rank (older ones pruned on write) so the
//! minimum-round agreement after a crash always lands on a file every
//! rank still has.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dne_graph::hash::mix2;
use dne_graph::EdgeId;
use dne_runtime::{wire_struct, WireDecode, WireEncode, WireError};

use crate::boundary::{Boundary, BoundaryExport};
use crate::dist::{AllocatorPart, FREE};
use crate::expansion::{ExpansionState, NextSelect};
use crate::messages::Part;

/// File magic: the first eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DNESNAP2";

/// How many checkpoint generations [`RankSnapshot::write_atomic`] retains
/// per rank. Two: after a crash the newest rounds across ranks differ by
/// at most one checkpoint generation (writes happen at the same
/// post-barrier point), so the agreed minimum is always still on disk.
pub const RETAINED_GENERATIONS: usize = 2;

/// Identity of a run for snapshot validation: a snapshot resumes only the
/// exact `(|E|, |P|, seed)` run that wrote it.
pub fn run_fingerprint(num_edges: u64, nprocs: u32, seed: u64) -> u64 {
    mix2(mix2(mix2(0x444E_4553_4E41_5031, num_edges), nprocs as u64), seed)
}

/// Everything wrong a snapshot load can go: the caller (worker `--rejoin`
/// path, migration coordinator) turns these into a nonzero exit naming
/// the file.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing a snapshot.
    Io(io::Error),
    /// The byte stream failed wire decoding.
    Wire(WireError),
    /// The file is torn or tampered: bad magic, short file, or a checksum
    /// mismatch.
    Corrupt {
        /// Human-readable description of the corruption.
        detail: String,
    },
    /// The snapshot is intact but belongs to a different run, rank, or
    /// graph than the one resuming.
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Wire(e) => write!(f, "snapshot decode: {e}"),
            SnapshotError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            SnapshotError::Mismatch { detail } => write!(f, "snapshot mismatch: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

/// The mutable words of an [`AllocatorPart`] (the structural CSR half is
/// rebuilt from `(graph, rank, seed)` on resume).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AllocState {
    /// Allocation word per local edge slot.
    pub edge_part: Vec<Part>,
    /// Remaining (unallocated) local degree per local vertex.
    pub rest: Vec<u64>,
    /// Partition memberships per local vertex.
    pub vparts: Vec<Vec<Part>>,
    /// Locally allocated edge count per partition.
    pub part_edges: Vec<u64>,
    /// Still-unallocated local edge count.
    pub free_edges: u64,
    /// Random-restart scan cursor.
    pub scan_cursor: u64,
}

wire_struct!(AllocState { edge_part, rest, vparts, part_edges, free_edges, scan_cursor });

impl AllocState {
    /// Capture the mutable state of `alloc`.
    pub fn capture(alloc: &AllocatorPart) -> Self {
        Self {
            edge_part: alloc.edge_part.clone(),
            rest: alloc.rest.iter().map(|&r| r as u64).collect(),
            vparts: alloc.vparts(),
            part_edges: alloc.part_edges.clone(),
            free_edges: alloc.free_edges,
            scan_cursor: alloc.scan_cursor() as u64,
        }
    }

    /// Overwrite the mutable state of a freshly rebuilt `alloc`. The
    /// structural dimensions must agree — a snapshot from a different
    /// graph or bucketing is a [`SnapshotError::Mismatch`] — and so must
    /// the two things the allocation phases take on trust: `rest[v]` is the
    /// number of unallocated slots `edge_part` leaves `v`, and every
    /// membership set is strictly ascending over the run's partitions. A
    /// checksum only says the file is the one that was written.
    pub fn restore(self, alloc: &mut AllocatorPart) -> Result<(), SnapshotError> {
        let ne = alloc.num_local_edges();
        let nv = alloc.num_local_vertices();
        if self.edge_part.len() != ne || self.rest.len() != nv || self.vparts.len() != nv {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "allocator shape: snapshot has {} edges / {} vertices, rebuilt subgraph has \
                     {ne} / {nv}",
                    self.edge_part.len(),
                    self.rest.len()
                ),
            });
        }
        if self.scan_cursor as usize > nv {
            return Err(SnapshotError::Mismatch {
                detail: format!("scan cursor {} beyond {nv} local vertices", self.scan_cursor),
            });
        }
        let k = self.part_edges.len() as u64;
        if let Some(lv) = self.vparts.iter().position(|set| {
            !set.windows(2).all(|w| w[0] < w[1]) || set.last().is_some_and(|&p| p as u64 >= k)
        }) {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "memberships {:?} of local vertex {lv} are not ascending partitions below {k}",
                    self.vparts[lv]
                ),
            });
        }
        for (lv, &rest) in self.rest.iter().enumerate() {
            let slots = alloc.neighbors(lv as u32);
            let free = slots.filter(|&(_, le)| self.edge_part[le as usize] == FREE).count() as u64;
            if rest != free {
                return Err(SnapshotError::Mismatch {
                    detail: format!(
                        "rest degree {rest} of local vertex {lv}, which has {free} unallocated slots"
                    ),
                });
            }
        }
        alloc.edge_part = self.edge_part;
        alloc.rest = self.rest.iter().map(|&r| r as u32).collect();
        alloc.set_vparts(&self.vparts);
        alloc.part_edges = self.part_edges;
        alloc.free_edges = self.free_edges;
        alloc.set_scan_cursor(self.scan_cursor as usize);
        Ok(())
    }
}

/// Which position of which run a snapshot belongs to: the first 24 bytes
/// of every file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// [`SNAPSHOT_MAGIC`] in every file this crate wrote.
    pub magic: [u8; 8],
    /// The rank (== partition) this snapshot belongs to.
    pub rank: u32,
    /// Cluster size the run was started with.
    pub nprocs: u32,
    /// [`run_fingerprint`] of the writing run.
    pub fingerprint: u64,
}

wire_struct!(SnapshotHeader { magic, rank, nprocs, fingerprint });

impl SnapshotHeader {
    /// The header rank `rank` of `nprocs` writes in the run `fingerprint`.
    pub fn new(rank: u32, nprocs: u32, fingerprint: u64) -> Self {
        Self { magic: SNAPSHOT_MAGIC, rank, nprocs, fingerprint }
    }
}

/// Everything the round loop of one machine carries from one round to the
/// next — the loop runs on this struct, a checkpoint stores it, and a
/// resumed machine continues from the stored one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopState {
    /// Completed rounds.
    pub round: u64,
    /// Previous round's global allocated-edge total (stall detection).
    pub prev_total: u64,
    /// Consecutive no-progress rounds so far.
    pub stall: u32,
    /// Last-known free-edge counts of all allocators (gossip).
    pub free_hints: Vec<u64>,
    /// Previous round's `|E_p|` per partition (capacity gate).
    pub global_sizes: Vec<u64>,
    /// The next round's speculated vertex selection, if the overlap path
    /// had already computed it when the round ended. Restoring it keeps a
    /// resumed loop bit-identical to the uninterrupted one.
    pub next_select: NextSelect,
}

wire_struct!(LoopState { round, prev_total, stall, free_hints, global_sizes, next_select });

/// One rank's complete per-round checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSnapshot {
    /// Magic and run position.
    pub header: SnapshotHeader,
    /// The round loop's state at the end of round `state.round`.
    pub state: LoopState,
    /// `E_p`: edge ids allocated to this rank's partition so far.
    pub edges: Vec<EdgeId>,
    /// Boundary queue state (heap + expanded + enqueued, sorted).
    pub boundary: BoundaryExport,
    /// Mutable allocator words.
    pub alloc: AllocState,
}

wire_struct!(RankSnapshot { header, state, edges, boundary, alloc });

/// `mix2`-fold checksum over a byte stream (8-byte chunks, zero-padded
/// tail, length folded last so trailing zeros are not free).
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x534E_4150_5355_4D00; // "SNAPSUM"
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix2(h, u64::from_le_bytes(c.try_into().expect("exact chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix2(h, u64::from_le_bytes(tail));
    }
    mix2(h, bytes.len() as u64)
}

/// Unique temp-file suffix counter (concurrent writers within a process
/// never collide; cross-process uniqueness comes from the pid).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl RankSnapshot {
    /// Capture a checkpoint of one machine at the end of a round.
    pub fn capture(
        header: SnapshotHeader,
        state: &LoopState,
        exp: &ExpansionState,
        alloc: &AllocatorPart,
    ) -> Self {
        Self {
            header,
            state: state.clone(),
            edges: exp.edges.clone(),
            boundary: exp.boundary.export(),
            alloc: AllocState::capture(alloc),
        }
    }

    /// Restore the expansion + allocator state this snapshot captured and
    /// hand back the loop state to continue from. `exp` and `alloc` must be
    /// freshly built for the same `(graph, rank, seed, k)` — the structural
    /// half the snapshot deliberately omits.
    pub fn restore_into(
        self,
        exp: &mut ExpansionState,
        alloc: &mut AllocatorPart,
    ) -> Result<LoopState, SnapshotError> {
        let boundary = Boundary::from_export(self.boundary)?;
        self.alloc.restore(alloc)?;
        exp.edges = self.edges;
        exp.boundary = boundary;
        Ok(self.state)
    }

    /// Reject a snapshot that does not belong to this exact run position.
    pub fn validate(&self, rank: u32, nprocs: u32, fingerprint: u64) -> Result<(), SnapshotError> {
        let header = &self.header;
        if header.rank != rank || header.nprocs != nprocs {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "snapshot is for rank {}/{} but this machine is rank {rank}/{nprocs}",
                    header.rank, header.nprocs
                ),
            });
        }
        if header.fingerprint != fingerprint {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "run fingerprint {:016x} != expected {fingerprint:016x} (different graph, \
                     partition count, or seed)",
                    header.fingerprint
                ),
            });
        }
        Ok(())
    }

    /// Canonical file name of rank `rank`'s round-`round` snapshot.
    pub fn file_name(rank: u32, round: u64) -> String {
        format!("rank{rank}-round{round}.dnesnap")
    }

    /// Parse a [`file_name`](RankSnapshot::file_name) back into
    /// `(rank, round)`.
    pub fn parse_file_name(name: &str) -> Option<(u32, u64)> {
        let rest = name.strip_prefix("rank")?.strip_suffix(".dnesnap")?;
        let (rank, round) = rest.split_once("-round")?;
        Some((rank.parse().ok()?, round.parse().ok()?))
    }

    /// Atomically write this snapshot into `dir` (created on demand):
    /// encode + checksum into a unique temporary, `rename(2)` into place,
    /// then prune this rank's generations beyond
    /// [`RETAINED_GENERATIONS`]. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let mut bytes = self.to_wire();
        let sum = checksum(&bytes);
        sum.encode(&mut bytes);
        let tmp = dir.join(format!(
            ".rank{}-{}-{}.tmp",
            self.header.rank,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        let (rank, round) = (self.header.rank, self.state.round);
        let path = dir.join(Self::file_name(rank, round));
        std::fs::rename(&tmp, &path)?;
        // Prune old generations; best-effort (a leftover file is harmless,
        // the min-round agreement only ever looks backwards one step).
        let mut rounds = list_rounds(dir, rank).unwrap_or_default();
        while rounds.len() > RETAINED_GENERATIONS {
            let (old, stale) = rounds.remove(0);
            if old < round {
                let _ = std::fs::remove_file(stale);
            }
        }
        Ok(path)
    }

    /// Read and verify (checksum + magic) one snapshot file.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(SnapshotError::Corrupt {
                detail: format!("{}: {} bytes is too short", path.display(), bytes.len()),
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != u64::from_wire(tail)? {
            return Err(SnapshotError::Corrupt {
                detail: format!("{}: checksum mismatch", path.display()),
            });
        }
        // The magic first: a file of another format version must not be
        // decoded with this one's codec.
        if body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "{}: bad magic {:?}, expected {:?}",
                    path.display(),
                    String::from_utf8_lossy(&body[..SNAPSHOT_MAGIC.len()]),
                    String::from_utf8_lossy(&SNAPSHOT_MAGIC)
                ),
            });
        }
        Ok(Self::from_wire(body)?)
    }

    /// The newest snapshot of `rank` in `dir`, with its round. `None` when
    /// the rank has no snapshot yet.
    pub fn latest(dir: &Path, rank: u32) -> Result<Option<(u64, PathBuf)>, SnapshotError> {
        Ok(list_rounds(dir, rank)?.pop())
    }

    /// Load rank `rank`'s snapshot for exactly `round` from `dir`.
    pub fn load_round(dir: &Path, rank: u32, round: u64) -> Result<Self, SnapshotError> {
        Self::read(&dir.join(Self::file_name(rank, round)))
    }
}

/// All snapshot rounds of `rank` present in `dir`, sorted ascending.
/// An absent directory is simply "no snapshots".
pub fn list_rounds(dir: &Path, rank: u32) -> Result<Vec<(u64, PathBuf)>, io::Error> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some((r, round)) = RankSnapshot::parse_file_name(name) {
                if r == rank {
                    out.push((round, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|&(round, _)| round);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{one_hop, SelectRequest};
    use crate::dist::Grid2D;
    use crate::expansion::SelectAction;
    use dne_graph::gen;
    use dne_runtime::WireSize;

    fn sample_snapshot() -> RankSnapshot {
        RankSnapshot {
            header: SnapshotHeader::new(1, 4, run_fingerprint(1000, 4, 42)),
            state: LoopState {
                round: 7,
                prev_total: 900,
                stall: 1,
                free_hints: vec![3, 0, 25, 7],
                global_sizes: vec![250, 230, 210, 210],
                next_select: NextSelect(Some(SelectAction::Vertices { vertices: vec![5, 9, 12] })),
            },
            edges: vec![10, 11, 900],
            boundary: BoundaryExport {
                heap: vec![(1, 44), (3, 2)],
                expanded: vec![5, 9],
                enqueued: vec![2, 5, 9, 44],
            },
            alloc: AllocState {
                edge_part: vec![0, 3, u32::MAX],
                rest: vec![1, 0, 2],
                vparts: vec![vec![0], vec![], vec![1, 3]],
                part_edges: vec![1, 1, 0, 1],
                free_edges: 1,
                scan_cursor: 2,
            },
        }
    }

    /// [`sample_snapshot`] with each of the four `next_select` cases.
    fn sample_snapshots() -> [RankSnapshot; 4] {
        let with = |next| {
            let mut snap = sample_snapshot();
            snap.state.next_select = NextSelect(next);
            snap
        };
        [
            sample_snapshot(),
            with(None),
            with(Some(SelectAction::Random { target: 3, budget: 17 })),
            with(Some(SelectAction::Nothing)),
        ]
    }

    #[test]
    fn codec_roundtrips_at_exact_size() {
        for snap in sample_snapshots() {
            let bytes = snap.to_wire();
            assert_eq!(bytes.len(), snap.wire_bytes(), "estimate != actual");
            assert_eq!(RankSnapshot::from_wire(&bytes).unwrap(), snap);
        }
    }

    #[test]
    fn checksummed_file_bytes_are_pinned() {
        // Whole files for the four `next_select` cases, written out by hand
        // from the format table: header and loop state up to the select
        // tag, the per-case select bytes, expansion + allocator, then the
        // per-case checksum (the unchanged `checksum` of those bytes).
        // Scalars are fixed-width words; every vector is a varint length
        // and varint elements (900 = `\x84\x07`, `u32::MAX` =
        // `\xff\xff\xff\xff\x0f`). A round trip cannot see a symmetric
        // change.
        let head: &[u8] =
            b"\x01\0\0\0\x04\0\0\0\x4a\xb7\x4b\x06\x74\xfd\x7a\xf4\x07\0\0\0\0\0\0\0\x84\x03\0\
              \0\0\0\0\0\x01\0\0\0\x04\x03\0\x19\x07\x04\xfa\x01\xe6\x01\xd2\x01\xd2\x01";
        let tail: &[u8] =
            b"\x03\x0a\x0b\x84\x07\x02\x01\x2c\x03\x02\x02\x05\x09\x04\x02\x05\x09\x2c\x03\0\x03\
              \xff\xff\xff\xff\x0f\x03\x01\0\x02\x03\x01\0\0\x02\x01\x03\x04\x01\x01\0\x01\x01\0\0\
              \0\0\0\0\0\x02\0\0\0\0\0\0\0";
        let cases: [(&[u8], &[u8]); 4] = [
            (b"\x01\x03\x05\x09\x0c", b"\x7a\x77\x2a\x4f\x0a\xd7\xf5\x6b"),
            (b"\0", b"\xc1\xf9\x70\x8f\x1f\x7b\x1a\x12"),
            (b"\x02\x03\0\0\0\0\0\0\0\x11\0\0\0\0\0\0\0", b"\x6e\x30\x76\x95\xfd\x5e\x06\x8a"),
            (b"\x03", b"\xe9\x61\x31\x13\x68\x97\x7f\x96"),
        ];
        let dir = std::env::temp_dir().join(format!("dnesnap-golden-{}", std::process::id()));
        for (snap, (select, sum)) in sample_snapshots().into_iter().zip(cases) {
            let golden = [b"DNESNAP2", head, select, tail, sum].concat();
            let path = snap.write_atomic(&dir).unwrap();
            let written = std::fs::read(&path).unwrap();
            assert_eq!(written[..written.len() - 8], golden[..golden.len() - 8], "layout moved");
            assert_eq!(written, golden, "DNESNAP2 checksum moved");
            std::fs::write(&path, &golden).unwrap();
            assert_eq!(RankSnapshot::read(&path).unwrap(), snap);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_format_is_a_typed_error() {
        // An intact `DNESNAP1` file: its checksum holds, its magic does not.
        let dir = std::env::temp_dir().join(format!("dnesnap-v1-{}", std::process::id()));
        let path = sample_snapshot().write_atomic(&dir).unwrap();
        let mut body = sample_snapshot().to_wire();
        body[..8].copy_from_slice(b"DNESNAP1");
        let sum = checksum(&body);
        sum.encode(&mut body);
        std::fs::write(&path, &body).unwrap();
        let err = RankSnapshot::read(&path).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("DNESNAP1")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `DNESNAP2` round-trips *arbitrary* machine states
            /// bit-identically: every `next_select` variant, empty-through-
            /// large vectors, FREE and allocated words alike. Beyond value
            /// equality, a decode-then-re-encode must reproduce the exact
            /// byte stream, so nothing in the format is ambiguous.
            #[test]
            fn snapshots_roundtrip_arbitrary_states(
                identity in (0u32..8, 2u32..9, 0u64..u64::MAX, 0u64..100_000),
                loop_state in (0u64..1_000_000, 0u32..64),
                free_hints in prop::collection::vec(0u64..1_000_000, 0..9),
                global_sizes in prop::collection::vec(0u64..1_000_000, 0..9),
                select in (0u8..4, prop::collection::vec(0u64..100_000, 0..32), 0usize..64, 0u64..1_000),
                edges in prop::collection::vec(0u64..1_000_000, 0..64),
                heap in prop::collection::vec((0u64..100_000, 0u64..100_000), 0..32),
                expanded in prop::collection::vec(0u64..100_000, 0..32),
                enqueued in prop::collection::vec(0u64..100_000, 0..32),
                words in prop::collection::vec(0u32..9, 0..64),
                rest in prop::collection::vec(0u64..100, 0..32),
                vparts in prop::collection::vec(prop::collection::vec(0u32..8, 0..4), 0..32),
                part_edges in prop::collection::vec(0u64..1_000, 0..9),
                alloc_tail in (0u64..1_000, 0u64..64),
            ) {
                let (rank, nprocs, fingerprint, round) = identity;
                let (prev_total, stall) = loop_state;
                let (tag, vertices, target, budget) = select;
                let next_select = match tag {
                    0 => None,
                    1 => Some(SelectAction::Vertices { vertices }),
                    2 => Some(SelectAction::Random { target, budget }),
                    _ => Some(SelectAction::Nothing),
                };
                let (free_edges, scan_cursor) = alloc_tail;
                let snap = RankSnapshot {
                    header: SnapshotHeader::new(rank, nprocs, fingerprint),
                    state: LoopState {
                        round,
                        prev_total,
                        stall,
                        free_hints,
                        global_sizes,
                        next_select: NextSelect(next_select),
                    },
                    edges,
                    boundary: BoundaryExport { heap, expanded, enqueued },
                    alloc: AllocState {
                        // Word 8 stands in for a FREE (unallocated) slot.
                        edge_part: words
                            .into_iter()
                            .map(|w| if w == 8 { Part::MAX } else { w })
                            .collect(),
                        rest,
                        vparts,
                        part_edges,
                        free_edges,
                        scan_cursor,
                    },
                };
                let bytes = snap.to_wire();
                prop_assert_eq!(bytes.len(), snap.wire_bytes(), "size estimate != actual");
                let decoded = RankSnapshot::from_wire(&bytes).expect("wire round-trip");
                prop_assert_eq!(&decoded, &snap);
                prop_assert_eq!(decoded.to_wire(), bytes, "re-encode not bit-identical");
            }
        }
    }

    #[test]
    fn truncated_snapshots_error_not_panic() {
        let bytes = sample_snapshot().to_wire();
        for cut in 0..bytes.len() {
            assert!(RankSnapshot::from_wire(&bytes[..cut]).is_err(), "{cut}-byte prefix");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        // The magic is a plain header field, so the check lives where file
        // bytes enter: a foreign magic under a *valid* checksum is corrupt.
        let dir = std::env::temp_dir().join(format!("dnesnap-magic-{}", std::process::id()));
        let mut snap = sample_snapshot();
        snap.header.magic[0] ^= 0xFF;
        let path = snap.write_atomic(&dir).unwrap();
        let err = RankSnapshot::read(&path).unwrap_err();
        assert!(matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("bad magic")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip_checksum_and_retention() {
        let dir = std::env::temp_dir().join(format!("dnesnap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = sample_snapshot();
        for round in [7u64, 8, 9, 10] {
            snap.state.round = round;
            snap.write_atomic(&dir).unwrap();
        }
        let rounds = list_rounds(&dir, 1).unwrap();
        assert_eq!(
            rounds.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            vec![9, 10],
            "only the two newest generations are retained"
        );
        let (latest_round, path) = RankSnapshot::latest(&dir, 1).unwrap().unwrap();
        assert_eq!(latest_round, 10);
        let loaded = RankSnapshot::read(&path).unwrap();
        assert_eq!(loaded, snap);
        // A flipped byte anywhere must be caught by the checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            RankSnapshot::read(&path),
            Err(SnapshotError::Corrupt { .. }) | Err(SnapshotError::Wire(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_foreign_snapshots() {
        let snap = sample_snapshot();
        assert!(snap.validate(1, 4, snap.header.fingerprint).is_ok());
        assert!(matches!(
            snap.validate(2, 4, snap.header.fingerprint),
            Err(SnapshotError::Mismatch { .. })
        ));
        assert!(matches!(snap.validate(1, 4, 999), Err(SnapshotError::Mismatch { .. })));
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(RankSnapshot::file_name(3, 12), "rank3-round12.dnesnap");
        assert_eq!(RankSnapshot::parse_file_name("rank3-round12.dnesnap"), Some((3, 12)));
        assert_eq!(RankSnapshot::parse_file_name("rank3.dnesnap"), None);
        assert_eq!(RankSnapshot::parse_file_name(".rank3-99-0.tmp"), None);
    }

    #[test]
    fn boundary_export_rebuild_pops_identically() {
        let mut b = Boundary::new();
        for v in 0..50u64 {
            b.insert(v * 3 % 47, v % 7);
        }
        assert_eq!(b.pop_lambda_capped(0.1, u64::MAX).len(), 5);
        let rebuilt = Boundary::from_export(b.export()).unwrap();
        let mut a = b;
        let mut c = rebuilt;
        // Capacity-capped pops: sequences must agree step by step until
        // both run dry.
        loop {
            let pa = a.pop_lambda_capped(0.3, 100);
            let pc = c.pop_lambda_capped(0.3, 100);
            assert_eq!(pa, pc);
            if pa.is_empty() {
                break;
            }
        }
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn boundary_lists_that_disagree_are_a_typed_error() {
        // `expanded` is derived from the other two lists on export, so a
        // file that lists a vertex as both pending and expanded — or drops
        // one from `enqueued`, or is out of order — was not written by a
        // run. Each is refused through `restore_into` with the expansion
        // and allocator state left as they were; the golden sample loads.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
        let mut alloc = AllocatorPart::build(&g, &Grid2D::new(4, 3), 1, 3);
        alloc.ensure_parts(4);
        let mut exp = ExpansionState::new(1, 100, 0.1);
        for v in 0..6u64 {
            exp.boundary.insert(v, 6 - v);
        }
        assert_eq!(exp.boundary.pop_lambda_capped(0.3, u64::MAX), vec![5, 4]);
        let header = SnapshotHeader::new(1, 4, run_fingerprint(g.num_edges(), 4, 3));
        let snap = RankSnapshot::capture(header, &sample_snapshot().state, &exp, &alloc);
        assert_eq!(snap.boundary.expanded, vec![4, 5]);
        assert!(Boundary::from_export(sample_snapshot().boundary).is_ok());

        let mut both = snap.clone();
        both.boundary.expanded.insert(0, 3); // vertex 3 is still pending
        let mut dropped = snap.clone();
        dropped.boundary.enqueued.retain(|&v| v != 4);
        let mut unsorted = snap.clone();
        unsorted.boundary.heap.swap(0, 1);
        let mut twice = snap.clone();
        twice.boundary.heap[0].1 = twice.boundary.heap[1].1;
        twice.boundary.heap.sort_unstable();
        for bad in [both, dropped, unsorted, twice] {
            let err = bad.restore_into(&mut exp, &mut alloc).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Mismatch { detail } if detail.contains("boundary")),
                "{err}"
            );
            assert_eq!(RankSnapshot::capture(header, &snap.state, &exp, &alloc), snap);
        }
        let state = snap.clone().restore_into(&mut exp, &mut alloc).unwrap();
        assert_eq!(RankSnapshot::capture(header, &state, &exp, &alloc), snap);
    }

    #[test]
    fn alloc_state_restore_roundtrips() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
        let grid = Grid2D::new(4, 3);
        let mut a = AllocatorPart::build(&g, &grid, 1, 3);
        a.ensure_parts(4);
        // Mutate: two partitions expand a few vertices (claims, rest
        // degrees, memberships) and a random restart advances the cursor.
        let requests = [(2, 0), (3, u64::MAX)].map(|(part, random_budget)| SelectRequest {
            part,
            vertices: (0..3).map(|lv| a.global_id(lv)).collect(),
            random_budget,
        });
        assert!(!one_hop(&mut a, &requests).allocated.is_empty());
        let state = AllocState::capture(&a);
        let mut b = AllocatorPart::build(&g, &grid, 1, 3);
        b.ensure_parts(4);
        state.clone().restore(&mut b).unwrap();
        assert_eq!(AllocState::capture(&b), state);
        // Restoring into the wrong rank's subgraph must fail shape checks
        // (rank 0 and 1 own different edge sets for this graph).
        let mut wrong = AllocatorPart::build(&g, &grid, 0, 3);
        wrong.ensure_parts(4);
        assert!(matches!(state.clone().restore(&mut wrong), Err(SnapshotError::Mismatch { .. })));
        // A file can carry a valid checksum over state no run produces: a
        // rest degree that disagrees with the allocation words by one, a
        // membership list out of order, a partition the run does not have.
        // Each is a typed error, and the allocator is left as it was.
        let hub = state.rest.iter().position(|&r| r > 0).expect("a vertex with free edges");
        let member = state.vparts.iter().position(|set| set.len() == 1).expect("a singleton");
        assert!(state.vparts[member][0] <= 3);
        let mut off_by_one = state.clone();
        off_by_one.rest[hub] -= 1;
        let mut unsorted = state.clone();
        unsorted.vparts[member].insert(0, 3);
        let mut foreign = state.clone();
        foreign.vparts[member].push(4);
        for (bad, what) in
            [(off_by_one, "rest degree"), (unsorted, "ascending"), (foreign, "below 4")]
        {
            match bad.restore(&mut b) {
                Err(SnapshotError::Mismatch { detail }) => {
                    assert!(detail.contains(what), "{detail}")
                }
                other => panic!("{what}: expected a mismatch, got {other:?}"),
            }
            assert_eq!(AllocState::capture(&b), state);
        }
    }
}
