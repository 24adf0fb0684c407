//! `DNESNAP1` — per-round checkpoints of a Distributed NE machine.
//!
//! Elastic fault tolerance for the bulk-synchronous round loop: every
//! `DNE_CHECKPOINT_EVERY` completed rounds each rank serializes the
//! *mutable* half of its machine state into a compact tagged wire format
//! (the same [`WireEncode`]/[`WireDecode`] machinery every `NeMsg`
//! envelope travels through) and atomically replaces a per-rank file.
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
//! | magic | 8 | `"DNESNAP1"` |
//! | rank, nprocs | 4 + 4 | little-endian `u32` |
//! | run fingerprint | 8 | `mix2`-fold of `(edges, parts, seed)` |
//! | round | 8 | completed rounds at capture time |
//! | loop state | var | `prev_total`, `stall`, `free_hints`, `global_sizes`, speculated `next_select` |
//! | expansion | var | `E_p` edge ids + boundary heap/expanded/enqueued |
//! | allocator | var | `edge_part`, `rest`, `vparts`, `part_edges`, `free_edges`, `scan_cursor` |
//! | checksum | 8 | `mix2`-fold over everything above |
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
use dne_runtime::{WireDecode, WireEncode, WireError, WireReader, WireSize};

use crate::boundary::{Boundary, BoundaryExport};
use crate::dist::AllocatorPart;
use crate::expansion::{ExpansionState, SelectAction};
use crate::messages::Part;

/// File magic: the first eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DNESNAP1";

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

impl AllocState {
    /// Capture the mutable state of `alloc`.
    pub fn capture(alloc: &AllocatorPart) -> Self {
        Self {
            edge_part: alloc.edge_part.clone(),
            rest: alloc.rest.clone(),
            vparts: alloc.vparts().to_vec(),
            part_edges: alloc.part_edges.clone(),
            free_edges: alloc.free_edges,
            scan_cursor: alloc.scan_cursor() as u64,
        }
    }

    /// Overwrite the mutable state of a freshly rebuilt `alloc`. The
    /// structural dimensions must agree — a snapshot from a different
    /// graph or bucketing is a [`SnapshotError::Mismatch`].
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
        alloc.edge_part = self.edge_part;
        alloc.rest = self.rest;
        alloc.set_vparts(self.vparts);
        alloc.part_edges = self.part_edges;
        alloc.free_edges = self.free_edges;
        alloc.set_scan_cursor(self.scan_cursor as usize);
        Ok(())
    }
}

/// One rank's complete per-round checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSnapshot {
    /// The rank (== partition) this snapshot belongs to.
    pub rank: u32,
    /// Cluster size the run was started with.
    pub nprocs: u32,
    /// [`run_fingerprint`] of the writing run.
    pub fingerprint: u64,
    /// Completed rounds at capture time.
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
    /// had already computed it when the checkpoint was taken. Restoring it
    /// keeps the resumed loop bit-identical to the uninterrupted one.
    pub next_select: Option<SelectAction>,
    /// `E_p`: edge ids allocated to this rank's partition so far.
    pub edges: Vec<EdgeId>,
    /// Boundary queue state (heap + expanded + enqueued, sorted).
    pub boundary: BoundaryExport,
    /// Mutable allocator words.
    pub alloc: AllocState,
}

const TAG_NONE: u8 = 0;
const TAG_VERTICES: u8 = 1;
const TAG_RANDOM: u8 = 2;
const TAG_NOTHING: u8 = 3;

impl WireSize for SelectAction {
    fn wire_bytes(&self) -> usize {
        1 + match self {
            SelectAction::Vertices(vs) => vs.wire_bytes(),
            SelectAction::Random { target, budget } => target.wire_bytes() + budget.wire_bytes(),
            SelectAction::Nothing => 0,
        }
    }
}

impl WireEncode for SelectAction {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SelectAction::Vertices(vs) => {
                buf.push(TAG_VERTICES);
                vs.encode(buf);
            }
            SelectAction::Random { target, budget } => {
                buf.push(TAG_RANDOM);
                target.encode(buf);
                budget.encode(buf);
            }
            SelectAction::Nothing => buf.push(TAG_NOTHING),
        }
    }
}

impl WireDecode for SelectAction {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_array::<1>()?[0] {
            TAG_VERTICES => Ok(SelectAction::Vertices(Vec::decode(r)?)),
            TAG_RANDOM => {
                Ok(SelectAction::Random { target: usize::decode(r)?, budget: u64::decode(r)? })
            }
            TAG_NOTHING => Ok(SelectAction::Nothing),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// `Option<SelectAction>` travels as its own tag byte so the `None` case
/// is one byte, mirroring the generic `Option` codec but keeping every
/// snapshot field behind an explicit tag.
fn encode_next_select(v: &Option<SelectAction>, buf: &mut Vec<u8>) {
    match v {
        None => buf.push(TAG_NONE),
        Some(a) => a.encode(buf),
    }
}

fn next_select_bytes(v: &Option<SelectAction>) -> usize {
    match v {
        None => 1,
        Some(a) => a.wire_bytes(),
    }
}

fn decode_next_select(r: &mut WireReader<'_>) -> Result<Option<SelectAction>, WireError> {
    // Peek the tag: TAG_NONE consumes one byte, anything else re-parses as
    // a SelectAction (whose tags are disjoint from TAG_NONE).
    let tag = r.read_array::<1>()?[0];
    if tag == TAG_NONE {
        return Ok(None);
    }
    match tag {
        TAG_VERTICES => Ok(Some(SelectAction::Vertices(Vec::decode(r)?))),
        TAG_RANDOM => {
            Ok(Some(SelectAction::Random { target: usize::decode(r)?, budget: u64::decode(r)? }))
        }
        TAG_NOTHING => Ok(Some(SelectAction::Nothing)),
        tag => Err(WireError::BadTag { tag }),
    }
}

impl WireSize for RankSnapshot {
    fn wire_bytes(&self) -> usize {
        SNAPSHOT_MAGIC.len()
            + self.rank.wire_bytes()
            + self.nprocs.wire_bytes()
            + self.fingerprint.wire_bytes()
            + self.round.wire_bytes()
            + self.prev_total.wire_bytes()
            + self.stall.wire_bytes()
            + self.free_hints.wire_bytes()
            + self.global_sizes.wire_bytes()
            + next_select_bytes(&self.next_select)
            + self.edges.wire_bytes()
            + self.boundary.heap.wire_bytes()
            + self.boundary.expanded.wire_bytes()
            + self.boundary.enqueued.wire_bytes()
            + self.alloc.edge_part.wire_bytes()
            + self.alloc.rest.wire_bytes()
            + self.alloc.vparts.wire_bytes()
            + self.alloc.part_edges.wire_bytes()
            + self.alloc.free_edges.wire_bytes()
            + self.alloc.scan_cursor.wire_bytes()
    }
}

impl WireEncode for RankSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        self.rank.encode(buf);
        self.nprocs.encode(buf);
        self.fingerprint.encode(buf);
        self.round.encode(buf);
        self.prev_total.encode(buf);
        self.stall.encode(buf);
        self.free_hints.encode(buf);
        self.global_sizes.encode(buf);
        encode_next_select(&self.next_select, buf);
        self.edges.encode(buf);
        self.boundary.heap.encode(buf);
        self.boundary.expanded.encode(buf);
        self.boundary.enqueued.encode(buf);
        self.alloc.edge_part.encode(buf);
        self.alloc.rest.encode(buf);
        self.alloc.vparts.encode(buf);
        self.alloc.part_edges.encode(buf);
        self.alloc.free_edges.encode(buf);
        self.alloc.scan_cursor.encode(buf);
    }
}

impl WireDecode for RankSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let magic = r.read_array::<8>()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(WireError::BadTag { tag: magic[0] });
        }
        Ok(Self {
            rank: u32::decode(r)?,
            nprocs: u32::decode(r)?,
            fingerprint: u64::decode(r)?,
            round: u64::decode(r)?,
            prev_total: u64::decode(r)?,
            stall: u32::decode(r)?,
            free_hints: Vec::decode(r)?,
            global_sizes: Vec::decode(r)?,
            next_select: decode_next_select(r)?,
            edges: Vec::decode(r)?,
            boundary: BoundaryExport {
                heap: Vec::decode(r)?,
                expanded: Vec::decode(r)?,
                enqueued: Vec::decode(r)?,
            },
            alloc: AllocState {
                edge_part: Vec::decode(r)?,
                rest: Vec::decode(r)?,
                vparts: Vec::decode(r)?,
                part_edges: Vec::decode(r)?,
                free_edges: u64::decode(r)?,
                scan_cursor: u64::decode(r)?,
            },
        })
    }
}

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
    #[allow(clippy::too_many_arguments)] // mirrors the loop state one-to-one
    pub fn capture(
        rank: u32,
        nprocs: u32,
        fingerprint: u64,
        round: u64,
        prev_total: u64,
        stall: u32,
        free_hints: &[u64],
        global_sizes: &[u64],
        next_select: &Option<SelectAction>,
        exp: &ExpansionState,
        alloc: &AllocatorPart,
    ) -> Self {
        Self {
            rank,
            nprocs,
            fingerprint,
            round,
            prev_total,
            stall,
            free_hints: free_hints.to_vec(),
            global_sizes: global_sizes.to_vec(),
            next_select: next_select.clone(),
            edges: exp.edges.clone(),
            boundary: exp.boundary.export(),
            alloc: AllocState::capture(alloc),
        }
    }

    /// Restore the expansion + allocator state this snapshot captured.
    /// `exp` and `alloc` must be freshly built for the same `(graph, rank,
    /// seed, k)` — the structural half the snapshot deliberately omits.
    pub fn restore_into(
        self,
        exp: &mut ExpansionState,
        alloc: &mut AllocatorPart,
    ) -> Result<(), SnapshotError> {
        self.alloc.restore(alloc)?;
        exp.edges = self.edges;
        exp.boundary = Boundary::from_export(self.boundary);
        Ok(())
    }

    /// Reject a snapshot that does not belong to this exact run position.
    pub fn validate(&self, rank: u32, nprocs: u32, fingerprint: u64) -> Result<(), SnapshotError> {
        if self.rank != rank || self.nprocs != nprocs {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "snapshot is for rank {}/{} but this machine is rank {rank}/{nprocs}",
                    self.rank, self.nprocs
                ),
            });
        }
        if self.fingerprint != fingerprint {
            return Err(SnapshotError::Mismatch {
                detail: format!(
                    "run fingerprint {:016x} != expected {fingerprint:016x} (different graph, \
                     partition count, or seed)",
                    self.fingerprint
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
        bytes.extend_from_slice(&sum.to_le_bytes());
        let tmp = dir.join(format!(
            ".rank{}-{}-{}.tmp",
            self.rank,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        let path = dir.join(Self::file_name(self.rank, self.round));
        std::fs::rename(&tmp, &path)?;
        // Prune old generations; best-effort (a leftover file is harmless,
        // the min-round agreement only ever looks backwards one step).
        let mut rounds = list_rounds(dir, self.rank).unwrap_or_default();
        while rounds.len() > RETAINED_GENERATIONS {
            let (round, stale) = rounds.remove(0);
            if round < self.round {
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
        let expect = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum(body) != expect {
            return Err(SnapshotError::Corrupt {
                detail: format!("{}: checksum mismatch", path.display()),
            });
        }
        Self::from_wire(body).map_err(SnapshotError::Wire)
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
    use crate::dist::Grid2D;
    use dne_graph::gen;

    fn sample_snapshot() -> RankSnapshot {
        RankSnapshot {
            rank: 1,
            nprocs: 4,
            fingerprint: run_fingerprint(1000, 4, 42),
            round: 7,
            prev_total: 900,
            stall: 1,
            free_hints: vec![3, 0, 25, 7],
            global_sizes: vec![250, 230, 210, 210],
            next_select: Some(SelectAction::Vertices(vec![5, 9, 12])),
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

    #[test]
    fn codec_roundtrips_at_exact_size() {
        for snap in [
            sample_snapshot(),
            RankSnapshot { next_select: None, ..sample_snapshot() },
            RankSnapshot {
                next_select: Some(SelectAction::Random { target: 3, budget: 17 }),
                ..sample_snapshot()
            },
            RankSnapshot { next_select: Some(SelectAction::Nothing), ..sample_snapshot() },
        ] {
            let bytes = snap.to_wire();
            assert_eq!(bytes.len(), snap.wire_bytes(), "estimate != actual");
            assert_eq!(RankSnapshot::from_wire(&bytes).unwrap(), snap);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `DNESNAP1` round-trips *arbitrary* machine states
            /// bit-identically: every `next_select` variant, empty-through-
            /// large vectors, FREE and allocated words alike. Beyond value
            /// equality, a decode-then-re-encode must reproduce the exact
            /// byte stream, so nothing in the format is ambiguous.
            #[test]
            fn dnesnap1_roundtrips_arbitrary_states(
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
                    1 => Some(SelectAction::Vertices(vertices)),
                    2 => Some(SelectAction::Random { target, budget }),
                    _ => Some(SelectAction::Nothing),
                };
                let (free_edges, scan_cursor) = alloc_tail;
                let snap = RankSnapshot {
                    rank,
                    nprocs,
                    fingerprint,
                    round,
                    prev_total,
                    stall,
                    free_hints,
                    global_sizes,
                    next_select,
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
        let mut bytes = sample_snapshot().to_wire();
        bytes[0] ^= 0xFF;
        assert!(RankSnapshot::from_wire(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip_checksum_and_retention() {
        let dir = std::env::temp_dir().join(format!("dnesnap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = sample_snapshot();
        for round in [7u64, 8, 9, 10] {
            snap.round = round;
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
        assert!(snap.validate(1, 4, snap.fingerprint).is_ok());
        assert!(matches!(
            snap.validate(2, 4, snap.fingerprint),
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
        b.mark_expanded(1000);
        let _ = b.pop_k_min(5);
        let rebuilt = Boundary::from_export(b.export());
        let mut a = b;
        let mut c = rebuilt;
        // Interleave the capped and plain pops: sequences must agree step
        // by step until both run dry.
        loop {
            let pa = a.pop_lambda_capped(0.3, 100, 4);
            let pc = c.pop_lambda_capped(0.3, 100, 4);
            assert_eq!(pa, pc);
            if pa.is_empty() {
                break;
            }
        }
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn alloc_state_restore_roundtrips() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
        let grid = Grid2D::new(4, 3);
        let mut a = AllocatorPart::build(&g, &grid, 1, 3);
        a.ensure_parts(4);
        // Mutate: claim a few edges and advance the cursor.
        for le in 0..a.num_local_edges().min(5) as u32 {
            let _ = a.claim_edge(le, (le % 4) as Part);
        }
        let _ = a.random_free_vertex();
        let state = AllocState::capture(&a);
        let mut b = AllocatorPart::build(&g, &grid, 1, 3);
        b.ensure_parts(4);
        state.clone().restore(&mut b).unwrap();
        assert_eq!(AllocState::capture(&b), state);
        // Restoring into the wrong rank's subgraph must fail shape checks
        // (rank 0 and 1 own different edge sets for this graph).
        let mut wrong = AllocatorPart::build(&g, &grid, 0, 3);
        wrong.ensure_parts(4);
        assert!(matches!(state.restore(&mut wrong), Err(SnapshotError::Mismatch { .. })));
    }
}
