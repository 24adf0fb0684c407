//! The pluggable graph-storage seam: one trait, three backends.
//!
//! The paper's title promises trillion-edge graphs, but a `Graph` that
//! always holds its edge list in RAM lower-bounds every memory metric by
//! `O(|E|)` regardless of the algorithm. This module splits the
//! *representation* of a graph from its *interface* so the partitioners
//! can run over storage that pages or streams the edge set instead. All
//! three backends open the same binary file ([`crate::io`], written by
//! [`crate::io::write_chunked`]):
//!
//! * [`InMemoryCsr`] — the canonical edge list and a degree array on the
//!   heap: `16·|E| + 8·|V|` bytes. Fastest.
//! * `MmapCsr` (see [`crate::mmap`]) — the file itself mapped read-only;
//!   the OS pages the two arrays in on demand, so live *heap* is `O(1)`
//!   and resident set follows the access pattern.
//! * [`ChunkStore`] — sequential passes over the file through one 64 KiB
//!   buffer, and a one-block cache for `edge(e)`. Heap is one block, plus
//!   `O(|V|)` only if a caller asks for degrees.
//!
//! Every backend serves every accessor but [`GraphStorage::edge_slice`];
//! the failure semantics are part of each method's contract. All backends
//! expose the *same* canonical edge numbering, so every deterministic
//! partitioner produces bit-identical assignments regardless of the
//! storage backend — the property the `storage_equivalence` integration
//! suite asserts. Neighbour lists are not storage: callers that walk them
//! derive a [`crate::Adjacency`] from any backend.

use std::fs::File;
use std::io::{self, Seek};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::io::{open_checked, read_degrees, read_edges, scan_buffer, BLOCK_EDGES, HEADER_BYTES};
use crate::types::{Edge, EdgeId, VertexId};
use crate::HeapSize;

/// The names [`StorageKind::from_str`] accepts, for error messages.
const KIND_NAMES: &str = "\"in-memory\", \"mmap\", or \"chunk-streamed\"";

/// Which storage backend a [`crate::Graph`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// Heap-allocated edge list and degree array.
    #[default]
    InMemory,
    /// The binary graph file mapped read-only: the OS pages the same two
    /// arrays in on demand; live heap is `O(1)`.
    Mmap,
    /// Sequential passes over the binary graph file through one buffer.
    ChunkStreamed,
}

impl StorageKind {
    /// Environment variable consulted by [`StorageKind::from_env`].
    pub const ENV_VAR: &'static str = "DNE_GRAPH_STORAGE";

    /// Every backend, in definition order — the canonical list the
    /// equivalence suites iterate, so adding a backend cannot silently
    /// drop it from a test matrix that hand-copied the roster.
    pub const ALL: [StorageKind; 3] =
        [StorageKind::InMemory, StorageKind::Mmap, StorageKind::ChunkStreamed];

    /// Read the backend from `DNE_GRAPH_STORAGE` (`in-memory` | `mmap` |
    /// `chunk-streamed`, case-insensitive, surrounding whitespace
    /// ignored). Unset or empty means [`StorageKind::InMemory`].
    ///
    /// # Panics
    /// Panics on an unrecognized or non-Unicode value, naming the valid
    /// backends — a misconfigured run (`DNE_GRAPH_STORAGE=mmaped`) must
    /// fail loudly before it silently measures the wrong backend.
    pub fn from_env() -> Self {
        // Hand-rolled on purpose: the workspace's one strict reader is
        // `dne_runtime::env_knob`, and `dne-graph` sits below the runtime
        // with no dependencies — it must not gain one for ten lines.
        match std::env::var(Self::ENV_VAR) {
            Ok(v) if !v.trim().is_empty() => {
                v.parse().unwrap_or_else(|e| panic!("invalid {}: {e}", Self::ENV_VAR))
            }
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!(
                    "invalid {}: non-Unicode value {raw:?} (expected {KIND_NAMES})",
                    Self::ENV_VAR
                )
            }
            _ => StorageKind::InMemory,
        }
    }
}

impl std::str::FromStr for StorageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "in-memory" | "inmemory" | "in_memory" => Ok(StorageKind::InMemory),
            "mmap" => Ok(StorageKind::Mmap),
            "chunk-streamed" | "chunkstreamed" | "chunk_streamed" | "streamed" => {
                Ok(StorageKind::ChunkStreamed)
            }
            other => {
                Err(format!("unknown graph storage backend {other:?} (expected {KIND_NAMES})"))
            }
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageKind::InMemory => "in-memory",
            StorageKind::Mmap => "mmap",
            StorageKind::ChunkStreamed => "chunk-streamed",
        })
    }
}

/// Storage backend of a [`crate::Graph`]: the seam between the graph's
/// *interface* (canonical edge ids, degrees) and its *representation*
/// (heap arrays, a mapped file, a streamed file).
///
/// ## Capabilities
///
/// Every backend serves `edge`, `try_for_each_edge` and `degree`
/// (chunk-streamed: a one-block cache, a re-streamed file, and a lazy
/// `O(|V|)` degree pass). `edge_slice` is the one accessor that depends
/// on the backend: only in-memory holds an addressable `[Edge]`.
///
/// ## Failure semantics
///
/// Infallible accessors (`edge`, `degree`) on disk-backed storage
/// **panic** on an environmental I/O failure (file deleted mid-run, disk
/// error) — by construction they can only be reached after the file
/// validated at open time, so an error there is a torn environment, not
/// an input condition. Anything that is an *input*
/// condition (corrupt record, wrong magic, count mismatch) is a typed
/// `io::Error` from the open entry points in [`crate::io`] or
/// from [`GraphStorage::try_for_each_edge`].
pub trait GraphStorage: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> StorageKind;

    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> VertexId;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> u64;

    /// The canonical endpoints of edge `e` (`e < num_edges`).
    fn edge(&self, e: EdgeId) -> Edge;

    /// Degree of vertex `v`. The chunk-streamed backend computes all
    /// degrees with one `O(|E|)` pass on first use and caches the
    /// `O(|V|)` array.
    fn degree(&self, v: VertexId) -> u64;

    /// The full canonical edge array as a slice, if this backend holds
    /// one in addressable memory with the layout of `[Edge]` (only
    /// in-memory does).
    fn edge_slice(&self) -> Option<&[Edge]>;

    /// Visit every edge in canonical ascending order as
    /// `f(edge_id, u, v)` — the sequential scan every backend serves at
    /// its best: slice iteration (in-memory), a linear page-in (mmap), or
    /// one buffered block at a time (chunk-streamed).
    fn try_for_each_edge(&self, f: &mut dyn FnMut(EdgeId, VertexId, VertexId)) -> io::Result<()>;

    /// Live *heap* bytes owned by this storage right now — what the
    /// mem-score tracker charges. File-backed pages (mmap) are the OS's,
    /// not the process heap, and are deliberately excluded; the
    /// `fig9_memory` peak-RSS column measures those externally.
    fn resident_bytes(&self) -> usize;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The canonical edge list (see [`crate::Graph`] for the invariants) and
/// the degree of every vertex, on the heap; the default backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InMemoryCsr {
    edges: Box<[Edge]>,
    degrees: Box<[u64]>,
}

impl InMemoryCsr {
    /// Build from a canonical (sorted, deduplicated, loop-free) edge
    /// list, validating and counting degrees on up to `threads` threads;
    /// panics exactly like [`crate::Graph::from_canonical_edges`].
    pub fn from_canonical_edges(num_vertices: VertexId, edges: Vec<Edge>, threads: usize) -> Self {
        let degrees = crate::parallel::validate_and_count(num_vertices, &edges, threads);
        Self { edges: edges.into_boxed_slice(), degrees: degrees.into_boxed_slice() }
    }

    /// Read a binary graph file onto the heap. Past the open check every
    /// backend shares, each record is validated as it is read and the
    /// degrees counted from them must equal the file's degree trailer; any
    /// mismatch is an `InvalidData` error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let (mut file, n, m) = open_checked(path.as_ref())?;
        let mut buf = scan_buffer();
        let mut edges = Vec::with_capacity(m as usize);
        read_edges(&mut file, m, n, &mut buf, |u, v| edges.push((u, v)))?;
        let csr = Self::from_canonical_edges(n, edges, 1);
        read_degrees(&mut file, n, &mut buf, |v, d| {
            let counted = csr.degrees[v as usize];
            if counted == d {
                return Ok(());
            }
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vertex {v}: degree trailer says {d}, its edges give {counted}"),
            ))
        })?;
        Ok(csr)
    }
}

impl GraphStorage for InMemoryCsr {
    fn kind(&self) -> StorageKind {
        StorageKind::InMemory
    }

    fn num_vertices(&self) -> VertexId {
        self.degrees.len() as VertexId
    }

    fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    #[inline]
    fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u64 {
        self.degrees[v as usize]
    }

    fn edge_slice(&self) -> Option<&[Edge]> {
        Some(&self.edges)
    }

    fn try_for_each_edge(&self, f: &mut dyn FnMut(EdgeId, VertexId, VertexId)) -> io::Result<()> {
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            f(e as EdgeId, u, v);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.edges.heap_bytes() + self.degrees.heap_bytes()
    }
}

// ---------------------------------------------------------------------------
// Chunk-streamed backend
// ---------------------------------------------------------------------------

/// Chunk-streamed storage over a binary graph file: the shared open
/// check runs once, after which every sequential scan re-reads the records
/// through one 64 KiB buffer, validating each, and a random `edge(e)`
/// reads the block of 4096 records holding `e` into a
/// one-block cache. Records are fixed-width, so the block is found by
/// arithmetic. Degrees are computed lazily by one extra scan, only if
/// asked for, so they always agree with the scanned edges.
#[derive(Debug)]
pub struct ChunkStore {
    path: PathBuf,
    num_vertices: VertexId,
    num_edges: u64,
    cache: Mutex<Option<(u64, Vec<Edge>)>>,
    degrees: OnceLock<Vec<u64>>,
}

impl ChunkStore {
    /// Open a binary graph file after the shared open check: a wrong
    /// magic, a length that does not fit the declared counts, or degrees
    /// that do not sum to `2|E|` is a typed `InvalidData` error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (_, num_vertices, num_edges) = open_checked(&path)?;
        Ok(Self {
            path,
            num_vertices,
            num_edges,
            cache: Mutex::new(None),
            degrees: OnceLock::new(),
        })
    }

    /// The file this store streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `count` records from edge `first` on, read and validated.
    fn read_edges_from(
        &self,
        first: u64,
        count: u64,
        f: impl FnMut(VertexId, VertexId),
    ) -> io::Result<()> {
        let mut file = File::open(&self.path)?;
        file.seek(io::SeekFrom::Start(HEADER_BYTES + 16 * first))?;
        read_edges(&mut file, count, self.num_vertices, &mut scan_buffer(), f)
    }

    /// Run `f` over the cached copy of block `block`, loading it if needed.
    fn with_block<R>(&self, block: u64, f: impl FnOnce(&[Edge]) -> R) -> R {
        let mut cache = self.cache.lock().expect("block cache poisoned");
        match *cache {
            Some((held, ref buf)) if held == block => f(buf),
            _ => {
                let first = block * BLOCK_EDGES as u64;
                let count = (self.num_edges - first).min(BLOCK_EDGES as u64);
                let mut buf = Vec::with_capacity(count as usize);
                self.read_edges_from(first, count, |u, v| buf.push((u, v))).unwrap_or_else(|e| {
                    panic!(
                        "chunk-streamed storage: failed to re-read block {block} of {}: {e}",
                        self.path.display()
                    )
                });
                let r = f(&buf);
                *cache = Some((block, buf));
                r
            }
        }
    }
}

impl GraphStorage for ChunkStore {
    fn kind(&self) -> StorageKind {
        StorageKind::ChunkStreamed
    }

    fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    fn edge(&self, e: EdgeId) -> Edge {
        assert!(e < self.num_edges, "edge id {e} out of range (|E| = {})", self.num_edges);
        let block = BLOCK_EDGES as u64;
        self.with_block(e / block, |buf| buf[(e % block) as usize])
    }

    fn degree(&self, v: VertexId) -> u64 {
        let degrees = self.degrees.get_or_init(|| {
            let mut deg = vec![0u64; self.num_vertices as usize];
            self.try_for_each_edge(&mut |_, u, w| {
                deg[u as usize] += 1;
                deg[w as usize] += 1;
            })
            .unwrap_or_else(|e| {
                panic!(
                    "chunk-streamed storage: degree pass over {} failed: {e}",
                    self.path.display()
                )
            });
            deg
        });
        degrees[v as usize]
    }

    fn edge_slice(&self) -> Option<&[Edge]> {
        None
    }

    fn try_for_each_edge(&self, f: &mut dyn FnMut(EdgeId, VertexId, VertexId)) -> io::Result<()> {
        let mut e: EdgeId = 0;
        self.read_edges_from(0, self.num_edges, |u, v| {
            f(e, u, v);
            e += 1;
        })
    }

    fn resident_bytes(&self) -> usize {
        let cached = self
            .cache
            .lock()
            .map(|c| c.as_ref().map_or(0, |(_, buf)| buf.capacity() * 16))
            .unwrap_or(0);
        let degrees = self.degrees.get().map_or(0, |d| d.capacity() * 8);
        cached + degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dne_graph_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn kind_parses_all_names_and_rejects_typos() {
        for kind in StorageKind::ALL {
            let rt: StorageKind = kind.to_string().parse().unwrap();
            assert_eq!(rt, kind);
        }
        assert_eq!(" MMAP ".parse::<StorageKind>().unwrap(), StorageKind::Mmap);
        assert_eq!("In-Memory".parse::<StorageKind>().unwrap(), StorageKind::InMemory);
        let e = "mmaped".parse::<StorageKind>().unwrap_err();
        assert!(e.contains("in-memory"), "error must name valid backends: {e}");
        assert!(e.contains("chunk-streamed"), "error must name valid backends: {e}");
    }

    #[test]
    fn chunk_store_matches_in_memory_accessors() {
        let g = gen::rmat(&gen::RmatConfig::graph500(11, 8, 7));
        assert!(g.num_edges() > 2 * BLOCK_EDGES as u64, "several blocks");
        let p = tmp("store.bin");
        crate::io::write_chunked(&g, &p, 100).unwrap();
        let s = ChunkStore::open(&p).unwrap();
        assert_eq!(s.num_vertices(), g.num_vertices());
        assert_eq!(s.num_edges(), g.num_edges());
        // Random access through the block cache, in a cache-hostile order.
        for e in (0..g.num_edges()).rev() {
            assert_eq!(s.edge(e), g.edge(e));
        }
        for v in 0..g.num_vertices() {
            assert_eq!(s.degree(v), g.degree(v));
        }
        assert!(s.edge_slice().is_none());
        // Sequential scan sees every edge in canonical order.
        let mut seen = Vec::new();
        s.try_for_each_edge(&mut |e, u, v| seen.push((e, u, v))).unwrap();
        assert_eq!(seen.len() as u64, g.num_edges());
        for (e, u, v) in seen {
            assert_eq!(g.edge(e), (u, v));
        }
        assert!(s.resident_bytes() > 0, "cache + degree array are live heap");
        assert!(
            s.resident_bytes() < g.heap_bytes(),
            "streamed residency must undercut the full edge list"
        );
    }
}
