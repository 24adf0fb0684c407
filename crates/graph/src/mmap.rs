//! Memory-mapped storage: the `mmap` backend of the
//! [`crate::storage::GraphStorage`] seam.
//!
//! The binary graph file ([`crate::io`] has the `DNECSRF2` layout) holds
//! the two arrays of the in-memory representation — the canonical edge
//! list and the degree of every vertex — as little-endian u64 sections.
//! [`MmapCsr`] maps that file itself read-only and serves every accessor
//! straight out of the mapping, so the OS pages the data in on demand and
//! evicts it under pressure; the process *heap* stays `O(1)` no matter
//! how large the graph is. Edge pairs are read as interleaved words and
//! never reinterpreted as `&[(u64, u64)]` — tuple layout is not a layout
//! guarantee Rust makes.
//!
//! The mapping uses raw `mmap(2)`/`munmap(2)` FFI declarations (the
//! workspace is dependency-free by design, so no `libc` crate); on
//! non-Unix targets the backend reports `Unsupported` at open time.
//!
//! Open-time validation is the `O(|V|)` check every backend shares
//! (magic, exact file size for the declared counts, degrees summing to
//! `2|E|`). The `O(|E|)` payload is trusted; corrupting it yields wrong
//! query answers, not memory unsafety — every accessor is bounds-checked
//! against the validated counts.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use crate::io::{file_len, open_checked, HEADER_BYTES};
use crate::storage::{GraphStorage, StorageKind};
use crate::types::{Edge, EdgeId, VertexId};

/// Raw `mmap(2)` bindings, kept in one `cfg`-gated corner.
#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub(super) fn map(file: &File, len: usize) -> io::Result<*const u8> {
        // SAFETY: a fresh read-only mapping at an address the kernel picks
        // aliases no Rust object; `file` is an open descriptor.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        // Failure here is unrecoverable and unactionable; like every mmap
        // wrapper, swallow it (the region was ours, EINVAL cannot happen
        // for a pointer we got from map()).
        // SAFETY: `ptr`/`len` are one mapping from `map`, unmapped once.
        unsafe {
            let _ = munmap(ptr.cast_mut().cast(), len);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    pub(super) fn map(_file: &File, _len: usize) -> io::Result<*const u8> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap graph storage is only supported on Unix targets",
        ))
    }

    pub(super) fn unmap(_ptr: *const u8, _len: usize) {}
}

/// An owned read-only `mmap(2)` region over a whole file; unmapped on drop.
pub(crate) struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: `ptr` addresses a read-only mapping this value owns, which
// nothing writes through and only `Drop` unmaps; `len` is a plain count.
// Sharing or moving it across threads is sharing immutable bytes.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map all `len` bytes of `file`. `len` must equal the file's size and
    /// be non-zero (`mmap` rejects empty mappings).
    pub(crate) fn map(file: &File, len: u64) -> io::Result<Self> {
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cannot map an empty file"));
        }
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file too large for this address space")
        })?;
        let ptr = sys::map(file, len)?;
        Ok(Self { ptr, len })
    }

    /// The region as little-endian u64 words (the mapping is page-aligned,
    /// so the cast is always aligned; trailing non-word bytes are cut).
    pub(crate) fn u64s(&self) -> &[u64] {
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u64>(), self.len / 8) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion").field("len", &self.len).finish()
    }
}

/// The `mmap` storage backend: a binary graph file mapped read-only.
#[derive(Debug)]
pub struct MmapCsr {
    path: PathBuf,
    region: MmapRegion,
    num_vertices: VertexId,
    num_edges: u64,
    /// Word index (into [`MmapRegion::u64s`]) where each section starts.
    edges_at: usize,
    degrees_at: usize,
}

impl MmapCsr {
    /// Validate a binary graph file with the shared open check (see the
    /// module docs) and map it. `InvalidData` on any mismatch.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (file, n, m) = open_checked(&path)?;
        let len = file_len(n, m).expect("open_checked bounds the counts");
        let region = MmapRegion::map(&file, len)?;
        let edges_at = (HEADER_BYTES / 8) as usize;
        let degrees_at = edges_at + 2 * m as usize;
        Ok(Self { path, region, num_vertices: n, num_edges: m, edges_at, degrees_at })
    }

    /// The mapped file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl GraphStorage for MmapCsr {
    fn kind(&self) -> StorageKind {
        StorageKind::Mmap
    }

    fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    #[inline]
    fn edge(&self, e: EdgeId) -> Edge {
        assert!(e < self.num_edges, "edge id {e} out of range (|E| = {})", self.num_edges);
        let w = self.region.u64s();
        let at = self.edges_at + 2 * e as usize;
        (u64::from_le(w[at]), u64::from_le(w[at + 1]))
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u64 {
        // The last section: an out-of-range `v` is out of the mapping's bounds.
        u64::from_le(self.region.u64s()[self.degrees_at + v as usize])
    }

    fn edge_slice(&self) -> Option<&[Edge]> {
        // The pairs are interleaved words; `(u64, u64)` layout is not
        // guaranteed to match, so no slice view exists for this backend.
        None
    }

    fn try_for_each_edge(&self, f: &mut dyn FnMut(EdgeId, VertexId, VertexId)) -> io::Result<()> {
        let w = &self.region.u64s()[self.edges_at..self.degrees_at];
        for (e, pair) in w.chunks_exact(2).enumerate() {
            f(e as EdgeId, u64::from_le(pair[0]), u64::from_le(pair[1]));
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        // File-backed pages belong to the page cache, not the process
        // heap: the OS reclaims them under pressure. The mem score charges
        // heap; fig9's peak-RSS column shows the external truth.
        0
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::{gen, io, Graph};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dne_graph_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn mmap_csr_matches_in_memory_accessors() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 6, 11));
        let p = tmp("g.bin");
        io::write_chunked(&g, &p, 100).unwrap();
        let s = MmapCsr::open(&p).unwrap();
        assert_eq!(s.num_vertices(), g.num_vertices());
        assert_eq!(s.num_edges(), g.num_edges());
        for e in 0..g.num_edges() {
            assert_eq!(s.edge(e), g.edge(e));
        }
        for v in 0..g.num_vertices() {
            assert_eq!(s.degree(v), g.degree(v));
        }
        assert_eq!(s.resident_bytes(), 0, "mapped pages are not heap");
    }

    #[test]
    fn graph_via_mmap_equals_original() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 5, 3));
        let p = tmp("eq.bin");
        io::write_chunked(&g, &p, 100).unwrap();
        let m = io::open_chunked_with(&p, StorageKind::Mmap).unwrap();
        assert_eq!(m.storage_kind(), StorageKind::Mmap);
        assert_eq!(g, m);
        let mut back = Vec::new();
        m.for_each_edge(|_, u, v| back.push((u, v)));
        assert_eq!(back.as_slice(), g.edges());
    }

    #[test]
    fn graph_roundtrip_empty() {
        let g = Graph::from_canonical_edges(0, vec![]);
        let p = tmp("empty.bin");
        io::write_chunked(&g, &p, 100).unwrap();
        let m = io::open_chunked_with(&p, StorageKind::Mmap).unwrap();
        assert_eq!(m.num_vertices(), 0);
        assert_eq!(m.num_edges(), 0);
    }
}
