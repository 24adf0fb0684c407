//! Memory-mapped storage: the `mmap` backend of the
//! [`crate::storage::GraphStorage`] seam.
//!
//! A `DNECSRF2` container (written once by [`crate::io::write_csr`] or the
//! streaming converter [`crate::io::csr_from_chunked`]) holds the two
//! arrays of the in-memory representation — the canonical edge list and
//! the degree of every vertex — as little-endian u64 sections.
//! [`MmapCsr`] maps the file read-only and serves every accessor straight
//! out of the mapping, so the OS pages the data in on demand and evicts it
//! under pressure; the process *heap* stays `O(1)` no matter how large the
//! graph is.
//!
//! The mapping uses raw `mmap(2)`/`munmap(2)` FFI declarations (the
//! workspace is dependency-free by design, so no `libc` crate); on
//! non-Unix targets the backend reports `Unsupported` at open time.
//!
//! ## `DNECSRF2` layout
//!
//! All values little-endian u64; every section offset is a multiple of 8
//! so the page-aligned mapping can be reinterpreted as one `&[u64]`:
//!
//! ```text
//! bytes 0..8    magic "DNECSRF2"
//! bytes 8..16   |V|
//! bytes 16..24  |E|
//! bytes 24..32  reserved (zero)
//! words         edges     2|E| words  (u0 v0 u1 v1 …, canonical order)
//! words         degrees   |V| words
//! ```
//!
//! Edge pairs are stored as interleaved words and never reinterpreted as
//! `&[(u64, u64)]` — tuple layout is not a layout guarantee Rust makes.
//!
//! Open-time validation is structural and `O(|V|)`: magic, exact file
//! size for the declared counts, and degrees that sum to `2|E|`. The
//! `O(|E|)` payload is trusted (it is written by this crate's converter);
//! corrupting it yields wrong query answers, not memory unsafety — every
//! accessor is bounds-checked against the validated counts.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use crate::storage::{GraphStorage, StorageKind};
use crate::types::{Edge, EdgeId, VertexId};

/// Raw `mmap(2)` bindings, kept in one `cfg`-gated corner.
#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
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

    pub(super) fn map(file: &File, len: usize, writable: bool) -> io::Result<*mut u8> {
        let prot = if writable { PROT_READ | PROT_WRITE } else { PROT_READ };
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, MAP_SHARED, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        // Failure here is unrecoverable and unactionable; like every mmap
        // wrapper, swallow it (the region was ours, EINVAL cannot happen
        // for a pointer we got from map()).
        unsafe {
            let _ = munmap(ptr.cast(), len);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    pub(super) fn map(_file: &File, _len: usize, _writable: bool) -> io::Result<*mut u8> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap graph storage is only supported on Unix targets",
        ))
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}
}

/// An owned `mmap(2)` region over a whole file; unmapped on drop.
pub(crate) struct MmapRegion {
    ptr: *mut u8,
    len: usize,
    writable: bool,
}

// The region is a plain byte buffer whose lifetime we own; the raw
// pointer is only non-Send/Sync by default conservatism.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map all `len` bytes of `file`. `len` must equal the file's size and
    /// be non-zero (`mmap` rejects empty mappings).
    pub(crate) fn map(file: &File, len: u64, writable: bool) -> io::Result<Self> {
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cannot map an empty file"));
        }
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file too large for this address space")
        })?;
        let ptr = sys::map(file, len, writable)?;
        Ok(Self { ptr, len, writable })
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The region as little-endian u64 words (the mapping is page-aligned,
    /// so the cast is always aligned; trailing non-word bytes are cut).
    pub(crate) fn u64s(&self) -> &[u64] {
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u64>(), self.len / 8) }
    }

    /// Mutable word view; panics if the region was mapped read-only.
    pub(crate) fn u64s_mut(&mut self) -> &mut [u64] {
        assert!(self.writable, "region was mapped read-only");
        unsafe { std::slice::from_raw_parts_mut(self.ptr.cast::<u64>(), self.len / 8) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .field("writable", &self.writable)
            .finish()
    }
}

/// Magic of the on-disk container.
pub(crate) const CSR_MAGIC: &[u8; 8] = b"DNECSRF2";
/// Header size in bytes (magic + |V| + |E| + reserved word).
pub(crate) const CSR_HEADER_BYTES: u64 = 32;

/// Expected total file size for a `DNECSRF2` container with the given
/// counts, or `None` on arithmetic overflow (an absurd header).
pub(crate) fn csr_file_len(n: VertexId, m: u64) -> Option<u64> {
    // words: edges 2m + degrees n
    let words = m.checked_mul(2)?.checked_add(n)?;
    words.checked_mul(8)?.checked_add(CSR_HEADER_BYTES)
}

/// The `mmap` storage backend: a read-only mapped `DNECSRF2` container.
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
    /// Map a `DNECSRF2` file and validate its structure (see the module
    /// docs for exactly what is checked). `InvalidData` on any mismatch.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if file_len < CSR_HEADER_BYTES {
            return Err(bad(format!("{}: too short for a DNECSRF2 header", path.display())));
        }
        let region = MmapRegion::map(&file, file_len, false)?;
        if &region.bytes()[..8] != CSR_MAGIC {
            return Err(bad(format!("{}: not a DNECSRF2 file", path.display())));
        }
        let words = region.u64s();
        let n = u64::from_le(words[1]);
        let m = u64::from_le(words[2]);
        let expect = csr_file_len(n, m)
            .ok_or_else(|| bad(format!("{}: header counts overflow", path.display())))?;
        if file_len != expect {
            return Err(bad(format!(
                "{}: file is {file_len} bytes but |V| = {n}, |E| = {m} requires {expect}",
                path.display()
            )));
        }
        let edges_at = (CSR_HEADER_BYTES / 8) as usize;
        let degrees_at = edges_at + 2 * m as usize;
        let total =
            words[degrees_at..].iter().try_fold(0u64, |sum, &d| sum.checked_add(u64::from_le(d)));
        if total != Some(2 * m) {
            return Err(bad(format!("{}: degrees do not sum to 2|E| = {}", path.display(), 2 * m)));
        }
        Ok(Self { path, region, num_vertices: n, num_edges: m, edges_at, degrees_at })
    }

    /// The mapped container file.
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
        let p = tmp("g.csr");
        io::write_csr(&g, &p).unwrap();
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
    fn open_rejects_wrong_magic_truncation_and_liar_counts() {
        let g = gen::rmat(&gen::RmatConfig::graph500(6, 4, 2));
        let p = tmp("bad.csr");
        io::write_csr(&g, &p).unwrap();
        let good = std::fs::read(&p).unwrap();

        let mut b = good.clone();
        b[0] ^= 0xFF;
        std::fs::write(&p, &b).unwrap();
        assert!(MmapCsr::open(&p).is_err(), "wrong magic");

        std::fs::write(&p, &good[..good.len() - 8]).unwrap();
        assert!(MmapCsr::open(&p).is_err(), "truncated");

        let mut b = good.clone();
        b[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&p, &b).unwrap();
        assert!(MmapCsr::open(&p).is_err(), "liar edge count");

        // A degree that no longer sums with the others to 2|E|.
        let mut b = good.clone();
        b[32 + 16 * g.num_edges() as usize] ^= 1;
        std::fs::write(&p, &b).unwrap();
        assert!(MmapCsr::open(&p).is_err(), "degrees must sum to 2|E|");
    }

    #[test]
    fn graph_via_mmap_equals_original() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 5, 3));
        let p = tmp("eq.csr");
        io::write_csr(&g, &p).unwrap();
        let m = io::open_csr_mmap(&p).unwrap();
        assert_eq!(m.storage_kind(), StorageKind::Mmap);
        assert_eq!(g, m);
        let mut back = Vec::new();
        m.for_each_edge(|_, u, v| back.push((u, v)));
        assert_eq!(back.as_slice(), g.edges());
    }

    #[test]
    fn graph_roundtrip_empty() {
        let g = Graph::from_canonical_edges(0, vec![]);
        let p = tmp("empty.csr");
        io::write_csr(&g, &p).unwrap();
        let m = io::open_csr_mmap(&p).unwrap();
        assert_eq!(m.num_vertices(), 0);
        assert_eq!(m.num_edges(), 0);
    }
}
