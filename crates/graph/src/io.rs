//! Edge-list IO: whitespace-separated text (SNAP/KONECT style), a
//! chunk-framed streaming binary format for graphs too large to buffer
//! twice, and an on-disk container for memory mapping built from it.
//!
//! The paper's datasets ship as SNAP/KONECT edge lists; this module lets a
//! user of the library feed their own graphs to the partitioners. Lines
//! starting with `#` or `%` are treated as comments (SNAP and KONECT
//! conventions respectively); an optional third weight column is accepted
//! and explicitly ignored (the graph model is unweighted).
//!
//! Three on-disk formats:
//! * **text** ([`read_text_edge_list`] / [`write_text_edge_list`]) — for
//!   interchange with published datasets;
//! * **chunk-framed binary** (`DNECHNK1`, [`ChunkedGraphWriter`] /
//!   [`read_chunked`]) — the streaming format: edges travel in
//!   length-prefixed frames so writer and reader each hold at most one
//!   chunk beyond the final edge array itself;
//! * **mappable container** (`DNECSRF2`, [`write_csr`] /
//!   [`csr_from_chunked`] / [`open_csr_mmap`]) — the edge list and the
//!   degree array laid out for read-only memory mapping; see
//!   [`crate::mmap`] for the layout.
//!
//! A chunked file is also the input of the out-of-core storage backends:
//! [`open_chunked_with`] opens it under any [`StorageKind`] without the
//! caller caring which on-disk shape backs the returned [`Graph`].

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::storage::StorageKind;
use crate::types::{Edge, VertexId};
use crate::{EdgeListBuilder, Graph};

/// Read a whitespace-separated text edge list. Vertices are renumbered
/// densely in order of first appearance so sparse external ids are fine.
pub fn read_text_edge_list(path: impl AsRef<Path>) -> io::Result<Graph> {
    let file = File::open(path)?;
    read_text_edge_list_from(BufReader::new(file))
}

/// Like [`read_text_edge_list`] but from any reader (useful for tests).
///
/// Parsing is strict: a data line must be `u v` or `u v w` where `u`/`v`
/// are unsigned integers and `w` — a weight column some SNAP/KONECT
/// exports carry — parses as a number but is **explicitly ignored** (the
/// graph model is unweighted, §2.1). Anything else (a missing endpoint, a
/// non-numeric token, a fourth column) is an `InvalidData` error naming
/// the offending 1-based line number. Note this deliberately rejects
/// KONECT's four-column temporal exports (`u v weight timestamp`) —
/// strip the trailing columns first if the timestamps carry no meaning
/// for your experiment.
pub fn read_text_edge_list_from(reader: impl BufRead) -> io::Result<Graph> {
    let mut remap = crate::hash::FastMap::default();
    let mut next_id: VertexId = 0;
    let mut intern = |raw: u64, remap: &mut crate::hash::FastMap<u64, VertexId>| -> VertexId {
        *remap.entry(raw).or_insert_with(|| {
            let id = next_id;
            next_id += 1;
            id
        })
    };
    let bad = |line_no: usize, what: String| {
        io::Error::new(io::ErrorKind::InvalidData, format!("line {line_no}: {what}"))
    };
    let mut b = EdgeListBuilder::new();
    let mut line = String::new();
    let mut reader = reader;
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (Some(a), Some(bb)) = (it.next(), it.next()) else {
            return Err(bad(line_no, format!("malformed edge line (need two endpoints): {t:?}")));
        };
        let parse = |s: &str| {
            s.parse::<u64>().map_err(|e| bad(line_no, format!("bad vertex id {s:?}: {e}")))
        };
        let u = intern(parse(a)?, &mut remap);
        let v = intern(parse(bb)?, &mut remap);
        if let Some(w) = it.next() {
            // Third column: an edge weight. Validate but ignore it.
            if w.parse::<f64>().is_err() {
                return Err(bad(line_no, format!("unparseable weight column {w:?}")));
            }
            if let Some(extra) = it.next() {
                return Err(bad(line_no, format!("unexpected trailing token {extra:?}")));
            }
        }
        b.push(u, v);
    }
    Ok(b.into_graph(next_id))
}

/// Write a graph as a text edge list (one `u v` pair per line, canonical
/// order) with a `#` header carrying counts.
pub fn write_text_edge_list(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    let mut written = Ok(());
    g.try_for_each_edge(|_, u, v| {
        if written.is_ok() {
            written = writeln!(w, "{u} {v}");
        }
    })?;
    written?;
    w.flush()
}

const CHUNKED_MAGIC: &[u8; 8] = b"DNECHNK1";
/// Placeholder edge count written while a chunked file is still streaming;
/// patched by [`ChunkedGraphWriter::finish`].
const EDGE_COUNT_UNKNOWN: u64 = u64::MAX;

/// Streaming writer for the chunk-framed binary format.
///
/// Layout: `DNECHNK1` magic, `|V|` (u64 LE), `|E|` (u64 LE — `u64::MAX`
/// until [`Self::finish`] patches it), then zero or more frames of
/// `count` (u64 LE) followed by `count` canonical `(u, v)` pairs.
///
/// The writer never needs the full edge list in memory: chunks are
/// validated and appended as they are produced, so a graph can round-trip
/// to disk while only one chunk is buffered — the point of the format at
/// scales where two in-memory copies don't fit.
/// Chunks must arrive in canonical order (each strictly ascending and
/// strictly after the previous chunk's last edge), which is exactly how
/// [`crate::Graph::edges`] and the parallel merge emit them.
#[derive(Debug)]
pub struct ChunkedGraphWriter {
    w: BufWriter<File>,
    num_vertices: VertexId,
    written: u64,
    last: Option<Edge>,
}

impl ChunkedGraphWriter {
    /// Create the file and write the streaming header.
    pub fn create(path: impl AsRef<Path>, num_vertices: VertexId) -> io::Result<Self> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(CHUNKED_MAGIC)?;
        w.write_all(&num_vertices.to_le_bytes())?;
        w.write_all(&EDGE_COUNT_UNKNOWN.to_le_bytes())?;
        Ok(Self { w, num_vertices, written: 0, last: None })
    }

    /// Append one frame of canonical edges. Empty chunks are skipped.
    ///
    /// Fails with `InvalidInput` if the chunk is not strictly sorted
    /// canonical order continuing the stream, or names an endpoint outside
    /// `0..num_vertices`.
    pub fn write_chunk(&mut self, edges: &[Edge]) -> io::Result<()> {
        if edges.is_empty() {
            return Ok(());
        }
        for &(u, v) in edges {
            if u >= v || v >= self.num_vertices {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) is not canonical for |V| = {}", self.num_vertices),
                ));
            }
            if self.last.is_some_and(|last| last >= (u, v)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) breaks the stream's canonical order"),
                ));
            }
            self.last = Some((u, v));
        }
        self.w.write_all(&(edges.len() as u64).to_le_bytes())?;
        for &(u, v) in edges {
            self.w.write_all(&u.to_le_bytes())?;
            self.w.write_all(&v.to_le_bytes())?;
        }
        self.written += edges.len() as u64;
        Ok(())
    }

    /// Flush, patch the header's edge count, and return it.
    pub fn finish(self) -> io::Result<u64> {
        let mut f = self.w.into_inner().map_err(|e| e.into_error())?;
        f.seek(io::SeekFrom::Start((CHUNKED_MAGIC.len() + 8) as u64))?;
        f.write_all(&self.written.to_le_bytes())?;
        f.sync_data()?;
        Ok(self.written)
    }
}

/// Write a graph in the chunk-framed format, `chunk_edges` edges per frame.
pub fn write_chunked(g: &Graph, path: impl AsRef<Path>, chunk_edges: usize) -> io::Result<()> {
    let mut w = ChunkedGraphWriter::create(path, g.num_vertices())?;
    let mut chunk = Vec::with_capacity(chunk_edges.clamp(1, 1 << 20));
    let mut written = Ok(());
    g.try_for_each_edge(|_, u, v| {
        if written.is_err() {
            return;
        }
        chunk.push((u, v));
        if chunk.len() >= chunk_edges.max(1) {
            written = w.write_chunk(&chunk);
            chunk.clear();
        }
    })?;
    written?;
    w.write_chunk(&chunk)?;
    w.finish()?;
    Ok(())
}

/// Read a u64 frame header, distinguishing clean end-of-file (no further
/// frame) from a truncated header.
fn read_frame_len(r: &mut impl Read) -> io::Result<Option<u64>> {
    let mut buf = [0u8; 8];
    let mut filled = 0;
    while filled < buf.len() {
        let k = match r.read(&mut buf[filled..]) {
            // Match read_exact's semantics: a signal-interrupted read is
            // retried, not treated as corruption.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => other?,
        };
        if k == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame header"))
            };
        }
        filled += k;
    }
    Ok(Some(u64::from_le_bytes(buf)))
}

/// Parsed and validated `DNECHNK1` header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkedHeader {
    /// Declared vertex count.
    pub num_vertices: VertexId,
    /// Patched edge count (never the unfinished sentinel).
    pub declared_edges: u64,
}

/// Read and validate a chunked file's 24-byte header: magic, the
/// finished-writer sentinel, and a declared count the file could
/// physically hold (a corrupt count must not provoke a huge allocation).
fn read_chunked_header(r: &mut impl Read, file_len: u64) -> io::Result<ChunkedHeader> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CHUNKED_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a DNECHNK1 file"));
    }
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    let n = u64::from_le_bytes(buf);
    r.read_exact(&mut buf)?;
    let declared = u64::from_le_bytes(buf);
    if declared == EDGE_COUNT_UNKNOWN {
        // The writer patches the count in `finish`; the sentinel means the
        // producing process died mid-stream. Refuse rather than silently
        // return a truncated graph.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unfinished chunked file (writer never ran finish; edge count unpatched)",
        ));
    }
    let payload_cap = file_len.saturating_sub(24) / 16;
    if declared > payload_cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("header declares {declared} edges but the file can hold {payload_cap}"),
        ));
    }
    Ok(ChunkedHeader { num_vertices: n, declared_edges: declared })
}

/// Size of the buffer frames are decoded through: a multiple of one pair's
/// 16 bytes, and bounded so a corrupt frame header cannot provoke an absurd
/// allocation.
const SCRATCH_BYTES: usize = 1 << 16;

/// Decode `count` pairs from `r` onto the end of `out`, validating while
/// decoding so a corrupt payload surfaces as `Err(InvalidData)` here
/// instead of a panic in the graph constructor's canonical-order assertions
/// downstream: every pair canonical for `|V| = n`, and the stream strictly
/// ascending from `last` (which is advanced). The one decode loop behind
/// the sequential reader and the random-access frame read.
fn decode_pairs(
    r: &mut impl Read,
    count: u64,
    n: VertexId,
    scratch: &mut [u8],
    last: &mut Option<Edge>,
    out: &mut Vec<Edge>,
) -> io::Result<()> {
    let mut remaining = (count as usize)
        .checked_mul(16)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame length overflow"))?;
    out.reserve(count as usize);
    while remaining > 0 {
        let take = remaining.min(scratch.len());
        r.read_exact(&mut scratch[..take])?;
        for pair in scratch[..take].chunks_exact(16) {
            let u = u64::from_le_bytes(pair[..8].try_into().unwrap());
            let v = u64::from_le_bytes(pair[8..].try_into().unwrap());
            if u >= v || v >= n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt frame: ({u}, {v}) is not canonical for |V| = {n}"),
                ));
            }
            if last.is_some_and(|last| last >= (u, v)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt frame: ({u}, {v}) breaks the canonical edge order"),
                ));
            }
            *last = Some((u, v));
            out.push((u, v));
        }
        remaining -= take;
    }
    Ok(())
}

/// Streaming frame-by-frame reader over a chunked file with full payload
/// validation: every pair must be canonical for the declared `|V|`, the
/// stream strictly ascending across frame boundaries, and the total frame
/// count must match the header when end-of-file is reached. This is the
/// one decode loop behind [`read_chunked`], the chunk-streamed storage
/// backend's sequential scans, and the container converter's pass.
#[derive(Debug)]
pub(crate) struct ChunkedEdgeReader {
    r: BufReader<File>,
    header: ChunkedHeader,
    read_so_far: u64,
    last: Option<Edge>,
    /// What [`decode_pairs`] reads through.
    scratch: Vec<u8>,
}

impl ChunkedEdgeReader {
    /// Open `path` and validate its header.
    pub(crate) fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let header = read_chunked_header(&mut r, file_len)?;
        Ok(Self { r, header, read_so_far: 0, last: None, scratch: vec![0u8; SCRATCH_BYTES] })
    }

    /// Declared vertex count.
    pub(crate) fn num_vertices(&self) -> VertexId {
        self.header.num_vertices
    }

    /// Declared (finished) edge count.
    pub(crate) fn declared_edges(&self) -> u64 {
        self.header.declared_edges
    }

    /// Decode the next frame into `out` (cleared first). Returns `false`
    /// on clean end-of-file — at which point the total decoded count has
    /// been checked against the header — and `Err` on any corruption.
    pub(crate) fn next_chunk(&mut self, out: &mut Vec<Edge>) -> io::Result<bool> {
        out.clear();
        let Some(count) = read_frame_len(&mut self.r)? else {
            if self.header.declared_edges != self.read_so_far {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "header declares {} edges, frames carry {}",
                        self.header.declared_edges, self.read_so_far
                    ),
                ));
            }
            return Ok(false);
        };
        decode_pairs(
            &mut self.r,
            count,
            self.header.num_vertices,
            &mut self.scratch,
            &mut self.last,
            out,
        )?;
        self.read_so_far += count;
        Ok(true)
    }
}

/// One frame's location within a chunked file, as indexed by
/// [`scan_chunked_frames`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkFrame {
    /// Global id of the first edge in this frame.
    pub first_edge: u64,
    /// Number of edges in this frame.
    pub count: u64,
    /// Byte offset of the frame's payload (just past its count word).
    pub payload_at: u64,
}

/// Index a chunked file's frame directory without decoding any payload:
/// reads each frame's count word and seeks past its pairs, so the cost is
/// `O(frames)` I/O regardless of `|E|`.
///
/// Beyond the header checks, this validates that every frame fits inside
/// the file and — the check a seek-based scan would otherwise lose — that
/// the **summed frame counts equal the header's declared `|E|`**, failing
/// with an `InvalidData` error naming both counts.
pub(crate) fn scan_chunked_frames(
    path: impl AsRef<Path>,
) -> io::Result<(ChunkedHeader, Vec<ChunkFrame>)> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let header = read_chunked_header(&mut f, file_len)?;
    let mut frames = Vec::new();
    let mut pos = 24u64;
    let mut total = 0u64;
    while let Some(count) = read_frame_len(&mut f)? {
        pos += 8;
        let bytes = count
            .checked_mul(16)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame length overflow"))?;
        if pos.checked_add(bytes).is_none_or(|end| end > file_len) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("frame of {count} edges overruns the file"),
            ));
        }
        frames.push(ChunkFrame { first_edge: total, count, payload_at: pos });
        // Frames occupy disjoint file ranges, so `total` is bounded by
        // `file_len / 16` and cannot overflow.
        total += count;
        pos += bytes;
        f.seek(io::SeekFrom::Start(pos))?;
    }
    if total != header.declared_edges {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "chunked file declares {} edges but its frames sum to {total}",
                header.declared_edges
            ),
        ));
    }
    Ok((header, frames))
}

/// Decode one frame (located by [`scan_chunked_frames`]) into `out`,
/// validating that each pair is canonical and the frame internally
/// ascending. Cross-frame ordering is the sequential reader's job.
pub(crate) fn read_frame_payload(
    path: impl AsRef<Path>,
    frame: &ChunkFrame,
    num_vertices: VertexId,
    out: &mut Vec<Edge>,
) -> io::Result<()> {
    out.clear();
    let mut f = File::open(path)?;
    f.seek(io::SeekFrom::Start(frame.payload_at))?;
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    decode_pairs(&mut BufReader::new(f), frame.count, num_vertices, &mut scratch, &mut None, out)
}

/// Read a graph written in the chunk-framed format ([`ChunkedGraphWriter`]).
/// The edge list is appended frame by frame into a single allocation —
/// only one decoded chunk ever coexists with the growing edge array.
pub fn read_chunked(path: impl AsRef<Path>) -> io::Result<Graph> {
    let mut r = ChunkedEdgeReader::open(path)?;
    let mut edges: Vec<Edge> = Vec::with_capacity(r.declared_edges() as usize);
    let mut chunk = Vec::new();
    while r.next_chunk(&mut chunk)? {
        edges.append(&mut chunk);
    }
    Ok(Graph::from_canonical_edges(r.num_vertices(), edges))
}

/// Build a `DNECSRF2` container (see [`crate::mmap`] for the layout) from
/// one pass over a canonical edge stream of `m` edges, holding `O(1)` heap.
fn build_csr_file<F>(path: &Path, n: VertexId, m: u64, pass: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn FnMut(VertexId, VertexId)) -> io::Result<()>,
{
    let len = crate::mmap::csr_file_len(n, m).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "container section sizes overflow u64")
    })?;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.set_len(len)?;
    // Fill through a shared read-write mapping of the zero-extended file:
    // edges land sequentially, degree increments are random-access (one
    // word per vertex), which the page cache absorbs.
    let mut region = crate::mmap::MmapRegion::map(&file, len, true)?;
    let (header, body) =
        region.u64s_mut().split_at_mut((crate::mmap::CSR_HEADER_BYTES / 8) as usize);
    let (edge_words, degrees) = body.split_at_mut(2 * m as usize);
    let mut slots = edge_words.chunks_exact_mut(2);
    let mut carried = 0u64;
    pass(&mut |u, v| {
        // A stream longer than promised runs out of slots, not into the degrees.
        if let Some(pair) = slots.next() {
            pair.copy_from_slice(&[u.to_le(), v.to_le()]);
            for x in [u, v] {
                let d = &mut degrees[x as usize];
                *d = (u64::from_le(*d) + 1).to_le();
            }
        }
        carried += 1;
    })?;
    if carried != m {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("edge stream carried {carried} edges, header promised {m}"),
        ));
    }
    // The header goes last: a file abandoned mid-fill never carries the magic.
    header.copy_from_slice(&[u64::from_ne_bytes(*crate::mmap::CSR_MAGIC), n.to_le(), m.to_le(), 0]);
    drop(region); // munmap flushes the shared mapping
    file.sync_all()
}

/// Write `g` as a `DNECSRF2` container, openable with
/// [`open_csr_mmap`]. Works for any storage backend of `g` (the graph is
/// streamed, not sliced).
pub fn write_csr(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    build_csr_file(path.as_ref(), g.num_vertices(), g.num_edges(), |visit| {
        g.try_for_each_edge(|_, u, v| visit(u, v))
    })
}

/// Convert a finished `DNECHNK1` chunked file into a `DNECSRF2`
/// container without ever materializing the graph: one streaming pass
/// over the chunks fills the memory-mapped output in place, so peak heap is
/// `O(chunk)`. Returns the edge count.
pub fn csr_from_chunked(src: impl AsRef<Path>, dst: impl AsRef<Path>) -> io::Result<u64> {
    let mut r = ChunkedEdgeReader::open(src)?;
    let m = r.declared_edges();
    build_csr_file(dst.as_ref(), r.num_vertices(), m, |visit| {
        let mut chunk = Vec::new();
        while r.next_chunk(&mut chunk)? {
            for &(u, v) in &chunk {
                visit(u, v);
            }
        }
        Ok(())
    })?;
    Ok(m)
}

/// Open a `DNECSRF2` container as a [`Graph`] on the memory-mapped
/// storage backend ([`crate::mmap::MmapCsr`]).
pub fn open_csr_mmap(path: impl AsRef<Path>) -> io::Result<Graph> {
    Ok(Graph::from_storage(std::sync::Arc::new(crate::mmap::MmapCsr::open(path)?)))
}

/// Open a finished `DNECHNK1` file as a [`Graph`] on the chunk-streamed
/// storage backend ([`crate::storage::ChunkStore`]) — no full edge
/// materialization, bounded memory.
pub fn open_chunk_streamed(path: impl AsRef<Path>) -> io::Result<Graph> {
    Ok(Graph::from_storage(std::sync::Arc::new(crate::storage::ChunkStore::open(path)?)))
}

/// Sibling path where [`open_chunked_with`] caches the container for
/// the mmap backend: the chunked file's name with `.csr` appended.
pub fn csr_cache_path(chunked: impl AsRef<Path>) -> std::path::PathBuf {
    let mut os = chunked.as_ref().as_os_str().to_os_string();
    os.push(".csr");
    std::path::PathBuf::from(os)
}

/// Open a finished `DNECHNK1` file as a [`Graph`] on the requested
/// storage backend:
///
/// * [`StorageKind::InMemory`] — decode every chunk onto the heap
///   ([`read_chunked`]);
/// * [`StorageKind::Mmap`] — convert to a sibling `DNECSRF2` container
///   (cached at [`csr_cache_path`], rebuilt when missing, older than the
///   source, or not opening cleanly) and map it read-only;
/// * [`StorageKind::ChunkStreamed`] — stream the chunks directly.
pub fn open_chunked_with(path: impl AsRef<Path>, kind: StorageKind) -> io::Result<Graph> {
    let path = path.as_ref();
    match kind {
        StorageKind::InMemory => read_chunked(path),
        StorageKind::ChunkStreamed => open_chunk_streamed(path),
        StorageKind::Mmap => {
            let (n, m) = {
                let r = ChunkedEdgeReader::open(path)?;
                (r.num_vertices(), r.declared_edges())
            };
            let csr = csr_cache_path(path);
            let fresh = match (std::fs::metadata(&csr), std::fs::metadata(path)) {
                (Ok(c), Ok(s)) => match (c.modified(), s.modified()) {
                    (Ok(cm), Ok(sm)) => cm >= sm,
                    _ => false,
                },
                _ => false,
            };
            if fresh {
                // A stale or foreign cache file must never win over the
                // source: accept it only if it opens cleanly and agrees on
                // both counts.
                if let Ok(g) = open_csr_mmap(&csr) {
                    if g.num_vertices() == n && g.num_edges() == m {
                        return Ok(g);
                    }
                }
            }
            csr_from_chunked(path, &csr)?;
            open_csr_mmap(&csr)
        }
    }
}

/// [`open_chunked_with`] on the backend selected by the
/// `DNE_GRAPH_STORAGE` environment variable (see
/// [`StorageKind::from_env`], which panics on unrecognized values).
pub fn open_chunked_env(path: impl AsRef<Path>) -> io::Result<Graph> {
    open_chunked_with(path, StorageKind::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::io::Cursor;

    #[test]
    fn text_roundtrip_via_tempfile() {
        let g = gen::rmat(&gen::RmatConfig::graph500(6, 4, 1));
        let dir = std::env::temp_dir().join("dne_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.txt");
        write_text_edge_list(&g, &p).unwrap();
        let g2 = read_text_edge_list(&p).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
    }

    #[test]
    fn text_reader_skips_comments_and_renumbers() {
        let text = "# snap comment\n% konect comment\n100 200\n200 300\n100 300\n";
        let g = read_text_edge_list_from(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn text_reader_rejects_garbage() {
        let text = "1 notanumber\n";
        assert!(read_text_edge_list_from(Cursor::new(text)).is_err());
    }

    #[test]
    fn text_reader_rejects_short_line() {
        let text = "42\n";
        assert!(read_text_edge_list_from(Cursor::new(text)).is_err());
    }

    #[test]
    fn text_reader_ignores_weight_column() {
        let text = "0 1 0.5\n1 2 3\n";
        let g = read_text_edge_list_from(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_reader_rejects_bad_weight_and_extra_tokens_with_line_number() {
        let e = read_text_edge_list_from(Cursor::new("0 1\n1 2 notaweight\n")).unwrap_err();
        assert!(e.to_string().contains("line 2"), "got: {e}");
        let e = read_text_edge_list_from(Cursor::new("# header\n0 1 1.0 extra\n")).unwrap_err();
        assert!(e.to_string().contains("line 2"), "got: {e}");
        assert!(e.to_string().contains("extra"), "got: {e}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dne_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn chunked_roundtrip_is_exact() {
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 5));
        let p = tmp("g.chunked");
        write_chunked(&g, &p, 1000).unwrap();
        assert_eq!(g, read_chunked(&p).unwrap());
    }

    #[test]
    fn chunked_writer_streams_and_patches_header() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 9));
        let p = tmp("g_stream.chunked");
        let mut w = ChunkedGraphWriter::create(&p, g.num_vertices()).unwrap();
        for chunk in g.edges().chunks(100) {
            w.write_chunk(chunk).unwrap();
        }
        assert_eq!(w.finish().unwrap(), g.num_edges());
        assert_eq!(g, read_chunked(&p).unwrap());
    }

    #[test]
    fn chunked_writer_rejects_out_of_order_and_non_canonical() {
        let p = tmp("g_bad.chunked");
        let mut w = ChunkedGraphWriter::create(&p, 10).unwrap();
        w.write_chunk(&[(0, 1), (1, 2)]).unwrap();
        assert!(w.write_chunk(&[(0, 2)]).is_err(), "out of order across chunks");
        let mut w = ChunkedGraphWriter::create(&p, 10).unwrap();
        assert!(w.write_chunk(&[(2, 1)]).is_err(), "non-canonical pair");
        let mut w = ChunkedGraphWriter::create(&p, 2).unwrap();
        assert!(w.write_chunk(&[(1, 5)]).is_err(), "endpoint out of range");
    }

    #[test]
    fn chunked_reader_rejects_unfinished_file() {
        let p = tmp("unfinished.chunked");
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 3));
        let mut w = ChunkedGraphWriter::create(&p, g.num_vertices()).unwrap();
        w.write_chunk(g.edges()).unwrap();
        drop(w); // simulate a crash before finish() patches the header
        let e = read_chunked(&p).unwrap_err();
        assert!(e.to_string().contains("unfinished"), "got: {e}");
    }

    #[test]
    fn chunked_reader_rejects_absurd_declared_count() {
        let p = tmp("liar.chunked");
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 4));
        write_chunked(&g, &p, 64).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[16..24].copy_from_slice(&(1u64 << 62).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let e = read_chunked(&p).unwrap_err();
        assert!(e.to_string().contains("can hold"), "got: {e}");
    }

    #[test]
    fn chunked_reader_rejects_frame_sum_disagreeing_with_header() {
        // A *modest* lie: the declared |E| fits the payload cap, but the
        // frames sum to something else. Both the streaming reader and the
        // seek-based frame scanner must reject it with a typed error
        // naming both counts.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 8));
        let m = g.num_edges();
        for lie in [m - 1, m + 1] {
            let p = tmp(&format!("count_lie_{lie}.chunked"));
            write_chunked(&g, &p, 64).unwrap();
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[16..24].copy_from_slice(&lie.to_le_bytes());
            std::fs::write(&p, &bytes).unwrap();
            let e = scan_chunked_frames(&p).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "scan, lie={lie}");
            assert!(
                e.to_string().contains(&format!("declares {lie} edges"))
                    && e.to_string().contains(&format!("sum to {m}")),
                "scan must name both counts, got: {e}"
            );
            assert!(read_chunked(&p).is_err(), "streaming read, lie={lie}");
            let e = open_chunk_streamed(&p).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "open, lie={lie}");
        }
    }

    #[test]
    fn chunked_reader_returns_err_on_corrupt_payload() {
        let p = tmp("flipped.chunked");
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 6));
        write_chunked(&g, &p, 64).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a byte inside the first frame's payload (header is 24 bytes,
        // frame length 8 more) — must surface as Err, never a panic.
        let target = 24 + 8 + 3;
        bytes[target] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let e = read_chunked(&p).unwrap_err();
        assert!(e.to_string().contains("corrupt frame"), "got: {e}");
    }

    #[cfg(unix)]
    #[test]
    fn old_layout_csr_cache_is_rebuilt_not_an_error() {
        // A sibling cache left by a build that still stored adjacency:
        // the previous magic at the previous length, newer than the source.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 12));
        let p = tmp("old_cache.chunked");
        write_chunked(&g, &p, 64).unwrap();
        let (n, m) = (g.num_vertices() as usize, g.num_edges() as usize);
        let mut old = vec![0u8; 32 + 8 * (6 * m + n + 1)];
        old[..8].copy_from_slice(b"DNECSRF1");
        old[8..16].copy_from_slice(&(n as u64).to_le_bytes());
        old[16..24].copy_from_slice(&(m as u64).to_le_bytes());
        let csr = csr_cache_path(&p);
        std::fs::write(&csr, &old).unwrap();
        assert!(open_csr_mmap(&csr).is_err(), "the old layout must not open");
        let reopened = open_chunked_with(&p, StorageKind::Mmap).unwrap();
        assert_eq!(reopened, g);
        assert_eq!(std::fs::metadata(&csr).unwrap().len(), (32 + 16 * m + 8 * n) as u64);
    }

    #[test]
    fn chunked_reader_rejects_wrong_magic_and_truncation() {
        let p = tmp("not_chunked.bin");
        let g = gen::rmat(&gen::RmatConfig::graph500(6, 4, 1));
        std::fs::write(&p, [b"DNEGRAPH".as_slice(), &[0; 16]].concat()).unwrap();
        assert!(read_chunked(&p).is_err());
        let p = tmp("truncated.chunked");
        write_chunked(&g, &p, 50).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 7]).unwrap();
        assert!(read_chunked(&p).is_err());
    }
}
