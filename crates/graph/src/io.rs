//! Edge-list IO: whitespace-separated text (SNAP/KONECT style), and the
//! one binary graph file that every storage backend opens directly.
//!
//! The paper's datasets ship as SNAP/KONECT edge lists; this module lets a
//! user of the library feed their own graphs to the partitioners. Lines
//! starting with `#` or `%` are treated as comments (SNAP and KONECT
//! conventions respectively); an optional third weight column is accepted
//! and explicitly ignored (the graph model is unweighted).
//!
//! Two on-disk formats:
//! * **text** ([`read_text_edge_list`] / [`write_text_edge_list`]) — for
//!   interchange with published datasets;
//! * **binary** (`DNECSRF2`, [`write_chunked`] / [`open_chunked_with`]) —
//!   the canonical edge list as fixed-width records, then the degree of
//!   every vertex. [`open_chunked_with`] opens the file itself under any
//!   [`StorageKind`]: in-memory reads the records onto the heap, mmap maps
//!   the file ([`crate::mmap`]), chunk-streamed scans it through one
//!   64 KiB buffer ([`crate::storage::ChunkStore`]).
//!
//! ## `DNECSRF2` layout
//!
//! All values little-endian u64; every section offset is a multiple of 8
//! so a page-aligned mapping reads as one `&[u64]`:
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
//! Edge `e` is the 16-byte record at byte `32 + 16·e`, so any edge is
//! found by arithmetic. The degree trailer costs `8·|V|` bytes on disk;
//! the writer still holds no degree array, because it asks the graph for
//! each degree as it writes the trailer.
//!
//! [`write_chunked`] streams the file to a sibling temporary name and
//! renames it into place, so no reader ever sees a partial file. Opening
//! runs one check on every backend: the magic, the exact file length for
//! the declared counts, and degrees that sum to `2|E|`. Past that,
//! in-memory and chunk-streamed validate every record they scan
//! (canonical for `|V|`, strictly ascending), and in-memory also compares
//! the degrees it counts with the trailer; mmap trusts the `O(|E|)`
//! payload. Every failure is a typed `InvalidData` error — a file of the
//! retired chunk-framed format included.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mmap::MmapCsr;
use crate::storage::{ChunkStore, GraphStorage, InMemoryCsr, StorageKind};
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

/// Magic of the binary graph file.
const MAGIC: &[u8; 8] = b"DNECSRF2";
/// Header bytes: the magic, `|V|`, `|E|` and a reserved zero word.
pub(crate) const HEADER_BYTES: u64 = 32;
/// Edge records per read: every scan reads the file through one buffer of
/// this many records (64 KiB), and chunk-streamed `edge(e)` caches one
/// block of them.
pub(crate) const BLOCK_EDGES: usize = 4096;

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Exact length of a binary graph file with these counts, or `None` on
/// arithmetic overflow (an absurd header).
pub(crate) fn file_len(n: VertexId, m: u64) -> Option<u64> {
    m.checked_mul(2)?.checked_add(n)?.checked_mul(8)?.checked_add(HEADER_BYTES)
}

/// Unique temporary-name counter: concurrent writers within a process
/// never share a temporary (across processes the pid separates them).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `g` as a `DNECSRF2` binary file (see the module docs), streaming
/// its edges through a buffer of `chunk_edges` records. Works on any
/// storage backend of `g`. The file is written under a sibling temporary
/// name of its own and renamed into place, so a reader of `path` sees the
/// old file or one whole new one, never a partial write — also when
/// several threads write the same `path` at once (the last rename wins).
pub fn write_chunked(g: &Graph, path: impl AsRef<Path>, chunk_edges: usize) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = write_records(g, &tmp, chunk_edges).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn write_records(g: &Graph, path: &Path, chunk_edges: usize) -> io::Result<()> {
    let capacity = 16 * chunk_edges.clamp(1, 1 << 20);
    let mut w = BufWriter::with_capacity(capacity, File::create(path)?);
    w.write_all(MAGIC)?;
    for word in [g.num_vertices(), g.num_edges(), 0] {
        w.write_all(&word.to_le_bytes())?;
    }
    let mut written = Ok(());
    g.try_for_each_edge(|_, u, v| {
        if written.is_ok() {
            written = w.write_all(&u.to_le_bytes()).and_then(|()| w.write_all(&v.to_le_bytes()));
        }
    })?;
    written?;
    for v in g.vertices() {
        w.write_all(&g.degree(v).to_le_bytes())?;
    }
    w.into_inner().map_err(|e| e.into_error())?.sync_data()
}

/// Read `count` records of `R` bytes from `r` through `buf`, handing each
/// to `f`; the first error, of the read or of `f`, ends the pass.
fn read_records<const R: usize>(
    r: &mut impl Read,
    count: u64,
    buf: &mut [u8],
    mut f: impl FnMut(&[u8; R]) -> io::Result<()>,
) -> io::Result<()> {
    let step = (buf.len() / R * R) as u64;
    let mut left = count * R as u64;
    while left > 0 {
        let take = left.min(step) as usize;
        r.read_exact(&mut buf[..take])?;
        for record in buf[..take].chunks_exact(R) {
            f(record.try_into().expect("chunks_exact yields R bytes"))?;
        }
        left -= take as u64;
    }
    Ok(())
}

/// A buffer of [`BLOCK_EDGES`] records, what every scan reads through.
pub(crate) fn scan_buffer() -> Vec<u8> {
    vec![0u8; 16 * BLOCK_EDGES]
}

/// Read `count` edge records from `r` through `buf`, handing each to `f`
/// after checking that it is canonical for `|V| = n` and that the records
/// ascend strictly. A bad record is an `InvalidData` error, never a panic
/// downstream.
pub(crate) fn read_edges(
    r: &mut impl Read,
    count: u64,
    n: VertexId,
    buf: &mut [u8],
    mut f: impl FnMut(VertexId, VertexId),
) -> io::Result<()> {
    let mut last: Option<Edge> = None;
    read_records::<16>(r, count, buf, |record| {
        let (u, v) = (word(&record[..8]), word(&record[8..]));
        if u >= v || v >= n {
            return Err(invalid(format!(
                "corrupt edge record: ({u}, {v}) is not canonical for |V| = {n}"
            )));
        }
        if last.is_some_and(|last| last >= (u, v)) {
            return Err(invalid(format!(
                "corrupt edge record: ({u}, {v}) breaks the canonical edge order"
            )));
        }
        last = Some((u, v));
        f(u, v);
        Ok(())
    })
}

/// Read the degree trailer's `n` words from `r` through `buf`, handing
/// each to `f` with its vertex id.
pub(crate) fn read_degrees(
    r: &mut impl Read,
    n: VertexId,
    buf: &mut [u8],
    mut f: impl FnMut(VertexId, u64) -> io::Result<()>,
) -> io::Result<()> {
    let mut v = 0;
    read_records::<8>(r, n, buf, |record| {
        f(v, word(record))?;
        v += 1;
        Ok(())
    })
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Open a binary graph file and run the check every backend shares: the
/// magic, the exact file length for the declared `(|V|, |E|)`, and degrees
/// that sum to `2|E|`. Returns the file positioned at its first edge
/// record, with `|V|` and `|E|`.
pub(crate) fn open_checked(path: &Path) -> io::Result<(File, VertexId, u64)> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let name = path.display();
    if len < HEADER_BYTES {
        return Err(invalid(format!("{name}: {len} bytes is too short for a graph file")));
    }
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut header)?;
    match &header[..8] {
        magic if magic == MAGIC => {}
        b"DNECHNK1" => {
            return Err(invalid(format!(
                "{name}: a DNECHNK1 file of the retired chunk-framed format, which is \
                 no longer read; write the graph again with io::write_chunked"
            )))
        }
        _ => return Err(invalid(format!("{name}: not a DNECSRF2 graph file"))),
    }
    let (n, m) = (word(&header[8..16]), word(&header[16..24]));
    let expect =
        file_len(n, m).ok_or_else(|| invalid(format!("{name}: header counts overflow")))?;
    if len != expect {
        return Err(invalid(format!(
            "{name}: file is {len} bytes but |V| = {n}, |E| = {m} requires {expect}"
        )));
    }
    file.seek(io::SeekFrom::Start(HEADER_BYTES + 16 * m))?;
    let mut sum = Some(0u64);
    read_degrees(&mut file, n, &mut scan_buffer(), |_, d| {
        sum = sum.and_then(|s| s.checked_add(d));
        Ok(())
    })?;
    if sum != Some(2 * m) {
        return Err(invalid(format!("{name}: degrees do not sum to 2|E| = {}", 2 * m)));
    }
    file.seek(io::SeekFrom::Start(HEADER_BYTES))?;
    Ok((file, n, m))
}

/// Open a binary graph file written by [`write_chunked`] as a [`Graph`]
/// on the requested storage backend:
///
/// * [`StorageKind::InMemory`] — read every record onto the heap
///   ([`InMemoryCsr::open`]);
/// * [`StorageKind::Mmap`] — map the file read-only ([`MmapCsr::open`]);
/// * [`StorageKind::ChunkStreamed`] — scan the file per pass
///   ([`ChunkStore::open`]).
///
/// Any corrupt or foreign file is a typed `InvalidData` error (see the
/// module docs for what each backend checks).
pub fn open_chunked_with(path: impl AsRef<Path>, kind: StorageKind) -> io::Result<Graph> {
    let path = path.as_ref();
    let storage: Arc<dyn GraphStorage> = match kind {
        StorageKind::InMemory => Arc::new(InMemoryCsr::open(path)?),
        StorageKind::Mmap => Arc::new(MmapCsr::open(path)?),
        StorageKind::ChunkStreamed => Arc::new(ChunkStore::open(path)?),
    };
    Ok(Graph::from_storage(storage))
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

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dne_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn binary_roundtrip_is_exact_on_every_backend() {
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 5));
        let p = tmp("g.bin");
        write_chunked(&g, &p, 1000).unwrap();
        let len = std::fs::metadata(&p).unwrap().len();
        assert_eq!(len, 32 + 16 * g.num_edges() + 8 * g.num_vertices());
        for kind in StorageKind::ALL {
            let back = open_chunked_with(&p, kind).unwrap();
            assert_eq!(back.storage_kind(), kind);
            assert_eq!(back, g, "{kind}");
            assert!(g.vertices().all(|v| back.degree(v) == g.degree(v)), "{kind}: degrees");
        }
    }

    /// Opens `bytes` as a file on `kind` and, if that succeeds, scans it:
    /// the error of whichever step failed first.
    fn open_and_scan(path: &Path, bytes: &[u8], kind: StorageKind) -> io::Result<()> {
        std::fs::write(path, bytes).unwrap();
        open_chunked_with(path, kind)?.try_for_each_edge(|_, _, _| {})
    }

    /// The rejection table: every corruption of one small file, on every
    /// backend, is a typed `InvalidData` error and never a panic.
    #[test]
    fn every_backend_rejects_every_bad_file_with_a_typed_error() {
        let g = gen::rmat(&gen::RmatConfig::graph500(5, 4, 3));
        let (n, m) = (g.num_vertices() as usize, g.num_edges() as usize);
        let good_path = tmp("table_good.bin");
        write_chunked(&g, &good_path, 16).unwrap();
        let good = std::fs::read(&good_path).unwrap();
        let with = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let flipped = |at: usize| with(at, &[good[at] ^ 0xFF]);
        // The layout before the degree trailer replaced offsets and
        // adjacency arrays, at its own length.
        let mut old = vec![0u8; 32 + 8 * (6 * m + n + 1)];
        old[..32].copy_from_slice(&with(0, b"DNECSRF1")[..32]);
        let mut rows = vec![
            ("DNECHNK1 file".to_string(), with(0, b"DNECHNK1")),
            ("wrong magic".to_string(), with(0, b"DNEGRAPH")),
            ("DNECSRF1 layout".to_string(), old),
            ("|E| = m - 1".to_string(), with(16, &(m as u64 - 1).to_le_bytes())),
            ("|E| = m + 1".to_string(), with(16, &(m as u64 + 1).to_le_bytes())),
            ("degree sum off by one".to_string(), with(32 + 16 * m, &[good[32 + 16 * m] ^ 1])),
        ];
        rows.extend(
            (0..good.len()).map(|len| (format!("cut at {len} bytes"), good[..len].to_vec())),
        );
        let p = tmp("table_bad.bin");
        for (row, bytes) in &rows {
            for kind in StorageKind::ALL {
                let e = open_and_scan(&p, bytes, kind).expect_err(row);
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{row} on {kind}: {e}");
                if row.starts_with("DNECHNK1") {
                    assert!(e.to_string().contains("DNECHNK1 file of the retired"), "{e}");
                }
            }
        }
        // A flipped byte inside an edge record. In-memory catches every one
        // (order or degree trailer); chunk-streamed validates order only, so
        // it is fed the flips that leave a record non-canonical: the top
        // byte of either endpoint. Mmap trusts the payload.
        for record in 32..32 + 16 * m {
            let e = open_and_scan(&p, &flipped(record), StorageKind::InMemory).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {record}: {e}");
            if record % 8 == 7 {
                let e =
                    open_and_scan(&p, &flipped(record), StorageKind::ChunkStreamed).unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {record}: {e}");
            }
        }
        // An interrupted write: the edge stream fails half-way, before the
        // rename. The target keeps its old bytes (or stays absent), and no
        // temporary file is left beside it.
        let broken_path = tmp("table_broken.bin");
        std::fs::write(&broken_path, flipped(32 + 16 * (m / 2) + 15)).unwrap();
        let broken = open_chunked_with(&broken_path, StorageKind::ChunkStreamed).unwrap();
        let e = write_chunked(&broken, &good_path, 16).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert_eq!(std::fs::read(&good_path).unwrap(), good, "the old file survives");
        let absent = tmp("table_absent.bin");
        let _ = std::fs::remove_file(&absent);
        assert!(write_chunked(&broken, &absent, 16).is_err());
        for kind in StorageKind::ALL {
            let e = open_chunked_with(&absent, kind).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::NotFound, "{kind}: {e}");
        }
        let temps =
            [&good_path, &absent].map(|p| p.file_name().unwrap().to_string_lossy() + ".tmp");
        let dir = std::fs::read_dir(good_path.parent().unwrap()).unwrap();
        for entry in dir.flatten() {
            let name = entry.file_name();
            assert!(!temps.iter().any(|t| name.to_string_lossy().starts_with(&**t)), "{name:?}");
        }
    }

    #[test]
    fn concurrent_writers_of_one_path_publish_one_whole_file() {
        let graphs: Vec<Graph> =
            (0..4).map(|seed| gen::rmat(&gen::RmatConfig::graph500(9, 8, seed))).collect();
        let p = tmp("concurrent.bin");
        let barrier = std::sync::Barrier::new(graphs.len());
        std::thread::scope(|s| {
            for g in &graphs {
                let (p, barrier) = (&p, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    write_chunked(g, p, 64).unwrap();
                });
            }
        });
        for kind in StorageKind::ALL {
            let back = open_chunked_with(&p, kind).unwrap();
            assert!(graphs.contains(&back), "{kind}: the file is none of the four graphs");
        }
        let prefix = p.file_name().unwrap().to_string_lossy() + ".tmp";
        for entry in std::fs::read_dir(p.parent().unwrap()).unwrap().flatten() {
            let name = entry.file_name();
            assert!(!name.to_string_lossy().starts_with(&*prefix), "{name:?} left behind");
        }
    }
}
