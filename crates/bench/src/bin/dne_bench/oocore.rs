//! Out-of-core smoke test (`dne-bench oocore …`): partition one binary
//! graph file through the storage backend selected by `DNE_GRAPH_STORAGE` and
//! print what the run held.
//!
//! Two commands, designed to be driven from a shell (see README
//! "Out-of-core partitioning" and `.github/workflows/ci.yml`):
//!
//! * `prepare <chunked-path> [scale] [edge-factor]` — generate an RMAT
//!   graph, write it as the binary graph file every backend opens, and
//!   print the bytes the in-memory backend holds for it.
//! * `run <chunked-path> [k]` — open that file
//!   with the backend from `DNE_GRAPH_STORAGE`, run Distributed NE with a
//!   fixed seed, and print a one-line summary ending in the assignment
//!   fingerprint. Equal fingerprints across backends prove bit-identical
//!   partitions; `mem_score`, `peak_rss_mib` and `vm_peak_mib` (what a
//!   `ulimit -v` cap bites on) show what each backend costs.
//!
//! Everything is deterministic: same file + same `k` + same seed =>
//! same fingerprint, on every backend and transport.

use std::path::Path;

use dne_bench::harness::{arg, Failure};
use dne_core::{DistributedNe, NeConfig};
use dne_graph::gen::{rmat_parallel, RmatConfig};
use dne_graph::parallel::default_ingest_threads;
use dne_graph::{io, StorageKind};

const SEED: u64 = 7;

/// The two command lines, for the dispatcher's usage text.
pub const USAGE: [&str; 2] =
    ["oocore prepare <chunked-path> [scale] [edge-factor]", "oocore run <chunked-path> [k]"];

fn prepare(path: &Path, scale: u32, ef: u64) -> std::io::Result<()> {
    let g = rmat_parallel(&RmatConfig::graph500(scale, ef, SEED), default_ingest_threads());
    let (n, m) = (g.num_vertices(), g.num_edges());
    io::write_chunked(&g, path, 1 << 16)?;
    // What the in-memory backend holds: edges (16m) + degrees (8n).
    println!("prepared {} |V|={n} |E|={m} in-memory-bytes={}", path.display(), g.resident_bytes());
    Ok(())
}

fn run_partition(path: &Path, k: u32) -> std::io::Result<()> {
    let kind = StorageKind::from_env();
    let g = io::open_chunked_with(path, kind)?;
    let ne = DistributedNe::new(NeConfig::default().with_seed(SEED));
    let (assignment, stats) = ne.partition_with_stats(&g, k);
    // Resident peak, and the address-space peak a `ulimit -v` cap bites on.
    let mib = |bytes: Option<u64>| {
        bytes.map_or("-".into(), |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)))
    };
    println!(
        "backend={kind} k={k} iterations={} mem_score={:.2} peak_rss_mib={} vm_peak_mib={} \
         fingerprint={:016x}",
        stats.iterations,
        stats.mem_score,
        mib(dne_runtime::peak_rss_bytes()),
        mib(dne_runtime::peak_vm_bytes()),
        assignment.fingerprint()
    );
    Ok(())
}

/// `args` is everything after `oocore`.
pub fn run(args: &[String]) -> Result<(), Failure> {
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return Err(Failure::Usage("oocore needs a command and a <chunked-path>".into()));
    };
    let path = Path::new(path);
    let opt = |i: usize, what: &str, default: u64| {
        if args.len() > i {
            arg(args, i, what)
        } else {
            Ok(default)
        }
    };
    let result = match cmd.as_str() {
        "prepare" => prepare(path, opt(2, "scale", 16)? as u32, opt(3, "edge-factor", 24)?),
        "run" => run_partition(path, opt(2, "k", 8)? as u32),
        other => return Err(Failure::Usage(format!("unknown oocore command {other:?}"))),
    };
    result.map_err(|e| Failure::Run(format!("oocore {cmd} failed: {e}")))
}
