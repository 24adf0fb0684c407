//! `dne-server` — partitioning as a service: partition a graph once, then
//! serve assignment lookups until a client asks for shutdown.
//!
//! ```text
//! dne-server serve <scale> <degree> <seed> <parts>
//! ```
//!
//! The server builds the RMAT graph deterministically from the spec,
//! round-trips it through chunked storage so the `DNE_GRAPH_STORAGE`
//! backend genuinely feeds the partition and the index build, partitions
//! once with `DistributedNe`, indexes the assignment into a
//! [`ShardedAssignmentIndex`], then serves the lookup vocabulary of
//! [`dne_bench::lookup`] over the runtime's [`WireServer`].
//!
//! Environment knobs (all strict — typos fail loudly):
//!
//! * `DNE_SERVER_ADDR` — bind address (`host:port`; default
//!   `127.0.0.1:0`, an ephemeral localhost port).
//! * `DNE_SERVER_SHARDS` — power-of-two index shard count (default 8).
//! * `DNE_GRAPH_STORAGE` — graph backend (`in-memory` | `mmap` |
//!   `chunk-streamed`).
//!
//! Startup prints two stdout markers the launcher scrapes — the bound
//! address and the served assignment's fingerprint:
//!
//! ```text
//! DNE_SERVER_ADDR 127.0.0.1:40913
//! DNE_SERVER_FPRINT 6c02e3…
//! ```
//!
//! `dne-client` (the load generator and verification harness) spawns this
//! binary for its default mode; see that binary for the full workflow.

use std::process::ExitCode;

use dne_bench::harness::{self, arg, Failure, Spec};
use dne_bench::lookup::{announce, shards_from_env, AssignmentService};
use dne_graph::{io, StorageKind};
use dne_partition::ShardedAssignmentIndex;
use dne_runtime::{server_addr_from_env, WireServer};

const USAGE: &str = "usage: dne-server serve <scale> <degree> <seed> <parts>";

fn serve(spec: Spec) -> Result<(), String> {
    let storage = StorageKind::from_env();
    let shards = shards_from_env();

    // Deterministic graph, round-tripped through chunked storage so the
    // selected backend (not the generator's in-memory graph) feeds
    // everything downstream.
    let g = spec.graph();
    let dir = std::env::temp_dir().join(format!("dne_server_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let chunked = dir.join("graph.chunks");
    io::write_chunked(&g, &chunked, 1 << 16).map_err(|e| format!("writing chunked graph: {e}"))?;
    drop(g);
    let g = io::open_chunked_env(&chunked).map_err(|e| format!("opening chunked graph: {e}"))?;

    let parts = spec.parts;
    let (assignment, stats) = spec.partitioner().partition_with_stats(&g, parts);
    let index = ShardedAssignmentIndex::build(&g, &assignment, shards);
    eprintln!(
        "[dne-server: storage {storage}, |V|={} |E|={}, {parts} parts in {} iterations, \
         {shards} shards, RF {:.4}]",
        g.num_vertices(),
        g.num_edges(),
        stats.iterations,
        index.replication_factor()
    );

    let addr = server_addr_from_env("127.0.0.1:0");
    let server = WireServer::bind(&addr).map_err(|e| e.to_string())?;
    announce(server.local_addr(), index.fingerprint());

    let mut service = AssignmentService::new(index);
    let served = server.serve(&mut service).map_err(|e| e.to_string())?;
    eprintln!(
        "[dne-server: served {} requests over {} connections ({} protocol errors, {} accept \
         errors), {} B in / {} B out, {:.1} requests/read, {:.1} responses/write]",
        served.requests,
        served.accepted,
        served.protocol_errors,
        served.accept_errors,
        served.bytes_in,
        served.bytes_out,
        served.requests as f64 / served.read_calls.max(1) as f64,
        served.requests as f64 / served.write_calls.max(1) as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn run(args: &[String]) -> Result<(), Failure> {
    match args.get(1).map(String::as_str) {
        Some("serve") => Ok(serve(Spec::parse(args, 2, arg(args, 5, "parts")?)?)?),
        _ => Err(Failure::Usage("expected the serve command".into())),
    }
}

fn main() -> ExitCode {
    harness::main("dne-server", USAGE, run)
}
