//! `dne-client` — load generator and verification harness for
//! `dne-server`.
//!
//! ```text
//! dne-client [quick|full]                    # spawn a sibling dne-server, bench, verify
//! dne-client bench <addr> <scale> <degree> <seed> <parts> [lookups-per-conn]
//! ```
//!
//! The default mode spawns `dne-server serve` (the binary next to this
//! one), waits for its address/fingerprint markers, then drives
//! `DNE_CLIENT_CONNS` concurrent connections × a per-connection lookup
//! count with a pipelined request window. Every response is compared
//! **byte-for-byte** against the answer of an offline
//! [`AssignmentService`] built from the same deterministic spec — the
//! same code path the server answers from — so a single flipped bit
//! anywhere in the partition, index, codec, framing, or transport fails
//! the run. `bench` skips the spawn and drives an already-running server
//! (the spec arguments must match the server's).
//!
//! Output: a latency/throughput row (p50/p99 microseconds, aggregate
//! lookups/s) printed and written to `bench_results/lookup_service.tsv`.
//! Exit status is non-zero on any mismatch, making the binary its own
//! acceptance gate — CI runs it as the server smoke step.

use std::collections::VecDeque;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dne_bench::fleet::Fleet;
use dne_bench::harness::{self, arg, Failure, Mode, Spec};
use dne_bench::lookup::{
    conns_from_env, shards_from_env, AssignmentService, LookupRequest, LookupResponse, ADDR_TAG,
    FPRINT_TAG,
};
use dne_bench::table::Table;
use dne_graph::hash::mix2;
use dne_graph::Graph;
use dne_partition::{PartitionId, ShardedAssignmentIndex};
use dne_runtime::{WireClient, WireEncode};

/// In-flight requests per connection: deep enough to hide the socket
/// round trip, shallow enough that tail latency stays meaningful.
const WINDOW: usize = 64;

/// The acceptance-gate presets: the job (which must match the server's)
/// and the per-connection lookup count. Quick is scale-16 RMAT.
fn preset(mode: Mode) -> (Spec, u64) {
    match mode {
        Mode::Quick => (Spec { scale: 16, degree: 8, seed: 42, parts: 4 }, 25_000),
        Mode::Full => (Spec { scale: 18, degree: 8, seed: 42, parts: 8 }, 50_000),
    }
}

/// The deterministic request stream of connection `conn`: a mix of edge
/// lookups (mostly hits), vertex replica sets, per-part stats (including
/// out-of-range parts), and guaranteed-miss probes. Both sides of the
/// verification derive the stream from `(seed, conn, i)` alone.
fn request(spec: &Spec, g: &Graph, conn: u64, i: u64) -> LookupRequest {
    let r = mix2(mix2(spec.seed, conn), i);
    let pick = r >> 3;
    match r % 8 {
        0..=4 => {
            let (u, v) = g.edge(pick % g.num_edges());
            // Exercise both endpoint orders.
            if r & 8 == 0 {
                LookupRequest::LookupEdge { u, v }
            } else {
                LookupRequest::LookupEdge { u: v, v: u }
            }
        }
        5 => LookupRequest::ReplicaSet { v: pick % g.num_vertices() },
        6 => LookupRequest::PartStats { part: (pick % (spec.parts as u64 + 1)) as PartitionId },
        // Vertices beyond |V| never appear in the graph: a guaranteed
        // miss, answered `None` by index and server alike.
        _ => LookupRequest::LookupEdge { u: g.num_vertices() + pick, v: pick },
    }
}

/// Drive one connection: `n` pipelined lookups, each response compared
/// byte-for-byte with the offline answer. Returns the per-request
/// latencies in microseconds.
fn drive_conn(
    addr: &str,
    spec: &Spec,
    n: u64,
    g: &Graph,
    offline: &AssignmentService,
    conn: u64,
) -> Result<Vec<f64>, String> {
    let mut client = WireClient::<LookupRequest, LookupResponse>::connect(addr)
        .map_err(|e| format!("conn {conn}: {e}"))?;
    let mut latencies = Vec::with_capacity(n as usize);
    let mut inflight: VecDeque<(u32, Instant, Vec<u8>)> = VecDeque::with_capacity(WINDOW);
    let settle = |client: &mut WireClient<LookupRequest, LookupResponse>,
                  inflight: &mut VecDeque<(u32, Instant, Vec<u8>)>,
                  latencies: &mut Vec<f64>|
     -> Result<(), String> {
        let (want_seq, sent_at, expected) = inflight.pop_front().expect("inflight nonempty");
        let (seq, resp) = client.recv().map_err(|e| format!("conn {conn}: {e}"))?;
        if seq != want_seq {
            return Err(format!("conn {conn}: response seq {seq}, expected {want_seq}"));
        }
        let got = resp.to_wire();
        if got != expected {
            return Err(format!(
                "conn {conn}: response for seq {seq} diverges from the offline answer\n  \
                 got:      {got:?}\n  expected: {expected:?}"
            ));
        }
        latencies.push(sent_at.elapsed().as_secs_f64() * 1e6);
        Ok(())
    };
    for i in 0..n {
        let req = request(spec, g, conn, i);
        let expected = offline.answer(&req).to_wire();
        let seq = client.send(&req).map_err(|e| format!("conn {conn}: {e}"))?;
        inflight.push_back((seq, Instant::now(), expected));
        if inflight.len() >= WINDOW {
            settle(&mut client, &mut inflight, &mut latencies)?;
        }
    }
    while !inflight.is_empty() {
        settle(&mut client, &mut inflight, &mut latencies)?;
    }
    Ok(latencies)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i]
}

/// Bench an already-listening server at `addr` and verify every byte.
/// Returns the aggregate lookups/s.
fn bench(addr: &str, spec: Spec, lookups_per_conn: u64) -> Result<f64, String> {
    let conns = conns_from_env();
    eprintln!(
        "[dne-client: building the offline reference (scale {}, {} parts)…]",
        spec.scale, spec.parts
    );
    let g = spec.graph();
    let (assignment, _) = spec.partitioner().partition_with_stats(&g, spec.parts);
    let fingerprint = assignment.fingerprint();
    let offline =
        AssignmentService::new(ShardedAssignmentIndex::build(&g, &assignment, shards_from_env()));

    // The server must serve the exact assignment we computed offline.
    let mut probe = WireClient::<LookupRequest, LookupResponse>::connect(addr)
        .map_err(|e| format!("probe: {e}"))?;
    match probe.call(&LookupRequest::Fingerprint).map_err(|e| format!("probe: {e}"))? {
        LookupResponse::Fingerprint { fingerprint: served, num_partitions, num_edges } => {
            if served != fingerprint || num_partitions != spec.parts || num_edges != g.num_edges() {
                return Err(format!(
                    "server at {addr} serves a different partition: fingerprint {served:016x} \
                     ({num_partitions} parts, {num_edges} edges), offline {fingerprint:016x} \
                     ({} parts, {} edges)",
                    spec.parts,
                    g.num_edges()
                ));
            }
        }
        other => return Err(format!("probe: unexpected fingerprint response {other:?}")),
    }
    drop(probe);

    eprintln!("[dne-client: {conns} connections × {lookups_per_conn} lookups, window {WINDOW}]");
    let started = Instant::now();
    let mut all: Vec<f64> = Vec::new();
    let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (g, offline, spec) = (&g, &offline, &spec);
                s.spawn(move || drive_conn(addr, spec, lookups_per_conn, g, offline, c as u64))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let elapsed = started.elapsed();
    for r in results {
        all.extend(r?);
    }
    all.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let total = all.len() as f64;
    let qps = total / elapsed.as_secs_f64();

    let mut table = Table::new(&[
        "SCALE", "DEGREE", "SEED", "PARTS", "CONNS", "LOOKUPS", "P50_US", "P99_US", "QPS", "FPRINT",
    ]);
    table.row(vec![
        spec.scale.to_string(),
        spec.degree.to_string(),
        spec.seed.to_string(),
        spec.parts.to_string(),
        conns.to_string(),
        (total as u64).to_string(),
        format!("{:.1}", percentile(&all, 0.50)),
        format!("{:.1}", percentile(&all, 0.99)),
        format!("{qps:.0}"),
        format!("{fingerprint:016x}"),
    ]);
    table.print();
    table.save("lookup_service");
    println!(
        "OK: {} lookups over {conns} connections, every response byte-identical to the \
         offline assignment ({qps:.0} lookups/s)",
        total as u64
    );
    Ok(qps)
}

/// Default mode: spawn a sibling `dne-server`, bench it, shut it down.
fn launch_and_bench(spec: Spec, lookups_per_conn: u64) -> Result<(), String> {
    let mut fleet = Fleet::new();
    let mut server = Command::new(harness::sibling_exe("dne-server")?);
    server.arg("serve").args(spec.args()).arg(spec.parts.to_string());
    let mut announced = fleet.spawn_piped("dne-server", &mut server)?;
    let addr = announced.wait_for(ADDR_TAG)?;
    let served_fprint = announced.wait_for(FPRINT_TAG)?;
    eprintln!("[dne-client: server at {addr}, fingerprint {served_fprint}]");

    // If the sibling server died underneath the bench, that is the root
    // cause — name it next to the connection-level symptom (which itself
    // names the in-flight request sequence window).
    let qps = bench(&addr, spec, lookups_per_conn).map_err(|e| match fleet.exited() {
        Some(died) => format!("{e}\n  ({died} mid-run)"),
        None => e,
    })?;

    // Graceful teardown: ask the server to stop, then reap it.
    let mut c = WireClient::<LookupRequest, LookupResponse>::connect(addr.as_str())
        .map_err(|e| format!("shutdown: {e}"))?;
    match c.call(&LookupRequest::Shutdown).map_err(|e| format!("shutdown: {e}"))? {
        LookupResponse::ShuttingDown => {}
        other => return Err(format!("shutdown: unexpected response {other:?}")),
    }
    fleet.reap_all()?;
    if qps <= 0.0 {
        return Err("zero lookup throughput".into());
    }
    Ok(())
}

const USAGE: &str = "usage: dne-client [quick|full]\n\
     \x20      dne-client bench <addr> <scale> <degree> <seed> <parts> [lookups-per-conn]";

fn run(args: &[String]) -> Result<(), Failure> {
    if args.get(1).map(String::as_str) == Some("bench") {
        let addr: String = arg(args, 2, "addr")?;
        let spec = Spec::parse(args, 3, arg(args, 6, "parts")?)?;
        let mut lookups_per_conn = preset(Mode::Quick).1;
        if args.len() > 7 {
            lookups_per_conn = arg(args, 7, "lookups-per-conn")?;
        }
        bench(&addr, spec, lookups_per_conn)?;
    } else {
        let (spec, lookups_per_conn) = preset(Mode::parse(args, 1)?);
        launch_and_bench(spec, lookups_per_conn)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    harness::main("dne-client", USAGE, run)
}
