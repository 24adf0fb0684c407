//! The four workloads and the one pipeline cycle they all run.
//!
//! Every workload drives the whole pipeline — generate, (materialise,)
//! partition, measure quality, build the lookup index, serve verified
//! lookups — because every end-to-end metric is reported on every
//! workload. They differ in which stage carries the time: the graph, the
//! partition count, the transport and storage under the partitioner, and
//! how many lookups a cycle serves.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dne_bench::lookup::{AssignmentService, LookupRequest, LookupResponse};
use dne_core::{theory, DistributedNe, NeConfig, NeStats};
use dne_graph::gen::{rmat, road_grid, RmatConfig};
use dne_graph::hash::{mix2, SplitMix64};
use dne_graph::{io, Graph, StorageKind};
use dne_partition::{EdgeAssignment, PartitionQuality, ShardedAssignmentIndex};
use dne_runtime::{
    BatchConfig, CollectiveTopology, ServiceStats, TransportKind, WireClient, WireServer,
};

use crate::stats::percentile;
use crate::sys::timed;
use crate::trace::Tracer;

/// Shards of the served index (the `dne-server` default).
pub const INDEX_SHARDS: usize = 8;
/// Requests the pipelined client keeps in flight.
pub const WINDOW: usize = 64;
/// Edges per frame of a materialised chunk file.
pub const CHUNK_EDGES: usize = 4096;
/// How far above `α` a verified edge balance may sit: an expansion's last
/// allocation can overshoot the capacity `α·|E|/|P|` (the repository's own
/// validity tests allow 1.35 at `α = 1.1` for the same reason).
pub const BALANCE_SLACK: f64 = 0.05;
/// Collective topology of every workload: the reference one.
pub const TOPOLOGY: CollectiveTopology = CollectiveTopology::Flat;

/// One workload: a seeded input and the configuration it is run under.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Seeded generator of the input graph.
    pub generate: fn(u64) -> Graph,
    /// Partitions, i.e. simulated machines.
    pub parts: u32,
    /// Transport under the partitioner.
    pub transport: TransportKind,
    /// Storage backend the partitioner reads the graph through.
    pub storage: StorageKind,
    /// Partitioner seeds one run averages over (see [`Workload::sub_seed`]).
    pub sub_seeds: usize,
    /// Lookups one cycle serves with [`WINDOW`] requests in flight.
    pub window_requests: usize,
    /// Lookups one cycle serves one at a time.
    pub rtt_requests: usize,
}

/// The benchmark's workloads; `BENCHMARK.json` records why each was chosen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "skew_default",
        generate: |seed| rmat(&RmatConfig::web(17, 16, seed)),
        parts: 8,
        transport: TransportKind::Loopback,
        storage: StorageKind::InMemory,
        sub_seeds: 8,
        window_requests: 20_000,
        rtt_requests: 2_000,
    },
    Workload {
        name: "wide_tcp",
        generate: |seed| rmat(&RmatConfig::social(13, 16, seed)),
        parts: 16,
        transport: TransportKind::Tcp,
        storage: StorageKind::InMemory,
        sub_seeds: 16,
        window_requests: 20_000,
        rtt_requests: 2_000,
    },
    Workload {
        name: "road_streamed",
        generate: |seed| road_grid(300, 300, 0.72, 0.02, seed),
        parts: 4,
        transport: TransportKind::Bytes,
        storage: StorageKind::ChunkStreamed,
        sub_seeds: 16,
        window_requests: 20_000,
        rtt_requests: 2_000,
    },
    Workload {
        name: "serve_lookup",
        generate: |seed| rmat(&RmatConfig::graph500(16, 16, seed)),
        parts: 8,
        transport: TransportKind::Loopback,
        storage: StorageKind::InMemory,
        sub_seeds: 8,
        window_requests: 100_000,
        rtt_requests: 5_000,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `j`-th partitioner seed of a run seeded `seed`. Rounds, quality
    /// and time of one partition swing by tens of percent with the
    /// partitioner's seed (its random start vertices), far more than with
    /// the graph's; a run therefore partitions under `sub_seeds` seeds and
    /// reports the mean, which is what stays put from one `--seed` to the next.
    pub fn sub_seed(seed: u64, j: usize) -> u64 {
        mix2(seed, j as u64)
    }

    /// The partitioner configuration, every knob set through its builder so
    /// that no `DNE_*` variable is ever consulted.
    pub fn ne_config(&self, ne_seed: u64) -> NeConfig {
        NeConfig::default()
            .with_seed(ne_seed)
            .with_transport(self.transport)
            .with_collectives(TOPOLOGY)
            .with_comm_batch(BatchConfig::disabled())
    }
}

/// What set-up hands to the measuring loop.
pub struct Input {
    /// The graph, on the workload's storage backend.
    pub graph: Graph,
    /// Requests served with a window of [`WINDOW`].
    pub window_requests: Vec<LookupRequest>,
    /// Requests served one at a time.
    pub rtt_requests: Vec<LookupRequest>,
    /// CPU seconds the generator took (`graph.gen_cpu_s`).
    pub gen_cpu_s: f64,
    /// The chunk file behind an out-of-core `graph`, removed with the input.
    _file: Option<TempFile>,
}

/// A chunk file a set-up or probe materialises under `out/`, removed on
/// drop. The name starts with the owning process id, so that the parent can
/// sweep up after a child it had to kill.
pub struct TempFile(pub PathBuf);

impl TempFile {
    /// A file for `role` (`"input"`, `"probe"`) of this process.
    pub fn new(out_dir: &Path, role: &str) -> Self {
        Self(out_dir.join(format!("{}.{role}.chunks", std::process::id())))
    }

    /// Remove whatever chunk files process `pid` left in `out_dir`.
    pub fn sweep(out_dir: &Path, pid: u32) {
        let prefix = format!("{pid}.");
        for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && name.ends_with(".chunks") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// 70 % edge hits, 10 % edge misses, 15 % replica sets, 5 % partition stats,
/// drawn from `rng` over the in-memory graph `g`.
fn requests(g: &Graph, parts: u32, n: usize, rng: &mut SplitMix64) -> Vec<LookupRequest> {
    (0..n)
        .map(|_| match rng.next_below(100) {
            0..=69 => {
                let (u, v) = g.edge(rng.next_below(g.num_edges()));
                // Both endpoint orders reach the same index entry.
                if rng.next_below(2) == 0 {
                    LookupRequest::LookupEdge { u, v }
                } else {
                    LookupRequest::LookupEdge { u: v, v: u }
                }
            }
            // Vertices beyond |V| touch no edge: a guaranteed miss.
            70..=79 => LookupRequest::LookupEdge {
                u: g.num_vertices() + rng.next_below(1 << 20),
                v: rng.next_below(g.num_vertices()),
            },
            80..=94 => LookupRequest::ReplicaSet { v: rng.next_below(g.num_vertices()) },
            _ => LookupRequest::PartStats { part: rng.next_below(parts as u64 + 1) as u32 },
        })
        .collect()
}

/// Make the workload's inputs from `seed`: the graph (written to and
/// reopened from `out_dir` when the workload's storage is out of core) and
/// both request streams.
pub fn set_up(
    w: &Workload,
    seed: u64,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Input> {
    let (generated, gen_cpu_s, _) = tracer.span("graph.gen", |_| timed(|| (w.generate)(seed)));
    let mut rng = SplitMix64::new(seed ^ 0x4C4F_4F4B_5550_5321); // "LOOKUPS!"
    let window_requests = requests(&generated, w.parts, w.window_requests, &mut rng);
    let rtt_requests = requests(&generated, w.parts, w.rtt_requests, &mut rng);
    let (graph, _file) = match w.storage {
        StorageKind::InMemory => (generated, None),
        kind => {
            let file = TempFile::new(out_dir, "input");
            let graph = materialise(&generated, &file.0, kind, tracer)?;
            (graph, Some(file))
        }
    };
    Ok(Input { graph, window_requests, rtt_requests, gen_cpu_s, _file })
}

/// Write `g` as a chunk file at `path` and reopen it on `kind`.
pub fn materialise(
    g: &Graph,
    path: &Path,
    kind: StorageKind,
    tracer: &mut Tracer,
) -> std::io::Result<Graph> {
    tracer.span("graph.open", |_| {
        io::write_chunked(g, path, CHUNK_EDGES)?;
        io::open_chunked_with(path, kind)
    })
}

/// Everything one cycle measured.
pub struct Cycle {
    /// CPU seconds of `partition_with_stats`.
    pub partition_cpu_s: f64,
    /// Wall seconds of the same call.
    pub partition_wall_s: f64,
    /// The run statistics it returned.
    pub stats: NeStats,
    /// Replication factor of the assignment.
    pub replication_factor: f64,
    /// Edge balance of the assignment.
    pub edge_balance: f64,
    /// CPU seconds of `PartitionQuality::measure`.
    pub quality_cpu_s: f64,
    /// CPU seconds of `ShardedAssignmentIndex::build`.
    pub index_build_cpu_s: f64,
    /// Process CPU seconds (client and server thread) of the windowed phase.
    pub window_cpu_s: f64,
    /// 99th-percentile request latency of the windowed phase, µs.
    pub window_p99_us: f64,
    /// Median round trip of the one-at-a-time phase, µs.
    pub rtt_p50_us: f64,
    /// 99th-percentile round trip of the one-at-a-time phase, µs.
    pub rtt_p99_us: f64,
    /// The server's own counters.
    pub service: ServiceStats,
    /// Operations attempted: one partition, one index build, every lookup.
    pub attempted: u64,
    /// Operations whose output failed verification.
    pub failed: u64,
}

/// One pipeline cycle over `input` under partitioner seed `ne_seed`; also
/// hands back the assignment it made. `fingerprint` carries the assignment
/// fingerprint of earlier cycles under the same seed, which this one must
/// reproduce. Verification failures are counted, not fatal; a transport
/// error (the server or a socket died) is.
pub fn cycle(
    w: &Workload,
    ne_seed: u64,
    input: &Input,
    fingerprint: &mut Option<u64>,
    tracer: &mut Tracer,
) -> Result<(Cycle, EdgeAssignment), String> {
    let g = &input.graph;
    let config = w.ne_config(ne_seed);
    let alpha = config.alpha;
    let ne = DistributedNe::new(config);

    let ((assignment, stats), partition_cpu_s, partition_wall_s) =
        tracer.span("core.partition", |t| {
            let out = timed(|| ne.partition_with_stats(g, w.parts));
            let stats = &out.0 .1;
            t.count("rounds", stats.iterations as f64);
            t.count("frames", stats.comm_frames as f64);
            t.count("bytes", stats.comm_bytes as f64);
            t.count("rounds_s", stats.elapsed.as_secs_f64());
            out
        });
    let (quality, quality_cpu_s, _) =
        tracer.span("quality.measure", |_| timed(|| PartitionQuality::measure(g, &assignment)));
    let made = assignment.fingerprint();
    let partition_ok = assignment.is_valid_for(g)
        && *fingerprint.get_or_insert(made) == made
        && quality.edge_balance <= alpha + BALANCE_SLACK
        && quality.replication_factor
            <= theory::upper_bound(g.num_edges(), g.num_vertices(), w.parts as u64)
        && assignment.edge_counts().iter().sum::<u64>() == g.num_edges();

    let (index, index_build_cpu_s, _) = tracer.span("index.build", |_| {
        timed(|| ShardedAssignmentIndex::build(g, &assignment, INDEX_SHARDS))
    });
    let index_ok = index.fingerprint() == made && index.num_edges() == g.num_edges();
    let service = AssignmentService::new(index);
    // The offline answers every served response is compared with.
    let reference = Reference {
        window: input.window_requests.iter().map(|r| service.answer(r)).collect(),
        rtt: input.rtt_requests.iter().map(|r| service.answer(r)).collect(),
    };

    let served = tracer.span("service.serve", |t| serve(input, &reference, service, t))?;
    let lookups = (input.window_requests.len() + input.rtt_requests.len()) as u64;
    // The server also handled the shutdown request.
    let service_ok = served.stats.requests == lookups + 1 && served.stats.protocol_errors == 0;
    let measured = Cycle {
        partition_cpu_s,
        partition_wall_s,
        stats,
        replication_factor: quality.replication_factor,
        edge_balance: quality.edge_balance,
        quality_cpu_s,
        index_build_cpu_s,
        window_cpu_s: served.window_cpu_s,
        window_p99_us: percentile(&served.window_latency_us, 0.99),
        rtt_p50_us: percentile(&served.rtt_latency_us, 0.5),
        rtt_p99_us: percentile(&served.rtt_latency_us, 0.99),
        service: served.stats,
        attempted: 2 + lookups,
        failed: u64::from(!partition_ok) + u64::from(!index_ok) + {
            // A miscounting server voids every lookup of the cycle.
            if service_ok {
                served.mismatches
            } else {
                lookups
            }
        },
    };
    Ok((measured, assignment))
}

struct Reference {
    window: Vec<LookupResponse>,
    rtt: Vec<LookupResponse>,
}

struct Served {
    window_cpu_s: f64,
    window_latency_us: Vec<f64>,
    rtt_latency_us: Vec<f64>,
    mismatches: u64,
    stats: ServiceStats,
}

/// Serve both request streams from an in-process `WireServer` thread to one
/// `WireClient`, comparing every response with the reference.
fn serve(
    input: &Input,
    reference: &Reference,
    mut service: AssignmentService,
    tracer: &mut Tracer,
) -> Result<Served, String> {
    let loopback = "127.0.0.1:0".parse().expect("a literal socket address");
    let server = WireServer::bind(&loopback).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let start = Instant::now();
            (server.serve(&mut service), start, Instant::now())
        });
        let driven = drive(input, reference, addr, tracer);
        if driven.is_err() {
            // The server only stops when asked to; without this a client-side
            // failure would leave the scope waiting on it forever.
            let _ = Client::connect(addr).and_then(|mut c| c.call(&LookupRequest::Shutdown));
        }
        let (stats, start, end) = handle.join().map_err(|_| "the server thread panicked")?;
        tracer.record("service.server_thread", start, end);
        let mut served = driven?;
        served.stats = stats.map_err(|e| e.to_string())?;
        Ok(served)
    })
}

type Client = WireClient<LookupRequest, LookupResponse>;

/// The client side of [`serve`]: the windowed stream, the one-at-a-time
/// stream, then the shutdown request.
fn drive(
    input: &Input,
    reference: &Reference,
    addr: std::net::SocketAddr,
    tracer: &mut Tracer,
) -> Result<Served, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut mismatches = 0u64;

    let mut window_latency_us = Vec::with_capacity(input.window_requests.len());
    let (sent, window_cpu_s, _) = tracer.span("lookup.window", |t| {
        t.count("requests", input.window_requests.len() as f64);
        timed(|| -> Result<(), String> {
            let mut in_flight: VecDeque<(u32, usize, Instant)> = VecDeque::with_capacity(WINDOW);
            let mut settle = |client: &mut Client,
                              in_flight: &mut VecDeque<(u32, usize, Instant)>|
             -> Result<(), String> {
                let (sent_seq, i, sent_at) = in_flight.pop_front().expect("a request in flight");
                let (seq, response) = client.recv().map_err(|e| e.to_string())?;
                window_latency_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                mismatches += u64::from(seq != sent_seq || response != reference.window[i]);
                Ok(())
            };
            for (i, request) in input.window_requests.iter().enumerate() {
                let seq = client.send(request).map_err(|e| e.to_string())?;
                in_flight.push_back((seq, i, Instant::now()));
                if in_flight.len() >= WINDOW {
                    settle(&mut client, &mut in_flight)?;
                }
            }
            while !in_flight.is_empty() {
                settle(&mut client, &mut in_flight)?;
            }
            Ok(())
        })
    });
    sent?;

    let mut rtt_latency_us = Vec::with_capacity(input.rtt_requests.len());
    tracer.span("lookup.round_trip", |t| -> Result<(), String> {
        t.count("requests", input.rtt_requests.len() as f64);
        for (request, expected) in input.rtt_requests.iter().zip(&reference.rtt) {
            let sent_at = Instant::now();
            let response = client.call(request).map_err(|e| e.to_string())?;
            rtt_latency_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
            mismatches += u64::from(response != *expected);
        }
        Ok(())
    })?;

    let bye = client.call(&LookupRequest::Shutdown).map_err(|e| e.to_string())?;
    mismatches += u64::from(bye != LookupResponse::ShuttingDown);
    let stats = ServiceStats::default();
    Ok(Served { window_cpu_s, window_latency_us, rtt_latency_us, mismatches, stats })
}
