//! Per-layer probes of the traced pass: each times one layer's `pub` entry
//! points from the harness, at the workload's own sizes (its graph, its
//! partition count, its transport, its mean message size), so that a later
//! change to that layer can be sized before it is written.

use std::hint::black_box;
use std::path::Path;

use dne_bench::lookup::{AssignmentService, LookupRequest, LookupResponse};
use dne_core::dist::Grid2D;
use dne_core::{NeMsg, NeStats};
use dne_graph::hash::SplitMix64;
use dne_partition::{EdgeAssignment, ShardedAssignmentIndex};
use dne_runtime::{
    BatchConfig, Cluster, CollectiveTopology, Ctx, TransportKind, WireDecode, WireEncode, WireSize,
};

use crate::stats::{median, TimeBox};
use crate::sys::{process_cpu_seconds, timed};
use crate::trace::Tracer;
use crate::workload::{materialise, Input, TempFile, Workload, INDEX_SHARDS, TOPOLOGY};

/// Lock-step rounds one repetition of a transport or collective probe runs
/// (and passes over the corpus one repetition of a codec probe makes). The
/// time box repeats cheap configurations several times; 16 ranks over TCP,
/// at 2 ms a round, get the one repetition every probe is owed.
const ROUNDS: usize = 1000;
/// Messages of each `NeMsg` variant in the codec corpus.
const CORPUS_PER_VARIANT: usize = 64;

/// Median of `f`'s value over as many repetitions as `time_box` allows.
fn sampled(time_box: TimeBox, mut f: impl FnMut() -> f64) -> f64 {
    let mut values = Vec::new();
    time_box.run(|_| values.push(f()));
    median(&values)
}

/// Process CPU microseconds per lock-step round of `round`, run `ROUNDS`
/// times between two barriers on a `nprocs`-rank cluster. Rank 0 reads the
/// clock, so fabric set-up and thread start are outside the measurement.
fn lockstep_us(
    nprocs: u32,
    transport: TransportKind,
    topology: CollectiveTopology,
    round: impl Fn(&mut Ctx<NeMsg>) + Sync,
) -> f64 {
    let outcome = Cluster::with_transport(nprocs as usize, transport)
        .with_collectives(topology)
        .with_comm_batch(BatchConfig::disabled())
        .run::<NeMsg, f64, _>(|ctx| {
            ctx.barrier();
            let start = process_cpu_seconds();
            for _ in 0..ROUNDS {
                round(ctx);
            }
            ctx.barrier();
            process_cpu_seconds() - start
        });
    outcome.results[0] * 1e6 / ROUNDS as f64
}

/// A `Select` whose encoding is as close to `bytes` as the format allows.
fn select_of_size(bytes: f64, rng: &mut SplitMix64) -> NeMsg {
    let overhead = NeMsg::empty_select().wire_bytes() as f64;
    let n = ((bytes - overhead) / 8.0).max(0.0).round() as usize;
    NeMsg::Select { vertices: (0..n).map(|_| rng.next_u64() >> 20).collect(), random_budget: 0 }
}

/// A seeded corpus of all three message kinds whose sizes straddle
/// `mean_bytes`, the workload's measured mean message size.
fn codec_corpus(mean_bytes: f64, seed: u64) -> Vec<NeMsg> {
    let mut rng = SplitMix64::new(seed ^ 0x434F_4445_435F_4D53); // "CODEC_MS"
    let mut corpus = Vec::with_capacity(3 * CORPUS_PER_VARIANT);
    for _ in 0..CORPUS_PER_VARIANT {
        let bytes = 2.0 * mean_bytes * rng.next_f64();
        corpus.push(select_of_size(bytes, &mut rng));
        let pairs = (bytes / 12.0) as usize;
        corpus.push(NeMsg::Sync {
            pairs: (0..pairs).map(|_| (rng.next_u64() >> 20, rng.next_below(64) as u32)).collect(),
        });
        let each = (bytes / 24.0) as usize;
        corpus.push(NeMsg::Result {
            boundary: (0..each).map(|_| (rng.next_u64() >> 20, rng.next_below(1 << 16))).collect(),
            edges: (0..each).map(|_| rng.next_u64() >> 20).collect(),
            free_edges: rng.next_u64() >> 20,
        });
    }
    corpus
}

/// Run every probe, `slice_s` seconds each at most (one repetition at
/// least), and return `(metric name, value)` pairs. Message sizes and the
/// probed index come from the last cycle's statistics and assignment.
pub fn run(
    w: &Workload,
    seed: u64,
    input: &Input,
    (stats, assignment): &(NeStats, EdgeAssignment),
    out_dir: &Path,
    slice_s: f64,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<(String, f64)>> {
    let time_box = TimeBox { min_reps: 1, budget_s: slice_s };
    let g = &input.graph;
    let medges = g.num_edges() as f64 / 1e6;
    let mut out: Vec<(String, f64)> = Vec::new();

    tracer.span("probe.graph", |t| -> std::io::Result<()> {
        let file = TempFile::new(out_dir, "probe");
        // A failing disk fails every repetition: the last outcome tells.
        let mut outcome = Ok(());
        let open = sampled(time_box, || {
            let (opened, cpu, _) = timed(|| materialise(g, &file.0, w.storage, t));
            outcome = opened.map(drop);
            cpu
        });
        outcome?;
        out.push(("graph.open_cpu_s".into(), open));
        let scan = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                g.for_each_edge(|e, u, v| {
                    black_box((e, u, v));
                })
            });
            medges / cpu
        });
        out.push(("graph.scan_medges_per_s".into(), scan));
        out.push(("graph.resident_mb".into(), g.resident_bytes() as f64 / 1e6));
        Ok(())
    })?;

    tracer.span("probe.dist", |_| {
        let grid = Grid2D::new(w.parts, seed);
        let bucket = sampled(time_box, || {
            let mut sizes = vec![0u64; w.parts as usize];
            let ((), cpu, _) =
                timed(|| g.for_each_edge(|_, u, v| sizes[grid.owner(u, v) as usize] += 1));
            black_box(sizes);
            medges / cpu
        });
        out.push(("dist.bucket_medges_per_s".into(), bucket));
    });

    let mean_bytes = stats.comm_bytes as f64 / stats.comm_msgs as f64;
    tracer.span("probe.transport", |t| {
        let message = select_of_size(mean_bytes, &mut SplitMix64::new(seed));
        t.count("message_bytes", message.wire_bytes() as f64);
        for kind in TransportKind::ALL {
            let us = sampled(time_box, || {
                lockstep_us(w.parts, kind, TOPOLOGY, |ctx| {
                    black_box(ctx.exchange(|_| message.clone()));
                })
            });
            out.push((format!("transport.exchange_us.{kind}"), us));
        }
    });

    tracer.span("probe.collectives", |_| {
        for topology in CollectiveTopology::ALL {
            let us = sampled(time_box, || {
                lockstep_us(w.parts, w.transport, topology, |ctx| {
                    black_box(ctx.all_gather_u64(ctx.rank() as u64));
                })
            });
            out.push((format!("collectives.all_gather_us.{topology}"), us));
        }
    });

    tracer.span("probe.wire", |t| {
        let corpus = codec_corpus(mean_bytes, seed);
        let encoded: Vec<Vec<u8>> = corpus.iter().map(WireEncode::to_wire).collect();
        let megabytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        t.count("corpus_bytes", megabytes * 1e6);
        let mut buf = Vec::new();
        let encode = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                for _ in 0..ROUNDS {
                    for msg in &corpus {
                        buf.clear();
                        msg.encode(&mut buf);
                        black_box(&buf);
                    }
                }
            });
            megabytes * ROUNDS as f64 / cpu
        });
        out.push(("wire.encode_mb_per_s".into(), encode));
        let decode = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                for _ in 0..ROUNDS {
                    for bytes in &encoded {
                        black_box(NeMsg::from_wire(bytes).expect("the corpus decodes"));
                    }
                }
            });
            megabytes * ROUNDS as f64 / cpu
        });
        out.push(("wire.decode_mb_per_s".into(), decode));
    });

    tracer.span("probe.index", |_| {
        let service =
            AssignmentService::new(ShardedAssignmentIndex::build(g, assignment, INDEX_SHARDS));
        let index = service.index();
        let requests = &input.window_requests;
        let edges: Vec<(u64, u64)> = requests
            .iter()
            .filter_map(|r| match *r {
                LookupRequest::LookupEdge { u, v } => Some((u, v)),
                _ => None,
            })
            .collect();
        let mops = |ops: usize, cpu: f64| ops as f64 / cpu / 1e6;
        let owner_of = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                edges.iter().for_each(|&(u, v)| {
                    black_box(index.owner_of(u, v));
                })
            });
            mops(edges.len(), cpu)
        });
        out.push(("index.owner_of_mops".into(), owner_of));
        let replica_set = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                edges.iter().for_each(|&(u, _)| {
                    black_box(index.replica_set(u));
                })
            });
            mops(edges.len(), cpu)
        });
        out.push(("index.replica_set_mops".into(), replica_set));

        let answer = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                requests.iter().for_each(|r| {
                    black_box(service.answer(r));
                })
            });
            mops(requests.len(), cpu)
        });
        out.push(("lookup.answer_mops".into(), answer));
        let responses: Vec<LookupResponse> = requests.iter().map(|r| service.answer(r)).collect();
        let codec = sampled(time_box, || {
            let ((), cpu, _) = timed(|| {
                for (request, response) in requests.iter().zip(&responses) {
                    black_box(
                        LookupRequest::from_wire(&request.to_wire()).expect("requests decode"),
                    );
                    black_box(
                        LookupResponse::from_wire(&response.to_wire()).expect("responses decode"),
                    );
                }
            });
            mops(requests.len(), cpu)
        });
        out.push(("lookup.codec_mops".into(), codec));
    });
    Ok(out)
}
