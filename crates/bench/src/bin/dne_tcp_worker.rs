//! `dne-tcp-worker` — run Distributed NE across *real OS processes* over
//! the TCP transport, and prove the result identical to the in-process
//! backends.
//!
//! Every process builds the same RMAT graph deterministically from the
//! generator spec, connects a `TcpProcessCluster` session (rank 0 hosts
//! the rendezvous, the others dial it), runs its rank via
//! `DistributedNe::run_rank`, then aggregates the non-timing metrics with
//! post-run collectives (charged *after* the accounting snapshot, so the
//! reported `COMM_*` columns cover exactly the algorithm's traffic).
//!
//! Modes:
//!
//! ```text
//! dne-tcp-worker [quick|full]                    # compare (default; used by `dne-bench all`)
//! dne-tcp-worker compare [quick|full]            # loopback vs bytes vs multi-process tcp
//! dne-tcp-worker recover                         # kill a rank mid-run, restart and migrate
//! dne-tcp-worker launch <nprocs> <scale> <degree> <seed>
//! dne-tcp-worker reference <transport> <nprocs> <scale> <degree> <seed>
//! dne-tcp-worker worker <rank> <nprocs> <addr> <scale> <degree> <seed> [--rejoin]
//! ```
//!
//! `compare` runs the loopback and bytes references in-process, launches
//! a real `<nprocs>`-process TCP partition of the same graph, prints all
//! three rows, writes `bench_results/tcp_compare.tsv`, and exits non-zero
//! unless every non-timing column (iterations, comm bytes/messages, RF,
//! EB, assignment fingerprint) is identical.
//!
//! `worker` additionally accepts `--bind <addr>` anywhere on the command
//! line: the local address this rank binds its mesh listener to (the
//! rendezvous itself listens at `<addr>`). The default binds loopback;
//! on a real cluster pass the NIC address (e.g. `--bind 10.0.0.7:0`) —
//! the rendezvous roster carries each rank's advertised `ip:port`, so
//! peers across machines dial the right interface.
//!
//! With `DNE_CHECKPOINT_EVERY` set, workers are *elastic*: a rank that
//! dies mid-run is detected by its peers as a broken socket, the
//! survivors re-rendezvous under the next bootstrap epoch, and the job
//! resumes from the newest commonly checkpointed round once the dead
//! rank is relaunched with `--rejoin` (same arguments plus the flag).
//! The resumed run's result row is bit-identical to an uninterrupted
//! run's in every column except the comm/timing ones (replayed rounds
//! re-send their traffic).
//!
//! `recover` drives that end-to-end: it launches the quick job with
//! per-round checkpointing (`DNE_CHECKPOINT_EVERY=1`) and an injected
//! crash on rank 1 (`DNE_FAULT_ROUND=2`: it panics at the end of round 2,
//! after writing that round's checkpoint — its peers find out through the
//! broken sockets, exactly like a SIGKILL). Then:
//!
//! * **Restart path** — rank 1 is relaunched with `--rejoin`; the finished
//!   job's iterations, RF, EB and assignment fingerprint must be
//!   **bit-identical** to an uninterrupted in-process run.
//! * **Migration path** — treating rank 1 as permanently dead instead,
//!   [`migrate_dead_rank`] evacuates its partition onto the survivors
//!   straight from the checkpoint directory. Every edge must end up on a
//!   survivor and the migrated replication factor must stay within 10%
//!   of the uninterrupted run's.
//!
//! A manual 4-process run on localhost (any fixed port works):
//!
//! ```text
//! dne-tcp-worker worker 0 4 127.0.0.1:7571 9 8 42   # prints DNE_TCP_ADDR, then the row
//! dne-tcp-worker worker 1 4 127.0.0.1:7571 9 8 42   # three more shells / machines
//! dne-tcp-worker worker 2 4 127.0.0.1:7571 9 8 42
//! dne-tcp-worker worker 3 4 127.0.0.1:7571 9 8 42
//! ```

use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dne_bench::fleet::{Fleet, TaggedLines};
use dne_bench::harness::{self, arg, Failure, Mode, Spec};
use dne_bench::table::Table;
use dne_core::{migrate_dead_rank, CheckpointPolicy, DistributedNe, NeConfig};
use dne_graph::{EdgeId, Graph};
use dne_partition::quality::balance;
use dne_partition::{combine_fingerprints, edge_set_fingerprint};
use dne_runtime::{TcpProcessCluster, TransportKind};

/// Stdout marker carrying rank 0's bound rendezvous address.
pub const ADDR_TAG: &str = "DNE_TCP_ADDR";

/// Stdout marker carrying the finished run's TSV row.
pub const ROW_TAG: &str = "DNE_TCP_ROW";

/// The job `compare` and `recover` run (`Spec::parts` worker processes).
/// Quick is small enough to finish in seconds, big enough that `recover`'s
/// round-2 crash lands mid-expansion with plenty of rounds left.
fn preset(mode: Mode) -> Spec {
    match mode {
        Mode::Quick => Spec { scale: 8, degree: 4, seed: 42, parts: 4 },
        Mode::Full => Spec { scale: 10, degree: 8, seed: 42, parts: 8 },
    }
}

/// The columns of a result row. Every one except `TRANSPORT` is non-timing
/// and must be identical across backends; wall-clock goes to stderr only.
const HEADER: [&str; 11] = [
    "TRANSPORT",
    "NPROCS",
    "SCALE",
    "DEGREE",
    "SEED",
    "ITER",
    "COMM_BYTES",
    "COMM_MSGS",
    "RF",
    "EB",
    "FPRINT",
];

/// The cells of a [`ROW_TAG`] line, if there is one per [`HEADER`] column.
/// Nothing parses them further: a row from another process is only ever
/// printed and compared, cell by cell, with an in-process reference's.
fn parse_row(line: &str) -> Option<Vec<String>> {
    let cells: Vec<String> = line.split('\t').map(str::to_string).collect();
    (cells.len() == HEADER.len()).then_some(cells)
}

/// The equality key of `compare`: every column except the transport name.
fn non_timing_key(cells: &[String]) -> &[String] {
    &cells[1..]
}

/// What a recovered run must reproduce of the uninterrupted one: the
/// job, ITER, RF, EB and FPRINT — not the comm columns (replayed rounds
/// re-send their traffic).
fn result_key(cells: &[String]) -> Vec<String> {
    [&cells[1..6], &cells[8..]].concat()
}

/// Distinct endpoint count of an edge set — the partition's `|V(Ep)|`.
fn distinct_endpoints(g: &Graph, edges: &[EdgeId]) -> u64 {
    let mut verts: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for &e in edges {
        let (u, v) = g.edge(e);
        verts.push(u);
        verts.push(v);
    }
    verts.sort_unstable();
    verts.dedup();
    verts.len() as u64
}

/// Raw per-run quantities gathered identically by the reference path
/// (from the full assignment) and the worker path (via post-run
/// collectives).
struct Metrics {
    iterations: u64,
    comm_bytes: u64,
    comm_msgs: u64,
    /// Per-partition edge counts, indexed by rank.
    sizes: Vec<u64>,
    /// Total `Σ_p |V(Ep)|` across partitions.
    replicas: u64,
    /// Per-partition edge-set hashes, indexed by rank.
    fingerprints: Vec<u64>,
}

impl Metrics {
    /// Replication factor: `Σ_p |V(Ep)| / |V|`.
    fn rf(&self, g: &Graph) -> f64 {
        self.replicas as f64 / g.num_vertices() as f64
    }

    /// Fold the gathered quantities into the [`HEADER`] cells of `spec`'s
    /// result row. All arithmetic here is shared by the reference and
    /// worker paths, so the two compute byte-identical strings.
    fn cells(&self, transport: &str, spec: Spec, g: &Graph) -> Vec<String> {
        let eb = balance(&self.sizes);
        vec![
            transport.to_string(),
            spec.parts.to_string(),
            spec.scale.to_string(),
            spec.degree.to_string(),
            spec.seed.to_string(),
            self.iterations.to_string(),
            self.comm_bytes.to_string(),
            self.comm_msgs.to_string(),
            format!("{:.6}", self.rf(g)),
            format!("{eb:.6}"),
            format!("{:016x}", combine_fingerprints(&self.fingerprints)),
        ]
    }
}

/// In-process reference run of `spec`'s job (whose graph is `g`) on an
/// explicit backend.
fn reference(kind: TransportKind, spec: Spec, g: &Graph) -> Metrics {
    let ne = DistributedNe::new(NeConfig::default().with_seed(spec.seed).with_transport(kind));
    let (assignment, stats) = ne.partition_with_stats(g, spec.parts);
    let mut sizes = Vec::new();
    let mut fingerprints = Vec::new();
    let mut replicas = 0;
    for mut edges in assignment.edges_by_partition() {
        sizes.push(edges.len() as u64);
        replicas += distinct_endpoints(g, &edges);
        fingerprints.push(edge_set_fingerprint(&mut edges));
    }
    eprintln!("[reference {kind}: ET {:.3}s]", stats.elapsed.as_secs_f64());
    Metrics {
        iterations: stats.iterations,
        comm_bytes: stats.comm_bytes,
        comm_msgs: stats.comm_msgs,
        sizes,
        replicas,
        fingerprints,
    }
}

/// One rank of the real multi-process run. Rank 0 prints the rendezvous
/// address, then (once every rank finished) the result row. `bind`, when
/// given, is the local address for this rank's mesh listener.
///
/// With checkpointing enabled (`DNE_CHECKPOINT_EVERY`), a peer death
/// triggers recovery instead of failure, and a `--rejoin` worker is the
/// restarted incarnation of a dead rank — both through
/// [`DistributedNe::run_rank_recovering`].
fn worker(
    rank: usize,
    addr: &str,
    bind: Option<&str>,
    rejoin: bool,
    spec: Spec,
) -> Result<(), String> {
    let nprocs = spec.parts as usize;
    let g = spec.graph();
    let part = spec.partitioner();
    if rejoin {
        if rank == 0 {
            return Err("rank 0 owns the rendezvous and cannot --rejoin; \
                        restart the whole job instead"
                .into());
        }
        if part.config().resolved_checkpoint().is_none() {
            return Err(format!(
                "--rejoin needs checkpointing (set {})",
                CheckpointPolicy::EVERY_ENV_VAR
            ));
        }
    }
    let mut cluster = if rank == 0 {
        let host = TcpProcessCluster::host(nprocs, addr).map_err(|e| e.to_string())?;
        println!("{ADDR_TAG} {}", host.addr());
        std::io::stdout().flush().ok();
        host
    } else {
        TcpProcessCluster::join(rank, nprocs, addr).map_err(|e| e.to_string())?
    };
    if let Some(b) = bind {
        cluster = cluster.with_bind(b);
    }
    // The clock covers the bootstrap (and any recovery) as well as the run.
    let started = Instant::now();
    let (mut run, mut session) = part
        .run_rank_recovering(&mut cluster, &g, spec.parts, rejoin)
        .map_err(|e| format!("rank {rank}: transport failure during Distributed NE: {e}"))?;
    let elapsed = started.elapsed();
    // Snapshot the algorithm's accounting *before* the metric collectives
    // below add their own traffic.
    let my_bytes = session.comm.bytes_sent_by(rank);
    let my_msgs = session.comm.msgs_sent_by(rank);
    let ctx = &mut session.ctx;
    let gather = |e: dne_runtime::TransportError| format!("rank {rank}: metric gather failed: {e}");
    let metrics = Metrics {
        iterations: ctx.try_all_reduce_max_u64(run.iterations).map_err(gather)?,
        comm_bytes: ctx.try_all_reduce_sum_u64(my_bytes).map_err(gather)?,
        comm_msgs: ctx.try_all_reduce_sum_u64(my_msgs).map_err(gather)?,
        sizes: ctx.try_all_gather_u64(run.edges.len() as u64).map_err(gather)?,
        replicas: ctx.try_all_reduce_sum_u64(distinct_endpoints(&g, &run.edges)).map_err(gather)?,
        fingerprints: ctx
            .try_all_gather_u64(edge_set_fingerprint(&mut run.edges))
            .map_err(gather)?,
    };
    eprintln!("[worker rank {rank}/{nprocs}: ET {:.3}s]", elapsed.as_secs_f64());
    if rank == 0 {
        println!("{ROW_TAG}\t{}", metrics.cells("tcp", spec, &g).join("\t"));
        std::io::stdout().flush().ok();
    }
    Ok(())
}

/// The command line of one `worker` rank of `spec`'s job.
fn worker_cmd(exe: &Path, spec: Spec, rank: usize, addr: &str) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["worker", &rank.to_string(), &spec.parts.to_string(), addr]).args(spec.args());
    cmd
}

/// The cells of rank 0's result row, once every rank finished.
fn awaited_row(rank0: &mut TaggedLines) -> Result<Vec<String>, String> {
    let line = rank0.wait_for(ROW_TAG)?;
    parse_row(&line).ok_or_else(|| format!("malformed result row {line:?}"))
}

/// Spawn `spec.parts` worker processes of this same binary and collect
/// rank 0's result row.
fn launch_row(spec: Spec) -> Result<Vec<String>, String> {
    let exe = harness::own_exe()?;
    let mut fleet = Fleet::new();
    let mut rank0 = fleet.spawn_piped("rank 0", &mut worker_cmd(&exe, spec, 0, "127.0.0.1:0"))?;
    let addr = rank0.wait_for(ADDR_TAG)?;
    for rank in 1..spec.parts as usize {
        fleet.spawn(&format!("rank {rank}"), &mut worker_cmd(&exe, spec, rank, &addr))?;
    }
    let row = awaited_row(&mut rank0)?;
    fleet.reap_all()?;
    Ok(row)
}

/// The acceptance gate: loopback vs bytes (in-process) vs tcp (real
/// processes) must agree on every non-timing column.
fn compare(spec: Spec) -> Result<(), String> {
    let g = spec.graph();
    let in_process =
        |kind: TransportKind| reference(kind, spec, &g).cells(&kind.to_string(), spec, &g);
    let rows = vec![
        in_process(TransportKind::Loopback),
        in_process(TransportKind::Bytes),
        launch_row(spec)?,
    ];
    let mut table = Table::new(&HEADER);
    for row in &rows {
        table.row(row.clone());
    }
    table.print();
    table.save("tcp_compare");
    let reference = non_timing_key(&rows[0]);
    for row in &rows[1..] {
        if non_timing_key(row) != reference {
            return Err(format!(
                "transport {} diverges from loopback:\n  loopback: {:?}\n  {}: {:?}",
                row[0],
                reference,
                row[0],
                non_timing_key(row)
            ));
        }
    }
    println!(
        "OK: {} backends agree on all non-timing columns ({} processes, scale {})",
        rows.len(),
        spec.parts,
        spec.scale
    );
    Ok(())
}

/// `recover`'s injected fault: rank 1 panics at the end of round 2.
const FAULT_ROUND: u64 = 2;
const DEAD_RANK: u32 = 1;

/// The kill-and-restart leg: the job runs with per-round checkpoints into
/// `ckpt`, rank 1 dies at the fault round and is relaunched with
/// `--rejoin`. Returns rank 0's finished result row.
fn killed_and_restarted_row(spec: Spec, ckpt: &Path) -> Result<Vec<String>, String> {
    let exe = harness::own_exe()?;
    let rank_cmd = |rank: usize, addr: &str| {
        let mut cmd = worker_cmd(&exe, spec, rank, addr);
        cmd.env(CheckpointPolicy::EVERY_ENV_VAR, "1")
            .env(CheckpointPolicy::DIR_ENV_VAR, ckpt)
            .env_remove("DNE_FAULT_ROUND");
        cmd
    };
    let mut fleet = Fleet::new();
    let mut rank0 = fleet.spawn_piped("rank 0", &mut rank_cmd(0, "127.0.0.1:0"))?;
    let addr = rank0.wait_for(ADDR_TAG)?;
    // Rank 1 carries the injected fault; the others are healthy survivors.
    let dead = DEAD_RANK as usize;
    fleet.spawn(
        "doomed rank",
        rank_cmd(dead, &addr).env("DNE_FAULT_ROUND", FAULT_ROUND.to_string()),
    )?;
    for rank in (1..spec.parts as usize).filter(|&r| r != dead) {
        fleet.spawn(&format!("rank {rank}"), &mut rank_cmd(rank, &addr))?;
    }
    // The injected panic must kill the process (nonzero exit) — that is
    // the whole point of the crash-teardown path.
    let status = fleet.wait("doomed rank")?;
    if status.success() {
        return Err("rank 1 was supposed to crash at the injected fault round".into());
    }
    eprintln!("[recover: rank {dead} died ({status}); relaunching with --rejoin]");
    fleet.spawn("rejoined rank", rank_cmd(dead, &addr).arg("--rejoin"))?;
    let row = awaited_row(&mut rank0)?;
    fleet.reap_all()?;
    Ok(row)
}

/// The elastic-fault-tolerance gate: both recovery paths against the
/// uninterrupted in-process run of the same job.
fn recover(spec: Spec) -> Result<(), String> {
    let ckpt = std::env::temp_dir().join(format!("dne-recovery-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let g = spec.graph();
    let truth = reference(TransportKind::Loopback, spec, &g);
    let truth_row = truth.cells("loopback", spec, &g);
    if truth.iterations <= FAULT_ROUND {
        return Err(format!(
            "the job must outlive the injected fault round (got {} rounds)",
            truth.iterations
        ));
    }

    // ---- Leg 1: kill rank 1 mid-run, restart it, demand bit-identity.
    let row = killed_and_restarted_row(spec, &ckpt)?;
    if result_key(&row) != result_key(&truth_row) {
        return Err(format!(
            "restart path diverged from the uninterrupted run:\n  recovered:     {:?}\n  \
             uninterrupted: {:?}",
            result_key(&row),
            result_key(&truth_row)
        ));
    }
    println!(
        "restart path OK: recovered run bit-identical (fingerprint {}, {} rounds)",
        row[10], row[5]
    );

    // ---- Leg 2: treat rank 1 as permanently dead and migrate its edges
    // out of the checkpoints the killed run left behind.
    let report = migrate_dead_rank(&ckpt, &g, spec.parts, spec.seed, DEAD_RANK)
        .map_err(|e| format!("migration failed: {e}"))?;
    for e in 0..g.num_edges() {
        if report.assignment.part_of(e) == DEAD_RANK {
            return Err(format!("edge {e} still assigned to the dead rank after migration"));
        }
    }
    let truth_rf = truth.rf(&g);
    if report.replication_factor > truth_rf * 1.10 {
        return Err(format!(
            "migration RF {:.6} above 110% of uninterrupted {:.6}",
            report.replication_factor, truth_rf
        ));
    }
    println!(
        "migration path OK: {} migrated + {} completed edges from round {}, \
         RF {:.6} (uninterrupted {:.6}), live EB {:.6}",
        report.migrated_edges,
        report.completed_edges,
        report.round,
        report.replication_factor,
        truth_rf,
        report.edge_balance
    );
    let _ = std::fs::remove_dir_all(&ckpt);
    println!("OK: both recovery paths hold their acceptance bars");
    Ok(())
}

const USAGE: &str = "usage: dne-tcp-worker [quick|full]\n\
     \x20      dne-tcp-worker compare [quick|full]\n\
     \x20      dne-tcp-worker recover\n\
     \x20      dne-tcp-worker launch <nprocs> <scale> <degree> <seed>\n\
     \x20      dne-tcp-worker reference <loopback|bytes|tcp> <nprocs> <scale> <degree> <seed>\n\
     \x20      dne-tcp-worker worker <rank> <nprocs> <addr> <scale> <degree> <seed> \
     [--bind <addr>] [--rejoin]";

/// Remove `--bind <addr>` (both tokens) from `args`, returning the addr.
/// A trailing `--bind` with no value is a usage error.
fn take_bind(args: &mut Vec<String>) -> Result<Option<String>, Failure> {
    let Some(i) = args.iter().position(|a| a == "--bind") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(Failure::Usage("--bind requires an <addr> value".into()));
    }
    let addr = args.remove(i + 1);
    args.remove(i);
    Ok(Some(addr))
}

/// Remove `--rejoin` from `args`, returning whether it was present.
fn take_rejoin(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--rejoin");
    args.len() < before
}

fn print_row(cells: Vec<String>) {
    let mut table = Table::new(&HEADER);
    table.row(cells);
    table.print();
}

fn run(args: &[String]) -> Result<(), Failure> {
    let mut args = args.to_vec();
    let bind = take_bind(&mut args)?;
    let rejoin = take_rejoin(&mut args);
    match args.get(1).map(String::as_str) {
        None | Some("quick") | Some("full") => compare(preset(Mode::parse(&args, 1)?))?,
        Some("compare") => compare(preset(Mode::parse(&args, 2)?))?,
        Some("recover") => recover(preset(Mode::Quick))?,
        Some("launch") => print_row(launch_row(Spec::parse(&args, 3, arg(&args, 2, "nprocs")?)?)?),
        Some("reference") => {
            let kind: TransportKind = arg(&args, 2, "transport")?;
            let spec = Spec::parse(&args, 4, arg(&args, 3, "nprocs")?)?;
            let g = spec.graph();
            print_row(reference(kind, spec, &g).cells(&kind.to_string(), spec, &g));
        }
        Some("worker") => {
            let rank: usize = arg(&args, 2, "rank")?;
            let addr: String = arg(&args, 4, "addr")?;
            let spec = Spec::parse(&args, 5, arg(&args, 3, "nprocs")?)?;
            worker(rank, &addr, bind.as_deref(), rejoin, spec)?;
        }
        Some(other) => return Err(Failure::Usage(format!("unknown mode {other:?}"))),
    }
    Ok(())
}

fn main() -> ExitCode {
    harness::main("dne-tcp-worker", USAGE, run)
}
