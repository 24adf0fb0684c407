//! The Distributed NE driver: one simulated machine per partition, each
//! hosting a colocated expansion process and allocation process (Figure 4).

use std::path::Path;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dne_graph::{EdgeId, Graph, HeapSize, VertexId};
use dne_partition::{EdgeAssignment, EdgePartitioner, PartitionId, UNASSIGNED};
use dne_runtime::{Cluster, Ctx, TcpProcessCluster, TcpSession, TransportError, EPOCH_ANY};

use crate::allocation::{self, SelectRequest};
use crate::config::NeConfig;
use crate::dist::{AllocatorPart, Grid2D, FREE};
use crate::expansion::{ExpansionState, NextSelect, SelectAction};
use crate::messages::{NeMsg, Part};
use crate::snapshot::{self, LoopState, RankSnapshot, SnapshotError, SnapshotHeader};
use crate::stats::NeStats;

/// Distributed Neighbor Expansion. Implements [`EdgePartitioner`]; use
/// [`DistributedNe::partition_with_stats`] to also obtain the run metrics
/// the benchmark harness consumes.
#[derive(Debug, Clone, Default)]
pub struct DistributedNe {
    config: NeConfig,
}

/// Consecutive no-progress rounds tolerated before the leftover trickle:
/// once `Σ|E_p|` has not moved for this many rounds, every partition is
/// full or starved while isolated edges remain, and each allocator hands
/// its free edges to the globally least-loaded partitions in one last
/// exchange (the `state.stall >= STALL_LIMIT` branch of
/// [`DistributedNe::run_machine`]). The paper leaves this corner
/// unspecified.
const STALL_LIMIT: u32 = 3;

/// One machine's initial-deployment bucket: `(global edge id, u, v)`
/// triplets, self-contained so the machine never reads back through the
/// (possibly out-of-core) graph.
type EdgeBucket = Vec<(EdgeId, VertexId, VertexId)>;

/// Per-rank result of one Distributed NE machine: the final edge set of
/// the partition this rank expanded, plus per-rank timing counters.
/// Returned by [`DistributedNe::run_rank`]; assembled into the global
/// [`EdgeAssignment`] by [`DistributedNe::partition_with_stats`].
pub struct RankRun {
    /// Global ids of the edges allocated to this rank's partition.
    pub edges: Vec<EdgeId>,
    /// Iterations this rank executed (identical across ranks by the
    /// lock-step termination check).
    pub iterations: u64,
    /// Time spent in the vertex-selection phase on this rank.
    pub selection_time: Duration,
    /// Time spent in the allocation phases on this rank.
    pub allocation_time: Duration,
}

/// Agree on the round every rank resumes from — the *minimum* of the
/// per-rank newest checkpoints in `dir` (every rank is guaranteed to hold
/// it: snapshots retain two generations and rounds advance in lock-step)
/// — and load this rank's snapshot of that round. A missing or unreadable
/// snapshot is a [`TransportError::Io`] carrying the [`SnapshotError`],
/// like a checkpoint that cannot be written.
fn agree_and_load(ctx: &mut Ctx<NeMsg>, dir: &Path) -> Result<RankSnapshot, TransportError> {
    let rank = ctx.rank() as u32;
    let unusable = |e: SnapshotError| TransportError::Io {
        context: format!("rank {rank}: resuming from the checkpoints in {}", dir.display()),
        error: std::io::Error::other(e),
    };
    let (mine, _) = RankSnapshot::latest(dir, rank).map_err(unusable)?.ok_or_else(|| {
        unusable(SnapshotError::Mismatch { detail: format!("rank {rank} has no snapshot") })
    })?;
    let round = ctx.try_all_gather_u64(mine)?.into_iter().min().expect("at least one rank");
    eprintln!("[rank {rank}: resuming from checkpoint round {round}]");
    RankSnapshot::load_round(dir, rank, round).map_err(unusable)
}

impl DistributedNe {
    /// Construct with the given configuration.
    pub fn new(config: NeConfig) -> Self {
        Self { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &NeConfig {
        &self.config
    }

    /// Partition `g` into `k` parts on `k` simulated machines, returning
    /// the assignment and the run statistics.
    pub fn partition_with_stats(&self, g: &Graph, k: PartitionId) -> (EdgeAssignment, NeStats) {
        assert!(k >= 1, "need at least one partition");
        let m = g.num_edges();
        if m == 0 {
            let stats = NeStats {
                num_partitions: k,
                num_edges: 0,
                iterations: 0,
                elapsed: Duration::ZERO,
                comm_bytes: 0,
                comm_msgs: 0,
                comm_frames: 0,
                collective_rounds: 0,
                peak_memory_bytes: 0,
                mem_score: 0.0,
                selection_time_max: Duration::ZERO,
                allocation_time_max: Duration::ZERO,
            };
            return (EdgeAssignment::new(vec![], k), stats);
        }
        let grid = Grid2D::new(k, self.config.seed);
        // Initial deployment: bucket edges by their 2D-hash owner with ONE
        // sequential pass over the edge stream — the only whole-graph
        // access of the entire run, so any storage backend (in-memory,
        // mmap, chunk-streamed) serves it at its best access pattern. Only
        // this bucketing scan is outside the cluster clock: the clock
        // starts before the rank closures, so `elapsed` includes each
        // rank's local CSR build (`from_owned_edges`), which the paper
        // counts as load time. Buckets carry (id, u, v) triplets so the
        // machines never read back through the graph.
        let mut buckets: Vec<EdgeBucket> = vec![Vec::new(); k as usize];
        g.for_each_edge(|e, u, v| buckets[grid.owner(u, v) as usize].push((e, u, v)));
        // Each simulated machine is charged its share of the graph's
        // resident bytes: an in-memory CSR would really be distributed
        // over the k machines, while out-of-core backends charge only
        // their bounded buffers.
        let graph_bytes = g.resident_bytes().div_ceil(k as usize);
        let cells: Vec<Mutex<Option<EdgeBucket>>> =
            buckets.into_iter().map(|b| Mutex::new(Some(b))).collect();
        let outcome = Cluster::with_transport(k as usize, self.config.resolved_transport())
            .with_collectives(self.config.resolved_collectives())
            .with_comm_batch(self.config.resolved_comm_batch())
            .run::<NeMsg, RankRun, _>(|ctx| {
                let my_edges =
                    cells[ctx.rank()].lock().take().expect("each rank takes its bucket once");
                // In-process, a transport failure means a sibling machine
                // thread died — nothing to recover; fail the run loudly.
                self.run_machine(ctx, m, graph_bytes, &grid, my_edges, k, None).unwrap_or_else(
                    |e| panic!("rank {}: transport failure during Distributed NE: {e}", ctx.rank()),
                )
            });
        // Assemble the global assignment from the expansion processes'
        // final edge sets ("at the end of the computation, the entire edges
        // are distributed to the |P| expansion processes", §3.3).
        let mut parts = vec![UNASSIGNED; m as usize];
        for (p, res) in outcome.results.iter().enumerate() {
            for &e in &res.edges {
                assert_eq!(parts[e as usize], UNASSIGNED, "edge {e} allocated twice");
                parts[e as usize] = p as PartitionId;
            }
        }
        assert!(parts.iter().all(|&p| p != UNASSIGNED), "every edge must be allocated");
        let assignment = EdgeAssignment::new(parts, k);
        let stats = NeStats {
            num_partitions: k,
            num_edges: m,
            iterations: outcome.results.iter().map(|r| r.iterations).max().unwrap_or(0),
            elapsed: outcome.elapsed,
            comm_bytes: outcome.comm.total_bytes(),
            comm_msgs: outcome.comm.total_msgs(),
            comm_frames: outcome.comm.total_frames(),
            collective_rounds: {
                let total = outcome.comm.total_collective_rounds();
                debug_assert_eq!(total % k as u64, 0, "lock-step ranks share a round count");
                total / k as u64
            },
            peak_memory_bytes: outcome.memory.peak_total_bytes,
            mem_score: outcome.memory.peak_total_bytes as f64 / m as f64,
            selection_time_max: outcome
                .results
                .iter()
                .map(|r| r.selection_time)
                .max()
                .unwrap_or(Duration::ZERO),
            allocation_time_max: outcome
                .results
                .iter()
                .map(|r| r.allocation_time)
                .max()
                .unwrap_or(Duration::ZERO),
        };
        (assignment, stats)
    }

    /// Run this process's rank of a `k`-way partition of `g` over an
    /// externally-built cluster context — the per-rank entry point for
    /// *real multi-process* deployments (each OS process builds the same
    /// graph deterministically, connects a
    /// [`TcpProcessCluster`] session, and
    /// calls this with its own `ctx`; see the `dne-tcp-worker` binary).
    ///
    /// The rank's 2D-hash edge bucket is computed locally, identically to
    /// the bucketing [`DistributedNe::partition_with_stats`] performs, so
    /// results are bit-identical to an in-process run with the same
    /// config. A peer that dies mid-run surfaces as a
    /// [`TransportError`], not a panic.
    pub fn run_rank(
        &self,
        ctx: &mut Ctx<NeMsg>,
        g: &Graph,
        k: PartitionId,
    ) -> Result<RankRun, TransportError> {
        self.run_rank_from(ctx, g, k, None)
    }

    /// Like [`DistributedNe::run_rank`], but when `resume` carries a
    /// [`RankSnapshot`] the machine restores that checkpoint and continues
    /// from its round instead of starting fresh. Every rank of the cluster
    /// must resume from the *same* round (snapshots are written at the
    /// same post-barrier loop point, so equal rounds mean a consistent
    /// global state) — the `dne-tcp-worker` recovery loop agrees on the
    /// newest common round with an all-gather before calling this. A
    /// resumed run's final assignment is bit-identical to an uninterrupted
    /// run's. A snapshot that fails [`RankSnapshot::validate`] against
    /// this rank/graph/config, or does not restore into the rebuilt
    /// allocator, is a [`TransportError::Io`] carrying the
    /// [`SnapshotError`].
    pub fn run_rank_from(
        &self,
        ctx: &mut Ctx<NeMsg>,
        g: &Graph,
        k: PartitionId,
        resume: Option<RankSnapshot>,
    ) -> Result<RankRun, TransportError> {
        assert!(k >= 1, "need at least one partition");
        assert_eq!(ctx.nprocs(), k as usize, "one machine per partition");
        if g.num_edges() == 0 {
            return Ok(RankRun {
                edges: Vec::new(),
                iterations: 0,
                selection_time: Duration::ZERO,
                allocation_time: Duration::ZERO,
            });
        }
        let grid = Grid2D::new(k, self.config.seed);
        let rank = ctx.rank() as u32;
        let mut my_edges = Vec::new();
        g.for_each_edge(|e, u, v| {
            if grid.owner(u, v) == rank {
                my_edges.push((e, u, v));
            }
        });
        // A real process holds its own copy of (or window into) the graph,
        // so the whole resident footprint is charged to this rank.
        self.run_machine(ctx, g.num_edges(), g.resident_bytes(), &grid, my_edges, k, resume)
    }

    /// This process's rank of a `k`-way partition of `g` across real
    /// processes, *with elastic recovery*: connect `cluster`, run the rank,
    /// and — when checkpointing is configured — turn a peer's death
    /// ([`TransportError::Disconnected`]) into a resume instead of a
    /// failure. The survivors re-rendezvous under the next bootstrap epoch
    /// (rank 0 bumps the counter; everyone else rejoins with
    /// [`EPOCH_ANY`]), agree on the newest commonly checkpointed round, and
    /// continue from their snapshots via [`DistributedNe::run_rank_from`].
    /// `rejoin` marks the restarted incarnation of a dead rank: it skips
    /// the fresh start and enters directly through that same resume path.
    ///
    /// Returns the finished run and the session it finished on, whose
    /// collectives and accounting the caller may keep using. The result is
    /// bit-identical to an uninterrupted run's.
    ///
    /// # Panics
    /// If `rejoin` is set without a checkpoint policy (there is nothing to
    /// rejoin from).
    pub fn run_rank_recovering(
        &self,
        cluster: &mut TcpProcessCluster,
        g: &Graph,
        k: PartitionId,
        rejoin: bool,
    ) -> Result<(RankRun, TcpSession<NeMsg>), TransportError> {
        let checkpoint = self.config.resolved_checkpoint();
        let dir = checkpoint.as_ref().map(|cp| cp.dir.as_path());
        assert!(!rejoin || dir.is_some(), "a rejoining rank needs a checkpoint policy");
        let rank = cluster.rank();
        // `Some(epoch)`: join the mesh of that bootstrap epoch and resume
        // from the checkpoints; `None`: the fresh start under epoch 0.
        let mut resume_epoch = rejoin.then_some(EPOCH_ANY);
        loop {
            let mut session = cluster.connect_epoch::<NeMsg>(resume_epoch.unwrap_or(0))?;
            let resume = match (resume_epoch, dir) {
                (Some(_), Some(dir)) => Some(agree_and_load(&mut session.ctx, dir)?),
                _ => None,
            };
            match self.run_rank_from(&mut session.ctx, g, k, resume) {
                Ok(run) => return Ok((run, session)),
                Err(TransportError::Disconnected { peer }) if dir.is_some() => {
                    let dead = peer.map_or("a peer".to_string(), |p| format!("rank {p}"));
                    eprintln!(
                        "[rank {rank}: {dead} died (epoch {}); re-rendezvousing for recovery]",
                        session.epoch
                    );
                    resume_epoch = Some(if rank == 0 { session.epoch + 1 } else { EPOCH_ANY });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One simulated machine: expansion process for partition `rank` plus
    /// the allocation process for the 2D-hash cell `rank`.
    #[allow(clippy::too_many_arguments)]
    fn run_machine(
        &self,
        ctx: &mut Ctx<NeMsg>,
        m: u64,
        graph_bytes: usize,
        grid: &Grid2D,
        my_edges: Vec<(EdgeId, VertexId, VertexId)>,
        k: PartitionId,
        resume: Option<RankSnapshot>,
    ) -> Result<RankRun, TransportError> {
        let rank = ctx.rank();
        let kk = k as usize;
        let mut alloc = AllocatorPart::from_owned_edges(my_edges, rank as u32, self.config.seed);
        alloc.ensure_parts(kk);
        let limit = (self.config.alpha * m as f64 / k as f64).ceil() as u64;
        let mut exp = ExpansionState::new(rank as Part, limit, self.config.lambda);
        let checkpoint = self.config.resolved_checkpoint();
        let fault_round = self.config.resolved_fault_round();
        let header =
            SnapshotHeader::new(rank as u32, k, snapshot::run_fingerprint(m, k, self.config.seed));
        let mut selection_time = Duration::ZERO;
        let mut allocation_time = Duration::ZERO;
        // Loop state: free-edge gossip (seeded by one initial all-gather,
        // refreshed by every Result round), the previous round's |E_p| per
        // partition (capacity gate for the two-hop phase; one iteration
        // stale by construction), stall accounting, and the speculated
        // next-round selection (see the split gather at the loop bottom).
        // A resuming machine takes all of it from the checkpoint instead —
        // including skipping the initial all-gather, which every rank
        // skips in lock-step because all of them resume together.
        let mut state = match resume {
            Some(snap) => snap
                .validate(header.rank, k, header.fingerprint)
                .and_then(|()| snap.restore_into(&mut exp, &mut alloc))
                .map_err(|e| TransportError::Io {
                    context: format!("rank {rank}: resuming from a snapshot"),
                    error: std::io::Error::other(e),
                })?,
            None => LoopState {
                round: 0,
                prev_total: 0,
                stall: 0,
                free_hints: ctx.try_all_gather_u64(alloc.free_edges)?,
                global_sizes: vec![0; kk],
                next_select: NextSelect(None),
            },
        };
        exp.reserve_edges(m);
        loop {
            state.round += 1;
            // ---- Phase 1: vertex selection (Algorithm 1 l.3–8 / Alg. 4).
            let t0 = Instant::now();
            let action = match state.next_select.0.take() {
                Some(a) => a,
                None => exp.select(rank, alloc.free_edges, &state.free_hints),
            };
            let mut sel_buckets: Vec<Vec<VertexId>> = vec![Vec::new(); kk];
            let mut random_req: Option<(usize, u64)> = None;
            match action {
                SelectAction::Vertices { vertices } => {
                    for v in vertices {
                        for dst in grid.replicas(v) {
                            sel_buckets[dst as usize].push(v);
                        }
                    }
                }
                SelectAction::Random { target, budget } => random_req = Some((target, budget)),
                SelectAction::Nothing => {}
            }
            selection_time += t0.elapsed();
            let selects = ctx.try_exchange(|dst| NeMsg::Select {
                vertices: std::mem::take(&mut sel_buckets[dst]),
                random_budget: match random_req {
                    Some((target, budget)) if target == dst => budget.max(1),
                    _ => 0,
                },
            })?;
            // ---- Phase 2: one-hop allocation (Algorithm 3 l.1–9).
            let t1 = Instant::now();
            let requests = selects
                .into_iter()
                .enumerate()
                .map(|(src, msg)| {
                    let (vertices, random_budget) = msg.into_select(src)?;
                    Ok(SelectRequest { part: src as Part, vertices, random_budget })
                })
                .collect::<Result<Vec<_>, TransportError>>()?;
            let one = allocation::one_hop(&mut alloc, &requests);
            // ---- Phase 3: membership sync (Algorithm 2 l.3).
            let mut sync_buckets: Vec<Vec<(VertexId, Part)>> = vec![Vec::new(); kk];
            for &(lv, p) in &one.new_memberships {
                let v = alloc.global_id(lv);
                for dst in grid.replicas(v) {
                    if dst as usize != rank {
                        sync_buckets[dst as usize].push((v, p));
                    }
                }
            }
            allocation_time += t1.elapsed();
            let syncs = ctx.try_exchange(|dst| NeMsg::Sync {
                pairs: std::mem::take(&mut sync_buckets[dst]),
            })?;
            let t2 = Instant::now();
            let mut bp_new: Vec<(u32, Part)> = one.new_memberships;
            for (src, msg) in syncs.into_iter().enumerate() {
                for (v, p) in msg.into_sync(src)? {
                    if let Some(lv) = alloc.local_of(v) {
                        if alloc.add_membership(lv, p) {
                            bp_new.push((lv, p));
                        }
                    }
                }
            }
            bp_new.sort_unstable();
            bp_new.dedup();
            // ---- Phase 4: two-hop allocation + local D_rest (Alg. 3/2).
            let two = allocation::two_hop(
                &mut alloc,
                &bp_new,
                &state.global_sizes,
                limit,
                k as u64,
                rank as u64,
                &one.allocated,
            );
            let drest = allocation::local_drest(&alloc, &bp_new);
            let mut res_boundary: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); kk];
            for (v, p, d) in drest {
                res_boundary[p as usize].push((v, d));
            }
            let mut res_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); kk];
            for &(le, p) in one.allocated.iter().chain(two.iter()) {
                res_edges[p as usize].push(alloc.edge_id(le));
            }
            allocation_time += t2.elapsed();
            // ---- Phase 5: results back to the expansion processes.
            let results = ctx.try_exchange(|dst| NeMsg::Result {
                boundary: std::mem::take(&mut res_boundary[dst]),
                edges: std::mem::take(&mut res_edges[dst]),
                free_edges: alloc.free_edges,
            })?;
            let t3 = Instant::now();
            let mut boundary_updates: Vec<(VertexId, u64)> = Vec::new();
            let mut new_edges: Vec<EdgeId> = Vec::new();
            for (src, msg) in results.into_iter().enumerate() {
                let (boundary, edges, free_edges) = msg.into_result(src)?;
                state.free_hints[src] = free_edges;
                boundary_updates.extend(boundary);
                new_edges.extend(edges);
            }
            exp.absorb(&boundary_updates, &new_edges);
            selection_time += t3.elapsed();
            ctx.report_memory(alloc.heap_bytes() + exp.heap_bytes() + graph_bytes);
            // ---- Termination (Algorithm 1 l.14–15). The all-gather both
            // sums |E| for the stop test and refreshes the capacity gate.
            // It is split so the next round's vertex selection overlaps the
            // in-flight collective (the §7.4 bottleneck): `select` reads
            // exactly the state the next loop-top call would — nothing
            // mutates the expansion or allocator between here and there —
            // and never touches `exp.edges`/`exp.size()`, so the gathered
            // value and the final edge set are unaffected even when the
            // speculation is discarded by a break. Speculation is skipped
            // whenever this round could enter the leftover trickle — the
            // run is ending, so there is no next round to pre-compute.
            let pending = ctx.try_start_all_gather_u64(exp.size())?;
            if state.stall + 1 < STALL_LIMIT {
                let t4 = Instant::now();
                state.next_select =
                    NextSelect(Some(exp.select(rank, alloc.free_edges, &state.free_hints)));
                selection_time += t4.elapsed();
            }
            let _ = ctx.try_drain_ready()?;
            state.global_sizes = ctx.try_finish_all_gather_u64(pending)?;
            let total: u64 = state.global_sizes.iter().sum();
            if total == m {
                break;
            }
            if total == state.prev_total {
                state.stall += 1;
            } else {
                state.stall = 0;
            }
            state.prev_total = total;
            if state.stall >= STALL_LIMIT {
                // Leftover trickle (see `STALL_LIMIT`): every partition is full
                // or starved while isolated edges remain — assign them to
                // the globally least-loaded partitions and finish.
                // Deficit-directed leftover distribution: each allocator
                // greedily fills the globally smallest partition, but
                // advances its local size model by `nprocs` per assignment
                // — approximating that every allocator makes the same
                // choice concurrently. Leftovers flow to the starved
                // partitions without all allocators piling onto one. The
                // model starts from this round's gathered sizes: nothing
                // has touched `exp.edges` since that gather.
                let mut model = std::mem::take(&mut state.global_sizes);
                let mut extra: Vec<Vec<EdgeId>> = vec![Vec::new(); kk];
                for le in 0..alloc.num_local_edges() as u32 {
                    if alloc.edge_part[le as usize] == FREE {
                        let p = (0..kk).min_by_key(|&p| (model[p], p)).expect("k >= 1 partitions");
                        model[p] += kk as u64;
                        alloc.claim_edge(le, p as Part);
                        extra[p].push(alloc.edge_id(le));
                    }
                }
                let finals = ctx.try_exchange(|dst| NeMsg::Result {
                    boundary: Vec::new(),
                    edges: std::mem::take(&mut extra[dst]),
                    free_edges: 0,
                })?;
                for (src, msg) in finals.into_iter().enumerate() {
                    let (_, edges, _) = msg.into_result(src)?;
                    exp.absorb(&[], &edges);
                }
                let total = ctx.try_all_reduce_sum_u64(exp.size())?;
                assert_eq!(total, m, "trickle must complete the cover");
                break;
            }
            // ---- End of round: the run continues, so this is the state a
            // recovery must be able to rebuild. Every rank reaches this
            // point for the same `state.round` (the finish_all_gather above
            // is a barrier), so equal snapshot rounds across ranks mean a
            // consistent global cut. The write is a pure observer: nothing
            // the loop reads is mutated.
            if let Some(cp) = &checkpoint {
                if state.round % cp.every == 0 {
                    let snap = RankSnapshot::capture(header, &state, &exp, &alloc);
                    snap.write_atomic(&cp.dir).map_err(|error| TransportError::Io {
                        context: format!(
                            "rank {rank}: writing round-{} checkpoint to {}",
                            state.round,
                            cp.dir.display()
                        ),
                        error,
                    })?;
                }
            }
            if fault_round == Some(state.round) {
                // Injected crash for recovery testing: die *after* this
                // round's checkpoint, mid-job, like a SIGKILLed rank whose
                // peers find out through the broken socket.
                panic!("rank {rank}: injected fault at end of round {}", state.round);
            }
        }
        // Both loop exits land here: once per run, check that the O(1)
        // byte count the rounds reported is what a walk yields.
        debug_assert_eq!(
            alloc.heap_bytes(),
            alloc.recount_heap_bytes(),
            "rank {rank}: the allocator's reported bytes are not what a recount finds"
        );
        Ok(RankRun { edges: exp.edges, iterations: state.round, selection_time, allocation_time })
    }
}

impl EdgePartitioner for DistributedNe {
    fn name(&self) -> String {
        "DistributedNE".into()
    }

    fn partition(&self, g: &Graph, k: PartitionId) -> EdgeAssignment {
        self.partition_with_stats(g, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;
    use dne_partition::PartitionQuality;

    fn ne(seed: u64) -> DistributedNe {
        DistributedNe::new(NeConfig::default().with_seed(seed))
    }

    #[test]
    fn partitions_small_graph_completely() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let (a, stats) = ne(1).partition_with_stats(&g, 4);
        assert!(a.is_valid_for(&g));
        assert!(stats.iterations > 0);
        assert_eq!(stats.num_edges, g.num_edges());
    }

    #[test]
    fn respects_theorem1_bound() {
        for seed in [1u64, 2, 3] {
            let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, seed));
            let (a, _) = ne(seed).partition_with_stats(&g, 8);
            let q = PartitionQuality::measure(&g, &a);
            let ub = (g.num_edges() + g.num_vertices() + 8) as f64 / g.num_vertices() as f64;
            assert!(
                q.replication_factor <= ub,
                "RF {} exceeds Theorem 1 bound {ub}",
                q.replication_factor
            );
        }
    }

    #[test]
    fn single_partition() {
        let g = gen::cycle(12);
        let (a, _) = ne(3).partition_with_stats(&g, 1);
        assert!(a.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 8, 5));
        let (a1, s1) = ne(42).partition_with_stats(&g, 8);
        let (a2, s2) = ne(42).partition_with_stats(&g, 8);
        assert_eq!(a1, a2, "same seed must give identical partitions");
        assert_eq!(s1.iterations, s2.iterations);
        let (a3, _) = ne(43).partition_with_stats(&g, 8);
        assert_ne!(a1, a3, "different seeds should explore differently");
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_canonical_edges(0, vec![]);
        let (a, stats) = ne(1).partition_with_stats(&g, 4);
        assert_eq!(a.num_edges(), 0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn edge_balance_close_to_alpha() {
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 2));
        let (a, _) = ne(2).partition_with_stats(&g, 8);
        let q = PartitionQuality::measure(&g, &a);
        // α = 1.1 plus at most one iteration's fair-share slack.
        assert!(q.edge_balance < 1.3, "edge balance {}", q.edge_balance);
    }

    #[test]
    fn beats_random_hash_quality() {
        use dne_partition::hash_based::RandomPartitioner;
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 7));
        let (a, _) = ne(7).partition_with_stats(&g, 16);
        let qd = PartitionQuality::measure(&g, &a);
        let qr = PartitionQuality::measure(&g, &RandomPartitioner::new(7).partition(&g, 16));
        assert!(
            qd.replication_factor < qr.replication_factor,
            "D.NE {} must beat Random {}",
            qd.replication_factor,
            qr.replication_factor
        );
    }

    #[test]
    fn multi_expansion_reduces_iterations() {
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 3));
        let slow = DistributedNe::new(NeConfig::default().with_seed(3).with_lambda(0.01));
        let fast = DistributedNe::new(NeConfig::default().with_seed(3).with_lambda(1.0));
        let (_, s_slow) = slow.partition_with_stats(&g, 4);
        let (_, s_fast) = fast.partition_with_stats(&g, 4);
        assert!(
            s_fast.iterations < s_slow.iterations,
            "λ=1.0 ({}) must need fewer iterations than λ=0.01 ({})",
            s_fast.iterations,
            s_slow.iterations
        );
    }

    #[test]
    fn disconnected_graph_is_covered() {
        let g = gen::ring_complete(6);
        let (a, _) = ne(1).partition_with_stats(&g, 4);
        assert!(a.is_valid_for(&g));
    }

    #[test]
    fn stats_track_communication_and_memory() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 9));
        let (_, stats) = ne(9).partition_with_stats(&g, 4);
        assert!(stats.comm_bytes > 0);
        assert!(stats.peak_memory_bytes > 0);
        assert!(stats.mem_score > 0.0);
    }

    #[test]
    fn memory_report_is_pinned() {
        // Every term of every rank's report is a capacity that never
        // shrinks, so the peak is the sum of the ranks' last reports
        // however their reports interleave. Against the 436 144 bytes this
        // (graph, seed, P) reported before the allocator was sized exactly
        // (commit f298c88, lock-step total of round 61 of 64), summed over
        // the four ranks (n = 918 local vertices, m = 2810 edges):
        //   global_ids   44 960 → 7 344   dedup buffer of 2·m ids → n ids
        //   edge_global  98 304 → 22 480  the push-doubled 24-byte triplet
        //                                 buckets, kept → m ids
        //   rest          7 344 → 3 672   u64 → u32
        //   memberships  14 352 → 11 504  Σ capacity·4 of a `Vec` per vertex
        //                                 (its 22 032 bytes of headers were
        //                                 not charged) → 8·n inline + a
        //                                 4 160-byte arena
        //   exp.edges    31 008 → 24 736  doubling → Σ min(limit, |E|)·8
        //   boundary     12 312 → 18 368  lengths → heap and table
        //                                 capacities (the one term that
        //                                 was under-reported)
        // and offsets 7 376, adjacency 44 960, edge_part 11 240, part_edges
        // 128, scan_order 3 672, local_of 21 504, graph share 138 984 as
        // before: −126 232 + 6 056 = −120 176. Since then:
        //   boundary     18 368 → 14 336  the expanded set's table is gone
        //                                 (it is enqueued minus the heap)
        //   graph share 138 984 → 49 056  48·m + 8·(512 + 1) → 16·m + 8·512:
        //                                 the graph is its edge list and a
        //                                 degree array, adjacency is derived
        //                                 by the methods that walk it
        // and then 222 008 → 198 880 with no hash map in the allocator:
        //   local_of     21 504 → 0       the map's 16-byte slots
        //   offsets       7 376 → 3 688   8·(n + 4) → 4·(n + 4): u64 → u32
        //   directory         0 → 2 064   516 `u32` bucket words over the
        //                                 four ranks (≤ n + 2 per rank)
        // and then 198 880 → 197 200 with local ids from a rank bitmap:
        //   directory     2 064 → 384     four ranks × 8 words (ids < 512)
        //                                 × 12 B (a `u64` word, a `u32` count)
        // and then 197 200 → 172 456 with both id arrays block-packed
        // (64 deltas of one width per block, a 16-byte header per block,
        // and per array one closing header and two closing words):
        //   global_ids    7 344 → 1 272   8·n → 312 + 328 + 304 + 328: 5
        //                                 headers and 2 words per rank and
        //                                 1.0 B of deltas per id
        //   edge_global  22 480 → 3 808   8·m → 856 + 1 160 + 744 + 1 048:
        //                                 10–16 headers and 2 words per
        //                                 rank and 1.0 B of deltas per id
        use dne_runtime::TransportKind;
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 3));
        let config = NeConfig::default().with_seed(3).with_transport(TransportKind::Loopback);
        let (_, stats) = DistributedNe::new(config).partition_with_stats(&g, 4);
        assert_eq!(stats.peak_memory_bytes, 172_456);
    }

    #[test]
    fn partition_edge_sets_are_sized_once() {
        // α = 1.0 at P = 4 ends in the leftover trickle, which pushes
        // partitions past their limit: those grow by exactly what arrives,
        // the others never outgrow the room reserved before round 1.
        use dne_runtime::TransportKind;
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 6, 4));
        let (m, k) = (g.num_edges(), 4u32);
        let ne = DistributedNe::new(NeConfig::default().with_seed(4).with_alpha(1.0));
        let runs = Cluster::with_transport(k as usize, TransportKind::Loopback)
            .run::<NeMsg, RankRun, _>(|ctx| ne.run_rank(ctx, &g, k).unwrap())
            .results;
        let room = m.div_ceil(k as u64) as usize;
        assert_eq!(runs.iter().map(|r| r.edges.len() as u64).sum::<u64>(), m);
        assert!(runs.iter().any(|r| r.edges.len() > room), "no partition overshot its limit");
        for (rank, run) in runs.iter().enumerate() {
            let (len, capacity) = (run.edges.len(), run.edges.capacity());
            assert!(capacity <= room.max(len), "rank {rank}: {len} edges in room for {capacity}");
        }
    }

    #[test]
    fn tight_alpha_still_covers() {
        // α = 1.0 leaves zero slack: the exhaustion/trickle paths must
        // still complete the cover.
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 6, 4));
        let ne = DistributedNe::new(NeConfig::default().with_seed(4).with_alpha(1.0));
        let (a, _) = ne.partition_with_stats(&g, 8);
        assert!(a.is_valid_for(&g));
        let q = PartitionQuality::measure(&g, &a);
        assert!(q.edge_balance < 1.25, "alpha=1.0 balance {}", q.edge_balance);
    }

    #[test]
    fn leftover_trickle_reuses_the_rounds_size_gather() {
        // A run that ends in the trickle: one initial gather, one per
        // round, and the closing all-reduce — the trickle seeds its size
        // model from the round's own gather instead of gathering the same
        // sizes again. The assignment is the one the extra gather gave
        // (fingerprint recorded at commit cd9676c).
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 3));
        let ne = DistributedNe::new(NeConfig::default().with_seed(3).with_alpha(1.0));
        let (a, stats) = ne.partition_with_stats(&g, 8);
        assert_eq!(stats.collective_rounds, stats.iterations + 2);
        assert_eq!(a.fingerprint(), 0xfd6d_7ba0_860a_79d1);
    }

    #[test]
    fn prime_partition_count_degenerate_grid() {
        // k = 7 → 1×7 grid: every vertex replicates on all allocators;
        // the sync fan-out covers everything and the run must still work.
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 6));
        let (a, _) = ne(6).partition_with_stats(&g, 7);
        assert!(a.is_valid_for(&g));
    }

    #[test]
    fn star_graph_with_many_partitions() {
        // A star has one expandable vertex; most partitions can only get
        // edges via random restarts on spokes (each carrying the hub edge).
        let g = gen::star(200);
        let (a, _) = ne(2).partition_with_stats(&g, 8);
        assert!(a.is_valid_for(&g));
        let q = PartitionQuality::measure(&g, &a);
        // Hub replicates into every partition at worst.
        assert!(q.replication_factor <= (199 + 8) as f64 / 200.0 + 1e-9);
    }

    #[test]
    fn sixty_four_machines_smoke() {
        // The Table 4/5 configuration: 64 simulated machines. The capacity
        // crossing of the final iteration is bounded by one iteration's
        // allocation, so the relative EB tightens as |E|/|P| grows; at
        // this scale (~400 edges/partition) 1.35 is the expected envelope.
        let g = gen::rmat(&gen::RmatConfig::graph500(12, 8, 8));
        let (a, stats) = ne(8).partition_with_stats(&g, 64);
        assert!(a.is_valid_for(&g));
        assert!(stats.iterations > 0);
        let q = PartitionQuality::measure(&g, &a);
        assert!(q.edge_balance < 1.35, "balance {}", q.edge_balance);
    }

    #[test]
    fn run_rank_over_process_sessions_matches_in_process() {
        // The multi-process entry point: each "process" (a thread here —
        // the bootstrap, socket, and per-rank code paths are exactly what
        // real OS processes execute) builds the same graph, connects a
        // TcpProcessCluster session, and runs its rank. The assembled
        // assignment, iteration count, and per-rank comm accounting must
        // be bit-identical to the in-process loopback run.
        use dne_runtime::TcpProcessCluster;
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 11));
        let k = 4u32;
        let part = ne(11);
        let (a_ref, s_ref) = part.partition_with_stats(&g, k);
        let host = TcpProcessCluster::host(k as usize, "127.0.0.1:0").unwrap();
        let addr = host.addr().to_string();
        let mut host = Some(host);
        let outputs: Vec<(Vec<EdgeId>, u64, u64, u64)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for rank in 0..k as usize {
                let (g, part, addr) = (&g, &part, addr.clone());
                let cluster = host.take();
                handles.push(s.spawn(move || {
                    let cluster = match cluster {
                        Some(h) => h,
                        None => TcpProcessCluster::join(rank, k as usize, &addr).unwrap(),
                    };
                    let mut session = cluster.connect::<NeMsg>().unwrap();
                    let run = part.run_rank(&mut session.ctx, g, k).unwrap();
                    let bytes = session.comm.bytes_sent_by(rank);
                    let msgs = session.comm.msgs_sent_by(rank);
                    (run.edges, run.iterations, bytes, msgs)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut parts = vec![UNASSIGNED; g.num_edges() as usize];
        let mut total_bytes = 0;
        let mut total_msgs = 0;
        for (p, (edges, iterations, bytes, msgs)) in outputs.into_iter().enumerate() {
            assert_eq!(iterations, s_ref.iterations, "rank {p} iteration count");
            total_bytes += bytes;
            total_msgs += msgs;
            for e in edges {
                parts[e as usize] = p as PartitionId;
            }
        }
        assert_eq!(EdgeAssignment::new(parts, k), a_ref, "assignments must be bit-identical");
        assert_eq!(total_bytes, s_ref.comm_bytes, "comm bytes across processes");
        assert_eq!(total_msgs, s_ref.comm_msgs, "comm message counts across processes");
    }

    #[test]
    fn killed_rank_rejoins_and_run_is_bit_identical() {
        // The full elastic-recovery protocol over real TCP sessions,
        // P = 4, checkpoint every round: rank 1 crashes at the end of
        // round 2 (panic → dirty socket teardown, exactly what its peers
        // see from a SIGKILL), the survivors re-rendezvous under the next
        // bootstrap epoch, a fresh incarnation of rank 1 rejoins with
        // EPOCH_ANY, everyone agrees on the minimum checkpointed round,
        // and the resumed run must be bit-identical to an uninterrupted
        // one — same assignment, same iteration count on every rank.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 13));
        let k = 4u32;
        let dir = std::env::temp_dir().join(format!("dne-killrestart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = NeConfig::default().with_seed(13).with_checkpoint(1, &dir);
        let part = DistributedNe::new(base.clone());
        let doomed_part = DistributedNe::new(base.with_fault_round(2));
        let (a_ref, s_ref) = ne(13).partition_with_stats(&g, k);
        assert!(s_ref.iterations > 2, "the job must outlive the injected fault round");

        let host = TcpProcessCluster::host(k as usize, "127.0.0.1:0").unwrap();
        let addr = host.addr().to_string();
        let mut host = Some(host);
        // A rank's life with recovery is the library's own loop — the
        // one `dne-tcp-worker` ships.
        let live = |mut cluster: TcpProcessCluster, rejoin: bool| {
            let rank = cluster.rank();
            let (run, _session) = part
                .run_rank_recovering(&mut cluster, &g, k, rejoin)
                .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            (rank, run.edges, run.iterations)
        };
        let outputs: Vec<(usize, Vec<EdgeId>, u64)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for rank in [0usize, 2, 3] {
                let (live, addr) = (&live, addr.clone());
                let cluster = host.take();
                handles.push(s.spawn(move || {
                    let cluster = match cluster {
                        Some(h) => h,
                        None => TcpProcessCluster::join(rank, k as usize, &addr).unwrap(),
                    };
                    live(cluster, false)
                }));
            }
            let doomed = {
                let (doomed_part, g, addr) = (&doomed_part, &g, addr.clone());
                s.spawn(move || {
                    let cluster = TcpProcessCluster::join(1, k as usize, &addr).unwrap();
                    let mut session = cluster.connect::<NeMsg>().unwrap();
                    doomed_part.run_rank(&mut session.ctx, g, k)
                })
            };
            handles.push(s.spawn({
                let live = &live;
                move || {
                    // Rank 1's second incarnation: wait for the first to
                    // die of its injected fault, then rejoin under
                    // whatever epoch the survivors have moved to.
                    assert!(doomed.join().is_err(), "the injected fault must kill rank 1");
                    let cluster = TcpProcessCluster::join(1, k as usize, &addr).unwrap();
                    live(cluster, true)
                }
            }));
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut parts = vec![UNASSIGNED; g.num_edges() as usize];
        for (rank, edges, iterations) in outputs {
            assert_eq!(iterations, s_ref.iterations, "rank {rank} iteration count");
            for e in edges {
                parts[e as usize] = rank as PartitionId;
            }
        }
        assert_eq!(
            EdgeAssignment::new(parts, k),
            a_ref,
            "recovered run must be bit-identical to the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_of_another_run_are_a_typed_error_at_every_rank() {
        // Snapshots written under seed 21 and resumed under seed 22: the
        // run fingerprint differs, so every rank refuses its own snapshot
        // with the `TransportError::Io` an unreadable one gets — no rank
        // panics (a panic would fail the whole cluster run).
        use dne_runtime::TransportKind;
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 21));
        let k = 4u32;
        let dir = std::env::temp_dir().join(format!("dne-foreign-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = DistributedNe::new(NeConfig::default().with_seed(21).with_checkpoint(1, &dir))
            .partition_with_stats(&g, k);
        let resumer = ne(22);
        let outcomes = Cluster::with_transport(k as usize, TransportKind::Loopback)
            .run::<NeMsg, _, _>(|ctx| {
                let (_, path) = RankSnapshot::latest(&dir, ctx.rank() as u32)
                    .unwrap()
                    .expect("every rank checkpointed");
                let snap = RankSnapshot::read(&path).unwrap();
                resumer.run_rank_from(ctx, &g, k, Some(snap)).err()
            })
            .results;
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(TransportError::Io { error, .. }) => {
                    assert!(error.to_string().contains("fingerprint"), "rank {rank}: {error}")
                }
                other => panic!("rank {rank}: expected a typed snapshot error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_message_is_a_typed_error_at_every_honest_rank() {
        // A rogue rank joins the initial gather, then sends Sync where
        // phase 1 expects Select: every honest rank returns a typed
        // protocol error naming it instead of panicking.
        use dne_runtime::TransportKind;
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 5));
        let (k, rogue) = (4u32, 2usize);
        let honest = ne(5);
        let outcomes = Cluster::with_transport(k as usize, TransportKind::Loopback)
            .run::<NeMsg, _, _>(|ctx| {
                if ctx.rank() == rogue {
                    ctx.try_all_gather_u64(0).unwrap();
                    ctx.try_exchange(|_| NeMsg::empty_sync()).unwrap();
                    return None;
                }
                honest.run_rank(ctx, &g, k).err()
            })
            .results;
        for (rank, outcome) in outcomes.into_iter().enumerate().filter(|&(r, _)| r != rogue) {
            match outcome {
                Some(TransportError::Protocol { src, expected: "Select", got: "Sync" }) => {
                    assert_eq!(src, rogue, "rank {rank}")
                }
                other => panic!("rank {rank}: expected a typed protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn path_graph_chain_expansion() {
        // Worst-case diameter: expansion crawls along the path; the lazy
        // boundary and random restarts must not livelock.
        let g = gen::path(500);
        let (a, stats) = ne(5).partition_with_stats(&g, 4);
        assert!(a.is_valid_for(&g));
        let q = PartitionQuality::measure(&g, &a);
        // A path cut into 4 chunks has at most ~3 + restarts cut vertices.
        assert!(q.replication_factor < 1.2, "path RF {}", q.replication_factor);
        assert!(stats.iterations < 2000);
    }
}
