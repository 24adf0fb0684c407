//! The vertex-cut (GAS-style) execution engine.

use std::time::Duration;

use dne_graph::hash::mix2;
use dne_graph::{EdgeId, Graph, LocalIds, VertexId};
use dne_partition::{EdgeAssignment, PartitionId, ReplicaTable};
use dne_runtime::{BatchConfig, Cluster, CollectiveTopology, Ctx, TransportError, TransportKind};

/// How partial accumulators combine (the `⊕` of the GAS gather phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Minimum (SSSP distances, BFS levels, WCC labels).
    Min,
    /// Sum (PageRank mass).
    Sum,
}

/// A vertex program in the restricted f64-valued form the value-propagation
/// applications (BFS, SSSP, WCC, PageRank) fit.
#[derive(Clone)]
pub struct VertexProgram {
    /// Application name for reports ("SSSP", "WCC", "PageRank").
    pub name: &'static str,
    /// Accumulator combiner.
    pub combine: Combine,
    /// Initial vertex value (given vertex id, its degree, and the
    /// program parameter — e.g. the SSSP source).
    pub init: fn(VertexId, u64, f64) -> f64,
    /// Free-form program parameter forwarded to `init` (function pointers
    /// cannot capture; this keeps programs `Copy`-able across machines).
    pub param: f64,
    /// Contribution sent along an edge from a vertex with value `x` and
    /// degree `d`.
    pub edge_fn: fn(x: f64, d: u64) -> f64,
    /// Master update: old value + gathered accumulator → new value.
    pub apply: fn(old: f64, acc: Option<f64>) -> f64,
    /// Run exactly this many supersteps (PageRank); `None` = run until no
    /// vertex changes (BFS, SSSP, WCC).
    pub fixed_supersteps: Option<u64>,
    /// Only gather along edges whose source changed last superstep
    /// (frontier semantics for BFS/SSSP/WCC; PageRank gathers everything).
    pub frontier_only: bool,
}

/// Result of one distributed application run (one Table 5 cell group).
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application name.
    pub name: String,
    /// Supersteps (value-propagation programs) or exchange rounds
    /// (adjacency kernels) executed.
    pub supersteps: u64,
    /// Wall-clock of the parallel section ("ET").
    pub elapsed: Duration,
    /// Total bytes moved between machines ("COM").
    pub comm_bytes: u64,
    /// Total messages moved between machines.
    pub comm_msgs: u64,
    /// Workload balance `max_p busy_p / mean_p busy_p` ("WB").
    pub workload_balance: f64,
    /// Final vertex values indexed by vertex id (masters' truth).
    pub values: Vec<f64>,
    /// Kernel-level scalar, where the kernel defines one: the global
    /// triangle count for `Triangles`, `None` for every other kernel.
    pub aggregate: Option<f64>,
}

/// Wire message of the value-propagation programs: `(vertex, payload)`
/// pairs.
pub type AppMsg = Vec<(VertexId, f64)>;

/// Wire message of the adjacency kernels (triangles, LCC): `(vertex,
/// word-list)` blocks — neighbor lists in the adjacency rounds, singleton
/// triangle counts in the count round.
pub type AdjMsg = Vec<(VertexId, Vec<u64>)>;

/// Per-rank outcome of one value-propagation program
/// ([`Engine::run_rank`]).
#[derive(Debug, Clone)]
pub struct RankRun {
    /// `(vertex, value)` for every vertex mastered by this rank.
    pub mastered: Vec<(VertexId, f64)>,
    /// Supersteps executed (identical on every rank — the convergence
    /// check is collective).
    pub supersteps: u64,
    /// Compute time outside the blocking communication calls.
    pub busy: Duration,
}

/// Per-rank outcome of the adjacency kernel
/// ([`Engine::run_triangles_rank`]).
#[derive(Debug, Clone)]
pub struct TriangleRankRun {
    /// `(vertex, exact triangle count)` for every vertex mastered by this
    /// rank.
    pub mastered: Vec<(VertexId, u64)>,
    /// Global `Σ_e |N(u) ∩ N(v)|` = 3 × the global triangle count
    /// (identical on every rank — it is an all-reduce result).
    pub triple_total: u64,
    /// Exchange rounds executed (the adjacency kernel always runs 3).
    pub rounds: u64,
    /// Compute time outside the blocking communication calls.
    pub busy: Duration,
}

/// The engine: executes graph kernels over an edge partitioning on a
/// simulated cluster with one machine per partition.
pub struct Engine<'g> {
    g: &'g Graph,
    assignment: &'g EdgeAssignment,
    /// Replica partitions per vertex (ascending).
    replicas: ReplicaTable,
    /// Master partition per vertex (`u32::MAX` for isolated vertices).
    masters: Vec<PartitionId>,
    /// Owned edges per partition with cached endpoints `(e, u, v)` —
    /// collected by a sequential scan like the replica table's, so
    /// kernels never random-access the storage backend (the
    /// chunk-streamed backend serves random reads through a one-chunk
    /// cache).
    edges_by_part: Vec<Vec<(EdgeId, VertexId, VertexId)>>,
    /// Transport backend of the simulated cluster the programs run on;
    /// `None` resolves `DNE_TRANSPORT` at run time.
    transport: Option<TransportKind>,
    /// Collective topology of the simulated cluster; `None` resolves
    /// `DNE_COLLECTIVES` at run time. Application results are
    /// bit-identical under every topology.
    collectives: Option<CollectiveTopology>,
    /// Envelope-coalescing policy of the point-to-point fabric; `None`
    /// resolves `DNE_COMM_BATCH` at run time. Application results and
    /// logical message/byte accounting are bit-identical with coalescing
    /// on or off — only the physical frame count changes.
    comm_batch: Option<BatchConfig>,
}

impl<'g> Engine<'g> {
    /// Build the engine's routing tables (the equivalent of a vertex-cut
    /// system's loading phase, excluded from "ET" like the paper excludes
    /// initialization).
    ///
    /// The tables come from **sequential edge scans**
    /// ([`Graph::for_each_edge`]), so the engine runs on every storage
    /// backend at its best access pattern.
    pub fn new(g: &'g Graph, assignment: &'g EdgeAssignment) -> Self {
        let replicas = ReplicaTable::build(g, assignment);
        let k = assignment.num_partitions() as usize;
        let mut edges_by_part: Vec<Vec<(EdgeId, VertexId, VertexId)>> = vec![Vec::new(); k];
        g.for_each_edge(|e, u, v| {
            edges_by_part[assignment.part_of(e) as usize].push((e, u, v));
        });
        let masters: Vec<PartitionId> = g
            .vertices()
            .map(|v| {
                let reps = replicas.of(v);
                if reps.is_empty() {
                    PartitionId::MAX
                } else {
                    // Random (hashed) replica as master, as in PowerGraph.
                    reps[(mix2(0x4D41_5354_4552, v) % reps.len() as u64) as usize]
                }
            })
            .collect();
        Self {
            g,
            assignment,
            replicas,
            masters,
            edges_by_part,
            transport: None,
            collectives: None,
            comm_batch: None,
        }
    }

    /// Select the transport backend explicitly (overrides `DNE_TRANSPORT`;
    /// application results and comm accounting are identical under both).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Select the collective topology explicitly (overrides
    /// `DNE_COLLECTIVES`; application results are bit-identical under
    /// every topology — only the convergence collectives' schedule
    /// changes).
    pub fn with_collectives(mut self, collectives: CollectiveTopology) -> Self {
        self.collectives = Some(collectives);
        self
    }

    /// Select the envelope-coalescing policy explicitly (overrides
    /// `DNE_COMM_BATCH`; application results and logical comm accounting
    /// are bit-identical with coalescing on or off).
    pub fn with_comm_batch(mut self, batch: BatchConfig) -> Self {
        self.comm_batch = Some(batch);
        self
    }

    /// The cluster every kernel runs on: one machine per partition, with
    /// the configured (or environment-resolved) transport and topology.
    fn cluster(&self) -> Cluster {
        let k = self.assignment.num_partitions() as usize;
        let transport = self.transport.unwrap_or_else(TransportKind::from_env);
        let collectives = self.collectives.unwrap_or_else(CollectiveTopology::from_env);
        let batch = self.comm_batch.unwrap_or_else(BatchConfig::from_env);
        Cluster::with_transport(k, transport).with_collectives(collectives).with_comm_batch(batch)
    }

    /// The local vertex table of `rank`: the distinct endpoints of its
    /// owned edges, numbered in ascending order.
    fn local_verts(&self, rank: usize) -> LocalIds {
        LocalIds::new(self.edges_by_part[rank].iter().flat_map(|&(_, u, v)| [u, v]))
    }

    /// One rank's share of a value-propagation program, over an explicit
    /// [`Ctx`] — the fallible seam the in-process [`Engine::run`] wraps
    /// and the fault-injection tests drive directly. `ctx.nprocs()` must
    /// equal the assignment's partition count.
    pub fn run_rank(
        &self,
        ctx: &mut Ctx<AppMsg>,
        prog: &VertexProgram,
    ) -> Result<RankRun, TransportError> {
        let k = self.assignment.num_partitions() as usize;
        assert_eq!(ctx.nprocs(), k, "cluster size must equal the partition count");
        let rank = ctx.rank();
        let g = self.g;
        let t_busy = std::time::Instant::now;
        let mut busy = Duration::ZERO;
        // ---- Local structures (loading phase).
        let my_edges = &self.edges_by_part[rank];
        let local = self.local_verts(rank);
        let lid = |v| local.get(v).expect("a replica's vertex is local") as usize;
        let verts: Vec<VertexId> = local.iter().collect();
        let n_local = verts.len();
        let mut value: Vec<f64> =
            verts.iter().map(|&v| (prog.init)(v, g.degree(v), prog.param)).collect();
        let deg: Vec<u64> = verts.iter().map(|&v| g.degree(v)).collect();
        let mut changed: Vec<bool> = vec![true; n_local]; // superstep 0: all fresh
        let mut acc: Vec<Option<f64>> = vec![None; n_local];
        let combine = |a: Option<f64>, x: f64| -> f64 {
            match (prog.combine, a) {
                (Combine::Min, Some(v)) => v.min(x),
                (Combine::Sum, Some(v)) => v + x,
                (_, None) => x,
            }
        };
        let mut supersteps = 0u64;
        loop {
            supersteps += 1;
            let t0 = t_busy();
            // ---- Gather along local edges.
            acc.iter_mut().for_each(|a| *a = None);
            for &(_, u, v) in my_edges {
                let (lu, lv) = (lid(u), lid(v));
                if !prog.frontier_only || changed[lu] {
                    acc[lv] = Some(combine(acc[lv], (prog.edge_fn)(value[lu], deg[lu])));
                }
                if !prog.frontier_only || changed[lv] {
                    acc[lu] = Some(combine(acc[lu], (prog.edge_fn)(value[lv], deg[lv])));
                }
            }
            // ---- Mirror → master partials.
            let mut partials: Vec<AppMsg> = vec![Vec::new(); k];
            for lv in 0..n_local {
                if let Some(a) = acc[lv] {
                    let v = verts[lv];
                    let master = self.masters[v as usize] as usize;
                    if master != rank {
                        partials[master].push((v, a));
                        acc[lv] = None; // master-side combining only
                    }
                }
            }
            busy += t0.elapsed();
            // Frames from machines that are ahead of us arrived while we
            // were gathering; move them into the per-source queues so the
            // blocking exchange starts warm (same below, before every
            // blocking call that follows a compute section).
            let _ = ctx.try_drain_ready()?;
            let incoming = ctx.try_exchange(|dst| std::mem::take(&mut partials[dst]))?;
            let t1 = t_busy();
            for msg in incoming {
                for (v, a) in msg {
                    let lv = lid(v);
                    acc[lv] = Some(combine(acc[lv], a));
                }
            }
            // ---- Apply at masters; collect updates for mirrors.
            let mut updates: Vec<AppMsg> = vec![Vec::new(); k];
            let mut any_changed = false;
            changed.iter_mut().for_each(|c| *c = false);
            for lv in 0..n_local {
                let v = verts[lv];
                if self.masters[v as usize] as usize != rank {
                    continue;
                }
                let fresh = (prog.apply)(value[lv], acc[lv]);
                let moved = if prog.fixed_supersteps.is_some() {
                    true // PageRank pushes every superstep
                } else {
                    fresh != value[lv]
                };
                if fresh != value[lv] {
                    any_changed = true;
                    changed[lv] = true;
                }
                value[lv] = fresh;
                if moved {
                    for &rp in self.replicas.of(v) {
                        if rp as usize != rank {
                            updates[rp as usize].push((v, fresh));
                        }
                    }
                }
            }
            busy += t1.elapsed();
            let _ = ctx.try_drain_ready()?;
            let incoming = ctx.try_exchange(|dst| std::mem::take(&mut updates[dst]))?;
            let t2 = t_busy();
            for msg in incoming {
                for (v, x) in msg {
                    let lv = lid(v);
                    if value[lv] != x {
                        changed[lv] = true;
                    }
                    value[lv] = x;
                }
            }
            busy += t2.elapsed();
            // ---- Convergence.
            let done = match prog.fixed_supersteps {
                Some(n) => supersteps >= n,
                None => !ctx.try_all_reduce_any(any_changed)?,
            };
            if done {
                break;
            }
            assert!(supersteps < 100_000, "vertex program failed to converge");
        }
        // Return mastered values plus the superstep count (identical on
        // every machine thanks to the collective convergence check).
        let mastered = (0..n_local)
            .filter(|&lv| self.masters[verts[lv] as usize] as usize == rank)
            .map(|lv| (verts[lv], value[lv]))
            .collect();
        Ok(RankRun { mastered, supersteps, busy })
    }

    /// Run a vertex program to completion and report metrics + values.
    pub fn run(&self, prog: &VertexProgram) -> AppRun {
        let g = self.g;
        let outcome = self.cluster().run::<AppMsg, RankRun, _>(|ctx| {
            let rank = ctx.rank();
            self.run_rank(ctx, prog).unwrap_or_else(|e| {
                panic!("{}: transport failure on machine {rank}: {e}", prog.name)
            })
        });
        // Assemble global values (isolated vertices keep their init value).
        let mut values: Vec<f64> =
            (0..g.num_vertices()).map(|v| (prog.init)(v, 0, prog.param)).collect();
        for rr in &outcome.results {
            for &(v, x) in &rr.mastered {
                values[v as usize] = x;
            }
        }
        let supersteps = outcome.results.first().map(|rr| rr.supersteps).unwrap_or(0);
        let busy: Vec<Duration> = outcome.results.iter().map(|rr| rr.busy).collect();
        AppRun {
            name: prog.name.to_string(),
            supersteps,
            elapsed: outcome.elapsed,
            comm_bytes: outcome.comm.total_bytes(),
            comm_msgs: outcome.comm.total_msgs(),
            workload_balance: workload_balance(&busy),
            values,
            aggregate: None,
        }
    }

    /// One rank's share of the **adjacency kernel** that powers
    /// [`Engine::triangles`] and [`Engine::lcc`], over an explicit
    /// [`Ctx`] — fallible, like [`Engine::run_rank`].
    ///
    /// Three exchange rounds, all in exact `u64` arithmetic:
    ///
    /// 1. **fragments, mirror → master** — each partition's owned edges
    ///    induce a fragment of every endpoint's neighbor list; the
    ///    fragments of one vertex are disjoint across partitions (each
    ///    edge is owned exactly once), so the master's union is the exact
    ///    neighbor set, which it sorts;
    /// 2. **full lists, master → mirrors** — every replica ends up with
    ///    the complete sorted `N(v)` of its local vertices;
    /// 3. **counts, mirror → master** — each partition intersects
    ///    `N(u) ∩ N(v)` for its owned edges `(u, v)`, charging the count
    ///    to both endpoints; masters sum the per-partition charges. A
    ///    vertex's charge counts every triangle through it twice (once
    ///    per incident triangle edge), so the master halves it.
    ///
    /// A final all-reduce publishes `Σ_e |N(u) ∩ N(v)|` — three times the
    /// global triangle count — to every rank.
    pub fn run_triangles_rank(
        &self,
        ctx: &mut Ctx<AdjMsg>,
    ) -> Result<TriangleRankRun, TransportError> {
        let k = self.assignment.num_partitions() as usize;
        assert_eq!(ctx.nprocs(), k, "cluster size must equal the partition count");
        let rank = ctx.rank();
        let t_busy = std::time::Instant::now;
        let mut busy = Duration::ZERO;
        let my_edges = &self.edges_by_part[rank];
        let local = self.local_verts(rank);
        let lid = |v| local.get(v).expect("a replica's vertex is local") as usize;
        let verts: Vec<VertexId> = local.iter().collect();
        let n_local = verts.len();
        let t0 = t_busy();
        // Local adjacency fragments from the owned edges.
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n_local];
        for &(_, u, v) in my_edges {
            adj[lid(u)].push(v);
            adj[lid(v)].push(u);
        }
        // ---- Round 1: ship fragments to masters.
        let mut partials: Vec<AdjMsg> = vec![Vec::new(); k];
        for lv in 0..n_local {
            let v = verts[lv];
            if self.masters[v as usize] as usize != rank {
                partials[self.masters[v as usize] as usize].push((v, std::mem::take(&mut adj[lv])));
            }
        }
        busy += t0.elapsed();
        // As in `run_rank`: drain frames that arrived during the compute
        // section before each blocking exchange.
        let _ = ctx.try_drain_ready()?;
        let incoming = ctx.try_exchange(|dst| std::mem::take(&mut partials[dst]))?;
        let t1 = t_busy();
        for msg in incoming {
            for (v, frag) in msg {
                adj[lid(v)].extend(frag);
            }
        }
        // ---- Round 2: masters sort the full lists and broadcast them to
        // their mirrors.
        let mut updates: Vec<AdjMsg> = vec![Vec::new(); k];
        for lv in 0..n_local {
            let v = verts[lv];
            if self.masters[v as usize] as usize != rank {
                continue;
            }
            adj[lv].sort_unstable();
            debug_assert_eq!(adj[lv].len() as u64, self.g.degree(v), "fragments must be disjoint");
            for &rp in self.replicas.of(v) {
                if rp as usize != rank {
                    updates[rp as usize].push((v, adj[lv].clone()));
                }
            }
        }
        busy += t1.elapsed();
        let _ = ctx.try_drain_ready()?;
        let incoming = ctx.try_exchange(|dst| std::mem::take(&mut updates[dst]))?;
        let t2 = t_busy();
        for msg in incoming {
            for (v, full) in msg {
                adj[lid(v)] = full;
            }
        }
        // ---- Count common neighbors per owned edge (sorted-merge
        // intersection), charging both endpoints.
        let mut tri = vec![0u64; n_local];
        let mut triple_local = 0u64;
        for &(_, u, v) in my_edges {
            let (lu, lv) = (lid(u), lid(v));
            let t = sorted_intersection_count(&adj[lu], &adj[lv]);
            tri[lu] += t;
            tri[lv] += t;
            triple_local += t;
        }
        // ---- Round 3: ship the charges to masters.
        let mut partials: Vec<AdjMsg> = vec![Vec::new(); k];
        for lv in 0..n_local {
            let v = verts[lv];
            let master = self.masters[v as usize] as usize;
            if master != rank && tri[lv] > 0 {
                partials[master].push((v, vec![tri[lv]]));
            }
        }
        busy += t2.elapsed();
        let _ = ctx.try_drain_ready()?;
        let incoming = ctx.try_exchange(|dst| std::mem::take(&mut partials[dst]))?;
        let t3 = t_busy();
        for msg in incoming {
            for (v, charge) in msg {
                tri[lid(v)] += charge.iter().sum::<u64>();
            }
        }
        let mastered: Vec<(VertexId, u64)> = (0..n_local)
            .filter(|&lv| self.masters[verts[lv] as usize] as usize == rank)
            .map(|lv| {
                debug_assert_eq!(tri[lv] % 2, 0, "each triangle is charged twice per vertex");
                (verts[lv], tri[lv] / 2)
            })
            .collect();
        busy += t3.elapsed();
        let triple_total = ctx.try_all_reduce_sum_u64(triple_local)?;
        Ok(TriangleRankRun { mastered, triple_total, rounds: 3, busy })
    }

    /// Shared driver of the adjacency kernels: run the exact triangle
    /// count and map each master's `(count, degree)` to the kernel value.
    fn run_adjacency(&self, name: &'static str, map: fn(u64, u64) -> f64) -> AppRun {
        let g = self.g;
        let outcome = self.cluster().run::<AdjMsg, TriangleRankRun, _>(|ctx| {
            let rank = ctx.rank();
            self.run_triangles_rank(ctx)
                .unwrap_or_else(|e| panic!("{name}: transport failure on machine {rank}: {e}"))
        });
        // Vertices with no edges (isolated) score 0 in both kernels.
        let mut values: Vec<f64> = vec![0.0; g.num_vertices() as usize];
        for rr in &outcome.results {
            for &(v, t) in &rr.mastered {
                values[v as usize] = map(t, g.degree(v));
            }
        }
        let triple_total = outcome.results.first().map(|rr| rr.triple_total).unwrap_or(0);
        debug_assert_eq!(triple_total % 3, 0, "every triangle has exactly three edges");
        let rounds = outcome.results.first().map(|rr| rr.rounds).unwrap_or(0);
        let busy: Vec<Duration> = outcome.results.iter().map(|rr| rr.busy).collect();
        AppRun {
            name: name.to_string(),
            supersteps: rounds,
            elapsed: outcome.elapsed,
            comm_bytes: outcome.comm.total_bytes(),
            comm_msgs: outcome.comm.total_msgs(),
            workload_balance: workload_balance(&busy),
            values,
            aggregate: Some((triple_total / 3) as f64),
        }
    }

    /// Distributed exact triangle counting: `values[v]` is the number of
    /// triangles through `v` (an exact integer stored in f64), and
    /// [`AppRun::aggregate`] is the global triangle count
    /// (`Σ_v values[v] / 3` — each triangle has three corners).
    pub fn triangles(&self) -> AppRun {
        self.run_adjacency("Triangles", |t, _d| t as f64)
    }

    /// Distributed local clustering coefficient:
    /// `lcc(v) = 2·T(v) / (d(v)·(d(v)−1))` for `d(v) ≥ 2`, else 0 —
    /// always in `[0, 1]` on this simple undirected graph. Computed from
    /// the exact distributed triangle counts, with the final division as
    /// the single floating-point step (the same expression the reference
    /// evaluates).
    pub fn lcc(&self) -> AppRun {
        self.run_adjacency("LCC", lcc_value)
    }
}

/// The one floating-point expression of the LCC kernel, shared verbatim
/// with [`crate::apps::lcc_reference`] so distributed and reference values
/// round identically.
pub(crate) fn lcc_value(triangles: u64, degree: u64) -> f64 {
    if degree < 2 {
        0.0
    } else {
        (2.0 * triangles as f64) / ((degree * (degree - 1)) as f64)
    }
}

/// `|a ∩ b|` for sorted slices (merge scan).
fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `max/mean` of the per-machine busy times (1.0 when idle everywhere).
fn workload_balance(busy: &[Duration]) -> f64 {
    let secs: Vec<f64> = busy.iter().map(|b| b.as_secs_f64()).collect();
    let mean = secs.iter().sum::<f64>() / secs.len().max(1) as f64;
    let max = secs.iter().cloned().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;
    use dne_partition::hash_based::RandomPartitioner;
    use dne_partition::EdgePartitioner;

    fn engine_fixture(k: u32) -> (Graph, EdgeAssignment) {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 5));
        let a = RandomPartitioner::new(5).partition(&g, k);
        (g, a)
    }

    #[test]
    fn masters_are_valid_replicas() {
        let (g, a) = engine_fixture(4);
        let engine = Engine::new(&g, &a);
        for v in g.vertices() {
            let m = engine.masters[v as usize];
            if g.degree(v) == 0 {
                assert_eq!(m, PartitionId::MAX, "isolated vertex {v} must have no master");
            } else {
                assert!(
                    engine.replicas.of(v).contains(&m),
                    "master of {v} must be one of its replicas"
                );
            }
        }
    }

    #[test]
    fn single_partition_runs_without_communication_overhead() {
        let (g, a0) = engine_fixture(1);
        let engine = Engine::new(&g, &a0);
        let run = engine.wcc();
        // One machine: mirror→master and master→mirror rounds carry nothing.
        assert_eq!(run.comm_bytes, 0, "k=1 must be communication-free");
        assert!(run.supersteps >= 1);
        // The adjacency kernel's all-reduce is also free at k=1.
        assert_eq!(engine.triangles().comm_bytes, 0, "k=1 triangles must be communication-free");
    }

    #[test]
    fn workload_balance_at_least_one() {
        let (g, a) = engine_fixture(4);
        let run = Engine::new(&g, &a).pagerank(3);
        assert!(run.workload_balance >= 1.0 - 1e-9);
    }

    #[test]
    fn triangle_charges_are_consistent() {
        let (g, a) = engine_fixture(4);
        let run = Engine::new(&g, &a).triangles();
        let total = run.aggregate.expect("triangles publishes an aggregate");
        let per_vertex: f64 = run.values.iter().sum();
        assert_eq!(per_vertex, 3.0 * total, "each triangle has three corners");
        assert!(run.comm_msgs > 0, "k=4 must communicate");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_assignment() {
        let g1 = gen::cycle(10);
        let g2 = gen::cycle(20);
        let a = RandomPartitioner::new(1).partition(&g1, 2);
        let _ = Engine::new(&g2, &a);
    }
}
