//! The simulated cluster: spawn P "machines", wire them together with one
//! mesh of the selected transport backend, run a per-rank closure, join
//! the results.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::collectives::{CollectiveTopology, Collectives, PendingGather};
use crate::comm::CommEndpoint;
use crate::memory::{MemoryReport, MemoryTracker};
use crate::stats::CommStats;
use crate::transport::{BatchConfig, TransportError, TransportKind};
use crate::wire::{WireDecode, WireEncode};

/// Handle given to each simulated machine: its rank, its one endpoint of
/// the interconnect, the collective schedule run over it, and the
/// accounting hooks.
///
/// Every messaging primitive comes in two flavors: a `try_`-prefixed
/// fallible form returning `Result<_, TransportError>` (what per-rank
/// algorithm code in a real multi-process cluster uses, so a dead peer
/// aborts the rank with an attributable error), and an infallible
/// convenience form that panics with the typed error's message — fine for
/// in-process simulations, where a failed rank takes the run down anyway.
pub struct Ctx<M> {
    comm: CommEndpoint<M>,
    coll: Collectives,
    mem: Arc<MemoryTracker>,
}

impl<M: Send + WireEncode + WireDecode + 'static> Ctx<M> {
    /// Assemble a context from its parts — how a worker process in a real
    /// multi-process cluster (see [`crate::tcp::TcpProcessCluster`])
    /// builds the same handle that in-process `Cluster::run` closures
    /// receive.
    pub fn from_parts(comm: CommEndpoint<M>, coll: Collectives, mem: Arc<MemoryTracker>) -> Self {
        Self { comm, coll, mem }
    }

    /// This machine's rank in `0..nprocs`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of machines in the cluster.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.comm.nprocs()
    }

    fn bail(&self, e: TransportError) -> ! {
        panic!("rank {}: transport failure: {e}", self.rank())
    }

    /// Point-to-point send (FIFO per link, byte-accounted).
    #[inline]
    pub fn try_send(&self, dst: usize, msg: M) -> Result<(), TransportError> {
        self.comm.send(dst, msg)
    }

    /// Infallible [`Ctx::try_send`]; panics on transport failure.
    #[inline]
    pub fn send(&self, dst: usize, msg: M) {
        self.try_send(dst, msg).unwrap_or_else(|e| self.bail(e));
    }

    /// Blocking receive of the next message from any peer.
    #[inline]
    pub fn try_recv(&self) -> Result<(usize, M), TransportError> {
        self.comm.recv()
    }

    /// Infallible [`Ctx::try_recv`]; panics on transport failure.
    #[inline]
    pub fn recv(&self) -> (usize, M) {
        self.try_recv().unwrap_or_else(|e| self.bail(e))
    }

    /// Push every buffered (coalesced) point-to-point envelope onto the
    /// wire now. A no-op when `DNE_COMM_BATCH` is off; every blocking
    /// receive primitive flushes implicitly, so explicit calls are only
    /// needed when a round's sends must depart before unrelated local
    /// work.
    #[inline]
    pub fn try_flush(&self) -> Result<(), TransportError> {
        self.comm.flush()
    }

    /// Drain every already-deliverable inbound envelope — point-to-point
    /// *and* collective — into this rank's buffers without blocking,
    /// returning how many arrived. The eager-recv half of an overlapped
    /// round: call it mid-computation so frames are decoded while the CPU
    /// would otherwise idle in the next blocking collect.
    pub fn try_drain_ready(&mut self) -> Result<usize, TransportError> {
        self.comm.drain_ready()
    }

    /// Begin an all-gather without collecting it (see
    /// [`Collectives::start_all_gather_u64`]): the send phase departs now,
    /// the caller computes while peers' contributions arrive, then calls
    /// [`Ctx::try_finish_all_gather_u64`]. Results and accounting are
    /// bit-identical to the one-shot [`Ctx::try_all_gather_u64`].
    #[inline]
    pub fn try_start_all_gather_u64(
        &mut self,
        value: u64,
    ) -> Result<PendingGather, TransportError> {
        self.coll.start_all_gather_u64(&self.comm, value)
    }

    /// Complete an all-gather begun by [`Ctx::try_start_all_gather_u64`].
    #[inline]
    pub fn try_finish_all_gather_u64(
        &mut self,
        pending: PendingGather,
    ) -> Result<Vec<u64>, TransportError> {
        self.coll.finish_all_gather_u64(&self.comm, pending)
    }

    /// Lock-step all-to-all: send one message to every rank (produced by
    /// `make(dst)`), then receive exactly one from every rank, returned
    /// indexed by source. The workhorse primitive of every iterative
    /// algorithm in this workspace; see module docs for why back-to-back
    /// exchanges are race-free.
    pub fn try_exchange(
        &mut self,
        mut make: impl FnMut(usize) -> M,
    ) -> Result<Vec<M>, TransportError> {
        for dst in 0..self.nprocs() {
            self.comm.send(dst, make(dst))?;
        }
        self.comm.recv_one_from_each()
    }

    /// Infallible [`Ctx::try_exchange`]; panics on transport failure.
    pub fn exchange(&mut self, make: impl FnMut(usize) -> M) -> Vec<M> {
        match self.try_exchange(make) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// MPI-style barrier across all machines.
    #[inline]
    pub fn try_barrier(&mut self) -> Result<(), TransportError> {
        self.try_all_gather_u64(0).map(drop)
    }

    /// Infallible [`Ctx::try_barrier`]; panics on transport failure.
    #[inline]
    pub fn barrier(&mut self) {
        self.try_barrier().unwrap_or_else(|e| self.bail(e));
    }

    /// All-gather one `u64` per machine, returned indexed by rank —
    /// identical under every topology. Every reduction below is a fold of
    /// this vector in rank order, which is what makes them bit-identical
    /// across topologies (`f64` sums included).
    #[inline]
    pub fn try_all_gather_u64(&mut self, value: u64) -> Result<Vec<u64>, TransportError> {
        let pending = self.try_start_all_gather_u64(value)?;
        self.try_finish_all_gather_u64(pending)
    }

    /// Infallible [`Ctx::try_all_gather_u64`]; panics on transport failure.
    #[inline]
    pub fn all_gather_u64(&mut self, value: u64) -> Vec<u64> {
        match self.try_all_gather_u64(value) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// Sum-reduce a `u64` across machines (paper's `AllGatherSum`).
    #[inline]
    pub fn try_all_reduce_sum_u64(&mut self, value: u64) -> Result<u64, TransportError> {
        Ok(self.try_all_gather_u64(value)?.iter().sum())
    }

    /// Infallible [`Ctx::try_all_reduce_sum_u64`]; panics on failure.
    #[inline]
    pub fn all_reduce_sum_u64(&mut self, value: u64) -> u64 {
        match self.try_all_reduce_sum_u64(value) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// Max-reduce a `u64` across machines.
    #[inline]
    pub fn try_all_reduce_max_u64(&mut self, value: u64) -> Result<u64, TransportError> {
        Ok(self.try_all_gather_u64(value)?.into_iter().max().unwrap_or(0))
    }

    /// Infallible [`Ctx::try_all_reduce_max_u64`]; panics on failure.
    #[inline]
    pub fn all_reduce_max_u64(&mut self, value: u64) -> u64 {
        match self.try_all_reduce_max_u64(value) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// Sum-reduce an `f64` across machines (transported via bit pattern).
    #[inline]
    pub fn try_all_reduce_sum_f64(&mut self, value: f64) -> Result<f64, TransportError> {
        Ok(self.try_all_gather_u64(value.to_bits())?.iter().map(|&b| f64::from_bits(b)).sum())
    }

    /// Infallible [`Ctx::try_all_reduce_sum_f64`]; panics on failure.
    #[inline]
    pub fn all_reduce_sum_f64(&mut self, value: f64) -> f64 {
        match self.try_all_reduce_sum_f64(value) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// OR-reduce a `bool` across machines.
    #[inline]
    pub fn try_all_reduce_any(&mut self, value: bool) -> Result<bool, TransportError> {
        Ok(self.try_all_reduce_sum_u64(value as u64)? > 0)
    }

    /// Infallible [`Ctx::try_all_reduce_any`]; panics on failure.
    #[inline]
    pub fn all_reduce_any(&mut self, value: bool) -> bool {
        match self.try_all_reduce_any(value) {
            Ok(v) => v,
            Err(e) => self.bail(e),
        }
    }

    /// Report this machine's current live heap bytes (mem-score snapshot).
    #[inline]
    pub fn report_memory(&self, live_bytes: usize) {
        self.mem.report(self.rank(), live_bytes);
    }
}

/// Everything a cluster run produces: per-rank results plus accounting.
#[derive(Debug)]
pub struct ClusterOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Communication accounting for the whole run.
    pub comm: Arc<CommStats>,
    /// Peak-memory accounting for the whole run.
    pub memory: MemoryReport,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
}

/// Factory for simulated cluster runs.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    nprocs: usize,
    transport: TransportKind,
    /// `None` resolves `DNE_COLLECTIVES` lazily at [`Cluster::run`] time,
    /// so an explicit [`Cluster::with_collectives`] choice never touches
    /// (and can never be broken by) the environment.
    collectives: Option<CollectiveTopology>,
    /// `None` resolves `DNE_COMM_BATCH` lazily at [`Cluster::run`] time —
    /// the same pattern as `collectives`. Applies to point-to-point
    /// messages only; collective blocks are never coalesced (their cost
    /// model is exact per-message).
    comm_batch: Option<BatchConfig>,
}

impl Cluster {
    /// A cluster of `nprocs` simulated machines (`nprocs >= 1`) on the
    /// transport selected by the `DNE_TRANSPORT` environment variable
    /// (loopback when unset — see [`TransportKind::from_env`]) and the
    /// collective topology selected by `DNE_COLLECTIVES` (flat when unset
    /// — see [`CollectiveTopology::from_env`]).
    pub fn new(nprocs: usize) -> Self {
        Self::with_transport(nprocs, TransportKind::from_env())
    }

    /// A cluster of `nprocs` simulated machines on an explicit backend.
    /// The collective topology resolves from `DNE_COLLECTIVES` at run
    /// time; override it with [`Cluster::with_collectives`].
    pub fn with_transport(nprocs: usize, transport: TransportKind) -> Self {
        assert!(nprocs >= 1, "cluster needs at least one machine");
        Self { nprocs, transport, collectives: None, comm_batch: None }
    }

    /// Select the collective aggregation topology explicitly (overrides
    /// `DNE_COLLECTIVES`, which is then never consulted). Results are
    /// bit-identical under every topology; only the collectives'
    /// message/byte schedule changes.
    pub fn with_collectives(mut self, collectives: CollectiveTopology) -> Self {
        self.collectives = Some(collectives);
        self
    }

    /// Number of machines.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The transport backend this cluster runs on.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// The collective topology a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_COLLECTIVES` says right now.
    pub fn collectives(&self) -> CollectiveTopology {
        self.collectives.unwrap_or_else(CollectiveTopology::from_env)
    }

    /// Select the point-to-point send-coalescing policy explicitly
    /// (overrides `DNE_COMM_BATCH`, which is then never consulted).
    /// Results — and logical message/byte accounting — are bit-identical
    /// with batching on or off; only physical frame counts (and wall
    /// time) change.
    pub fn with_comm_batch(mut self, batch: BatchConfig) -> Self {
        self.comm_batch = Some(batch);
        self
    }

    /// The coalescing policy a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_COMM_BATCH` says right now.
    pub fn comm_batch(&self) -> BatchConfig {
        self.comm_batch.unwrap_or_else(BatchConfig::from_env)
    }

    /// Run `f` on every machine in parallel and join the results.
    ///
    /// `M` is the message type of the run's interconnect; `f` receives a
    /// mutable [`Ctx`] and may borrow from the caller's stack (scoped
    /// threads), which is how the partitioners share one immutable `&Graph`
    /// across machines without `Arc`.
    ///
    /// # Panics
    /// Propagates a panic from any machine.
    pub fn run<M, R, F>(&self, f: F) -> ClusterOutcome<R>
    where
        M: Send + WireEncode + WireDecode + 'static,
        R: Send,
        F: Fn(&mut Ctx<M>) -> R + Sync,
    {
        let stats = CommStats::new(self.nprocs);
        let mem = MemoryTracker::new(self.nprocs);
        let topology = self.collectives();
        let endpoints = CommEndpoint::<M>::fabric(
            self.transport,
            self.nprocs,
            self.comm_batch(),
            Arc::clone(&stats),
        );
        let start = Instant::now();
        let results: Vec<R> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.nprocs);
            for comm in endpoints {
                let coll = Collectives::new(topology, comm.rank(), self.nprocs);
                let mem = Arc::clone(&mem);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut ctx = Ctx::from_parts(comm, coll, mem);
                    f(&mut ctx)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let elapsed = start.elapsed();
        ClusterOutcome { results, comm: stats, memory: mem.report_summary(), elapsed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TransportKind; 3] = TransportKind::ALL;
    const TOPOLOGIES: [CollectiveTopology; 3] = CollectiveTopology::ALL;

    /// Run the same cluster program on every (transport × topology) pair.
    fn on_all(nprocs: usize, f: impl Fn(&mut Ctx<u64>) + Sync) {
        for kind in ALL {
            for topo in TOPOLOGIES {
                Cluster::with_transport(nprocs, kind).with_collectives(topo).run::<u64, _, _>(&f);
            }
        }
    }

    #[test]
    fn run_returns_rank_indexed_results() {
        let out = Cluster::new(4).run::<u64, _, _>(|ctx| ctx.rank() * 2);
        assert_eq!(out.results, vec![0, 2, 4, 6]);
    }

    #[test]
    fn exchange_is_all_to_all() {
        on_all(3, |ctx| {
            let rank = ctx.rank();
            // Everyone sends (own rank * 100 + dst) to each dst.
            let got = ctx.exchange(|dst| (rank * 100 + dst) as u64);
            // From src we must get src*100 + our rank.
            let want: Vec<u64> = (0..3).map(|src| (src * 100 + rank) as u64).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn repeated_exchanges_stay_aligned() {
        on_all(4, |ctx| {
            for round in 0..100u64 {
                let got = ctx.exchange(|_| round);
                assert!(got.iter().all(|&r| r == round));
            }
        });
    }

    #[test]
    fn collectives_work_inside_run() {
        let out = Cluster::new(5).run::<u64, _, _>(|ctx| {
            let total = ctx.all_reduce_sum_u64(ctx.rank() as u64);
            assert_eq!(total, 10);
            ctx.barrier();
            total
        });
        assert!(out.results.iter().all(|&t| t == 10));
    }

    #[test]
    fn memory_and_comm_accounting_flow_through() {
        for kind in ALL {
            for topo in TOPOLOGIES {
                let out = Cluster::with_transport(2, kind).with_collectives(topo).run::<u64, _, _>(
                    |ctx| {
                        ctx.report_memory(1000 * (ctx.rank() + 1));
                        ctx.barrier();
                        if ctx.rank() == 0 {
                            ctx.send(1, 7);
                        } else {
                            let (src, v) = ctx.recv();
                            assert_eq!((src, v), (0, 7));
                        }
                    },
                );
                assert_eq!(out.memory.peak_total_bytes, 3000);
                // One point-to-point u64 (8 bytes) plus one barrier at the
                // topology's published per-collective cost — identical on
                // every transport backend.
                let (coll_bytes, _) = topo.total_traffic(2);
                assert_eq!(out.comm.total_bytes(), 8 + coll_bytes, "{kind}/{topo}");
                assert_eq!(out.comm.total_collective_rounds(), 2, "{kind}/{topo}");
            }
        }
    }

    #[test]
    fn single_machine_cluster() {
        let out = Cluster::new(1).run::<u64, _, _>(|ctx| {
            let v = ctx.exchange(|_| 42u64);
            assert_eq!(v, vec![42]);
            ctx.all_reduce_sum_u64(5)
        });
        assert_eq!(out.results, vec![5]);
    }

    #[test]
    fn byte_accounting_agrees_across_backends() {
        // The codec's estimate==actual invariant, observed end-to-end: the
        // same program must charge the same bytes on every transport (the
        // topology is held fixed; per-topology costs are covered by the
        // collectives tests and the equivalence harness).
        let totals: Vec<u64> = ALL
            .into_iter()
            .map(|kind| {
                let out = Cluster::with_transport(3, kind)
                    .with_collectives(CollectiveTopology::RecursiveDoubling)
                    .run::<Vec<(u64, f64)>, _, _>(|ctx| {
                        let rank = ctx.rank() as u64;
                        for round in 0..5 {
                            let got = ctx.exchange(|_dst| {
                                (0..round + rank).map(|i| (i, i as f64 * 0.5)).collect()
                            });
                            assert_eq!(got.len(), 3);
                            ctx.barrier();
                        }
                        ctx.all_reduce_sum_u64(1)
                    });
                out.comm.total_bytes()
            })
            .collect();
        assert!(totals[0] > 0);
        assert_eq!(totals[0], totals[1], "loopback estimate must equal bytes actual");
        assert_eq!(totals[0], totals[2], "loopback estimate must equal tcp actual");
    }

    #[test]
    fn comm_batch_keeps_accounting_and_results_identical() {
        // The same program under an explicit batch policy: identical
        // results, logical msgs, and bytes; strictly fewer frames on the
        // backends that have frames. The program sends ten envelopes per
        // destination before its first receive (the flush point), which
        // is the traffic shape coalescing exists for.
        for kind in ALL {
            let run = |batch: BatchConfig| {
                Cluster::with_transport(3, kind)
                    .with_collectives(CollectiveTopology::Flat)
                    .with_comm_batch(batch)
                    .run::<u64, _, _>(|ctx| {
                        let rank = ctx.rank() as u64;
                        let me = ctx.rank();
                        for dst in (0..ctx.nprocs()).filter(|&d| d != me) {
                            for i in 0..10u64 {
                                ctx.send(dst, rank * 1000 + i);
                            }
                        }
                        let mut acc = 0;
                        for _ in 0..10 * (ctx.nprocs() - 1) {
                            let (_, v) = ctx.recv();
                            acc += v;
                        }
                        ctx.all_reduce_sum_u64(acc)
                    })
            };
            let plain = run(BatchConfig::disabled());
            let batched = run(BatchConfig::msgs(64));
            assert_eq!(plain.results, batched.results, "{kind}: results invariant");
            assert_eq!(plain.comm.total_msgs(), batched.comm.total_msgs(), "{kind}: msgs");
            assert_eq!(plain.comm.total_bytes(), batched.comm.total_bytes(), "{kind}: bytes");
            let (frames, unbatched) = (batched.comm.total_frames(), plain.comm.total_frames());
            if kind == TransportKind::Loopback {
                // No codec, no frames to coalesce: the policy is ignored.
                assert_eq!(frames, unbatched, "{kind}: frames == inter-rank envelopes");
            } else {
                assert!(
                    frames < unbatched,
                    "{kind}: coalescing must reduce physical frames ({frames} vs {unbatched})"
                );
            }
        }
    }

    #[test]
    fn split_gather_overlaps_inside_a_run() {
        for kind in ALL {
            for topo in TOPOLOGIES {
                let out = Cluster::with_transport(3, kind).with_collectives(topo).run::<u64, _, _>(
                    |ctx| {
                        let mut total = 0;
                        for round in 0..5u64 {
                            let pending =
                                ctx.try_start_all_gather_u64(ctx.rank() as u64 + round).unwrap();
                            // Overlapped "computation" with an eager drain.
                            let _ = ctx.try_drain_ready().unwrap();
                            let got = ctx.try_finish_all_gather_u64(pending).unwrap();
                            total += got.iter().sum::<u64>();
                        }
                        total
                    },
                );
                // Per round: (0+1+2) + 3*round, summed over rounds 0..5.
                let want = (0..5u64).map(|r| 3 + 3 * r).sum::<u64>();
                assert!(out.results.iter().all(|&t| t == want), "{kind}/{topo}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_machines_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn explicit_topology_wins_over_the_environment() {
        // An explicit with_collectives choice must hold whatever
        // DNE_COLLECTIVES the surrounding run exports (construction never
        // reads the variable, so even an invalid value cannot break a
        // pinned cluster — the env is only consulted lazily when unset).
        for topo in TOPOLOGIES {
            let c = Cluster::with_transport(2, TransportKind::Loopback).with_collectives(topo);
            assert_eq!(c.collectives(), topo);
        }
    }
}
