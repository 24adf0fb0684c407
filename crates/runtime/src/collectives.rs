//! MPI-style collectives: barrier, all-gather, all-reduce — over pluggable
//! aggregation topologies.
//!
//! Algorithm 1 of the paper uses `Barrier()` (line 9) and
//! `AllGatherSum(|Ep|)` (line 14) every iteration; the application engine
//! uses all-reduce for convergence/frontier checks. Collectives are built
//! as *real traffic* over the same [`Transport`] fabric as point-to-point
//! messages, so every backend (loopback / bytes / tcp) gets every topology
//! for free.
//!
//! # Topologies
//!
//! Three interchangeable [`CollectiveTopology`] implementations move the
//! same rank-indexed word vector; they differ only in schedule:
//!
//! * [`CollectiveTopology::Flat`] — the reference: every rank sends its
//!   one-word contribution to every peer and collects one word from each
//!   (the self-send is free and keeps indexing uniform). Depth 1, but
//!   `P − 1` messages and `8·(P−1)` bytes per rank per collective.
//! * [`CollectiveTopology::Binomial`] — a binomial-tree gather to rank 0
//!   followed by a binomial-tree broadcast of the assembled vector:
//!   depth `2·⌈log₂P⌉`, and only `2·(P−1)` messages *in total* per
//!   collective. The logarithmic-depth aggregation "Partitioning
//!   Trillion-edge Graphs in Minutes" leans on.
//! * [`CollectiveTopology::RecursiveDoubling`] — partner exchanges over
//!   rank distance `2^i`, doubling the gathered block each round: depth
//!   `⌈log₂P⌉` with `log₂P` messages and (at power-of-two `P`) exactly
//!   the flat `8·(P−1)` bytes per rank. Non-power-of-two `P` folds the
//!   surplus ranks into neighbors in a pre-step and unfolds them in a
//!   post-step — the classic recursive-doubling edge case, covered by
//!   property tests.
//!
//! Every reduction (`sum`, `max`, `any`, `f64` sum) is a fold of the
//! all-gathered vector *in rank order*, identical code under every
//! topology — which is what makes results (including `f64` sums, where
//! association order changes bits) **bit-identical** across topologies.
//!
//! # Wire format and accounting
//!
//! Collective rounds travel as [`CollMsg`]: a packed block of `u64` words
//! with *no* length prefix (the frame's payload length already determines
//! the word count), so a one-word flat round costs exactly 8 wire bytes —
//! the same accounting as before topologies existed. Exact per-rank costs
//! for every topology are published by
//! [`CollectiveTopology::rank_traffic`] /
//! [`CollectiveTopology::total_traffic`], the single source of truth the
//! unit, property, and equivalence tests check measured [`CommStats`]
//! against (closed forms are documented in `ARCHITECTURE.md`).
//!
//! Round alignment comes from the same argument as
//! [`crate::Ctx::exchange`]: per-link FIFO order plus a deterministic
//! per-topology schedule (each receive names its source) keeps
//! back-to-back collectives race-free even when peers run ahead.
//!
//! Topology selection mirrors transport selection: the `DNE_COLLECTIVES`
//! environment variable (`flat` | `tree` | `recursive-doubling`), or
//! explicit [`crate::Cluster::with_collectives`] /
//! `NeConfig::with_collectives` / `Engine::with_collectives` plumbing.
//!
//! Transport failures surface as a [`TransportError`] from the collective
//! call rather than a panic inside the runtime. On the tcp backend that
//! includes a peer dying mid-collective (its socket closes without the
//! goodbye frame); on the in-process channel backends a vanished peer can
//! only be a sibling thread already unwinding the whole run, and is
//! reported once the fabric is torn down.

use std::sync::Arc;

use crate::comm::CommEndpoint;
use crate::stats::CommStats;
use crate::transport::{BatchConfig, Transport, TransportError, TransportKind};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireSize};

/// Wire message of the collectives fabric: a packed block of `u64` words
/// with **no** length prefix. The enclosing frame already carries the
/// payload length, so the word count is `payload_len / 8` — a one-word
/// collective round costs exactly 8 wire bytes. Because decoding consumes
/// the whole remaining input, `CollMsg` is only valid as a frame's entire
/// payload, never as a field of a larger message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollMsg(pub Vec<u64>);

impl WireSize for CollMsg {
    #[inline]
    fn wire_bytes(&self) -> usize {
        8 * self.0.len()
    }
}

impl WireEncode for CollMsg {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        u64::encode_slice(&self.0, buf);
    }
}

impl WireDecode for CollMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rem = r.remaining();
        if !rem.is_multiple_of(8) {
            // A word block can never leave a partial word.
            return Err(WireError::Truncated { needed: rem + (8 - rem % 8), available: rem });
        }
        Ok(CollMsg(u64::decode_slice(r, rem / 8)?))
    }
}

/// The names `CollectiveTopology::from_str` accepts, for error messages.
const TOPOLOGY_NAMES: &str = "\"flat\", \"tree\", or \"recursive-doubling\"";

/// Which aggregation topology a cluster run's collectives use.
///
/// All topologies produce bit-identical results (the reductions fold the
/// same rank-indexed vector in the same order); they trade message count,
/// bytes, and latency depth differently — see the module docs and the
/// exact cost model in [`CollectiveTopology::rank_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveTopology {
    /// Flat all-gather: every rank sends one word to every peer. Depth 1;
    /// `P − 1` messages and `8·(P−1)` bytes per rank. The reference.
    #[default]
    Flat,
    /// Binomial tree: gather the words to rank 0, broadcast the assembled
    /// vector back down. Depth `2·⌈log₂P⌉`; `2·(P−1)` messages in total.
    Binomial,
    /// Recursive doubling: partner exchanges at doubling rank distance.
    /// Depth `⌈log₂P⌉` (+2 at non-power-of-two `P`); `log₂P` messages and
    /// `8·(P−1)` bytes per rank at power-of-two `P`.
    RecursiveDoubling,
}

impl CollectiveTopology {
    /// Environment variable consulted by [`CollectiveTopology::from_env`].
    pub const ENV_VAR: &'static str = "DNE_COLLECTIVES";

    /// Every topology, in definition order — the canonical list invariance
    /// tests iterate, so adding a topology cannot silently drop it from a
    /// test suite that hand-copied the roster.
    pub const ALL: [CollectiveTopology; 3] = [
        CollectiveTopology::Flat,
        CollectiveTopology::Binomial,
        CollectiveTopology::RecursiveDoubling,
    ];

    /// Read the topology from `DNE_COLLECTIVES` (`flat` | `tree` |
    /// `recursive-doubling`, case-insensitive, surrounding whitespace
    /// ignored). Unset or empty means [`CollectiveTopology::Flat`].
    ///
    /// # Panics
    /// Panics on an unrecognized or non-Unicode value, naming the valid
    /// topologies — a misconfigured run (`DNE_COLLECTIVES=trees`) must
    /// fail loudly before it silently measures the wrong topology.
    pub fn from_env() -> Self {
        crate::env_knob(Self::ENV_VAR, TOPOLOGY_NAMES, || CollectiveTopology::Flat, str::parse)
    }

    /// Exact `(bytes, messages)` one collective charges to `rank` in a
    /// `p`-rank fabric. This is the published cost model: the execution
    /// schedules below move exactly these quantities, and the test suites
    /// assert measured [`CommStats`] against sums of this function.
    /// Self-sends (flat topology only) are free and not counted, matching
    /// [`CommEndpoint`]'s accounting policy.
    pub fn rank_traffic(self, rank: usize, p: usize) -> (u64, u64) {
        assert!(rank < p, "rank {rank} out of range for {p} ranks");
        if p == 1 {
            return (0, 0);
        }
        match self {
            CollectiveTopology::Flat => (8 * (p as u64 - 1), p as u64 - 1),
            CollectiveTopology::Binomial => {
                let relay_rounds =
                    if rank == 0 { ceil_log2(p) } else { rank.trailing_zeros() as usize };
                let mut bytes = 0u64;
                let mut msgs = 0u64;
                if rank != 0 {
                    // One gather send: this rank's whole subtree block.
                    let subtree = (1usize << relay_rounds).min(p - rank);
                    bytes += 8 * subtree as u64;
                    msgs += 1;
                }
                // One full-vector broadcast send per child in range.
                for i in 0..relay_rounds {
                    if rank + (1usize << i) < p {
                        bytes += 8 * p as u64;
                        msgs += 1;
                    }
                }
                (bytes, msgs)
            }
            CollectiveTopology::RecursiveDoubling => {
                let p2 = prev_pow2(p);
                let rem = p - p2;
                let rounds = p2.trailing_zeros() as usize;
                if rank < 2 * rem && rank.is_multiple_of(2) {
                    // Folded rank: one pre-step word, then it only receives.
                    return (8, 1);
                }
                let eff = if rank < 2 * rem { rank / 2 } else { rank - rem };
                let mut bytes = 0u64;
                let mut msgs = 0u64;
                for i in 0..rounds {
                    let size = 1usize << i;
                    let start = eff & !(size - 1);
                    // Block words: one per effective rank, two for each
                    // effective rank that absorbed a folded neighbor.
                    let words = size + rem.saturating_sub(start).min(size);
                    bytes += 8 * words as u64;
                    msgs += 1;
                }
                if rank < 2 * rem {
                    // Post-step: hand the finished vector back to the
                    // folded even neighbor.
                    bytes += 8 * p as u64;
                    msgs += 1;
                }
                (bytes, msgs)
            }
        }
    }

    /// `(bytes, messages)` one collective moves across *all* ranks —
    /// the sum of [`CollectiveTopology::rank_traffic`] over `0..p`.
    pub fn total_traffic(self, p: usize) -> (u64, u64) {
        (0..p).map(|r| self.rank_traffic(r, p)).fold((0, 0), |(b, m), (rb, rm)| (b + rb, m + rm))
    }
}

impl std::str::FromStr for CollectiveTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "flat" => Ok(CollectiveTopology::Flat),
            "tree" | "binomial" => Ok(CollectiveTopology::Binomial),
            "recursive-doubling" | "rd" => Ok(CollectiveTopology::RecursiveDoubling),
            other => {
                Err(format!("unknown collective topology {other:?} (expected {TOPOLOGY_NAMES})"))
            }
        }
    }
}

impl std::fmt::Display for CollectiveTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CollectiveTopology::Flat => "flat",
            CollectiveTopology::Binomial => "tree",
            CollectiveTopology::RecursiveDoubling => "recursive-doubling",
        })
    }
}

/// Largest power of two `<= p` (`p >= 1`).
fn prev_pow2(p: usize) -> usize {
    1 << (usize::BITS - 1 - p.leading_zeros())
}

/// Smallest `d` with `2^d >= p` (`p >= 1`).
fn ceil_log2(p: usize) -> usize {
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// Check an incoming collective block has the word count the schedule
/// demands — a mismatch means a diverged or corrupt peer, reported as a
/// typed framing error attributed to its sender, never a panic.
fn expect_words(msg: CollMsg, want: usize, src: usize) -> Result<Vec<u64>, TransportError> {
    if msg.0.len() != want {
        return Err(TransportError::Frame {
            src: Some(src),
            detail: format!(
                "collective block of {} words arrived where the schedule expects {want}",
                msg.0.len()
            ),
        });
    }
    Ok(msg.0)
}

/// An all-gather whose send phase has been posted but whose collect has
/// not run yet — the in-flight handle of an overlapped (double-buffered)
/// round. Produced by [`Collectives::start_all_gather_u64`], consumed by
/// [`Collectives::finish_all_gather_u64`].
#[derive(Debug)]
#[must_use = "an in-flight all-gather must be finished or the next collective will misalign"]
pub struct PendingGather {
    value: u64,
}

/// Per-rank collective-communication endpoint for one cluster run.
pub struct Collectives {
    comm: CommEndpoint<CollMsg>,
    topology: CollectiveTopology,
    stats: Arc<CommStats>,
}

impl Collectives {
    /// Build the `n` connected collective endpoints of a run at once,
    /// sharing the run's byte accounting and aggregation topology.
    pub fn fabric(
        kind: TransportKind,
        topology: CollectiveTopology,
        n: usize,
        stats: Arc<CommStats>,
    ) -> Vec<Collectives> {
        // Collectives always run unbatched: their cost model publishes
        // exact per-rank frame-per-message traffic, and a one-word block
        // gains nothing from coalescing anyway.
        CommEndpoint::fabric(kind, n, BatchConfig::disabled(), Arc::clone(&stats))
            .into_iter()
            .map(|comm| Collectives { comm, topology, stats: Arc::clone(&stats) })
            .collect()
    }

    /// Wrap a single already-connected transport endpoint — how a worker
    /// process in a real multi-process cluster (see [`crate::tcp`])
    /// builds its collectives handle.
    pub fn from_transport(
        link: Box<dyn Transport<CollMsg>>,
        topology: CollectiveTopology,
        stats: Arc<CommStats>,
    ) -> Collectives {
        Collectives {
            comm: CommEndpoint::from_transport(link, Arc::clone(&stats)),
            topology,
            stats,
        }
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of participants.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.comm.nprocs()
    }

    /// The aggregation topology this endpoint runs.
    #[inline]
    pub fn topology(&self) -> CollectiveTopology {
        self.topology
    }

    /// All-gather: contribute `value`, receive the full vector of
    /// contributions indexed by rank — identical under every topology.
    pub fn all_gather_u64(&mut self, value: u64) -> Result<Vec<u64>, TransportError> {
        let pending = self.start_all_gather_u64(value)?;
        self.finish_all_gather_u64(pending)
    }

    /// Begin an all-gather without collecting it: the collective round is
    /// recorded and every send the schedule can post *before any receive*
    /// goes out now — the whole send phase on the flat topology; nothing
    /// on the tree schedules, whose first sends depend on received
    /// blocks. The caller overlaps computation with the in-flight round,
    /// then calls [`Collectives::finish_all_gather_u64`]. One `start`
    /// must be finished before the next collective begins; results and
    /// accounting are bit-identical to the one-shot
    /// [`Collectives::all_gather_u64`] (which is itself start + finish).
    pub fn start_all_gather_u64(&mut self, value: u64) -> Result<PendingGather, TransportError> {
        self.stats.record_collective(self.rank());
        if self.topology == CollectiveTopology::Flat {
            for dst in 0..self.nprocs() {
                self.comm.send(dst, CollMsg(vec![value]))?;
            }
            self.comm.flush()?;
        }
        Ok(PendingGather { value })
    }

    /// Complete an all-gather begun by
    /// [`Collectives::start_all_gather_u64`], returning the rank-indexed
    /// contribution vector.
    pub fn finish_all_gather_u64(
        &mut self,
        pending: PendingGather,
    ) -> Result<Vec<u64>, TransportError> {
        match self.topology {
            // The flat send phase ran at `start`; only the receives remain.
            CollectiveTopology::Flat => {
                let mut out = Vec::with_capacity(self.nprocs());
                for (src, msg) in self.comm.recv_one_from_each()?.into_iter().enumerate() {
                    out.push(expect_words(msg, 1, src)?[0]);
                }
                Ok(out)
            }
            CollectiveTopology::Binomial => self.binomial_all_gather(pending.value),
            CollectiveTopology::RecursiveDoubling => self.rd_all_gather(pending.value),
        }
    }

    /// Drain whatever collective traffic is already deliverable into this
    /// endpoint's buffers without blocking — the eager-recv half of an
    /// overlapped round; returns how many blocks arrived.
    pub fn drain_ready(&mut self) -> Result<usize, TransportError> {
        self.comm.drain_ready()
    }

    /// Binomial-tree schedule: gather subtree blocks to rank 0 (child
    /// `r + 2^i` folds into `r` at round `i`), then broadcast the full
    /// vector back down the same tree, farthest subtree first.
    fn binomial_all_gather(&mut self, value: u64) -> Result<Vec<u64>, TransportError> {
        let p = self.nprocs();
        let rank = self.rank();
        if p == 1 {
            return Ok(vec![value]);
        }
        // `words` always covers the contiguous rank range
        // [rank, rank + words.len()); receiving children in ascending
        // round order keeps it contiguous.
        let relay_rounds = if rank == 0 { ceil_log2(p) } else { rank.trailing_zeros() as usize };
        let mut words = vec![value];
        for i in 0..relay_rounds {
            let child = rank + (1usize << i);
            if child < p {
                let block = (1usize << i).min(p - child);
                words.extend(expect_words(self.comm.recv_from(child)?, block, child)?);
            }
        }
        let full = if rank == 0 {
            debug_assert_eq!(words.len(), p, "root must assemble every word");
            words
        } else {
            let parent = rank - (1usize << relay_rounds);
            self.comm.send(parent, CollMsg(words))?;
            expect_words(self.comm.recv_from(parent)?, p, parent)?
        };
        for i in (0..relay_rounds).rev() {
            let child = rank + (1usize << i);
            if child < p {
                self.comm.send(child, CollMsg(full.clone()))?;
            }
        }
        Ok(full)
    }

    /// Recursive-doubling schedule. Non-power-of-two `P` first folds the
    /// lowest `2·rem` ranks pairwise (even hands its word to odd), runs
    /// the power-of-two exchange over the `p2` surviving participants,
    /// then unfolds (odd hands the finished vector back to even).
    fn rd_all_gather(&mut self, value: u64) -> Result<Vec<u64>, TransportError> {
        let p = self.nprocs();
        let rank = self.rank();
        if p == 1 {
            return Ok(vec![value]);
        }
        let p2 = prev_pow2(p);
        let rem = p - p2;
        let rounds = p2.trailing_zeros() as usize;
        // Original rank of effective rank `f`: the odd member of a folded
        // pair, or the unfolded rank shifted past the folded region.
        let orig_of = |f: usize| if f < rem { 2 * f + 1 } else { f + rem };
        // Original ranks whose words an effective-rank block covers, in
        // ascending order (folded effs cover their pair, others just
        // themselves).
        let origs_of_block = |start: usize, size: usize| {
            (start..start + size).flat_map(move |f| {
                if f < rem {
                    vec![2 * f, 2 * f + 1]
                } else {
                    vec![f + rem]
                }
            })
        };
        if rank < 2 * rem && rank.is_multiple_of(2) {
            // Folded rank: contribute the word, wait for the result.
            self.comm.send(rank + 1, CollMsg(vec![value]))?;
            return expect_words(self.comm.recv_from(rank + 1)?, p, rank + 1);
        }
        let eff = if rank < 2 * rem { rank / 2 } else { rank - rem };
        let mut slots: Vec<Option<u64>> = vec![None; p];
        slots[rank] = Some(value);
        if rank < 2 * rem {
            // Absorb the folded even neighbor's word before the rounds.
            let w = expect_words(self.comm.recv_from(rank - 1)?, 1, rank - 1)?;
            slots[rank - 1] = Some(w[0]);
        }
        for i in 0..rounds {
            let size = 1usize << i;
            let partner_eff = eff ^ size;
            let partner = orig_of(partner_eff);
            let mine: Vec<u64> = origs_of_block(eff & !(size - 1), size)
                .map(|r| slots[r].expect("own block gathered"))
                .collect();
            self.comm.send(partner, CollMsg(mine))?;
            let partner_start = partner_eff & !(size - 1);
            let want: Vec<usize> = origs_of_block(partner_start, size).collect();
            let theirs = expect_words(self.comm.recv_from(partner)?, want.len(), partner)?;
            for (r, w) in want.into_iter().zip(theirs) {
                slots[r] = Some(w);
            }
        }
        let full: Vec<u64> =
            slots.into_iter().map(|s| s.expect("doubling rounds cover every rank")).collect();
        if rank < 2 * rem {
            // Unfold: return the finished vector to the even neighbor.
            self.comm.send(rank - 1, CollMsg(full.clone()))?;
        }
        Ok(full)
    }

    /// Barrier: returns once every participant has arrived.
    pub fn barrier(&mut self) -> Result<(), TransportError> {
        self.all_gather_u64(0).map(|_| ())
    }

    /// Sum-reduce a `u64` across all participants.
    pub fn all_reduce_sum_u64(&mut self, value: u64) -> Result<u64, TransportError> {
        Ok(self.all_gather_u64(value)?.iter().sum())
    }

    /// Max-reduce a `u64` across all participants.
    pub fn all_reduce_max_u64(&mut self, value: u64) -> Result<u64, TransportError> {
        Ok(self.all_gather_u64(value)?.into_iter().max().unwrap_or(0))
    }

    /// Sum-reduce an `f64` (transported via bit pattern, summed at the
    /// reader in rank order — bit-identical under every topology).
    pub fn all_reduce_sum_f64(&mut self, value: f64) -> Result<f64, TransportError> {
        Ok(self.all_gather_u64(value.to_bits())?.iter().map(|&b| f64::from_bits(b)).sum())
    }

    /// Logical OR across participants (any participant true ⇒ all see true).
    pub fn all_reduce_any(&mut self, value: bool) -> Result<bool, TransportError> {
        Ok(self.all_reduce_sum_u64(value as u64)? > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TransportKind; 3] = TransportKind::ALL;
    const TOPOLOGIES: [CollectiveTopology; 3] = CollectiveTopology::ALL;

    fn run_on(
        kind: TransportKind,
        topo: CollectiveTopology,
        n: usize,
        f: impl Fn(usize, &mut Collectives) + Sync,
    ) {
        let stats = CommStats::new(n);
        let fabric = Collectives::fabric(kind, topo, n, stats);
        std::thread::scope(|s| {
            for mut coll in fabric {
                let f = &f;
                s.spawn(move || f(coll.rank(), &mut coll));
            }
        });
    }

    /// Run the same program on every (transport × topology) pair.
    fn all(n: usize, f: impl Fn(usize, &mut Collectives) + Sync) {
        for kind in ALL {
            for topo in TOPOLOGIES {
                run_on(kind, topo, n, &f);
            }
        }
    }

    #[test]
    fn all_gather_returns_rank_indexed_values() {
        all(4, |rank, coll| {
            let got = coll.all_gather_u64((rank * 10) as u64).unwrap();
            assert_eq!(got, vec![0, 10, 20, 30], "{}", coll.topology());
        });
    }

    #[test]
    fn all_gather_handles_non_power_of_two_ranks() {
        // P = 5 and 7: the recursive-doubling fold/unfold and the ragged
        // binomial tree must still deliver the full rank-indexed vector.
        for n in [2, 3, 5, 6, 7] {
            all(n, |rank, coll| {
                let got = coll.all_gather_u64(100 + rank as u64).unwrap();
                let want: Vec<u64> = (0..coll.nprocs() as u64).map(|r| 100 + r).collect();
                assert_eq!(got, want, "P={n} {}", coll.topology());
            });
        }
    }

    #[test]
    fn repeated_rounds_do_not_mix() {
        all(3, |rank, coll| {
            for round in 0..50u64 {
                let got = coll.all_gather_u64(round * 100 + rank as u64).unwrap();
                assert_eq!(got, vec![round * 100, round * 100 + 1, round * 100 + 2]);
            }
        });
    }

    #[test]
    fn reductions() {
        all(4, |rank, coll| {
            assert_eq!(coll.all_reduce_sum_u64(2).unwrap(), 8);
            assert_eq!(coll.all_reduce_max_u64(rank as u64).unwrap(), 3);
            let s = coll.all_reduce_sum_f64(0.5).unwrap();
            assert!((s - 2.0).abs() < 1e-12);
            assert!(coll.all_reduce_any(rank == 2).unwrap());
            assert!(!coll.all_reduce_any(false).unwrap());
        });
    }

    #[test]
    fn single_process_collectives_are_identity() {
        all(1, |_rank, coll| {
            assert_eq!(coll.all_gather_u64(9).unwrap(), vec![9]);
            assert_eq!(coll.all_reduce_sum_u64(9).unwrap(), 9);
            coll.barrier().unwrap();
        });
    }

    #[test]
    fn collectives_charge_exactly_the_published_traffic() {
        // Measured CommStats must equal the rank_traffic cost model on
        // every (transport × topology) pair, per rank and in total.
        for kind in ALL {
            for topo in TOPOLOGIES {
                for n in [1usize, 2, 3, 4, 5] {
                    let stats = CommStats::new(n);
                    let fabric = Collectives::fabric(kind, topo, n, stats.clone());
                    std::thread::scope(|s| {
                        for mut coll in fabric {
                            s.spawn(move || coll.barrier().unwrap());
                        }
                    });
                    for rank in 0..n {
                        let (bytes, msgs) = topo.rank_traffic(rank, n);
                        assert_eq!(
                            stats.bytes_sent_by(rank),
                            bytes,
                            "{kind}/{topo} P={n} rank {rank} bytes"
                        );
                        assert_eq!(
                            stats.msgs_sent_by(rank),
                            msgs,
                            "{kind}/{topo} P={n} rank {rank} msgs"
                        );
                    }
                    let (bytes, msgs) = topo.total_traffic(n);
                    assert_eq!(stats.total_bytes(), bytes, "{kind}/{topo} P={n} total bytes");
                    assert_eq!(stats.total_msgs(), msgs, "{kind}/{topo} P={n} total msgs");
                    assert_eq!(stats.total_collective_rounds(), n as u64, "{kind}/{topo} rounds");
                }
            }
        }
    }

    #[test]
    fn split_all_gather_matches_one_shot_with_overlapped_work() {
        // start → (local work + eager drain) → finish must return exactly
        // what the one-shot gather returns, on every pair and at awkward
        // P, including back-to-back overlapped rounds.
        for n in [1, 2, 3, 5] {
            all(n, |rank, coll| {
                for round in 0..10u64 {
                    let pending = coll.start_all_gather_u64(round * 100 + rank as u64).unwrap();
                    // "Computation" while the round is in flight, plus an
                    // eager drain of whatever already arrived.
                    let _ = coll.drain_ready().unwrap();
                    let got = coll.finish_all_gather_u64(pending).unwrap();
                    let want: Vec<u64> =
                        (0..coll.nprocs() as u64).map(|r| round * 100 + r).collect();
                    assert_eq!(got, want, "P={n} round {round} {}", coll.topology());
                }
            });
        }
    }

    #[test]
    fn split_all_gather_charges_exactly_one_collective_round() {
        let stats = CommStats::new(3);
        let fabric = Collectives::fabric(
            TransportKind::Loopback,
            CollectiveTopology::Flat,
            3,
            stats.clone(),
        );
        std::thread::scope(|s| {
            for mut coll in fabric {
                s.spawn(move || {
                    let pending = coll.start_all_gather_u64(1).unwrap();
                    coll.finish_all_gather_u64(pending).unwrap();
                });
            }
        });
        assert_eq!(stats.total_collective_rounds(), 3, "one round per rank, recorded at start");
        let (bytes, msgs) = CollectiveTopology::Flat.total_traffic(3);
        assert_eq!((stats.total_bytes(), stats.total_msgs()), (bytes, msgs));
    }

    #[test]
    fn flat_traffic_matches_the_historical_formula() {
        // The reference topology keeps the pre-topology accounting:
        // 8·(P−1) bytes in P−1 messages per rank per collective.
        for p in [2usize, 4, 7, 64] {
            for rank in 0..p {
                assert_eq!(
                    CollectiveTopology::Flat.rank_traffic(rank, p),
                    (8 * (p as u64 - 1), p as u64 - 1)
                );
            }
        }
    }

    #[test]
    fn single_process_collectives_are_free() {
        for kind in [TransportKind::Bytes, TransportKind::Tcp] {
            for topo in TOPOLOGIES {
                let stats = CommStats::new(1);
                let fabric = Collectives::fabric(kind, topo, 1, stats.clone());
                let mut coll = fabric.into_iter().next().unwrap();
                coll.barrier().unwrap();
                assert_eq!(coll.all_gather_u64(3).unwrap(), vec![3]);
                assert_eq!(
                    stats.total_bytes(),
                    0,
                    "{kind}/{topo}: nprocs = 1 moves nothing over the wire"
                );
            }
        }
    }

    #[test]
    fn departed_peer_mid_collective_is_an_error_not_a_hang() {
        // Rank 1 goes away before contributing its word: rank 0's
        // all-gather must surface a typed transport error instead of
        // blocking forever or panicking mid-collective.
        let stats = CommStats::new(2);
        let mut fabric =
            Collectives::fabric(TransportKind::Tcp, CollectiveTopology::Flat, 2, stats);
        let one = fabric.pop().expect("rank 1");
        let mut zero = fabric.pop().expect("rank 0");
        drop(one);
        let err = zero.all_gather_u64(1).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn topology_parses_and_displays() {
        use CollectiveTopology::*;
        assert_eq!("flat".parse::<CollectiveTopology>().unwrap(), Flat);
        assert_eq!("TREE".parse::<CollectiveTopology>().unwrap(), Binomial);
        assert_eq!("binomial".parse::<CollectiveTopology>().unwrap(), Binomial);
        assert_eq!(
            " Recursive-Doubling ".parse::<CollectiveTopology>().unwrap(),
            RecursiveDoubling
        );
        assert_eq!("rd".parse::<CollectiveTopology>().unwrap(), RecursiveDoubling);
        assert_eq!(Flat.to_string(), "flat");
        assert_eq!(Binomial.to_string(), "tree");
        assert_eq!(RecursiveDoubling.to_string(), "recursive-doubling");
        assert_eq!(CollectiveTopology::default(), Flat);
        for topo in CollectiveTopology::ALL {
            assert_eq!(topo.to_string().parse::<CollectiveTopology>().unwrap(), topo);
        }
    }

    #[test]
    fn topology_typos_name_every_valid_name() {
        // Mirrors the DNE_TRANSPORT rule: `DNE_COLLECTIVES=trees` must be
        // a hard error that tells the operator what would have been
        // accepted.
        for typo in ["trees", "ring", "recursive_doubling", "binominal"] {
            let err = typo.parse::<CollectiveTopology>().unwrap_err();
            for name in ["flat", "tree", "recursive-doubling"] {
                assert!(err.contains(name), "error {err:?} must list {name}");
            }
        }
    }

    #[test]
    fn collmsg_codec_is_prefix_free_words() {
        let msg = CollMsg(vec![1, 2, 3]);
        let bytes = msg.to_wire();
        assert_eq!(bytes.len(), 24, "no length prefix: 3 words are 24 bytes");
        assert_eq!(msg.wire_bytes(), 24);
        assert_eq!(CollMsg::from_wire(&bytes).unwrap(), msg);
        assert_eq!(CollMsg::from_wire(&[]).unwrap(), CollMsg(vec![]));
        assert!(CollMsg::from_wire(&bytes[..7]).is_err(), "partial word must not decode");
    }
}
