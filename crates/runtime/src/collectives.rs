//! MPI-style collectives: barrier, all-gather, all-reduce — over pluggable
//! aggregation topologies.
//!
//! Algorithm 1 of the paper uses `Barrier()` (line 9) and
//! `AllGatherSum(|Ep|)` (line 14) every iteration; the application engine
//! uses all-reduce for convergence/frontier checks. Collectives are built
//! as *real traffic* over the very link that carries the point-to-point
//! messages — each block rides the collective lane of the rank's one
//! [`CommEndpoint`], as the MPI code runs both over one communicator — so
//! every backend (loopback / bytes / tcp) gets every topology for free.
//!
//! # Topologies
//!
//! Three interchangeable [`CollectiveTopology`] values move the same
//! rank-indexed word vector; they differ only in schedule, and a schedule
//! is *data*: each rank's list of `Send(peer, ranks)` / `Recv(peer,
//! ranks)` steps over one rank-indexed buffer, every block a contiguous
//! rank range, computed once per endpoint. One executor runs it —
//! `start` posts every send that precedes the first receive, `finish`
//! the rest, each receive checked against the word count the schedule
//! demands — and the published cost model is a fold over the same steps.
//! The topologies:
//!
//! * [`CollectiveTopology::Flat`] — the reference: every rank sends its
//!   one-word contribution to every peer and collects one word from
//!   each. Depth 1, but `P − 1` messages and `8·(P−1)` bytes per rank per
//!   collective.
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
//! Every reduction (`sum`, `max`, `any`, `f64` sum — the `Ctx` methods) is
//! a fold of the all-gathered vector *in rank order*, identical code under
//! every topology — which is what makes results (including `f64` sums,
//! where association order changes bits) **bit-identical** across
//! topologies.
//!
//! # Wire format and accounting
//!
//! Collective rounds travel as [`CollMsg`]: a packed block of `u64` words
//! with *no* length prefix (the frame's payload length already determines
//! the word count; a header flag marks the lane), so a one-word flat round
//! costs exactly 8 wire bytes — the same accounting as before topologies
//! existed. Blocks are never coalesced, whatever `DNE_COMM_BATCH` says. Exact per-rank costs
//! for every topology are published by
//! [`CollectiveTopology::rank_traffic`] /
//! [`CollectiveTopology::total_traffic`] — sums over the sends of the
//! schedule the executor runs, so the two cannot disagree — which the
//! unit, property, and equivalence tests check measured [`CommStats`](crate::CommStats)
//! against; the closed forms and a literal table of totals in
//! `ARCHITECTURE.md` and `tests/collective_equivalence.rs` pin them
//! independently.
//!
//! Round alignment comes from the same argument as
//! [`crate::Ctx::exchange`]: per-link FIFO order within the collective lane
//! plus a deterministic per-topology schedule (each receive names its
//! source) keeps back-to-back collectives race-free even when peers run
//! ahead — and application messages interleaved on the link wait in their
//! own lane.
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

use std::ops::Range;

use crate::comm::CommEndpoint;
use crate::transport::TransportError;
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireSize};

/// Wire message of the collective lane: a packed block of full-width
/// 8-byte `u64` words (not varints, as inside a `Vec`) with **no** length
/// prefix. The enclosing frame already carries the payload length, so the
/// word count is `payload_len / 8` — a one-word collective round costs
/// exactly 8 wire bytes. Because decoding consumes
/// the whole remaining input, `CollMsg` is only valid as a frame's entire
/// payload, never as a field of a larger message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollMsg(pub Vec<u64>);

// By hand: a word block without `Vec`'s length prefix is a format decision, not a field list.
impl WireSize for CollMsg {
    #[inline]
    fn wire_bytes(&self) -> usize {
        8 * self.0.len()
    }
}

impl WireEncode for CollMsg {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        for word in &self.0 {
            word.encode(buf);
        }
    }
}

impl WireDecode for CollMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rem = r.remaining();
        if !rem.is_multiple_of(8) {
            // A word block can never leave a partial word.
            return Err(WireError::Truncated { needed: rem + (8 - rem % 8), available: rem });
        }
        (0..rem / 8).map(|_| u64::decode(r)).collect::<Result<_, _>>().map(CollMsg)
    }
}

/// One step of a rank's all-gather schedule: move the words of a
/// contiguous rank range of the rank-indexed buffer to or from a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// Send the buffer's words for these ranks to the peer.
    Send(usize, Range<usize>),
    /// Receive the words for these ranks from the peer into the buffer.
    Recv(usize, Range<usize>),
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

    /// This rank's all-gather under this topology, as data: the sends and
    /// receives it performs, in order, each naming a peer and the
    /// contiguous rank range of the shared rank-indexed word buffer that
    /// travels. The executor ([`Collectives::start_all_gather_u64`] /
    /// [`Collectives::finish_all_gather_u64`]) runs exactly these steps and
    /// [`CollectiveTopology::rank_traffic`] sums exactly these sends, so the
    /// published cost model and the execution cannot disagree.
    fn schedule(self, rank: usize, p: usize) -> Vec<Step> {
        assert!(rank < p, "rank {rank} out of range for {p} ranks");
        let mut steps = Vec::new();
        match self {
            CollectiveTopology::Flat => {
                let peers = || (0..p).filter(|&peer| peer != rank);
                steps.extend(peers().map(|dst| Step::Send(dst, rank..rank + 1)));
                steps.extend(peers().map(|src| Step::Recv(src, src..src + 1)));
            }
            // Rank `r` roots the subtree of ranks `[r, r + span)` (clipped
            // to `p`), `span` being `r`'s lowest set bit — everything, for
            // rank 0 — and its children are `r + 2^i` for every
            // `2^i < span`, each rooting `[child, child + 2^i)`. Gather
            // the children's blocks in ascending order (so the gathered
            // words stay contiguous), pass the subtree up, then broadcast
            // the full vector back down, farthest subtree first.
            CollectiveTopology::Binomial => {
                let span =
                    if rank == 0 { p.next_power_of_two() } else { 1 << rank.trailing_zeros() };
                let children: Vec<usize> = (0..span.trailing_zeros())
                    .map(|i| rank + (1usize << i))
                    .take_while(|&child| child < p)
                    .collect();
                steps.extend(children.iter().map(|&c| Step::Recv(c, c..(2 * c - rank).min(p))));
                if rank != 0 {
                    steps.push(Step::Send(rank - span, rank..(rank + span).min(p)));
                    steps.push(Step::Recv(rank - span, 0..p));
                }
                steps.extend(children.iter().rev().map(|&c| Step::Send(c, 0..p)));
            }
            // Non-power-of-two `P` first folds the lowest `2·rem` ranks
            // pairwise (even hands its word to odd), runs the power-of-two
            // exchange over the surviving *effective* ranks, then unfolds
            // (odd hands the finished vector back to even).
            CollectiveTopology::RecursiveDoubling => {
                let rem = p - prev_pow2(p);
                let folded = rank < 2 * rem;
                if folded && rank.is_multiple_of(2) {
                    // Folded rank: contribute the word, wait for the result.
                    return vec![Step::Send(rank + 1, rank..rank + 1), Step::Recv(rank + 1, 0..p)];
                }
                if folded {
                    // Absorb the folded even neighbor's word before the rounds.
                    steps.push(Step::Recv(rank - 1, rank - 1..rank));
                }
                let eff = if folded { rank / 2 } else { rank - rem };
                // First original rank an effective rank stands for: a
                // folded pair `2f, 2f + 1`, or the unfolded rank shifted
                // past the folded region — so the effective ranks
                // `[s, s + size)` hold the words of `lo(s)..lo(s + size)`.
                let lo = |f: usize| if f < rem { 2 * f } else { f + rem };
                let mut size = 1;
                while size < p - rem {
                    let block = |f: usize| lo(f & !(size - 1))..lo((f & !(size - 1)) + size);
                    let partner = eff ^ size;
                    // A folded pair is spoken for by its odd member.
                    let partner_rank = lo(partner) + usize::from(partner < rem);
                    steps.push(Step::Send(partner_rank, block(eff)));
                    steps.push(Step::Recv(partner_rank, block(partner)));
                    size *= 2;
                }
                if folded {
                    // Unfold: return the finished vector to the even neighbor.
                    steps.push(Step::Send(rank - 1, 0..p));
                }
            }
        }
        steps
    }

    /// Exact `(bytes, messages)` one collective charges to `rank` in a
    /// `p`-rank fabric. This is the published cost model, derived from the
    /// very schedule the executor runs (8 bytes per word of every send);
    /// the test suites assert measured [`CommStats`](crate::CommStats) against sums of this
    /// function and pin its totals to a literal table.
    pub fn rank_traffic(self, rank: usize, p: usize) -> (u64, u64) {
        self.schedule(rank, p).iter().fold((0, 0), |(bytes, msgs), step| match step {
            Step::Send(_, words) => (bytes + 8 * words.len() as u64, msgs + 1),
            Step::Recv(..) => (bytes, msgs),
        })
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
            "tree" => Ok(CollectiveTopology::Binomial),
            "recursive-doubling" => Ok(CollectiveTopology::RecursiveDoubling),
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
    /// The rank-indexed buffer: so far, this rank's own word.
    words: Vec<u64>,
}

/// One rank's collective schedule and its executor: the all-gather runs
/// over whatever [`CommEndpoint`] it is handed, and owns no link of its
/// own.
pub struct Collectives {
    /// This rank's [`CollectiveTopology::schedule`], computed once.
    schedule: Vec<Step>,
    /// How many sends lead the schedule, ahead of its first receive.
    leading_sends: usize,
}

impl Collectives {
    /// The executor of `topology` for rank `rank` of an `nprocs`-rank
    /// session.
    pub fn new(topology: CollectiveTopology, rank: usize, nprocs: usize) -> Collectives {
        let schedule = topology.schedule(rank, nprocs);
        let leading_sends = schedule.iter().take_while(|s| matches!(s, Step::Send(..))).count();
        Collectives { schedule, leading_sends }
    }

    /// Begin an all-gather without collecting it: the collective round is
    /// recorded and every send the schedule posts *before its first
    /// receive* goes out now — the whole send phase on the flat topology,
    /// a leaf's gather word on the tree, the first partner block under
    /// recursive doubling. The caller overlaps computation with the
    /// in-flight round, then calls [`Collectives::finish_all_gather_u64`].
    /// One `start` must be finished before the next collective begins;
    /// start + finish is the whole all-gather.
    pub fn start_all_gather_u64<M>(
        &self,
        comm: &CommEndpoint<M>,
        value: u64,
    ) -> Result<PendingGather, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        comm.record_collective();
        let mut words = vec![0; comm.nprocs()];
        words[comm.rank()] = value;
        self.run_schedule(comm, &mut words, 0..self.leading_sends)?;
        Ok(PendingGather { words })
    }

    /// Complete an all-gather begun by
    /// [`Collectives::start_all_gather_u64`], returning the rank-indexed
    /// contribution vector — identical under every topology.
    pub fn finish_all_gather_u64<M>(
        &self,
        comm: &CommEndpoint<M>,
        mut pending: PendingGather,
    ) -> Result<Vec<u64>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        self.run_schedule(comm, &mut pending.words, self.leading_sends..self.schedule.len())?;
        Ok(pending.words)
    }

    /// The one executor: run the given steps of this rank's schedule over
    /// the rank-indexed buffer `words`.
    fn run_schedule<M>(
        &self,
        comm: &CommEndpoint<M>,
        words: &mut [u64],
        steps: Range<usize>,
    ) -> Result<(), TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        for step in &self.schedule[steps] {
            match step {
                Step::Send(peer, ranks) => {
                    comm.send_block(*peer, CollMsg(words[ranks.clone()].to_vec()))?;
                }
                Step::Recv(peer, ranks) => {
                    let block = expect_words(comm.recv_block_from(*peer)?, ranks.len(), *peer)?;
                    words[ranks.clone()].copy_from_slice(&block);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchConfig, Cluster, CommStats, Ctx, TransportKind};

    const ALL: [TransportKind; 3] = TransportKind::ALL;
    const TOPOLOGIES: [CollectiveTopology; 3] = CollectiveTopology::ALL;

    /// A `kind`/`topo` cluster of `n` ranks.
    fn cluster(kind: TransportKind, topo: CollectiveTopology, n: usize) -> Cluster {
        Cluster::with_transport(n, kind).with_collectives(topo)
    }

    /// Run the same program on every (transport × topology) pair; `f`
    /// gets the pair's label.
    fn all(n: usize, f: impl Fn(&str, &mut Ctx<u64>) + Sync) {
        for kind in ALL {
            for topo in TOPOLOGIES {
                cluster(kind, topo, n).run(|ctx| f(&format!("{kind}/{topo}"), ctx));
            }
        }
    }

    #[test]
    fn all_gather_returns_rank_indexed_values() {
        all(4, |label, ctx| {
            let got = ctx.all_gather_u64((ctx.rank() * 10) as u64);
            assert_eq!(got, vec![0, 10, 20, 30], "{label}");
        });
    }

    #[test]
    fn all_gather_handles_non_power_of_two_ranks() {
        // P = 5 and 7: the recursive-doubling fold/unfold and the ragged
        // binomial tree must still deliver the full rank-indexed vector.
        for n in [2, 3, 5, 6, 7] {
            all(n, |label, ctx| {
                let got = ctx.all_gather_u64(100 + ctx.rank() as u64);
                let want: Vec<u64> = (0..ctx.nprocs() as u64).map(|r| 100 + r).collect();
                assert_eq!(got, want, "P={n} {label}");
            });
        }
    }

    #[test]
    fn repeated_rounds_do_not_mix() {
        all(3, |_, ctx| {
            for round in 0..50u64 {
                let got = ctx.all_gather_u64(round * 100 + ctx.rank() as u64);
                assert_eq!(got, vec![round * 100, round * 100 + 1, round * 100 + 2]);
            }
        });
    }

    #[test]
    fn reductions() {
        all(4, |_, ctx| {
            let rank = ctx.rank();
            assert_eq!(ctx.all_reduce_sum_u64(2), 8);
            assert_eq!(ctx.all_reduce_max_u64(rank as u64), 3);
            let s = ctx.all_reduce_sum_f64(0.5);
            assert!((s - 2.0).abs() < 1e-12);
            assert!(ctx.all_reduce_any(rank == 2));
            assert!(!ctx.all_reduce_any(false));
        });
    }

    #[test]
    fn single_process_collectives_are_identity() {
        all(1, |_, ctx| {
            assert_eq!(ctx.all_gather_u64(9), vec![9]);
            assert_eq!(ctx.all_reduce_sum_u64(9), 9);
            ctx.barrier();
        });
    }

    /// The steps of `steps` that are sends to / receives from `peer`, as
    /// the rank ranges they move, in schedule order.
    fn link_order(steps: &[Step], peer: usize, sends: bool) -> Vec<Range<usize>> {
        let on_link = |step: &Step| match step {
            Step::Send(to, ranks) if sends && *to == peer => Some(ranks.clone()),
            Step::Recv(from, ranks) if !sends && *from == peer => Some(ranks.clone()),
            _ => None,
        };
        steps.iter().filter_map(on_link).collect()
    }

    #[test]
    fn schedules_pair_up_cover_every_rank_and_sum_to_the_documented_totals() {
        // Pure data, no fabric: every topology, every P up to 17 (the
        // ragged tree and the fold/unfold of recursive doubling included).
        for topo in TOPOLOGIES {
            for p in 1..=17usize {
                let schedules: Vec<Vec<Step>> = (0..p).map(|r| topo.schedule(r, p)).collect();
                for (a, steps) in schedules.iter().enumerate() {
                    // Each send meets a receive of the same rank range at
                    // the same position of that link's FIFO order; nothing
                    // is addressed to the sender itself.
                    for (b, peer_steps) in schedules.iter().enumerate() {
                        let sent = link_order(steps, b, true);
                        assert_eq!(sent, link_order(peer_steps, a, false), "{topo} P={p} {a}->{b}");
                        assert!(a != b || sent.is_empty(), "{topo} P={p}: self step at rank {a}");
                    }
                    // A send only reads slots already filled (the rank's own
                    // word or an earlier receive), and the receives complete
                    // the vector.
                    let mut filled = vec![false; p];
                    filled[a] = true;
                    for step in steps {
                        match step {
                            Step::Send(_, ranks) => assert!(
                                filled[ranks.clone()].iter().all(|&f| f),
                                "{topo} P={p} rank {a} sends {ranks:?} before gathering it"
                            ),
                            Step::Recv(_, ranks) => filled[ranks.clone()].fill(true),
                        }
                    }
                    assert!(filled.iter().all(|&f| f), "{topo} P={p} rank {a} misses a word");
                }
            }
        }
        // The ARCHITECTURE.md table (also `tests/collective_equivalence.rs`
        // `EXPECTED_TOTALS`): [flat, tree, recursive doubling] per P.
        for (p, per_topo) in [
            (4, [(96, 12), (128, 6), (96, 8)]),
            (7, [(336, 42), (408, 12), (360, 14)]),
            (16, [(1920, 240), (2176, 30), (1920, 64)]),
            (64, [(32256, 4032), (33792, 126), (32256, 384)]),
        ] {
            for (topo, want) in TOPOLOGIES.into_iter().zip(per_topo) {
                assert_eq!(topo.total_traffic(p), want, "{topo} at P={p}");
            }
        }
    }

    #[test]
    fn collectives_charge_exactly_the_published_traffic() {
        // Measured CommStats must equal the rank_traffic cost model on
        // every (transport × topology) pair, per rank and in total.
        for kind in ALL {
            for topo in TOPOLOGIES {
                for n in [1usize, 2, 3, 4, 5] {
                    let stats = cluster(kind, topo, n).run::<u64, _, _>(|ctx| ctx.barrier()).comm;
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
            all(n, |label, ctx| {
                for round in 0..10u64 {
                    let value = round * 100 + ctx.rank() as u64;
                    let pending = ctx.try_start_all_gather_u64(value).unwrap();
                    // "Computation" while the round is in flight, plus an
                    // eager drain of whatever already arrived.
                    let _ = ctx.try_drain_ready().unwrap();
                    let got = ctx.try_finish_all_gather_u64(pending).unwrap();
                    let want: Vec<u64> =
                        (0..ctx.nprocs() as u64).map(|r| round * 100 + r).collect();
                    assert_eq!(got, want, "P={n} round {round} {label}");
                }
            });
        }
    }

    #[test]
    fn split_all_gather_charges_exactly_one_collective_round() {
        let stats = cluster(TransportKind::Loopback, CollectiveTopology::Flat, 3)
            .run::<u64, _, _>(|ctx| {
                let pending = ctx.try_start_all_gather_u64(1).unwrap();
                ctx.try_finish_all_gather_u64(pending).unwrap();
            })
            .comm;
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
                let stats = cluster(kind, topo, 1)
                    .run::<u64, _, _>(|ctx| {
                        ctx.barrier();
                        assert_eq!(ctx.all_gather_u64(3), vec![3]);
                    })
                    .comm;
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
        let mut fabric = CommEndpoint::<u64>::fabric(
            TransportKind::Tcp,
            2,
            BatchConfig::disabled(),
            CommStats::new(2),
        );
        drop(fabric.pop().expect("rank 1"));
        let zero = fabric.pop().expect("rank 0");
        let coll = Collectives::new(CollectiveTopology::Flat, 0, 2);
        let err =
            coll.start_all_gather_u64(&zero, 1).and_then(|p| coll.finish_all_gather_u64(&zero, p));
        let err = err.unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn topology_parses_and_displays() {
        use CollectiveTopology::*;
        assert_eq!("flat".parse::<CollectiveTopology>().unwrap(), Flat);
        assert_eq!("TREE".parse::<CollectiveTopology>().unwrap(), Binomial);
        assert_eq!(
            " Recursive-Doubling ".parse::<CollectiveTopology>().unwrap(),
            RecursiveDoubling
        );
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
        for typo in ["trees", "ring", "recursive_doubling", "binominal", "rd", "binomial"] {
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
