//! Point-to-point FIFO messaging between simulated machines, on the one
//! link per rank that also carries the collectives.
//!
//! [`CommEndpoint`] is the runtime's per-process messaging handle: it owns
//! this rank's endpoint of a [`Transport`] fabric (loopback, bytes, or tcp
//! — see [`crate::transport`]), charges every non-self send to
//! [`CommStats`], and layers the round-alignment buffering that the
//! lock-step [`crate::Ctx::exchange`] primitive and the collective
//! schedules need. A cluster session has one such link per rank:
//! application messages and collective blocks ride it as the two lanes of
//! an [`Envelope`], and every arrival is sorted into a per-source queue of
//! its lane, so an application receive never consumes a block and a
//! collective receive never consumes a message. Per-link FIFO order is
//! guaranteed by all backends (crossbeam channels are per-producer FIFO,
//! TCP streams are ordered), which is exactly the MPI non-overtaking
//! guarantee the algorithms rely on — within each lane.
//!
//! Every operation is fallible: a peer that dies mid-run or a frame that
//! fails to decode propagates as a [`TransportError`] so callers —
//! including real worker processes on the TCP backend — can attribute the
//! failure instead of panicking mid-collective.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::collectives::CollMsg;
use crate::stats::CommStats;
use crate::transport::{BatchConfig, Envelope, Transport, TransportError, TransportKind};
use crate::wire::{WireDecode, WireEncode};

/// One source's arrivals not consumed yet, per lane, each in arrival
/// (= per-link FIFO) order.
struct Lanes<M> {
    app: VecDeque<M>,
    coll: VecDeque<CollMsg>,
}

impl<M> Lanes<M> {
    fn push(&mut self, env: Envelope<M>) {
        match env {
            Envelope::App(msg) => self.app.push_back(msg),
            Envelope::Coll(block) => self.coll.push_back(block),
        }
    }
}

/// The per-process endpoint of the simulated interconnect.
pub struct CommEndpoint<M> {
    link: Box<dyn Transport<M>>,
    /// Messages and blocks that arrived ahead of the receive that wants
    /// them — a peer already in the next round (see `exchange` in
    /// `cluster.rs`), the other lane, an eager drain. Behind a `RefCell`
    /// because the `&self` receive sorts what it passes over.
    pending: RefCell<Vec<Lanes<M>>>,
    stats: Arc<CommStats>,
}

impl<M: Send + WireEncode + WireDecode + 'static> CommEndpoint<M> {
    /// Build all `n` connected endpoints of the chosen backend at once,
    /// coalescing small application sends per `batch`.
    pub fn fabric(
        kind: TransportKind,
        n: usize,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Vec<CommEndpoint<M>> {
        kind.fabric(n, batch, Arc::clone(&stats))
            .into_iter()
            .map(|link| CommEndpoint::from_transport(link, Arc::clone(&stats)))
            .collect()
    }

    /// Wrap a single already-connected transport endpoint — how a worker
    /// process in a real multi-process cluster (see [`crate::tcp`])
    /// builds its messaging handle.
    pub fn from_transport(link: Box<dyn Transport<M>>, stats: Arc<CommStats>) -> CommEndpoint<M> {
        let lanes =
            (0..link.nprocs()).map(|_| Lanes { app: VecDeque::new(), coll: VecDeque::new() });
        CommEndpoint { link, pending: RefCell::new(lanes.collect()), stats }
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.link.rank()
    }

    /// Number of processes in the fabric.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.link.nprocs()
    }

    /// Send `msg` to `dst`, charging its wire bytes to this rank.
    /// Self-sends are free (no wire crossing) but still delivered, so
    /// algorithms can treat all ranks uniformly. This is the *only* place
    /// that decides chargeability — transports just report sizes.
    pub fn send(&self, dst: usize, msg: M) -> Result<(), TransportError> {
        self.post(dst, Envelope::App(msg))
    }

    /// Send a collective block to `dst` on the collective lane, charged
    /// exactly like an application message.
    pub(crate) fn send_block(&self, dst: usize, block: CollMsg) -> Result<(), TransportError> {
        self.post(dst, Envelope::Coll(block))
    }

    fn post(&self, dst: usize, env: Envelope<M>) -> Result<(), TransportError> {
        let wire = self.link.send(dst, env)?;
        if dst != self.rank() {
            self.stats.record_send(self.rank(), wire);
        }
        Ok(())
    }

    /// Count one collective round against this rank.
    pub(crate) fn record_collective(&self) {
        self.stats.record_collective(self.rank());
    }

    /// Block until `take` finds what it wants among the pending arrivals,
    /// sorting every envelope the link delivers meanwhile into its lane.
    fn wait<T>(
        &self,
        mut take: impl FnMut(&mut [Lanes<M>]) -> Option<T>,
    ) -> Result<T, TransportError> {
        loop {
            if let Some(found) = take(&mut self.pending.borrow_mut()) {
                return Ok(found);
            }
            let (src, env) = self.link.recv()?;
            self.pending.borrow_mut()[src].push(env);
        }
    }

    /// Blocking receive of the next application message from any source
    /// (already-buffered ones first, lowest source first).
    ///
    /// Flushes this endpoint's own coalescing buffers first — blocking on
    /// a receive while holding unsent envelopes a peer is waiting for
    /// would deadlock the round.
    pub fn recv(&self) -> Result<(usize, M), TransportError> {
        self.link.flush()?;
        self.wait(|lanes| {
            lanes.iter_mut().enumerate().find_map(|(src, l)| l.app.pop_front().map(|m| (src, m)))
        })
    }

    /// Push every buffered (coalesced) envelope onto the wire now. A
    /// no-op when `DNE_COMM_BATCH` is off; called automatically before
    /// every blocking application receive.
    pub fn flush(&self) -> Result<(), TransportError> {
        self.link.flush()
    }

    /// Drain every envelope the transport can deliver *without blocking*
    /// into the per-source queues of its lane, returning how many arrived.
    /// Overlapped rounds call this mid-computation so inbound frames are
    /// decoded while the CPU would otherwise idle in the next blocking
    /// collect; the drained envelopes are served (in per-link FIFO order)
    /// by the next receive of their lane.
    pub fn drain_ready(&mut self) -> Result<usize, TransportError> {
        let mut drained = 0;
        while let Some((src, env)) = self.link.try_recv()? {
            self.pending.get_mut()[src].push(env);
            drained += 1;
        }
        Ok(drained)
    }

    /// Blocking receive of the next collective block from `src`, sorting
    /// whatever else arrives meanwhile into its lane. This is what lets the
    /// tree and recursive-doubling schedules name their partner per round
    /// without racing peers that have run ahead. It does not flush: the
    /// application lane's frames leave at the application's own flush
    /// points, exactly as if the collectives had a link of their own.
    pub(crate) fn recv_block_from(&self, src: usize) -> Result<CollMsg, TransportError> {
        self.wait(|lanes| lanes[src].coll.pop_front())
    }

    /// Receive exactly one application message from *every* rank
    /// (including self), returning them indexed by source. Out-of-round
    /// messages (a second message from a rank that already delivered this
    /// round) stay buffered for the next call — this is what makes
    /// back-to-back exchanges safe even when peers race ahead.
    pub fn recv_one_from_each(&mut self) -> Result<Vec<M>, TransportError> {
        self.link.flush()?;
        (0..self.nprocs()).map(|src| self.wait(|lanes| lanes[src].app.pop_front())).collect()
    }
}

impl<M> Drop for CommEndpoint<M> {
    /// Flush any still-coalescing envelopes when the endpoint goes away.
    /// Unbatched sends hit the wire inside [`CommEndpoint::send`], so a
    /// rank that fires off a message and returns without ever blocking on
    /// a receive still delivers it — batched runs must behave identically
    /// or that pattern deadlocks the receiving peer. Flush errors at
    /// teardown are logged, not propagated (same policy as the tcp
    /// goodbye frame): the messages are already undeliverable.
    fn drop(&mut self) {
        if let Err(e) = self.link.flush() {
            let rank = self.link.rank();
            eprintln!("dne-runtime: rank {rank}: flush at endpoint teardown failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TransportKind; 3] = TransportKind::ALL;

    fn fabric_of(kind: TransportKind, n: usize) -> (Vec<CommEndpoint<u64>>, Arc<CommStats>) {
        let stats = CommStats::new(n);
        (CommEndpoint::fabric(kind, n, BatchConfig::disabled(), stats.clone()), stats)
    }

    #[test]
    fn fabric_delivers_point_to_point() {
        for kind in ALL {
            let (mut eps, stats) = fabric_of(kind, 2);
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            a.send(1, 42).unwrap();
            let (src, v) = b.recv().unwrap();
            assert_eq!((src, v), (0, 42));
            assert_eq!(stats.total_bytes(), 8, "{kind}: one u64 is 8 wire bytes");
        }
    }

    #[test]
    fn self_send_is_free_but_delivered() {
        for kind in ALL {
            let (mut eps, stats) = fabric_of(kind, 1);
            let a = eps.pop().unwrap();
            a.send(0, 7).unwrap();
            assert_eq!(a.recv().unwrap(), (0, 7));
            assert_eq!(stats.total_bytes(), 0, "{kind}: self-sends are free");
        }
    }

    #[test]
    fn recv_one_from_each_buffers_early_rounds() {
        for kind in ALL {
            let (mut eps, _) = fabric_of(kind, 2);
            let b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            // Rank 1 races two rounds ahead before rank 0 collects round 1.
            b.send(0, 10).unwrap(); // round 1
            b.send(0, 20).unwrap(); // round 2 (early)
            a.send(0, 1).unwrap(); // rank 0's self message, round 1
            let round1 = a.recv_one_from_each().unwrap();
            assert_eq!(round1, vec![1, 10]);
            a.send(0, 2).unwrap(); // self, round 2
            let round2 = a.recv_one_from_each().unwrap();
            assert_eq!(round2, vec![2, 20]);
        }
    }

    #[test]
    fn block_receive_buffers_other_sources() {
        let block = |w: u64| CollMsg(vec![w]);
        for kind in ALL {
            let (mut eps, _) = fabric_of(kind, 3);
            let c = eps.pop().unwrap();
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            // Ranks 1 and 2 both send; rank 0 asks for rank 2 first.
            b.send_block(0, block(11)).unwrap();
            b.send_block(0, block(12)).unwrap();
            c.send_block(0, block(21)).unwrap();
            assert_eq!(a.recv_block_from(2).unwrap(), block(21), "{kind}");
            // Rank 1's blocks were buffered in arrival (FIFO) order.
            assert_eq!(a.recv_block_from(1).unwrap(), block(11), "{kind}");
            assert_eq!(a.recv_block_from(1).unwrap(), block(12), "{kind}");
        }
    }

    #[test]
    fn lanes_interleave_on_one_link() {
        let block = |w: u64| CollMsg(vec![w]);
        for kind in ALL {
            let (mut eps, stats) = fabric_of(kind, 2);
            let mut b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            // app, block, app: the collective receive takes the block past
            // the first message, which then still comes first on its lane.
            a.send(1, 1).unwrap();
            a.send_block(1, block(2)).unwrap();
            a.send(1, 3).unwrap();
            assert_eq!(b.recv_block_from(0).unwrap(), block(2), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, 1), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, 3), "{kind}");
            // A mixed burst, drained eagerly, is sorted into both lanes.
            for i in [4, 6] {
                a.send(1, i).unwrap();
                a.send_block(1, block(i + 1)).unwrap();
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut drained = 0;
            while drained < 4 && std::time::Instant::now() < deadline {
                drained += b.drain_ready().unwrap();
            }
            assert_eq!(drained, 4, "{kind}");
            assert_eq!(b.recv_block_from(0).unwrap(), block(5), "{kind}");
            assert_eq!(b.recv_block_from(0).unwrap(), block(7), "{kind}");
            b.send(1, 0).unwrap();
            assert_eq!(b.recv_one_from_each().unwrap(), vec![4, 0], "{kind}");
            assert_eq!(b.recv().unwrap(), (0, 6), "{kind}");
            assert_eq!(stats.total_bytes(), 7 * 8, "{kind}: a word is 8 bytes on either lane");
        }
    }

    #[test]
    fn per_link_fifo_order() {
        for kind in ALL {
            let (mut eps, _) = fabric_of(kind, 2);
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            for i in 0..100 {
                a.send(1, i).unwrap();
            }
            for i in 0..100 {
                assert_eq!(b.recv().unwrap(), (0, i), "{kind}: FIFO per link");
            }
        }
    }

    #[test]
    fn bytes_backend_charges_exactly_the_encoded_frame_bytes() {
        use crate::wire::{WireEncode, WireSize};
        // Independently re-encode every non-self message and compare the
        // accumulated payload lengths against what CommStats recorded —
        // on both really-serializing backends.
        for kind in [TransportKind::Bytes, TransportKind::Tcp] {
            let stats = CommStats::new(2);
            let mut eps =
                CommEndpoint::<Vec<u64>>::fabric(kind, 2, BatchConfig::disabled(), stats.clone());
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            let mut expected = 0u64;
            for len in [0usize, 1, 3, 100, 1000] {
                let msg: Vec<u64> = (0..len as u64).collect();
                expected += msg.to_wire().len() as u64;
                assert_eq!(msg.to_wire().len(), msg.wire_bytes());
                a.send(1, msg.clone()).unwrap();
                a.send(0, msg).unwrap(); // self-send: encoded but never charged
            }
            for _ in 0..5 {
                let _ = b.recv().unwrap();
                let _ = a.recv().unwrap();
            }
            assert_eq!(
                stats.total_bytes(),
                expected,
                "{kind}: comm_bytes must equal encoded frame bytes"
            );
        }
    }

    #[test]
    fn batched_endpoint_charges_per_logical_envelope() {
        // With coalescing on, msgs/bytes must be exactly what the
        // unbatched run charges; only the frame count shrinks (on the
        // backends that have frames).
        for kind in ALL {
            let plain = CommStats::new(2);
            let batched = CommStats::new(2);
            for (stats, batch) in
                [(&plain, BatchConfig::disabled()), (&batched, BatchConfig::msgs(16))]
            {
                let mut eps = CommEndpoint::<u64>::fabric(kind, 2, batch, Arc::clone(stats));
                let b = eps.pop().unwrap();
                let mut a = eps.pop().unwrap();
                std::thread::scope(|s| {
                    // The thread hands its endpoint back: rank 1 is done
                    // receiving after rank 0's *first* envelope, and on the
                    // in-process backends a dropped endpoint fails the
                    // sender's remaining nineteen.
                    let peer = s.spawn(move || {
                        let mut b = b;
                        for _ in 0..20 {
                            b.send(0, 5).unwrap();
                        }
                        b.send(1, 6).unwrap(); // self, so the collect below completes
                        let got = b.recv_one_from_each().unwrap();
                        assert_eq!(got.len(), 2);
                        b
                    });
                    for i in 0..20u64 {
                        a.send(1, i).unwrap();
                    }
                    a.send(0, 99).unwrap();
                    a.send(1, 100).unwrap();
                    let got = a.recv_one_from_each().unwrap();
                    assert_eq!(got[0], 99);
                    for _ in 0..19 {
                        a.recv().unwrap();
                    }
                    drop(peer.join().unwrap());
                });
            }
            assert_eq!(plain.total_msgs(), batched.total_msgs(), "{kind}: msgs invariant");
            assert_eq!(plain.total_bytes(), batched.total_bytes(), "{kind}: bytes invariant");
            assert_eq!(plain.total_frames(), 41, "{kind}: one frame per inter-rank envelope");
            if kind == TransportKind::Loopback {
                // No frames to coalesce: the policy is ignored.
                assert_eq!(batched.total_frames(), 41, "{kind}: frames == inter-rank envelopes");
            } else {
                assert!(
                    batched.total_frames() <= 4,
                    "{kind}: 41 envelopes must coalesce into a handful of frames, got {}",
                    batched.total_frames()
                );
            }
        }
    }

    #[test]
    fn batched_fire_and_forget_send_is_delivered_at_endpoint_drop() {
        // A rank that sends and returns without ever blocking on a
        // receive never reaches an implicit flush point; the envelope
        // must still arrive when its endpoint is torn down, exactly as
        // it would have under the unbatched wire behavior.
        for kind in ALL {
            let stats = CommStats::new(2);
            let mut eps = CommEndpoint::<u64>::fabric(kind, 2, BatchConfig::msgs(64), stats);
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            std::thread::scope(|s| {
                s.spawn(move || {
                    a.send(1, 7).unwrap();
                    // `a` drops here with the envelope still coalescing.
                });
                assert_eq!(b.recv().unwrap(), (0, 7), "{kind}");
            });
        }
    }

    #[test]
    fn drain_ready_feeds_the_next_round_collect() {
        for kind in ALL {
            let (mut eps, _) = fabric_of(kind, 2);
            let b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            b.send(0, 7).unwrap();
            b.flush().unwrap();
            // Wait until the envelope is actually drainable (tcp delivers
            // asynchronously), then collect the round from pending + self.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut drained = 0;
            while drained == 0 && std::time::Instant::now() < deadline {
                drained = a.drain_ready().unwrap();
            }
            assert_eq!(drained, 1, "{kind}");
            a.send(0, 1).unwrap();
            let round = a.recv_one_from_each().unwrap();
            assert_eq!(round, vec![1, 7], "{kind}: drained envelope serves the collect");
        }
    }

    #[test]
    fn interleaved_sends_from_many_sources_keep_per_link_order() {
        // Two producers interleave their streams into one consumer; each
        // link's own order must survive arbitrary interleaving — on both
        // serializing backends.
        for kind in [TransportKind::Bytes, TransportKind::Tcp] {
            let stats = CommStats::new(3);
            let eps = CommEndpoint::<u64>::fabric(kind, 3, BatchConfig::disabled(), stats);
            let mut it = eps.into_iter();
            let c = it.next().unwrap(); // rank 0 consumes
            let a = it.next().unwrap(); // rank 1 produces odd tags
            let b = it.next().unwrap(); // rank 2 produces even tags
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..200u64 {
                        a.send(0, i * 2 + 1).unwrap();
                    }
                });
                s.spawn(move || {
                    for i in 0..200u64 {
                        b.send(0, i * 2).unwrap();
                    }
                });
                let mut next = [0u64, 1]; // next expected even / odd value
                for _ in 0..400 {
                    let (src, v) = c.recv().unwrap();
                    match src {
                        1 => {
                            assert_eq!(v, next[1], "link 1→0 must stay FIFO");
                            next[1] += 2;
                        }
                        2 => {
                            assert_eq!(v, next[0], "link 2→0 must stay FIFO");
                            next[0] += 2;
                        }
                        other => panic!("unexpected source {other}"),
                    }
                }
            });
        }
    }
}
