//! Point-to-point FIFO messaging between simulated machines.
//!
//! [`CommEndpoint`] is the runtime's per-process messaging handle: it owns
//! one endpoint of a [`Transport`] fabric (loopback, bytes, or tcp — see
//! [`crate::transport`]), charges every non-self send to [`CommStats`], and
//! layers the round-alignment buffering that the lock-step
//! [`crate::Ctx::exchange`] primitive needs. Per-link FIFO order is
//! guaranteed by all backends (crossbeam channels are per-producer FIFO,
//! TCP streams are ordered), which is exactly the MPI non-overtaking
//! guarantee the algorithms rely on.
//!
//! Every operation is fallible: a peer that dies mid-run or a frame that
//! fails to decode propagates as a [`TransportError`] so callers —
//! including real worker processes on the TCP backend — can attribute the
//! failure instead of panicking mid-collective.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::stats::CommStats;
use crate::transport::{BatchConfig, Transport, TransportError, TransportKind};
use crate::wire::{WireDecode, WireEncode};

/// The per-process endpoint of the simulated interconnect.
pub struct CommEndpoint<M> {
    link: Box<dyn Transport<M>>,
    /// Messages that arrived early (next round) while we were still
    /// collecting the current round — see `exchange` in `cluster.rs`.
    pending: Vec<VecDeque<M>>,
    stats: Arc<CommStats>,
}

impl<M: Send + WireEncode + WireDecode + 'static> CommEndpoint<M> {
    /// Build all `n` connected endpoints of the chosen backend at once,
    /// coalescing small sends per `batch`.
    pub(crate) fn fabric(
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
        let n = link.nprocs();
        CommEndpoint { link, pending: (0..n).map(|_| VecDeque::new()).collect(), stats }
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
        let wire = self.link.send(dst, msg)?;
        if dst != self.rank() {
            self.stats.record_send(self.rank(), wire);
        }
        Ok(())
    }

    /// Blocking receive of the next message from any source.
    ///
    /// Flushes this endpoint's own coalescing buffers first — blocking on
    /// a receive while holding unsent envelopes a peer is waiting for
    /// would deadlock the round.
    pub fn recv(&self) -> Result<(usize, M), TransportError> {
        self.link.flush()?;
        self.link.recv()
    }

    /// Push every buffered (coalesced) envelope onto the wire now. A
    /// no-op when `DNE_COMM_BATCH` is off; called automatically before
    /// every blocking receive.
    pub fn flush(&self) -> Result<(), TransportError> {
        self.link.flush()
    }

    /// Drain every envelope the transport can deliver *without blocking*
    /// into the per-source pending queues, returning how many arrived.
    /// Overlapped rounds call this mid-computation so inbound frames are
    /// decoded while the CPU would otherwise idle in the next blocking
    /// collect; the drained envelopes are served (in per-link FIFO order)
    /// by the next [`CommEndpoint::recv_from`] /
    /// [`CommEndpoint::recv_one_from_each`].
    pub fn drain_ready(&mut self) -> Result<usize, TransportError> {
        let mut drained = 0;
        while let Some((src, msg)) = self.link.try_recv()? {
            self.pending[src].push_back(msg);
            drained += 1;
        }
        Ok(drained)
    }

    /// Blocking receive of the next message from a *specific* source,
    /// buffering envelopes that arrive from other ranks in the meantime
    /// (served by later `recv_from`/`recv_one_from_each` calls in per-link
    /// FIFO order). This is what lets the tree and recursive-doubling
    /// collective schedules name their partner per round without racing
    /// peers that have run ahead.
    pub fn recv_from(&mut self, src: usize) -> Result<M, TransportError> {
        if let Some(m) = self.pending[src].pop_front() {
            return Ok(m);
        }
        self.link.flush()?;
        loop {
            let (from, msg) = self.link.recv()?;
            if from == src {
                return Ok(msg);
            }
            self.pending[from].push_back(msg);
        }
    }

    /// Receive exactly one message from *every* rank (including self),
    /// returning them indexed by source. Out-of-round messages (a second
    /// message from a rank that already delivered this round) are buffered
    /// for the next call — this is what makes back-to-back exchanges safe
    /// even when peers race ahead.
    pub fn recv_one_from_each(&mut self) -> Result<Vec<M>, TransportError> {
        let n = self.nprocs();
        let mut slots: Vec<Option<M>> = (0..n).map(|_| None).collect();
        let mut filled = 0;
        // Serve from the pending buffers first.
        for (slot, pending) in slots.iter_mut().zip(self.pending.iter_mut()) {
            if slot.is_none() {
                if let Some(m) = pending.pop_front() {
                    *slot = Some(m);
                    filled += 1;
                }
            }
        }
        self.link.flush()?;
        while filled < n {
            let (src, msg) = self.link.recv()?;
            if slots[src].is_none() {
                slots[src] = Some(msg);
                filled += 1;
            } else {
                self.pending[src].push_back(msg);
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
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
    fn recv_from_buffers_other_sources() {
        for kind in ALL {
            let (mut eps, _) = fabric_of(kind, 3);
            let c = eps.pop().unwrap();
            let b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            // Ranks 1 and 2 both send; rank 0 asks for rank 2 first.
            b.send(0, 11).unwrap();
            b.send(0, 12).unwrap();
            c.send(0, 21).unwrap();
            assert_eq!(a.recv_from(2).unwrap(), 21, "{kind}");
            // Rank 1's envelopes were buffered in arrival (FIFO) order.
            assert_eq!(a.recv_from(1).unwrap(), 11, "{kind}");
            assert_eq!(a.recv_from(1).unwrap(), 12, "{kind}");
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
                        a.recv_from(1).unwrap();
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
