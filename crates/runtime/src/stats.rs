//! Communication statistics: bytes and message counts per process.
//!
//! The Table 5 "COM" column of the paper reports total communication volume
//! in GB per application run; Figure 10's discussion attributes the linear
//! elapsed-time growth partly to communication cost. [`CommStats`]
//! accumulates both quantities per sending rank with relaxed atomics (exact
//! totals, no ordering requirements).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe per-rank communication counters.
#[derive(Debug)]
pub struct CommStats {
    bytes_sent: Vec<AtomicU64>,
    msgs_sent: Vec<AtomicU64>,
    /// Collective rounds initiated per rank (one per barrier / all-gather
    /// / all-reduce call). Topology-independent by construction, which is
    /// what lets tests turn a measured byte total into an exact
    /// per-topology expectation.
    collective_rounds: Vec<AtomicU64>,
    /// Physical wire frames emitted per rank. Without coalescing every
    /// inter-rank envelope is its own frame, so `frames == msgs`; with
    /// `DNE_COMM_BATCH` many envelopes share one multi-message frame on
    /// the bytes and tcp backends and this counter falls while
    /// `msgs_sent` keeps counting logical envelopes (loopback has no
    /// frames: it always counts inter-rank envelopes). Self-sends never
    /// cross a wire and are never counted.
    frames_sent: Vec<AtomicU64>,
}

impl CommStats {
    /// Counters for `nprocs` ranks, all zero.
    pub fn new(nprocs: usize) -> Arc<Self> {
        Arc::new(Self {
            bytes_sent: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            msgs_sent: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            collective_rounds: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            frames_sent: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Charge one sent message of `bytes` bytes to `rank`.
    #[inline]
    pub fn record_send(&self, rank: usize, bytes: usize) {
        self.bytes_sent[rank].fetch_add(bytes as u64, Ordering::Relaxed);
        self.msgs_sent[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes sent by `rank` so far.
    pub fn bytes_sent_by(&self, rank: usize) -> u64 {
        self.bytes_sent[rank].load(Ordering::Relaxed)
    }

    /// Messages sent by `rank` so far.
    pub fn msgs_sent_by(&self, rank: usize) -> u64 {
        self.msgs_sent[rank].load(Ordering::Relaxed)
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total messages sent across all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Record `frames` physical wire frames emitted by `rank`. Called by
    /// the transports' send path (the framing backends' shared `Outbox`,
    /// loopback per inter-rank envelope), never by `CommEndpoint`: only
    /// the send path knows when envelopes were coalesced into one frame.
    #[inline]
    pub fn record_frames(&self, rank: usize, frames: u64) {
        self.frames_sent[rank].fetch_add(frames, Ordering::Relaxed);
    }

    /// Physical frames emitted by `rank` so far.
    pub fn frames_by(&self, rank: usize) -> u64 {
        self.frames_sent[rank].load(Ordering::Relaxed)
    }

    /// Total physical frames emitted across all ranks.
    pub fn total_frames(&self) -> u64 {
        self.frames_sent.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Record one collective round initiated by `rank`.
    #[inline]
    pub fn record_collective(&self, rank: usize) {
        self.collective_rounds[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Collective rounds initiated by `rank` so far.
    pub fn collectives_by(&self, rank: usize) -> u64 {
        self.collective_rounds[rank].load(Ordering::Relaxed)
    }

    /// Total collective rounds across all ranks (in a lock-step run every
    /// rank executes the same count, so this is `nprocs ×` the per-rank
    /// round count).
    pub fn total_collective_rounds(&self) -> u64 {
        self.collective_rounds.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Number of ranks tracked.
    pub fn nprocs(&self) -> usize {
        self.bytes_sent.len()
    }

    /// Snapshot of per-rank sent bytes.
    pub fn per_rank_bytes(&self) -> Vec<u64> {
        self.bytes_sent.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_rank() {
        let s = CommStats::new(3);
        s.record_send(0, 100);
        s.record_send(0, 50);
        s.record_send(2, 8);
        assert_eq!(s.bytes_sent_by(0), 150);
        assert_eq!(s.bytes_sent_by(1), 0);
        assert_eq!(s.bytes_sent_by(2), 8);
        assert_eq!(s.total_bytes(), 158);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.msgs_sent_by(0), 2);
        assert_eq!(s.per_rank_bytes(), vec![150, 0, 8]);
    }

    #[test]
    fn frames_count_independently_of_messages() {
        // 5 logical envelopes coalesced into 2 physical frames: msgs keeps
        // counting envelopes, frames counts what actually hit the wire.
        let s = CommStats::new(2);
        for _ in 0..5 {
            s.record_send(1, 10);
        }
        s.record_frames(1, 2);
        assert_eq!(s.msgs_sent_by(1), 5);
        assert_eq!(s.frames_by(1), 2);
        assert_eq!(s.frames_by(0), 0);
        assert_eq!(s.total_frames(), 2);
    }

    #[test]
    fn collective_rounds_count_per_rank() {
        let s = CommStats::new(2);
        s.record_collective(0);
        s.record_collective(0);
        s.record_collective(1);
        assert_eq!(s.collectives_by(0), 2);
        assert_eq!(s.collectives_by(1), 1);
        assert_eq!(s.total_collective_rounds(), 3);
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let s = CommStats::new(4);
        std::thread::scope(|scope| {
            for r in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        s.record_send(r, 3);
                    }
                });
            }
        });
        assert_eq!(s.total_bytes(), 4 * 10_000 * 3);
        assert_eq!(s.total_msgs(), 40_000);
    }
}
