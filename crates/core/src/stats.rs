//! Run statistics of a Distributed NE execution.

use std::time::Duration;

/// Everything the benchmark harness needs to reproduce the paper's
/// performance figures from one partitioning run.
#[derive(Debug, Clone)]
pub struct NeStats {
    /// Number of partitions `|P|` (== simulated machines).
    pub num_partitions: u32,
    /// `|E|` of the input graph.
    pub num_edges: u64,
    /// Iterations of the expansion loop (Figure 6's left axis).
    pub iterations: u64,
    /// Wall-clock time of the parallel section (Figure 10's metric). It
    /// excludes loading the graph and bucketing its edges by owner, but
    /// includes each machine's local CSR build, which the paper counts as
    /// deployment (§7.3).
    pub elapsed: Duration,
    /// Total bytes crossing the simulated interconnect.
    pub comm_bytes: u64,
    /// Total messages crossing the simulated interconnect.
    pub comm_msgs: u64,
    /// Physical frames carrying those messages. Without coalescing this
    /// equals `comm_msgs` minus self-sends (one frame per remote
    /// envelope); with `DNE_COMM_BATCH` it drops on the bytes and tcp
    /// transports as small envelopes share multi-message frames
    /// (loopback has no frames to coalesce and keeps counting envelopes).
    /// Results and the two counters above are bit-identical either way.
    pub comm_frames: u64,
    /// Collective rounds (barrier / all-gather / all-reduce) each rank
    /// executed — identical across ranks by the lock-step structure. With
    /// `CollectiveTopology::total_traffic` this turns `comm_bytes` into an
    /// exact per-topology expectation (the equivalence harness does).
    pub collective_rounds: u64,
    /// Peak total live bytes across machines (Figure 9 numerator).
    pub peak_memory_bytes: u64,
    /// The paper's mem score: peak bytes / `|E|` (Figure 9).
    pub mem_score: f64,
    /// Largest per-machine cumulative vertex-selection time — the
    /// bottleneck the paper identifies in the trillion-edge experiment
    /// (§7.4: selection grows to 30.3 % of the runtime on 256 machines).
    pub selection_time_max: Duration,
    /// Largest per-machine cumulative allocation time.
    pub allocation_time_max: Duration,
}

impl NeStats {
    /// Fraction of the slowest machine's measured work spent in vertex
    /// selection (the §7.4 imbalance indicator).
    pub fn selection_share(&self) -> f64 {
        let s = self.selection_time_max.as_secs_f64();
        let a = self.allocation_time_max.as_secs_f64();
        if s + a == 0.0 {
            0.0
        } else {
            s / (s + a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_share_is_a_fraction() {
        let st = NeStats {
            num_partitions: 4,
            num_edges: 100,
            iterations: 5,
            elapsed: Duration::from_millis(10),
            comm_bytes: 1000,
            comm_msgs: 10,
            comm_frames: 8,
            collective_rounds: 6,
            peak_memory_bytes: 4096,
            mem_score: 40.96,
            selection_time_max: Duration::from_millis(3),
            allocation_time_max: Duration::from_millis(7),
        };
        assert!((st.selection_share() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn zero_times_give_zero_share() {
        let st = NeStats {
            num_partitions: 1,
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
        assert_eq!(st.selection_share(), 0.0);
    }
}
