//! Configuration of a Distributed NE run.

use std::path::PathBuf;

use dne_runtime::{env_knob, BatchConfig, CollectiveTopology, TransportKind};

/// Per-round checkpointing policy: every `every` completed rounds each
/// rank writes a `DNESNAP2` snapshot of its machine state (see
/// [`crate::snapshot`]) into `dir`, keeping the two most recent rounds so
/// a restarted job can agree on the newest round *every* rank completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a snapshot every this many completed rounds (≥ 1).
    pub every: u64,
    /// Directory the per-rank snapshot files live in (created on demand).
    pub dir: PathBuf,
}

impl CheckpointPolicy {
    /// Environment variable holding the round interval.
    pub const EVERY_ENV_VAR: &'static str = "DNE_CHECKPOINT_EVERY";
    /// Environment variable overriding the snapshot directory.
    pub const DIR_ENV_VAR: &'static str = "DNE_CHECKPOINT_DIR";
    /// Snapshot directory used when `DNE_CHECKPOINT_DIR` is unset.
    pub const DEFAULT_DIR: &'static str = "dne_checkpoints";

    /// Checkpoint every `every` rounds into `dir`.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        assert!(every >= 1, "checkpoint interval must be at least 1 round");
        Self { every, dir: dir.into() }
    }

    /// The policy `DNE_CHECKPOINT_EVERY` / `DNE_CHECKPOINT_DIR` describe:
    /// `None` when `DNE_CHECKPOINT_EVERY` is unset or empty (checkpointing
    /// off, the default).
    ///
    /// # Panics
    /// Panics on a malformed value (zero, non-numeric, non-Unicode),
    /// naming the accepted form — a misconfigured run must fail loudly
    /// before it silently runs without fault tolerance.
    pub fn from_env() -> Option<Self> {
        let every = round_knob(Self::EVERY_ENV_VAR, "a round count >= 1")?;
        let dir = env_knob(
            Self::DIR_ENV_VAR,
            "a directory path",
            || PathBuf::from(Self::DEFAULT_DIR),
            |v| Ok(PathBuf::from(v)),
        );
        Some(Self { every, dir })
    }
}

/// Read an optional 1-based round knob: unset or blank is `None`, anything
/// else must be an integer `>= 1` (`expected` names the form in the panic).
fn round_knob(var: &str, expected: &str) -> Option<u64> {
    env_knob(
        var,
        expected,
        || None,
        |v| match v.trim().parse::<u64>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("expected {expected}")),
        },
    )
}

/// Tunable parameters of Distributed NE. Defaults follow the paper's
/// experimental setting (§7.1): imbalance factor `α = 1.1`, expansion factor
/// `λ = 0.1`.
#[derive(Debug, Clone)]
pub struct NeConfig {
    /// Imbalance factor `α ≥ 1` in the capacity constraint
    /// `max_p |E_p| < α·|E|/|P|` (Equation 2).
    pub alpha: f64,
    /// Expansion factor `0 < λ ≤ 1` of multi-expansion (Algorithm 4): each
    /// iteration expands `k = ⌈λ·|B_p|⌉` minimum-`D_rest` boundary vertices.
    /// `λ → 0` degenerates to single-vertex expansion (Algorithm 1); the
    /// paper picks 0.1 "to maximize the performance and quality" (Figure 6).
    pub lambda: f64,
    /// RNG seed: drives the 2D-hash salts, seed-vertex choices and random
    /// restarts. Equal seeds ⇒ identical partitions (the runtime's
    /// lock-step exchanges make the whole algorithm deterministic).
    pub seed: u64,
    /// Transport backend of the simulated cluster: `Loopback` moves
    /// messages by pointer with estimated byte accounting, `Bytes` really
    /// serializes every envelope and charges exact bytes, `Tcp` carries
    /// the same frames over real localhost sockets. Partitioning results
    /// are identical under all three. `None` (the default) resolves the
    /// `DNE_TRANSPORT` environment variable at partition time (loopback
    /// when unset), so constructing a config never touches the environment.
    pub transport: Option<TransportKind>,
    /// Collective aggregation topology of the simulated cluster: `Flat`
    /// all-gathers (the reference), `Binomial` tree, or
    /// `RecursiveDoubling` — partitioning results are bit-identical under
    /// all three; only the collectives' message/byte schedule changes.
    /// `None` (the default) resolves the `DNE_COLLECTIVES` environment
    /// variable at partition time (flat when unset).
    pub collectives: Option<CollectiveTopology>,
    /// Coalescing policy for point-to-point envelopes: small
    /// same-destination messages are packed into multi-message frames,
    /// cutting the physical frame (and syscall) count without changing
    /// logical message/byte accounting or results. `None` (the default)
    /// resolves the `DNE_COMM_BATCH` environment variable at partition
    /// time (disabled when unset), so constructing a config never touches
    /// the environment.
    pub comm_batch: Option<BatchConfig>,
    /// Per-round checkpointing of the machine state for elastic fault
    /// tolerance (see [`crate::snapshot`]). `None` (the default) resolves
    /// `DNE_CHECKPOINT_EVERY` / `DNE_CHECKPOINT_DIR` at partition time
    /// (checkpointing off when unset), so constructing a config never
    /// touches the environment. Checkpointing never changes results: the
    /// snapshot write is a pure observer of the round loop.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Fault injection for recovery testing: the rank panics at the end of
    /// the given completed round (after its checkpoint write), simulating
    /// a mid-run crash. `None` (the default) resolves `DNE_FAULT_ROUND` at
    /// partition time (no fault when unset). Only ever set on the rank
    /// under test.
    pub fault_round: Option<u64>,
}

impl Default for NeConfig {
    fn default() -> Self {
        Self {
            alpha: 1.1,
            lambda: 0.1,
            seed: 0,
            transport: None,
            collectives: None,
            comm_batch: None,
            checkpoint: None,
            fault_round: None,
        }
    }
}

impl NeConfig {
    /// Paper defaults with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the imbalance factor `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha >= 1.0, "alpha must be >= 1.0");
        self.alpha = alpha;
        self
    }

    /// Override the expansion factor `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1]");
        self.lambda = lambda;
        self
    }

    /// Select the transport backend explicitly (overrides `DNE_TRANSPORT`).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = Some(transport);
        self
    }

    /// The backend a run will use: the explicit choice if one was made,
    /// otherwise whatever `DNE_TRANSPORT` says right now.
    pub fn resolved_transport(&self) -> TransportKind {
        self.transport.unwrap_or_else(TransportKind::from_env)
    }

    /// Select the collective topology explicitly (overrides
    /// `DNE_COLLECTIVES`).
    pub fn with_collectives(mut self, collectives: CollectiveTopology) -> Self {
        self.collectives = Some(collectives);
        self
    }

    /// The collective topology a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_COLLECTIVES` says right now.
    pub fn resolved_collectives(&self) -> CollectiveTopology {
        self.collectives.unwrap_or_else(CollectiveTopology::from_env)
    }

    /// Select the envelope-coalescing policy explicitly (overrides
    /// `DNE_COMM_BATCH`). Pass [`BatchConfig::disabled`] to force classic
    /// one-frame-per-envelope behavior regardless of the environment.
    pub fn with_comm_batch(mut self, batch: BatchConfig) -> Self {
        self.comm_batch = Some(batch);
        self
    }

    /// The coalescing policy a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_COMM_BATCH` says right now.
    pub fn resolved_comm_batch(&self) -> BatchConfig {
        self.comm_batch.unwrap_or_else(BatchConfig::from_env)
    }

    /// Checkpoint the machine state every `every` rounds into `dir`
    /// (overrides `DNE_CHECKPOINT_EVERY` / `DNE_CHECKPOINT_DIR`).
    pub fn with_checkpoint(mut self, every: u64, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint = Some(CheckpointPolicy::new(every, dir));
        self
    }

    /// The checkpoint policy a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_CHECKPOINT_EVERY` /
    /// `DNE_CHECKPOINT_DIR` say right now (`None` = checkpointing off).
    pub fn resolved_checkpoint(&self) -> Option<CheckpointPolicy> {
        self.checkpoint.clone().or_else(CheckpointPolicy::from_env)
    }

    /// Inject a crash: panic at the end of completed round `round`
    /// (overrides `DNE_FAULT_ROUND`). Recovery-testing only.
    pub fn with_fault_round(mut self, round: u64) -> Self {
        assert!(round >= 1, "fault round must be at least 1");
        self.fault_round = Some(round);
        self
    }

    /// The injected fault round a run will use: the explicit choice if one
    /// was made, otherwise whatever `DNE_FAULT_ROUND` says right now
    /// (`None` = no injected fault).
    ///
    /// # Panics
    /// Panics on a malformed `DNE_FAULT_ROUND` (zero, non-numeric,
    /// non-Unicode), naming the accepted form.
    pub fn resolved_fault_round(&self) -> Option<u64> {
        self.fault_round.or_else(|| round_knob("DNE_FAULT_ROUND", "a round >= 1"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NeConfig::default();
        assert_eq!(c.alpha, 1.1);
        assert_eq!(c.lambda, 0.1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_zero_lambda() {
        let _ = NeConfig::default().with_lambda(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_sub_one_alpha() {
        let _ = NeConfig::default().with_alpha(0.5);
    }

    #[test]
    fn builders_compose() {
        let c = NeConfig::default()
            .with_seed(9)
            .with_alpha(1.2)
            .with_lambda(1.0)
            .with_transport(TransportKind::Bytes)
            .with_collectives(CollectiveTopology::Binomial)
            .with_comm_batch(BatchConfig::msgs(64));
        assert_eq!(c.seed, 9);
        assert_eq!(c.alpha, 1.2);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.transport, Some(TransportKind::Bytes));
        assert_eq!(c.resolved_transport(), TransportKind::Bytes);
        assert_eq!(c.collectives, Some(CollectiveTopology::Binomial));
        assert_eq!(c.resolved_collectives(), CollectiveTopology::Binomial);
        assert_eq!(c.comm_batch, Some(BatchConfig::msgs(64)));
        assert_eq!(c.resolved_comm_batch(), BatchConfig::msgs(64));
    }

    #[test]
    fn default_does_not_read_the_environment() {
        // `Default` must be pure: the env vars are only consulted when a
        // run resolves the backend/topology, never at construction.
        assert_eq!(NeConfig::default().transport, None);
        assert_eq!(NeConfig::default().collectives, None);
        assert_eq!(NeConfig::default().comm_batch, None);
        assert_eq!(NeConfig::default().checkpoint, None);
        assert_eq!(NeConfig::default().fault_round, None);
    }

    #[test]
    fn checkpoint_builder_overrides_environment() {
        let c = NeConfig::default().with_checkpoint(3, "/tmp/snaps");
        let policy = c.resolved_checkpoint().expect("explicit policy");
        assert_eq!(policy.every, 3);
        assert_eq!(policy.dir, std::path::PathBuf::from("/tmp/snaps"));
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn rejects_zero_checkpoint_interval() {
        let _ = CheckpointPolicy::new(0, "x");
    }

    #[test]
    fn fault_round_builder() {
        let c = NeConfig::default().with_fault_round(5);
        assert_eq!(c.resolved_fault_round(), Some(5));
    }
}
