#![deny(missing_docs)]
//! # dne-runtime — simulated distributed message-passing runtime
//!
//! The paper runs Distributed NE with IntelMPI on 4–256 physical machines
//! (§7.1, Table 3). This crate substitutes that substrate with a faithful
//! in-process simulation:
//!
//! * every simulated **machine** is an OS thread ([`Cluster::run`] spawns
//!   `P` of them and joins their results);
//! * the **interconnect** is a pluggable [`Transport`] fabric of FIFO links
//!   with per-link byte accounting ([`CommStats`]) — this is what the
//!   Table 5 "COM" column measures. A run builds **one** such mesh: each
//!   link carries application messages and collective blocks as the two
//!   lanes of an [`Envelope`], as the paper's MPI code runs both over one
//!   communicator. Three backends exist:
//!   [`TransportKind::Loopback`] moves values by pointer and charges the
//!   [`WireSize`] estimate; [`TransportKind::Bytes`] really serializes
//!   every envelope through the [`WireEncode`]/[`WireDecode`] codec into
//!   length-prefixed little-endian frames and charges the actual encoded
//!   bytes; [`TransportKind::Tcp`] carries those same frames over real
//!   localhost `TcpStream`s, bootstrapped by a rendezvous handshake — and
//!   the same socket endpoint powers genuinely multi-process clusters
//!   ([`tcp::TcpProcessCluster`], driven by the `dne-tcp-worker` binary).
//!   The codec guarantees estimate == actual, so all backends report
//!   identical communication volumes — the serializing backends *prove*
//!   it. Select with [`Cluster::with_transport`] or the `DNE_TRANSPORT`
//!   environment variable (`loopback` | `bytes` | `tcp`). Transport
//!   failures (a dead peer, an undecodable frame) surface as typed
//!   [`TransportError`]s, not panics. On the two framing backends small
//!   same-destination envelopes can be coalesced into multi-message
//!   frames ([`BatchConfig`], the `DNE_COMM_BATCH` environment variable;
//!   one send path in [`frame`], loopback ignores it): logical message/byte
//!   accounting and results are bit-identical with batching on or off,
//!   only the physical frame count ([`CommStats::total_frames`]) and
//!   syscall count change;
//! * **collectives** (barrier, all-gather, all-reduce over `u64`/`f64`)
//!   match the MPI primitives the paper's pseudo-code uses (`Barrier()` in
//!   Algorithm 1 line 9, `AllGatherSum` in line 14) and are themselves
//!   real traffic on the same links (never coalesced), scheduled by a pluggable
//!   [`CollectiveTopology`]: `Flat` (the reference: depth 1, `8·(P−1)`
//!   bytes per rank), `Binomial` tree (depth `2·log₂P`, `2·(P−1)`
//!   messages in total), or `RecursiveDoubling` (depth `log₂P`,
//!   `log₂P` messages per rank) — selected with
//!   [`Cluster::with_collectives`] or the `DNE_COLLECTIVES` environment
//!   variable (`flat` | `tree` | `recursive-doubling`). Every topology
//!   produces bit-identical results (reductions fold the same
//!   rank-indexed vector in rank order) and exact, published byte
//!   accounting ([`CollectiveTopology::rank_traffic`]);
//! * **memory accounting** ([`MemoryTracker`]) reproduces the paper's "mem
//!   score" methodology (§7.3): processes report their live heap bytes at
//!   phase boundaries, and the tracker keeps the snapshot at which the
//!   *total across processes* peaks.
//!
//! ## Why this preserves the paper's behaviour
//!
//! Distributed NE's *quality* is transport-independent: partitioning
//! decisions depend only on message contents exchanged in lock-step rounds,
//! and the codec round-trips contents exactly. The *performance story*
//! (iteration counts, communication volume, imbalance between expansion
//! processes) is preserved because those are algorithmic quantities this
//! runtime measures directly.
//!
//! ## Determinism
//!
//! All cross-process interaction in this workspace goes through the
//! lock-step [`Ctx::exchange`] primitive or the collectives, both of which
//! deliver results indexed by source rank. Algorithms built on them are
//! deterministic under a fixed seed even though threads run concurrently —
//! a property the integration tests rely on — and produce identical results
//! on either transport backend.
//!
//! ## Quick start
//!
//! ```
//! use dne_runtime::{Cluster, CollectiveTopology, TransportKind};
//!
//! // Four simulated machines sum their ranks with an all-reduce, with
//! // every envelope genuinely serialized through the wire codec.
//! let out = Cluster::with_transport(4, TransportKind::Bytes)
//!     .with_collectives(CollectiveTopology::Flat)
//!     .run::<u64, _, _>(|ctx| ctx.all_reduce_sum_u64(ctx.rank() as u64));
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! // The flat topology charges 8·(P−1) bytes per participant; the tree
//! // and recursive-doubling topologies charge their own published
//! // per-rank costs and return bit-identical results.
//! assert_eq!(out.comm.total_bytes(), 4 * 3 * 8);
//! let rd = Cluster::with_transport(4, TransportKind::Bytes)
//!     .with_collectives(CollectiveTopology::RecursiveDoubling)
//!     .run::<u64, _, _>(|ctx| ctx.all_reduce_sum_u64(ctx.rank() as u64));
//! assert_eq!(rd.results, out.results);
//! assert_eq!(rd.comm.total_bytes(), CollectiveTopology::RecursiveDoubling.total_traffic(4).0);
//! ```

pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod frame;
pub mod memory;
#[cfg(unix)]
mod poll;
pub mod rendezvous;
pub mod service;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cluster::{Cluster, ClusterOutcome, Ctx};
pub use collectives::{CollMsg, CollectiveTopology, Collectives, PendingGather};
pub use frame::FramedReader;
pub use memory::{peak_rss_bytes, peak_vm_bytes, reset_peak_rss, MemoryReport, MemoryTracker};
pub use service::{
    parse_server_addr, server_addr_from_env, Service, ServiceReply, ServiceStats, WireClient,
    WireServer, SERVER_ADDR_ENV,
};
pub use stats::CommStats;
pub use tcp::{TcpProcessCluster, TcpSession, TcpTransport, EPOCH_ANY};
pub use transport::{
    BatchConfig, BytesTransport, Envelope, LoopbackTransport, Transport, TransportError,
    TransportKind, DEFAULT_BATCH_BYTES,
};
pub use wire::{WireDecode, WireEncode, WireError, WireReader, WireSize};

/// Read one strict environment knob — the single reader behind every
/// `DNE_*` variable of this crate and of the crates that depend on it:
/// unset or blank means `default()`, anything else must `parse`.
///
/// # Panics
/// Panics on an unparsable or non-Unicode value, naming the variable and
/// the accepted forms (`expected`) — a misconfigured run must fail loudly
/// before it silently measures the wrong configuration.
pub fn env_knob<T>(
    var: &str,
    expected: &str,
    default: impl FnOnce() -> T,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> T {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => parse(&v).unwrap_or_else(|e| panic!("invalid {var}: {e}")),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("invalid {var}: non-Unicode value {raw:?} (expected {expected})")
        }
        _ => default(),
    }
}
