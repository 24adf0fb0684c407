//! Pluggable transport backends for the simulated interconnect: the
//! [`Transport`] trait, the backend kinds, the coalescing policy type,
//! the error type, and the two in-process backends. What a frame looks
//! like — and the one send path that produces them — is
//! [`crate::frame`]'s business, not this module's.
//!
//! All traffic in the simulated cluster — point-to-point messages *and*
//! collective blocks — flows through the [`Transport`] trait as one
//! [`Envelope`] lane or the other: a cluster session is one transport per
//! rank. Three backends implement it:
//!
//! * [`LoopbackTransport`] — the thin no-codec reference and the fast
//!   path: `(source, envelope)` pairs move between machine threads by
//!   pointer through a crossbeam channel, and the wire cost is the
//!   [`WireSize`] *estimate* of the envelope's payload. No frames exist, so there is nothing to
//!   coalesce: it ignores [`BatchConfig`] and counts one frame per
//!   inter-rank envelope.
//! * [`BytesTransport`] — every envelope is really serialized through the
//!   [`WireEncode`]/[`WireDecode`] codec into a length-prefixed
//!   little-endian frame, shipped as raw bytes, and decoded on receive.
//!   The wire cost charged is the *actual* encoded payload length, which
//!   makes communication-volume numbers (Table 5 "COM", Figures 9/10)
//!   exact rather than estimated.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — the same frames, but
//!   carried over real `TcpStream` sockets: a full localhost mesh built by
//!   a rendezvous bootstrap (rank 0 listens, peers dial in and exchange
//!   rank handshakes). The in-process fabric bridges machine threads with
//!   real sockets; the same endpoint code also powers genuinely
//!   multi-process clusters (see [`crate::tcp::TcpProcessCluster`] and the
//!   `dne-tcp-worker` binary).
//!
//! All backends preserve the two properties every algorithm in this
//! workspace relies on: per-link FIFO order (crossbeam channels are
//! per-producer FIFO, TCP streams are ordered — the MPI non-overtaking
//! guarantee) and source-tagged envelopes.
//!
//! Backend selection is a [`TransportKind`], threaded through
//! [`crate::Cluster::with_transport`], `NeConfig` in `dne-core`, and the
//! `DNE_TRANSPORT` environment variable (`loopback` | `bytes` | `tcp`)
//! that the bench binaries and test suites honor.
//!
//! Failure surfaces as a typed [`TransportError`], never a panic: a frame
//! that fails to decode, a send into a torn-down fabric, or a vanished
//! peer is reported from [`Transport::send`]/[`Transport::recv`] as an
//! `Err` the caller can attribute to a rank. How *promptly* a vanished
//! peer is detected depends on the medium: the tcp backend observes the
//! peer's socket close (EOF without the goodbye frame) and errors on the
//! next receive, while the in-process channel backends — where a "dead
//! peer" can only mean a sibling thread already unwinding the whole run —
//! report [`TransportError::Disconnected`] once the fabric is torn down.

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::collectives::CollMsg;
use crate::frame::{check_payload_bound, decode_frames, FrameSink, Outbox};
use crate::stats::CommStats;
use crate::wire::{WireDecode, WireEncode, WireError, WireSize};

pub use crate::frame::MAX_FRAME_PAYLOAD;

/// Which transport backend a cluster run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Pointer-passing channels with estimated byte accounting (fast path).
    #[default]
    Loopback,
    /// Real serialization: every envelope is encoded to a byte frame and
    /// decoded on receive; byte accounting is exact.
    Bytes,
    /// Real sockets: the byte frames cross genuine localhost `TcpStream`s
    /// between endpoints; byte accounting is exact and identical to
    /// [`TransportKind::Bytes`].
    Tcp,
}

/// The names `TransportKind::from_str` accepts, for error messages.
const KIND_NAMES: &str = "\"loopback\", \"bytes\", or \"tcp\"";

impl TransportKind {
    /// Environment variable consulted by [`TransportKind::from_env`].
    pub const ENV_VAR: &'static str = "DNE_TRANSPORT";

    /// Every backend, in definition order — the canonical list invariance
    /// tests iterate, so adding a backend cannot silently drop it from a
    /// test suite that hand-copied the roster.
    pub const ALL: [TransportKind; 3] =
        [TransportKind::Loopback, TransportKind::Bytes, TransportKind::Tcp];

    /// Read the backend from `DNE_TRANSPORT` (`loopback` | `bytes` | `tcp`,
    /// case-insensitive, surrounding whitespace ignored). Unset or empty
    /// means [`TransportKind::Loopback`].
    ///
    /// # Panics
    /// Panics on an unrecognized or non-Unicode value, naming the valid
    /// backends — a misconfigured benchmark run (`DNE_TRANSPORT=byte`)
    /// must fail loudly before it silently measures the wrong backend.
    pub fn from_env() -> Self {
        crate::env_knob(Self::ENV_VAR, KIND_NAMES, || TransportKind::Loopback, str::parse)
    }

    /// Build the `n`-endpoint fabric of this backend with the given
    /// coalescing policy, recording physical frame counts into `stats`.
    ///
    /// # Panics
    /// [`TransportKind::Tcp`] panics when the localhost socket mesh cannot
    /// be built (ports exhausted, loopback interface unavailable) — an
    /// environment failure, not an input condition.
    pub(crate) fn fabric<M>(
        self,
        n: usize,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Vec<Box<dyn Transport<M>>>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        match self {
            TransportKind::Loopback => LoopbackTransport::fabric_with(n, stats)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport<M>>)
                .collect(),
            TransportKind::Bytes => BytesTransport::fabric_with(n, batch, stats)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport<M>>)
                .collect(),
            TransportKind::Tcp => crate::tcp::TcpTransport::fabric_with(n, batch, stats)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport<M>>)
                .collect(),
        }
    }
}

/// Default per-destination byte threshold at which a coalescing buffer is
/// flushed even before reaching its message-count threshold (256 KiB —
/// far below [`MAX_FRAME_PAYLOAD`], so a multi-message frame body can
/// never approach the framing bound).
pub const DEFAULT_BATCH_BYTES: usize = 256 * 1024;

/// The names `BatchConfig::from_str` accepts, for error messages.
const BATCH_NAMES: &str = "\"off\", \"0\", or a positive envelope count like \"64\"";

/// Coalescing policy for point-to-point sends: how many small
/// same-destination envelopes may share one multi-message wire frame
/// before the transport flushes the buffer on its own. Receivers always
/// understand both frame layouts, so batching is purely a sender-side
/// knob; logical message/byte accounting is identical with it on or off —
/// only the `frames` counter (and syscall count) changes. It acts on the
/// backends that have frames (bytes and tcp, through their shared send
/// path in [`crate::frame`]); loopback ignores it.
///
/// Resolved from the `DNE_COMM_BATCH` environment variable by
/// [`BatchConfig::from_env`]; disabled (one envelope per frame — the
/// historical behavior) by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum logical envelopes buffered per destination before the
    /// transport auto-flushes that destination. `<= 1` disables
    /// coalescing entirely.
    pub max_msgs: usize,
    /// Maximum buffered payload bytes per destination before an
    /// auto-flush. Envelopes at least this large bypass the buffer and
    /// travel as classic single-message frames.
    pub max_bytes: usize,
}

impl BatchConfig {
    /// Environment variable consulted by [`BatchConfig::from_env`].
    pub const ENV_VAR: &'static str = "DNE_COMM_BATCH";

    /// Coalescing disabled: every envelope is its own frame.
    pub const fn disabled() -> Self {
        BatchConfig { max_msgs: 1, max_bytes: DEFAULT_BATCH_BYTES }
    }

    /// Coalesce up to `max_msgs` envelopes per frame with the default
    /// byte threshold.
    pub const fn msgs(max_msgs: usize) -> Self {
        let max_msgs = if max_msgs == 0 { 1 } else { max_msgs };
        BatchConfig { max_msgs, max_bytes: DEFAULT_BATCH_BYTES }
    }

    /// Whether sends are buffered at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.max_msgs > 1
    }

    /// Read the policy from `DNE_COMM_BATCH`: unset, empty, `off`, or `0`
    /// disable coalescing; a positive integer `N` coalesces up to `N`
    /// envelopes per frame.
    ///
    /// # Panics
    /// Panics on an unrecognized or non-Unicode value, naming the
    /// accepted forms — a misconfigured benchmark run must fail loudly
    /// before it silently measures the wrong configuration.
    pub fn from_env() -> Self {
        crate::env_knob(Self::ENV_VAR, BATCH_NAMES, BatchConfig::disabled, str::parse)
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

impl std::str::FromStr for BatchConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        if t == "off" || t == "0" {
            return Ok(BatchConfig::disabled());
        }
        match t.parse::<usize>() {
            Ok(n) => Ok(BatchConfig::msgs(n)),
            Err(_) => Err(format!("unknown batch setting {s:?} (expected {BATCH_NAMES})")),
        }
    }
}

impl std::fmt::Display for BatchConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.enabled() {
            write!(f, "{}", self.max_msgs)
        } else {
            f.write_str("off")
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "loopback" => Ok(TransportKind::Loopback),
            "bytes" => Ok(TransportKind::Bytes),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (expected {KIND_NAMES})")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Loopback => "loopback",
            TransportKind::Bytes => "bytes",
            TransportKind::Tcp => "tcp",
        })
    }
}

/// A transport-level failure, surfaced as a value instead of a panic so a
/// dead peer aborts a run with an attributable error — essential once
/// endpoints live in separate OS processes that can genuinely die.
#[derive(Debug)]
pub enum TransportError {
    /// A peer endpoint went away: its channel disconnected, its socket was
    /// reset, or its stream ended without the goodbye frame a graceful
    /// shutdown sends.
    Disconnected {
        /// The peer that vanished, when the transport can attribute it.
        peer: Option<usize>,
    },
    /// An incoming frame's payload failed wire decoding.
    Decode {
        /// Source rank of the malformed frame.
        src: usize,
        /// The underlying codec error.
        error: WireError,
    },
    /// A frame violated the framing protocol: oversized length prefix,
    /// stream truncated mid-frame, or a header that does not parse.
    Frame {
        /// Source rank, when the link it arrived on is known.
        src: Option<usize>,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A socket-level IO failure.
    Io {
        /// What the transport was doing when the error occurred.
        context: String,
        /// The underlying OS error.
        error: std::io::Error,
    },
    /// The TCP rendezvous/bootstrap protocol failed (bad magic, rank
    /// mismatch, peer count disagreement, bootstrap timeout).
    Bootstrap {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A well-formed message of the wrong kind for the protocol phase it
    /// arrived in.
    Protocol {
        /// Source rank of the message.
        src: usize,
        /// The message kind the phase expects.
        expected: &'static str,
        /// The message kind that arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected { peer: Some(p) } => {
                write!(f, "peer rank {p} disconnected without goodbye")
            }
            TransportError::Disconnected { peer: None } => {
                write!(f, "all peers disconnected; no further messages can arrive")
            }
            TransportError::Decode { src, error } => {
                write!(f, "malformed frame from rank {src}: {error}")
            }
            TransportError::Frame { src: Some(s), detail } => {
                write!(f, "framing violation on link from rank {s}: {detail}")
            }
            TransportError::Frame { src: None, detail } => write!(f, "framing violation: {detail}"),
            TransportError::Io { context, error } => {
                write!(f, "io failure while {context}: {error}")
            }
            TransportError::Bootstrap { detail } => write!(f, "tcp bootstrap failed: {detail}"),
            TransportError::Protocol { src, expected, got } => {
                write!(f, "rank {src} sent a {got} message where the protocol expects {expected}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io { error, .. } => Some(error),
            TransportError::Decode { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// What one link carries: the two lanes of a cluster session's single
/// mesh. The payload is the inner value alone — which lane it rides is the
/// frame header's business ([`crate::frame`]), so a collective block costs
/// exactly its words and an application message exactly its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope<M> {
    /// An application message (`Ctx::send`, `Ctx::exchange`).
    App(M),
    /// A collective block of the all-gather schedule.
    Coll(CollMsg),
}

// By hand: the lane is not part of the payload, so there is no tag to encode.
impl<M: WireSize> WireSize for Envelope<M> {
    #[inline]
    fn wire_bytes(&self) -> usize {
        match self {
            Envelope::App(m) => m.wire_bytes(),
            Envelope::Coll(block) => block.wire_bytes(),
        }
    }
}

impl<M: WireEncode> WireEncode for Envelope<M> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Envelope::App(m) => m.encode(buf),
            Envelope::Coll(block) => block.encode(buf),
        }
    }
}

/// One endpoint of the simulated interconnect: the seam between the
/// runtime's messaging primitives and the medium that carries them.
///
/// `send` reports the envelope's wire size (estimated on loopback, actual
/// encoded payload on bytes/tcp) for *every* destination, including self.
/// Whether a send is chargeable is not a transport concern: accounting
/// policy (self-sends are free) lives in exactly one place, the
/// [`CommEndpoint`](crate::comm::CommEndpoint) wrapping this trait, which
/// also sorts arrivals into their lanes. `recv` blocks for the next
/// envelope from any source and returns it tagged with the source rank.
///
/// Both operations are fallible: a vanished peer or an undecodable frame
/// is a [`TransportError`], not a panic, so callers (including worker
/// processes in a real multi-process cluster) can attribute the failure
/// and exit cleanly.
pub trait Transport<M>: Send {
    /// This endpoint's rank in `0..nprocs`.
    fn rank(&self) -> usize;

    /// Number of endpoints in the fabric.
    fn nprocs(&self) -> usize;

    /// Deliver `env` to `dst`'s queue; returns the envelope's wire size.
    ///
    /// Under an enabled [`BatchConfig`] small application messages may be
    /// buffered rather than transmitted immediately; [`Transport::flush`]
    /// (called by `CommEndpoint` before every blocking application
    /// receive) pushes them out. Collective blocks are never buffered. The
    /// reported wire size is always the *logical* envelope's payload
    /// bytes, buffered or not, so byte accounting is batching-invariant.
    fn send(&self, dst: usize, env: Envelope<M>) -> Result<usize, TransportError>;

    /// Blocking receive of the next `(source, envelope)` pair.
    fn recv(&self) -> Result<(usize, Envelope<M>), TransportError>;

    /// Transmit every buffered envelope as multi-message frames (one per
    /// destination with a non-empty buffer). A no-op when coalescing is
    /// disabled — the default implementation covers backends that never
    /// buffer.
    fn flush(&self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Non-blocking receive: the next envelope if one is already
    /// deliverable, `None` otherwise. Lets callers drain the inbound
    /// queue eagerly while mid-round computation is still running. The
    /// default says "nothing ready", which is always safe.
    fn try_recv(&self) -> Result<Option<(usize, Envelope<M>)>, TransportError> {
        Ok(None)
    }
}

/// Build the fully-connected channel mesh both in-process backends share:
/// one MPMC queue per endpoint, every peer holding a cloned sender to it.
fn channel_mesh<E>(n: usize) -> Vec<(usize, Vec<Sender<E>>, Receiver<E>)> {
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| (rank, senders.clone(), receiver))
        .collect()
}

/// The pointer-passing reference backend: `(source, envelope)` pairs move
/// through typed channels untouched — no codec, no frames, nothing
/// to coalesce, so it takes no [`BatchConfig`]. Wire cost is the
/// [`WireSize`] estimate, the payload bound is enforced as on the framing
/// backends, and its `frames` count is simply its inter-rank envelopes.
pub struct LoopbackTransport<M> {
    rank: usize,
    senders: Vec<Sender<(usize, Envelope<M>)>>,
    receiver: Receiver<(usize, Envelope<M>)>,
    stats: Arc<CommStats>,
}

impl<M: Send + WireSize> LoopbackTransport<M> {
    /// Build all `n` connected loopback endpoints at once (frame counts
    /// unrecorded — the historical constructor).
    pub fn fabric(n: usize) -> Vec<Self> {
        Self::fabric_with(n, CommStats::new(n))
    }

    /// Build the fabric, recording inter-rank envelope counts into
    /// `stats` as frames.
    pub fn fabric_with(n: usize, stats: Arc<CommStats>) -> Vec<Self> {
        channel_mesh(n)
            .into_iter()
            .map(|(rank, senders, receiver)| Self {
                rank,
                senders,
                receiver,
                stats: Arc::clone(&stats),
            })
            .collect()
    }
}

impl<M: Send + WireSize> Transport<M> for LoopbackTransport<M> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn nprocs(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, dst: usize, env: Envelope<M>) -> Result<usize, TransportError> {
        let wire = env.wire_bytes();
        check_payload_bound(wire, self.rank)?;
        self.senders[dst]
            .send((self.rank, env))
            .map_err(|_| TransportError::Disconnected { peer: Some(dst) })?;
        if dst != self.rank {
            self.stats.record_frames(self.rank, 1);
        }
        Ok(wire)
    }

    fn recv(&self) -> Result<(usize, Envelope<M>), TransportError> {
        self.receiver.recv().map_err(|_| TransportError::Disconnected { peer: None })
    }

    fn try_recv(&self) -> Result<Option<(usize, Envelope<M>)>, TransportError> {
        match self.receiver.try_recv() {
            Ok(envelope) => Ok(Some(envelope)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected { peer: None }),
        }
    }
}

/// The serializing backend: every envelope really crosses the codec into
/// the wire frames of [`crate::frame`] (classic, or multi-message under
/// an enabled [`BatchConfig`]), travels as owned bytes through a channel,
/// and is decoded on receive.
///
/// Self-sends are encoded and decoded like any other envelope — the codec
/// round-trip is exercised for *every* message a run produces — but, as on
/// the loopback backend, they are not charged to the byte accounting (no
/// wire crossed).
pub struct BytesTransport<M> {
    rank: usize,
    senders: Vec<Sender<Vec<u8>>>,
    receiver: Receiver<Vec<u8>>,
    /// Envelopes decoded from received frames, in arrival order.
    inbox: Mutex<VecDeque<(usize, Envelope<M>)>>,
    outbox: Outbox,
}

impl<M: Send + WireEncode + WireDecode> BytesTransport<M> {
    /// Build all `n` connected byte-frame endpoints with an explicit
    /// coalescing policy, recording physical frame counts into `stats`.
    pub fn fabric_with(n: usize, batch: BatchConfig, stats: Arc<CommStats>) -> Vec<Self> {
        channel_mesh(n)
            .into_iter()
            .map(|(rank, senders, receiver)| Self {
                rank,
                senders,
                receiver,
                inbox: Mutex::new(VecDeque::new()),
                outbox: Outbox::new(rank, n, batch, Arc::clone(&stats)),
            })
            .collect()
    }

    /// Decode one received frame — of any layout, on either lane —
    /// into the inbox.
    fn ingest(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let (src, envs) = decode_frames::<M>(&frame)?;
        self.inbox.lock().extend(envs.into_iter().map(|env| (src, env)));
        Ok(())
    }
}

impl<M> FrameSink for BytesTransport<M> {
    /// Each frame is its own heap buffer, handed to `dst`'s channel.
    fn put(&self, dst: usize, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
        let mut frame = Vec::new();
        write(&mut frame);
        self.senders[dst].send(frame).map_err(|_| TransportError::Disconnected { peer: Some(dst) })
    }
}

impl<M: Send + WireEncode + WireDecode> Transport<M> for BytesTransport<M> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn nprocs(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, dst: usize, env: Envelope<M>) -> Result<usize, TransportError> {
        self.outbox.send(self, dst, &env)
    }

    fn recv(&self) -> Result<(usize, Envelope<M>), TransportError> {
        loop {
            if let Some(envelope) = self.inbox.lock().pop_front() {
                return Ok(envelope);
            }
            let frame =
                self.receiver.recv().map_err(|_| TransportError::Disconnected { peer: None })?;
            self.ingest(frame)?;
        }
    }

    fn flush(&self) -> Result<(), TransportError> {
        self.outbox.flush(self)
    }

    fn try_recv(&self) -> Result<Option<(usize, Envelope<M>)>, TransportError> {
        loop {
            if let Some(envelope) = self.inbox.lock().pop_front() {
                return Ok(Some(envelope));
            }
            match self.receiver.try_recv() {
                Ok(frame) => self.ingest(frame)?,
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    return Err(TransportError::Disconnected { peer: None })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Envelope::App;

    /// Unbatched fabric with throwaway stats — the historical shape.
    fn plain_fabric<M>(kind: TransportKind, n: usize) -> Vec<Box<dyn Transport<M>>>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        kind.fabric(n, BatchConfig::disabled(), CommStats::new(n))
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("loopback".parse::<TransportKind>().unwrap(), TransportKind::Loopback);
        assert_eq!("BYTES".parse::<TransportKind>().unwrap(), TransportKind::Bytes);
        assert_eq!("tcp".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert_eq!(" Tcp ".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert_eq!(TransportKind::Bytes.to_string(), "bytes");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::default(), TransportKind::Loopback);
    }

    #[test]
    fn typos_name_every_valid_backend() {
        // The satellite bug: `DNE_TRANSPORT=byte` must be a hard error that
        // tells the operator what would have been accepted.
        let err = "byte".parse::<TransportKind>().unwrap_err();
        for name in ["loopback", "bytes", "tcp"] {
            assert!(err.contains(name), "error {err:?} must list {name}");
        }
    }

    fn delivery_roundtrip(kind: TransportKind) {
        let mut fabric = plain_fabric::<Vec<u64>>(kind, 2);
        let b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        let payload: Vec<u64> = (0..100).collect();
        let wire = a.send(1, App(payload.clone())).unwrap();
        assert_eq!(wire, payload.wire_bytes(), "charged bytes must equal wire size");
        let (src, got) = b.recv().unwrap();
        assert_eq!(src, 0);
        assert_eq!(got, App(payload));
    }

    #[test]
    fn loopback_delivers_and_charges_estimate() {
        delivery_roundtrip(TransportKind::Loopback);
    }

    #[test]
    fn bytes_delivers_and_charges_actual() {
        delivery_roundtrip(TransportKind::Bytes);
    }

    #[test]
    fn tcp_delivers_and_charges_actual() {
        delivery_roundtrip(TransportKind::Tcp);
    }

    #[test]
    fn self_sends_report_their_size_and_deliver() {
        // Transports always report the envelope's wire size — the
        // self-sends-are-free policy lives solely in CommEndpoint.
        for kind in TransportKind::ALL {
            let fabric = plain_fabric::<u64>(kind, 1);
            let a = &fabric[0];
            assert_eq!(a.send(0, App(7)).unwrap(), 8, "{kind}: size reported even for self-sends");
            assert_eq!(a.recv().unwrap(), (0, App(7)));
        }
    }

    #[test]
    fn loopback_send_to_dropped_fabric_errors() {
        let mut fabric = LoopbackTransport::<u64>::fabric(2);
        let _b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        drop(_b);
        let err = a.send(1, App(5)).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { peer: Some(1) }), "{err}");
    }

    #[test]
    fn batch_config_parses_and_displays() {
        assert_eq!("off".parse::<BatchConfig>().unwrap(), BatchConfig::disabled());
        assert_eq!("0".parse::<BatchConfig>().unwrap(), BatchConfig::disabled());
        assert_eq!(" 64 ".parse::<BatchConfig>().unwrap(), BatchConfig::msgs(64));
        assert!(!"1".parse::<BatchConfig>().unwrap().enabled());
        assert!(BatchConfig::msgs(8).enabled());
        assert!(!BatchConfig::disabled().enabled());
        assert_eq!(BatchConfig::msgs(8).to_string(), "8");
        assert_eq!(BatchConfig::disabled().to_string(), "off");
        assert_eq!(BatchConfig::default(), BatchConfig::disabled());
        let err = "eight".parse::<BatchConfig>().unwrap_err();
        assert!(err.contains("off"), "error {err:?} must name the accepted forms");
    }

    #[test]
    fn coalescing_batches_frames_but_accounting_is_invariant() {
        // 10 small envelopes to one peer under an 8-message batch: on the
        // framing backends two physical frames (8 + a flushed 2), with
        // bytes/msgs identical to the unbatched run. Loopback has no
        // frames to coalesce: it ignores the policy and counts one per
        // inter-rank envelope.
        for kind in TransportKind::ALL {
            let stats = CommStats::new(2);
            let mut fabric = kind.fabric::<u64>(2, BatchConfig::msgs(8), Arc::clone(&stats));
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            for i in 0..10u64 {
                assert_eq!(a.send(1, App(i)).unwrap(), 8, "{kind}: logical wire size per envelope");
            }
            a.flush().unwrap();
            for i in 0..10u64 {
                assert_eq!(b.recv().unwrap(), (0, App(i)), "{kind}: batch preserves FIFO order");
            }
            let frames = if kind == TransportKind::Loopback { 10 } else { 2 };
            assert_eq!(stats.frames_by(0), frames, "{kind}: frames for 10 envelopes");
        }
    }

    #[test]
    fn large_envelopes_bypass_the_buffer_in_order() {
        // small, HUGE, small: the big envelope must flush the pending
        // buffer first so the link stays FIFO, and travel as its own
        // classic frame.
        for kind in TransportKind::ALL {
            let stats = CommStats::new(2);
            let batch = BatchConfig { max_msgs: 64, max_bytes: 64 };
            let mut fabric = kind.fabric::<Vec<u64>>(2, batch, Arc::clone(&stats));
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            let big: Vec<u64> = (0..100).collect();
            a.send(1, App(vec![1])).unwrap();
            a.send(1, App(big.clone())).unwrap();
            a.send(1, App(vec![2])).unwrap();
            a.flush().unwrap();
            assert_eq!(b.recv().unwrap(), (0, App(vec![1])), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, App(big.clone())), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, App(vec![2])), "{kind}");
            // frame 1: flushed [1]; frame 2: the big envelope; frame 3:
            // the flushed trailing [2].
            assert_eq!(stats.frames_by(0), 3, "{kind}");
        }
    }

    #[test]
    fn try_recv_drains_ready_envelopes_without_blocking() {
        for kind in TransportKind::ALL {
            let mut fabric = plain_fabric::<u64>(kind, 2);
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            a.send(1, App(11)).unwrap();
            a.send(1, App(12)).unwrap();
            a.flush().unwrap();
            // The tcp fabric delivers asynchronously; poll briefly.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut got = Vec::new();
            while got.len() < 2 && std::time::Instant::now() < deadline {
                if let Some((src, env)) = b.try_recv().unwrap() {
                    assert_eq!(src, 0);
                    got.push(env);
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(got, vec![App(11), App(12)], "{kind}");
            assert!(b.try_recv().unwrap().is_none(), "{kind}: queue must now be empty");
        }
    }

    #[test]
    fn unbatched_sends_count_one_frame_per_envelope_and_self_sends_none() {
        for kind in TransportKind::ALL {
            let stats = CommStats::new(2);
            let mut fabric = kind.fabric::<u64>(2, BatchConfig::disabled(), Arc::clone(&stats));
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            a.send(1, App(1)).unwrap();
            a.send(0, App(2)).unwrap(); // self: delivered, never a wire frame
            a.send(1, App(3)).unwrap();
            let _ = b.recv().unwrap();
            let _ = a.recv().unwrap();
            let _ = b.recv().unwrap();
            assert_eq!(stats.frames_by(0), 2, "{kind}: frames == non-self envelopes");
            assert_eq!(stats.msgs_sent_by(0), 0, "{kind}: transports never charge msgs");
        }
    }
}
