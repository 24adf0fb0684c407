//! Pluggable transport backends for the simulated interconnect.
//!
//! All traffic in the simulated cluster — point-to-point envelopes *and*
//! collective rounds — flows through the [`Transport`] trait. Three
//! backends implement it:
//!
//! * [`LoopbackTransport`] — the fast path: messages move between machine
//!   threads by pointer through crossbeam channels, and the wire cost is
//!   the [`WireSize`] *estimate*. Semantically identical to the original
//!   runtime.
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

use crate::stats::CommStats;
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireSize};

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
        match std::env::var(Self::ENV_VAR) {
            Ok(v) if !v.trim().is_empty() => {
                v.parse().unwrap_or_else(|e| panic!("invalid {}: {e}", Self::ENV_VAR))
            }
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!(
                    "invalid {}: non-Unicode value {raw:?} (expected {KIND_NAMES})",
                    Self::ENV_VAR
                )
            }
            _ => TransportKind::Loopback,
        }
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
            TransportKind::Loopback => LoopbackTransport::fabric_with(n, batch, stats)
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
/// only the `frames` counter (and syscall count) changes.
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
        match std::env::var(Self::ENV_VAR) {
            Ok(v) if !v.trim().is_empty() => {
                v.parse().unwrap_or_else(|e| panic!("invalid {}: {e}", Self::ENV_VAR))
            }
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!(
                    "invalid {}: non-Unicode value {raw:?} (expected {BATCH_NAMES})",
                    Self::ENV_VAR
                )
            }
            _ => BatchConfig::disabled(),
        }
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

/// One endpoint of the simulated interconnect: the seam between the
/// runtime's messaging primitives and the medium that carries them.
///
/// `send` reports the envelope's wire size (estimated on loopback, actual
/// encoded payload on bytes/tcp) for *every* destination, including self.
/// Whether a send is chargeable is not a transport concern: accounting
/// policy (self-sends are free) lives in exactly one place, the
/// [`CommEndpoint`](crate::comm::CommEndpoint) wrapping this trait. `recv`
/// blocks for the next envelope from any source and returns it tagged with
/// the source rank.
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

    /// Deliver `msg` to `dst`'s queue; returns the envelope's wire size.
    ///
    /// Under an enabled [`BatchConfig`] small envelopes may be buffered
    /// rather than transmitted immediately; [`Transport::flush`] (called
    /// by `CommEndpoint` before every blocking receive) pushes them out.
    /// The reported wire size is always the *logical* envelope's payload
    /// bytes, buffered or not, so byte accounting is batching-invariant.
    fn send(&self, dst: usize, msg: M) -> Result<usize, TransportError>;

    /// Blocking receive of the next `(source, message)` envelope.
    fn recv(&self) -> Result<(usize, M), TransportError>;

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
    fn try_recv(&self) -> Result<Option<(usize, M)>, TransportError> {
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

/// One channel packet of the loopback fabric: either a single envelope or
/// the pointer-passing model of a coalesced multi-message frame — what the
/// serializing backends put on a wire, minus the bytes.
enum LoopPacket<M> {
    One(usize, M),
    Many(usize, Vec<M>),
}

/// A per-destination coalescing buffer (loopback flavor: whole messages).
struct LoopBatch<M> {
    msgs: Vec<M>,
    bytes: usize,
}

/// The pointer-passing fast path: envelopes move through typed channels,
/// wire cost is the [`WireSize`] estimate. Coalescing is *modeled*: a
/// flushed buffer travels as one `LoopPacket::Many`, so frame counts match
/// the serializing backends for identical traffic.
pub struct LoopbackTransport<M> {
    rank: usize,
    senders: Vec<Sender<LoopPacket<M>>>,
    receiver: Receiver<LoopPacket<M>>,
    /// Envelopes unpacked from received packets, in arrival order.
    inbox: Mutex<VecDeque<(usize, M)>>,
    batch: BatchConfig,
    outbox: Vec<Mutex<LoopBatch<M>>>,
    stats: Arc<CommStats>,
}

impl<M: Send + WireSize> LoopbackTransport<M> {
    /// Build all `n` connected loopback endpoints at once (coalescing
    /// disabled, frame counts unrecorded — the historical constructor).
    pub fn fabric(n: usize) -> Vec<Self> {
        Self::fabric_with(n, BatchConfig::disabled(), CommStats::new(n))
    }

    /// Build the fabric with an explicit coalescing policy, recording
    /// physical frame counts into `stats`.
    pub fn fabric_with(n: usize, batch: BatchConfig, stats: Arc<CommStats>) -> Vec<Self> {
        channel_mesh(n)
            .into_iter()
            .map(|(rank, senders, receiver)| Self {
                rank,
                senders,
                receiver,
                inbox: Mutex::new(VecDeque::new()),
                batch,
                outbox: (0..n)
                    .map(|_| Mutex::new(LoopBatch { msgs: Vec::new(), bytes: 0 }))
                    .collect(),
                stats: Arc::clone(&stats),
            })
            .collect()
    }

    fn transmit(&self, dst: usize, packet: LoopPacket<M>) -> Result<(), TransportError> {
        self.senders[dst]
            .send(packet)
            .map_err(|_| TransportError::Disconnected { peer: Some(dst) })?;
        if dst != self.rank {
            self.stats.record_frames(self.rank, 1);
        }
        Ok(())
    }

    fn flush_dst(&self, dst: usize) -> Result<(), TransportError> {
        let msgs = {
            let mut buf = self.outbox[dst].lock();
            if buf.msgs.is_empty() {
                return Ok(());
            }
            buf.bytes = 0;
            std::mem::take(&mut buf.msgs)
        };
        self.transmit(dst, LoopPacket::Many(self.rank, msgs))
    }

    /// Unpack one received packet into the inbox.
    fn ingest(&self, packet: LoopPacket<M>) {
        let mut inbox = self.inbox.lock();
        match packet {
            LoopPacket::One(src, m) => inbox.push_back((src, m)),
            LoopPacket::Many(src, msgs) => inbox.extend(msgs.into_iter().map(|m| (src, m))),
        }
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

    fn send(&self, dst: usize, msg: M) -> Result<usize, TransportError> {
        let wire = msg.wire_bytes();
        check_payload_bound(wire, self.rank)?;
        // Self-sends never cross a wire; large envelopes bypass the buffer
        // (after a flush that keeps the link FIFO) as classic frames.
        if dst == self.rank || !self.batch.enabled() {
            self.transmit(dst, LoopPacket::One(self.rank, msg))?;
            return Ok(wire);
        }
        if wire >= self.batch.max_bytes {
            self.flush_dst(dst)?;
            self.transmit(dst, LoopPacket::One(self.rank, msg))?;
            return Ok(wire);
        }
        let full = {
            let mut buf = self.outbox[dst].lock();
            buf.msgs.push(msg);
            buf.bytes += wire;
            buf.msgs.len() >= self.batch.max_msgs || buf.bytes >= self.batch.max_bytes
        };
        if full {
            self.flush_dst(dst)?;
        }
        Ok(wire)
    }

    fn recv(&self) -> Result<(usize, M), TransportError> {
        loop {
            if let Some(envelope) = self.inbox.lock().pop_front() {
                return Ok(envelope);
            }
            let packet =
                self.receiver.recv().map_err(|_| TransportError::Disconnected { peer: None })?;
            self.ingest(packet);
        }
    }

    fn flush(&self) -> Result<(), TransportError> {
        if self.batch.enabled() {
            for dst in 0..self.senders.len() {
                self.flush_dst(dst)?;
            }
        }
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<(usize, M)>, TransportError> {
        loop {
            if let Some(envelope) = self.inbox.lock().pop_front() {
                return Ok(Some(envelope));
            }
            match self.receiver.try_recv() {
                Ok(packet) => self.ingest(packet),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    return Err(TransportError::Disconnected { peer: None })
                }
            }
        }
    }
}

/// Frame header: `[u64 payload length][u32 source rank]`, little-endian.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Upper bound on a single message's encoded payload (1 GiB). Enforced
/// identically by *every* backend's `send` — on the framing backends a
/// corrupt or adversarial length prefix must not drive the reader into a
/// giant allocation, and bounding loopback the same way keeps the three
/// backends observationally identical even at the limit.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// Reject an outgoing payload that would exceed the frame bound.
pub(crate) fn check_payload_bound(wire: usize, src: usize) -> Result<(), TransportError> {
    if wire as u64 > MAX_FRAME_PAYLOAD {
        return Err(TransportError::Frame {
            src: Some(src),
            detail: format!(
                "outgoing message payload of {wire} bytes exceeds the \
                 {MAX_FRAME_PAYLOAD}-byte frame bound"
            ),
        });
    }
    Ok(())
}

/// Encode one envelope into its wire frame
/// (`[u64 payload len][u32 src][payload]`) — the format shared by the
/// bytes backend and the TCP socket fabric.
pub(crate) fn encode_frame<M: WireEncode>(src: usize, msg: &M) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + msg.wire_bytes());
    encode_frame_into(&mut frame, src as u32, msg);
    frame
}

/// [`encode_frame`] straight onto the end of `out` (no intermediate
/// buffer); returns the frame's size.
pub(crate) fn encode_frame_into<M: WireEncode>(out: &mut Vec<u8>, src: u32, msg: &M) -> usize {
    let (start, payload_len) = (out.len(), msg.wire_bytes());
    (payload_len as u64).encode(out);
    src.encode(out);
    msg.encode(out);
    debug_assert_eq!(
        out.len() - start,
        FRAME_HEADER_BYTES + payload_len,
        "encoder must emit exactly wire_bytes() payload bytes"
    );
    FRAME_HEADER_BYTES + payload_len
}

/// Decode one wire frame back into its envelope. Malformed frames are
/// typed errors, never panics: on the in-process bytes backend they would
/// indicate a codec bug, but the same frames cross real sockets on the
/// TCP backend, where truncation and corruption are input conditions.
pub(crate) fn decode_frame<M: WireDecode>(frame: &[u8]) -> Result<(usize, M), TransportError> {
    let mut r = WireReader::new(frame);
    let payload_len = u64::decode(&mut r).map_err(|e| TransportError::Frame {
        src: None,
        detail: format!("frame too short for length prefix: {e}"),
    })? as usize;
    let src = u32::decode(&mut r).map_err(|e| TransportError::Frame {
        src: None,
        detail: format!("frame too short for source rank: {e}"),
    })? as usize;
    if r.remaining() != payload_len {
        return Err(TransportError::Frame {
            src: Some(src),
            detail: format!(
                "length prefix mismatch: header claims {payload_len} payload bytes, \
                 {} present",
                r.remaining()
            ),
        });
    }
    let payload = r.read_bytes(payload_len).expect("payload length checked above");
    let msg = M::from_wire(payload).map_err(|error| TransportError::Decode { src, error })?;
    Ok((src, msg))
}

/// Flag bit set in the `u64` length prefix of a *multi-message* frame.
/// The body of a flagged frame is `[u32 count][(u32 sublen)(payload)]…`
/// instead of a single payload. The TCP goodbye sentinel (`u64::MAX`,
/// every bit set) is checked before this flag everywhere both can occur.
pub(crate) const BATCH_FLAG: u64 = 1 << 63;

/// Does this encoded frame carry a multi-message body?
pub(crate) fn frame_is_batch(frame: &[u8]) -> bool {
    frame.len() >= 8 && {
        let mut len = [0u8; 8];
        len.copy_from_slice(&frame[..8]);
        u64::from_le_bytes(len) & BATCH_FLAG != 0
    }
}

/// Encode several same-destination payloads into one multi-message frame:
/// `[u64 body len | BATCH_FLAG][u32 src][u32 count][(u32 sublen)(payload)]…`.
pub(crate) fn encode_batch_frame(src: usize, payloads: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = 4 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + body);
    ((body as u64) | BATCH_FLAG).encode(&mut frame);
    (src as u32).encode(&mut frame);
    (payloads.len() as u32).encode(&mut frame);
    for p in payloads {
        (p.len() as u32).encode(&mut frame);
        frame.extend_from_slice(p);
    }
    frame
}

/// Decode the body of a multi-message frame (everything after the 12-byte
/// header) into its logical envelopes, in send order.
pub(crate) fn decode_batch_body<M: WireDecode>(
    src: usize,
    body: &[u8],
) -> Result<Vec<M>, TransportError> {
    let mut r = WireReader::new(body);
    let count = u32::decode(&mut r).map_err(|e| TransportError::Frame {
        src: Some(src),
        detail: format!("batch frame too short for message count: {e}"),
    })?;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let sublen = u32::decode(&mut r).map_err(|e| TransportError::Frame {
            src: Some(src),
            detail: format!("batch frame truncated at sub-message {i}/{count}: {e}"),
        })? as usize;
        let payload = r.read_bytes(sublen).map_err(|e| TransportError::Frame {
            src: Some(src),
            detail: format!("batch sub-message {i}/{count} truncated: {e}"),
        })?;
        out.push(M::from_wire(payload).map_err(|error| TransportError::Decode { src, error })?);
    }
    if r.remaining() != 0 {
        return Err(TransportError::Frame {
            src: Some(src),
            detail: format!("{} trailing bytes after {count} batched messages", r.remaining()),
        });
    }
    Ok(out)
}

/// Decode a whole encoded frame — single-message or multi-message — into
/// its envelopes. The batch path is shared by the bytes backend and the
/// TCP socket reader so both understand coalesced traffic identically.
pub(crate) fn decode_frames<M: WireDecode>(
    frame: &[u8],
) -> Result<(usize, Vec<M>), TransportError> {
    if !frame_is_batch(frame) {
        return decode_frame(frame).map(|(src, m)| (src, vec![m]));
    }
    let mut r = WireReader::new(frame);
    let raw_len = u64::decode(&mut r).expect("frame_is_batch read 8 bytes") & !BATCH_FLAG;
    let src = u32::decode(&mut r).map_err(|e| TransportError::Frame {
        src: None,
        detail: format!("batch frame too short for source rank: {e}"),
    })? as usize;
    if r.remaining() as u64 != raw_len {
        return Err(TransportError::Frame {
            src: Some(src),
            detail: format!(
                "batch length prefix mismatch: header claims {raw_len} body bytes, {} present",
                r.remaining()
            ),
        });
    }
    let body_len = r.remaining();
    let body = r.read_bytes(body_len).expect("length checked above");
    decode_batch_body(src, body).map(|msgs| (src, msgs))
}

/// The serializing backend: every envelope becomes a length-prefixed
/// little-endian byte frame (`[u64 payload len][u32 src][payload]`).
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
    inbox: Mutex<VecDeque<(usize, M)>>,
    batch: BatchConfig,
    outbox: Vec<Mutex<ByteBatch>>,
    stats: Arc<CommStats>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

/// A per-destination coalescing buffer (serialized flavor: payloads).
struct ByteBatch {
    payloads: Vec<Vec<u8>>,
    bytes: usize,
}

impl<M: Send + WireEncode + WireDecode> BytesTransport<M> {
    /// Build all `n` connected byte-frame endpoints at once (coalescing
    /// disabled, frame counts unrecorded — the historical constructor).
    pub fn fabric(n: usize) -> Vec<Self> {
        Self::fabric_with(n, BatchConfig::disabled(), CommStats::new(n))
    }

    /// Build the fabric with an explicit coalescing policy, recording
    /// physical frame counts into `stats`.
    pub fn fabric_with(n: usize, batch: BatchConfig, stats: Arc<CommStats>) -> Vec<Self> {
        channel_mesh(n)
            .into_iter()
            .map(|(rank, senders, receiver)| Self {
                rank,
                senders,
                receiver,
                inbox: Mutex::new(VecDeque::new()),
                batch,
                outbox: (0..n)
                    .map(|_| Mutex::new(ByteBatch { payloads: Vec::new(), bytes: 0 }))
                    .collect(),
                stats: Arc::clone(&stats),
                _msg: std::marker::PhantomData,
            })
            .collect()
    }

    fn transmit(&self, dst: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        self.senders[dst]
            .send(frame)
            .map_err(|_| TransportError::Disconnected { peer: Some(dst) })?;
        if dst != self.rank {
            self.stats.record_frames(self.rank, 1);
        }
        Ok(())
    }

    fn flush_dst(&self, dst: usize) -> Result<(), TransportError> {
        let payloads = {
            let mut buf = self.outbox[dst].lock();
            if buf.payloads.is_empty() {
                return Ok(());
            }
            buf.bytes = 0;
            std::mem::take(&mut buf.payloads)
        };
        self.transmit(dst, encode_batch_frame(self.rank, &payloads))
    }

    /// Decode one received frame — single or multi-message — into the inbox.
    fn ingest(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let (src, msgs) = decode_frames::<M>(&frame)?;
        self.inbox.lock().extend(msgs.into_iter().map(|m| (src, m)));
        Ok(())
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

    fn send(&self, dst: usize, msg: M) -> Result<usize, TransportError> {
        // Self-sends still round-trip the codec (as classic frames) but
        // never share a buffer with real traffic; with coalescing off
        // every envelope is its own frame, exactly as before.
        if dst == self.rank || !self.batch.enabled() {
            let frame = encode_frame(self.rank, &msg);
            // Report the encoded payload, excluding the 12-byte frame
            // header: WireSize estimates are payload-only, and all
            // backends must account identically for identical traffic.
            let wire = frame.len() - FRAME_HEADER_BYTES;
            check_payload_bound(wire, self.rank)?;
            self.transmit(dst, frame)?;
            return Ok(wire);
        }
        let payload = msg.to_wire();
        let wire = payload.len();
        check_payload_bound(wire, self.rank)?;
        if wire >= self.batch.max_bytes {
            // Large envelopes bypass the buffer (after a flush that keeps
            // the link FIFO) as classic single-message frames.
            self.flush_dst(dst)?;
            let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + wire);
            (wire as u64).encode(&mut frame);
            (self.rank as u32).encode(&mut frame);
            frame.extend_from_slice(&payload);
            self.transmit(dst, frame)?;
            return Ok(wire);
        }
        let full = {
            let mut buf = self.outbox[dst].lock();
            buf.payloads.push(payload);
            buf.bytes += wire;
            buf.payloads.len() >= self.batch.max_msgs || buf.bytes >= self.batch.max_bytes
        };
        if full {
            self.flush_dst(dst)?;
        }
        Ok(wire)
    }

    fn recv(&self) -> Result<(usize, M), TransportError> {
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
        if self.batch.enabled() {
            for dst in 0..self.senders.len() {
                self.flush_dst(dst)?;
            }
        }
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<(usize, M)>, TransportError> {
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
        let wire = a.send(1, payload.clone()).unwrap();
        assert_eq!(wire, payload.wire_bytes(), "charged bytes must equal wire size");
        let (src, got) = b.recv().unwrap();
        assert_eq!(src, 0);
        assert_eq!(got, payload);
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
            assert_eq!(a.send(0, 7).unwrap(), 8, "{kind}: size reported even for self-sends");
            assert_eq!(a.recv().unwrap(), (0, 7));
        }
    }

    #[test]
    fn frame_layout_is_length_prefixed_little_endian() {
        let frame = encode_frame(3, &0x0102_0304_0506_0708u64);
        assert_eq!(&frame[0..8], &8u64.to_le_bytes(), "payload length prefix");
        assert_eq!(&frame[8..12], &3u32.to_le_bytes(), "source rank");
        assert_eq!(&frame[12..], &0x0102_0304_0506_0708u64.to_le_bytes());
        let (src, msg) = decode_frame::<u64>(&frame).unwrap();
        assert_eq!((src, msg), (3, 0x0102_0304_0506_0708));
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let frame = encode_frame(0, &7u64);
        let err = decode_frame::<u64>(&frame[..frame.len() - 1]).unwrap_err();
        assert!(
            matches!(err, TransportError::Frame { .. }),
            "truncation must surface as a framing error, got {err}"
        );
    }

    #[test]
    fn undecodable_payload_names_the_source() {
        // A frame whose header is intact but whose payload is garbage for
        // the target type must attribute the decode failure to its sender.
        let frame = encode_frame(2, &vec![1u8, 2, 3]);
        match decode_frame::<Vec<u64>>(&frame) {
            Err(TransportError::Decode { src: 2, .. }) => {}
            other => panic!("expected Decode error from rank 2, got {other:?}"),
        }
    }

    #[test]
    fn loopback_send_to_dropped_fabric_errors() {
        let mut fabric = LoopbackTransport::<u64>::fabric(2);
        let _b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        drop(_b);
        let err = a.send(1, 5).unwrap_err();
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
    fn batch_frame_roundtrips_in_send_order() {
        let payloads: Vec<Vec<u8>> = [7u64, 8, 9].iter().map(|v| v.to_wire()).collect::<Vec<_>>();
        let frame = encode_batch_frame(5, &payloads);
        assert!(frame_is_batch(&frame), "flag bit must mark multi-message frames");
        assert!(!frame_is_batch(&encode_frame(5, &7u64)));
        let (src, msgs) = decode_frames::<u64>(&frame).unwrap();
        assert_eq!(src, 5);
        assert_eq!(msgs, vec![7, 8, 9]);
    }

    #[test]
    fn truncated_batch_frame_is_a_typed_error() {
        let frame = encode_batch_frame(1, &[3u64.to_wire(), 4u64.to_wire()]);
        for cut in [frame.len() - 1, FRAME_HEADER_BYTES + 5, FRAME_HEADER_BYTES] {
            let err = decode_frames::<u64>(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, TransportError::Frame { .. }),
                "cut at {cut} must surface as a framing error, got {err}"
            );
        }
    }

    #[test]
    fn coalescing_batches_frames_but_accounting_is_invariant() {
        // 10 small envelopes to one peer under an 8-message batch: two
        // physical frames (8 + a flushed 2), identical bytes/msgs to the
        // unbatched run — on every backend.
        for kind in TransportKind::ALL {
            let stats = CommStats::new(2);
            let mut fabric = kind.fabric::<u64>(2, BatchConfig::msgs(8), Arc::clone(&stats));
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            for i in 0..10u64 {
                assert_eq!(a.send(1, i).unwrap(), 8, "{kind}: logical wire size per envelope");
            }
            a.flush().unwrap();
            for i in 0..10u64 {
                assert_eq!(b.recv().unwrap(), (0, i), "{kind}: batch preserves FIFO order");
            }
            assert_eq!(stats.frames_by(0), 2, "{kind}: 10 envelopes in 2 frames");
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
            a.send(1, vec![1]).unwrap();
            a.send(1, big.clone()).unwrap();
            a.send(1, vec![2]).unwrap();
            a.flush().unwrap();
            assert_eq!(b.recv().unwrap(), (0, vec![1]), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, big.clone()), "{kind}");
            assert_eq!(b.recv().unwrap(), (0, vec![2]), "{kind}");
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
            a.send(1, 11).unwrap();
            a.send(1, 12).unwrap();
            a.flush().unwrap();
            // The tcp fabric delivers asynchronously; poll briefly.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut got = Vec::new();
            while got.len() < 2 && std::time::Instant::now() < deadline {
                if let Some((src, v)) = b.try_recv().unwrap() {
                    assert_eq!(src, 0);
                    got.push(v);
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(got, vec![11, 12], "{kind}");
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
            a.send(1, 1).unwrap();
            a.send(0, 2).unwrap(); // self: delivered, never a wire frame
            a.send(1, 3).unwrap();
            let _ = b.recv().unwrap();
            let _ = a.recv().unwrap();
            let _ = b.recv().unwrap();
            assert_eq!(stats.frames_by(0), 2, "{kind}: frames == non-self envelopes");
            assert_eq!(stats.msgs_sent_by(0), 0, "{kind}: transports never charge msgs");
        }
    }
}
