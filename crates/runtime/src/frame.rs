//! The wire-frame layer: every frame layout, encode and decode, and the
//! stream machinery built on them. Everything that knows what a frame
//! looks like lives here; the byte-shipping backends
//! ([`crate::transport::BytesTransport`], [`crate::tcp::TcpTransport`])
//! and the request/response service layer ([`crate::service`]) only move
//! the bytes this module produces.
//!
//! Three layouts share one 12-byte little-endian header,
//! `[u64 length prefix][u32 source word]`; the top two bits of the prefix
//! are flags, the rest is the body length:
//!
//! * **classic** — `[u64 payload len][u32 src][payload]`, one application
//!   envelope;
//! * **collective block** — the classic layout with bit 62 set,
//!   `[u64 payload len | COLL_FLAG][u32 src][words]`: one [`CollMsg`] on
//!   the collective lane of the same link, never coalesced;
//! * **multi-message** — bit 63 set:
//!   `[u64 body len | BATCH_FLAG][u32 src][u32 count][(u32 sublen)(payload)]×count`,
//!   several same-destination application envelopes in send order.
//!
//! A length prefix of `u64::MAX` is the goodbye marker of a graceful
//! shutdown (checked before the flag bits wherever both can occur); both
//! flags at once is a framing error. The source word is the sender's rank
//! on mesh links and a request sequence number in the service layer, which
//! speaks classic frames only.
//!
//! The pieces:
//!
//! * `Outbox` (crate-internal) — the **one** send path under the bytes
//!   and tcp backends: it owns the [`BatchConfig`] policy, encodes each
//!   envelope straight into a frame (coalescing off, self-sends, large
//!   envelopes) or in place into a per-destination pending body that
//!   leaves as one multi-message frame at the next flush point, enforces
//!   the payload bound and counts physical frames. A backend supplies
//!   only a `FrameSink`: where a finished frame's bytes go.
//! * `decode_frames` — the one decoder, for every layout.
//! * `FrameAssembler` (crate-internal) — the one reassembly
//!   implementation (short reads, coalesced arrivals, bounded
//!   allocation): bytes are pushed in, borrowed frames are pulled out;
//! * [`FramedReader`] — its blocking driver for simple clients;
//! * `WriteQueue` (crate-internal) — per-connection byte queue: frames
//!   are encoded straight into it and leave in as few `write`s as the
//!   socket takes, with partial-write resume.
//!
//! Every malformed condition — EOF mid-frame, a length prefix beyond
//! [`MAX_FRAME_PAYLOAD`], a message count the body cannot hold, a payload
//! that fails to decode — is a typed [`TransportError`], never a panic or
//! an allocation sized by the peer.

use std::io::{self, Read, Write};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::collectives::CollMsg;
use crate::stats::CommStats;
use crate::transport::{BatchConfig, Envelope, TransportError};
use crate::wire::{WireDecode, WireEncode, WireReader, WireSize};

/// Frame header: `[u64 length prefix][u32 source word]`, little-endian.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Upper bound on a single message's encoded payload (1 GiB). Enforced
/// identically by *every* backend's `send` — on the framing backends a
/// corrupt or adversarial length prefix must not drive the reader into a
/// giant allocation, and bounding loopback the same way keeps the three
/// backends observationally identical even at the limit.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// Flag bit set in the `u64` length prefix of a *multi-message* frame.
/// The body of a flagged frame is `[u32 count][(u32 sublen)(payload)]…`
/// instead of a single payload. The goodbye sentinel (`u64::MAX`, every
/// bit set) is checked before the flags everywhere both can occur.
pub(crate) const BATCH_FLAG: u64 = 1 << 63;

/// Flag bit set in the `u64` length prefix of a *collective block*: a
/// classic frame whose payload is a [`CollMsg`] on the collective lane.
pub(crate) const COLL_FLAG: u64 = 1 << 62;

/// Both flag bits: what every reader masks off the length prefix.
const FLAGS: u64 = BATCH_FLAG | COLL_FLAG;

/// Length-prefix sentinel marking a goodbye frame.
pub(crate) const BYE_LEN: u64 = u64::MAX;

/// Bytes one `read` may return: the size of the scratch buffer every
/// reader (blocking or poll loop) hands to the socket.
pub(crate) const READ_BUF_BYTES: usize = 64 << 10;

fn frame_err(src: Option<usize>, detail: String) -> TransportError {
    TransportError::Frame { src, detail }
}

/// Reject an outgoing payload that would exceed the frame bound.
pub(crate) fn check_payload_bound(wire: usize, src: usize) -> Result<(), TransportError> {
    if wire as u64 > MAX_FRAME_PAYLOAD {
        return Err(frame_err(
            Some(src),
            format!(
                "outgoing message payload of {wire} bytes exceeds the \
                 {MAX_FRAME_PAYLOAD}-byte frame bound"
            ),
        ));
    }
    Ok(())
}

// ----------------------------------------------------------------- encode --

/// The 12-byte goodbye frame of rank `src`.
pub(crate) fn bye_frame(src: usize) -> [u8; FRAME_HEADER_BYTES] {
    let mut f = [0u8; FRAME_HEADER_BYTES];
    f[0..8].copy_from_slice(&BYE_LEN.to_le_bytes());
    f[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    f
}

/// Encode `msg`, whose `wire_bytes()` is `payload_len`, as one classic
/// frame (`[u64 payload len | flag][u32 src][payload]`, `flag` 0 or
/// [`COLL_FLAG`]) straight onto the end of `out` — no intermediate buffer —
/// and return the frame's size. The caller passes the size it already
/// checked: sizing a message is a pass over its sequences.
fn encode_frame_into<M: WireEncode>(
    out: &mut Vec<u8>,
    src: u32,
    msg: &M,
    flag: u64,
    payload_len: usize,
) -> usize {
    let start = out.len();
    out.reserve(FRAME_HEADER_BYTES + payload_len);
    (payload_len as u64 | flag).encode(out);
    src.encode(out);
    msg.encode(out);
    debug_assert_eq!(
        out.len() - start,
        FRAME_HEADER_BYTES + payload_len,
        "encoder must emit exactly wire_bytes() payload bytes"
    );
    out.len() - start
}

/// [`encode_frame_into`] behind the payload bound: a payload beyond
/// [`MAX_FRAME_PAYLOAD`] is the typed error every sending backend raises,
/// and leaves `out` untouched.
pub(crate) fn push_frame<M: WireEncode>(
    out: &mut Vec<u8>,
    src: u32,
    msg: &M,
) -> Result<usize, TransportError> {
    let payload_len = msg.wire_bytes();
    check_payload_bound(payload_len, src as usize)?;
    Ok(encode_frame_into(out, src, msg, 0, payload_len))
}

/// Where an [`Outbox`] puts finished frames — the one backend-specific
/// piece of the send path.
pub(crate) trait FrameSink {
    /// Have `write` append exactly one whole frame to a buffer bound for
    /// `dst` (which may be this endpoint itself), and ship that buffer.
    fn put(&self, dst: usize, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError>;
}

/// Envelopes for one destination waiting to share a multi-message frame:
/// the frame's body after its count word, encoded in place.
#[derive(Default)]
struct Pending {
    /// `[(u32 sublen)(payload)]…`, in send order.
    body: Vec<u8>,
    count: u32,
}

/// The send path of the framing backends: one copy of the coalescing
/// policy, the frame encoders, the payload bound and the physical-frame
/// count, over whatever [`FrameSink`] the backend is.
///
/// With coalescing off (the default) every envelope is encoded straight
/// into its own classic frame and no lock is taken. With it on, small
/// envelopes for another rank are encoded in place into that rank's
/// pending body and leave as one multi-message frame when the body fills
/// (`max_msgs` envelopes or `max_bytes` payload bytes) or at the next
/// [`Outbox::flush`]; an envelope of `max_bytes` or more flushes the body
/// (the link stays FIFO) and travels as a classic frame. Collective blocks
/// always travel alone, as flagged classic frames that neither join nor
/// flush a pending body — so the published per-rank collective cost holds
/// under any policy and the application frames are what they would be
/// without them. Self-sends round-trip the codec as classic frames but
/// never cross a wire, so they are never buffered and never counted.
pub(crate) struct Outbox {
    rank: usize,
    policy: BatchConfig,
    pending: Vec<Mutex<Pending>>,
    stats: Arc<CommStats>,
}

impl Outbox {
    /// The send path of endpoint `rank` in an `nprocs`-endpoint fabric,
    /// counting the frames it emits into `stats`.
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        policy: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Self {
        Self { rank, policy, pending: (0..nprocs).map(|_| Mutex::default()).collect(), stats }
    }

    /// Frame `msg` for `dst` — now, or with its neighbours at the next
    /// flush point — and return its encoded payload size. The size
    /// excludes frame and sub-message headers: [`WireSize`](crate::wire::WireSize)
    /// estimates are payload-only, and every backend must account
    /// identically for identical traffic, coalesced or not.
    pub(crate) fn send<M: WireEncode>(
        &self,
        sink: &impl FrameSink,
        dst: usize,
        msg: &Envelope<M>,
    ) -> Result<usize, TransportError> {
        let wire = msg.wire_bytes();
        // Enforced at the sender: shipping a gigabyte only for the
        // receiver to reject it as stream corruption would waste the
        // transfer and misattribute a legitimate (if oversized) message.
        check_payload_bound(wire, self.rank)?;
        let flag = if matches!(msg, Envelope::Coll(_)) { COLL_FLAG } else { 0 };
        let coalescing = dst != self.rank && self.policy.enabled() && flag == 0;
        if coalescing && wire < self.policy.max_bytes {
            let mut p = self.pending[dst].lock();
            let start = p.body.len();
            (wire as u32).encode(&mut p.body);
            msg.encode(&mut p.body);
            p.count += 1;
            let sent = p.body.len() - start - 4;
            debug_assert_eq!(sent, wire, "encoder must emit exactly wire_bytes() payload bytes");
            let payload_bytes = p.body.len() - 4 * p.count as usize;
            if p.count as usize >= self.policy.max_msgs || payload_bytes >= self.policy.max_bytes {
                self.flush_pending(sink, dst, &mut p)?;
            }
            return Ok(sent);
        }
        if coalescing {
            self.flush_pending(sink, dst, &mut self.pending[dst].lock())?;
        }
        let mut frame = 0;
        sink.put(dst, |out| frame = encode_frame_into(out, self.rank as u32, msg, flag, wire))?;
        if dst != self.rank {
            self.stats.record_frames(self.rank, 1);
        }
        Ok(frame - FRAME_HEADER_BYTES)
    }

    /// Ship every pending body (one multi-message frame per destination
    /// that has one). A no-op, lock-free, when coalescing is off.
    pub(crate) fn flush(&self, sink: &impl FrameSink) -> Result<(), TransportError> {
        if self.policy.enabled() {
            for (dst, p) in self.pending.iter().enumerate() {
                self.flush_pending(sink, dst, &mut p.lock())?;
            }
        }
        Ok(())
    }

    /// Ship what is pending for `dst` as one multi-message frame:
    /// `[u64 body len | BATCH_FLAG][u32 src][u32 count][(u32 sublen)(payload)]…`.
    fn flush_pending(
        &self,
        sink: &impl FrameSink,
        dst: usize,
        p: &mut Pending,
    ) -> Result<(), TransportError> {
        if p.count == 0 {
            return Ok(());
        }
        sink.put(dst, |out| {
            out.reserve(FRAME_HEADER_BYTES + 4 + p.body.len());
            ((4 + p.body.len()) as u64 | BATCH_FLAG).encode(out);
            (self.rank as u32).encode(out);
            p.count.encode(out);
            out.extend_from_slice(&p.body);
        })?;
        // Like `WriteQueue::clear`: a burst's capacity goes back to the
        // allocator, a steady trickle's is reused.
        p.body.clear();
        p.body.shrink_to(READ_BUF_BYTES);
        p.count = 0;
        self.stats.record_frames(self.rank, 1);
        Ok(())
    }
}

// ----------------------------------------------------------------- decode --

/// The `(length prefix, source word)` of the header `bytes` start with,
/// once all of it has arrived.
fn header(bytes: &[u8]) -> Option<(u64, u32)> {
    let h = bytes.get(..FRAME_HEADER_BYTES)?;
    Some((
        u64::from_le_bytes(h[0..8].try_into().expect("8-byte slice")),
        u32::from_le_bytes(h[8..12].try_into().expect("4-byte slice")),
    ))
}

/// The source word of a complete frame, as an [`Assembled::Frame`] is.
pub(crate) fn source_word(frame: &[u8]) -> u32 {
    header(frame).expect("a complete frame starts with its header").1
}

/// Split a complete unflagged classic frame into its source word and
/// payload; `None` for a multi-message frame or a collective block.
pub(crate) fn classic_parts(frame: &[u8]) -> Option<(u32, &[u8])> {
    let (len, src) = header(frame)?;
    (len & FLAGS == 0).then(|| (src, &frame[FRAME_HEADER_BYTES..]))
}

/// Decode one whole encoded frame — classic, collective block or
/// multi-message — into its source rank and its envelopes, each on its
/// lane, in send order: the one decoder under the bytes backend and the
/// tcp io loop, so both understand coalesced traffic identically.
/// Malformed frames are typed errors, never panics: on the in-process
/// bytes backend they would indicate a codec bug, but the same frames
/// cross real sockets on the tcp backend, where truncation and corruption
/// are input conditions.
pub(crate) fn decode_frames<M: WireDecode>(
    frame: &[u8],
) -> Result<(usize, Vec<Envelope<M>>), TransportError> {
    let Some((len, src)) = header(frame) else {
        return Err(frame_err(None, format!("{} bytes are too short for a header", frame.len())));
    };
    let (src, body) = (src as usize, &frame[FRAME_HEADER_BYTES..]);
    if len & !FLAGS != body.len() as u64 {
        return Err(frame_err(
            Some(src),
            format!(
                "length prefix mismatch: header claims {} body bytes, {} present",
                len & !FLAGS,
                body.len()
            ),
        ));
    }
    let decode_err = |error| TransportError::Decode { src, error };
    let envs = match len & FLAGS {
        0 => vec![Envelope::App(M::from_wire(body).map_err(decode_err)?)],
        COLL_FLAG => vec![Envelope::Coll(CollMsg::from_wire(body).map_err(decode_err)?)],
        BATCH_FLAG => decode_batch_body(src, body)?.into_iter().map(Envelope::App).collect(),
        _ => return Err(frame_err(Some(src), "a collective block flagged multi-message".into())),
    };
    Ok((src, envs))
}

/// Decode the body of a multi-message frame (everything after the 12-byte
/// header) into its logical envelopes, in send order.
fn decode_batch_body<M: WireDecode>(src: usize, body: &[u8]) -> Result<Vec<M>, TransportError> {
    let truncated = |what: String, e| frame_err(Some(src), format!("batch frame {what}: {e}"));
    let mut r = WireReader::new(body);
    let count = u32::decode(&mut r).map_err(|e| truncated("too short for its count".into(), e))?;
    // The count comes off the wire: every sub-message costs at least its
    // 4-byte length word, so the body bounds how many it can hold — and
    // with that how much is reserved for them.
    if count as usize > r.remaining() / 4 {
        return Err(frame_err(
            Some(src),
            format!("batch frame claims {count} messages in a {}-byte body", body.len()),
        ));
    }
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let sublen = u32::decode(&mut r)
            .map_err(|e| truncated(format!("truncated at sub-message {i}/{count}"), e))?;
        let payload = r
            .read_bytes(sublen as usize)
            .map_err(|e| truncated(format!("sub-message {i}/{count} truncated"), e))?;
        out.push(M::from_wire(payload).map_err(|error| TransportError::Decode { src, error })?);
    }
    if r.remaining() != 0 {
        return Err(frame_err(
            Some(src),
            format!("{} trailing bytes after {count} batched messages", r.remaining()),
        ));
    }
    Ok(out)
}

// ----------------------------------------------------------------- stream --

/// Blocking frame reads over a byte stream: the pull-based driver of the
/// same `FrameAssembler` the poll loops push into. Each `read` lands in a
/// reused buffer and yields every frame that arrived with it.
pub struct FramedReader<R> {
    inner: R,
    assembler: FrameAssembler,
    scratch: Box<[u8]>,
}

impl<R: Read> FramedReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        let scratch = vec![0; READ_BUF_BYTES].into_boxed_slice();
        Self { inner, assembler: FrameAssembler::default(), scratch }
    }

    /// Whether the next [`FramedReader::read_frame`] returns without
    /// touching the stream (a complete item is already buffered).
    pub fn frame_buffered(&self) -> bool {
        matches!(self.assembler.ready(None), Ok(Some(_)))
    }

    /// Read the next single-message frame, touching the stream only when
    /// none is buffered: its header's source word and its payload,
    /// borrowed until the next call. `None` is the goodbye marker of a
    /// graceful shutdown.
    ///
    /// EOF cleanly between frames yields
    /// [`TransportError::Disconnected`] (the caller knows which peer the
    /// stream belongs to); EOF anywhere inside a frame, an oversized
    /// length prefix, or a flagged (multi-message or collective) frame
    /// yields [`TransportError::Frame`].
    pub fn read_frame(&mut self) -> Result<Option<(u32, &[u8])>, TransportError> {
        while self.assembler.ready(None)?.is_none() {
            let n = match self.inner.read(&mut self.scratch) {
                Ok(0) => return Err(self.assembler.eof_error(None)),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => {
                    return Err(TransportError::Io { context: "reading a frame".into(), error })
                }
            };
            self.assembler.push(&self.scratch[..n]);
        }
        match self.assembler.next(None)?.expect("a complete item is buffered") {
            Assembled::Bye => Ok(None),
            Assembled::Frame(frame) => match classic_parts(frame) {
                Some(parts) => Ok(Some(parts)),
                None => Err(TransportError::Frame {
                    src: None,
                    detail: "flagged mesh frame on a single-message stream".into(),
                }),
            },
        }
    }
}

/// One complete item handed out by the [`FrameAssembler`], borrowed from
/// its buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Assembled<'a> {
    /// A complete encoded frame, header included — of any layout;
    /// `decode_frames` understands them all.
    Frame(&'a [u8]),
    /// The goodbye marker of a graceful shutdown.
    Bye,
}

/// Incremental frame reassembly: the single implementation under the
/// poll loops (which push whatever bytes are ready) and the blocking
/// [`FramedReader`].
///
/// Complete frames come out as slices of the internal buffer, partial
/// ones wait for the next push. Only bytes that actually arrived are
/// ever buffered, so an absurd length prefix cannot drive allocation
/// ahead of the stream — prefixes beyond [`MAX_FRAME_PAYLOAD`] are
/// rejected as soon as the header is complete. The `peer` arguments only
/// label errors; `None` falls back to the header's own source word.
#[derive(Default)]
pub(crate) struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of the first item not yet handed out.
    pos: usize,
}

impl FrameAssembler {
    /// Append freshly-read bytes, dropping what was already handed out.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Size of the next item if all of it has arrived.
    fn ready(&self, peer: Option<usize>) -> Result<Option<usize>, TransportError> {
        let rest = &self.buf[self.pos..];
        let Some((len, src)) = header(rest) else { return Ok(None) };
        // The goodbye sentinel has every bit set, so it must be
        // recognized before the flags are interpreted.
        if len == BYE_LEN {
            return Ok(Some(FRAME_HEADER_BYTES));
        }
        let body = len & !FLAGS;
        if body > MAX_FRAME_PAYLOAD {
            return Err(TransportError::Frame {
                src: peer.or(Some(src as usize)),
                detail: format!(
                    "length prefix {body} exceeds the {MAX_FRAME_PAYLOAD}-byte frame bound"
                ),
            });
        }
        let total = FRAME_HEADER_BYTES + body as usize;
        Ok((rest.len() >= total).then_some(total))
    }

    /// The next complete item in arrival order, or `None` until more
    /// bytes are pushed.
    pub(crate) fn next(
        &mut self,
        peer: Option<usize>,
    ) -> Result<Option<Assembled<'_>>, TransportError> {
        let Some(total) = self.ready(peer)? else { return Ok(None) };
        let item = &self.buf[self.pos..self.pos + total];
        self.pos += total;
        let bye = item[..8] == BYE_LEN.to_le_bytes();
        Ok(Some(if bye { Assembled::Bye } else { Assembled::Frame(item) }))
    }

    /// The typed outcome of the stream ending here: a clean disconnect at
    /// a frame boundary, a framing error inside a frame.
    pub(crate) fn eof_error(&self, peer: Option<usize>) -> TransportError {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return TransportError::Disconnected { peer };
        }
        TransportError::Frame {
            src: peer.or(header(rest).map(|(_, src)| src as usize)),
            detail: format!("stream ended mid-frame, {} bytes into it", rest.len()),
        }
    }
}

/// Encoded bytes awaiting a writable window on one connection.
///
/// Frames are appended to [`WriteQueue::tail`] and leave in arrival
/// order, as many per `write` as the socket takes.
#[derive(Default)]
pub(crate) struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written (partial-write resume point).
    head: usize,
}

impl WriteQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The buffer encoders append whole frames to.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        // Reclaim the written prefix once it is the larger half, so a
        // connection that never fully drains stays bounded by its backlog.
        if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        &mut self.buf
    }

    /// Drop everything queued (it was written, or the connection failed),
    /// keeping one read batch of capacity: a burst's goes back to the
    /// allocator.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.buf.clear();
        self.buf.shrink_to(READ_BUF_BYTES);
    }

    /// Write queued bytes until the queue empties or the writer pushes
    /// back; returns the `write` calls issued. `WouldBlock` is not an
    /// error (the queue stays non-empty and the caller re-arms
    /// `POLLOUT`); any other write error is.
    pub(crate) fn drain_into(&mut self, w: &mut impl Write) -> io::Result<u64> {
        let mut calls = 0;
        while !self.is_empty() {
            calls += 1;
            match w.write(&self.buf[self.head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(calls),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.clear();
        Ok(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Envelope::{App, Coll};

    /// `msg` as one classic frame from rank `src`.
    fn encode_frame<M: WireEncode>(src: usize, msg: &M) -> Vec<u8> {
        let mut frame = Vec::new();
        push_frame(&mut frame, src as u32, msg).unwrap();
        frame
    }

    /// A sink that keeps every frame put to it, in order.
    #[derive(Default)]
    struct Kept(Mutex<Vec<Vec<u8>>>);

    impl FrameSink for Kept {
        fn put(&self, _: usize, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
            let mut frame = Vec::new();
            write(&mut frame);
            self.0.lock().push(frame);
            Ok(())
        }
    }

    /// Rank `src`'s outbox in a fabric just big enough to have a peer
    /// (`src + 1`), with its frame counters.
    fn outbox(src: usize, policy: BatchConfig) -> (Outbox, Arc<CommStats>) {
        let stats = CommStats::new(src + 2);
        (Outbox::new(src, src + 2, policy, Arc::clone(&stats)), stats)
    }

    /// `msgs` as one multi-message frame from rank `src`.
    fn batch_frame<M: WireEncode + Clone>(src: usize, msgs: &[M]) -> Vec<u8> {
        let (outbox, _) = outbox(src, BatchConfig::msgs(msgs.len() + 1));
        let kept = Kept::default();
        for m in msgs {
            outbox.send(&kept, src + 1, &App(m.clone())).unwrap();
        }
        outbox.flush(&kept).unwrap();
        let mut frames = kept.0.into_inner();
        assert_eq!(frames.len(), 1, "one flush, one frame");
        frames.pop().unwrap()
    }

    // ---------------------------------------------------------- layouts --

    #[test]
    fn classic_layout_is_length_prefixed_little_endian() {
        let frame = encode_frame(3, &0x0102_0304_0506_0708u64);
        assert_eq!(&frame[0..8], &8u64.to_le_bytes(), "payload length prefix");
        assert_eq!(&frame[8..12], &3u32.to_le_bytes(), "source rank");
        assert_eq!(&frame[12..], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(decode_frames::<u64>(&frame).unwrap(), (3, vec![App(0x0102_0304_0506_0708)]));
    }

    #[test]
    fn multi_message_layout_is_pinned_byte_for_byte() {
        // [u64 body | BATCH_FLAG][u32 src][u32 count][(u32 sublen)(payload)]×3,
        // all little-endian: a u64 (8 bytes), an empty Vec<u64> (its
        // 1-byte varint length), and a u32 (4 bytes) from rank 5.
        let (outbox, stats) = outbox(5, BatchConfig::msgs(8));
        let kept = Kept::default();
        assert_eq!(outbox.send(&kept, 6, &App(0x1122_3344_5566_7788u64)).unwrap(), 8);
        assert_eq!(outbox.send(&kept, 6, &App(Vec::<u64>::new())).unwrap(), 1);
        assert_eq!(outbox.send(&kept, 6, &App(0xAABB_CCDDu32)).unwrap(), 4);
        assert!(kept.0.lock().is_empty(), "nothing leaves before the flush point");
        outbox.flush(&kept).unwrap();
        #[rustfmt::skip]
        let golden: Vec<u8> = vec![
            0x1d, 0, 0, 0, 0, 0, 0, 0x80, // body = 4 + (4+8) + (4+1) + (4+4) = 29, flag bit 63
            5, 0, 0, 0,                   // src
            3, 0, 0, 0,                   // count
            8, 0, 0, 0, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
            1, 0, 0, 0, 0,
            4, 0, 0, 0, 0xDD, 0xCC, 0xBB, 0xAA,
        ];
        assert_eq!(kept.0.into_inner(), vec![golden]);
        assert_eq!(stats.frames_by(5), 1, "three envelopes, one physical frame");
    }

    #[test]
    fn multi_message_frame_roundtrips_in_send_order() {
        let frame = batch_frame(5, &[7u64, 8, 9]);
        assert!(classic_parts(&frame).is_none(), "flag bit must mark multi-message frames");
        assert!(classic_parts(&encode_frame(5, &7u64)).is_some());
        assert_eq!(decode_frames::<u64>(&frame).unwrap(), (5, vec![App(7), App(8), App(9)]));
    }

    #[test]
    fn collective_block_layout_is_pinned_byte_for_byte() {
        // [u64 payload len | COLL_FLAG][u32 src][words], little-endian: two
        // words from rank 5 — sent while an application envelope for the
        // same peer is coalescing, which the block neither joins nor flushes.
        let (outbox, stats) = outbox(5, BatchConfig::msgs(8));
        let kept = Kept::default();
        let block = CollMsg(vec![0x1122_3344_5566_7788, 9]);
        assert_eq!(outbox.send(&kept, 6, &App(7u64)).unwrap(), 8);
        assert_eq!(outbox.send(&kept, 6, &Coll::<u64>(block.clone())).unwrap(), 16);
        #[rustfmt::skip]
        let golden: Vec<u8> = vec![
            0x10, 0, 0, 0, 0, 0, 0, 0x40, // payload = 2 words = 16, flag bit 62
            5, 0, 0, 0,                   // src
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
            9, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(kept.0.lock().clone(), vec![golden.clone()], "the block leaves alone, at once");
        outbox.flush(&kept).unwrap();
        assert_eq!(kept.0.lock()[1], batch_frame(5, &[7u64]), "the pending body is untouched");
        assert_eq!(stats.frames_by(5), 2, "one frame per block, one per flushed body");
        assert!(classic_parts(&golden).is_none(), "the service layer never takes a block");
        assert_eq!(decode_frames::<u64>(&golden).unwrap(), (5, vec![Coll(block)]));
    }

    #[test]
    fn both_flags_or_an_unknown_flag_bit_are_typed_errors() {
        // `COLL | BATCH` passes the assembler (an 8-byte body is in bounds)
        // and is refused by the decoder; an unknown high bit is refused by
        // both, as a length no frame can have.
        for (prefix, what) in [(8 | BATCH_FLAG | COLL_FLAG, "multi-message"), (8 | 1 << 61, "")] {
            let mut frame = prefix.to_le_bytes().to_vec();
            frame.extend_from_slice(&3u32.to_le_bytes());
            frame.extend_from_slice(&[0u8; 8]);
            match decode_frames::<u64>(&frame) {
                Err(TransportError::Frame { src: Some(3), detail }) => {
                    assert!(detail.contains(what), "{detail}");
                }
                other => panic!("{prefix:#x}: expected a framing error from rank 3, got {other:?}"),
            }
            let mut a = FrameAssembler::default();
            a.push(&frame);
            let assembled = a.next(Some(3));
            assert_eq!(assembled.is_ok(), prefix & FLAGS == FLAGS, "{prefix:#x}: {assembled:?}");
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let classic = encode_frame(0, &7u64);
        let batch = batch_frame(1, &[3u64, 4]);
        let cuts = [
            (&classic, classic.len() - 1),
            (&classic, FRAME_HEADER_BYTES - 1),
            (&batch, batch.len() - 1),
            (&batch, FRAME_HEADER_BYTES + 5),
            (&batch, FRAME_HEADER_BYTES),
        ];
        for (frame, cut) in cuts {
            let err = decode_frames::<u64>(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, TransportError::Frame { .. }),
                "cut at {cut} must surface as a framing error, got {err}"
            );
        }
    }

    #[test]
    fn undecodable_payload_names_the_source() {
        // A frame whose header is intact but whose payload is garbage for
        // the target type must attribute the decode failure to its sender.
        // (A non-minimal varint as the one element of a `Vec<u64>`.)
        let frame = encode_frame(2, &vec![0x80u8, 0x00]);
        match decode_frames::<Vec<u64>>(&frame) {
            Err(TransportError::Decode { src: 2, .. }) => {}
            other => panic!("expected Decode error from rank 2, got {other:?}"),
        }
    }

    /// `[4 | BATCH_FLAG][src][count = u32::MAX]`: sixteen bytes that pass
    /// the assembler (a 4-byte body is fine) and claim four billion
    /// sub-messages.
    fn hostile_count_frame(src: u32) -> Vec<u8> {
        let mut frame = (4u64 | BATCH_FLAG).to_le_bytes().to_vec();
        frame.extend_from_slice(&src.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame
    }

    #[test]
    fn message_count_off_the_wire_cannot_size_an_allocation() {
        // Reserving for the claimed count would ask the allocator for
        // u32::MAX × size_of::<Vec<u64>>() bytes and abort the process.
        let frame = hostile_count_frame(1);
        let mut a = FrameAssembler::default();
        a.push(&frame);
        assert_eq!(a.next(Some(1)).unwrap(), Some(Assembled::Frame(&frame[..])));
        match decode_frames::<Vec<u64>>(&frame) {
            Err(TransportError::Frame { src: Some(1), detail }) => {
                assert!(detail.contains("4294967295 messages"), "{detail}");
            }
            other => panic!("expected a framing error from rank 1, got {other:?}"),
        }
        // A count the body *can* hold but does not is still truncation.
        let mut short = batch_frame(1, &[3u64, 4]);
        short[FRAME_HEADER_BYTES] = 3;
        assert!(matches!(decode_frames::<u64>(&short), Err(TransportError::Frame { .. })));
    }

    // ----------------------------------------------------------- outbox --

    #[test]
    fn outbox_output_survives_any_split_of_the_stream() {
        // Everything a sender can put on a link — a classic frame
        // (coalescing off), a multi-message frame, a large envelope that
        // bypasses the pending body, the flushed remainder, the goodbye —
        // concatenated, cut in two at every byte offset, reassembled and
        // decoded: the send sequence comes back, in order.
        let kept = Kept::default();
        let big: Vec<u64> = (0..100).collect();
        let sent: Vec<Vec<u64>> = vec![vec![1], vec![], vec![2, 3], big, vec![4]];
        let (plain, _) = outbox(0, BatchConfig::disabled());
        plain.send(&kept, 1, &App(sent[0].clone())).unwrap();
        let (batched, stats) = outbox(0, BatchConfig { max_msgs: 64, max_bytes: 64 });
        for msg in &sent[1..] {
            batched.send(&kept, 1, &App(msg.clone())).unwrap();
        }
        batched.flush(&kept).unwrap();
        let frames = kept.0.into_inner();
        assert_eq!(frames.len(), 4, "classic, coalesced pair, bypassed big, flushed tail");
        assert_eq!(stats.frames_by(0), 3, "the batched outbox counted its three");
        assert!(classic_parts(&frames[1]).is_none() && classic_parts(&frames[2]).is_some());
        let mut stream = frames.concat();
        stream.extend_from_slice(&bye_frame(0));
        let sent: Vec<Envelope<Vec<u64>>> = sent.into_iter().map(App).collect();

        for cut in 0..=stream.len() {
            let mut a = FrameAssembler::default();
            let (mut got, mut bye) = (Vec::new(), false);
            for part in [&stream[..cut], &stream[cut..]] {
                a.push(part);
                while let Some(item) = a.next(Some(0)).unwrap() {
                    match item {
                        Assembled::Bye => bye = true,
                        Assembled::Frame(f) => {
                            assert!(!bye, "nothing follows the goodbye");
                            let (src, msgs) = decode_frames::<Vec<u64>>(f).unwrap();
                            assert_eq!((src, source_word(f)), (0, 0));
                            got.extend(msgs);
                        }
                    }
                }
            }
            assert!(bye && got == sent, "cut at {cut}: got {got:?}");
        }
    }

    #[test]
    fn self_sends_are_classic_frames_never_buffered_never_counted() {
        let (outbox, stats) = outbox(0, BatchConfig::msgs(8));
        let kept = Kept::default();
        assert_eq!(outbox.send(&kept, 0, &App(7u64)).unwrap(), 8);
        let frames = kept.0.into_inner();
        assert_eq!(frames, vec![encode_frame(0, &7u64)], "out at once, as a classic frame");
        assert_eq!(stats.frames_by(0), 0, "no wire crossed");
    }

    #[test]
    fn oversized_payload_is_refused_before_anything_is_encoded() {
        struct Huge;
        impl crate::wire::WireSize for Huge {
            fn wire_bytes(&self) -> usize {
                MAX_FRAME_PAYLOAD as usize + 1
            }
        }
        impl WireEncode for Huge {
            fn encode(&self, _: &mut Vec<u8>) {
                panic!("the bound is checked before the encoder runs");
            }
        }
        for policy in [BatchConfig::disabled(), BatchConfig::msgs(8)] {
            let (outbox, stats) = outbox(0, policy);
            let kept = Kept::default();
            let err = outbox.send(&kept, 1, &App(Huge)).unwrap_err();
            assert!(matches!(err, TransportError::Frame { src: Some(0), .. }), "{err}");
            assert!(kept.0.lock().is_empty() && stats.frames_by(0) == 0);
        }
    }

    // ------------------------------------------------- framed reader --

    /// Adversarial `Read` that trickles one byte per call — the worst
    /// possible short-read schedule.
    struct OneByte<R>(R);

    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// `Read` that counts the calls made to it.
    struct CountedReads<R>(R, usize);

    impl<R: Read> Read for CountedReads<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 += 1;
            self.0.read(buf)
        }
    }

    #[test]
    fn coalesced_frames_split_correctly() {
        // Three frames delivered in one contiguous buffer must come back
        // as three distinct items.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(0, &7u64));
        bytes.extend_from_slice(&encode_frame(1, &vec![1u64, 2, 3]));
        bytes.extend_from_slice(&bye_frame(0));
        let mut r = FramedReader::new(io::Cursor::new(bytes));
        assert_eq!(r.read_frame().unwrap(), Some((0, &7u64.to_le_bytes()[..])));
        match r.read_frame().unwrap() {
            Some((1, payload)) => {
                assert_eq!(Vec::<u64>::from_wire(payload).unwrap(), vec![1, 2, 3]);
            }
            other => panic!("expected frame from rank 1, got {other:?}"),
        }
        assert_eq!(r.read_frame().unwrap(), None, "the goodbye marker");
    }

    #[test]
    fn coalesced_frames_cost_one_read_not_one_per_frame() {
        let mut bytes = Vec::new();
        for i in 0..64u64 {
            push_frame(&mut bytes, i as u32, &i).unwrap();
        }
        let mut r = FramedReader::new(CountedReads(io::Cursor::new(bytes), 0));
        assert!(!r.frame_buffered(), "nothing is buffered before the first read");
        for i in 0..64u64 {
            assert_eq!(r.read_frame().unwrap(), Some((i as u32, &i.to_le_bytes()[..])));
            assert_eq!(r.frame_buffered(), i < 63, "after frame {i}");
        }
        assert!(r.inner.1 <= 2, "64 coalesced frames took {} reads", r.inner.1);
        // Only now does the reader go back to the stream, and find EOF.
        assert!(matches!(r.read_frame().unwrap_err(), TransportError::Disconnected { .. }));
    }

    #[test]
    fn short_reads_reassemble_frames() {
        let mut bytes = Vec::new();
        let payload: Vec<u64> = (0..100).collect();
        bytes.extend_from_slice(&encode_frame(2, &payload));
        bytes.extend_from_slice(&encode_frame(2, &vec![9u64]));
        bytes.extend_from_slice(&bye_frame(2));
        let mut r = FramedReader::new(OneByte(io::Cursor::new(bytes)));
        for want in [payload, vec![9u64]] {
            match r.read_frame().unwrap() {
                Some((2, payload)) => {
                    assert_eq!(Vec::<u64>::from_wire(payload).unwrap(), want);
                }
                other => panic!("expected data frame, got {other:?}"),
            }
        }
        assert_eq!(r.read_frame().unwrap(), None, "the goodbye marker");
    }

    #[test]
    fn eof_between_frames_is_disconnect() {
        let bytes = encode_frame(0, &5u64);
        let mut r = FramedReader::new(io::Cursor::new(bytes));
        r.read_frame().unwrap();
        let err = r.read_frame().unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn truncated_header_and_payload_error_cleanly() {
        // A stream that ends mid-header.
        let frame = encode_frame(0, &5u64);
        let mut r = FramedReader::new(io::Cursor::new(frame[..7].to_vec()));
        let err = r.read_frame().unwrap_err();
        assert!(matches!(err, TransportError::Frame { .. }), "mid-header: {err}");
        // A stream that ends mid-payload: errors instead of blocking or
        // over-allocating — under the one-byte trickle too.
        let cut = frame[..frame.len() - 3].to_vec();
        let whole = FramedReader::new(io::Cursor::new(cut.clone())).read_frame().unwrap_err();
        let trickled = FramedReader::new(OneByte(io::Cursor::new(cut))).read_frame().unwrap_err();
        for err in [whole, trickled] {
            match err {
                TransportError::Frame { src: Some(0), detail } => {
                    assert!(detail.contains("mid-frame"), "{detail}");
                }
                other => panic!("expected mid-frame error from rank 0, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_bounded() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r = FramedReader::new(io::Cursor::new(bytes));
        match r.read_frame().unwrap_err() {
            TransportError::Frame { detail, .. } => assert!(detail.contains("exceeds"), "{detail}"),
            other => panic!("expected framing error, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate_ahead_of_the_stream() {
        // In-bound but huge claim with a near-empty stream: must error
        // with only the bytes that arrived ever buffered.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 100]);
        let mut r = FramedReader::new(io::Cursor::new(bytes));
        let err = r.read_frame().unwrap_err();
        assert!(matches!(err, TransportError::Frame { .. }), "{err}");
        assert!(r.assembler.buf.capacity() < READ_BUF_BYTES, "{}", r.assembler.buf.capacity());
    }

    #[test]
    fn multi_message_frame_is_rejected_on_a_single_message_stream() {
        let bytes = batch_frame(0, &[1u64, 2]);
        let err = FramedReader::new(io::Cursor::new(bytes)).read_frame().unwrap_err();
        assert!(matches!(err, TransportError::Frame { .. }), "{err}");
    }

    // ------------------------------------------------- frame assembler --

    /// Every item the assembler has ready, owned (`None` = goodbye).
    fn ready_items(a: &mut FrameAssembler, peer: usize) -> Vec<Option<Vec<u8>>> {
        let mut items = Vec::new();
        while let Some(item) = a.next(Some(peer)).unwrap() {
            items.push(match item {
                Assembled::Frame(f) => Some(f.to_vec()),
                Assembled::Bye => None,
            });
        }
        items
    }

    #[test]
    fn assembler_reassembles_split_and_coalesced_frames() {
        // One classic frame, one multi-message frame, and a goodbye,
        // trickled in one byte at a time — the worst short-read schedule.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(3, &7u64));
        bytes.extend_from_slice(&batch_frame(3, &[1u64, 2]));
        bytes.extend_from_slice(&bye_frame(3));
        let want = vec![Some(encode_frame(3, &7u64)), Some(batch_frame(3, &[1u64, 2])), None];
        let mut a = FrameAssembler::default();
        let mut items = Vec::new();
        for b in &bytes {
            a.push(std::slice::from_ref(b));
            items.extend(ready_items(&mut a, 3));
        }
        assert_eq!(items, want);
        assert!(matches!(a.eof_error(None), TransportError::Disconnected { .. }), "all consumed");
        // The same bytes in one push come out as the same items.
        a.push(&bytes);
        assert_eq!(ready_items(&mut a, 3), want);
    }

    #[test]
    fn assembler_tracks_mid_frame_truncation() {
        let frame = encode_frame(0, &5u64);
        let mut a = FrameAssembler::default();
        a.push(&frame[..frame.len() - 3]);
        assert!(ready_items(&mut a, 0).is_empty());
        // A truncated stream must be distinguishable from a clean EOF.
        assert!(matches!(a.eof_error(Some(4)), TransportError::Frame { src: Some(4), .. }));
        a.push(&frame[frame.len() - 3..]);
        assert_eq!(ready_items(&mut a, 0).len(), 1);
        assert!(matches!(a.eof_error(Some(4)), TransportError::Disconnected { peer: Some(4) }));
    }

    #[test]
    fn assembler_bounds_the_length_prefix() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut a = FrameAssembler::default();
        a.push(&bytes);
        match a.next(Some(2)).unwrap_err() {
            TransportError::Frame { src: Some(2), detail } => {
                assert!(detail.contains("exceeds"), "{detail}");
            }
            other => panic!("expected framing error, got {other:?}"),
        }
    }

    // ----------------------------------------------------- write queue --

    /// `Write` that accepts at most `cap` bytes per call, counts those
    /// calls, and (when `cap` is finite) answers every other call with
    /// `WouldBlock`.
    #[derive(Default)]
    struct Throttled {
        cap: usize,
        push_back_next: bool,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.push_back_next) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.push_back_next = self.cap < usize::MAX;
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sixty_four_responses(q: &mut WriteQueue) -> Vec<u8> {
        let mut want = Vec::new();
        for i in 0..64u64 {
            push_frame(q.tail(), i as u32, &vec![i; (i % 5) as usize]).unwrap();
            push_frame(&mut want, i as u32, &vec![i; (i % 5) as usize]).unwrap();
        }
        want
    }

    #[test]
    fn queued_frames_leave_in_one_write_not_one_per_frame() {
        let mut q = WriteQueue::default();
        let want = sixty_four_responses(&mut q);
        let mut w = Throttled { cap: usize::MAX, ..Default::default() };
        assert_eq!(q.drain_into(&mut w).unwrap(), w.calls as u64);
        assert!(w.calls <= 2, "64 queued responses took {} writes", w.calls);
        assert_eq!(w.got, want);
        assert!(q.is_empty());
    }

    #[test]
    fn partial_writes_resume_across_frame_boundaries() {
        // Seven bytes per call (never a whole 12-byte header), WouldBlock
        // between calls, and more frames queued mid-drain: the stream
        // that arrives is byte-identical to the frames queued.
        let mut q = WriteQueue::default();
        let mut want = sixty_four_responses(&mut q);
        let mut w = Throttled { cap: 7, ..Default::default() };
        let mut rounds = 0;
        while !q.is_empty() {
            q.drain_into(&mut w).unwrap();
            rounds += 1;
            if rounds == 100 {
                push_frame(q.tail(), 64, &64u64).unwrap();
                push_frame(&mut want, 64, &64u64).unwrap();
            }
        }
        assert_eq!(w.got, want);
        assert_eq!(w.calls, want.len().div_ceil(7));
        assert!(q.is_empty());
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_an_error_not_a_spin() {
        let mut q = WriteQueue::default();
        sixty_four_responses(&mut q);
        let mut w = Throttled { cap: 0, ..Default::default() };
        assert_eq!(q.drain_into(&mut w).unwrap_err().kind(), io::ErrorKind::WriteZero);
    }
}
