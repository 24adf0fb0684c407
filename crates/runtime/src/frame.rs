//! Session-agnostic wire framing: the length-prefixed frame machinery
//! shared by the rank-mesh TCP fabric ([`crate::tcp`]) and the
//! request/response service layer ([`crate::service`]).
//!
//! A frame is `[u64 payload len][u32 src][payload]`, little-endian (see
//! [`crate::transport`] for the batch-flag variant). This module owns the
//! three stream-facing pieces both event loops are built from:
//!
//! * `FrameAssembler` (crate-internal) — the one reassembly
//!   implementation (short reads, coalesced arrivals, bounded
//!   allocation): bytes are pushed in, borrowed frames are pulled out;
//! * [`FramedReader`] — its blocking driver for simple clients;
//! * `WriteQueue` (crate-internal) — per-connection byte queue: frames
//!   are encoded straight into it and leave in as few `write`s as the
//!   socket takes, with partial-write resume.
//!
//! Every malformed condition — EOF mid-frame, a length prefix beyond
//! [`MAX_FRAME_PAYLOAD`] — is a typed [`TransportError`], never a panic
//! or an unbounded allocation.

use std::io::{self, Read, Write};

use crate::transport::{
    check_payload_bound, encode_frame_into, TransportError, BATCH_FLAG, FRAME_HEADER_BYTES,
    MAX_FRAME_PAYLOAD,
};
use crate::wire::WireEncode;

/// Length-prefix sentinel marking a goodbye frame.
pub(crate) const BYE_LEN: u64 = u64::MAX;

/// Bytes one `read` may return: the size of the scratch buffer every
/// reader (blocking or poll loop) hands to the socket.
pub(crate) const READ_BUF_BYTES: usize = 64 << 10;

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
    /// length prefix, or a multi-message frame yields
    /// [`TransportError::Frame`].
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
                    detail: "multi-message frame on a single-message stream".into(),
                }),
            },
        }
    }
}

/// The 12-byte goodbye frame of rank `src`.
pub(crate) fn bye_frame(src: usize) -> [u8; FRAME_HEADER_BYTES] {
    let mut f = [0u8; FRAME_HEADER_BYTES];
    f[0..8].copy_from_slice(&BYE_LEN.to_le_bytes());
    f[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    f
}

/// Append the classic single-message frame around an already-encoded
/// payload. `src` is the source rank on mesh links, a request sequence
/// number in the service layer.
pub(crate) fn push_classic_frame(out: &mut Vec<u8>, src: u32, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode `msg` as one classic frame straight onto the end of `out` and
/// return the frame's size. A payload beyond [`MAX_FRAME_PAYLOAD`] is the
/// typed error every sending backend raises, and leaves `out` untouched.
pub(crate) fn push_frame<M: WireEncode>(
    out: &mut Vec<u8>,
    src: u32,
    msg: &M,
) -> Result<usize, TransportError> {
    check_payload_bound(msg.wire_bytes(), src as usize)?;
    Ok(encode_frame_into(out, src, msg))
}

/// Split a complete classic frame into its source word and payload;
/// `None` for a multi-message frame.
pub(crate) fn classic_parts(frame: &[u8]) -> Option<(u32, &[u8])> {
    let (len, src) = header(frame)?;
    (len & BATCH_FLAG == 0).then(|| (src, &frame[FRAME_HEADER_BYTES..]))
}

/// The `(length prefix, source word)` of the header `bytes` start with,
/// once all of it has arrived.
fn header(bytes: &[u8]) -> Option<(u64, u32)> {
    let h = bytes.get(..FRAME_HEADER_BYTES)?;
    Some((
        u64::from_le_bytes(h[0..8].try_into().expect("8-byte slice")),
        u32::from_le_bytes(h[8..12].try_into().expect("4-byte slice")),
    ))
}

/// One complete item handed out by the [`FrameAssembler`], borrowed from
/// its buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Assembled<'a> {
    /// A complete encoded frame, header included — single-message or
    /// multi-message; `decode_frames` understands both.
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
        // recognized before the batch flag is interpreted.
        if len == BYE_LEN {
            return Ok(Some(FRAME_HEADER_BYTES));
        }
        let body = len & !BATCH_FLAG;
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
    use crate::transport::{encode_batch_frame, encode_frame};
    use crate::wire::WireDecode;

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
        let bytes = encode_batch_frame(0, &[vec![1, 2], vec![3]]);
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
        bytes.extend_from_slice(&encode_batch_frame(3, &[vec![1, 2], vec![3]]));
        bytes.extend_from_slice(&bye_frame(3));
        let want = vec![
            Some(encode_frame(3, &7u64)),
            Some(encode_batch_frame(3, &[vec![1, 2], vec![3]])),
            None,
        ];
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
