//! The one connection engine: the raw `poll(2)` binding (kept in one
//! `cfg`-gated corner, the same pattern as the graph crate's mmap shim)
//! and everything an event loop over framed sockets does with it.
//!
//! [`Engine`] owns a persistent poll set — slot 0 is a *control* fd the
//! policy names per wait (a listener, a wake pipe), slot `1 + i` mirrors
//! connection `i`, idle slots carry fd `-1`, and entries are patched in
//! place, never rebuilt — plus each connection's `FrameAssembler` and
//! read/write half-state. It is the single home of the rules every loop
//! over [`crate::frame`] needs:
//!
//! * **bounded reads** — at most [`READS_PER_EVENT`] `read`s per readable
//!   event, stopping early after a short read (the socket is empty;
//!   level-triggered poll reports later arrivals);
//! * **frames to a callback** — every complete frame is handed to the
//!   policy as a slice borrowed from the assembler;
//! * **write first** — queued bytes are written as soon as there are any
//!   (after each read batch, or when the policy calls [`Engine::flush`]);
//!   `POLLOUT` is armed only while a drain left bytes behind;
//! * **endings classified once** — [`Ending`] names every way a stream
//!   stops delivering frames.
//!
//! The two loops of this crate are thin policies on it:
//! [`crate::service::WireServer::serve`] (control fd = the listener,
//! frames are requests answered into the connection's own queue) and the
//! mesh endpoint's io thread in [`crate::tcp`] (control fd = the wake
//! pipe, frames become events, queues are shared with sender threads).

#![cfg(unix)]

use std::borrow::Borrow;
use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::frame::{Assembled, FrameAssembler, WriteQueue, READ_BUF_BYTES};
use crate::transport::TransportError;

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// A poll entry nothing is waited for on: `poll(2)` skips negative fds.
const IDLE: PollFd = PollFd { fd: -1, events: 0, revents: 0 };

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
}

/// Wait until any fd is ready or `timeout_ms` passes (`-1` = forever),
/// retrying transparently on `EINTR`.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Reads per readable event: one firehose connection must not starve the
/// rest of the loop of service.
const READS_PER_EVENT: usize = 16;

/// Where a connection's outgoing bytes wait: a queue the loop's own
/// thread fills, or one shared with the threads that do.
pub(crate) trait Outgoing {
    /// Run `f` on the queue (under its lock, if it has one).
    fn with<R>(&mut self, f: impl FnOnce(&mut WriteQueue) -> R) -> R;
}

impl Outgoing for WriteQueue {
    fn with<R>(&mut self, f: impl FnOnce(&mut WriteQueue) -> R) -> R {
        f(self)
    }
}

impl Outgoing for Arc<Mutex<WriteQueue>> {
    fn with<R>(&mut self, f: impl FnOnce(&mut WriteQueue) -> R) -> R {
        f(&mut self.lock())
    }
}

/// How a connection stopped delivering frames.
#[derive(Debug)]
pub(crate) enum Ending<E> {
    /// A goodbye frame: the polite hangup.
    Bye,
    /// The byte stream ended or broke, as the typed error it is:
    /// `Disconnected` for EOF at a frame boundary (a hangup without a
    /// goodbye), `Frame` for EOF inside a frame or a length prefix beyond
    /// the payload bound, `Io` for a failed `read`.
    Lost(TransportError),
    /// The policy's frame callback refused a well-framed frame.
    Refused(E),
    /// Writing out what the frames of a read queued failed.
    WriteFailed(io::Error),
}

struct Conn<S, Q> {
    sock: S,
    queue: Q,
    /// The rank errors on this connection are attributed to (mesh links).
    peer: Option<usize>,
    assembler: FrameAssembler,
    /// Still expecting bytes.
    reading: bool,
    /// Still allowed to write (no write failure yet).
    writing: bool,
    /// The last drain left bytes behind: `POLLOUT` stays armed until one
    /// does not.
    backlog: bool,
}

/// The poll loop's state and rules; see the [module docs](self).
pub(crate) struct Engine<S, Q> {
    /// `fds[0]` is the control fd, `fds[1 + i]` mirrors `conns[i]`.
    fds: Vec<PollFd>,
    conns: Vec<Option<Conn<S, Q>>>,
    scratch: Vec<u8>,
    /// `read` syscalls issued on connections.
    pub(crate) reads: u64,
    /// Bytes those reads returned.
    pub(crate) bytes_in: u64,
    /// `write` syscalls issued on connections (a failing drain excepted).
    pub(crate) writes: u64,
}

impl<S: Borrow<TcpStream>, Q: Outgoing> Engine<S, Q> {
    pub(crate) fn new() -> Self {
        let fds = vec![PollFd { events: POLLIN, ..IDLE }];
        Self {
            fds,
            conns: Vec::new(),
            scratch: vec![0; READ_BUF_BYTES],
            reads: 0,
            bytes_in: 0,
            writes: 0,
        }
    }

    /// Adopt a nonblocking socket and the queue its outgoing bytes wait
    /// in. A mesh link is labelled with its peer's rank and lives in that
    /// slot, so its errors name the rank; an anonymous connection takes
    /// the first free slot.
    pub(crate) fn attach(&mut self, sock: S, queue: Q, peer: Option<usize>) {
        let free = self.conns.iter().position(Option::is_none).unwrap_or(self.conns.len());
        let i = peer.unwrap_or(free);
        if self.conns.len() <= i {
            self.conns.resize_with(i + 1, || None);
            self.fds.resize_with(i + 2, || IDLE);
        }
        self.conns[i] = Some(Conn {
            sock,
            queue,
            peer,
            assembler: FrameAssembler::default(),
            reading: true,
            writing: true,
            backlog: false,
        });
        self.rearm(i);
    }

    /// Number of connection slots (live or idle).
    pub(crate) fn slots(&self) -> usize {
        self.conns.len()
    }

    /// Patch slot `i`'s poll entry to what its connection now waits for:
    /// readable while reading, writable only while a backlog remains.
    fn rearm(&mut self, i: usize) {
        let wanted = |c: &Conn<S, Q>| {
            let read = if c.reading { POLLIN } else { 0 };
            read | if c.writing && c.backlog { POLLOUT } else { 0 }
        };
        let entry = &mut self.fds[1 + i];
        (entry.fd, entry.events) = match &self.conns[i] {
            Some(c) if wanted(c) != 0 => (c.sock.borrow().as_raw_fd(), wanted(c)),
            _ => (IDLE.fd, IDLE.events),
        };
    }

    /// Drop connection `i`, freeing its slot for the next anonymous
    /// [`Engine::attach`]. Returns whether it was still reading — i.e.
    /// whether this is the connection's first terminal condition.
    pub(crate) fn close(&mut self, i: usize) -> bool {
        let was_reading = self.conns[i].take().is_some_and(|c| c.reading);
        self.rearm(i);
        was_reading
    }

    /// Stop reading connection `i` (its peer said goodbye, or the loop is
    /// shutting down) while still writing what is queued for it.
    pub(crate) fn stop_reading(&mut self, i: usize) {
        if let Some(c) = &mut self.conns[i] {
            c.reading = false;
            self.rearm(i);
        }
    }

    /// Whether connection `i` exists and may still be written to.
    pub(crate) fn writing(&self, i: usize) -> bool {
        self.conns[i].as_ref().is_some_and(|c| c.writing)
    }

    /// Whether nothing is queued on any connection that can still write.
    pub(crate) fn drained(&mut self) -> bool {
        self.conns.iter_mut().flatten().all(|c| !c.writing || c.queue.with(|q| q.is_empty()))
    }

    /// The engine's one `poll(2)` call: wait for the control fd (`None`
    /// leaves it out of this wait) or any connection, at most
    /// `timeout_ms` (`-1` = forever). Returns whether the control fd is
    /// ready; [`Engine::ready`] then reports each connection.
    pub(crate) fn wait(&mut self, control: Option<RawFd>, timeout_ms: i32) -> io::Result<bool> {
        self.fds[0].fd = control.unwrap_or(-1);
        poll_fds(&mut self.fds, timeout_ms)?;
        Ok(self.fds[0].revents != 0)
    }

    /// Which halves of connection `i` the last wait found ready, as
    /// `(read, write)`. An error or hang-up condition readies both, so the
    /// failure surfaces from whichever syscall meets it.
    pub(crate) fn ready(&self, i: usize) -> (bool, bool) {
        let (revents, Some(c)) = (self.fds[1 + i].revents, &self.conns[i]) else {
            return (false, false);
        };
        let closing = revents & (POLLERR | POLLHUP) != 0;
        (
            c.reading && (revents & POLLIN != 0 || closing),
            c.writing && (revents & POLLOUT != 0 || closing),
        )
    }

    /// Write connection `i`'s queued bytes until the queue empties or the
    /// socket pushes back, arming `POLLOUT` exactly when bytes are left.
    /// A write error drops the queue, ends the connection's writing and
    /// shuts the socket down.
    pub(crate) fn flush(&mut self, i: usize) -> io::Result<()> {
        let Some(c) = self.conns[i].as_mut().filter(|c| c.writing) else { return Ok(()) };
        let mut sock: &TcpStream = c.sock.borrow();
        let drained = c.queue.with(|q| {
            let calls = q.drain_into(&mut sock).inspect_err(|_| q.clear())?;
            Ok::<_, io::Error>((calls, !q.is_empty()))
        });
        match drained {
            Ok((calls, backlog)) => {
                self.writes += calls;
                c.backlog = backlog;
            }
            Err(_) => {
                c.writing = false;
                let _ = sock.shutdown(Shutdown::Both);
            }
        }
        self.rearm(i);
        drained.map(|_| ())
    }

    /// Serve one readable event on connection `i`: up to
    /// [`READS_PER_EVENT`] reads, each pushed through the assembler, its
    /// complete frames handed to `on_frame` together with the connection's
    /// queue, and whatever they queued written out at once. `on_frame`
    /// returns whether to keep reading after the current read's frames.
    ///
    /// `None` means the connection lives on (the socket ran dry, or the
    /// bound was reached with data possibly still pending); otherwise the
    /// [`Ending`] — what becomes of the connection is the policy's call.
    pub(crate) fn read<E>(
        &mut self,
        i: usize,
        mut on_frame: impl FnMut(&[u8], &mut Q) -> Result<bool, E>,
    ) -> Option<Ending<E>> {
        for _ in 0..READS_PER_EVENT {
            let c = self.conns[i].as_mut().expect("only live connections are read");
            let mut sock: &TcpStream = c.sock.borrow();
            self.reads += 1;
            let n = match sock.read(&mut self.scratch) {
                Ok(0) => return Some(Ending::Lost(c.assembler.eof_error(c.peer))),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => {
                    let context = match c.peer {
                        Some(rank) => format!("receiving from rank {rank}"),
                        None => "receiving from a client".into(),
                    };
                    return Some(Ending::Lost(TransportError::Io { context, error }));
                }
            };
            self.bytes_in += n as u64;
            c.assembler.push(&self.scratch[..n]);
            let mut keep_reading = true;
            loop {
                match c.assembler.next(c.peer) {
                    Ok(None) => break,
                    Ok(Some(Assembled::Bye)) => return Some(Ending::Bye),
                    Err(oversized) => return Some(Ending::Lost(oversized)),
                    Ok(Some(Assembled::Frame(frame))) => match on_frame(frame, &mut c.queue) {
                        Ok(keep) => keep_reading &= keep,
                        Err(refusal) => return Some(Ending::Refused(refusal)),
                    },
                }
            }
            // Answer the whole read batch with one write, within the same
            // poll iteration instead of waiting for a POLLOUT wakeup.
            if let Err(e) = self.flush(i) {
                return Some(Ending::WriteFailed(e));
            }
            // A short read emptied the socket: skip the read that would
            // only find WouldBlock.
            if !keep_reading || n < self.scratch.len() {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{bye_frame, push_frame, source_word};
    use crate::transport::MAX_FRAME_PAYLOAD;
    use std::io::Write;
    use std::net::TcpListener;

    /// A connected localhost pair: the far end as a plain blocking stream,
    /// the near end attached to a fresh engine as anonymous connection 0.
    fn pair() -> (TcpStream, Engine<TcpStream, WriteQueue>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (near, _) = listener.accept().unwrap();
        near.set_nonblocking(true).unwrap();
        let mut engine = Engine::new();
        engine.attach(near, WriteQueue::default(), None);
        (far, engine)
    }

    #[test]
    fn every_stream_ending_is_classified_once() {
        let mut frame = Vec::new();
        push_frame(&mut frame, 7, &42u64).unwrap();
        let after_a_frame = |tail: &[u8]| [&frame[..], tail].concat();
        let mut refused = Vec::new();
        push_frame(&mut refused, 99, &42u64).unwrap();
        let mut oversized = (MAX_FRAME_PAYLOAD + 1).to_le_bytes().to_vec();
        oversized.extend_from_slice(&0u32.to_le_bytes());
        type Check = fn(&Ending<&'static str>) -> bool;
        let cases: [(&str, Vec<u8>, Check); 5] = [
            ("EOF at a frame boundary", frame.clone(), |e| {
                matches!(e, Ending::Lost(TransportError::Disconnected { peer: None }))
            }),
            ("EOF 10 bytes into a frame", after_a_frame(&frame[..10]), |e| {
                matches!(e, Ending::Lost(TransportError::Frame { detail, .. })
                    if detail.contains("mid-frame, 10 bytes"))
            }),
            ("a goodbye frame", after_a_frame(&bye_frame(3)), |e| matches!(e, Ending::Bye)),
            ("a length prefix beyond the bound", after_a_frame(&oversized), |e| {
                matches!(e, Ending::Lost(TransportError::Frame { detail, .. })
                    if detail.contains("exceeds"))
            }),
            ("a frame the policy refuses", after_a_frame(&refused), |e| {
                matches!(e, Ending::Refused("source word 99"))
            }),
        ];
        for (input, bytes, expected) in cases {
            let (mut far, mut engine) = pair();
            far.write_all(&bytes).unwrap();
            drop(far);
            // The bytes and the FIN may arrive as separate readable events.
            let mut delivered = 0;
            let ending = loop {
                assert!(engine.wait(None, 10_000).is_ok_and(|control| !control));
                assert!(engine.ready(0).0, "{input}: poll timed out");
                let served = engine.read(0, |frame, _| {
                    if source_word(frame) == 99 {
                        return Err("source word 99");
                    }
                    delivered += 1;
                    Ok(true)
                });
                if let Some(ending) = served {
                    break ending;
                }
            };
            assert!(expected(&ending), "{input} ended as {ending:?}");
            assert_eq!(delivered, 1, "{input}: the frame before the ending is delivered");
        }
    }

    #[test]
    fn a_readable_event_is_served_by_at_most_sixteen_reads() {
        // A writer that keeps the socket full: one `read` call stops at
        // the fairness bound with data still pending, and the connection
        // lives on. Buffers grow as the kernel tunes them, so refill and
        // retry until sixteen full reads' worth is waiting.
        let (far, mut engine) = pair();
        far.set_nonblocking(true).unwrap();
        let mut block = Vec::new();
        while block.len() < READ_BUF_BYTES {
            push_frame(&mut block, 0, &vec![0u64; 100]).unwrap();
        }
        let mut out = WriteQueue::default();
        for _ in 0..10_000 {
            while out.is_empty() {
                out.tail().extend_from_slice(&block);
                out.drain_into(&mut &far).unwrap();
            }
            let (reads, bytes) = (engine.reads, engine.bytes_in);
            engine.wait(None, 10_000).unwrap();
            assert!(engine.read(0, |_, _| Ok::<_, ()>(true)).is_none());
            let reads = engine.reads - reads;
            assert!(reads <= READS_PER_EVENT as u64, "{reads} reads served one event");
            let all_full = engine.bytes_in - bytes == (READS_PER_EVENT * READ_BUF_BYTES) as u64;
            if all_full && engine.wait(None, 0).is_ok() && engine.ready(0).0 {
                return;
            }
        }
        panic!("the writer never had sixteen full reads' worth of bytes pending");
    }
}
