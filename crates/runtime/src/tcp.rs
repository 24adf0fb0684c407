//! The TCP socket fabric: the wire frames of the bytes backend carried
//! over real `TcpStream`s, between threads or between OS processes.
//!
//! This module is the steady state: the endpoint ([`TcpTransport`]), its
//! io loop, and the per-process cluster session
//! ([`TcpProcessCluster`]). How `P` endpoints find each other and become
//! a full mesh — the rendezvous protocol, hellos and rosters, bootstrap
//! epochs and recovery re-bootstraps — is [`crate::rendezvous`], whose
//! public names ([`TcpRendezvous`], [`EPOCH_ANY`]) are re-exported here.
//! A cluster session is **one** mesh: `P − 1` sockets, one io thread and
//! one wake pipe per rank, carrying application messages and collective
//! blocks alike as the two lanes of an [`Envelope`].
//!
//! # Framing
//!
//! Data frames are exactly the bytes backend's — every layout, their
//! encoder (the send-side `Outbox`) and their decoder live in
//! [`crate::frame`]; this module never looks inside one. The push-based
//! `FrameAssembler` reassembles frames from whatever byte slices the poll
//! loop reads, immune to short reads and coalesced arrivals, bounding the
//! length prefix by [`MAX_FRAME_PAYLOAD`] and by the bytes that actually
//! arrive (a truncated connection is a typed error, never an unbounded
//! allocation or a forever-block). The blocking [`FramedReader`] drives
//! the same assembler for stream callers. A length prefix of `u64::MAX`
//! is the *goodbye frame*: endpoints send it on every link when dropped,
//! which is how peers distinguish a graceful teardown (the link retires
//! silently) from a killed process (EOF without goodbye ⇒
//! [`TransportError::Disconnected`] surfaces from `recv`).
//!
//! # Event-driven endpoint
//!
//! Each endpoint runs **one** io thread, not one thread per peer: after
//! the blocking rendezvous bootstrap every mesh socket is switched to
//! nonblocking mode and handed to the connection engine of `poll.rs` —
//! the same engine [`crate::service::WireServer`] serves clients with —
//! which owns the persistent poll set, the bounded reads, the write-first
//! flushing and the classification of stream endings. The io thread is a
//! thin policy on it: the engine's control fd is a self-pipe that `send`
//! and `flush` nudge after the `Outbox` has encoded frames straight onto
//! the tail of the destination's `WriteQueue` (shared with the engine
//! behind a mutex the loop takes only when a wake, a read or `POLLOUT`
//! says there may be bytes to move); a wake drains the pipe and writes
//! every queue at once; a frame passes the source-word check, goes
//! through `decode_frames` and lands in the event queue; and the slam /
//! crash / goodbye teardown ladder decides when the loop ends. The
//! caller thus overlaps its own compute with the kernel's socket work;
//! `try_recv` surfaces already-decoded envelopes without blocking, which
//! is what `CommEndpoint::drain_ready` builds on.
//!
//! # Accounting
//!
//! `send` reports the encoded payload length exactly like the bytes
//! backend, so `comm_bytes`/`comm_msgs` are identical across loopback,
//! bytes, and tcp for identical traffic — the cross-transport equality
//! tests assert this end-to-end. Physical frames (one per classic
//! envelope, one per coalesced flush) are counted by the `Outbox` at
//! enqueue time, exactly as on the bytes backend.

use std::io;
#[cfg(unix)]
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
#[cfg(unix)]
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::cluster::Ctx;
use crate::collectives::{CollectiveTopology, Collectives};
use crate::comm::CommEndpoint;
#[cfg(unix)]
use crate::frame::{bye_frame, source_word};
use crate::frame::{decode_frames, FrameSink, Outbox, WriteQueue};
use crate::memory::MemoryTracker;
#[cfg(unix)]
use crate::poll::{Ending, Engine};
use crate::rendezvous::{bootstrap_err, connect_endpoint, fabric_id, host_endpoint, io_err};
use crate::stats::CommStats;
use crate::transport::{BatchConfig, Envelope, Transport, TransportError};
use crate::wire::{WireDecode, WireEncode};

pub use crate::frame::{FramedReader, MAX_FRAME_PAYLOAD};
pub use crate::rendezvous::{TcpRendezvous, EPOCH_ANY};

// -------------------------------------------------------------- endpoint --

/// How long a graceful drop may spend draining queued frames and writing
/// goodbye frames before it gives up and slams the links (a peer that
/// stopped reading must not be able to wedge this process's teardown).
const GOODBYE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a *crash* teardown (a drop during panic unwind) may spend
/// draining already-queued data frames before the links are slammed. A
/// panicking rank must always exit promptly — a peer that stopped
/// reading (full socket buffer, wedged process) cannot be allowed to
/// block the unwind on a full [`WriteQueue`] — and it must never say
/// goodbye: peers have to observe a dirty disconnect, not a graceful
/// retire, so recovery can trigger.
const CRASH_DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// What the io thread delivers into the endpoint's event queue.
enum Event<M> {
    /// A decoded envelope from a peer (or a self-send), on either lane.
    Frame(usize, Envelope<M>),
    /// The peer said goodbye: graceful teardown, the link is retired.
    Bye,
    /// The link failed: dirty EOF, framing violation, or decode error.
    Fault(TransportError),
}

/// State shared between an endpoint handle and its io thread.
struct Shared {
    /// Graceful teardown requested: drain queues, say goodbye, exit.
    shutdown: AtomicBool,
    /// Crash teardown requested (drop during panic unwind): drain queued
    /// data frames for at most [`CRASH_DRAIN_TIMEOUT`], never write
    /// goodbye frames, then slam — peers must see a dirty disconnect.
    crash: AtomicBool,
    /// Abnormal teardown requested: slam every link, exit immediately.
    slam: AtomicBool,
    /// Per-peer write-backpressure queues (`None` at the self index),
    /// filled by `send`/`flush` and drained by the io thread.
    queues: Vec<Option<Arc<Mutex<WriteQueue>>>>,
}

/// The write half of the self-pipe that wakes an endpoint's io thread.
#[cfg(unix)]
type WakePipe = UnixStream;
/// No poll loop runs off unix, so there is never one to wake.
#[cfg(not(unix))]
type WakePipe = std::convert::Infallible;

/// One endpoint of the TCP socket fabric.
///
/// One io thread per endpoint multiplexes every mesh link through the
/// shared connection engine: it reassembles incoming frames (via
/// `FrameAssembler`), decodes them into `(src, envelope)` pairs, and
/// drains per-peer write queues that `send`/`flush` fill through the
/// shared `Outbox` (this endpoint is its `FrameSink`). `recv`
/// surfaces a peer that died without its goodbye frame as
/// [`TransportError::Disconnected`] instead of blocking forever, and
/// returns the same error when every peer is gone and nothing remains
/// queued.
pub struct TcpTransport<M> {
    rank: usize,
    nprocs: usize,
    /// Flags and write queues shared with the io thread.
    shared: Arc<Shared>,
    /// The mesh sockets (`None` at the self index) — kept so `abort` can
    /// slam them from the handle side.
    socks: Vec<Option<Arc<TcpStream>>>,
    /// The send path: coalescing policy, frame encoding, physical frame
    /// accounting (logical msgs/bytes are charged by the `CommEndpoint`
    /// layer, exactly like the in-process backends).
    outbox: Outbox,
    events_tx: Sender<Event<M>>,
    events_rx: Receiver<Event<M>>,
    /// Links still delivering (decremented per Bye/Fault).
    live: Mutex<usize>,
    /// Write half of the self-pipe that wakes the io thread's poll.
    wake: Option<WakePipe>,
    /// The io thread, joined on graceful drop.
    io: Option<std::thread::JoinHandle<()>>,
}

impl<M> TcpTransport<M>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    /// Build all `n` connected endpoints of an in-process fabric: machine
    /// threads bridged by real localhost sockets, bootstrapped through
    /// the same rendezvous protocol spawned worker processes use (its
    /// ranks share one collective topology by construction, so the hello
    /// names the default one).
    ///
    /// # Panics
    /// Panics when the localhost mesh cannot be built (ports exhausted,
    /// loopback unavailable) — an environment failure, not an input
    /// condition. Multi-process callers use [`TcpProcessCluster`], which
    /// returns errors instead.
    pub fn fabric(n: usize) -> Vec<Self> {
        Self::fabric_with(n, BatchConfig::disabled(), CommStats::new(n))
    }

    /// Build the fabric with an explicit coalescing policy, recording
    /// physical frame counts into `stats`; panics on environment failure
    /// exactly like [`TcpTransport::fabric`].
    pub fn fabric_with(n: usize, batch: BatchConfig, stats: Arc<CommStats>) -> Vec<Self> {
        Self::try_fabric_with(n, batch, stats)
            .unwrap_or_else(|e| panic!("failed to build localhost TCP fabric: {e}"))
    }

    /// Fallible variant of [`TcpTransport::fabric_with`].
    pub fn try_fabric_with(
        n: usize,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Result<Vec<Self>, TransportError> {
        assert!(n >= 1, "fabric needs at least one endpoint");
        if n == 1 {
            return Ok(vec![Self::solo(batch, stats)]);
        }
        let mut rv = TcpRendezvous::bind("127.0.0.1:0")
            .map_err(|e| io_err("binding in-process rendezvous", e))?;
        let (addr, fabric) = (rv.local_addr(), fabric_id(CollectiveTopology::default()));
        std::thread::scope(|scope| {
            let dialers: Vec<_> = (1..n)
                .map(|r| {
                    let stats = Arc::clone(&stats);
                    scope.spawn(move || {
                        connect_endpoint::<M>(addr, fabric, r, n, 0, "127.0.0.1:0", batch, stats)
                            .map(|(ep, _epoch)| ep)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(n);
            out.push(host_endpoint::<M>(&mut rv, fabric, n, batch, Arc::clone(&stats))?);
            for d in dialers {
                out.push(
                    d.join()
                        .map_err(|_| bootstrap_err("in-process bootstrap thread panicked"))??,
                );
            }
            Ok(out)
        })
    }

    /// The trivial 1-endpoint fabric: no sockets, no io thread,
    /// self-sends only.
    pub(crate) fn solo(batch: BatchConfig, stats: Arc<CommStats>) -> Self {
        Self::from_links(0, 1, vec![None], batch, stats)
    }

    /// Assemble an endpoint from its bootstrapped mesh links (`None` at
    /// the self index) — the one constructor — and start its io.
    pub(crate) fn from_links(
        rank: usize,
        nprocs: usize,
        links: Vec<Option<TcpStream>>,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let socks: Vec<Option<Arc<TcpStream>>> =
            links.into_iter().map(|link| link.map(Arc::new)).collect();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            crash: AtomicBool::new(false),
            slam: AtomicBool::new(false),
            queues: socks.iter().map(|s| s.as_ref().map(|_| Arc::default())).collect(),
        });
        let (wake, io) = Self::start_io(rank, &socks, &shared, &events_tx);
        Self {
            rank,
            nprocs,
            live: Mutex::new(socks.iter().flatten().count()),
            shared,
            socks,
            outbox: Outbox::new(rank, nprocs, batch, stats),
            events_tx,
            events_rx,
            wake,
            io,
        }
    }

    /// Switch the mesh sockets to nonblocking mode and hand them all to
    /// one io thread's poll loop (none for an endpoint without links).
    #[cfg(unix)]
    fn start_io(
        rank: usize,
        socks: &[Option<Arc<TcpStream>>],
        shared: &Arc<Shared>,
        events_tx: &Sender<Event<M>>,
    ) -> (Option<WakePipe>, Option<std::thread::JoinHandle<()>>) {
        if socks.iter().all(Option::is_none) {
            return (None, None);
        }
        for stream in socks.iter().flatten() {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true).expect("marking mesh socket nonblocking");
        }
        let (wake_rx, wake_tx) = UnixStream::pair().expect("creating io wake pipe");
        wake_rx.set_nonblocking(true).expect("marking wake pipe nonblocking");
        wake_tx.set_nonblocking(true).expect("marking wake pipe nonblocking");
        let mut engine = Engine::new();
        for (peer, link) in socks.iter().zip(&shared.queues).enumerate() {
            if let (Some(sock), Some(queue)) = link {
                engine.attach(Arc::clone(sock), Arc::clone(queue), Some(peer));
            }
        }
        let (socks, shared, tx) = (socks.to_vec(), Arc::clone(shared), events_tx.clone());
        let mesh = MeshIo { rank, socks, shared, tx, engine, goodbye: None, crash: None };
        let io = std::thread::Builder::new()
            .name(format!("dne-tcp-io-{rank}"))
            .spawn(move || mesh.run(wake_rx))
            .expect("spawning tcp io thread");
        (Some(wake_tx), Some(io))
    }

    /// Non-unix stub: the poll-based fabric needs `poll(2)`, so every
    /// link faults with a typed `Unsupported` error instead of hanging.
    #[cfg(not(unix))]
    fn start_io(
        _rank: usize,
        socks: &[Option<Arc<TcpStream>>],
        _shared: &Arc<Shared>,
        events_tx: &Sender<Event<M>>,
    ) -> (Option<WakePipe>, Option<std::thread::JoinHandle<()>>) {
        for _ in socks.iter().flatten() {
            let _ = events_tx.send(Event::Fault(TransportError::Io {
                context: "the poll-based tcp fabric needs poll(2)".into(),
                error: io::Error::new(io::ErrorKind::Unsupported, "unsupported platform"),
            }));
        }
        (None, None)
    }
}

impl<M> TcpTransport<M> {
    /// Simulate an abnormal death for fault-injection tests: slam every
    /// link shut (no goodbye frames), exactly as a killed process would.
    /// Peers observe [`TransportError::Disconnected`] from `recv`.
    pub fn abort(&self) {
        self.shared.slam.store(true, Ordering::SeqCst);
        for s in self.socks.iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.wake_io();
    }

    /// Account one event off the queue: an envelope or a fault is a
    /// receive's outcome, a retired link only lowers the live count.
    fn settle(&self, event: Event<M>) -> Option<Result<(usize, Envelope<M>), TransportError>> {
        let outcome = match event {
            Event::Frame(src, msg) => return Some(Ok((src, msg))),
            Event::Bye => None,
            Event::Fault(e) => Some(Err(e)),
        };
        *self.live.lock() -= 1;
        outcome
    }

    /// Nudge the io thread out of its poll so it notices fresh queue
    /// contents or a freshly-set flag.
    fn wake_io(&self) {
        #[cfg(unix)]
        if let Some(w) = &self.wake {
            // A full pipe means a wake is already pending — good enough.
            let _ = (&*w).write(&[1]);
        }
    }
}

impl<M: WireDecode> FrameSink for TcpTransport<M> {
    /// A frame for a peer is encoded straight onto the tail of that
    /// peer's write queue, and the io thread woken to drain it; a frame
    /// for this endpoint itself skips the socket and goes back through
    /// the decoder into the event queue.
    fn put(&self, dst: usize, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
        if let Some(q) = &self.shared.queues[dst] {
            write(q.lock().tail());
            self.wake_io();
            return Ok(());
        }
        let mut frame = Vec::new();
        write(&mut frame);
        for env in decode_frames::<M>(&frame)?.1 {
            self.events_tx
                .send(Event::Frame(self.rank, env))
                .expect("own event queue outlives the endpoint");
        }
        Ok(())
    }
}

/// The io thread's state: the mesh policy on the shared connection
/// [`Engine`], whose slot `i` is the link to rank `i`.
#[cfg(unix)]
struct MeshIo<M> {
    rank: usize,
    /// The mesh sockets (`None` at the self index), for the teardown slams.
    socks: Vec<Option<Arc<TcpStream>>>,
    shared: Arc<Shared>,
    tx: Sender<Event<M>>,
    engine: Engine<Arc<TcpStream>, Arc<Mutex<WriteQueue>>>,
    /// Once a graceful shutdown begins, the deadline after which queued
    /// frames and goodbyes are abandoned.
    goodbye: Option<Instant>,
    /// Once a crash teardown begins, the deadline after which queued data
    /// frames are abandoned and the links are slammed (no goodbyes).
    crash: Option<Instant>,
}

#[cfg(unix)]
impl<M: WireDecode> MeshIo<M> {
    /// The io thread: the one `poll(2)` loop multiplexing every mesh link.
    ///
    /// A wake (a sender queued bytes or set a flag) drains the wake pipe
    /// and writes every peer's [`WriteQueue`] at once; only what a socket
    /// would not take waits for `POLLOUT`. Ready bytes go through each
    /// link's assembler and come out as decoded envelopes in the event
    /// queue. On graceful shutdown the loop drains all queues, appends
    /// goodbye frames, *logs* (rather than discards) goodbye write
    /// failures, half-closes the links, and exits; on slam it shuts every
    /// socket down hard and exits at once.
    fn run(mut self, wake: UnixStream) {
        while !self.torn_down() {
            // Re-check the drain condition at least every 50ms while
            // saying goodbye or crash-draining, even if poll reports
            // nothing.
            let timeout = if self.goodbye.or(self.crash).is_some() { 50 } else { -1 };
            match self.engine.wait(Some(wake.as_raw_fd()), timeout) {
                Ok(false) => {}
                Ok(true) => {
                    // Drain the wake pipe (its only payload is the nudge
                    // itself; a short read emptied it) *before* looking at
                    // the queues, so bytes queued after this sweep find
                    // their own nudge still pending.
                    let mut nudges = [0u8; 256];
                    while matches!((&wake).read(&mut nudges), Ok(n) if n == nudges.len()) {}
                    self.flush_all();
                }
                Err(e) => {
                    // poll itself failing is unrecoverable for the whole
                    // endpoint: fault every remaining link so recv cannot
                    // hang.
                    for peer in 0..self.engine.slots() {
                        let error = io::Error::new(e.kind(), e.to_string());
                        let context = "polling the socket fabric".into();
                        self.fault(peer, TransportError::Io { context, error });
                    }
                    return self.slam();
                }
            }
            for peer in 0..self.engine.slots() {
                let (_, writable) = self.engine.ready(peer);
                if writable {
                    self.flush(peer);
                }
                // Asked again: a failed write has just retired the link.
                let (readable, _) = self.engine.ready(peer);
                if readable {
                    self.read(peer);
                }
            }
        }
    }

    /// Run the slam / crash / goodbye teardown ladder; `true` once the
    /// loop must exit (the links are then shut down as the rung demands).
    fn torn_down(&mut self) -> bool {
        if self.shared.slam.load(Ordering::SeqCst) {
            self.slam();
            return true;
        }
        if self.crash.is_none() && self.shared.crash.load(Ordering::SeqCst) {
            self.crash = Some(Instant::now() + CRASH_DRAIN_TIMEOUT);
        }
        if self.goodbye.or(self.crash).is_none() && self.shared.shutdown.load(Ordering::SeqCst) {
            self.goodbye = Some(Instant::now() + GOODBYE_TIMEOUT);
            for (peer, queue) in self.shared.queues.iter().enumerate() {
                if let Some(queue) = queue.as_ref().filter(|_| self.engine.writing(peer)) {
                    queue.lock().tail().extend_from_slice(&bye_frame(self.rank));
                }
            }
            self.flush_all();
        }
        // Either drain ends once every queue is empty or its deadline
        // passes; a crash outranks a goodbye.
        let Some(deadline) = self.crash.or(self.goodbye) else { return false };
        let drained = self.engine.drained();
        if !drained && Instant::now() <= deadline {
            return false;
        }
        if drained && self.crash.is_none() {
            for (peer, sock) in self.socks.iter().enumerate() {
                if let Some(sock) = sock.as_ref().filter(|_| self.engine.writing(peer)) {
                    let _ = sock.shutdown(Shutdown::Write);
                }
            }
            return true;
        }
        if self.crash.is_none() {
            eprintln!(
                "dne-tcp[{}]: goodbye writes timed out after {GOODBYE_TIMEOUT:?}; \
                 closing links hard",
                self.rank
            );
        }
        // A crash closes dirty by design: no goodbye frames, so peers see
        // EOF-without-goodbye and surface `Disconnected`.
        self.slam();
        true
    }

    /// Shut every link down hard, both directions.
    fn slam(&self) {
        for sock in self.socks.iter().flatten() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    /// The link to `peer` failed: retire both directions and emit the one
    /// fault — never a second terminal event, so the endpoint's live-link
    /// count stays exact.
    fn fault(&mut self, peer: usize, err: TransportError) {
        if self.engine.close(peer) {
            let _ = self.tx.send(Event::Fault(err));
        }
    }

    /// Write what is queued for `peer`.
    fn flush(&mut self, peer: usize) {
        if let Err(error) = self.engine.flush(peer) {
            self.write_failed(peer, error);
        }
    }

    /// A write error (the engine has shut the socket down) faults the link
    /// or, during the goodbye drain, is logged — never silently discarded.
    fn write_failed(&mut self, peer: usize, error: io::Error) {
        if self.goodbye.is_some() {
            // The goodbye path has no receiver left to surface a fault
            // to — log instead of discarding the error.
            eprintln!("dne-tcp[{}]: goodbye to rank {peer} failed: {error}", self.rank);
        } else {
            self.fault(
                peer,
                TransportError::Io { context: format!("sending to rank {peer}"), error },
            );
        }
    }

    fn flush_all(&mut self) {
        (0..self.engine.slots()).for_each(|peer| self.flush(peer));
    }

    /// Deliver every envelope `peer`'s ready bytes complete; EOF and
    /// malformed streams fault the link with the same typed errors the
    /// blocking reader produces.
    fn read(&mut self, peer: usize) {
        let tx = &self.tx;
        let ending = self.engine.read(peer, |frame, _| {
            let claimed = source_word(frame) as usize;
            if claimed != peer {
                return Err(TransportError::Frame {
                    src: Some(peer),
                    detail: format!(
                        "frame claims source rank {claimed} on the link from rank {peer}"
                    ),
                });
            }
            for env in decode_frames::<M>(frame)?.1 {
                let _ = tx.send(Event::Frame(peer, env));
            }
            Ok(true)
        });
        match ending {
            None => {}
            // The peer said goodbye: stop reading (its write half is
            // closed), keep writing (its read half drains until its
            // process exits).
            Some(Ending::Bye) => {
                self.engine.stop_reading(peer);
                let _ = self.tx.send(Event::Bye);
            }
            Some(Ending::Lost(err) | Ending::Refused(err)) => self.fault(peer, err),
            Some(Ending::WriteFailed(error)) => self.write_failed(peer, error),
        }
    }
}

impl<M> Transport<M> for TcpTransport<M>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send(&self, dst: usize, env: Envelope<M>) -> Result<usize, TransportError> {
        self.outbox.send(self, dst, &env)
    }

    fn flush(&self) -> Result<(), TransportError> {
        self.outbox.flush(self)
    }

    fn try_recv(&self) -> Result<Option<(usize, Envelope<M>)>, TransportError> {
        while let Ok(event) = self.events_rx.try_recv() {
            if let Some(outcome) = self.settle(event) {
                return outcome.map(Some);
            }
        }
        Ok(None)
    }

    fn recv(&self) -> Result<(usize, Envelope<M>), TransportError> {
        loop {
            let event = if *self.live.lock() == 0 {
                // Every link has retired: only already-queued envelopes
                // (including self-sends) can satisfy this receive. An
                // empty queue means blocking would never return.
                match self.events_rx.try_recv() {
                    Ok(ev) => ev,
                    Err(_) => return Err(TransportError::Disconnected { peer: None }),
                }
            } else {
                self.events_rx.recv().expect("events channel held open by this endpoint")
            };
            if let Some(outcome) = self.settle(event) {
                return outcome;
            }
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        // Graceful teardown: the io thread drains every queued frame,
        // writes a goodbye frame, then a write-side FIN on every link, so
        // peers can tell this shutdown from a crash. A drop that happens
        // while this thread is *panicking* is a crash, not a shutdown —
        // the io thread drains already-queued data frames for at most
        // `CRASH_DRAIN_TIMEOUT` (a peer that stopped reading must not
        // wedge the unwind on a full write queue) and then slams the
        // links *without* goodbye frames, so peers observe a typed
        // disconnect instead of a graceful retire and recovery can
        // trigger. (Envelopes still coalesced in the outbox are dropped
        // without being sent, exactly as on the bytes backend: a
        // flush point must precede any drop that expects delivery, and
        // `CommEndpoint` flushes before every receive.)
        // Either drain is bounded (`CRASH_DRAIN_TIMEOUT`, `GOODBYE_TIMEOUT`),
        // so the join cannot wedge an unwind or a shutdown.
        let teardown =
            if std::thread::panicking() { &self.shared.crash } else { &self.shared.shutdown };
        teardown.store(true, Ordering::SeqCst);
        self.wake_io();
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}

// --------------------------------------------------------- multi-process --

/// One rank of a TCP cluster whose machines are *real OS processes*.
///
/// Rank 0 [`host`](TcpProcessCluster::host)s the rendezvous; every other
/// process [`join`](TcpProcessCluster::join)s it.
/// [`connect`](TcpProcessCluster::connect) then bootstraps the session's
/// one mesh — application messages and collective blocks share it — and
/// hands back a [`TcpSession`] whose [`Ctx`] offers the exact API that
/// in-process `Cluster::run` closures receive — the same per-rank
/// algorithm code drives both. See the `dne-tcp-worker` binary for the
/// full workflow.
pub struct TcpProcessCluster {
    rank: usize,
    nprocs: usize,
    rendezvous: Option<TcpRendezvous>,
    addr: SocketAddr,
    bind: String,
    /// `None` resolves `DNE_COLLECTIVES` at connect time, exactly like
    /// [`crate::Cluster`]'s field of the same name.
    collectives: Option<CollectiveTopology>,
    /// `None` resolves `DNE_COMM_BATCH` at connect time.
    comm_batch: Option<BatchConfig>,
}

impl TcpProcessCluster {
    /// Become rank 0: bind the rendezvous listener at `bind_addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port; advertise
    /// [`addr`](TcpProcessCluster::addr) to the other processes).
    pub fn host(nprocs: usize, bind_addr: &str) -> Result<Self, TransportError> {
        assert!(nprocs >= 1, "cluster needs at least one process");
        let rendezvous = TcpRendezvous::bind(bind_addr)
            .map_err(|e| io_err(format!("binding rendezvous at {bind_addr}"), e))?;
        let addr = rendezvous.local_addr();
        Ok(Self::new(0, nprocs, Some(rendezvous), addr))
    }

    fn new(
        rank: usize,
        nprocs: usize,
        rendezvous: Option<TcpRendezvous>,
        addr: SocketAddr,
    ) -> Self {
        let bind = "127.0.0.1:0".to_string();
        Self { rank, nprocs, rendezvous, addr, bind, collectives: None, comm_batch: None }
    }

    /// Become rank `rank` (`1..nprocs`), dialing the rendezvous `addr`
    /// that rank 0 advertised.
    pub fn join(rank: usize, nprocs: usize, addr: &str) -> Result<Self, TransportError> {
        assert!(rank >= 1 && rank < nprocs, "join is for ranks 1..nprocs");
        let addr = addr
            .parse()
            .map_err(|e| bootstrap_err(format!("invalid rendezvous address {addr:?}: {e}")))?;
        Ok(Self::new(rank, nprocs, None, addr))
    }

    /// Bind this rank's mesh listeners at `bind` instead of the ephemeral
    /// localhost default — the first slice of cross-machine clusters.
    /// Unless the IP is a wildcard it is advertised to peers via the
    /// rendezvous roster; a wildcard advertises the source address the
    /// rendezvous observes on the hello connection.
    pub fn with_bind(mut self, bind: &str) -> Self {
        self.bind = bind.to_string();
        self
    }

    /// Select the collective topology explicitly (overrides
    /// `DNE_COLLECTIVES`, which is then never consulted). Every process of
    /// the cluster must pass the same value: the topology is baked into
    /// the session's fabric id, so a disagreement fails the bootstrap with
    /// a typed [`TransportError::Bootstrap`] naming both topologies instead
    /// of deadlocking at the first barrier.
    pub fn with_collectives(mut self, collectives: CollectiveTopology) -> Self {
        self.collectives = Some(collectives);
        self
    }

    /// Select the coalescing policy of the application messages explicitly
    /// (overrides `DNE_COMM_BATCH`; collective blocks are never coalesced,
    /// so the published per-rank collective traffic stays exact). Results
    /// and logical message/byte accounting are identical with batching on
    /// or off — only the physical frame count changes, so processes need
    /// not agree on the policy.
    pub fn with_comm_batch(mut self, batch: BatchConfig) -> Self {
        self.comm_batch = Some(batch);
        self
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the cluster.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The rendezvous address (for rank 0: the bound listener address to
    /// advertise to joining processes).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bootstrap the session's mesh and build this rank's cluster context. Unless
    /// set explicitly, the collective topology resolves from
    /// `DNE_COLLECTIVES` (flat when unset — every process of a cluster
    /// must agree, which environment inheritance gives for free) and the
    /// coalescing policy from `DNE_COMM_BATCH`.
    ///
    /// Blocks until every process of the cluster has connected (bounded
    /// by the bootstrap deadline). The session's [`CommStats`] and
    /// [`MemoryTracker`] are process-local: only this rank's row is
    /// populated — aggregate across ranks with a collective after the
    /// algorithm finishes, as `dne-tcp-worker` does.
    pub fn connect<M>(mut self) -> Result<TcpSession<M>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        self.connect_epoch(0)
    }

    /// Bootstrap (or re-bootstrap) the cluster's mesh under an explicit
    /// bootstrap generation, without consuming the cluster object — the
    /// recovery workflow: when a session dies with
    /// [`TransportError::Disconnected`], drop it and call `connect_epoch`
    /// again on the same object to build a fresh mesh among whoever dials
    /// the rendezvous for the new epoch.
    ///
    /// Rank 0 owns the epoch counter and must pass the concrete next
    /// epoch (its rendezvous listener persists across calls, so the
    /// advertised address stays valid); every other rank passes
    /// [`EPOCH_ANY`] and learns the agreed epoch from the roster (check
    /// [`TcpSession::epoch`]). A restarted worker process joins the same
    /// way: [`TcpProcessCluster::join`] then `connect_epoch(EPOCH_ANY)`.
    pub fn connect_epoch<M>(&mut self, epoch: u32) -> Result<TcpSession<M>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        let topology = self.collectives.unwrap_or_else(CollectiveTopology::from_env);
        let batch = self.comm_batch.unwrap_or_else(BatchConfig::from_env);
        let (nprocs, fabric) = (self.nprocs, fabric_id(topology));
        let stats = CommStats::new(nprocs);
        let memory = MemoryTracker::new(nprocs);
        let (link, epoch) = match self.rendezvous.as_mut() {
            Some(rv) => {
                assert!(
                    epoch != EPOCH_ANY,
                    "rank 0 owns the epoch counter and must pass a concrete epoch"
                );
                rv.set_epoch(epoch);
                (host_endpoint::<M>(rv, fabric, nprocs, batch, Arc::clone(&stats))?, epoch)
            }
            None => connect_endpoint::<M>(
                self.addr,
                fabric,
                self.rank,
                nprocs,
                epoch,
                &self.bind,
                batch,
                Arc::clone(&stats),
            )?,
        };
        let comm = CommEndpoint::from_transport(Box::new(link), Arc::clone(&stats));
        let collectives = Collectives::new(topology, self.rank, nprocs);
        let ctx = Ctx::from_parts(comm, collectives, Arc::clone(&memory));
        Ok(TcpSession { ctx, comm: stats, memory, epoch })
    }
}

/// A connected per-process cluster session (see [`TcpProcessCluster`]).
pub struct TcpSession<M> {
    /// The per-rank cluster context — the same API in-process
    /// `Cluster::run` closures receive.
    pub ctx: Ctx<M>,
    /// Process-local communication accounting (this rank's row only).
    pub comm: Arc<CommStats>,
    /// Process-local memory accounting (this rank's row only).
    pub memory: Arc<MemoryTracker>,
    /// The bootstrap generation this session's mesh was built under
    /// (0 for a cluster's first bootstrap; see
    /// [`TcpProcessCluster::connect_epoch`]).
    pub epoch: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireSize;
    use Envelope::App;

    // ---------------------------------------------------- socket fabric --

    #[test]
    fn coalesced_envelopes_cross_the_socket_as_one_frame() {
        let stats = CommStats::new(2);
        let mut eps = TcpTransport::<u64>::fabric_with(2, BatchConfig::msgs(8), Arc::clone(&stats));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..5u64 {
            a.send(1, App(i)).unwrap();
        }
        a.flush().unwrap();
        for i in 0..5u64 {
            assert_eq!(b.recv().unwrap(), (0, App(i)));
        }
        assert_eq!(stats.frames_by(0), 1, "five coalesced envelopes are one physical frame");
    }

    #[test]
    fn fabric_delivers_with_exact_accounting() {
        let mut eps = TcpTransport::<Vec<u64>>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let payload: Vec<u64> = (0..500).collect();
        let wire = a.send(1, App(payload.clone())).unwrap();
        assert_eq!(wire, payload.wire_bytes());
        assert_eq!(b.recv().unwrap(), (0, App(payload)));
    }

    #[test]
    fn per_link_fifo_order_over_sockets() {
        let mut eps = TcpTransport::<u64>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..200 {
            a.send(1, App(i)).unwrap();
        }
        for i in 0..200 {
            assert_eq!(b.recv().unwrap(), (0, App(i)));
        }
    }

    #[test]
    fn killed_peer_surfaces_as_transport_error() {
        // Rank 1 dies abnormally (no goodbye): rank 0's next receive must
        // be a typed disconnect naming the peer — not a hang, not a panic.
        let mut eps = TcpTransport::<u64>::fabric(3);
        let _c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.abort();
        match a.recv() {
            Err(TransportError::Disconnected { peer: Some(1) }) => {}
            other => panic!("expected disconnect from rank 1, got {other:?}"),
        }
    }

    #[test]
    fn hostile_message_count_on_a_live_link_is_a_typed_error() {
        // `[4 | BATCH_FLAG][src = 1][count = u32::MAX]` written raw onto
        // rank 1's socket: rank 0's io thread must fault the link with a
        // framing error, not die reserving for four billion envelopes.
        let mut eps = TcpTransport::<Vec<u64>>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut frame = (4u64 | 1 << 63).to_le_bytes().to_vec();
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let link = b.socks[0].as_deref().expect("rank 1 has a link to rank 0");
        (&*link).write_all(&frame).unwrap();
        match a.recv() {
            Err(TransportError::Frame { src: Some(1), .. }) => {}
            other => panic!("expected a framing error from rank 1, got {other:?}"),
        }
    }

    #[test]
    fn graceful_shutdown_drains_then_reports_all_gone() {
        // Frames sent before a graceful drop must still be received;
        // afterwards recv reports that nothing can arrive instead of
        // blocking forever.
        let mut eps = TcpTransport::<u64>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.send(0, App(41)).unwrap();
        b.send(0, App(42)).unwrap();
        drop(b);
        assert_eq!(a.recv().unwrap(), (1, App(41)));
        assert_eq!(a.recv().unwrap(), (1, App(42)));
        match a.recv() {
            Err(TransportError::Disconnected { peer: None }) => {}
            other => panic!("expected all-gone disconnect, got {other:?}"),
        }
    }

    #[test]
    fn self_sends_work_without_sockets() {
        let eps = TcpTransport::<u64>::fabric(1);
        let a = &eps[0];
        assert_eq!(a.send(0, App(9)).unwrap(), 8);
        assert_eq!(a.recv().unwrap(), (0, App(9)));
        // Nothing queued and no links: recv must error, not block.
        assert!(matches!(a.recv(), Err(TransportError::Disconnected { peer: None })));
    }

    #[test]
    fn four_endpoint_mesh_all_to_all() {
        let eps = TcpTransport::<u64>::fabric(4);
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    for dst in 0..4 {
                        ep.send(dst, App((ep.rank() * 10 + dst) as u64)).unwrap();
                    }
                    let mut got = vec![0u64; 4];
                    for _ in 0..4 {
                        let (src, App(v)) = ep.recv().unwrap() else { panic!("a block") };
                        got[src] = v;
                    }
                    let want: Vec<u64> = (0..4).map(|src| (src * 10 + ep.rank()) as u64).collect();
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn panicking_rank_crash_teardown_is_dirty_and_prompt() {
        // A drop during panic unwind must (a) still drain frames that
        // were already queued, bounded in time, and (b) never say
        // goodbye: the peer has to observe a typed dirty disconnect —
        // the recovery trigger — not a graceful retire.
        let mut eps = TcpTransport::<u64>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            b.send(0, App(7)).unwrap();
            b.flush().unwrap();
            panic!("injected crash (expected in this test)");
        });
        assert!(t.join().is_err(), "the injected panic must propagate");
        assert_eq!(a.recv().unwrap(), (1, App(7)), "queued frames drain before the slam");
        match a.recv() {
            Err(TransportError::Disconnected { peer: Some(1) }) => {}
            other => panic!("expected dirty disconnect from the panicking rank, got {other:?}"),
        }
    }

    // -------------------------------------------------- process cluster --

    #[test]
    fn same_cluster_objects_bootstrap_successive_epochs() {
        // The recovery workflow: after a session dies, the *same*
        // TcpProcessCluster objects re-bootstrap a fresh mesh under the
        // next epoch — rank 0 passing the concrete epoch, everyone else
        // the wildcard (learning the epoch from the roster).
        let n = 2;
        let mut host = TcpProcessCluster::host(n, "127.0.0.1:0").unwrap();
        let addr = host.addr().to_string();
        std::thread::scope(|s| {
            let joiner = s.spawn(move || {
                let mut j = TcpProcessCluster::join(1, n, &addr).unwrap();
                for round in 0..3u32 {
                    let mut sess = j.connect_epoch::<u64>(EPOCH_ANY).unwrap();
                    assert_eq!(sess.epoch, round, "roster teaches the wildcard joiner the epoch");
                    let sum = sess.ctx.try_all_reduce_sum_u64(1).unwrap();
                    assert_eq!(sum, 1 + u64::from(round));
                }
            });
            for round in 0..3u32 {
                let mut sess = host.connect_epoch::<u64>(round).unwrap();
                assert_eq!(sess.epoch, round);
                let sum = sess.ctx.try_all_reduce_sum_u64(u64::from(round)).unwrap();
                assert_eq!(sum, 1 + u64::from(round));
            }
            joiner.join().unwrap();
        });
    }

    #[test]
    fn topology_disagreement_fails_bootstrap_with_a_typed_error() {
        // One process exports a different DNE_COLLECTIVES than the rest:
        // the bootstrap itself must reject the cluster (typed, prompt)
        // rather than letting the first barrier deadlock forever.
        let n = 2;
        let host = TcpProcessCluster::host(n, "127.0.0.1:0").unwrap();
        let addr = host.addr().to_string();
        std::thread::scope(|s| {
            let h =
                s.spawn(move || host.with_collectives(CollectiveTopology::Flat).connect::<u64>());
            let j = s.spawn(move || {
                TcpProcessCluster::join(1, n, &addr)
                    .unwrap()
                    .with_collectives(CollectiveTopology::Binomial)
                    .connect::<u64>()
            });
            let host_err = match h.join().unwrap() {
                Err(e) => e,
                Ok(_) => panic!("host must reject the topology disagreement"),
            };
            assert!(
                host_err.to_string().contains("DNE_COLLECTIVES"),
                "error must point at the misconfiguration: {host_err}"
            );
            assert!(j.join().unwrap().is_err(), "the joiner must fail too, not hang");
        });
    }

    #[test]
    fn process_cluster_bootstrap_and_collectives() {
        // Exercise the exact host/join/connect path worker processes use
        // (threads stand in for processes; the code path is identical),
        // under every collective topology.
        for topo in CollectiveTopology::ALL {
            let n = 3;
            let host = TcpProcessCluster::host(n, "127.0.0.1:0").unwrap();
            let addr = host.addr().to_string();
            std::thread::scope(|s| {
                let mut handles = vec![
                    s.spawn(move || host.with_collectives(topo).connect::<Vec<u64>>().unwrap())
                ];
                for rank in 1..n {
                    let addr = addr.clone();
                    handles.push(s.spawn(move || {
                        TcpProcessCluster::join(rank, n, &addr)
                            .unwrap()
                            .with_collectives(topo)
                            .connect::<Vec<u64>>()
                            .unwrap()
                    }));
                }
                let mut runners = Vec::new();
                for h in handles {
                    let mut session = h.join().unwrap();
                    runners.push(s.spawn(move || {
                        let rank = session.ctx.rank() as u64;
                        let sum = session.ctx.try_all_reduce_sum_u64(rank).unwrap();
                        assert_eq!(sum, 3);
                        let got = session.ctx.try_exchange(|dst| vec![rank, dst as u64]).unwrap();
                        for (src, msg) in got.iter().enumerate() {
                            assert_eq!(msg, &vec![src as u64, rank]);
                        }
                        session.ctx.try_barrier().unwrap();
                        // Per-process accounting: only this rank's row moves.
                        let rank = session.ctx.rank();
                        (rank, session.comm.bytes_sent_by(rank))
                    }));
                }
                for r in runners {
                    let (rank, bytes) = r.join().unwrap();
                    // Each rank: 2 collective rounds at the topology's
                    // published per-rank cost plus one exchange with two
                    // non-self 3-byte payloads (a varint length and two
                    // one-byte ids).
                    let (coll_bytes, _) = topo.rank_traffic(rank, n);
                    assert_eq!(bytes, 2 * coll_bytes + 2 * 3, "{topo} rank {rank}");
                }
            });
        }
    }
}
