//! Request/response service layer over the shared wire framing.
//!
//! The rank-mesh fabric ([`crate::tcp`]) connects a *closed* set of peers
//! that all know each other; a partition lookup server faces the opposite
//! shape — an open set of clients that come and go. This module reuses
//! the session machinery underneath the mesh (the length-prefixed frame
//! codec, the push-based `FrameAssembler`, the `WriteQueue`
//! backpressure buffer, and the connection engine of `poll.rs` that the
//! mesh io threads run on) for that shape:
//!
//! * [`Service`] — the application seam: decode a request, produce a
//!   response, optionally ask the server to shut down afterwards;
//! * [`WireServer`] — a multi-client server, one thread: a thin policy
//!   on the connection engine, which owns the poll set, the bounded
//!   reads, the write-first flushing and the classification of stream
//!   endings. The server supplies the listener as the engine's control fd
//!   (accepting into engine slots), the frame callback `decode →
//!   Service::handle → push_frame` into the connection's write queue,
//!   and the shutdown drain;
//! * [`WireClient`] — a blocking client with request pipelining
//!   ([`WireClient::send`] buffers, [`WireClient::recv`] flushes only
//!   when it is about to block).
//!
//! Both ends pay for the socket per *batch that happened to arrive*, not
//! per request: the server answers everything one `read` returned with
//! one `write`; the client hands back buffered responses without touching
//! the socket and writes its buffered requests only when it would
//! otherwise block. A batch is whatever the other side produced since the
//! last syscall — one under ping-pong, the window under pipelining — so
//! there is no knob ([`ServiceStats::read_calls`] reports the outcome).
//!
//! # Wire format
//!
//! Requests and responses travel as classic frames
//! (`[u64 payload len][u32 seq][payload]`): the header field that carries
//! the source *rank* on mesh links carries a client-chosen **sequence
//! number** here, echoed verbatim in the response frame, so a pipelining
//! client can match responses to in-flight requests. Payloads are
//! [`WireEncode`]/[`WireDecode`] codec bytes, bounded by
//! [`MAX_FRAME_PAYLOAD`](crate::transport::MAX_FRAME_PAYLOAD).
//!
//! Malformed input never panics the server: garbage bytes, an oversized
//! length prefix, a batch-flagged frame, or a mid-request disconnect
//! close *that* connection with a typed reason while every other client
//! keeps being served (the malicious-client tests pin this down).

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use crate::frame::{push_frame, FramedReader};
use crate::rendezvous::io_err;
use crate::transport::TransportError;
use crate::wire::{WireDecode, WireEncode};

#[cfg(unix)]
use crate::frame::{classic_parts, WriteQueue};
#[cfg(unix)]
use crate::poll::{Ending, Engine};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::time::{Duration, Instant};

/// Environment variable naming the address a service binds or dials
/// (`host:port`; port `0` asks the OS for an ephemeral port).
pub const SERVER_ADDR_ENV: &str = "DNE_SERVER_ADDR";

/// The forms `parse_server_addr` accepts, for error messages.
const ADDR_FORMS: &str = "an IP socket address like \"127.0.0.1:7571\", \
                          \"0.0.0.0:0\", or \"[::1]:7571\"";

/// Parse a `host:port` socket address, rejecting anything that is not a
/// literal IP address and port (hostnames are deliberately not resolved:
/// a bind address must be unambiguous).
pub fn parse_server_addr(s: &str) -> Result<SocketAddr, String> {
    s.trim().parse().map_err(|_| format!("unrecognized address {s:?} (expected {ADDR_FORMS})"))
}

/// Read the service address from `DNE_SERVER_ADDR`. Unset or empty means
/// `default` (callers pass e.g. `"127.0.0.1:0"`).
///
/// # Panics
/// Panics on an unparsable or non-Unicode value, naming the accepted
/// form — a misconfigured server must fail loudly before it binds the
/// wrong interface.
pub fn server_addr_from_env(default: &str) -> SocketAddr {
    let fallback = || {
        parse_server_addr(default)
            .unwrap_or_else(|e| panic!("invalid {SERVER_ADDR_ENV} default: {e}"))
    };
    crate::env_knob(SERVER_ADDR_ENV, ADDR_FORMS, fallback, parse_server_addr)
}

/// What a [`Service`] wants done with one request.
#[derive(Debug, PartialEq, Eq)]
pub enum ServiceReply<R> {
    /// Send the response and keep serving.
    Reply(R),
    /// Send the response, then stop the server once every queued
    /// response byte (across all connections) has been written.
    ReplyThenShutdown(R),
}

/// A request/response application served by a [`WireServer`].
///
/// The server owns the transport concerns (framing, bounds, malformed
/// input, connection lifecycle); the service sees only fully-decoded
/// requests and returns values — it can never observe a protocol
/// violation, so it has no error path of its own.
pub trait Service {
    /// Decoded request type.
    type Req: WireDecode;
    /// Response type (encoded by the server into the reply frame).
    type Resp: WireEncode;

    /// Handle one request. Called from the server's single poll thread,
    /// in per-connection FIFO order.
    fn handle(&mut self, req: Self::Req) -> ServiceReply<Self::Resp>;
}

/// Counters a finished [`WireServer::serve`] run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Requests decoded and handled.
    pub requests: u64,
    /// Connections closed for protocol violations (garbage bytes,
    /// oversized length prefix, batch-flagged or undecodable requests,
    /// mid-request disconnect).
    pub protocol_errors: u64,
    /// Payload and header bytes read from clients.
    pub bytes_in: u64,
    /// Payload and header bytes queued to clients.
    pub bytes_out: u64,
    /// `read` syscalls issued on client connections.
    pub read_calls: u64,
    /// `write` syscalls issued on client connections (a failing
    /// connection's last drain excepted).
    pub write_calls: u64,
    /// `accept` failures other than an empty backlog (e.g. `EMFILE`).
    pub accept_errors: u64,
}

/// How long a shutting-down server keeps trying to flush queued response
/// bytes before closing the remaining connections hard.
#[cfg(unix)]
const SHUTDOWN_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Whether an `accept` error means the backlog is empty; after anything
/// else (`EMFILE`, `ENFILE`, …) the pending connection is still there.
#[cfg(unix)]
fn backlog_drained(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock
}

/// A poll-based multi-client request/response server over wire frames.
///
/// One thread multiplexes the listener and every live connection through
/// the shared connection engine. See the [module docs](self) for the wire
/// format and the malformed-input contract.
pub struct WireServer {
    listener: TcpListener,
    addr: SocketAddr,
}

impl WireServer {
    /// Bind the server listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port, or the address `DNE_SERVER_ADDR` resolved to).
    pub fn bind(addr: &SocketAddr) -> Result<Self, TransportError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| io_err(format!("binding service at {addr}"), e))?;
        let addr =
            listener.local_addr().map_err(|e| io_err("reading service listener address", e))?;
        Ok(Self { listener, addr })
    }

    /// The bound address clients must dial (with the OS-assigned port
    /// when the bind address asked for port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve requests until the service returns
    /// [`ServiceReply::ReplyThenShutdown`]; returns the run's counters.
    ///
    /// Client misbehavior closes the offending connection and is counted
    /// in [`ServiceStats::protocol_errors`]; only server-side failures
    /// (the listener dying, a response exceeding the frame bound) abort
    /// the loop with an error.
    #[cfg(unix)]
    pub fn serve<S: Service>(self, service: &mut S) -> Result<ServiceStats, TransportError> {
        let mut stats = ServiceStats::default();
        // Each client gets an engine slot: an assembler and a write queue
        // of its own, the same pair every mesh link runs on.
        let mut engine: Engine<TcpStream, WriteQueue> = Engine::new();
        let mut shutdown: Option<Instant> = None;
        // Set for one poll round after `accept` failed with connections
        // pending (`EMFILE`…): polling the still-readable listener would spin.
        let mut listener_paused = false;
        self.listener.set_nonblocking(true).map_err(|e| io_err("configuring listener", e))?;

        loop {
            if let Some(deadline) = shutdown {
                // Drain queued response bytes, then stop. A client that
                // stopped reading cannot wedge the shutdown forever.
                if engine.drained() || Instant::now() > deadline {
                    (stats.read_calls, stats.bytes_in) = (engine.reads, engine.bytes_in);
                    stats.write_calls = engine.writes;
                    return Ok(stats);
                }
                (0..engine.slots()).for_each(|i| engine.stop_reading(i));
            }
            let accepting = shutdown.is_none() && !listener_paused;
            // A paused listener and a draining shutdown are both re-checked
            // after a round of at most 50ms, even if poll reports nothing.
            let listener = accepting.then(|| self.listener.as_raw_fd());
            let connecting = engine
                .wait(listener, if accepting { -1 } else { 50 })
                .map_err(|e| io_err("polling the service", e))?;

            listener_paused = connecting && !self.accept_ready(&mut engine, &mut stats);
            for i in 0..engine.slots() {
                let (readable, writable) = engine.ready(i);
                let ending = if readable && shutdown.is_none() {
                    engine.read(i, |frame, queue| {
                        // Multi-message frames belong to the mesh, not the
                        // request/response protocol; undecodable requests
                        // to nobody. `Err(None)` is such a client violation.
                        let parts =
                            classic_parts(frame).map(|(seq, p)| (seq, S::Req::from_wire(p)));
                        let Some((seq, Ok(req))) = parts else { return Err(None) };
                        stats.requests += 1;
                        let (resp, stop) = match service.handle(req) {
                            ServiceReply::Reply(r) => (r, false),
                            ServiceReply::ReplyThenShutdown(r) => (r, true),
                        };
                        // An oversized response is a server bug, not client
                        // misbehavior: abort the serve loop with the same
                        // typed error every sending backend raises.
                        let queued = push_frame(queue.tail(), seq, &resp).map_err(Some)?;
                        stats.bytes_out += queued as u64;
                        if stop {
                            shutdown = Some(Instant::now() + SHUTDOWN_DRAIN_TIMEOUT);
                        }
                        // Once asked to stop, finish this read's requests
                        // and take no more.
                        Ok(shutdown.is_none())
                    })
                } else {
                    None
                };
                let close = match ending {
                    None => writable && engine.flush(i).is_err(),
                    Some(Ending::Refused(Some(server_failure))) => return Err(server_failure),
                    // A clean hangup (EOF at a frame boundary, a goodbye
                    // frame) or a dead socket just closes; a truncated
                    // request, an oversized length prefix or a refused
                    // frame closes this client as a protocol violation
                    // while every other client keeps being served.
                    Some(ending) => {
                        stats.protocol_errors += u64::from(matches!(
                            ending,
                            Ending::Lost(TransportError::Frame { .. }) | Ending::Refused(_)
                        ));
                        true
                    }
                };
                if close {
                    engine.close(i);
                }
            }
        }
    }

    /// Non-unix stub: the poll-based server needs `poll(2)` — a typed
    /// `Unsupported` error instead of a hang, mirroring the TCP fabric.
    #[cfg(not(unix))]
    pub fn serve<S: Service>(self, _service: &mut S) -> Result<ServiceStats, TransportError> {
        Err(TransportError::Io {
            context: "the poll-based wire server needs poll(2)".into(),
            error: std::io::Error::new(std::io::ErrorKind::Unsupported, "unsupported platform"),
        })
    }

    /// Accept every pending connection into the engine. `false` means
    /// `accept` failed with the backlog still pending (counted in
    /// [`ServiceStats::accept_errors`]): the caller pauses the listener.
    #[cfg(unix)]
    fn accept_ready(
        &self,
        engine: &mut Engine<TcpStream, WriteQueue>,
        stats: &mut ServiceStats,
    ) -> bool {
        loop {
            match self.listener.accept() {
                Ok((sock, _)) => {
                    let _ = sock.set_nodelay(true);
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stats.accepted += 1;
                    engine.attach(sock, WriteQueue::default(), None);
                }
                Err(e) => {
                    stats.accept_errors += u64::from(!backlog_drained(&e));
                    return backlog_drained(&e);
                }
            }
        }
    }
}

/// Blocking client of a [`WireServer`], generic over the request and
/// response codec types (which must match the server's [`Service`]).
///
/// [`WireClient::call`] is the simple ping-pong path (one write, one
/// read). [`WireClient::send`]/[`WireClient::recv`] expose the pipelined
/// path: sends are buffered and written only when `recv` is about to
/// block, so a client keeping a window of requests in flight pays one
/// write and one read per batch the server answered, not per request.
pub struct WireClient<Req, Resp> {
    stream: TcpStream,
    reader: FramedReader<TcpStream>,
    /// Encoded request frames not yet written to the socket.
    out: Vec<u8>,
    next_seq: u32,
    /// Oldest sequence number still awaiting its response — together with
    /// `next_seq` this is the in-flight window a connection-loss error
    /// reports.
    awaiting: u32,
    _codec: std::marker::PhantomData<fn(Req) -> Resp>,
}

/// Buffered request bytes above which `send` flushes on its own.
const CLIENT_FLUSH_BYTES: usize = 64 << 10;

impl<Req: WireEncode, Resp: WireDecode> WireClient<Req, Resp> {
    /// Connect to a server at `addr` (e.g. the string a `dne-server`
    /// printed, or a `SocketAddr`).
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(&addr)
            .map_err(|e| io_err(format!("dialing service at {addr:?}"), e))?;
        let _ = stream.set_nodelay(true);
        let reader = FramedReader::new(
            stream.try_clone().map_err(|e| io_err("cloning service connection", e))?,
        );
        Ok(Self {
            stream,
            reader,
            out: Vec::new(),
            next_seq: 0,
            awaiting: 0,
            _codec: std::marker::PhantomData,
        })
    }

    /// How many requests are unanswered: sent (or buffered) but their
    /// responses not yet received.
    pub fn in_flight(&self) -> u32 {
        self.next_seq.wrapping_sub(self.awaiting)
    }

    /// The hard failure a vanished server turns into: a pipelining client
    /// must not wait for (or silently drop) responses that can never
    /// arrive, so the error names exactly which request was awaited and
    /// how many more were in flight behind it.
    fn connection_lost(&self, error: std::io::Error) -> TransportError {
        let n = self.in_flight();
        let context = if n == 0 {
            "reading from the service connection (no request in flight)".to_string()
        } else {
            format!(
                "awaiting the response to request #{} ({n} request(s) in flight, \
                 sequences #{}..=#{})",
                self.awaiting,
                self.awaiting,
                self.next_seq.wrapping_sub(1)
            )
        };
        TransportError::Io { context, error }
    }

    /// Whether an IO error kind means the connection itself died (as
    /// opposed to a transient or unrelated failure).
    fn is_connection_loss(kind: std::io::ErrorKind) -> bool {
        matches!(
            kind,
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::UnexpectedEof
        )
    }

    /// Encode one request into the send buffer and return the sequence
    /// number its response will echo. Nothing is written unless the
    /// buffer grows past a threshold; [`WireClient::recv`] writes the
    /// rest before it blocks.
    pub fn send(&mut self, req: &Req) -> Result<u32, TransportError> {
        let seq = self.next_seq;
        push_frame(&mut self.out, seq, req)?;
        self.next_seq = seq.wrapping_add(1);
        if self.out.len() >= CLIENT_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Write every buffered request to the socket (one `write` for the
    /// lot). Only needed by a caller that stops calling
    /// [`WireClient::recv`] while requests are still buffered.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        use std::io::Write;
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out).map_err(|e| {
            if Self::is_connection_loss(e.kind()) {
                self.connection_lost(e)
            } else {
                io_err("sending requests", e)
            }
        })?;
        self.out.clear();
        Ok(())
    }

    /// The next `(sequence, response)` pair: an already-buffered response
    /// is returned without touching the socket; otherwise the buffered
    /// requests are flushed (never block with requests unsent) and one
    /// `read` collects every response that has arrived. Responses arrive
    /// in request order (the server handles each connection FIFO), so a
    /// pipelining caller can match them by queue position as well as by
    /// sequence number.
    ///
    /// A server that vanishes — EOF, `ECONNRESET`, a broken pipe — while
    /// requests are in flight is a **hard failure**: the returned error
    /// names the awaited sequence number and the whole unanswered window,
    /// so a caller driving a pipeline cannot mistake a dead server for a
    /// slow one or exit zero with lookups unverified.
    pub fn recv(&mut self) -> Result<(u32, Resp), TransportError> {
        if !self.reader.frame_buffered() {
            self.flush()?;
        }
        match self.reader.read_frame() {
            Ok(Some((seq, payload))) => {
                let resp = Resp::from_wire(payload)
                    .map_err(|error| TransportError::Decode { src: seq as usize, error })?;
                self.awaiting = seq.wrapping_add(1);
                Ok((seq, resp))
            }
            // A goodbye frame or a bare EOF: either way the server is gone.
            Ok(None) | Err(TransportError::Disconnected { .. }) => {
                Err(self.connection_lost(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "the server closed the connection",
                )))
            }
            Err(TransportError::Io { error, .. }) if Self::is_connection_loss(error.kind()) => {
                Err(self.connection_lost(error))
            }
            Err(e) => Err(e),
        }
    }

    /// One blocking request/response round trip.
    pub fn call(&mut self, req: &Req) -> Result<Resp, TransportError> {
        let sent = self.send(req)?;
        let (seq, resp) = self.recv()?;
        if seq != sent {
            return Err(TransportError::Frame {
                src: None,
                detail: format!("response sequence {seq} does not match request {sent}"),
            });
        }
        Ok(resp)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::frame::BATCH_FLAG;
    use std::io::Write;
    use std::net::Shutdown;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A classic frame around raw payload bytes, laid out by hand: these
    /// tests feed the server bytes no encoder of ours would produce.
    fn classic_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u64).to_le_bytes().to_vec();
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Run `body` on its own thread and fail — rather than hang the
    /// suite — if it is still running two minutes later. The lazy-flush
    /// failure mode is a deadlock (client blocked in `read` with requests
    /// still sitting in its send buffer), which only a watchdog can turn
    /// into a test failure.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(120)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("liveness: the client/server pair hung")
            }
            // Finished, or panicked before reporting: surface the panic.
            _ => worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
        }
    }

    /// Drive `total` echo requests through `c` keeping up to `window` in
    /// flight, asserting every response arrives, in order, with the
    /// echoed sequence number.
    fn pipeline(c: &mut WireClient<u64, u64>, total: u64, window: u64) {
        let first_seq = c.next_seq;
        let mut received = 0u64;
        for i in 0..total {
            assert_eq!(c.send(&i).unwrap(), first_seq.wrapping_add(i as u32));
            if i + 1 - received >= window {
                assert_eq!(
                    c.recv().unwrap(),
                    (first_seq.wrapping_add(received as u32), received * 2)
                );
                received += 1;
            }
        }
        while received < total {
            assert_eq!(c.recv().unwrap(), (first_seq.wrapping_add(received as u32), received * 2));
            received += 1;
        }
        assert_eq!(c.in_flight(), 0);
    }

    /// Echo service: replies with the request; a `u64::MAX` request asks
    /// the server to shut down.
    struct Echo {
        handled: u64,
    }

    impl Service for Echo {
        type Req = u64;
        type Resp = u64;

        fn handle(&mut self, req: u64) -> ServiceReply<u64> {
            self.handled += 1;
            if req == u64::MAX {
                ServiceReply::ReplyThenShutdown(req)
            } else {
                ServiceReply::Reply(req * 2)
            }
        }
    }

    fn spawn_echo() -> (SocketAddr, std::thread::JoinHandle<ServiceStats>) {
        let server = WireServer::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            let mut echo = Echo { handled: 0 };
            server.serve(&mut echo).unwrap()
        });
        (addr, handle)
    }

    fn shutdown_server(addr: SocketAddr) {
        let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
        assert_eq!(c.call(&u64::MAX).unwrap(), u64::MAX);
    }

    #[test]
    fn call_round_trips_and_echoes_sequence_numbers() {
        let (addr, handle) = spawn_echo();
        let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
        for i in 0..100u64 {
            assert_eq!(c.call(&i).unwrap(), i * 2);
        }
        shutdown_server(addr);
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 101);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn pipelined_window_preserves_fifo_order() {
        let (addr, handle) = spawn_echo();
        let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
        let seqs: Vec<u32> = (0..64u64).map(|i| c.send(&i).unwrap()).collect();
        for (i, &sent) in seqs.iter().enumerate() {
            let (seq, resp) = c.recv().unwrap();
            assert_eq!(seq, sent);
            assert_eq!(resp, (i as u64) * 2);
        }
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_clients_are_served_independently() {
        let (addr, handle) = spawn_echo();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
                    for i in 0..50 {
                        assert_eq!(c.call(&(t * 1000 + i)).unwrap(), (t * 1000 + i) * 2);
                    }
                });
            }
        });
        shutdown_server(addr);
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 8 * 50 + 1);
    }

    #[test]
    fn malicious_clients_do_not_stop_the_server() {
        let (addr, handle) = spawn_echo();

        // A well-behaved client that must keep working throughout.
        let mut good = WireClient::<u64, u64>::connect(addr).unwrap();
        assert_eq!(good.call(&1).unwrap(), 2);

        // Garbage bytes that parse as an absurd length prefix.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&[0xffu8; 64]).unwrap();
        assert_eq!(good.call(&2).unwrap(), 4);

        // An explicit oversized length prefix with an in-range flag bit.
        let mut oversize = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(crate::transport::MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        oversize.write_all(&frame).unwrap();
        assert_eq!(good.call(&3).unwrap(), 6);

        // A mid-request disconnect: half a frame, then a hangup.
        let mut truncated = TcpStream::connect(addr).unwrap();
        truncated.write_all(&classic_frame(0, &7u64.to_wire())[..10]).unwrap();
        drop(truncated);
        assert_eq!(good.call(&4).unwrap(), 8);

        // A well-formed frame whose payload fails request decoding
        // (trailing bytes after the u64).
        let mut badreq = TcpStream::connect(addr).unwrap();
        badreq.write_all(&classic_frame(0, &[0u8; 13])).unwrap();
        assert_eq!(good.call(&5).unwrap(), 10);

        // A batch-flagged frame: mesh-only layout, rejected here.
        let mut batch = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(8u64 | BATCH_FLAG).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        batch.write_all(&frame).unwrap();
        assert_eq!(good.call(&6).unwrap(), 12);

        shutdown_server(addr);
        let stats = handle.join().unwrap();
        // Every attack was counted against its own connection; the good
        // client's requests all succeeded.
        assert!(stats.protocol_errors >= 4, "stats: {stats:?}");
        assert_eq!(stats.requests, 6 + 1);
    }

    #[test]
    fn dead_server_mid_pipeline_names_the_in_flight_window() {
        // A hand-rolled "server" that answers the first request and then
        // vanishes: the pipelining client must get a hard failure naming
        // the awaited sequence number and the unanswered window — never a
        // silent hang or a clean-looking disconnect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
        for i in 0..5u64 {
            c.send(&i).unwrap();
        }
        c.flush().unwrap();
        let (mut sock, _) = listener.accept().unwrap();
        // Absorb all five requests (20 bytes each: 12-byte header + u64),
        // answer only sequence 0, then send FIN without a goodbye frame.
        let mut buf = [0u8; 100];
        std::io::Read::read_exact(&mut sock, &mut buf).unwrap();
        sock.write_all(&classic_frame(0, &0u64.to_wire())).unwrap();
        sock.shutdown(Shutdown::Write).unwrap();

        let (seq, resp) = c.recv().unwrap();
        assert_eq!((seq, resp), (0, 0));
        assert_eq!(c.in_flight(), 4);
        let msg = c.recv().unwrap_err().to_string();
        assert!(msg.contains("request #1"), "names the awaited request: {msg}");
        assert!(msg.contains("4 request(s) in flight"), "counts the window: {msg}");
        assert!(msg.contains("#1..=#4"), "names the unanswered window: {msg}");
    }

    #[test]
    fn dead_server_surfaces_as_typed_errors() {
        let (addr, handle) = spawn_echo();
        shutdown_server(addr);
        handle.join().unwrap();
        // Dialing a dead server: connection refused, typed.
        match WireClient::<u64, u64>::connect(addr) {
            Err(TransportError::Io { .. }) => {}
            other => panic!("expected io error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn server_addr_parsing_is_strict() {
        assert_eq!(
            parse_server_addr(" 127.0.0.1:7571 ").unwrap(),
            "127.0.0.1:7571".parse::<SocketAddr>().unwrap()
        );
        for bad in ["localhost:7571", "7571", "127.0.0.1", "127.0.0.1:port", ""] {
            let err = parse_server_addr(bad).unwrap_err();
            assert!(err.contains("expected"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn only_would_block_ends_the_accept_backlog() {
        use std::io::{Error, ErrorKind};
        assert!(backlog_drained(&Error::from(ErrorKind::WouldBlock)));
        // EMFILE (24) / ENFILE (23): the pending connection stays in the
        // backlog and the listener stays readable.
        assert!(!backlog_drained(&Error::from_raw_os_error(24)));
        assert!(!backlog_drained(&Error::from_raw_os_error(23)));
        assert!(!backlog_drained(&Error::from(ErrorKind::ConnectionAborted)));
    }

    #[test]
    fn deep_pipeline_completes_and_batches_its_syscalls() {
        watchdog(|| {
            let (addr, handle) = spawn_echo();
            let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
            pipeline(&mut c, 50_000, 64);
            shutdown_server(addr);
            let stats = handle.join().unwrap();
            assert_eq!(stats.requests, 50_001);
            assert_eq!((stats.protocol_errors, stats.accept_errors), (0, 0));
            // Well under one syscall per request in either direction.
            assert!(stats.requests >= 4 * stats.read_calls, "{stats:?}");
            assert!(stats.requests >= 4 * stats.write_calls, "{stats:?}");
        });
    }

    #[test]
    fn ping_pong_costs_one_read_and_one_write_per_request() {
        // The syscall shape `lookup_rtt` rests on: a request that arrives
        // alone is read by one short `read` (no trailing read that could
        // only find WouldBlock) and answered by one `write` in the same
        // poll round (no wait for POLLOUT).
        let (addr, handle) = spawn_echo();
        let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
        for i in 0..1000u64 {
            assert_eq!(c.call(&i).unwrap(), i * 2);
        }
        shutdown_server(addr);
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 1001);
        assert_eq!(stats.write_calls, stats.requests, "{stats:?}");
        // One read per request, plus at most the EOF read of each hangup.
        assert!(stats.read_calls <= stats.requests + stats.accepted, "{stats:?}");
    }

    #[test]
    fn send_everything_then_receive_everything_does_not_hang() {
        // 5 000 × 20-byte requests cross CLIENT_FLUSH_BYTES, so part of
        // the stream leaves from `send` and the rest from the first
        // `recv` — which must flush before it blocks.
        watchdog(|| {
            let (addr, handle) = spawn_echo();
            let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
            pipeline(&mut c, 5_000, u64::MAX);
            shutdown_server(addr);
            assert_eq!(handle.join().unwrap().requests, 5_001);
        });
    }

    #[test]
    fn firehose_client_does_not_starve_a_ping_pong_client() {
        watchdog(|| {
            let (addr, handle) = spawn_echo();
            let ponged = AtomicBool::new(false);
            std::thread::scope(|s| {
                // The firehose keeps a 4096-deep window full for as long
                // as the ping-pong client is still working.
                s.spawn(|| {
                    let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
                    while !ponged.load(Ordering::SeqCst) {
                        pipeline(&mut c, 20_000, 4096);
                    }
                });
                let mut c = WireClient::<u64, u64>::connect(addr).unwrap();
                for i in 0..500u64 {
                    assert_eq!(c.call(&i).unwrap(), i * 2);
                }
                ponged.store(true, Ordering::SeqCst);
            });
            shutdown_server(addr);
            let stats = handle.join().unwrap();
            assert!(stats.requests > 20_500, "{stats:?}");
            assert_eq!(stats.protocol_errors, 0);
        });
    }
}
