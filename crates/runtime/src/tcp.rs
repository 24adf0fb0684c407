//! The TCP socket fabric: the wire frames of the bytes backend carried
//! over real `TcpStream`s, between threads or between OS processes.
//!
//! # Topology and bootstrap
//!
//! A fabric of `P` endpoints is a full localhost mesh: one TCP connection
//! per unordered rank pair, built by a rendezvous protocol:
//!
//! 1. **Rendezvous** — rank 0 listens on a known address (the
//!    [`TcpRendezvous`]). Every rank `r > 0` first binds its own mesh
//!    listener (ephemeral localhost by default; `--bind`/`with_bind` for
//!    cross-machine runs), then dials rank 0 and sends a hello
//!    (`[u32 magic][u8 fabric][u32 rank][u32 epoch][u8 ip kind][16B ip][u16 port]`
//!    advertising where its mesh listener can be dialed; an unspecified
//!    ip kind asks rank 0 to substitute the address it observed on the
//!    rendezvous connection).
//! 2. **Roster** — once all `P − 1` hellos arrived, rank 0 answers each
//!    peer with the roster
//!    (`[u32 magic][u32 nprocs][u32 epoch][(u8 ip kind)(16B ip)(u16 port) × (P − 1)]`)
//!    mapping every nonzero rank to its mesh listener's full socket
//!    address — real peer IPs, not an assumed localhost. The rendezvous
//!    connection itself becomes the `0 ↔ r` mesh link.
//! 3. **Mesh** — each rank `i > 0` dials the roster addresses of ranks
//!    `1..i` (sending a hello so the acceptor learns who called) and
//!    accepts one connection from each rank `i+1..P`.
//!
//! The `fabric` byte lets one rendezvous listener serve several fabrics
//! (a cluster run builds two: point-to-point and collectives); hellos
//! that arrive for a fabric not currently being collected are stashed,
//! so process startup order cannot wedge the bootstrap. The collectives
//! mesh's fabric id additionally encodes the collective topology, so
//! processes that resolved different `DNE_COLLECTIVES` values fail the
//! bootstrap with a typed error naming the disagreement instead of
//! deadlocking at the first barrier. Every bootstrap step carries a
//! deadline — a peer that never shows up is a
//! [`TransportError::Bootstrap`], not a hang.
//!
//! # Epochs and recovery
//!
//! Every bootstrap happens under an **epoch** — a generation counter
//! owned by rank 0's rendezvous. A cluster's first bootstrap is epoch 0;
//! after a rank dies (survivors observe [`TransportError::Disconnected`]),
//! the same [`TcpProcessCluster`] objects can re-bootstrap a fresh mesh
//! under the next epoch via
//! [`connect_epoch`](TcpProcessCluster::connect_epoch): rank 0's
//! rendezvous listener persists across epochs (its address stays valid),
//! survivors and restarted workers re-dial it with the [`EPOCH_ANY`]
//! wildcard and learn the agreed epoch from the roster. A hello carrying
//! a concrete epoch that disagrees with the rendezvous's current epoch is
//! a typed [`TransportError::Bootstrap`] naming both epochs (a process
//! from a previous incarnation is talking to this rendezvous); a stale
//! mesh-listener connect is silently dropped and the accept loop
//! continues, so a zombie cannot poison a recovery bootstrap. Rank 0
//! owns the epoch counter, so rank 0's death is unrecoverable by design.
//!
//! # Framing
//!
//! Data frames are exactly the bytes-backend format:
//! `[u64 payload len][u32 src][payload]`, little-endian, plus the shared
//! multi-message layout (`BATCH_FLAG` set in the length prefix, body
//! `[u32 count][(u32 sublen)(payload)]…`) when coalescing is enabled.
//! The push-based `FrameAssembler` reassembles frames from whatever
//! byte slices the poll loop reads, immune to short reads and coalesced
//! arrivals, bounding the length prefix by [`MAX_FRAME_PAYLOAD`] and by
//! the bytes that actually arrive (a truncated connection is a typed
//! error, never an unbounded allocation or a forever-block). The
//! blocking [`FramedReader`] drives the same assembler for stream callers. A
//! length prefix of `u64::MAX` is the *goodbye frame*: endpoints send it
//! on every link when dropped, which is how peers distinguish a graceful
//! teardown (the link retires silently) from a killed process (EOF
//! without goodbye ⇒ [`TransportError::Disconnected`] surfaces from
//! `recv`).
//!
//! # Event-driven endpoint
//!
//! Each endpoint runs **one** io thread, not one thread per peer: after
//! the blocking rendezvous bootstrap every mesh socket is switched to
//! nonblocking mode and handed to a `poll(2)` loop (a small FFI shim,
//! like the mmap shim in the graph crate) that multiplexes reads across
//! all peers and drains per-peer write-backpressure queues. `send` and
//! `flush` only *enqueue* encoded frames and wake the loop through a
//! self-pipe, so the caller overlaps its own compute with the kernel's
//! socket work; `try_recv` surfaces already-decoded envelopes without
//! blocking, which is what `CommEndpoint::drain_ready` builds on.
//!
//! # Accounting
//!
//! `send` reports the encoded payload length exactly like the bytes
//! backend, so `comm_bytes`/`comm_msgs` are identical across loopback,
//! bytes, and tcp for identical traffic — the cross-transport equality
//! tests assert this end-to-end. Physical frames (one per classic
//! envelope, one per coalesced flush) are counted by
//! [`CommStats::record_frames`] at enqueue time, exactly as the
//! in-process backends count theirs.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::cluster::Ctx;
use crate::collectives::{CollMsg, CollectiveTopology, Collectives};
use crate::comm::CommEndpoint;
use crate::frame::{bye_frame, push_classic_frame, WriteQueue};
#[cfg(unix)]
use crate::frame::{Assembled, FrameAssembler, READ_BUF_BYTES};
use crate::memory::MemoryTracker;
#[cfg(unix)]
use crate::poll as sys;
use crate::stats::CommStats;
#[cfg(unix)]
use crate::transport::decode_frames;
use crate::transport::{
    check_payload_bound, encode_batch_frame, BatchConfig, Transport, TransportError,
};

pub use crate::frame::FramedReader;
pub use crate::transport::MAX_FRAME_PAYLOAD;
use crate::wire::{WireDecode, WireEncode};

/// Handshake magic ("DNE1") opening every bootstrap message.
const MAGIC: u32 = 0x444E_4531;

/// How long any single bootstrap step (dial, hello, roster, accept) may
/// take before the bootstrap fails with a typed error.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(60);

/// Fabric id of the point-to-point mesh in a cluster session.
const FABRIC_P2P: u8 = 0;

/// First fabric id of the collectives meshes: the collective topology is
/// baked into the fabric id (`FABRIC_COLL_BASE + topology index`), so a
/// cluster whose processes disagree on `DNE_COLLECTIVES` fails the
/// bootstrap with a typed error naming the disagreement instead of
/// deadlocking at the first barrier.
const FABRIC_COLL_BASE: u8 = 1;

/// The collectives-mesh fabric id of `topology`.
fn coll_fabric(topology: CollectiveTopology) -> u8 {
    let idx = CollectiveTopology::ALL.iter().position(|t| *t == topology).expect("topology in ALL");
    FABRIC_COLL_BASE + idx as u8
}

/// Human-readable name of a fabric id, for bootstrap errors.
fn fabric_name(fabric: u8) -> String {
    if fabric == FABRIC_P2P {
        "point-to-point".into()
    } else {
        match CollectiveTopology::ALL.get((fabric - FABRIC_COLL_BASE) as usize) {
            Some(t) => format!("{t}-collectives"),
            None => format!("unknown fabric {fabric}"),
        }
    }
}

/// Whether a fabric id names a collectives mesh (of any topology).
fn is_coll_fabric(fabric: u8) -> bool {
    fabric >= FABRIC_COLL_BASE
        && ((fabric - FABRIC_COLL_BASE) as usize) < CollectiveTopology::ALL.len()
}

/// Two collectives fabrics that differ can only mean the cluster's
/// processes resolved different `DNE_COLLECTIVES` values.
fn topology_disagreement(theirs: u8, ours: u8) -> TransportError {
    bootstrap_err(format!(
        "a peer bootstrapped the {} mesh while this process expects the {} mesh — \
         the cluster's processes disagree on the collective topology \
         (check DNE_COLLECTIVES in every process's environment)",
        fabric_name(theirs),
        fabric_name(ours)
    ))
}

fn io_err(context: impl Into<String>, error: io::Error) -> TransportError {
    TransportError::Io { context: context.into(), error }
}

fn bootstrap_err(detail: impl Into<String>) -> TransportError {
    TransportError::Bootstrap { detail: detail.into() }
}

// -------------------------------------------------------------- bootstrap --

/// IP kind tag in hellos and roster entries: no advertised address (the
/// rendezvous substitutes the IP it observed on the wire).
const IPKIND_UNSPECIFIED: u8 = 0;
/// IP kind tag: IPv4 (first 4 of the 16 address bytes are meaningful).
const IPKIND_V4: u8 = 4;
/// IP kind tag: IPv6 (all 16 address bytes are meaningful).
const IPKIND_V6: u8 = 6;

/// Encode an optional advertised IP as `[u8 kind][16 bytes]`.
fn encode_ip(buf: &mut [u8], ip: Option<IpAddr>) {
    debug_assert_eq!(buf.len(), 17);
    match ip {
        None => buf[0] = IPKIND_UNSPECIFIED,
        Some(IpAddr::V4(v4)) => {
            buf[0] = IPKIND_V4;
            buf[1..5].copy_from_slice(&v4.octets());
        }
        Some(IpAddr::V6(v6)) => {
            buf[0] = IPKIND_V6;
            buf[1..17].copy_from_slice(&v6.octets());
        }
    }
}

/// Decode a `[u8 kind][16 bytes]` advertised IP.
fn decode_ip(buf: &[u8]) -> Result<Option<IpAddr>, TransportError> {
    debug_assert_eq!(buf.len(), 17);
    match buf[0] {
        IPKIND_UNSPECIFIED => Ok(None),
        IPKIND_V4 => {
            let mut o = [0u8; 4];
            o.copy_from_slice(&buf[1..5]);
            Ok(Some(IpAddr::V4(Ipv4Addr::from(o))))
        }
        IPKIND_V6 => {
            let mut o = [0u8; 16];
            o.copy_from_slice(&buf[1..17]);
            Ok(Some(IpAddr::V6(Ipv6Addr::from(o))))
        }
        k => Err(bootstrap_err(format!("bad address kind {k} in bootstrap message"))),
    }
}

/// Epoch wildcard in hellos: "whatever epoch the rendezvous is currently
/// bootstrapping". Survivors and restarted workers re-dialing after a
/// failure cannot know how many recoveries rank 0 has already counted, so
/// they send the wildcard and learn the agreed epoch from the roster.
pub const EPOCH_ANY: u32 = u32::MAX;

/// Hello:
/// `[u32 magic][u8 fabric][u32 rank][u32 epoch][u8 ip kind][16B ip][u16 port]`.
///
/// The IP is the address this rank *advertises* for its mesh listener;
/// kind 0 means "unspecified" and tells the rendezvous to substitute the
/// source IP it observed on the hello connection itself (the right answer
/// for localhost fleets and for workers behind symmetric routing). The
/// epoch is the bootstrap generation the sender believes it is joining
/// ([`EPOCH_ANY`] defers to the rendezvous).
const HELLO_BYTES: usize = 32;

fn write_hello(
    s: &mut impl Write,
    fabric: u8,
    rank: u32,
    epoch: u32,
    ip: Option<IpAddr>,
    port: u16,
) -> io::Result<()> {
    let mut buf = [0u8; HELLO_BYTES];
    buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4] = fabric;
    buf[5..9].copy_from_slice(&rank.to_le_bytes());
    buf[9..13].copy_from_slice(&epoch.to_le_bytes());
    encode_ip(&mut buf[13..30], ip);
    buf[30..32].copy_from_slice(&port.to_le_bytes());
    s.write_all(&buf)
}

fn read_hello(s: &mut impl Read) -> Result<(u8, u32, u32, Option<IpAddr>, u16), TransportError> {
    let mut buf = [0u8; HELLO_BYTES];
    s.read_exact(&mut buf).map_err(|e| io_err("reading bootstrap hello", e))?;
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte slice"));
    if magic != MAGIC {
        return Err(bootstrap_err(format!(
            "bad hello magic {magic:#010x} (expected {MAGIC:#010x}) — \
             is something else talking to the rendezvous port?"
        )));
    }
    let fabric = buf[4];
    let rank = u32::from_le_bytes(buf[5..9].try_into().expect("4-byte slice"));
    let epoch = u32::from_le_bytes(buf[9..13].try_into().expect("4-byte slice"));
    let ip = decode_ip(&buf[13..30])?;
    let port = u16::from_le_bytes(buf[30..32].try_into().expect("2-byte slice"));
    Ok((fabric, rank, epoch, ip, port))
}

/// Roster entry: `[u8 ip kind][16B ip][u16 port]` — a full socket address.
const ROSTER_ENTRY_BYTES: usize = 19;

fn write_roster(
    s: &mut impl Write,
    nprocs: usize,
    epoch: u32,
    addrs: &[SocketAddr],
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(12 + addrs.len() * ROSTER_ENTRY_BYTES);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(nprocs as u32).to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    for a in addrs {
        let mut entry = [0u8; ROSTER_ENTRY_BYTES];
        encode_ip(&mut entry[0..17], Some(a.ip()));
        entry[17..19].copy_from_slice(&a.port().to_le_bytes());
        buf.extend_from_slice(&entry);
    }
    s.write_all(&buf)
}

fn read_roster(s: &mut impl Read, nprocs: usize) -> Result<(u32, Vec<SocketAddr>), TransportError> {
    let mut head = [0u8; 12];
    s.read_exact(&mut head).map_err(|e| io_err("reading bootstrap roster", e))?;
    let magic = u32::from_le_bytes(head[0..4].try_into().expect("4-byte slice"));
    if magic != MAGIC {
        return Err(bootstrap_err(format!("bad roster magic {magic:#010x}")));
    }
    let n = u32::from_le_bytes(head[4..8].try_into().expect("4-byte slice")) as usize;
    if n != nprocs {
        return Err(bootstrap_err(format!(
            "cluster size disagreement: rendezvous says {n} processes, this rank expects {nprocs}"
        )));
    }
    let epoch = u32::from_le_bytes(head[8..12].try_into().expect("4-byte slice"));
    let mut entries = vec![0u8; (nprocs - 1) * ROSTER_ENTRY_BYTES];
    s.read_exact(&mut entries).map_err(|e| io_err("reading bootstrap roster entries", e))?;
    let addrs = entries
        .chunks_exact(ROSTER_ENTRY_BYTES)
        .map(|c| {
            let ip = decode_ip(&c[0..17])?.ok_or_else(|| {
                bootstrap_err("roster entry with unspecified address".to_string())
            })?;
            let port = u16::from_le_bytes([c[17], c[18]]);
            Ok(SocketAddr::new(ip, port))
        })
        .collect::<Result<Vec<_>, TransportError>>()?;
    Ok((epoch, addrs))
}

/// The rendezvous point of a TCP fabric: rank 0's listener, which peers
/// dial to exchange rank handshakes before the mesh is built.
///
/// One rendezvous can bootstrap several fabrics in sequence (a cluster
/// session builds a point-to-point mesh and a collectives mesh); hellos
/// arriving early for a later fabric are stashed, so peer startup order
/// does not matter.
pub struct TcpRendezvous {
    listener: TcpListener,
    addr: SocketAddr,
    /// The bootstrap generation this rendezvous is currently serving.
    /// Hellos carrying a different concrete epoch are rejected with a
    /// typed error; [`EPOCH_ANY`] hellos adopt this epoch via the roster.
    epoch: u32,
    stash: Vec<(u8, u32, SocketAddr, TcpStream)>,
}

impl TcpRendezvous {
    /// Bind the rendezvous listener (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port, or a fixed `host:port` peers were told to dial).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr, epoch: 0, stash: Vec::new() })
    }

    /// The bound address peers must dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bootstrap generation this rendezvous currently serves.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Move this rendezvous to a new bootstrap generation (a recovery
    /// bootstrap after a rank died). Hellos stashed under the previous
    /// epoch belong to a dead world and are discarded.
    ///
    /// # Panics
    /// Panics when `epoch` is the [`EPOCH_ANY`] wildcard — the rendezvous
    /// owns the authoritative counter and must serve a concrete epoch.
    pub fn set_epoch(&mut self, epoch: u32) {
        assert!(epoch != EPOCH_ANY, "the rendezvous must serve a concrete epoch");
        if epoch != self.epoch {
            self.epoch = epoch;
            self.stash.clear();
        }
    }

    /// Accept hellos until every rank `1..nprocs` reported in for
    /// `fabric`; returns `(rank, mesh address, stream)` sorted by rank.
    ///
    /// A hello with no advertised IP gets the source address the
    /// rendezvous observed on the wire, so localhost fleets keep working
    /// without configuration while cross-machine workers can advertise
    /// an explicit `--bind` address.
    fn collect(
        &mut self,
        fabric: u8,
        nprocs: usize,
    ) -> Result<Vec<(u32, SocketAddr, TcpStream)>, TransportError> {
        let mut slots: Vec<Option<(SocketAddr, TcpStream)>> = (0..nprocs).map(|_| None).collect();
        let mut place =
            |rank: u32, addr: SocketAddr, stream: TcpStream| -> Result<(), TransportError> {
                let slot = slots.get_mut(rank as usize).filter(|_| rank >= 1).ok_or_else(|| {
                    bootstrap_err(format!("hello from out-of-range rank {rank} (nprocs {nprocs})"))
                })?;
                if slot.is_some() {
                    return Err(bootstrap_err(format!("two hellos from rank {rank}")));
                }
                *slot = Some((addr, stream));
                Ok(())
            };
        let mut remaining = nprocs - 1;
        // Serve hellos stashed by an earlier fabric's collection first.
        let mut i = 0;
        while i < self.stash.len() {
            if self.stash[i].0 == fabric {
                let (_, rank, addr, stream) = self.stash.remove(i);
                place(rank, addr, stream)?;
                remaining -= 1;
            } else if is_coll_fabric(self.stash[i].0) && is_coll_fabric(fabric) {
                // A stashed collectives hello for a *different* topology:
                // fail loudly now, not via a barrier deadlock later.
                return Err(topology_disagreement(self.stash[i].0, fabric));
            } else {
                i += 1;
            }
        }
        let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| io_err("configuring rendezvous listener", e))?;
        while remaining > 0 {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(BOOTSTRAP_TIMEOUT)))
                        .map_err(|e| io_err("configuring rendezvous connection", e))?;
                    let (f, rank, epoch, ip, port) = read_hello(&mut stream)?;
                    stream
                        .set_read_timeout(None)
                        .map_err(|e| io_err("configuring rendezvous connection", e))?;
                    if epoch != EPOCH_ANY && epoch != self.epoch {
                        return Err(bootstrap_err(format!(
                            "rank {rank} dialed the rendezvous with epoch {epoch} but the \
                             cluster is bootstrapping epoch {} — a process from a previous \
                             incarnation (or a stale relaunch) is talking to this rendezvous",
                            self.epoch
                        )));
                    }
                    let ip = match ip {
                        Some(ip) => ip,
                        None => stream
                            .peer_addr()
                            .map_err(|e| io_err("reading hello source address", e))?
                            .ip(),
                    };
                    let addr = SocketAddr::new(ip, port);
                    if f == fabric {
                        place(rank, addr, stream)?;
                        remaining -= 1;
                    } else if is_coll_fabric(f) && is_coll_fabric(fabric) {
                        return Err(topology_disagreement(f, fabric));
                    } else {
                        self.stash.push((f, rank, addr, stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(bootstrap_err(format!(
                            "timed out waiting for {remaining} of {} peers to dial the \
                             rendezvous at {}",
                            nprocs - 1,
                            self.addr
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err("accepting rendezvous connection", e)),
            }
        }
        self.listener
            .set_nonblocking(false)
            .map_err(|e| io_err("configuring rendezvous listener", e))?;
        Ok(slots
            .into_iter()
            .enumerate()
            .filter_map(|(rank, s)| s.map(|(addr, stream)| (rank as u32, addr, stream)))
            .collect())
    }
}

/// Rank 0's side of one fabric bootstrap: collect hellos, answer rosters,
/// keep the rendezvous connections as mesh links.
fn host_endpoint<M>(
    rv: &mut TcpRendezvous,
    fabric: u8,
    nprocs: usize,
    batch: BatchConfig,
    stats: Arc<CommStats>,
) -> Result<TcpTransport<M>, TransportError>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    if nprocs == 1 {
        return Ok(TcpTransport::solo(batch, stats));
    }
    let peers = rv.collect(fabric, nprocs)?;
    let addrs: Vec<SocketAddr> = peers.iter().map(|&(_, addr, _)| addr).collect();
    let mut links: Vec<Option<TcpStream>> = (0..nprocs).map(|_| None).collect();
    for (rank, _, mut stream) in peers {
        write_roster(&mut stream, nprocs, rv.epoch, &addrs)
            .map_err(|e| io_err("sending roster", e))?;
        links[rank as usize] = Some(stream);
    }
    Ok(TcpTransport::from_links(0, nprocs, links, batch, stats))
}

/// Dial `addr` until it accepts or the bootstrap deadline passes.
fn connect_with_retry(addr: SocketAddr) -> Result<TcpStream, TransportError> {
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(io_err(format!("dialing rendezvous {addr}"), e));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// A nonzero rank's side of one fabric bootstrap: dial the rendezvous,
/// learn the roster, then complete the mesh (dial lower ranks, accept
/// higher ranks).
///
/// `bind` is the local address for this rank's mesh listener (e.g.
/// `"127.0.0.1:0"`, or `"0.0.0.0:0"` with an explicit interface IP for
/// cross-machine fleets). Unless it is a wildcard, the bound IP is
/// advertised in the hello; a wildcard defers to the source address the
/// rendezvous observes.
///
/// `epoch` is the bootstrap generation this rank believes it is joining
/// ([`EPOCH_ANY`] for recovery re-dials); the concrete epoch learned from
/// the roster is returned alongside the endpoint.
#[allow(clippy::too_many_arguments)] // one bootstrap, one argument list
fn connect_endpoint<M>(
    addr: SocketAddr,
    fabric: u8,
    rank: usize,
    nprocs: usize,
    epoch: u32,
    bind: &str,
    batch: BatchConfig,
    stats: Arc<CommStats>,
) -> Result<(TcpTransport<M>, u32), TransportError>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    assert!(rank >= 1 && rank < nprocs, "connect_endpoint is for ranks 1..nprocs");
    let listener = TcpListener::bind(bind)
        .map_err(|e| io_err(format!("binding mesh listener at {bind}"), e))?;
    let local = listener.local_addr().map_err(|e| io_err("reading mesh listener address", e))?;
    let advertised_ip = if local.ip().is_unspecified() { None } else { Some(local.ip()) };
    let mut rendezvous = connect_with_retry(addr)?;
    write_hello(&mut rendezvous, fabric, rank as u32, epoch, advertised_ip, local.port())
        .map_err(|e| io_err("sending hello", e))?;
    rendezvous
        .set_read_timeout(Some(BOOTSTRAP_TIMEOUT))
        .map_err(|e| io_err("configuring rendezvous connection", e))?;
    let (epoch, roster) = read_roster(&mut rendezvous, nprocs)?;
    rendezvous
        .set_read_timeout(None)
        .map_err(|e| io_err("configuring rendezvous connection", e))?;
    let mut links: Vec<Option<TcpStream>> = (0..nprocs).map(|_| None).collect();
    links[0] = Some(rendezvous);
    // Dial every lower nonzero rank's mesh listener, announcing the
    // concrete epoch the roster agreed on.
    for j in 1..rank {
        let mut s = TcpStream::connect(roster[j - 1])
            .map_err(|e| io_err(format!("dialing mesh listener of rank {j}"), e))?;
        write_hello(&mut s, fabric, rank as u32, epoch, None, 0)
            .map_err(|e| io_err("sending mesh hello", e))?;
        links[j] = Some(s);
    }
    // Accept one connection from every higher rank (any arrival order).
    // The accept itself is bounded by the bootstrap deadline too: a peer
    // that dies between its rendezvous hello and its mesh dial must
    // surface as a bootstrap error here, not wedge this rank forever.
    listener.set_nonblocking(true).map_err(|e| io_err("configuring mesh listener", e))?;
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    let mut pending = nprocs - rank - 1;
    while pending > 0 {
        let mut s = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(bootstrap_err(format!(
                            "timed out waiting for higher ranks to dial rank {rank}'s mesh \
                             listener"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err("accepting mesh connection", e)),
            }
        };
        s.set_nonblocking(false)
            .and_then(|()| s.set_read_timeout(Some(BOOTSTRAP_TIMEOUT)))
            .map_err(|e| io_err("configuring mesh connection", e))?;
        let (f, peer, peer_epoch, _, _) = read_hello(&mut s)?;
        s.set_read_timeout(None).map_err(|e| io_err("configuring mesh connection", e))?;
        if peer_epoch != epoch {
            // A zombie from a previous incarnation dialed a reused port:
            // not this bootstrap's problem — drop it and keep accepting.
            drop(s);
            continue;
        }
        if f != fabric {
            if is_coll_fabric(f) && is_coll_fabric(fabric) {
                return Err(topology_disagreement(f, fabric));
            }
            return Err(bootstrap_err(format!(
                "mesh hello for fabric {f} arrived on fabric {fabric}'s listener"
            )));
        }
        let peer = peer as usize;
        if peer <= rank || peer >= nprocs {
            return Err(bootstrap_err(format!(
                "mesh hello from unexpected rank {peer} (this is rank {rank} of {nprocs})"
            )));
        }
        if links[peer].is_some() {
            return Err(bootstrap_err(format!("two mesh connections from rank {peer}")));
        }
        links[peer] = Some(s);
        pending -= 1;
    }
    Ok((TcpTransport::from_links(rank, nprocs, links, batch, stats), epoch))
}

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
    /// A decoded envelope from a peer (or a self-send).
    Frame(usize, M),
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
    /// Per-peer write-backpressure queues (`None` at the self index).
    queues: Vec<Option<Mutex<WriteQueue>>>,
}

impl Shared {
    fn queue_empty(&self, peer: usize) -> bool {
        self.queues[peer].as_ref().is_none_or(|q| q.lock().is_empty())
    }
}

/// Same-destination payloads waiting to be coalesced into one frame.
#[derive(Default)]
struct TcpBatch {
    payloads: Vec<Vec<u8>>,
    bytes: usize,
}

/// One endpoint of the TCP socket fabric.
///
/// One io thread per endpoint multiplexes every mesh link through a
/// `poll(2)` loop: it reassembles incoming frames (via
/// `FrameAssembler`), decodes them into `(src, msg)` envelopes, and
/// drains per-peer write queues that `send`/`flush` fill. `recv`
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
    /// Coalescing policy for small same-destination envelopes.
    batch: BatchConfig,
    /// Per-destination payloads buffered until a flush point.
    outbox: Vec<Mutex<TcpBatch>>,
    /// Physical frame accounting (logical msgs/bytes are charged by the
    /// `CommEndpoint` layer, exactly like the in-process backends).
    stats: Arc<CommStats>,
    events_tx: Sender<Event<M>>,
    events_rx: Receiver<Event<M>>,
    /// Links still delivering (decremented per Bye/Fault).
    live: Mutex<usize>,
    /// Write half of the self-pipe that wakes the io thread's poll.
    #[cfg(unix)]
    wake: Option<UnixStream>,
    /// The io thread, joined on graceful drop.
    io: Option<std::thread::JoinHandle<()>>,
}

impl<M> TcpTransport<M>
where
    M: Send + WireEncode + WireDecode + 'static,
{
    /// Build all `n` connected endpoints of an in-process fabric: machine
    /// threads bridged by real localhost sockets, bootstrapped through
    /// the same rendezvous protocol spawned worker processes use.
    ///
    /// # Panics
    /// Panics when the localhost mesh cannot be built (ports exhausted,
    /// loopback unavailable) — an environment failure, not an input
    /// condition. Multi-process callers use [`TcpProcessCluster`], which
    /// returns errors instead.
    pub fn fabric(n: usize) -> Vec<Self> {
        Self::try_fabric(n).unwrap_or_else(|e| panic!("failed to build localhost TCP fabric: {e}"))
    }

    /// Fallible variant of [`TcpTransport::fabric`].
    pub fn try_fabric(n: usize) -> Result<Vec<Self>, TransportError> {
        Self::try_fabric_with(n, BatchConfig::disabled(), CommStats::new(n))
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
        let addr = rv.local_addr();
        std::thread::scope(|scope| {
            let dialers: Vec<_> = (1..n)
                .map(|r| {
                    let stats = Arc::clone(&stats);
                    scope.spawn(move || {
                        connect_endpoint::<M>(
                            addr,
                            FABRIC_P2P,
                            r,
                            n,
                            0,
                            "127.0.0.1:0",
                            batch,
                            stats,
                        )
                        .map(|(ep, _epoch)| ep)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(n);
            out.push(host_endpoint::<M>(&mut rv, FABRIC_P2P, n, batch, Arc::clone(&stats))?);
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
    fn solo(batch: BatchConfig, stats: Arc<CommStats>) -> Self {
        let (events_tx, events_rx) = unbounded();
        Self {
            rank: 0,
            nprocs: 1,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                crash: AtomicBool::new(false),
                slam: AtomicBool::new(false),
                queues: vec![None],
            }),
            socks: vec![None],
            batch,
            outbox: vec![Mutex::new(TcpBatch::default())],
            stats,
            events_tx,
            events_rx,
            live: Mutex::new(0),
            #[cfg(unix)]
            wake: None,
            io: None,
        }
    }

    /// Assemble an endpoint from its bootstrapped mesh links: switch the
    /// sockets to nonblocking mode and hand them all to one io thread's
    /// poll loop.
    #[cfg(unix)]
    fn from_links(
        rank: usize,
        nprocs: usize,
        links: Vec<Option<TcpStream>>,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let mut live = 0usize;
        let socks: Vec<Option<Arc<TcpStream>>> = links
            .into_iter()
            .map(|link| {
                link.map(|stream| {
                    let _ = stream.set_nodelay(true);
                    stream.set_nonblocking(true).expect("marking mesh socket nonblocking");
                    live += 1;
                    Arc::new(stream)
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            crash: AtomicBool::new(false),
            slam: AtomicBool::new(false),
            queues: socks
                .iter()
                .map(|s| s.as_ref().map(|_| Mutex::new(WriteQueue::default())))
                .collect(),
        });
        let (wake_rx, wake_tx) = UnixStream::pair().expect("creating io wake pipe");
        wake_rx.set_nonblocking(true).expect("marking wake pipe nonblocking");
        wake_tx.set_nonblocking(true).expect("marking wake pipe nonblocking");
        let io = {
            let socks = socks.clone();
            let shared = Arc::clone(&shared);
            let tx = events_tx.clone();
            std::thread::Builder::new()
                .name(format!("dne-tcp-io-{rank}"))
                .spawn(move || io_loop::<M>(rank, socks, shared, wake_rx, tx))
                .expect("spawning tcp io thread")
        };
        Self {
            rank,
            nprocs,
            shared,
            socks,
            batch,
            outbox: (0..nprocs).map(|_| Mutex::new(TcpBatch::default())).collect(),
            stats,
            events_tx,
            events_rx,
            live: Mutex::new(live),
            wake: Some(wake_tx),
            io: Some(io),
        }
    }

    /// Non-unix stub: the poll-based fabric needs `poll(2)`, so every
    /// link faults with a typed `Unsupported` error instead of hanging.
    #[cfg(not(unix))]
    fn from_links(
        rank: usize,
        nprocs: usize,
        links: Vec<Option<TcpStream>>,
        batch: BatchConfig,
        stats: Arc<CommStats>,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let mut live = 0usize;
        let socks: Vec<Option<Arc<TcpStream>>> = links
            .into_iter()
            .map(|link| {
                link.map(|stream| {
                    live += 1;
                    Arc::new(stream)
                })
            })
            .collect();
        for _ in 0..live {
            let _ = events_tx.send(Event::Fault(TransportError::Io {
                context: "the poll-based tcp fabric needs poll(2)".into(),
                error: io::Error::new(io::ErrorKind::Unsupported, "unsupported platform"),
            }));
        }
        Self {
            rank,
            nprocs,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                crash: AtomicBool::new(false),
                slam: AtomicBool::new(false),
                queues: socks
                    .iter()
                    .map(|s| s.as_ref().map(|_| Mutex::new(WriteQueue::default())))
                    .collect(),
            }),
            socks,
            batch,
            outbox: (0..nprocs).map(|_| Mutex::new(TcpBatch::default())).collect(),
            stats,
            events_tx,
            events_rx,
            live: Mutex::new(live),
            io: None,
        }
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

    /// Nudge the io thread out of its poll so it notices fresh queue
    /// contents or a freshly-set flag.
    #[cfg(unix)]
    fn wake_io(&self) {
        if let Some(w) = &self.wake {
            // A full pipe means a wake is already pending — good enough.
            let _ = (&*w).write(&[1]);
        }
    }

    #[cfg(not(unix))]
    fn wake_io(&self) {}

    /// Have `encode` append one frame to `dst`'s write queue, hand it to
    /// the io thread and count it.
    fn enqueue_frame(&self, dst: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        if let Some(q) = &self.shared.queues[dst] {
            encode(q.lock().tail());
        }
        self.stats.record_frames(self.rank, 1);
        self.wake_io();
    }

    /// Coalesce and enqueue everything buffered for `dst`.
    fn flush_dst(&self, dst: usize) {
        let payloads = {
            let mut buf = self.outbox[dst].lock();
            if buf.payloads.is_empty() {
                return;
            }
            buf.bytes = 0;
            std::mem::take(&mut buf.payloads)
        };
        let frame = encode_batch_frame(self.rank, &payloads);
        self.enqueue_frame(dst, |out| out.extend_from_slice(&frame));
    }
}

/// Per-link io state of the poll loop.
#[cfg(unix)]
struct PeerLink {
    sock: Arc<TcpStream>,
    assembler: FrameAssembler,
    /// Still expecting bytes (no Bye/Fault observed yet).
    reading: bool,
    /// Still allowed to write (no write fault yet).
    writing: bool,
    /// Terminal event already emitted — never emit a second, so the
    /// endpoint's live-link count stays exact.
    done: bool,
}

#[cfg(unix)]
impl PeerLink {
    fn new(sock: Arc<TcpStream>) -> Self {
        Self {
            sock,
            assembler: FrameAssembler::default(),
            reading: true,
            writing: true,
            done: false,
        }
    }

    /// The link failed: retire both directions and emit the one fault.
    fn fault<M>(&mut self, tx: &Sender<Event<M>>, err: TransportError) {
        self.reading = false;
        self.writing = false;
        if !self.done {
            self.done = true;
            let _ = tx.send(Event::Fault(err));
        }
    }

    /// The peer said goodbye: stop reading (its write half is closed),
    /// keep writing (its read half drains until its process exits).
    fn bye<M>(&mut self, tx: &Sender<Event<M>>) {
        self.reading = false;
        if !self.done {
            self.done = true;
            let _ = tx.send(Event::Bye);
        }
    }
}

/// The io thread: one `poll(2)` loop multiplexing every mesh link.
///
/// Reads ready bytes into each peer's [`FrameAssembler`] and queues the
/// decoded envelopes; drains each peer's [`WriteQueue`] whenever its
/// socket is writable, resuming partial writes at the recorded offset.
/// On graceful shutdown it drains all queues, appends goodbye frames,
/// *logs* (rather than discards) goodbye write failures, half-closes the
/// links, and exits; on slam it shuts every socket down hard and exits
/// at once.
#[cfg(unix)]
fn io_loop<M: Send + WireDecode>(
    rank: usize,
    socks: Vec<Option<Arc<TcpStream>>>,
    shared: Arc<Shared>,
    wake: UnixStream,
    tx: Sender<Event<M>>,
) {
    let mut peers: Vec<Option<PeerLink>> =
        socks.into_iter().map(|s| s.map(PeerLink::new)).collect();
    let mut scratch = vec![0u8; READ_BUF_BYTES];
    // Once a graceful shutdown begins, the deadline after which queued
    // frames and goodbyes are abandoned.
    let mut goodbye: Option<Instant> = None;
    // Once a crash teardown begins, the deadline after which queued data
    // frames are abandoned and the links are slammed (no goodbyes).
    let mut crash: Option<Instant> = None;

    loop {
        if shared.slam.load(Ordering::SeqCst) {
            for p in peers.iter().flatten() {
                let _ = p.sock.shutdown(Shutdown::Both);
            }
            return;
        }
        if crash.is_none() && shared.crash.load(Ordering::SeqCst) {
            crash = Some(Instant::now() + CRASH_DRAIN_TIMEOUT);
        }
        if let Some(deadline) = crash {
            let drained = peers
                .iter()
                .enumerate()
                .all(|(i, p)| p.as_ref().is_none_or(|p| !p.writing || shared.queue_empty(i)));
            if drained || Instant::now() > deadline {
                // Dirty close by design: no goodbye frames, so peers see
                // EOF-without-goodbye and surface `Disconnected`.
                for p in peers.iter().flatten() {
                    let _ = p.sock.shutdown(Shutdown::Both);
                }
                return;
            }
        }
        if goodbye.is_none() && crash.is_none() && shared.shutdown.load(Ordering::SeqCst) {
            goodbye = Some(Instant::now() + GOODBYE_TIMEOUT);
            for (i, p) in peers.iter().enumerate() {
                if let Some(p) = p {
                    if p.writing {
                        if let Some(q) = &shared.queues[i] {
                            q.lock().tail().extend_from_slice(&bye_frame(rank));
                        }
                    }
                }
            }
        }
        if let Some(deadline) = goodbye {
            let drained = peers
                .iter()
                .enumerate()
                .all(|(i, p)| p.as_ref().is_none_or(|p| !p.writing || shared.queue_empty(i)));
            if drained {
                for p in peers.iter().flatten() {
                    if p.writing {
                        let _ = p.sock.shutdown(Shutdown::Write);
                    }
                }
                return;
            }
            if Instant::now() > deadline {
                eprintln!(
                    "dne-tcp[{rank}]: goodbye writes timed out after {GOODBYE_TIMEOUT:?}; \
                     closing links hard"
                );
                for p in peers.iter().flatten() {
                    let _ = p.sock.shutdown(Shutdown::Both);
                }
                return;
            }
        }

        // Build the poll set: the wake pipe first, then every link that
        // still wants to read or has queued bytes to write.
        let mut fds = vec![sys::PollFd { fd: wake.as_raw_fd(), events: sys::POLLIN, revents: 0 }];
        let mut idx = Vec::with_capacity(peers.len());
        for (i, p) in peers.iter().enumerate() {
            let Some(p) = p else { continue };
            let mut events = 0i16;
            if p.reading {
                events |= sys::POLLIN;
            }
            if p.writing && !shared.queue_empty(i) {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                fds.push(sys::PollFd { fd: p.sock.as_raw_fd(), events, revents: 0 });
                idx.push(i);
            }
        }
        let timeout = match (goodbye, crash) {
            // Re-check the drain condition at least every 50ms while
            // saying goodbye or crash-draining, even if poll reports
            // nothing.
            (Some(_), _) | (_, Some(_)) => 50,
            (None, None) => -1,
        };
        if let Err(e) = sys::poll_fds(&mut fds, timeout) {
            // poll itself failing is unrecoverable for the whole
            // endpoint: fault every remaining link so recv cannot hang.
            for p in peers.iter_mut().flatten() {
                let error = io::Error::new(e.kind(), e.to_string());
                p.fault(
                    &tx,
                    TransportError::Io { context: "polling the socket fabric".into(), error },
                );
                let _ = p.sock.shutdown(Shutdown::Both);
            }
            return;
        }

        if fds[0].revents != 0 {
            // Drain the wake pipe; its only payload is the nudge itself.
            loop {
                match (&wake).read(&mut scratch) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        for (k, &i) in idx.iter().enumerate() {
            let revents = fds[k + 1].revents;
            if revents == 0 {
                continue;
            }
            let p = peers[i].as_mut().expect("polled peers exist");
            let closing = revents & (sys::POLLERR | sys::POLLHUP) != 0;
            if p.writing && (revents & sys::POLLOUT != 0 || closing) {
                write_ready(rank, i, p, &shared, &tx, goodbye.is_some());
            }
            if p.reading && (revents & sys::POLLIN != 0 || closing) {
                read_ready(i, p, &mut scratch, &tx);
            }
        }
    }
}

/// Drain one peer's write queue until it empties or the socket pushes
/// back. A write error faults the link (or, during the goodbye drain, is
/// logged — never silently discarded).
#[cfg(unix)]
fn write_ready<M>(
    rank: usize,
    peer: usize,
    p: &mut PeerLink,
    shared: &Shared,
    tx: &Sender<Event<M>>,
    in_goodbye: bool,
) {
    let Some(queue) = &shared.queues[peer] else { return };
    let drained = {
        let mut q = queue.lock();
        match q.drain_into(&mut (&*p.sock)) {
            Ok(_) => Ok(()),
            Err(e) => {
                q.clear();
                Err(e)
            }
        }
    };
    if let Err(e) = drained {
        if in_goodbye {
            // The goodbye path has no receiver left to surface a
            // fault to — log instead of discarding the error.
            p.writing = false;
            eprintln!("dne-tcp[{rank}]: goodbye to rank {peer} failed: {e}");
        } else {
            p.fault(
                tx,
                TransportError::Io { context: format!("sending to rank {peer}"), error: e },
            );
        }
        let _ = p.sock.shutdown(Shutdown::Both);
    }
}

/// Read one peer's ready bytes into its assembler and deliver every
/// completed envelope; EOF and malformed streams fault the link with the
/// same typed errors the blocking reader produced.
#[cfg(unix)]
fn read_ready<M: WireDecode>(
    peer: usize,
    p: &mut PeerLink,
    scratch: &mut [u8],
    tx: &Sender<Event<M>>,
) {
    // Bound the reads per readable event so one firehose peer cannot
    // starve the rest of the mesh of service.
    for _ in 0..16 {
        match (&*p.sock).read(scratch) {
            Ok(0) => {
                let err = p.assembler.eof_error(Some(peer));
                p.fault(tx, err);
                return;
            }
            Ok(n) => {
                p.assembler.push(&scratch[..n]);
                loop {
                    match p.assembler.next(Some(peer)) {
                        Ok(None) => break,
                        Err(e) => {
                            p.fault(tx, e);
                            return;
                        }
                        Ok(Some(Assembled::Bye)) => {
                            p.bye(tx);
                            return;
                        }
                        Ok(Some(Assembled::Frame(frame))) => {
                            let claimed =
                                u32::from_le_bytes(frame[8..12].try_into().expect("4-byte slice"))
                                    as usize;
                            if claimed != peer {
                                p.fault(
                                    tx,
                                    TransportError::Frame {
                                        src: Some(peer),
                                        detail: format!(
                                            "frame claims source rank {claimed} on the link \
                                             from rank {peer}"
                                        ),
                                    },
                                );
                                return;
                            }
                            match decode_frames::<M>(frame) {
                                Ok((_, msgs)) => {
                                    for msg in msgs {
                                        let _ = tx.send(Event::Frame(peer, msg));
                                    }
                                }
                                Err(e) => {
                                    p.fault(tx, e);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                p.fault(
                    tx,
                    TransportError::Io { context: format!("receiving from rank {peer}"), error: e },
                );
                return;
            }
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

    fn send(&self, dst: usize, msg: M) -> Result<usize, TransportError> {
        let payload = msg.to_wire();
        let wire = payload.len();
        // Enforce the frame bound at the sender (as every backend does):
        // shipping a gigabyte only for the receiver to reject it as
        // stream corruption would waste the transfer and misattribute a
        // legitimate (if oversized) message.
        check_payload_bound(wire, self.rank)?;
        if dst == self.rank {
            // Self-sends round-trip through the codec like any other
            // envelope (matching the bytes backend) but skip the socket —
            // and are therefore never buffered and never frames.
            let msg = M::from_wire(&payload)
                .map_err(|error| TransportError::Decode { src: self.rank, error })?;
            self.events_tx
                .send(Event::Frame(self.rank, msg))
                .expect("own event queue outlives the endpoint");
            return Ok(wire);
        }
        if !self.batch.enabled() {
            self.enqueue_frame(dst, |out| push_classic_frame(out, self.rank as u32, &payload));
            return Ok(wire);
        }
        if wire >= self.batch.max_bytes {
            // Too big to coalesce: flush what's buffered first (FIFO
            // order is preserved), then ship it as its own frame.
            self.flush_dst(dst);
            self.enqueue_frame(dst, |out| push_classic_frame(out, self.rank as u32, &payload));
            return Ok(wire);
        }
        let full = {
            let mut buf = self.outbox[dst].lock();
            buf.payloads.push(payload);
            buf.bytes += wire;
            buf.payloads.len() >= self.batch.max_msgs || buf.bytes >= self.batch.max_bytes
        };
        if full {
            self.flush_dst(dst);
        }
        Ok(wire)
    }

    fn flush(&self) -> Result<(), TransportError> {
        for dst in 0..self.nprocs {
            if dst != self.rank {
                self.flush_dst(dst);
            }
        }
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<(usize, M)>, TransportError> {
        loop {
            match self.events_rx.try_recv() {
                Ok(Event::Frame(src, msg)) => return Ok(Some((src, msg))),
                Ok(Event::Bye) => *self.live.lock() -= 1,
                Ok(Event::Fault(e)) => {
                    *self.live.lock() -= 1;
                    return Err(e);
                }
                Err(_) => return Ok(None),
            }
        }
    }

    fn recv(&self) -> Result<(usize, M), TransportError> {
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
            match event {
                Event::Frame(src, msg) => return Ok((src, msg)),
                Event::Bye => *self.live.lock() -= 1,
                Event::Fault(e) => {
                    *self.live.lock() -= 1;
                    return Err(e);
                }
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
        // without being sent, exactly like the in-process backends: a
        // flush point must precede any drop that expects delivery, and
        // `CommEndpoint` flushes before every receive.)
        if std::thread::panicking() {
            self.shared.crash.store(true, Ordering::SeqCst);
            self.wake_io();
            // The crash drain is bounded, so this join cannot wedge the
            // unwind for more than about a second.
            if let Some(io) = self.io.take() {
                let _ = io.join();
            }
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
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
/// [`connect`](TcpProcessCluster::connect) then bootstraps the two meshes
/// of a cluster session (point-to-point and collectives) and hands back a
/// [`TcpSession`] whose [`Ctx`] offers the exact API that in-process
/// `Cluster::run` closures receive — the same per-rank algorithm code
/// drives both. See the `dne-tcp-worker` binary for the full workflow.
pub struct TcpProcessCluster {
    rank: usize,
    nprocs: usize,
    rendezvous: Option<TcpRendezvous>,
    addr: SocketAddr,
    bind: String,
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
        Ok(Self {
            rank: 0,
            nprocs,
            rendezvous: Some(rendezvous),
            addr,
            bind: "127.0.0.1:0".to_string(),
        })
    }

    /// Become rank `rank` (`1..nprocs`), dialing the rendezvous `addr`
    /// that rank 0 advertised.
    pub fn join(rank: usize, nprocs: usize, addr: &str) -> Result<Self, TransportError> {
        assert!(rank >= 1 && rank < nprocs, "join is for ranks 1..nprocs");
        let addr = addr
            .parse()
            .map_err(|e| bootstrap_err(format!("invalid rendezvous address {addr:?}: {e}")))?;
        Ok(Self { rank, nprocs, rendezvous: None, addr, bind: "127.0.0.1:0".to_string() })
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

    /// Bootstrap both meshes and build this rank's cluster context, with
    /// the collective topology resolved from the `DNE_COLLECTIVES`
    /// environment variable (flat when unset — every process of a cluster
    /// must agree, which environment inheritance gives for free).
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
        self.connect_full(CollectiveTopology::from_env(), BatchConfig::from_env(), 0)
    }

    /// Bootstrap (or re-bootstrap) the cluster's meshes under an explicit
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
        self.connect_full(CollectiveTopology::from_env(), BatchConfig::from_env(), epoch)
    }

    /// [`TcpProcessCluster::connect`] with an explicit coalescing policy
    /// for the point-to-point mesh (overrides `DNE_COMM_BATCH`; the
    /// collectives mesh always runs unbatched). Results and logical
    /// message/byte accounting are identical with batching on or off —
    /// only the physical frame count changes, so processes need not agree
    /// on the policy.
    pub fn connect_with_comm_batch<M>(
        mut self,
        batch: BatchConfig,
    ) -> Result<TcpSession<M>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        self.connect_full(CollectiveTopology::from_env(), batch, 0)
    }

    /// [`TcpProcessCluster::connect`] with an explicit collective
    /// topology. Every process of the cluster must pass the same value:
    /// the topology is baked into the collectives mesh's fabric id, so a
    /// disagreement fails the bootstrap with a typed
    /// [`TransportError::Bootstrap`] naming both topologies instead of
    /// deadlocking at the first barrier.
    pub fn connect_with_collectives<M>(
        mut self,
        topology: CollectiveTopology,
    ) -> Result<TcpSession<M>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        // The point-to-point mesh honors `DNE_COMM_BATCH` (inherited by
        // every worker's environment); the collectives mesh always runs
        // unbatched, exactly like in-process clusters, so the published
        // per-rank collective traffic stays exact.
        self.connect_full(topology, BatchConfig::from_env(), 0)
    }

    fn connect_full<M>(
        &mut self,
        topology: CollectiveTopology,
        batch: BatchConfig,
        epoch: u32,
    ) -> Result<TcpSession<M>, TransportError>
    where
        M: Send + WireEncode + WireDecode + 'static,
    {
        let stats = CommStats::new(self.nprocs);
        let memory = MemoryTracker::new(self.nprocs);
        let coll_id = coll_fabric(topology);
        let (p2p, coll, epoch): (TcpTransport<M>, TcpTransport<CollMsg>, u32) =
            match self.rendezvous.as_mut() {
                Some(rv) => {
                    assert!(
                        epoch != EPOCH_ANY,
                        "rank 0 owns the epoch counter and must pass a concrete epoch"
                    );
                    rv.set_epoch(epoch);
                    (
                        host_endpoint(rv, FABRIC_P2P, self.nprocs, batch, Arc::clone(&stats))?,
                        host_endpoint(
                            rv,
                            coll_id,
                            self.nprocs,
                            BatchConfig::disabled(),
                            Arc::clone(&stats),
                        )?,
                        epoch,
                    )
                }
                None => {
                    let (p2p, learned) = connect_endpoint(
                        self.addr,
                        FABRIC_P2P,
                        self.rank,
                        self.nprocs,
                        epoch,
                        &self.bind,
                        batch,
                        Arc::clone(&stats),
                    )?;
                    // The collectives mesh joins the epoch the
                    // point-to-point roster agreed on — never the
                    // wildcard, so both meshes are of one generation.
                    let (coll, _) = connect_endpoint(
                        self.addr,
                        coll_id,
                        self.rank,
                        self.nprocs,
                        learned,
                        &self.bind,
                        BatchConfig::disabled(),
                        Arc::clone(&stats),
                    )?;
                    (p2p, coll, learned)
                }
            };
        let comm = CommEndpoint::from_transport(Box::new(p2p), Arc::clone(&stats));
        let collectives = Collectives::from_transport(Box::new(coll), topology, Arc::clone(&stats));
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
    /// The bootstrap generation this session's meshes were built under
    /// (0 for a cluster's first bootstrap; see
    /// [`TcpProcessCluster::connect_epoch`]).
    pub epoch: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireSize;

    // ---------------------------------------------------- socket fabric --

    #[test]
    fn coalesced_envelopes_cross_the_socket_as_one_frame() {
        let stats = CommStats::new(2);
        let mut eps = TcpTransport::<u64>::fabric_with(2, BatchConfig::msgs(8), Arc::clone(&stats));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..5u64 {
            a.send(1, i).unwrap();
        }
        a.flush().unwrap();
        for i in 0..5u64 {
            assert_eq!(b.recv().unwrap(), (0, i));
        }
        assert_eq!(stats.frames_by(0), 1, "five coalesced envelopes are one physical frame");
    }

    #[test]
    fn fabric_delivers_with_exact_accounting() {
        let mut eps = TcpTransport::<Vec<u64>>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let payload: Vec<u64> = (0..500).collect();
        let wire = a.send(1, payload.clone()).unwrap();
        assert_eq!(wire, payload.wire_bytes());
        assert_eq!(b.recv().unwrap(), (0, payload));
    }

    #[test]
    fn per_link_fifo_order_over_sockets() {
        let mut eps = TcpTransport::<u64>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..200 {
            a.send(1, i).unwrap();
        }
        for i in 0..200 {
            assert_eq!(b.recv().unwrap(), (0, i));
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
    fn graceful_shutdown_drains_then_reports_all_gone() {
        // Frames sent before a graceful drop must still be received;
        // afterwards recv reports that nothing can arrive instead of
        // blocking forever.
        let mut eps = TcpTransport::<u64>::fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.send(0, 41).unwrap();
        b.send(0, 42).unwrap();
        drop(b);
        assert_eq!(a.recv().unwrap(), (1, 41));
        assert_eq!(a.recv().unwrap(), (1, 42));
        match a.recv() {
            Err(TransportError::Disconnected { peer: None }) => {}
            other => panic!("expected all-gone disconnect, got {other:?}"),
        }
    }

    #[test]
    fn self_sends_work_without_sockets() {
        let eps = TcpTransport::<u64>::fabric(1);
        let a = &eps[0];
        assert_eq!(a.send(0, 9).unwrap(), 8);
        assert_eq!(a.recv().unwrap(), (0, 9));
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
                        ep.send(dst, (ep.rank() * 10 + dst) as u64).unwrap();
                    }
                    let mut got = vec![0u64; 4];
                    for _ in 0..4 {
                        let (src, v) = ep.recv().unwrap();
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
            b.send(0, 7).unwrap();
            b.flush().unwrap();
            panic!("injected crash (expected in this test)");
        });
        assert!(t.join().is_err(), "the injected panic must propagate");
        assert_eq!(a.recv().unwrap(), (1, 7), "queued frames drain before the slam");
        match a.recv() {
            Err(TransportError::Disconnected { peer: Some(1) }) => {}
            other => panic!("expected dirty disconnect from the panicking rank, got {other:?}"),
        }
    }

    // ------------------------------------------------------- rendezvous --

    /// Dial `addr` and send a raw bootstrap hello (test helper).
    fn dial_hello(addr: SocketAddr, fabric: u8, rank: u32, epoch: u32) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("dialing test rendezvous");
        write_hello(&mut s, fabric, rank, epoch, None, 9).expect("writing test hello");
        s
    }

    #[test]
    fn duplicate_hello_is_a_typed_bootstrap_error() {
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        let addr = rv.local_addr();
        let _c1 = dial_hello(addr, FABRIC_P2P, 1, 0);
        let _c2 = dial_hello(addr, FABRIC_P2P, 1, 0);
        let err = rv.collect(FABRIC_P2P, 3).expect_err("two hellos from one rank must fail");
        assert!(matches!(err, TransportError::Bootstrap { .. }), "typed bootstrap error: {err:?}");
        assert!(err.to_string().contains("two hellos from rank 1"), "names the rank: {err}");
    }

    #[test]
    fn out_of_range_rank_hello_is_a_typed_bootstrap_error() {
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FABRIC_P2P, 7, 0);
        let err = rv.collect(FABRIC_P2P, 2).expect_err("rank 7 of 2 must fail the bootstrap");
        assert!(matches!(err, TransportError::Bootstrap { .. }), "typed bootstrap error: {err:?}");
        assert!(err.to_string().contains("out-of-range rank 7"), "names the rank: {err}");
    }

    #[test]
    fn rank_zero_hello_is_a_typed_bootstrap_error() {
        // Rank 0 hosts the rendezvous; a hello claiming rank 0 can only
        // be a misconfigured worker.
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FABRIC_P2P, 0, 0);
        let err = rv.collect(FABRIC_P2P, 2).expect_err("a rank-0 hello must fail the bootstrap");
        assert!(err.to_string().contains("out-of-range rank 0"), "names the rank: {err}");
    }

    #[test]
    fn stale_epoch_hello_is_a_typed_bootstrap_error() {
        // A process from a previous incarnation (concrete epoch 0) dials
        // a rendezvous already recovering at epoch 2: typed error naming
        // both epochs, not a silent wedge.
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        rv.set_epoch(2);
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FABRIC_P2P, 1, 0);
        let err = rv.collect(FABRIC_P2P, 2).expect_err("a stale-epoch hello must fail");
        let msg = err.to_string();
        assert!(msg.contains("epoch 0") && msg.contains("epoch 2"), "names both epochs: {msg}");
    }

    #[test]
    fn wildcard_epoch_hello_adopts_the_rendezvous_epoch() {
        // EPOCH_ANY is how survivors and restarted workers rejoin without
        // knowing how many recoveries rank 0 has counted.
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        rv.set_epoch(5);
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FABRIC_P2P, 1, EPOCH_ANY);
        let peers = rv.collect(FABRIC_P2P, 2).expect("a wildcard hello joins any epoch");
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].0, 1);
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
            let h = s.spawn(move || host.connect_with_collectives::<u64>(CollectiveTopology::Flat));
            let j = s.spawn(move || {
                TcpProcessCluster::join(1, n, &addr)
                    .unwrap()
                    .connect_with_collectives::<u64>(CollectiveTopology::Binomial)
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
                let mut handles =
                    vec![s.spawn(move || host.connect_with_collectives::<Vec<u64>>(topo).unwrap())];
                for rank in 1..n {
                    let addr = addr.clone();
                    handles.push(s.spawn(move || {
                        TcpProcessCluster::join(rank, n, &addr)
                            .unwrap()
                            .connect_with_collectives::<Vec<u64>>(topo)
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
                    // non-self 24-byte payloads.
                    let (coll_bytes, _) = topo.rank_traffic(rank, n);
                    assert_eq!(bytes, 2 * coll_bytes + 2 * 24, "{topo} rank {rank}");
                }
            });
        }
    }
}
