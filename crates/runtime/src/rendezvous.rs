//! Bootstrap of the TCP socket fabric: the rendezvous protocol that turns
//! `P` processes (or threads) that know one address into a full mesh of
//! connected `TcpStream`s, once per bootstrap **epoch**. Everything here
//! runs before the first data frame; the steady state — the endpoint, its
//! io loop and [`TcpProcessCluster`](crate::tcp::TcpProcessCluster) — is
//! [`crate::tcp`], which re-exports this module's public names.
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
//! the same [`TcpProcessCluster`](crate::tcp::TcpProcessCluster) objects
//! can re-bootstrap a fresh mesh under the next epoch via
//! [`connect_epoch`](crate::tcp::TcpProcessCluster::connect_epoch): rank 0's
//! rendezvous listener persists across epochs (its address stays valid),
//! survivors and restarted workers re-dial it with the [`EPOCH_ANY`]
//! wildcard and learn the agreed epoch from the roster. A hello carrying
//! a concrete epoch that disagrees with the rendezvous's current epoch is
//! a typed [`TransportError::Bootstrap`] naming both epochs (a process
//! from a previous incarnation is talking to this rendezvous); a stale
//! mesh-listener connect is silently dropped and the accept loop
//! continues, so a zombie cannot poison a recovery bootstrap. Rank 0
//! owns the epoch counter, so rank 0's death is unrecoverable by design.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::collectives::CollectiveTopology;
use crate::stats::CommStats;
use crate::tcp::TcpTransport;
use crate::transport::{BatchConfig, TransportError};
use crate::wire::{WireDecode, WireEncode};

/// Handshake magic ("DNE1") opening every bootstrap message.
const MAGIC: u32 = 0x444E_4531;

/// How long any single bootstrap step (dial, hello, roster, accept) may
/// take before the bootstrap fails with a typed error.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(60);

/// Fabric id of the point-to-point mesh in a cluster session.
pub(crate) const FABRIC_P2P: u8 = 0;

/// First fabric id of the collectives meshes: the collective topology is
/// baked into the fabric id (`FABRIC_COLL_BASE + topology index`), so a
/// cluster whose processes disagree on `DNE_COLLECTIVES` fails the
/// bootstrap with a typed error naming the disagreement instead of
/// deadlocking at the first barrier.
const FABRIC_COLL_BASE: u8 = 1;

/// The collectives-mesh fabric id of `topology`.
pub(crate) fn coll_fabric(topology: CollectiveTopology) -> u8 {
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

pub(crate) fn io_err(context: impl Into<String>, error: io::Error) -> TransportError {
    TransportError::Io { context: context.into(), error }
}

pub(crate) fn bootstrap_err(detail: impl Into<String>) -> TransportError {
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
pub(crate) fn host_endpoint<M>(
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
fn dial_with_retry(addr: SocketAddr) -> Result<TcpStream, TransportError> {
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
pub(crate) fn connect_endpoint<M>(
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
    let mut rendezvous = dial_with_retry(addr)?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
