//! Bootstrap of the TCP socket fabric: the rendezvous protocol that turns
//! `P` processes (or threads) that know one address into a full mesh of
//! connected `TcpStream`s — the one mesh of a cluster session, which
//! carries application messages and collective blocks alike — once per
//! bootstrap **epoch**. Everything here
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
//!    advertising where its mesh listener can be dialed; an unspecified
//!    ip kind asks rank 0 to substitute the address it observed on the
//!    rendezvous connection.
//! 2. **Roster** — once all `P − 1` hellos arrived, rank 0 answers each
//!    peer with the roster mapping every nonzero rank to its mesh
//!    listener's full socket address — real peer IPs, not an assumed
//!    localhost. The rendezvous connection itself becomes the `0 ↔ r`
//!    mesh link.
//! 3. **Mesh** — each rank `i > 0` dials the roster addresses of ranks
//!    `1..i` (sending a hello so the acceptor learns who called) and
//!    accepts one connection from each rank `i+1..P`.
//!
//! The hello's `fabric` byte names the session's collective topology
//! (`FABRIC_BASE` + its index in [`CollectiveTopology::ALL`]), so
//! processes that resolved different `DNE_COLLECTIVES` values fail the
//! bootstrap with a typed error naming the disagreement — at the
//! rendezvous or at a mesh listener — instead of deadlocking at the first
//! barrier. The ids start past 0–3, the point-to-point and collectives
//! meshes of the earlier two-mesh protocol, so a binary still speaking it
//! fails the bootstrap with a typed error too, instead of wedging. Every
//! bootstrap step carries a deadline — a peer that never shows up is a
//! [`TransportError::Bootstrap`], not a hang.
//!
//! # Records
//!
//! Three fixed-size records, little-endian, each declared once below as a
//! struct with a [`wire_struct!`](crate::wire_struct) table and read off
//! the stream by `read_record`, which takes the length from the table:
//!
//! | record | bytes | layout |
//! |---|---|---|
//! | endpoint | 19 | `[u8 ip kind][16 B ip][u16 port]` — kind 0 unspecified, 4 IPv4 (first 4 ip bytes), 6 IPv6 |
//! | hello | 32 | `[u32 magic][u8 fabric][u32 rank][u32 epoch][endpoint]` |
//! | roster | 12 + 19 (P − 1) | `[u32 magic][u32 nprocs][u32 epoch][endpoint × (P − 1)]`, ranks `1..P` in order |
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
use crate::wire::{WireDecode, WireEncode, WireSize};

/// Handshake magic ("DNE1") opening every bootstrap message.
const MAGIC: u32 = 0x444E_4531;

/// How long any single bootstrap step (dial, hello, roster, accept) may
/// take before the bootstrap fails with a typed error.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(60);

/// First fabric id of a session: ids 0–3 named the point-to-point and
/// collectives meshes of the two-mesh protocol and are never reused.
const FABRIC_BASE: u8 = 4;

/// The fabric id of a session whose collectives run `topology`.
pub(crate) fn fabric_id(topology: CollectiveTopology) -> u8 {
    let idx = CollectiveTopology::ALL.iter().position(|t| *t == topology).expect("topology in ALL");
    FABRIC_BASE + idx as u8
}

/// Refuse a hello for a fabric other than `ours`: another topology means
/// the cluster's processes resolved different `DNE_COLLECTIVES` values;
/// any other id, a peer speaking another bootstrap protocol.
fn check_fabric(theirs: u8, ours: u8) -> Result<(), TransportError> {
    let topology = |id: u8| CollectiveTopology::ALL.get(usize::from(id.wrapping_sub(FABRIC_BASE)));
    match (theirs == ours, topology(theirs), topology(ours)) {
        (true, ..) => Ok(()),
        (false, Some(t), Some(o)) => Err(bootstrap_err(format!(
            "a peer bootstrapped a {t}-collectives session while this process expects {o} — \
             the cluster's processes disagree on the collective topology \
             (check DNE_COLLECTIVES in every process's environment)"
        ))),
        _ => Err(bootstrap_err(format!(
            "a peer sent a hello for fabric {theirs}, which is not a session of this \
             bootstrap protocol (ids 0-3 are the two-mesh protocol's: is an older \
             binary in the cluster?)"
        ))),
    }
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

/// Where a mesh listener can be dialed: `[u8 ip kind][16 B ip][u16 port]`,
/// the tail of a hello and the entry of a roster.
struct Endpoint {
    kind: u8,
    ip: [u8; 16],
    port: u16,
}

crate::wire_struct!(Endpoint { kind, ip, port });

impl Endpoint {
    /// An endpoint advertising `ip` (`None`: let the rendezvous substitute
    /// the source address it observes) and `port`.
    fn new(ip: Option<IpAddr>, port: u16) -> Self {
        let mut bytes = [0u8; 16];
        let kind = match ip {
            None => IPKIND_UNSPECIFIED,
            Some(IpAddr::V4(v4)) => {
                bytes[..4].copy_from_slice(&v4.octets());
                IPKIND_V4
            }
            Some(IpAddr::V6(v6)) => {
                bytes = v6.octets();
                IPKIND_V6
            }
        };
        Self { kind, ip: bytes, port }
    }

    /// The advertised IP, if any.
    fn ip(&self) -> Result<Option<IpAddr>, TransportError> {
        let [a, b, c, d, ..] = self.ip;
        match self.kind {
            IPKIND_UNSPECIFIED => Ok(None),
            IPKIND_V4 => Ok(Some(IpAddr::V4(Ipv4Addr::new(a, b, c, d)))),
            IPKIND_V6 => Ok(Some(IpAddr::V6(Ipv6Addr::from(self.ip)))),
            k => Err(bootstrap_err(format!("bad address kind {k} in bootstrap message"))),
        }
    }
}

/// Epoch wildcard in hellos: "whatever epoch the rendezvous is currently
/// bootstrapping". Survivors and restarted workers re-dialing after a
/// failure cannot know how many recoveries rank 0 has already counted, so
/// they send the wildcard and learn the agreed epoch from the roster.
pub const EPOCH_ANY: u32 = u32::MAX;

/// What a dialer says first on any bootstrap connection (32 bytes).
///
/// `mesh` is the address this rank *advertises* for its mesh listener; an
/// unspecified IP tells the rendezvous to substitute the source IP it
/// observed on the hello connection itself (the right answer for localhost
/// fleets and for workers behind symmetric routing). The epoch is the
/// bootstrap generation the sender believes it is joining ([`EPOCH_ANY`]
/// defers to the rendezvous).
struct Hello {
    magic: u32,
    fabric: u8,
    rank: u32,
    epoch: u32,
    mesh: Endpoint,
}

crate::wire_struct!(Hello { magic, fabric, rank, epoch, mesh });

/// What opens a roster; `nprocs − 1` [`Endpoint`]s follow, ranks `1..` in
/// order.
struct RosterHead {
    magic: u32,
    nprocs: u32,
    epoch: u32,
}

crate::wire_struct!(RosterHead { magic, nprocs, epoch });

/// Read one fixed-size bootstrap record off `s`: the record's table says
/// how many bytes to wait for.
fn read_record<T: WireDecode + WireSize>(
    s: &mut impl Read,
    what: &str,
) -> Result<T, TransportError> {
    let mut buf = vec![0u8; T::FIXED_WIRE_BYTES.expect("bootstrap records are fixed-size")];
    s.read_exact(&mut buf).map_err(|e| io_err(format!("reading bootstrap {what}"), e))?;
    T::from_wire(&buf).map_err(|e| bootstrap_err(format!("malformed bootstrap {what}: {e}")))
}

fn write_hello(
    s: &mut impl Write,
    fabric: u8,
    rank: u32,
    epoch: u32,
    ip: Option<IpAddr>,
    port: u16,
) -> io::Result<()> {
    s.write_all(
        &Hello { magic: MAGIC, fabric, rank, epoch, mesh: Endpoint::new(ip, port) }.to_wire(),
    )
}

fn read_hello(s: &mut impl Read) -> Result<Hello, TransportError> {
    let hello: Hello = read_record(s, "hello")?;
    if hello.magic != MAGIC {
        return Err(bootstrap_err(format!(
            "bad hello magic {:#010x} (expected {MAGIC:#010x}) — \
             is something else talking to the rendezvous port?",
            hello.magic
        )));
    }
    hello.mesh.ip()?; // a bad address kind is rejected where it enters
    Ok(hello)
}

fn write_roster(
    s: &mut impl Write,
    nprocs: usize,
    epoch: u32,
    addrs: &[SocketAddr],
) -> io::Result<()> {
    let mut buf = RosterHead { magic: MAGIC, nprocs: nprocs as u32, epoch }.to_wire();
    for a in addrs {
        Endpoint::new(Some(a.ip()), a.port()).encode(&mut buf);
    }
    s.write_all(&buf)
}

fn read_roster(s: &mut impl Read, nprocs: usize) -> Result<(u32, Vec<SocketAddr>), TransportError> {
    let head: RosterHead = read_record(s, "roster")?;
    if head.magic != MAGIC {
        return Err(bootstrap_err(format!("bad roster magic {:#010x}", head.magic)));
    }
    if head.nprocs as usize != nprocs {
        return Err(bootstrap_err(format!(
            "cluster size disagreement: rendezvous says {} processes, this rank expects {nprocs}",
            head.nprocs
        )));
    }
    let addrs = (1..nprocs)
        .map(|_| {
            let entry: Endpoint = read_record(s, "roster entries")?;
            let ip = entry
                .ip()?
                .ok_or_else(|| bootstrap_err("roster entry with unspecified address"))?;
            Ok(SocketAddr::new(ip, entry.port))
        })
        .collect::<Result<Vec<_>, TransportError>>()?;
    Ok((head.epoch, addrs))
}

/// Accept one connection on the non-blocking `listener` before `deadline`
/// and read its hello (itself under the bootstrap timeout); the stream
/// comes back blocking with no read timeout. `what` names the listener in
/// io errors; `late` words the error for a peer that never dialed.
fn accept_hello(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
    late: impl FnOnce() -> String,
) -> Result<(Hello, TcpStream), TransportError> {
    let configuring = |e| io_err(format!("configuring {what} connection"), e);
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_read_timeout(Some(BOOTSTRAP_TIMEOUT)))
                    .map_err(configuring)?;
                let hello = read_hello(&mut stream)?;
                stream.set_read_timeout(None).map_err(configuring)?;
                return Ok((hello, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(bootstrap_err(late()));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(io_err(format!("accepting {what} connection"), e)),
        }
    }
}

/// The rendezvous point of a TCP fabric: rank 0's listener, which peers
/// dial to exchange rank handshakes before the mesh is built — one fabric
/// per epoch.
pub struct TcpRendezvous {
    listener: TcpListener,
    addr: SocketAddr,
    /// The bootstrap generation this rendezvous is currently serving.
    /// Hellos carrying a different concrete epoch are rejected with a
    /// typed error; [`EPOCH_ANY`] hellos adopt this epoch via the roster.
    epoch: u32,
}

impl TcpRendezvous {
    /// Bind the rendezvous listener (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port, or a fixed `host:port` peers were told to dial).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // Every accept on this listener is an `accept_hello` under a deadline.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr, epoch: 0 })
    }

    /// The bound address peers must dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Move this rendezvous to a new bootstrap generation (a recovery
    /// bootstrap after a rank died).
    ///
    /// # Panics
    /// Panics when `epoch` is the [`EPOCH_ANY`] wildcard — the rendezvous
    /// owns the authoritative counter and must serve a concrete epoch.
    pub fn set_epoch(&mut self, epoch: u32) {
        assert!(epoch != EPOCH_ANY, "the rendezvous must serve a concrete epoch");
        self.epoch = epoch;
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
        let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
        for remaining in (1..nprocs).rev() {
            let (hello, stream) = accept_hello(&self.listener, deadline, "rendezvous", || {
                format!(
                    "timed out waiting for {remaining} of {} peers to dial the rendezvous at {}",
                    nprocs - 1,
                    self.addr
                )
            })?;
            let Hello { fabric: f, rank, epoch, mesh, .. } = hello;
            check_fabric(f, fabric)?;
            if epoch != EPOCH_ANY && epoch != self.epoch {
                return Err(bootstrap_err(format!(
                    "rank {rank} dialed the rendezvous with epoch {epoch} but the \
                     cluster is bootstrapping epoch {} — a process from a previous \
                     incarnation (or a stale relaunch) is talking to this rendezvous",
                    self.epoch
                )));
            }
            let ip = match mesh.ip()? {
                Some(ip) => ip,
                None => {
                    stream.peer_addr().map_err(|e| io_err("reading hello source address", e))?.ip()
                }
            };
            let slot = slots.get_mut(rank as usize).filter(|_| rank >= 1).ok_or_else(|| {
                bootstrap_err(format!("hello from out-of-range rank {rank} (nprocs {nprocs})"))
            })?;
            if slot.is_some() {
                return Err(bootstrap_err(format!("two hellos from rank {rank}")));
            }
            *slot = Some((SocketAddr::new(ip, mesh.port), stream));
        }
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
        let (hello, s) = accept_hello(&listener, deadline, "mesh", || {
            format!("timed out waiting for higher ranks to dial rank {rank}'s mesh listener")
        })?;
        let Hello { fabric: f, rank: peer, epoch: peer_epoch, .. } = hello;
        if peer_epoch != epoch {
            // A zombie from a previous incarnation dialed a reused port:
            // not this bootstrap's problem — drop it and keep accepting.
            drop(s);
            continue;
        }
        check_fabric(f, fabric)?;
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

    /// The fabric id every test session below bootstraps.
    const FLAT: u8 = FABRIC_BASE;

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
        let _c1 = dial_hello(addr, FLAT, 1, 0);
        let _c2 = dial_hello(addr, FLAT, 1, 0);
        let err = rv.collect(FLAT, 3).expect_err("two hellos from one rank must fail");
        assert!(matches!(err, TransportError::Bootstrap { .. }), "typed bootstrap error: {err:?}");
        assert!(err.to_string().contains("two hellos from rank 1"), "names the rank: {err}");
    }

    #[test]
    fn out_of_range_rank_hello_is_a_typed_bootstrap_error() {
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FLAT, 7, 0);
        let err = rv.collect(FLAT, 2).expect_err("rank 7 of 2 must fail the bootstrap");
        assert!(matches!(err, TransportError::Bootstrap { .. }), "typed bootstrap error: {err:?}");
        assert!(err.to_string().contains("out-of-range rank 7"), "names the rank: {err}");
    }

    #[test]
    fn rank_zero_hello_is_a_typed_bootstrap_error() {
        // Rank 0 hosts the rendezvous; a hello claiming rank 0 can only
        // be a misconfigured worker.
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FLAT, 0, 0);
        let err = rv.collect(FLAT, 2).expect_err("a rank-0 hello must fail the bootstrap");
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
        let _c = dial_hello(addr, FLAT, 1, 0);
        let err = rv.collect(FLAT, 2).expect_err("a stale-epoch hello must fail");
        let msg = err.to_string();
        assert!(msg.contains("epoch 0") && msg.contains("epoch 2"), "names both epochs: {msg}");
    }

    #[test]
    fn two_mesh_era_hello_is_a_typed_bootstrap_error() {
        // Fabric ids 0-3 were the point-to-point and collectives meshes of
        // the two-mesh protocol: a binary still speaking it is refused by
        // name at the rendezvous, not left to wedge the bootstrap.
        assert_eq!(fabric_id(CollectiveTopology::Flat), FLAT);
        for old in 0..FABRIC_BASE {
            let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
            let _c = dial_hello(rv.local_addr(), old, 1, 0);
            let err = rv.collect(FLAT, 2).expect_err("an old-protocol hello must fail");
            assert!(matches!(err, TransportError::Bootstrap { .. }), "typed: {err:?}");
            assert!(err.to_string().contains("two-mesh"), "names the protocol: {err}");
        }
        // Another topology's session id is the DNE_COLLECTIVES disagreement.
        let err = check_fabric(fabric_id(CollectiveTopology::Binomial), FLAT).unwrap_err();
        assert!(err.to_string().contains("DNE_COLLECTIVES"), "{err}");
    }

    #[test]
    fn wildcard_epoch_hello_adopts_the_rendezvous_epoch() {
        // EPOCH_ANY is how survivors and restarted workers rejoin without
        // knowing how many recoveries rank 0 has counted.
        let mut rv = TcpRendezvous::bind("127.0.0.1:0").unwrap();
        rv.set_epoch(5);
        let addr = rv.local_addr();
        let _c = dial_hello(addr, FLAT, 1, EPOCH_ANY);
        let peers = rv.collect(FLAT, 2).expect("a wildcard hello joins any epoch");
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].0, 1);
    }

    #[test]
    fn hello_and_roster_bytes_are_pinned() {
        // Written by the byte-offset encoders these records replaced
        // (`write_hello` / `write_roster` at commit 1c6976f, same
        // arguments): a round trip cannot see a symmetric change.
        let check = |golden: &[u8], fabric, rank, epoch, ip: Option<&str>, port| {
            let ip: Option<IpAddr> = ip.map(|ip| ip.parse().unwrap());
            assert_eq!(golden.len(), 32);
            let mut written = Vec::new();
            write_hello(&mut written, fabric, rank, epoch, ip, port).unwrap();
            assert_eq!(written, golden, "hello layout moved");
            let hello = read_hello(&mut &golden[..]).unwrap();
            assert_eq!((hello.fabric, hello.rank, hello.epoch), (fabric, rank, epoch));
            assert_eq!((hello.mesh.ip().unwrap(), hello.mesh.port), (ip, port));
        };
        // magic, fabric, rank, epoch | kind, 16 ip bytes | port
        check(
            b"\x31\x45\x4e\x44\x02\x03\0\0\0\x07\0\0\0\
              \x04\xc0\xa8\x01\x14\0\0\0\0\0\0\0\0\0\0\0\0\x92\x10",
            2,
            3,
            7,
            Some("192.168.1.20"),
            4242,
        );
        check(
            b"\x31\x45\x4e\x44\0\x01\0\0\0\xff\xff\xff\xff\
              \x06\xfe\x80\0\0\0\0\0\0\0\0\0\0\0\x01\0\x02\xff\xff",
            0,
            1,
            EPOCH_ANY,
            Some("fe80::1:2"),
            65535,
        );
        check(
            b"\x31\x45\x4e\x44\x01\x05\0\0\0\0\0\0\0\
              \0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x09\0",
            1,
            5,
            0,
            None,
            9,
        );
        // magic, nprocs, epoch | rank 1's endpoint | rank 2's endpoint
        let roster: &[u8] = b"\x31\x45\x4e\x44\x03\0\0\0\x04\0\0\0\
              \x04\x7f\0\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\x88\x13\
              \x06\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x01\x70\x17";
        let addrs: Vec<SocketAddr> =
            vec!["127.0.0.1:5000".parse().unwrap(), "[::1]:6000".parse().unwrap()];
        let mut written = Vec::new();
        write_roster(&mut written, 3, 4, &addrs).unwrap();
        assert_eq!(written, roster, "roster layout moved");
        assert_eq!(read_roster(&mut &roster[..], 3).unwrap(), (4, addrs));
    }

    #[test]
    fn malformed_records_are_typed_bootstrap_errors() {
        let mut hello = Vec::new();
        write_hello(&mut hello, FLAT, 1, 0, None, 9).unwrap();
        // A short read is an io error naming the record, never a hang or panic.
        let err = read_hello(&mut &hello[..31]).err().expect("31 of 32 bytes");
        assert!(matches!(err, TransportError::Io { .. }), "{err:?}");
        let mut bad_magic = hello.clone();
        bad_magic[0] ^= 0xFF;
        let err = read_hello(&mut &bad_magic[..]).err().expect("foreign magic");
        assert!(err.to_string().contains("bad hello magic 0x444e45ce"), "{err}");
        let mut bad_kind = hello;
        bad_kind[13] = 5;
        let err = read_hello(&mut &bad_kind[..]).err().expect("kind 5 is neither v4 nor v6");
        assert!(err.to_string().contains("bad address kind 5"), "{err}");
        // Roster: wrong size, and an entry that advertises no address.
        let mut roster = Vec::new();
        write_roster(&mut roster, 2, 0, &["127.0.0.1:1".parse().unwrap()]).unwrap();
        let err = read_roster(&mut &roster[..], 3).unwrap_err();
        assert!(err.to_string().contains("cluster size disagreement"), "{err}");
        roster[12] = IPKIND_UNSPECIFIED;
        let err = read_roster(&mut &roster[..], 2).unwrap_err();
        assert!(err.to_string().contains("unspecified address"), "{err}");
    }

    #[test]
    fn accept_hello_times_out_with_the_callers_words() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let err = accept_hello(&listener, Instant::now(), "test", || "nobody dialed".into())
            .err()
            .expect("no peer ever dials");
        assert!(matches!(&err, TransportError::Bootstrap { detail } if detail == "nobody dialed"));
    }
}
