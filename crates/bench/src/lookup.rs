//! The assignment-lookup protocol: what `dne-server` serves and
//! `dne-client` speaks.
//!
//! A deliberately small, prefix-free request vocabulary over the
//! workspace wire codec (1-byte variant tag + the fields' own codecs,
//! exactly like `dne-core`'s `NeMsg`), carried by the runtime's
//! request/response service layer ([`dne_runtime::WireServer`] /
//! [`dne_runtime::WireClient`]). Floating-point stats travel as IEEE-754
//! bit patterns (`f64::to_bits`) so responses are byte-exact and the
//! codec stays integer-only.
//!
//! | tag | request | response |
//! |---|---|---|
//! | 0 | `LookupEdge { u: u64, v: u64 }` | `Owner { owner: Option<(u64, u32)> }` |
//! | 1 | `ReplicaSet { v: u64 }` | `Replicas { parts: Vec<u32> }` |
//! | 2 | `PartStats { part: u32 }` | `PartStats { counts: Option<(u64, u64)>, rf_bits: u64, eb_bits: u64 }` |
//! | 3 | `Fingerprint` | `Fingerprint { fingerprint: u64, num_partitions: u32, num_edges: u64 }` |
//! | 4 | `Shutdown` | `ShuttingDown` |
//!
//! Each enum's `wire_enum!` table is the one statement of its row order
//! (a response carries its request's tag); the golden test pins the bytes.
//!
//! [`AssignmentService`] adapts a [`ShardedAssignmentIndex`] to the
//! [`Service`] trait: every request is answered from the sharded maps;
//! `Shutdown` answers and then stops the server (the CI smoke and the
//! benchmark harness use it for deterministic teardown).

use std::io::Write;

use dne_graph::EdgeId;
use dne_partition::{parse_shards, PartitionId, ShardedAssignmentIndex};
use dne_runtime::{env_knob, wire_enum, Service, ServiceReply};

/// Environment variable consulted by [`conns_from_env`]: how many
/// concurrent connections `dne-client` drives.
pub const CLIENT_CONNS_ENV: &str = "DNE_CLIENT_CONNS";

/// What a valid connection count looks like — quoted by parse errors.
const CONNS_FORMS: &str = "a positive connection count like 8";

/// Parse a client concurrency level: a positive integer.
pub fn parse_conns(s: &str) -> Result<usize, String> {
    let n: usize = s.trim().parse().map_err(|e| format!("{e} (expected {CONNS_FORMS})"))?;
    if n == 0 {
        return Err(format!("0 connections cannot drive load (expected {CONNS_FORMS})"));
    }
    Ok(n)
}

/// Read the client concurrency from `DNE_CLIENT_CONNS`. Unset or empty
/// means 8 (the acceptance floor of the service benchmark).
///
/// # Panics
/// Panics on a value that is not a positive integer (or not Unicode),
/// naming the valid form.
pub fn conns_from_env() -> usize {
    env_knob(CLIENT_CONNS_ENV, CONNS_FORMS, || 8, parse_conns)
}

/// Environment variable consulted by [`shards_from_env`]: how many hash
/// shards `dne-server` (and `dne-client`'s offline reference) index into.
pub const SERVER_SHARDS_ENV: &str = "DNE_SERVER_SHARDS";

/// Read the index shard count from `DNE_SERVER_SHARDS`. Unset or empty
/// means 8.
///
/// # Panics
/// Panics on a value that is not a positive power of two (or not
/// Unicode), naming the valid form — a typo like `DNE_SERVER_SHARDS=12`
/// must fail loudly, not silently serve from a default.
pub fn shards_from_env() -> usize {
    env_knob(SERVER_SHARDS_ENV, "a power-of-two shard count like 8", || 8, parse_shards)
}

/// Stdout marker carrying `dne-server`'s bound address — deliberately
/// spelled like the variable that sets it.
pub const ADDR_TAG: &str = dne_runtime::SERVER_ADDR_ENV;

/// Stdout marker carrying the served assignment's fingerprint.
pub const FPRINT_TAG: &str = "DNE_SERVER_FPRINT";

/// Print the two startup markers a launcher scrapes off `dne-server`'s
/// stdout, address first.
pub fn announce(addr: std::net::SocketAddr, fingerprint: u64) {
    println!("{ADDR_TAG} {addr}");
    println!("{FPRINT_TAG} {fingerprint:016x}");
    std::io::stdout().flush().ok();
}

/// One lookup request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupRequest {
    /// Which partition owns edge `{u, v}`? Endpoint order is irrelevant.
    LookupEdge {
        /// One endpoint.
        u: u64,
        /// The other endpoint.
        v: u64,
    },
    /// The replication set of vertex `v`.
    ReplicaSet {
        /// The vertex.
        v: u64,
    },
    /// Size and balance stats of one partition.
    PartStats {
        /// The partition.
        part: PartitionId,
    },
    /// The assignment fingerprint and global shape.
    Fingerprint,
    /// Answer, then stop serving (graceful teardown).
    Shutdown,
}

wire_enum!(LookupRequest {
    0 => LookupEdge { u, v },
    1 => ReplicaSet { v },
    2 => PartStats { part },
    3 => Fingerprint,
    4 => Shutdown,
});

/// The server's answer to one [`LookupRequest`] (variants correspond
/// one-to-one, which the client checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResponse {
    /// Owner of the requested edge: `(edge id, partition)`, or `None`
    /// when the graph has no such edge. Multi-edges answer with their
    /// lowest edge id.
    Owner {
        /// The owning `(edge id, partition)`, if the edge exists.
        owner: Option<(EdgeId, PartitionId)>,
    },
    /// The replication set of the requested vertex, ascending (empty for
    /// vertices no edge touches).
    Replicas {
        /// Partitions whose edge set touches the vertex.
        parts: Vec<PartitionId>,
    },
    /// Per-partition stats plus the global quality numbers.
    PartStats {
        /// `(|E_p|, |V(E_p)|)` — `None` when the partition is out of
        /// range.
        counts: Option<(u64, u64)>,
        /// Replication factor, as `f64::to_bits` (byte-exact).
        rf_bits: u64,
        /// Edge balance, as `f64::to_bits`.
        eb_bits: u64,
    },
    /// Fingerprint and shape of the served assignment.
    Fingerprint {
        /// [`dne_partition::EdgeAssignment::fingerprint`] of the served
        /// assignment.
        fingerprint: u64,
        /// Number of partitions `|P|`.
        num_partitions: PartitionId,
        /// Number of indexed edges.
        num_edges: u64,
    },
    /// Acknowledgement of a `Shutdown` request.
    ShuttingDown,
}

wire_enum!(LookupResponse {
    0 => Owner { owner },
    1 => Replicas { parts },
    2 => PartStats { counts, rf_bits, eb_bits },
    3 => Fingerprint { fingerprint, num_partitions, num_edges },
    4 => ShuttingDown,
});

/// A [`ShardedAssignmentIndex`] behind the [`Service`] trait — what
/// `dne-server` plugs into the runtime's [`dne_runtime::WireServer`].
pub struct AssignmentService {
    index: ShardedAssignmentIndex,
}

impl AssignmentService {
    /// Serve lookups from `index`.
    pub fn new(index: ShardedAssignmentIndex) -> Self {
        Self { index }
    }

    /// The served index (the server prints its fingerprint at startup).
    pub fn index(&self) -> &ShardedAssignmentIndex {
        &self.index
    }

    /// The authoritative answer to one request — shared by the live
    /// server and the client's offline verification, so "byte-identical
    /// to the offline answer" is checked against the exact same code.
    pub fn answer(&self, req: &LookupRequest) -> LookupResponse {
        match *req {
            LookupRequest::LookupEdge { u, v } => {
                LookupResponse::Owner { owner: self.index.owner_of(u, v) }
            }
            LookupRequest::ReplicaSet { v } => {
                LookupResponse::Replicas { parts: self.index.replica_set(v).to_vec() }
            }
            LookupRequest::PartStats { part } => LookupResponse::PartStats {
                counts: self.index.edge_count(part).zip(self.index.replica_count(part)),
                rf_bits: self.index.replication_factor().to_bits(),
                eb_bits: self.index.edge_balance().to_bits(),
            },
            LookupRequest::Fingerprint | LookupRequest::Shutdown => LookupResponse::Fingerprint {
                fingerprint: self.index.fingerprint(),
                num_partitions: self.index.num_partitions(),
                num_edges: self.index.num_edges(),
            },
        }
    }
}

impl Service for AssignmentService {
    type Req = LookupRequest;
    type Resp = LookupResponse;

    fn handle(&mut self, req: Self::Req) -> ServiceReply<Self::Resp> {
        match req {
            LookupRequest::Shutdown => {
                ServiceReply::ReplyThenShutdown(LookupResponse::ShuttingDown)
            }
            other => ServiceReply::Reply(self.answer(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_runtime::{WireDecode, WireEncode, WireError, WireSize};

    fn request_shapes() -> Vec<LookupRequest> {
        vec![
            LookupRequest::LookupEdge { u: 0, v: u64::MAX },
            LookupRequest::ReplicaSet { v: 7 },
            LookupRequest::PartStats { part: 3 },
            LookupRequest::Fingerprint,
            LookupRequest::Shutdown,
        ]
    }

    fn response_shapes() -> Vec<LookupResponse> {
        vec![
            LookupResponse::Owner { owner: None },
            LookupResponse::Owner { owner: Some((42, 3)) },
            LookupResponse::Replicas { parts: Vec::new() },
            LookupResponse::Replicas { parts: vec![0, 2, 5] },
            LookupResponse::PartStats { counts: None, rf_bits: 0, eb_bits: 0 },
            LookupResponse::PartStats {
                counts: Some((10, 20)),
                rf_bits: 1.5f64.to_bits(),
                eb_bits: 1.01f64.to_bits(),
            },
            LookupResponse::Fingerprint { fingerprint: 0xdead, num_partitions: 8, num_edges: 99 },
            LookupResponse::ShuttingDown,
        ]
    }

    #[test]
    fn codec_roundtrips_every_shape_at_exact_size() {
        for req in request_shapes() {
            let bytes = req.to_wire();
            assert_eq!(bytes.len(), req.wire_bytes(), "estimate != actual for {req:?}");
            assert_eq!(LookupRequest::from_wire(&bytes).unwrap(), req);
        }
        for resp in response_shapes() {
            let bytes = resp.to_wire();
            assert_eq!(bytes.len(), resp.wire_bytes(), "estimate != actual for {resp:?}");
            assert_eq!(LookupResponse::from_wire(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn message_bytes_are_pinned() {
        // One message per shape, produced by the hand-written encoders these
        // tables replaced (commit 1c6976f), with the `Replicas` rows re-derived
        // by hand for varint sequences (length 3, then partitions 0, 2, 5 in
        // one byte each): a round trip cannot see a change the encoder and
        // decoder share.
        let requests: [&[u8]; 5] = [
            b"\0\0\0\0\0\0\0\0\0\xff\xff\xff\xff\xff\xff\xff\xff",
            b"\x01\x07\0\0\0\0\0\0\0",
            b"\x02\x03\0\0\0",
            b"\x03",
            b"\x04",
        ];
        for (req, bytes) in request_shapes().into_iter().zip(requests) {
            assert_eq!(req.to_wire(), bytes, "layout of {req:?} moved");
            assert_eq!(LookupRequest::from_wire(bytes).unwrap(), req);
        }
        let responses: [&[u8]; 8] = [
            b"\0\0",
            b"\0\x01\x2a\0\0\0\0\0\0\0\x03\0\0\0",
            b"\x01\0",
            b"\x01\x03\0\x02\x05",
            b"\x02\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0",
            b"\x02\x01\x0a\0\0\0\0\0\0\0\x14\0\0\0\0\0\0\0\0\0\0\0\0\0\xf8\x3f\x29\x5c\x8f\xc2\
              \xf5\x28\xf0\x3f",
            b"\x03\xad\xde\0\0\0\0\0\0\x08\0\0\0\x63\0\0\0\0\0\0\0",
            b"\x04",
        ];
        for (resp, bytes) in response_shapes().into_iter().zip(responses) {
            assert_eq!(resp.to_wire(), bytes, "layout of {resp:?} moved");
            assert_eq!(LookupResponse::from_wire(bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_messages_error_not_panic() {
        for req in request_shapes() {
            let bytes = req.to_wire();
            for cut in 0..bytes.len() {
                assert!(LookupRequest::from_wire(&bytes[..cut]).is_err(), "{cut} of {req:?}");
            }
        }
        for resp in response_shapes() {
            let bytes = resp.to_wire();
            for cut in 0..bytes.len() {
                assert!(LookupResponse::from_wire(&bytes[..cut]).is_err(), "{cut} of {resp:?}");
            }
        }
    }

    #[test]
    fn unknown_tags_are_errors() {
        assert_eq!(LookupRequest::from_wire(&[9]), Err(WireError::BadTag { tag: 9 }));
        assert_eq!(LookupResponse::from_wire(&[200]), Err(WireError::BadTag { tag: 200 }));
    }

    #[test]
    fn conn_parsing_is_strict() {
        assert_eq!(parse_conns("8"), Ok(8));
        assert_eq!(parse_conns(" 1 "), Ok(1));
        assert!(parse_conns("0").unwrap_err().contains("positive"));
        assert!(parse_conns("many").unwrap_err().contains("positive"));
    }

    #[test]
    fn service_answers_and_shuts_down() {
        use dne_partition::EdgeAssignment;
        let g = dne_graph::gen::path(4);
        let a = EdgeAssignment::new(vec![0, 1, 0], 2);
        let idx = ShardedAssignmentIndex::build(&g, &a, 2);
        let mut svc = AssignmentService::new(idx);
        match svc.handle(LookupRequest::LookupEdge { u: 1, v: 0 }) {
            ServiceReply::Reply(LookupResponse::Owner { owner: Some((0, 0)) }) => {}
            other => panic!("unexpected reply {other:?}"),
        }
        match svc.handle(LookupRequest::Shutdown) {
            ServiceReply::ReplyThenShutdown(LookupResponse::ShuttingDown) => {}
            other => panic!("shutdown must reply-then-stop, got {other:?}"),
        }
    }
}
