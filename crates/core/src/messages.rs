//! Message types exchanged between expansion and allocation processes.
//!
//! One Distributed NE iteration is three lock-step all-to-all rounds
//! (Figure 4 steps 1–6):
//!
//! 1. **Select** — expansion process `p` multicasts its chosen vertices to
//!    the allocators in charge (Algorithm 1 line 8). Allocators not in any
//!    chosen vertex's replica set receive an empty message (the lock-step
//!    exchange still delivers one envelope per link; an empty message
//!    charges only its header).
//! 2. **Sync** — allocators synchronize new vertex-allocation ids with the
//!    replicas of each vertex (Algorithm 2, `SyncVertexAllocations`).
//! 3. **Result** — allocators return the new boundary with local `D_rest`
//!    scores plus the newly allocated edges to the owning expansion
//!    processes (Algorithm 2, `SendNewBoundaryWithLocalDrest` /
//!    `SendNewAllocatedEdges`), piggybacking the free-edge gossip used for
//!    random-restart routing.
//!
//! # Wire format
//!
//! A 1-byte variant tag, then the packed fields (each through its own
//! type's codec — see [`dne_runtime::wire`]). Every `Vec` is a varint
//! length and its elements, whose integers are varints too; the scalar
//! fields are 8-byte little-endian words:
//!
//! | tag | variant | fields | bytes |
//! |---|---|---|---|
//! | 0 | `Select` | `vertices: Vec<u64>`, `random_budget: u64` | 1 + ⌈len⌉ + Σ⌈v⌉ + 8 |
//! | 1 | `Sync` | `pairs: Vec<(u64, u32)>` | 1 + ⌈len⌉ + Σ(⌈v⌉ + ⌈p⌉) |
//! | 2 | `Result` | `boundary: Vec<(u64, u64)>`, `edges: Vec<u64>`, `free_edges: u64` | 1 + ⌈len⌉ + Σ(⌈v⌉ + ⌈d⌉) + ⌈len⌉ + Σ⌈e⌉ + 8 |
//!
//! where `⌈x⌉` is the varint length of `x`: one byte below 2^7, two below
//! 2^14, three below 2^21, up to ten for `u64::MAX`. An empty envelope
//! costs 10 (Select), 2 (Sync) or 11 (Result) bytes.
//!
//! The `wire_enum!` table below is the one statement of that layout: size
//! estimate, encoder and decoder are expanded from it, so the loopback
//! estimate and the bytes-backend actual encoding agree byte-for-byte. The
//! golden test here pins the bytes; the cross-transport property tests in
//! the umbrella crate fuzz the round trip.

use dne_graph::{EdgeId, VertexId};
use dne_runtime::{wire_enum, TransportError};

/// Partition id on the wire (matches `dne_partition::PartitionId`).
pub type Part = u32;

/// One envelope of the Distributed NE protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeMsg {
    /// Expansion → allocator: vertices selected for the sender's partition
    /// this iteration; a non-zero `random_budget` asks the receiving
    /// allocator to expand one random free vertex on the sender's behalf
    /// (boundary exhausted), choosing one whose remaining local degree fits
    /// the sender's remaining capacity.
    Select {
        /// Vertices selected for expansion this iteration.
        vertices: Vec<VertexId>,
        /// Non-zero: capacity budget for the random-vertex fallback.
        random_budget: u64,
    },
    /// Allocator → allocator: `(vertex, partition)` memberships created by
    /// the one-hop phase, destined for the vertex's replicas.
    Sync {
        /// New `(vertex, partition)` membership pairs.
        pairs: Vec<(VertexId, Part)>,
    },
    /// Allocator → expansion: new boundary vertices with their local
    /// `D_rest` contribution, newly allocated edge ids for the receiving
    /// partition, and the sender's free-edge count (gossip).
    Result {
        /// New boundary vertices with their local `D_rest` contribution.
        boundary: Vec<(VertexId, u64)>,
        /// Edge ids newly allocated to the receiving partition.
        edges: Vec<EdgeId>,
        /// The sender's count of still-unallocated local edges (gossip).
        free_edges: u64,
    },
}

wire_enum!(NeMsg {
    0 => Select { vertices, random_budget },
    1 => Sync { pairs },
    2 => Result { boundary, edges, free_edges },
});

impl NeMsg {
    /// An empty Select (no vertices, no random request).
    pub fn empty_select() -> Self {
        NeMsg::Select { vertices: Vec::new(), random_budget: 0 }
    }

    /// An empty Sync.
    pub fn empty_sync() -> Self {
        NeMsg::Sync { pairs: Vec::new() }
    }

    fn kind(&self) -> &'static str {
        match self {
            NeMsg::Select { .. } => "Select",
            NeMsg::Sync { .. } => "Sync",
            NeMsg::Result { .. } => "Result",
        }
    }

    fn unexpected(&self, src: usize, expected: &'static str) -> TransportError {
        TransportError::Protocol { src, expected, got: self.kind() }
    }

    /// The fields of a Select from rank `src`: `(vertices, random_budget)`;
    /// any other kind is a [`TransportError::Protocol`] error.
    pub fn into_select(self, src: usize) -> Result<(Vec<VertexId>, u64), TransportError> {
        match self {
            NeMsg::Select { vertices, random_budget } => Ok((vertices, random_budget)),
            other => Err(other.unexpected(src, "Select")),
        }
    }

    /// The pairs of a Sync from rank `src`; any other kind is a
    /// [`TransportError::Protocol`] error.
    pub fn into_sync(self, src: usize) -> Result<Vec<(VertexId, Part)>, TransportError> {
        match self {
            NeMsg::Sync { pairs } => Ok(pairs),
            other => Err(other.unexpected(src, "Sync")),
        }
    }

    /// The fields of a Result from rank `src`: `(boundary, edges,
    /// free_edges)`; any other kind is a [`TransportError::Protocol`]
    /// error.
    #[allow(clippy::type_complexity)]
    pub fn into_result(
        self,
        src: usize,
    ) -> Result<(Vec<(VertexId, u64)>, Vec<EdgeId>, u64), TransportError> {
        match self {
            NeMsg::Result { boundary, edges, free_edges } => Ok((boundary, edges, free_edges)),
            other => Err(other.unexpected(src, "Result")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_runtime::{WireDecode, WireEncode, WireError, WireSize};

    fn shapes() -> Vec<NeMsg> {
        vec![
            NeMsg::empty_select(),
            NeMsg::Select { vertices: vec![1, 2, u64::MAX], random_budget: 7 },
            NeMsg::empty_sync(),
            NeMsg::Sync { pairs: vec![(1, 0), (2, 1), (3, 2)] },
            NeMsg::Result { boundary: Vec::new(), edges: Vec::new(), free_edges: 0 },
            NeMsg::Result { boundary: vec![(5, 2)], edges: vec![1, 2, 3], free_edges: 9 },
        ]
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        // Ids in sequences are varints: one byte below 2^7, two below 2^14.
        let s0 = NeMsg::empty_select().wire_bytes();
        let s2 = NeMsg::Select { vertices: vec![1, 2], random_budget: 0 }.wire_bytes();
        assert_eq!(s2 - s0, 2);
        let s3 = NeMsg::Select { vertices: vec![1, 2, 1 << 13], random_budget: 0 }.wire_bytes();
        assert_eq!(s3 - s0, 4);
        let y0 = NeMsg::empty_sync().wire_bytes();
        let y3 = NeMsg::Sync { pairs: vec![(1, 0), (2, 1), (3, 2)] }.wire_bytes();
        assert_eq!(y3 - y0, 6);
        let r = NeMsg::Result { boundary: vec![(5, 2)], edges: vec![1, 2, 3], free_edges: 9 };
        assert_eq!(r.wire_bytes(), 1 + (1 + 2) + (1 + 3) + 8);
    }

    #[test]
    fn codec_roundtrips_every_shape_at_exact_size() {
        for msg in shapes() {
            let bytes = msg.to_wire();
            assert_eq!(bytes.len(), msg.wire_bytes(), "estimate != actual for {msg:?}");
            assert_eq!(NeMsg::from_wire(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn frame_payload_bytes_are_pinned() {
        // One payload per shape, written out by hand from the format table
        // above: a round trip cannot see a change the encoder and decoder
        // share. Lengths and ids are varints (`u64::MAX` is ten bytes); the
        // scalars `random_budget` and `free_edges` are 8-byte words.
        let golden: [&[u8]; 6] = [
            b"\0\0\0\0\0\0\0\0\0\0",
            b"\0\x03\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x07\0\0\0\0\0\0\0",
            b"\x01\0",
            b"\x01\x03\x01\0\x02\x01\x03\x02",
            b"\x02\0\0\0\0\0\0\0\0\0\0",
            b"\x02\x01\x05\x02\x03\x01\x02\x03\x09\0\0\0\0\0\0\0",
        ];
        for (msg, bytes) in shapes().into_iter().zip(golden) {
            assert_eq!(msg.to_wire(), bytes, "layout of {msg:?} moved");
            assert_eq!(NeMsg::from_wire(bytes).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        for msg in shapes() {
            let bytes = msg.to_wire();
            for cut in 0..bytes.len() {
                assert!(
                    NeMsg::from_wire(&bytes[..cut]).is_err(),
                    "{cut}-byte prefix of {msg:?} must fail"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        assert_eq!(NeMsg::from_wire(&[9]), Err(WireError::BadTag { tag: 9 }));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Decoding `bytes` either fails with a typed error or yields a
        /// value that re-encodes to exactly `bytes`: every value has one
        /// encoding, so no two byte strings mean the same message.
        fn canonical_or_error<T: WireDecode + WireEncode>(bytes: &[u8]) {
            if let Ok(v) = T::from_wire(bytes) {
                assert_eq!(v.to_wire(), bytes, "a decoded value re-encodes differently");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_bytes_decode_canonically_or_fail(
                head in 0u16..4,
                body in prop::collection::vec(0u16..256, 0..48),
            ) {
                // A small first byte is a valid tag and a short length.
                let bytes: Vec<u8> =
                    std::iter::once(head).chain(body).map(|b| b as u8).collect();
                canonical_or_error::<NeMsg>(&bytes);
                canonical_or_error::<Vec<(u64, u32)>>(&bytes);
            }

            #[test]
            fn corrupted_messages_decode_canonically_or_fail(
                kind in 0u8..3,
                ids in prop::collection::vec(0u64..1 << 21, 0..8),
                parts in prop::collection::vec(0u32..1 << 8, 0..8),
                flips in prop::collection::vec((0usize..256, 0u16..256), 1..4),
            ) {
                let pairs: Vec<(u64, u32)> = ids.iter().copied().zip(parts).collect();
                let msg = match kind {
                    0 => NeMsg::Select { vertices: ids.clone(), random_budget: ids.len() as u64 },
                    1 => NeMsg::Sync { pairs: pairs.clone() },
                    _ => NeMsg::Result {
                        boundary: pairs.iter().map(|&(v, p)| (v, u64::from(p))).collect(),
                        edges: ids,
                        free_edges: 3,
                    },
                };
                let (mut msg_bytes, mut pair_bytes) = (msg.to_wire(), pairs.to_wire());
                for &(at, byte) in &flips {
                    for bytes in [&mut msg_bytes, &mut pair_bytes] {
                        let at = at % bytes.len();
                        bytes[at] = byte as u8;
                    }
                }
                canonical_or_error::<NeMsg>(&msg_bytes);
                canonical_or_error::<Vec<(u64, u32)>>(&pair_bytes);
            }
        }
    }
}
