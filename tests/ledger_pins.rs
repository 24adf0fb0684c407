//! Exact pins of the deterministic counts, one row per benchmark workload.
//!
//! Each row mirrors one workload of `BENCHMARK.json` at a smaller scale:
//! the same generator family, partition count, transport and storage
//! backend, with every knob set through the builders so that no `DNE_*`
//! variable changes what a row measures. Every field is deterministic, so
//! a pin moves only when the algorithm or the wire format does. A change
//! that predicts a count change edits exactly the fields it predicted; on
//! a mismatch the test prints the whole row as a ready-to-paste literal.

use distributed_ne::core::{DistributedNe, NeConfig};
use distributed_ne::graph::gen::{rmat, road_grid, RmatConfig};
use distributed_ne::graph::hash::mix2;
use distributed_ne::graph::{io, Graph, StorageKind};
use distributed_ne::partition::ShardedAssignmentIndex;
use distributed_ne::runtime::{BatchConfig, CollectiveTopology, TransportKind};

/// Graph and partitioner seed of every row (the benchmark's default seed
/// and its first partitioner sub-seed).
const SEED: u64 = 42;
/// Shards of the served index on the serve row (the `dne-server` default).
const INDEX_SHARDS: usize = 8;

/// The pinned outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pins {
    fingerprint: u64,
    iterations: u64,
    collective_rounds: u64,
    comm_bytes: u64,
    comm_msgs: u64,
    comm_frames: u64,
    peak_memory_bytes: u64,
    /// Fingerprint of the served index, on the serve row only.
    index_fingerprint: Option<u64>,
}

/// One row: its input, its configuration and its pins.
struct Row {
    name: &'static str,
    generate: fn() -> Graph,
    parts: u32,
    transport: TransportKind,
    storage: StorageKind,
    index: bool,
    pins: Pins,
}

const ROWS: [Row; 4] = [
    Row {
        name: "skew_default",
        generate: || rmat(&RmatConfig::web(12, 16, SEED)),
        parts: 8,
        transport: TransportKind::Loopback,
        storage: StorageKind::InMemory,
        index: false,
        pins: Pins {
            fingerprint: 0x143859109dd6d6ff,
            iterations: 54,
            collective_rounds: 56,
            comm_bytes: 320738,
            comm_msgs: 12264,
            comm_frames: 12264,
            peak_memory_bytes: 2132188,
            index_fingerprint: None,
        },
    },
    Row {
        name: "wide_tcp",
        generate: || rmat(&RmatConfig::social(11, 16, SEED)),
        parts: 16,
        transport: TransportKind::Tcp,
        storage: StorageKind::InMemory,
        index: false,
        pins: Pins {
            fingerprint: 0x525406491eb0186f,
            iterations: 27,
            collective_rounds: 28,
            comm_bytes: 581269,
            comm_msgs: 26160,
            comm_frames: 26160,
            peak_memory_bytes: 2157836,
            index_fingerprint: None,
        },
    },
    Row {
        name: "road_streamed",
        generate: || road_grid(60, 60, 0.72, 0.02, SEED),
        parts: 4,
        transport: TransportKind::Bytes,
        storage: StorageKind::ChunkStreamed,
        index: false,
        pins: Pins {
            fingerprint: 0x37c9b57d0b0c8a38,
            iterations: 311,
            collective_rounds: 312,
            comm_bytes: 179710,
            comm_msgs: 14940,
            comm_frames: 14940,
            peak_memory_bytes: 365996,
            index_fingerprint: None,
        },
    },
    Row {
        name: "serve_lookup",
        generate: || rmat(&RmatConfig::graph500(12, 16, SEED)),
        parts: 8,
        transport: TransportKind::Loopback,
        storage: StorageKind::InMemory,
        index: true,
        pins: Pins {
            fingerprint: 0xf3f2ea7487059e44,
            iterations: 41,
            collective_rounds: 43,
            comm_bytes: 385245,
            comm_msgs: 9352,
            comm_frames: 9352,
            peak_memory_bytes: 2802440,
            index_fingerprint: Some(0xf3f2ea7487059e44),
        },
    },
];

/// Run `row` and read off what it pins.
fn measure(row: &Row) -> Pins {
    let generated = (row.generate)();
    let scratch = format!("dne_ledger_pins-{}-{}", row.name, std::process::id());
    let dir = std::env::temp_dir().join(scratch);
    let g = match row.storage {
        StorageKind::InMemory => generated,
        kind => {
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            let path = dir.join("graph.chunks");
            io::write_chunked(&generated, &path, 1 << 12).expect("write graph file");
            io::open_chunked_with(&path, kind).expect("reopen graph file")
        }
    };
    let config = NeConfig::default()
        .with_seed(mix2(SEED, 0))
        .with_transport(row.transport)
        .with_collectives(CollectiveTopology::Flat)
        .with_comm_batch(BatchConfig::disabled());
    let (assignment, stats) = DistributedNe::new(config).partition_with_stats(&g, row.parts);
    let index_fingerprint = row
        .index
        .then(|| ShardedAssignmentIndex::build(&g, &assignment, INDEX_SHARDS).fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
    Pins {
        fingerprint: assignment.fingerprint(),
        iterations: stats.iterations,
        collective_rounds: stats.collective_rounds,
        comm_bytes: stats.comm_bytes,
        comm_msgs: stats.comm_msgs,
        comm_frames: stats.comm_frames,
        peak_memory_bytes: stats.peak_memory_bytes,
        index_fingerprint,
    }
}

/// `pins` as the literal that replaces a row's `pins:` field.
fn literal(p: &Pins) -> String {
    let index = match p.index_fingerprint {
        Some(f) => format!("Some({f:#018x})"),
        None => "None".into(),
    };
    format!(
        "pins: Pins {{\n    fingerprint: {:#018x},\n    iterations: {},\n    collective_rounds: {},\n    \
         comm_bytes: {},\n    comm_msgs: {},\n    comm_frames: {},\n    peak_memory_bytes: {},\n    \
         index_fingerprint: {index},\n}},",
        p.fingerprint,
        p.iterations,
        p.collective_rounds,
        p.comm_bytes,
        p.comm_msgs,
        p.comm_frames,
        p.peak_memory_bytes,
    )
}

fn check(row: &Row) {
    let got = measure(row);
    assert!(
        got == row.pins,
        "{} moved.\npinned: {:?}\nmeasured: {:?}\nready to paste:\n{}",
        row.name,
        row.pins,
        got,
        literal(&got)
    );
}

#[test]
fn skew_default_row_is_pinned() {
    check(&ROWS[0]);
}

#[test]
fn wide_tcp_row_is_pinned() {
    check(&ROWS[1]);
}

#[test]
fn road_streamed_row_is_pinned() {
    check(&ROWS[2]);
}

#[test]
fn serve_lookup_row_is_pinned() {
    check(&ROWS[3]);
}
