#![deny(missing_docs)]
//! # dne-bench — benchmark harness for the Distributed NE reproduction
//!
//! Four executables. `dne-bench <subcommand> [quick|full] [section…]`
//! reproduces the paper's evaluation (§7), one subcommand per artifact:
//!
//! | Subcommand | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — theoretical bounds on power-law graphs |
//! | `fig6` | Figure 6 — iterations & RF vs expansion factor λ |
//! | `fig8` | Figure 8(a–j) — replication factor across methods |
//! | `fig9` | Figure 9 — memory consumption (mem score) |
//! | `fig10` | Figure 10(a–j) — elapsed time & trillion-edge weak scaling (sections `real` `ef` `scale` `weak`) |
//! | `table4` | Table 4 — vs sequential HDRF/NE/SNE |
//! | `table5` | Table 5 — SSSP/WCC/PageRank over partitions |
//! | `apps` | Graphalytics-style six-kernel application suite |
//! | `table6` | Table 6 — non-skewed road networks |
//! | `all` | every artifact above (one child process each), then the two multi-process gates |
//! | `list` | the artifact names `all` sweeps |
//! | `oocore prepare\|run …` | out-of-core storage demo: partition under `ulimit -v` |
//!
//! `quick` (the default) takes seconds to a minute per artifact; `full`
//! uses larger stand-ins and more configurations and can take tens of
//! minutes. An unknown subcommand, mode or section is a usage error (exit
//! code 2), never a silent fallback. TSVs land in `bench_results/`.
//!
//! The three deployment executables keep their own names: `dne-tcp-worker`
//! (Distributed NE across real OS processes over TCP; `compare` is the
//! multi-process acceptance gate, `recover` the kill-and-rejoin drill),
//! `dne-server` and `dne-client` (the assignment-lookup service and its
//! verifying load generator).
//!
//! The library hosts what they share: the [`datasets`] registry (scaled
//! stand-ins for the paper's real-world graphs — its module doc makes the
//! substitution argument), the partitioner rosters ([`suite`]), table/TSV
//! output ([`table`]), the command-line preamble ([`harness`]), the
//! process-fleet launcher ([`fleet`]) and the lookup protocol ([`lookup`]).
//!
//! ## Quick start
//!
//! ```
//! use dne_bench::{suite, DATASETS};
//!
//! // The seven Table 2 stand-ins, in the paper's figure order.
//! assert_eq!(DATASETS.len(), 7);
//! assert_eq!(DATASETS[0].name, "Pokec");
//!
//! // The Figure 8 roster: nine distributed methods, ready to partition.
//! let roster = suite::figure8_roster(42);
//! assert_eq!(roster.len(), 9);
//! ```

pub mod datasets;
pub mod fleet;
pub mod harness;
pub mod lookup;
pub mod suite;
pub mod table;

pub use datasets::{Dataset, DATASETS};
