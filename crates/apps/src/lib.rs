#![deny(missing_docs)]
//! # dne-apps — distributed graph applications over edge partitions
//!
//! Reproduces the paper's §7.6 evaluation — the effect of partitioning
//! quality on distributed graph applications — and extends it into an
//! LDBC-Graphalytics-style six-kernel suite. The paper runs SSSP, WCC and
//! PageRank on PowerLyra (a PowerGraph fork) over 64 machines; here six
//! applications run on an in-repo **vertex-cut engine**
//! ([`engine::Engine`]) with the master–mirror synchronization scheme that
//! vertex-cut systems share:
//!
//! * every partition holds the edges assigned to it plus replicas of their
//!   endpoint vertices;
//! * one replica per vertex is the **master**; the others are mirrors;
//! * a superstep gathers partial accumulators locally, ships
//!   mirror→master partials, applies the vertex program at the master, and
//!   ships master→mirror value updates.
//!
//! The causal chain the paper demonstrates — lower replication factor ⇒
//! fewer mirror messages ⇒ less communication ⇒ faster supersteps — is
//! structural in this engine: both sync rounds move exactly one message per
//! (replica, superstep) pair with live updates, and the adjacency kernels
//! ship one neighbor-list copy per replica.
//!
//! The kernel roster ([`apps`]): **BFS** and **SSSP** (light
//! communication), **WCC** (medium), **PageRank** (heavy,
//! all-vertices-active) as f64 vertex programs, plus **triangle counting**
//! and **LCC** as exact-arithmetic adjacency-exchange kernels — each with
//! a sequential reference implementation. [`verify`] names the roster as
//! data ([`Kernel`]), states each kernel's tolerance contract
//! (bit-identical where exact, an asserted ULP bound where
//! floating-point), and checks distributed runs against the references —
//! the machinery behind the `app_suite` integration tests and the
//! `dne-bench apps` subcommand.
//!
//! ## Quick start
//!
//! ```
//! use dne_apps::{wcc_reference, Engine};
//! use dne_graph::gen;
//! use dne_partition::hash_based::RandomPartitioner;
//! use dne_partition::EdgePartitioner;
//!
//! let g = gen::ring_complete(5);
//! let assignment = RandomPartitioner::new(1).partition(&g, 4);
//! let run = Engine::new(&g, &assignment).wcc();
//! // Partitioning changes performance, never answers.
//! assert_eq!(run.values, wcc_reference(&g));
//!
//! // Or drive the whole verified suite through the roster:
//! use dne_apps::verify::{verify_kernel, Kernel};
//! let engine = Engine::new(&g, &assignment);
//! for kernel in Kernel::suite() {
//!     verify_kernel(kernel, &engine, &g).expect("kernel must match its reference");
//! }
//! ```

pub mod apps;
pub mod engine;
pub mod verify;

pub use apps::{
    bfs_reference, lcc_reference, pagerank_reference, sssp_reference, triangle_total,
    triangles_reference, wcc_reference,
};
pub use engine::{AdjMsg, AppMsg, AppRun, Engine, RankRun, TriangleRankRun};
pub use verify::{ulp_distance, CheckReport, Kernel, Tolerance};
