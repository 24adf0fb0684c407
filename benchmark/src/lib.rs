//! # dne-benchmark — the repository's one pinned, time-boxed benchmark
//!
//! `README.md` beside this crate is the glossary: every workload, every
//! metric name, which layer should move which end-to-end number, and why
//! timings are CPU seconds of a process pinned to one core. The binary
//! (`src/main.rs`) is the only entry point; this library exists so that
//! `tests/` can reach the helpers.

#![deny(missing_docs)]

pub mod compare;
pub mod json;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
