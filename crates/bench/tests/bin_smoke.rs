//! Smoke tests: the reproduction executables run to completion in quick
//! mode, and the `dne-bench` dispatcher is strict about its arguments.
//!
//! The two fastest table artifacts run on every `cargo test`; the full
//! `dne-bench all` sweep takes minutes in debug builds, so it is
//! `#[ignore]`d here and exercised by CI as
//! `cargo test --release -- --ignored`.

use std::process::{Command, Output};

const DNE_BENCH: &str = env!("CARGO_BIN_EXE_dne-bench");

fn run(exe: &str, args: &[&str]) {
    let status = Command::new(exe)
        .args(args)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(status.success(), "{exe} {args:?} exited with {status}");
}

fn output(args: &[&str]) -> Output {
    Command::new(DNE_BENCH).args(args).output().expect("launch dne-bench")
}

/// When `bench_results/<name>.tsv` was last written, if it exists.
fn tsv_stamp(name: &str) -> Option<std::time::SystemTime> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::metadata(dir.join(format!("{name}.tsv"))).and_then(|m| m.modified()).ok()
}

/// `dne-bench <args>` must be refused as a usage error: exit code 2, the
/// usage text on stderr, nothing run (artifacts print their table to
/// stdout before writing it) and `tsv` untouched.
fn assert_usage_error(args: &[&str], tsv: &str) {
    let before = tsv_stamp(tsv);
    let out = output(args);
    assert_eq!(out.status.code(), Some(2), "dne-bench {args:?}: {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: dne-bench"), "{args:?}");
    assert!(out.stdout.is_empty(), "dne-bench {args:?} ran something");
    assert_eq!(tsv_stamp(tsv), before, "dne-bench {args:?} wrote {tsv}.tsv");
}

#[test]
fn unknown_subcommand_mode_or_section_is_a_usage_error() {
    assert_usage_error(&["nope"], "fig8_real");
    // `ful` used to run the quick preset and exit 0.
    assert_usage_error(&["fig8", "ful"], "fig8_real");
    // `weka` used to match no section, run nothing and exit 0.
    assert_usage_error(&["fig10", "quick", "weka"], "fig10_weak");
    assert_usage_error(&["table1", "quick", "real"], "table1_bounds");
    assert_usage_error(&[], "fig8_real");
}

#[test]
fn list_prints_exactly_the_dispatch_table() {
    // The table `all` sweeps: an artifact added to the dispatcher without
    // landing here (and so in the sweep) fails this test.
    let out = output(&["list"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap().lines().collect::<Vec<_>>(),
        ["table1", "fig6", "fig8", "fig9", "fig10", "table4", "table5", "apps", "table6"]
    );
}

#[test]
fn table1_bounds_quick_completes() {
    run(DNE_BENCH, &["table1", "quick"]);
}

#[test]
fn table6_roads_quick_completes() {
    run(DNE_BENCH, &["table6", "quick"]);
}

#[test]
fn tcp_worker_compare_quick_agrees_across_backends() {
    // The multi-process acceptance gate: spawns 4 real worker processes
    // over TCP and exits non-zero unless every non-timing column matches
    // the in-process loopback and bytes runs.
    run(env!("CARGO_BIN_EXE_dne-tcp-worker"), &["quick"]);
}

#[test]
#[ignore = "partitions scale-16 RMAT twice (~minutes in debug); CI runs it in release"]
fn lookup_service_quick_verifies_every_response() {
    // Spawns dne-server, drives 8 concurrent connections of pipelined
    // lookups, and exits non-zero unless every response byte-matches the
    // offline assignment and the fingerprints agree.
    run(env!("CARGO_BIN_EXE_dne-client"), &["quick"]);
}

#[test]
#[ignore = "six kernels over four mid-size graphs (~minutes in debug); CI runs it in release"]
fn app_suite_quick_completes() {
    run(DNE_BENCH, &["apps", "quick"]);
}

#[test]
#[ignore = "runs every artifact and both gates (~minutes in debug); CI runs it in release"]
fn all_quick_completes() {
    run(DNE_BENCH, &["all"]);
}
