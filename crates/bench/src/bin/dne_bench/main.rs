//! `dne-bench` — the single entry point of the reproduction suite.
//!
//! ```text
//! dne-bench <artifact> [quick|full] [section…]   # one table or figure
//! dne-bench all [quick|full]                     # every artifact, then the two gates
//! dne-bench list                                 # the artifact names `all` sweeps
//! dne-bench oocore prepare|run <chunked-path> …  # out-of-core demo (see `oocore.rs`)
//! ```
//!
//! [`ARTIFACTS`] is the one dispatch table: it drives dispatch, `list`,
//! the usage text and the `all` sweep, so an artifact cannot be added
//! without being listed and swept. An unknown subcommand, mode or section
//! is a usage error (exit code 2) before anything runs. TSVs land in
//! `bench_results/`.
//!
//! `all` runs every artifact as a child process of this same executable
//! — Figure 9 resets and reads the process-wide peak RSS, and a failed
//! assertion must name its artifact — then the two multi-process
//! acceptance gates: `dne-tcp-worker` (a real multi-process TCP partition
//! whose non-timing TSV columns are asserted identical to the in-process
//! loopback and bytes runs) and `dne-client` (a spawned `dne-server`
//! answering concurrent assignment lookups, every response asserted
//! byte-identical to the offline assignment). The `DNE_*` environment
//! knobs are inherited by every child; partitioning results are identical
//! under all of them.

mod apps;
mod fig10;
mod fig6;
mod fig8;
mod fig9;
mod oocore;
mod table1;
mod table4;
mod table5;
mod table6;

use std::path::Path;
use std::process::{Command, ExitCode};

use dne_bench::harness::{self, Failure, Mode};

/// One reproduced table or figure: subcommand name, paper artifact, the
/// sub-experiments selectable after the mode (none: it always runs whole),
/// and the entry point `(quick, sections)`.
type Artifact = (&'static str, &'static str, &'static [&'static str], fn(bool, &[String]));

/// Every artifact, in `all`'s sweep order.
const ARTIFACTS: [Artifact; 9] = [
    ("table1", "Table 1 — theoretical bounds on power-law graphs", &[], table1::run),
    ("fig6", "Figure 6 — iterations & RF vs expansion factor λ", &[], fig6::run),
    ("fig8", "Figure 8 — replication factor across methods", &[], fig8::run),
    ("fig9", "Figure 9 — memory consumption (mem score)", &[], fig9::run),
    ("fig10", "Figure 10 — elapsed time & weak scaling", fig10::SECTIONS, fig10::run),
    ("table4", "Table 4 — vs sequential HDRF/NE/SNE", &[], table4::run),
    ("table5", "Table 5 — SSSP/WCC/PageRank over partitions", &[], table5::run),
    ("apps", "Graphalytics-style six-kernel application suite", &[], apps::run),
    ("table6", "Table 6 — non-skewed road networks", &[], table6::run),
];

/// The multi-process acceptance gates `all` ends with (sibling
/// executables of this package, each taking the mode as its argument).
const GATES: [&str; 2] = ["dne-tcp-worker", "dne-client"];

fn usage() -> String {
    let mut text = format!(
        "usage: dne-bench <artifact> [quick|full] [section…]\n\
         \x20      dne-bench all [quick|full]\n\
         \x20      dne-bench list\n\
         \x20      dne-bench {}\n\
         \x20      dne-bench {}\n\
         artifacts:",
        oocore::USAGE[0],
        oocore::USAGE[1]
    );
    for (name, paper, sections, _) in ARTIFACTS {
        text.push_str(&format!("\n  {name:<7} {paper}"));
        if !sections.is_empty() {
            text.push_str(&format!(" (sections: {})", sections.join(" ")));
        }
    }
    text
}

/// Run `exe [subcommand] <mode>` to completion with inherited stdio;
/// `label` names it in the banner and in a failure.
fn run_child(exe: &Path, label: &str, subcommand: &[&str], mode: Mode) -> Result<(), Failure> {
    println!("\n################ {label} ({}) ################", mode.name());
    let status = Command::new(exe)
        .args(subcommand)
        .arg(mode.name())
        .status()
        .map_err(|e| format!("failed to launch {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(Failure::Run(format!("{label} failed with {status}")));
    }
    Ok(())
}

/// Every artifact as a child of this same executable, then the gates.
fn all(mode: Mode) -> Result<(), Failure> {
    let me = harness::own_exe()?;
    for (name, ..) in ARTIFACTS {
        run_child(&me, name, &[name], mode)?;
    }
    for gate in GATES {
        run_child(&harness::sibling_exe(gate)?, gate, &[], mode)?;
    }
    println!("\nAll experiments completed; TSVs in bench_results/.");
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let Some(cmd) = args.get(1).map(String::as_str) else {
        return Err(Failure::Usage("missing subcommand".into()));
    };
    let artifact = ARTIFACTS.iter().find(|a| a.0 == cmd);
    match cmd {
        "list" => {
            for (name, ..) in ARTIFACTS {
                println!("{name}");
            }
            return Ok(());
        }
        "oocore" => return oocore::run(&args[2..]),
        "all" => {}
        _ if artifact.is_some() => {}
        _ => return Err(Failure::Usage(format!("unknown subcommand {cmd:?}"))),
    }
    let mode = Mode::parse(args, 2)?;
    let sections = args.get(3..).unwrap_or_default();
    let accepted = artifact.map_or(&[][..], |a| a.2);
    if let Some(bad) = sections.iter().find(|s| !accepted.contains(&s.as_str())) {
        return Err(Failure::Usage(format!("{cmd} has no section {bad:?}")));
    }
    eprintln!("[{cmd}: {} preset]", mode.name());
    harness::print_knobs();
    match artifact {
        Some(&(.., run)) => run(mode == Mode::Quick, sections),
        None => all(mode)?,
    }
    Ok(())
}

fn main() -> ExitCode {
    harness::main("dne-bench", &usage(), dispatch)
}
