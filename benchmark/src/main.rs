//! `dne-benchmark run|compare` — see `README.md` beside this crate.

use std::process::ExitCode;

use dne_benchmark::compare::{compare, parse_run_set};
use dne_benchmark::run::{child, parent, Pass};
use dne_benchmark::spec::Contract;
use dne_benchmark::sys::{allowed_cpus, pin_to_one_cpu};
use dne_benchmark::workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  dne-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both]
  dne-benchmark compare <run-set-a> <run-set-b>

`run` measures one workload (all of them when --workload is absent): the
end-to-end pass with --trace 0 (the default), the traced per-layer pass with
--trace 1, one after the other with --trace both. Each pass prints a context
line and then its result line. `compare` judges run set b against run set a
(files of concatenated `run` output) with the bounds of BENCHMARK.json.";

/// The value following flag `name`, parsed, or `default` when it is absent.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{name} needs a valid value\n{USAGE}")),
    }
}

fn passes(args: &[String], nproc: usize) -> Result<Vec<Pass>, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workloads: Vec<&'static Workload> = match flag(args, "--workload", String::new())? {
        name if name.is_empty() => WORKLOADS.iter().collect(),
        name => vec![Workload::by_name(&name)
            .ok_or(format!("unknown workload {name:?}; the workloads are {names:?}"))?],
    };
    let seed = flag(args, "--seed", 42u64)?;
    let seconds = flag(args, "--seconds", Contract::committed().run_seconds)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let traced: &[bool] = match flag(args, "--trace", "0".to_string())?.as_str() {
        "0" => &[false],
        "1" => &[true],
        "both" => &[false, true],
        other => return Err(format!("--trace {other:?} is not 0, 1 or both")),
    };
    let nproc = flag(args, "--nproc", nproc)?;
    Ok(workloads
        .iter()
        .flat_map(|&workload| {
            traced.iter().map(move |&traced| Pass { workload, seed, seconds, traced, nproc })
        })
        .collect())
}

fn main_inner() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every knob is set through a builder; an ambient DNE_* variable would
    // silently measure a different configuration.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DNE_"))
    {
        return Err(format!(
            "{} is set: the benchmark fixes every DNE_* knob itself; unset it",
            name.to_string_lossy()
        ));
    }
    match args.first().map(String::as_str) {
        Some("run") => {
            let nproc = allowed_cpus().len();
            if pin_to_one_cpu().is_none() {
                eprintln!("warning: could not pin to one CPU; timings will be noisier");
            }
            let mut worst = 0;
            for pass in passes(&args[1..], nproc)? {
                worst = worst.max(parent(pass)?);
            }
            Ok(worst)
        }
        Some("child") => match passes(&args[1..], 0)?[..] {
            [pass] => child(pass),
            _ => Err("child runs exactly one pass".into()),
        },
        Some("compare") => {
            let [a, b] = &args[1..] else { return Err(USAGE.into()) };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))
                    .and_then(|text| parse_run_set(&text).map_err(|e| format!("{path}: {e}")))
            };
            let bad = compare(&Contract::committed(), &read(a)?, &read(b)?)?;
            Ok(i32::from(bad > 0))
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
