//! The one command-line preamble of the package's four executables:
//! strict `quick` | `full` parsing, the shared positional-argument helper,
//! the RMAT job [`Spec`] the deployment binaries exchange on their command
//! lines, the resolved-knob banner, and the usage-vs-run-failure exit
//! convention (2 with the usage text, 1 with the message).

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use dne_core::{CheckpointPolicy, DistributedNe, NeConfig};
use dne_graph::{gen, Graph, StorageKind};
use dne_runtime::{BatchConfig, CollectiveTopology, TransportKind};

/// Why an executable stops early.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong: print the message and the usage text,
    /// exit 2 — before anything ran.
    Usage(String),
    /// The work itself failed: print the message, exit 1.
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

/// The body of every `main`: hand `run` the command line (element 0 is
/// the executable) and turn its outcome into the exit code, reporting a
/// failure on stderr under the executable's `name`.
pub fn main(
    name: &str,
    usage: &str,
    run: impl FnOnce(&[String]) -> Result<(), Failure>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("{name}: {msg}\n{usage}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("{name}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parse the positional argument `args[i]`, named `what` in the error.
pub fn arg<T: FromStr>(args: &[String], i: usize, what: &str) -> Result<T, Failure> {
    args.get(i)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| Failure::Usage(format!("missing or invalid <{what}> argument")))
}

/// The preset every reproduction command takes: `quick` (seconds to a
/// minute) or `full` (the paper-scale sweep, tens of minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Small stand-ins, few configurations.
    Quick,
    /// The larger stand-ins and every configuration.
    Full,
}

impl Mode {
    /// Parse `args[i]`: absent means quick, `quick` / `full` select, and
    /// anything else is a usage error — a typo like `ful` must not
    /// silently run the other preset.
    pub fn parse(args: &[String], i: usize) -> Result<Mode, Failure> {
        match args.get(i).map(String::as_str) {
            None | Some("quick") => Ok(Mode::Quick),
            Some("full") => Ok(Mode::Full),
            Some(other) => Err(Failure::Usage(format!("unknown mode {other:?}"))),
        }
    }

    /// The argument that selects this mode.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }
}

/// The deterministic job `dne-tcp-worker`, `dne-server` and `dne-client`
/// describe on their command lines: a Graph500 RMAT graph and how many
/// parts Distributed NE cuts it into. Every process of a job rebuilds the
/// same graph from these four numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// RMAT scale (`2^scale` vertices).
    pub scale: u32,
    /// RMAT edge factor.
    pub degree: u32,
    /// Seed of both the generator and the partitioner.
    pub seed: u64,
    /// Partition count — one per worker process in a multi-process run.
    pub parts: u32,
}

impl Spec {
    /// Parse `<scale> <degree> <seed>` from `args[from..from + 3]`.
    pub fn parse(args: &[String], from: usize, parts: u32) -> Result<Spec, Failure> {
        Ok(Spec {
            scale: arg(args, from, "scale")?,
            degree: arg(args, from + 1, "degree")?,
            seed: arg(args, from + 2, "seed")?,
            parts,
        })
    }

    /// `<scale> <degree> <seed>` as a child process takes them.
    pub fn args(&self) -> [String; 3] {
        [self.scale.to_string(), self.degree.to_string(), self.seed.to_string()]
    }

    /// Generate the job's graph.
    pub fn graph(&self) -> Graph {
        gen::rmat(&gen::RmatConfig::graph500(self.scale, self.degree as u64, self.seed))
    }

    /// The job's partitioner: Distributed NE at this seed, every knob
    /// left to the environment.
    pub fn partitioner(&self) -> DistributedNe {
        DistributedNe::new(NeConfig::default().with_seed(self.seed))
    }
}

/// The path of the running executable — what a launcher self-spawns.
pub fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

/// The path of executable `name` built next to the running one.
pub fn sibling_exe(name: &str) -> Result<PathBuf, String> {
    Ok(own_exe()?.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX)))
}

/// Report every resolved `DNE_*` knob once, on stderr.
///
/// # Panics
/// Resolving validates: a typo in any of the variables panics here, naming
/// the variable and its accepted forms — before, not after, a long sweep.
pub fn print_knobs() {
    let checkpoint = match CheckpointPolicy::from_env() {
        Some(cp) => format!("every {} into {}", cp.every, cp.dir.display()),
        None => "off".into(),
    };
    eprintln!(
        "[transport: {} | collectives: {} | comm batch: {} | storage: {} | checkpoint: {checkpoint}]",
        TransportKind::from_env(),
        CollectiveTopology::from_env(),
        BatchConfig::from_env(),
        StorageKind::from_env(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn mode_parsing_is_strict() {
        assert_eq!(Mode::parse(&args(&["exe"]), 1).unwrap(), Mode::Quick);
        assert_eq!(Mode::parse(&args(&["exe", "full"]), 1).unwrap(), Mode::Full);
        assert_eq!(Mode::Full.name(), "full");
        assert!(matches!(Mode::parse(&args(&["exe", "ful"]), 1), Err(Failure::Usage(_))));
    }

    #[test]
    fn spec_round_trips_through_a_command_line() {
        let spec = Spec { scale: 9, degree: 8, seed: 42, parts: 4 };
        let mut line = args(&["exe", "worker"]);
        line.extend(spec.args());
        assert_eq!(Spec::parse(&line, 2, 4).unwrap(), spec);
        line[3] = "eight".into();
        assert!(matches!(Spec::parse(&line, 2, 4), Err(Failure::Usage(m)) if m.contains("degree")));
    }
}
