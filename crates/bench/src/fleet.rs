//! The one process-fleet launcher: spawn children, read tagged lines off
//! a child's stdout, and never leak a process.
//!
//! A launcher scrapes what its children *announce* — a bound address, a
//! fingerprint, a result row — as lines starting with an agreed tag
//! ([`TaggedLines::wait_for`]). Every spawned child lives in the [`Fleet`]
//! until it is waited for: an early error return kills and reaps whatever
//! still runs (workers could otherwise linger in bootstrap accept loops),
//! and [`Fleet::reap_all`] waits for *every* child before judging any exit
//! status, so a failure cannot leave un-waited children behind.

use std::io::{BufRead, BufReader, Lines};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};

/// The children a launcher is responsible for, each under a label its
/// error messages use.
#[derive(Default)]
pub struct Fleet(Vec<(String, Child)>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    fn adopt(&mut self, label: &str, cmd: &mut Command) -> Result<&mut Child, String> {
        let child = cmd.spawn().map_err(|e| format!("spawning {label}: {e}"))?;
        self.0.push((label.to_string(), child));
        Ok(&mut self.0.last_mut().expect("just pushed").1)
    }

    /// Spawn `cmd` with its stdout discarded.
    pub fn spawn(&mut self, label: &str, cmd: &mut Command) -> Result<(), String> {
        self.adopt(label, cmd.stdout(Stdio::null())).map(|_| ())
    }

    /// Spawn `cmd` with its stdout piped into the returned line stream.
    /// Keep the stream for as long as the child may print: dropping it
    /// closes the pipe under the child.
    pub fn spawn_piped(&mut self, label: &str, cmd: &mut Command) -> Result<TaggedLines, String> {
        let child = self.adopt(label, cmd.stdout(Stdio::piped()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(TaggedLines { label: label.to_string(), lines: BufReader::new(stdout).lines() })
    }

    /// Wait for the child spawned under `label` alone and hand back its
    /// exit status, whatever it is — for a child that is *meant* to die.
    pub fn wait(&mut self, label: &str) -> Result<ExitStatus, String> {
        let i = self.0.iter().position(|(l, _)| l == label).expect("label names a live child");
        let (_, mut child) = self.0.remove(i);
        child.wait().map_err(|e| format!("waiting for {label}: {e}"))
    }

    /// The first child that has already exited, as `"<label> exited with
    /// <status>"` — lets a caller holding a connection-level symptom name
    /// the root cause next to it.
    pub fn exited(&mut self) -> Option<String> {
        self.0.iter_mut().find_map(|(label, child)| match child.try_wait() {
            Ok(Some(status)) => Some(format!("{label} exited with {status}")),
            _ => None,
        })
    }

    /// Wait for every child, then report the first that failed.
    pub fn reap_all(mut self) -> Result<(), String> {
        let mut failure = None;
        for (label, mut child) in self.0.drain(..) {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    failure.get_or_insert(format!("{label} exited with {status}"));
                }
                Err(e) => {
                    failure.get_or_insert(format!("waiting for {label}: {e}"));
                }
            }
        }
        failure.map_or(Ok(()), Err)
    }
}

/// The stdout line stream of one piped child.
pub struct TaggedLines {
    label: String,
    lines: Lines<BufReader<ChildStdout>>,
}

impl TaggedLines {
    /// Skip lines until one starts with `tag`; return the rest of that
    /// line, trimmed.
    pub fn wait_for(&mut self, tag: &str) -> Result<String, String> {
        loop {
            let line = self
                .lines
                .next()
                .ok_or_else(|| format!("{} exited before printing {tag}", self.label))?
                .map_err(|e| format!("reading {} stdout: {e}", self.label))?;
            if let Some(rest) = line.strip_prefix(tag) {
                return Ok(rest.trim().to_string());
            }
        }
    }
}

#[cfg(test)]
#[cfg(unix)] // the tests drive `sh`
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    #[test]
    fn tagged_lines_are_found_in_order_and_a_missing_tag_is_an_error() {
        let mut fleet = Fleet::new();
        let mut out =
            fleet.spawn_piped("child", &mut sh("echo noise; echo 'A 1'; echo 'B\t2 '")).unwrap();
        assert_eq!(out.wait_for("A").unwrap(), "1");
        assert_eq!(out.wait_for("B").unwrap(), "2");
        assert_eq!(out.wait_for("C").unwrap_err(), "child exited before printing C");
        fleet.reap_all().unwrap();
    }

    #[test]
    fn reap_all_waits_everyone_and_names_the_first_failure() {
        let mut fleet = Fleet::new();
        fleet.spawn("good", &mut sh("exit 0")).unwrap();
        fleet.spawn("bad", &mut sh("exit 3")).unwrap();
        fleet.spawn("doomed", &mut sh("exit 7")).unwrap();
        assert_eq!(fleet.wait("doomed").unwrap().code(), Some(7));
        let err = fleet.reap_all().unwrap_err();
        assert!(err.starts_with("bad exited with"), "{err}");
    }

    #[test]
    fn dropping_the_fleet_kills_what_still_runs() {
        let mut fleet = Fleet::new();
        fleet.spawn("sleeper", &mut sh("sleep 600")).unwrap();
        assert_eq!(fleet.exited(), None, "still running");
        let started = std::time::Instant::now();
        drop(fleet); // must kill, not wait ten minutes
        assert!(started.elapsed() < std::time::Duration::from_secs(60));
    }
}
