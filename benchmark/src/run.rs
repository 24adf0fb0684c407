//! One measured pass of one workload (the re-exec'd child), and the parent
//! that starts it, bounds its life, and reports a hang as failed work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dne_runtime::peak_rss_bytes;

use crate::json::quote;
use crate::probes;
use crate::spec::{Contract, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, TimeBox};
use crate::sys::{allowed_cpus, timed};
use crate::trace::Tracer;
use crate::workload::{cycle, set_up, Cycle, TempFile, Workload, INDEX_SHARDS, WINDOW};

/// Set-ups one run makes: at least three, more while they fit in a second.
/// `setup_s` is their median.
pub const SETUP_BOX: TimeBox = TimeBox { min_reps: 3, budget_s: 1.0 };
/// Series of the serving path, whose cost per request is the same under
/// every sub-seed. Contention from the host only ever slows a cycle down, so
/// the better quartile over a run's cycles is the part that repeats from run
/// to run.
const QUIET_QUARTILE: [&str; 6] = [
    "index_build_cpu_s",
    "lookup_qps",
    "lookup_rtt_p50_us",
    "service.cpu_us_per_req",
    "service.p99_us",
    "service.rtt_p99_us",
];
/// Cycles a traced pass makes however slow the host is: two sub-seeds, each
/// recorded and silent. (An end-to-end pass makes one per sub-seed.)
pub const MIN_TRACED_CYCLES: usize = 4;
/// Share of a traced pass's seconds spent on pipeline cycles; the rest is
/// divided among the probes.
const TRACED_CYCLE_SHARE: f64 = 0.4;
/// Probe repetitions the remaining seconds are divided among.
const PROBE_SLICES: f64 = 15.0;
/// A child still running after this long is killed and counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the generators and of the partitioner.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub traced: bool,
    /// CPUs the parent could run on before it pinned itself.
    pub nproc: usize,
}

/// Where chunk files and traces go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Samples by series name and then by group: a cycle's group is its
/// partitioner sub-seed, a set-up repetition's is 0.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>);

impl Samples {
    fn push(&mut self, name: &'static str, group: usize, value: f64) {
        self.0.entry(name).or_default().entry(group).or_default().push(value);
    }

    /// Each group's median: repetitions of one sub-seed do the same work, so
    /// their median sheds host noise.
    fn group_medians(&self, name: &str) -> Vec<f64> {
        self.0[name].values().map(|samples| median(samples)).collect()
    }

    /// The series' reported value. Work that does not depend on the
    /// partitioner's seed ([`QUIET_QUARTILE`]) reports the better quartile
    /// of all its samples, "better" as `contract` declares the metric;
    /// everything else the mean of its group medians, which averages the
    /// seed sensitivity away.
    fn value(&self, name: &str, contract: &Contract) -> f64 {
        if QUIET_QUARTILE.contains(&name) {
            let all: Vec<f64> = self.0[name].values().flatten().copied().collect();
            let (q1, q3) = quartiles(&all);
            let declared = contract.end_to_end.iter().chain(&contract.per_layer);
            let higher = declared.into_iter().any(|m| m.name == name && m.higher_is_better);
            return if higher { q3 } else { q1 };
        }
        let medians = self.group_medians(name);
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    fn record(&mut self, w: &Workload, group: usize, edges: f64, c: &Cycle) {
        let rounds = c.stats.iterations as f64;
        let rounds_s = c.stats.elapsed.as_secs_f64();
        let requests = c.service.requests as f64;
        for (name, value) in [
            ("partition_cpu_s", c.partition_cpu_s),
            ("replication_factor", c.replication_factor),
            ("edge_balance", c.edge_balance),
            ("rounds", rounds),
            ("comm_bytes_per_edge", c.stats.comm_bytes as f64 / edges),
            ("mem_score_b_per_edge", c.stats.mem_score),
            ("index_build_cpu_s", c.index_build_cpu_s),
            ("lookup_qps", w.window_requests as f64 / c.window_cpu_s),
            ("lookup_rtt_p50_us", c.rtt_p50_us),
            ("dist.deploy_s", c.partition_wall_s - rounds_s),
            ("core.rounds_s", rounds_s),
            ("core.round_us", rounds_s * 1e6 / rounds),
            ("core.selection_max_s", c.stats.selection_time_max.as_secs_f64()),
            ("core.allocation_max_s", c.stats.allocation_time_max.as_secs_f64()),
            ("core.selection_share", c.stats.selection_share()),
            ("core.collective_rounds", c.stats.collective_rounds as f64),
            ("transport.msgs", c.stats.comm_msgs as f64),
            ("transport.bytes", c.stats.comm_bytes as f64),
            ("transport.frames", c.stats.comm_frames as f64),
            ("transport.frames_per_round", c.stats.comm_frames as f64 / rounds),
            ("transport.bytes_per_msg", c.stats.comm_bytes as f64 / c.stats.comm_msgs as f64),
            ("quality.measure_cpu_s", c.quality_cpu_s),
            ("service.requests", requests),
            ("service.protocol_errors", c.service.protocol_errors as f64),
            ("service.bytes_in_per_req", c.service.bytes_in as f64 / requests),
            ("service.bytes_out_per_req", c.service.bytes_out as f64 / requests),
            ("service.cpu_us_per_req", c.window_cpu_s * 1e6 / w.window_requests as f64),
            ("service.p99_us", c.window_p99_us),
            ("service.rtt_p99_us", c.rtt_p99_us),
            ("noise.wall_over_cpu", c.partition_wall_s / c.partition_cpu_s),
        ] {
            self.push(name, group, value);
        }
    }
}

/// Run one pass in this process and print its two result lines. Returns the
/// process exit code: non-zero when any output failed verification.
pub fn child(pass: Pass) -> Result<i32, String> {
    let Pass { workload: w, seed, seconds, traced, nproc } = pass;
    let contract = Contract::committed();
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut tracer = Tracer::new(traced);
    let mut samples = Samples::default();

    let mut input = None;
    let setup_reps = SETUP_BOX.run(|_| {
        // Free the previous inputs first: two live graphs would double the
        // resident-set peak this run reports.
        drop(input.take());
        let (made, cpu_s, _) = tracer.span("setup", |t| timed(|| set_up(w, seed, &out, t)));
        samples.push("setup_s", 0, cpu_s);
        if let Ok(made) = &made {
            samples.push("graph.gen_cpu_s", 0, made.gen_cpu_s);
        }
        input = Some(made);
    });
    let input = input
        .expect("the set-up box runs at least once")
        .map_err(|e| format!("{}: set-up under {}: {e}", w.name, out.display()))?;
    let edges = input.graph.num_edges() as f64;

    // An end-to-end pass partitions under every sub-seed at least once. A
    // traced pass runs each sub-seed it reaches twice, recording and silent:
    // the two partition times give the recorder's overhead.
    let per_group = if traced { 2 } else { 1 };
    let time_box = TimeBox {
        min_reps: if traced { MIN_TRACED_CYCLES } else { w.sub_seeds },
        budget_s: if traced { seconds * TRACED_CYCLE_SHARE } else { seconds },
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fingerprints = vec![None; w.sub_seeds];
    let mut last = None;
    let mut error = None;
    let mut peak_rss = None;
    let reps = time_box.run(|rep| {
        if error.is_some() {
            return;
        }
        let group = rep / per_group % w.sub_seeds;
        let recording = traced && rep % 2 == 0;
        tracer.set_enabled(recording);
        let ne_seed = Workload::sub_seed(seed, group);
        match tracer.span("cycle", |t| cycle(w, ne_seed, &input, &mut fingerprints[group], t)) {
            Ok((c, assignment)) => {
                samples.record(w, group, edges, &c);
                let which =
                    if recording { "partition_cpu_s.recorded" } else { "partition_cpu_s.silent" };
                samples.push(which, group, c.partition_cpu_s);
                attempted += c.attempted;
                failed += c.failed;
                last = Some((c.stats, assignment));
            }
            Err(e) => error = Some(e),
        }
        // Read the high-water mark once every sub-seed has run once: a fixed
        // amount of work, however many more cycles the time box admits.
        if rep + 1 == w.sub_seeds {
            peak_rss = peak_rss_bytes();
        }
    });
    if let Some(e) = error {
        return Err(format!("{}: {e}", w.name));
    }
    tracer.set_enabled(traced);

    let mut values: BTreeMap<String, f64> =
        samples.0.keys().map(|name| (name.to_string(), samples.value(name, &contract))).collect();
    values.insert("reps".into(), reps as f64);
    if traced {
        // Only sub-seeds that ran both ways: the box may close between the two.
        let (recorded, silent) =
            (&samples.0["partition_cpu_s.recorded"], &samples.0["partition_cpu_s.silent"]);
        let ratios: Vec<f64> = recorded
            .iter()
            .filter_map(|(group, r)| silent.get(group).map(|s| median(r) / median(s)))
            .collect();
        let overhead = ratios.iter().sum::<f64>() / ratios.len() as f64;
        values.insert("trace.overhead_ratio".into(), overhead);
        let last = last.as_ref().expect("a pass runs at least one cycle");
        let slice_s = (seconds - time_box.budget_s) / PROBE_SLICES;
        let probed = probes::run(w, seed, &input, last, &out, slice_s, &mut tracer);
        values.extend(
            probed.map_err(|e| format!("{}: probing under {}: {e}", w.name, out.display()))?,
        );
        let path = out.join(format!("trace_{}.jsonl", w.name));
        tracer
            .write_jsonl(&path, w.name)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        let rss = peak_rss.ok_or("no VmHWM in /proc/self/status")?;
        values.insert("peak_rss_mb".into(), rss as f64 / 1e6);
    }

    let pinned = match allowed_cpus()[..] {
        [cpu] => cpu.to_string(),
        _ => "null".into(),
    };
    // What the partitioner resolves to, read back from the configuration it
    // is given rather than restated.
    let config = w.ne_config(seed);
    let detail: Vec<String> = samples
        .0
        .iter()
        .map(|(name, groups)| {
            let (q1, q3) = quartiles(&samples.group_medians(name));
            let n: usize = groups.values().map(Vec::len).sum();
            format!(
                "{}: {{\"value\": {}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {n}}}",
                quote(name),
                values[*name]
            )
        })
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"config\": {{\"transport\": \"{}\", \"topology\": \"{}\", \"batch\": \"{}\", \
         \"storage\": \"{}\", \"parts\": {}, \"seed\": {seed}, \"index_shards\": {INDEX_SHARDS}, \
         \"window\": {WINDOW}, \"pinned_cpu\": {pinned}, \"nproc\": {nproc}, \"setup_reps\": {setup_reps}, \
         \"sub_seeds\": {}, \"reps\": {reps}}}, \"failed_share\": {}, \"samples\": {{{}}}}}",
        quote(w.name),
        u8::from(traced),
        config.resolved_transport(),
        config.resolved_collectives(),
        if config.resolved_comm_batch().enabled() { "on" } else { "off" },
        input.graph.storage_kind(),
        w.parts,
        w.sub_seeds,
        failed as f64 / attempted as f64,
        detail.join(", "),
    );

    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let value =
                values.get(*name).unwrap_or_else(|| panic!("the harness produced no {name}"));
            let spec = contract.section(traced).iter().find(|m| m.name == *name);
            let unit = &spec.unwrap_or_else(|| panic!("BENCHMARK.json does not list {name}")).unit;
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(name), quote(unit))
        })
        .collect();
    println!("{}", result_line(failed == 0, attempted, failed, &metrics.join(", ")));
    Ok(i32::from(failed != 0))
}

/// The line the contract asks for: exactly these four keys.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

/// Start `pass` as a child process (a clean address space, so its `VmHWM`
/// is the workload's own) and wait for it, at most [`CHILD_DEADLINE`]. The
/// child writes its result lines straight to our standard output.
pub fn parent(pass: Pass) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness binary: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", pass.workload.name])
        .args(["--seed", &pass.seed.to_string()])
        .args(["--seconds", &pass.seconds.to_string()])
        .args(["--trace", if pass.traced { "1" } else { "0" }])
        .args(["--nproc", &pass.nproc.to_string()])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting the child: {e}"))?;
    let started = Instant::now();
    loop {
        match child.try_wait().map_err(|e| format!("waiting for the child: {e}"))? {
            Some(status) => return Ok(status.code().unwrap_or(1)),
            None if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                // The chunk files its `TempFile`s would have removed.
                TempFile::sweep(&out_dir(), child.id());
                eprintln!("{}: killed after {CHILD_DEADLINE:?}", pass.workload.name);
                println!("{}", result_line(false, 1, 1, ""));
                return Ok(1);
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
