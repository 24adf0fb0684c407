//! The names this benchmark defines, and the `BENCHMARK.json` contract they
//! are published under.
//!
//! The lists below are what the harness emits, in emission order.
//! `BENCHMARK.json` (compiled in) carries each name's unit, direction and
//! bound; `tests/contract.rs` checks the two agree name for name.

use crate::json::{self, Value};

/// The root `BENCHMARK.json`, as committed next to this crate.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every end-to-end metric, reported by every workload.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "partition_cpu_s",
    "replication_factor",
    "edge_balance",
    "comm_bytes_per_edge",
    "mem_score_b_per_edge",
    "peak_rss_mb",
    "index_build_cpu_s",
    "lookup_qps",
    "lookup_rtt_p50_us",
];

/// Every per-layer metric, reported by every workload's traced pass. The
/// prefix is the layer (module) the number belongs to.
pub const PER_LAYER: [&str; 41] = [
    "graph.gen_cpu_s",
    "graph.open_cpu_s",
    "graph.scan_medges_per_s",
    "graph.resident_mb",
    "dist.deploy_s",
    "dist.bucket_medges_per_s",
    "rounds",
    "core.rounds_s",
    "core.round_us",
    "core.selection_max_s",
    "core.allocation_max_s",
    "core.selection_share",
    "core.collective_rounds",
    "transport.msgs",
    "transport.bytes",
    "transport.frames",
    "transport.frames_per_round",
    "transport.bytes_per_msg",
    "transport.exchange_us.loopback",
    "transport.exchange_us.bytes",
    "transport.exchange_us.tcp",
    "collectives.all_gather_us.flat",
    "collectives.all_gather_us.tree",
    "collectives.all_gather_us.recursive-doubling",
    "wire.encode_mb_per_s",
    "wire.decode_mb_per_s",
    "quality.measure_cpu_s",
    "index.owner_of_mops",
    "index.replica_set_mops",
    "lookup.answer_mops",
    "lookup.codec_mops",
    "service.requests",
    "service.protocol_errors",
    "service.bytes_in_per_req",
    "service.bytes_out_per_req",
    "service.cpu_us_per_req",
    "service.p99_us",
    "service.rtt_p99_us",
    "noise.wall_over_cpu",
    "trace.overhead_ratio",
    "reps",
];

/// Limits the contract puts on the file.
pub const MAX_WORKLOADS: usize = 8;
/// At most this many end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// At most this many per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;
/// No bound may exceed this share.
pub const MAX_BOUND: f64 = 0.25;

/// Whether `name` is a legal workload or metric name: starts with a letter
/// or digit, then at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The name every later issue uses.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed, validated contract file.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, unbounded.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

impl Contract {
    /// Parse and validate a `BENCHMARK.json` document against the limits
    /// above; the error names the first offending entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let str_of = |v: &Value, key: &str| {
            v.get(key).and_then(Value::as_str).map(str::to_string).ok_or(format!("missing {key}"))
        };
        let metric = |v: &Value, bounded: bool| -> Result<MetricSpec, String> {
            let name = str_of(v, "name")?;
            let unit = str_of(v, "unit")?;
            let higher_is_better = match str_of(v, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = v.get("bound").and_then(Value::as_f64);
            if !valid_name(&name) || !valid_unit(&unit) {
                return Err(format!("{name}: illegal name or unit {unit:?}"));
            }
            match (bounded, bound) {
                (true, Some(b)) if (0.0..=MAX_BOUND).contains(&b) => {}
                (false, None) => {}
                _ => return Err(format!("{name}: bound {bound:?} does not fit its section")),
            }
            Ok(MetricSpec { name, unit, higher_is_better, bound })
        };
        let section = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            doc.get(key).map_or(&[][..], Value::items).iter().map(|v| metric(v, bounded)).collect()
        };
        let workloads = doc
            .get("workloads")
            .map_or(&[][..], Value::items)
            .iter()
            .map(|v| Ok((str_of(v, "name")?, str_of(v, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let contract = Contract {
            workloads,
            end_to_end: section("end_to_end", true)?,
            per_layer: section("per_layer", false)?,
            run_seconds: doc.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?,
        };
        contract.check_limits()?;
        Ok(contract)
    }

    fn check_limits(&self) -> Result<(), String> {
        let within = |what: &str, n: usize, lo: usize, hi: usize| {
            if (lo..=hi).contains(&n) {
                Ok(())
            } else {
                Err(format!("{n} {what}, allowed {lo} to {hi}"))
            }
        };
        within("workloads", self.workloads.len(), 2, MAX_WORKLOADS)?;
        within("end-to-end metrics", self.end_to_end.len(), 1, MAX_END_TO_END)?;
        within("per-layer metrics", self.per_layer.len(), 1, MAX_PER_LAYER)?;
        let mut names: Vec<&str> = self
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.end_to_end.iter().chain(&self.per_layer).map(|m| m.name.as_str()))
            .collect();
        if let Some(bad) = self
            .workloads
            .iter()
            .find(|(n, why)| !valid_name(n) || why.len() > 200 || why.contains('\n'))
        {
            return Err(format!("workload {:?}: illegal name or why", bad.0));
        }
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used twice", dup[0]));
        }
        let setup = self.end_to_end.iter().find(|m| m.name == "setup_s");
        if !setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better) {
            return Err("end_to_end needs setup_s in s, lower is better".into());
        }
        Ok(())
    }

    /// The compiled-in contract.
    pub fn committed() -> Self {
        Self::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    /// The end-to-end or per-layer section.
    pub fn section(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
