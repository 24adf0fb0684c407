//! `compare <a> <b>`: judge run set `b` against run set `a` with the bounds
//! and directions of `BENCHMARK.json`.
//!
//! A run-set file is the concatenated standard output of any number of
//! `run` invocations: each pass prints a context line naming its workload
//! and then its result line. Only end-to-end metrics are judged.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::{Contract, MetricSpec};
use crate::stats::{median, sorted, spread};

/// Metric values of one run set: workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// How one metric of one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so neither can be said.
    Unresolved,
}

/// Parse a run-set file (see the module docs).
pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut workload: Option<String> = None;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| l.trim_start().starts_with('{')) {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if let Some(name) = doc.get("workload").and_then(Value::as_str) {
            workload = Some(name.to_string());
        } else if let Some(metrics) = doc.get("metrics") {
            let name = workload.take().ok_or(format!("line {}: result without context", i + 1))?;
            for (metric, entry) in metrics.members() {
                let value = entry.get("value").and_then(Value::as_f64);
                let value = value.ok_or(format!("line {}: {metric} has no value", i + 1))?;
                set.entry(name.clone()).or_default().entry(metric.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Judge one metric from its values in the two run sets.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.expect("only end-to-end metrics are judged");
    let (ma, mb) = (median(a), median(b));
    let worsening = if spec.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    // Every run of `b` better than every run of `a` resolves a noisy metric.
    let (sa, sb) = (sorted(a), sorted(b));
    let all_better =
        if spec.higher_is_better { sb[0] > sa[sa.len() - 1] } else { sb[sb.len() - 1] < sa[0] };
    if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Compare two run sets, print one row per workload and metric, and return
/// how many rows are not [`Verdict::Within`].
pub fn compare(contract: &Contract, a: &RunSet, b: &RunSet) -> Result<usize, String> {
    let mut bad = 0;
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "change", "spread", "bound"
    );
    for (workload, _) in &contract.workloads {
        for spec in &contract.end_to_end {
            let values = |set: &RunSet, which: &str| {
                set.get(workload)
                    .and_then(|m| m.get(&spec.name))
                    .cloned()
                    .ok_or(format!("run set {which} has no {} for {workload}", spec.name))
            };
            let (va, vb) = (values(a, "a")?, values(b, "b")?);
            let verdict = judge(spec, &va, &vb);
            bad += usize::from(verdict != Verdict::Within);
            println!(
                "{workload:<14} {:<22} {:>13.6} {:>13.6} {:>+7.2}% {:>6.2}% {:>6.2}%  {verdict:?} ({}: {} is better; n = {}, {})",
                spec.name,
                median(&va),
                median(&vb),
                (median(&vb) - median(&va)) / median(&va) * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                spec.unit,
                if spec.higher_is_better { "higher" } else { "lower" },
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(bad)
}
