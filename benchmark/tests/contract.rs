//! `BENCHMARK.json` against the harness: names, limits, and the pieces
//! `compare` and the traced pass are built from.

use dne_benchmark::compare::{judge, parse_run_set, Verdict};
use dne_benchmark::json;
use dne_benchmark::spec::{
    valid_name, valid_unit, Contract, BENCHMARK_JSON, END_TO_END, MAX_BOUND, MAX_END_TO_END,
    MAX_PER_LAYER, MAX_WORKLOADS, PER_LAYER,
};
use dne_benchmark::trace::Tracer;
use dne_benchmark::workload::WORKLOADS;

#[test]
fn benchmark_json_lists_exactly_the_names_the_harness_emits() {
    let contract = Contract::committed();
    let names = |specs: &[dne_benchmark::spec::MetricSpec]| -> Vec<String> {
        specs.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(names(&contract.end_to_end), END_TO_END);
    assert_eq!(names(&contract.per_layer), PER_LAYER);
    let workloads: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys_and_respects_the_limits() {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert!(BENCHMARK_JSON.len() <= 64 << 10);

    let contract = Contract::committed();
    assert!((2..=MAX_WORKLOADS).contains(&contract.workloads.len()));
    assert!(contract.end_to_end.len() <= MAX_END_TO_END);
    assert!(contract.per_layer.len() <= MAX_PER_LAYER);
    assert!(contract.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&contract.run_seconds));
    for m in contract.end_to_end.iter().chain(&contract.per_layer) {
        assert!(valid_name(&m.name) && valid_unit(&m.unit), "{m:?}");
    }
    for m in &contract.end_to_end {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= MAX_BOUND), "{m:?}");
    }
    // Set-up gets the largest bound.
    let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(contract.end_to_end.iter().all(|m| m.bound <= setup.bound));

    let command: Vec<&str> =
        doc.get("command").unwrap().items().iter().filter_map(|v| v.as_str()).collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200 && !a.starts_with('/')));
    let paths: Vec<&str> =
        doc.get("paths").unwrap().items().iter().filter_map(|v| v.as_str()).collect();
    assert_eq!(paths, ["benchmark"]);
}

#[test]
fn name_and_unit_charsets() {
    for good in ["setup_s", "collectives.all_gather_us.recursive-doubling", "9lives", "a"] {
        assert!(valid_name(good), "{good}");
    }
    let too_long = "x".repeat(65);
    for bad in ["", "_leading", ".dot", "-dash", "has space", "slash/es", "µs", too_long.as_str()]
    {
        assert!(!valid_name(bad), "{bad}");
    }
    for good in ["ms", "1/s", "B/edge", "%", "Medge/s"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "µs", "per second", "seventeen-letters"] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

/// A contract document with `n` workloads, end-to-end and per-layer metrics.
fn document(workloads: usize, end_to_end: usize, per_layer: usize) -> String {
    let list =
        |n: usize, item: &dyn Fn(usize) -> String| (0..n).map(item).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"run_seconds\": 10, \"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        list(workloads, &|i| format!("{{\"name\": \"w{i}\", \"why\": \"because\"}}")),
        list(end_to_end, &|i| {
            let name = if i == 0 { "setup_s".to_string() } else { format!("e{i}") };
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1}}"
            )
        }),
        list(per_layer, &|i| format!(
            "{{\"name\": \"p{i}\", \"unit\": \"count\", \"better\": \"higher\"}}"
        )),
    )
}

#[test]
fn contract_limits_are_enforced() {
    assert!(Contract::parse(&document(8, 16, 128)).is_ok());
    assert!(Contract::parse(&document(2, 1, 1)).is_ok());
    for (w, e, p) in [(9, 1, 1), (1, 1, 1), (2, 17, 1), (2, 0, 1), (2, 1, 129), (2, 1, 0)] {
        assert!(Contract::parse(&document(w, e, p)).is_err(), "{w} {e} {p}");
    }
    let ok = document(2, 2, 1);
    // A name used twice, a bound above the cap, a missing setup_s.
    assert!(Contract::parse(&ok.replace("\"e1\"", "\"p0\"")).is_err());
    assert!(Contract::parse(&ok.replace("0.1", "0.3")).is_err());
    assert!(Contract::parse(&ok.replace("setup_s", "warmup_s")).is_err());
    assert!(Contract::parse(&ok.replace("\"w1\"", "\"w 1\"")).is_err());
}

#[test]
fn json_parses_what_the_harness_prints() {
    let doc = json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y\nµ"}}"#).unwrap();
    assert_eq!(doc.get("a").unwrap().items()[1].as_f64(), Some(-2500.0));
    assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y\nµ"));
    assert_eq!(json::parse(&json::quote("x\"y\n\\")).unwrap().as_str(), Some("x\"y\n\\"));
    for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
        assert!(json::parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn compare_applies_bound_direction_and_spread() {
    let contract = Contract::parse(&document(2, 2, 1)).unwrap();
    let lower = &contract.end_to_end[1]; // lower is better, bound 0.1
    let steady = [1.00, 1.01, 0.99, 1.00, 1.00];
    let scale = |k: f64| steady.map(|v| v * k);
    assert_eq!(judge(lower, &steady, &scale(1.05)), Verdict::Within);
    assert_eq!(judge(lower, &steady, &scale(1.2)), Verdict::Regressed);
    assert_eq!(judge(lower, &steady, &scale(0.5)), Verdict::Within);
    let mut higher = lower.clone();
    higher.higher_is_better = true;
    assert_eq!(judge(&higher, &steady, &scale(0.8)), Verdict::Regressed);
    assert_eq!(judge(&higher, &steady, &scale(1.2)), Verdict::Within);
    // A spread wider than the bound resolves nothing, unless every run of
    // the second set beats every run of the first.
    let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
    assert_eq!(judge(lower, &noisy, &noisy), Verdict::Unresolved);
    assert_eq!(judge(lower, &noisy, &noisy.map(|v| v * 0.5)), Verdict::Within);
}

#[test]
fn run_set_files_pair_context_and_result_lines() {
    let text = "noise\n\
        {\"workload\": \"w0\", \"seed\": 1}\n\
        {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}\n\
        {\"workload\": \"w0\", \"seed\": 2}\n\
        {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}}\n";
    let set = parse_run_set(text).unwrap();
    assert_eq!(set["w0"]["setup_s"], [1.5, 2.5]);
    assert!(parse_run_set("{\"metrics\": {}}").is_err(), "a result line needs its context line");
}

#[test]
fn tracer_nests_spans_and_computes_self_time() {
    let mut tracer = Tracer::new(true);
    tracer.span("outer", |t| {
        t.count("rounds", 3.0);
        t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
    });
    let spans = tracer.spans();
    assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
    assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
    assert_eq!(spans[0].counts, [("rounds", 3.0)]);
    let own = tracer.self_times_us();
    let inner = spans[1].end_us - spans[1].start_us;
    assert!(inner >= 2000.0 && own[1] == inner);
    assert!((own[0] - (spans[0].end_us - spans[0].start_us - inner)).abs() < 1e-6);

    // Overlapping children are covered once: a span that ran on another
    // thread beside `inner` leaves the parent's self time non-negative.
    let mut tracer = Tracer::new(true);
    tracer.span("outer", |t| {
        let start = std::time::Instant::now();
        t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        t.record("beside", start, std::time::Instant::now());
    });
    let own = tracer.self_times_us();
    let outer = &tracer.spans()[0];
    assert!(own[0] >= 0.0 && own[0] < outer.end_us - outer.start_us - 2000.0 + 1.0);

    let mut silent = Tracer::new(false);
    assert_eq!(silent.span("ignored", |_| 7), 7);
    assert!(silent.spans().is_empty());
}
