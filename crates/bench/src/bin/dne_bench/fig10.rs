//! Figure 10 reproduction: elapsed partitioning time.
//!
//! Sub-experiments (select with section arguments after the mode; default
//! runs all):
//! * `real`  — Fig 10(a–g): time vs number of machines on the stand-ins;
//! * `ef`    — Fig 10(h): time vs RMAT edge factor at |P| = 64;
//! * `scale` — Fig 10(i): time vs RMAT scale at a fixed edge factor;
//! * `weak`  — Fig 10(j): weak scaling toward the trillion-edge setting
//!   (fixed vertices/machine, machine count swept ×4; the paper reaches
//!   Scale30/EF1024 on 256 machines — we run the same design scaled down
//!   and report the vertex-selection share of runtime, whose growth is the
//!   paper's explanation for the linear time increase).
//!
//! Baselines: ParMETIS-like / Sheep-like / XtraPuLP-like are sequential
//! re-implementations, so their absolute times are not cluster times; the
//! comparison shows the *shape* (how D.NE's time scales with machines,
//! edge factor and graph scale).

use std::time::Instant;

use dne_bench::datasets;
use dne_bench::table::{secs, Table};
use dne_core::{DistributedNe, NeConfig};
use dne_graph::gen::{rmat_parallel, RmatConfig};
use dne_graph::parallel::default_ingest_threads;
use dne_graph::Graph;
use dne_partition::vertex::{MetisLikePartitioner, SheepPartitioner, XtraPulpPartitioner};
use dne_partition::{EdgePartitioner, VertexToEdge};

fn baselines(seed: u64) -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(VertexToEdge::new(MetisLikePartitioner::new(seed), seed)),
        Box::new(SheepPartitioner::new()),
        Box::new(VertexToEdge::new(XtraPulpPartitioner::new(seed), seed)),
    ]
}

fn time_all(name: &str, g: &Graph, k: u32, table: &mut Table) {
    let ne = DistributedNe::new(NeConfig::default().with_seed(9));
    let (_, stats) = ne.partition_with_stats(g, k);
    table.row(vec![
        name.into(),
        k.to_string(),
        "DistributedNE".into(),
        secs(stats.elapsed),
        stats.iterations.to_string(),
    ]);
    for b in baselines(9) {
        let t = Instant::now();
        let _ = b.partition(g, k);
        table.row(vec![name.into(), k.to_string(), b.name(), secs(t.elapsed()), "-".into()]);
    }
}

fn run_real(quick: bool) {
    let ks: &[u32] = if quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64] };
    let mut table = Table::new(&["dataset", "|P|", "method", "time_s", "iterations"]);
    for d in datasets::sweep(quick) {
        let g = d.build_for(quick);
        eprintln!("{}: |E|={}", d.name, g.num_edges());
        for &k in ks {
            time_all(d.name, &g, k, &mut table);
        }
    }
    table.publish("Figure 10(a-g): elapsed time vs machines", "fig10_real");
}

fn run_ef(quick: bool) {
    let scale = if quick { 12 } else { 14 };
    let efs: &[u64] = if quick { &[4, 16, 64] } else { &[4, 16, 64, 256] };
    let mut table = Table::new(&["graph", "|P|", "method", "time_s", "iterations"]);
    for &ef in efs {
        let g = rmat_parallel(&RmatConfig::graph500(scale, ef, 5), default_ingest_threads());
        eprintln!("RMAT s{scale} ef{ef}: |E|={}", g.num_edges());
        time_all(&format!("RMAT-s{scale}-ef{ef}"), &g, 64, &mut table);
    }
    table.publish("Figure 10(h): elapsed time vs edge factor (|P| = 64)", "fig10_ef");
}

fn run_scale(quick: bool) {
    let scales: &[u32] = if quick { &[11, 12, 13] } else { &[12, 13, 14] };
    let ef = if quick { 32 } else { 64 };
    let mut table = Table::new(&["graph", "|P|", "method", "time_s", "iterations"]);
    for &s in scales {
        let g = rmat_parallel(&RmatConfig::graph500(s, ef, 5), default_ingest_threads());
        eprintln!("RMAT s{s} ef{ef}: |E|={}", g.num_edges());
        time_all(&format!("RMAT-s{s}-ef{ef}"), &g, 64, &mut table);
    }
    table.publish(
        &format!("Figure 10(i): elapsed time vs graph scale (EF {ef}, |P| = 64)"),
        "fig10_scale",
    );
}

fn run_weak(quick: bool) {
    // Fixed vertices per machine; machines ×4 per step (paper: 2^22/machine,
    // machines ∈ {4,16,64,256}, EF up to 1024 ⇒ the trillion-edge run).
    let verts_per_machine: u32 = if quick { 9 } else { 11 }; // log2
    let machines: &[u32] = if quick { &[4, 16, 64] } else { &[4, 16, 64, 256] };
    let efs: &[u64] = if quick { &[4, 16] } else { &[4, 16, 64] };
    let mut table =
        Table::new(&["machines", "EF", "|E|", "time_s", "iterations", "selection_share"]);
    for &ef in efs {
        for &p in machines {
            let scale = verts_per_machine + p.ilog2();
            let g = rmat_parallel(&RmatConfig::graph500(scale, ef, 5), default_ingest_threads());
            let ne = DistributedNe::new(NeConfig::default().with_seed(9));
            let (_, stats) = ne.partition_with_stats(&g, p);
            table.row(vec![
                p.to_string(),
                ef.to_string(),
                g.num_edges().to_string(),
                secs(stats.elapsed),
                stats.iterations.to_string(),
                format!("{:.1}%", 100.0 * stats.selection_share()),
            ]);
            eprintln!("machines {p} ef {ef}: done in {:?}", stats.elapsed);
        }
    }
    table.publish(
        &format!("Figure 10(j): weak scaling (2^{verts_per_machine} vertices/machine)"),
        "fig10_weak",
    );
}

/// The sub-experiments [`run`] accepts as sections, in run order.
pub const SECTIONS: &[&str] = &["real", "ef", "scale", "weak"];

pub fn run(quick: bool, sections: &[String]) {
    let runs: [fn(bool); 4] = [run_real, run_ef, run_scale, run_weak];
    for (name, section) in SECTIONS.iter().zip(runs) {
        if sections.is_empty() || sections.iter().any(|s| s == name) {
            section(quick);
        }
    }
}
