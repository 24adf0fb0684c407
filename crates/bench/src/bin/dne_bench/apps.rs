//! Graphalytics-style application-suite benchmark: the six kernels (BFS,
//! SSSP, WCC, PageRank, LCC, Triangles) over the Table 2 dataset stand-ins,
//! partitioned by Distributed NE.
//!
//! One TSV row per (dataset, kernel) in the shape LDBC Graphalytics
//! reports use: graph size, machine count, partition quality (RF / EB as
//! measured by `PartitionQuality`), then the run metrics — iterations
//! (supersteps for the value-propagation kernels, exchange rounds for the
//! adjacency kernels), exact communicated bytes, and the wall time of the
//! parallel section.
//!
//! `DNE_TRANSPORT` / `DNE_COLLECTIVES` / `DNE_GRAPH_STORAGE` select the
//! runtime cell exactly as everywhere else; kernel results are
//! reference-checked across that whole matrix by `tests/app_suite.rs`, so
//! this binary reports timings only.

use dne_apps::verify::Kernel;
use dne_apps::Engine;
use dne_bench::datasets;
use dne_bench::table::{f2, secs, Table};
use dne_core::{DistributedNe, NeConfig};
use dne_partition::{EdgePartitioner, PartitionQuality};

pub fn run(quick: bool, _sections: &[String]) {
    let k = if quick { 8 } else { 64 };
    let pr_iters = if quick { 10 } else { 100 };
    let kernels = [
        Kernel::Bfs { source: 0 },
        Kernel::Sssp { source: 0 },
        Kernel::Wcc,
        Kernel::PageRank { iters: pr_iters },
        Kernel::Lcc,
        Kernel::Triangles,
    ];
    let mut t =
        Table::new(&["dataset", "kernel", "V", "E", "P", "RF", "EB", "iters", "comm_B", "ET_s"]);
    for d in datasets::sweep(quick) {
        let g = d.build_for(quick);
        eprintln!("{}: |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        let a = DistributedNe::new(NeConfig::default().with_seed(17)).partition(&g, k);
        let q = PartitionQuality::measure(&g, &a);
        let engine = Engine::new(&g, &a);
        for kernel in kernels {
            let run = kernel.run(&engine);
            t.row(vec![
                d.name.into(),
                run.name.clone(),
                g.num_vertices().to_string(),
                g.num_edges().to_string(),
                k.to_string(),
                f2(q.replication_factor),
                f2(q.edge_balance),
                run.supersteps.to_string(),
                run.comm_bytes.to_string(),
                secs(run.elapsed),
            ]);
        }
    }
    t.publish(
        &format!("Application suite (Graphalytics-style): |P| = {k}, PageRank({pr_iters})"),
        "app_suite",
    );
}
