//! Table 5 reproduction: effect of the partitioning method on distributed
//! graph applications (SSSP, WCC, PageRank).
//!
//! For each stand-in and each PowerLyra-style method (Random, 2D-Random,
//! Oblivious, Hybrid Ginger, Distributed NE) this reports:
//! * partition quality: RF / EB (edge balance) / VB (vertex balance);
//! * per application: ET (elapsed seconds), COM (bytes moved), WB
//!   (workload balance).
//!
//! Paper findings to reproduce: Distributed NE has the lowest RF and COM
//! everywhere, which translates into the best ET with the biggest margin
//! on PageRank (communication-heavy) and the smallest on SSSP
//! (communication-light); its VB is the loosest but that does not hurt ET.

use dne_apps::Engine;
use dne_bench::datasets;
use dne_bench::suite::table5_roster;
use dne_bench::table::{f2, secs, Table};
use dne_partition::PartitionQuality;

pub fn run(quick: bool, _sections: &[String]) {
    let k = if quick { 16 } else { 64 };
    let pr_iters = if quick { 20 } else { 100 };
    let mut quality = Table::new(&["dataset", "method", "RF", "EB", "VB"]);
    let mut apps = Table::new(&["dataset", "method", "app", "ET_s", "COM_MB", "WB"]);
    for d in datasets::sweep(quick) {
        let g = d.build_for(quick);
        eprintln!("{}: |E|={}", d.name, g.num_edges());
        for m in table5_roster(17) {
            let a = m.partition(&g, k);
            let q = PartitionQuality::measure(&g, &a);
            quality.row(vec![
                d.name.into(),
                m.name(),
                f2(q.replication_factor),
                f2(q.edge_balance),
                f2(q.vertex_balance),
            ]);
            let engine = Engine::new(&g, &a);
            let runs = [engine.sssp(0), engine.wcc(), engine.pagerank(pr_iters)];
            for run in runs {
                apps.row(vec![
                    d.name.into(),
                    m.name(),
                    run.name.clone(),
                    secs(run.elapsed),
                    format!("{:.2}", run.comm_bytes as f64 / 1e6),
                    f2(run.workload_balance),
                ]);
            }
        }
    }
    quality.publish(&format!("Table 5 (quality): |P| = {k}"), "table5_quality");
    apps.publish(
        &format!("Table 5 (applications): SSSP / WCC / PageRank({pr_iters})"),
        "table5_apps",
    );
}
