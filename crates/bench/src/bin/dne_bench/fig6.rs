//! Figure 6 reproduction: number of iterations and replication factor as a
//! function of the expansion factor λ (32 partitions, 4 mid-size graphs).
//!
//! Paper findings to reproduce: iterations decrease roughly linearly in
//! log-λ (fewer than ~10 iterations at λ = 1); RF is flat-to-slightly-
//! decreasing from λ = 1e-4 to 1e-1 and degrades at λ = 1.0, motivating
//! the default λ = 0.1.

use dne_bench::datasets;
use dne_bench::table::{f2, Table};
use dne_core::{DistributedNe, NeConfig};
use dne_partition::PartitionQuality;

pub fn run(quick: bool, _sections: &[String]) {
    let k = 32;
    let lambdas = [1e-4, 1e-3, 1e-2, 1e-1, 1.0];
    let mut table = Table::new(&["dataset", "lambda", "iterations", "RF"]);
    for d in datasets::midsize() {
        let g = d.build_for(quick);
        eprintln!("{}: |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for &lambda in &lambdas {
            let ne = DistributedNe::new(NeConfig::default().with_seed(7).with_lambda(lambda));
            let (a, stats) = ne.partition_with_stats(&g, k);
            let q = PartitionQuality::measure(&g, &a);
            table.row(vec![
                d.name.to_string(),
                format!("{lambda:.0e}"),
                stats.iterations.to_string(),
                f2(q.replication_factor),
            ]);
        }
    }
    table.publish(
        &format!("Figure 6: iterations and RF vs expansion factor (|P| = {k})"),
        "fig6_lambda",
    );
}
