//! Table 4 reproduction: Distributed NE vs the sequential state of the art
//! (HDRF, NE, SNE) on the four mid-size graphs, 64 partitions.
//!
//! Paper findings to reproduce: offline NE has the best RF; Distributed NE
//! is close behind (between NE and SNE); HDRF is clearly worse; and
//! Distributed NE's wall time beats the sequential algorithms by 1–2
//! orders of magnitude (here the parallelism is simulated on one host, so
//! the speed-up is bounded by the core count — the *ordering* is the
//! reproducible claim).

use std::time::Instant;

use dne_bench::datasets;
use dne_bench::suite::table4_roster;
use dne_bench::table::{f2, secs, Table};
use dne_core::{DistributedNe, NeConfig};
use dne_partition::PartitionQuality;

pub fn run(quick: bool, _sections: &[String]) {
    let k = 64;
    let mut table = Table::new(&["dataset", "method", "RF", "time_s"]);
    for d in datasets::midsize() {
        let g = d.build_for(quick);
        eprintln!("{}: |E|={}", d.name, g.num_edges());
        for m in table4_roster(11) {
            let t = Instant::now();
            let a = m.partition(&g, k);
            let elapsed = t.elapsed();
            let q = PartitionQuality::measure(&g, &a);
            table.row(vec![d.name.into(), m.name(), f2(q.replication_factor), secs(elapsed)]);
        }
        let ne = DistributedNe::new(NeConfig::default().with_seed(11));
        let (a, stats) = ne.partition_with_stats(&g, k);
        let q = PartitionQuality::measure(&g, &a);
        table.row(vec![
            d.name.into(),
            "DistributedNE".into(),
            f2(q.replication_factor),
            secs(stats.elapsed),
        ]);
    }
    table.publish(
        &format!("Table 4: comparison with sequential algorithms (|P| = {k})"),
        "table4_sequential",
    );
}
