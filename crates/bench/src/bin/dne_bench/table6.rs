//! Table 6 reproduction: replication factor on non-skewed road networks.
//!
//! Paper findings to reproduce: the direct optimizers (ParMETIS-like,
//! Sheep-like, XtraPuLP-like, Distributed NE) all land near RF = 1.0 on
//! road networks, while the hash family stays at 2–4 — i.e. Distributed NE
//! is *also* fine on non-skewed graphs, but classic vertex partitioning is
//! already good there (the paper's point in §7.7).

use dne_bench::datasets::road_networks;
use dne_bench::suite::full_roster;
use dne_bench::table::{f2, Table};
use dne_partition::PartitionQuality;

pub fn run(quick: bool, _sections: &[String]) {
    let k = 64;
    let mut table = Table::new(&["network", "|V|", "|E|", "method", "RF"]);
    for (name, g) in road_networks(quick) {
        eprintln!("{name}: |V|={} |E|={}", g.num_vertices(), g.num_edges());
        for m in full_roster(13) {
            let a = m.partition(&g, k);
            let q = PartitionQuality::measure(&g, &a);
            table.row(vec![
                name.into(),
                g.num_vertices().to_string(),
                g.num_edges().to_string(),
                m.name(),
                f2(q.replication_factor),
            ]);
        }
    }
    table.publish(&format!("Table 6: RF on road networks (|P| = {k})"), "table6_roads");
}
