//! Figure 8 reproduction: replication factor of the real-world stand-ins
//! (a–g, |P| ∈ {4..64}) and of RMAT graphs across edge factors (h–j,
//! |P| = 64).
//!
//! Paper findings to reproduce:
//! * Distributed NE gives the lowest RF nearly everywhere, with the margin
//!   growing for more partitions and denser graphs;
//! * hash-family methods (Random, 2D, Oblivious, Ginger, Spinner) trail;
//! * indirect methods (Sheep, XtraPuLP) are strong only on some graphs;
//! * RF grows with the edge factor but is insensitive to the RMAT scale at
//!   a fixed edge factor (Fig 8h–j).

use dne_bench::datasets;
use dne_bench::suite::figure8_roster;
use dne_bench::table::{f2, Table};
use dne_graph::gen::{rmat_parallel, RmatConfig};
use dne_graph::parallel::default_ingest_threads;
use dne_partition::PartitionQuality;

pub fn run(quick: bool, _sections: &[String]) {
    let seed = 7;
    // --- Fig 8(a–g): real-world stand-ins across partition counts.
    let ks: &[u32] = if quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64] };
    let mut table = Table::new(&["dataset", "|P|", "method", "RF", "EB"]);
    for d in datasets::sweep(quick) {
        let g = d.build_for(quick);
        eprintln!("{}: |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for &k in ks {
            for m in figure8_roster(seed) {
                let a = m.partition(&g, k);
                let q = PartitionQuality::measure(&g, &a);
                table.row(vec![
                    d.name.into(),
                    k.to_string(),
                    m.name(),
                    f2(q.replication_factor),
                    f2(q.edge_balance),
                ]);
            }
        }
    }
    table.publish("Figure 8(a-g): RF of real-world stand-ins", "fig8_real");

    // --- Fig 8(h–j): RMAT scales × edge factors at fixed |P| = 64.
    let scales: &[u32] = if quick { &[12, 13] } else { &[12, 13, 14] };
    let efs: &[u64] = if quick { &[4, 16, 64] } else { &[4, 16, 64, 256] };
    let k = 64;
    let mut table2 = Table::new(&["scale", "EF", "method", "RF"]);
    for &scale in scales {
        for &ef in efs {
            let g = rmat_parallel(&RmatConfig::graph500(scale, ef, seed), default_ingest_threads());
            eprintln!("RMAT s{scale} ef{ef}: |V|={} |E|={}", g.num_vertices(), g.num_edges());
            for m in figure8_roster(seed) {
                let a = m.partition(&g, k);
                let q = PartitionQuality::measure(&g, &a);
                table2.row(vec![
                    scale.to_string(),
                    ef.to_string(),
                    m.name(),
                    f2(q.replication_factor),
                ]);
            }
        }
    }
    table2.publish(&format!("Figure 8(h-j): RF of RMAT graphs (|P| = {k})"), "fig8_rmat");
}
