//! Weak-scaling demonstration toward the trillion-edge setting
//! (paper §7.4 / Figure 10(j), scaled down).
//!
//! The paper fixes 2^22 vertices per machine and grows the machine count
//! ×4 per step up to Scale30 / edge-factor 1024 — one trillion edges on
//! 256 machines in 69.7 minutes. This example runs the same experimental
//! design at laptop scale (2^10 vertices per simulated machine) and prints
//! the quantity the paper uses to explain the linear time growth: the
//! share of runtime spent in vertex selection, which rises with machine
//! count because expansion rates diverge between partitions.
//!
//! Run with: `cargo run --release --example trillion_scale_sim`

use distributed_ne::prelude::*;

fn main() {
    let verts_per_machine = 10u32; // log2; the paper uses 22
    let ef = 16u64;
    // Input graphs are built through the parallel ingestion path — at the
    // scales this sweep targets, generation + validation dominates
    // wall-clock long before the partitioner does. The output is
    // byte-identical to the serial `rmat` at every thread count.
    let threads = default_ingest_threads();
    println!(
        "weak scaling: 2^{verts_per_machine} vertices/machine, edge factor {ef} (paper: 2^22 and up to 1024); ingesting on {threads} thread(s)"
    );
    println!(
        "\n{:>9} {:>9} {:>10} {:>8} {:>10} {:>16}",
        "machines", "|V|", "|E|", "iters", "time_s", "selection_share"
    );
    for machines in [4u32, 16, 64] {
        let scale = verts_per_machine + machines.ilog2();
        let graph = rmat_parallel(&RmatConfig::graph500(scale, ef, 9), threads);
        let ne = DistributedNe::new(NeConfig::default().with_seed(9));
        let (assignment, stats) = ne.partition_with_stats(&graph, machines);
        let q = PartitionQuality::measure(&graph, &assignment);
        println!(
            "{:>9} {:>9} {:>10} {:>8} {:>10.3} {:>15.1}%  (RF {:.2})",
            machines,
            graph.num_vertices(),
            graph.num_edges(),
            stats.iterations,
            stats.elapsed.as_secs_f64(),
            100.0 * stats.selection_share(),
            q.replication_factor
        );
    }
    println!(
        "\nAs machines grow at fixed per-machine load, elapsed time rises\n\
         and vertex selection takes a growing share — the bottleneck the\n\
         paper measures at 30.3% on 256 machines (§7.4)."
    );
}
