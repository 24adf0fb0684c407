//! XtraPuLP-like direct label propagation (Slota et al., IPDPS 2017).
//!
//! "XtraPuLP is the state-of-the-art high-quality distributed vertex
//! partitioning method, where vertices are directly assigned based on Label
//! Propagation *without initial random allocation*" (paper §7.1). The
//! difference from Spinner is the initialization: PuLP grows `k` regions
//! from seeds with weighted BFS before refining, which is what lets it find
//! global structure — and also what makes it erratic on some graphs
//! (the paper notes it is "significantly worse in Twitter, Friendster and
//! RMAT graphs", a behaviour the region-growing init reproduces: on graphs
//! with one giant dense core, the seeds collapse into the core).

use crate::assignment::PartitionId;
use crate::traits::VertexPartitioner;
use crate::vertex::label_propagation_refine;
use dne_graph::hash::SplitMix64;
use dne_graph::{Adjacency, Graph, VertexId};
use std::collections::VecDeque;

/// XtraPuLP-style vertex partitioner: multi-source region growing + LP.
#[derive(Debug, Clone)]
pub struct XtraPulpPartitioner {
    seed: u64,
    /// Label-propagation sweeps after region growing.
    pub sweeps: usize,
    /// Capacity slack for the balance penalty.
    pub slack: f64,
}

impl XtraPulpPartitioner {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        Self { seed, sweeps: 30, slack: 1.10 }
    }
}

impl VertexPartitioner for XtraPulpPartitioner {
    fn name(&self) -> String {
        "XtraPuLP-like".into()
    }

    fn partition_vertices(&self, g: &Graph, k: PartitionId) -> Vec<PartitionId> {
        let n = g.num_vertices();
        let kk = k as usize;
        let mut labels = vec![PartitionId::MAX; n as usize];
        if n == 0 {
            return labels;
        }
        // Pick k distinct random seeds (fewer if the graph is tiny).
        let mut rng = SplitMix64::new(self.seed ^ 0x5055_4C50); // "PULP"
        let mut seeds: Vec<VertexId> = Vec::with_capacity(kk);
        let mut guard = 0;
        while seeds.len() < kk.min(n as usize) && guard < 64 * kk {
            guard += 1;
            let v = rng.next_below(n);
            if !seeds.contains(&v) {
                seeds.push(v);
            }
        }
        // Round-robin multi-source BFS: regions grow one hop at a time so no
        // single seed swallows the graph before others start.
        let mut queues: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); seeds.len()];
        for (p, &s) in seeds.iter().enumerate() {
            labels[s as usize] = p as PartitionId;
            queues[p].push_back(s);
        }
        let adj = Adjacency::build(g);
        let mut assigned = seeds.len() as u64;
        let mut stall_rr = 0usize;
        while assigned < n {
            let mut progressed = false;
            for p in 0..queues.len() {
                // Expand a bounded frontier slice per turn for fairness.
                let budget = (n as usize / (8 * queues.len())).max(1);
                let mut expanded = 0;
                while expanded < budget {
                    let Some(v) = queues[p].pop_front() else { break };
                    for &u in adj.of(v) {
                        if labels[u as usize] == PartitionId::MAX {
                            labels[u as usize] = p as PartitionId;
                            queues[p].push_back(u);
                            assigned += 1;
                            progressed = true;
                        }
                    }
                    expanded += 1;
                }
            }
            if !progressed {
                // Disconnected remainder: start a new front, rotating over
                // partitions so isolated components spread evenly.
                for v in 0..n {
                    if labels[v as usize] == PartitionId::MAX {
                        let p = stall_rr % kk;
                        labels[v as usize] = p as PartitionId;
                        queues[p].push_back(v);
                        assigned += 1;
                        stall_rr += 1;
                        break; // one new front per stall, then resume BFS
                    }
                }
            }
        }
        label_propagation_refine(g, &adj, &mut labels, kk, self.sweeps, self.slack);
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::PartitionQuality;
    use crate::traits::{EdgePartitioner, VertexToEdge};
    use dne_graph::gen;

    #[test]
    fn all_vertices_labeled() {
        let g = gen::rmat(&gen::RmatConfig::graph500(8, 4, 1));
        let labels = XtraPulpPartitioner::new(1).partition_vertices(&g, 8);
        assert!(labels.iter().all(|&p| p < 8));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = gen::ring_complete(6); // two components
        let labels = XtraPulpPartitioner::new(2).partition_vertices(&g, 4);
        assert!(labels.iter().all(|&p| p < 4));
    }

    #[test]
    fn good_on_road_like_graphs() {
        // The paper: XtraPuLP is strong on WebUK/road-like inputs. A lattice
        // has clean geometric cuts that region growing finds.
        let g = gen::road_grid(24, 24, 1.0, 0.0, 3);
        let conv = VertexToEdge::new(XtraPulpPartitioner::new(1), 1);
        let q = PartitionQuality::measure(&g, &conv.partition(&g, 4));
        assert!(q.replication_factor < 1.5, "RF {}", q.replication_factor);
    }

    #[test]
    fn deterministic() {
        let g = gen::cycle(40);
        let a = XtraPulpPartitioner::new(7).partition_vertices(&g, 4);
        let b = XtraPulpPartitioner::new(7).partition_vertices(&g, 4);
        assert_eq!(a, b);
    }
}
