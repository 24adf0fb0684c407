//! Sheep-like elimination-tree edge partitioning (Margo & Seltzer,
//! VLDB 2015).
//!
//! "Sheep is the state-of-the-art distributed edge partition method, where
//! the graph is parallelly translated into the elimination tree before
//! applying tree partitioning" (paper §2.2). The algorithmic core
//! reproduced here:
//!
//! 1. rank vertices by ascending degree (Sheep's elimination order);
//! 2. approximate the elimination tree: `parent(v)` = the lowest-ranked
//!    neighbor of `v` ranked above `v` (Sheep's own practical
//!    approximation of the fill-in tree);
//! 3. map every edge to the tree node of its lower-ranked endpoint;
//! 4. partition the forest by cutting its Euler tour into `k` contiguous
//!    chunks of (approximately) equal owned-edge mass — subtrees stay
//!    contiguous, which is where Sheep's locality comes from.
//!
//! Figure 8 shows Sheep strong on some graphs (Twitter, Flickr) and weak on
//! others (Pokec, Orkut, Friendster); the indirect tree objective has the
//! same character here.

use crate::assignment::{EdgeAssignment, PartitionId};
use crate::traits::EdgePartitioner;
use dne_graph::{Adjacency, Graph, VertexId};

/// Sheep-style elimination-tree edge partitioner.
#[derive(Debug, Clone)]
pub struct SheepPartitioner {
    /// Imbalance factor on owned-edge mass per chunk.
    pub alpha: f64,
}

impl SheepPartitioner {
    /// Default construction (α = 1.1 like the other methods).
    pub fn new() -> Self {
        Self { alpha: 1.1 }
    }
}

impl Default for SheepPartitioner {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgePartitioner for SheepPartitioner {
    fn name(&self) -> String {
        "Sheep-like".into()
    }

    fn partition(&self, g: &Graph, k: PartitionId) -> EdgeAssignment {
        let n = g.num_vertices() as usize;
        let m = g.num_edges();
        if m == 0 {
            return EdgeAssignment::new(vec![], k);
        }
        // 1. Elimination order: ascending degree, ties by id.
        let mut order: Vec<VertexId> = (0..g.num_vertices()).collect();
        order.sort_unstable_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0u64; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u64;
        }
        // 2. Approximate elimination-tree parents.
        const ROOT: u32 = u32::MAX;
        let mut parent = vec![ROOT; n];
        let adj = Adjacency::build(g);
        for v in g.vertices() {
            let rv = rank[v as usize];
            let mut best: Option<(u64, VertexId)> = None;
            for &u in adj.of(v) {
                let ru = rank[u as usize];
                if ru > rv && best.is_none_or(|(br, _)| ru < br) {
                    best = Some((ru, u));
                }
            }
            if let Some((_, u)) = best {
                parent[v as usize] = u as u32;
            }
        }
        // 3. Owned-edge count per tree node (lower-ranked endpoint owns).
        let mut owned = vec![0u64; n];
        for e in 0..m {
            let (u, v) = g.edge(e);
            let owner = if rank[u as usize] < rank[v as usize] { u } else { v };
            owned[owner as usize] += 1;
        }
        // 4. Euler tour of the forest (children grouped under parents),
        //    then cut the tour into k chunks of ~|E|/k owned mass.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut roots: Vec<u32> = Vec::new();
        // Attach children in descending rank so the tour visits the heavy
        // elimination spine first (roots are the highest-ranked vertices).
        for &v in order.iter().rev() {
            let p = parent[v as usize];
            if p == ROOT {
                roots.push(v as u32);
            } else {
                children[p as usize].push(v as u32);
            }
        }
        let mut tour: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<u32> = Vec::new();
        for &r in &roots {
            stack.push(r);
            while let Some(v) = stack.pop() {
                tour.push(v);
                for &c in &children[v as usize] {
                    stack.push(c);
                }
            }
        }
        debug_assert_eq!(tour.len(), n);
        // Cut the tour by owned-mass prefix sums.
        let cap = (self.alpha * m as f64 / k as f64).ceil() as u64;
        let mut vertex_part = vec![0 as PartitionId; n];
        let mut p = 0 as PartitionId;
        let mut acc = 0u64;
        for &v in &tour {
            if acc >= cap && p + 1 < k {
                p += 1;
                acc = 0;
            }
            vertex_part[v as usize] = p;
            acc += owned[v as usize];
        }
        // 5. Edges inherit their owner node's chunk.
        EdgeAssignment::from_fn(g, k, |e| {
            let (u, v) = g.edge(e);
            let owner = if rank[u as usize] < rank[v as usize] { u } else { v };
            vertex_part[owner as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_based::RandomPartitioner;
    use crate::quality::PartitionQuality;
    use dne_graph::gen;

    #[test]
    fn covers_all_edges() {
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 1));
        let a = SheepPartitioner::new().partition(&g, 8);
        assert!(a.is_valid_for(&g));
    }

    #[test]
    fn beats_random_on_skewed_graphs() {
        let g = gen::rmat(&gen::RmatConfig::graph500(10, 8, 2));
        let qs = PartitionQuality::measure(&g, &SheepPartitioner::new().partition(&g, 16));
        let qr = PartitionQuality::measure(&g, &RandomPartitioner::new(1).partition(&g, 16));
        assert!(
            qs.replication_factor < qr.replication_factor,
            "Sheep-like {} should beat Random {}",
            qs.replication_factor,
            qr.replication_factor
        );
    }

    #[test]
    fn good_on_trees_by_construction() {
        // A path IS its own elimination spine: contiguous chunks cut only
        // at k-1 places → RF ≈ 1.
        let g = gen::path(1000);
        let q = PartitionQuality::measure(&g, &SheepPartitioner::new().partition(&g, 4));
        assert!(q.replication_factor < 1.1, "RF {}", q.replication_factor);
    }

    #[test]
    fn balance_is_respected() {
        let g = gen::rmat(&gen::RmatConfig::graph500(9, 8, 4));
        let q = PartitionQuality::measure(&g, &SheepPartitioner::new().partition(&g, 8));
        // Chunking by owned mass with α slack; hubs can overshoot a bit.
        assert!(q.edge_balance < 2.0, "edge balance {}", q.edge_balance);
    }

    #[test]
    fn deterministic() {
        let g = gen::cycle(50);
        assert_eq!(
            SheepPartitioner::new().partition(&g, 4),
            SheepPartitioner::new().partition(&g, 4)
        );
    }
}
