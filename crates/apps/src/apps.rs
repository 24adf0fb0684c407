//! The benchmark applications (paper §7.6 plus the Graphalytics-style
//! extensions) and their sequential reference implementations.
//!
//! The paper's three workloads:
//!
//! * **SSSP** — single-source shortest path on the unweighted graph
//!   ("the lightest workload and only involves a few communications").
//! * **WCC** — weakly connected components by min-label propagation
//!   ("medium").
//! * **PageRank** — fixed-iteration PageRank ("the heaviest, where all the
//!   vertices send messages to their destinations in every iteration";
//!   the paper runs 100 iterations).
//!
//! The Graphalytics-grade additions (LDBC Graphalytics judges partitioners
//! by exactly this kernel set):
//!
//! * **BFS** — level-synchronous breadth-first search: `values[v]` is the
//!   hop count from the source (on this unweighted graph, BFS levels and
//!   SSSP distances coincide — a cross-kernel invariant the property
//!   tests assert).
//! * **Triangles** — exact per-vertex triangle counts plus the global
//!   count, via a three-round adjacency-exchange kernel
//!   ([`crate::Engine::run_triangles_rank`]).
//! * **LCC** — local clustering coefficient
//!   `2·T(v) / (d(v)·(d(v)−1))`, derived from the same exact counts.
//!
//! The distributed engine computes over `V(E)` (vertices with at least one
//! edge); isolated vertices keep their initial value in both the engine and
//! the references (0 for the counting kernels), so results compare exactly.

use std::collections::VecDeque;

use dne_graph::{Adjacency, Graph, VertexId};

use crate::engine::{lcc_value, AppRun, Combine, Engine, VertexProgram};

/// The vertex program behind [`VertexProgram::sssp`] and
/// [`VertexProgram::bfs`]: on an unweighted graph both relax
/// `min(dist(u) + 1)` level-synchronously and differ only in their report
/// name.
fn hop_program(name: &'static str, source: VertexId) -> VertexProgram {
    fn init(v: VertexId, _d: u64, source: f64) -> f64 {
        if v == source as VertexId {
            0.0
        } else {
            f64::INFINITY
        }
    }
    fn edge(x: f64, _d: u64) -> f64 {
        x + 1.0
    }
    fn apply(old: f64, acc: Option<f64>) -> f64 {
        match acc {
            Some(a) => old.min(a),
            None => old,
        }
    }
    VertexProgram {
        name,
        combine: Combine::Min,
        init,
        param: source as f64,
        edge_fn: edge,
        apply,
        fixed_supersteps: None,
        frontier_only: true,
    }
}

impl VertexProgram {
    /// The BFS program (level-synchronous hop counts from `source`).
    pub fn bfs(source: VertexId) -> VertexProgram {
        hop_program("BFS", source)
    }

    /// The SSSP program (unit-weight distances from `source`).
    pub fn sssp(source: VertexId) -> VertexProgram {
        hop_program("SSSP", source)
    }

    /// The WCC program (min-label propagation).
    pub fn wcc() -> VertexProgram {
        fn init(v: VertexId, _d: u64, _p: f64) -> f64 {
            v as f64
        }
        fn edge(x: f64, _d: u64) -> f64 {
            x
        }
        fn apply(old: f64, acc: Option<f64>) -> f64 {
            match acc {
                Some(a) => old.min(a),
                None => old,
            }
        }
        VertexProgram {
            name: "WCC",
            combine: Combine::Min,
            init,
            param: 0.0,
            edge_fn: edge,
            apply,
            fixed_supersteps: None,
            frontier_only: true,
        }
    }

    /// The PageRank program (`iters` synchronous iterations, damping
    /// 0.85, unnormalized per-vertex formulation on the undirected graph).
    pub fn pagerank(iters: u64) -> VertexProgram {
        fn init(_v: VertexId, _d: u64, _p: f64) -> f64 {
            1.0
        }
        fn edge(x: f64, d: u64) -> f64 {
            x / d as f64
        }
        fn apply(_old: f64, acc: Option<f64>) -> f64 {
            0.15 + 0.85 * acc.unwrap_or(0.0)
        }
        VertexProgram {
            name: "PageRank",
            combine: Combine::Sum,
            init,
            param: 0.0,
            edge_fn: edge,
            apply,
            fixed_supersteps: Some(iters),
            frontier_only: false,
        }
    }
}

impl Engine<'_> {
    /// Distributed SSSP from `source` (unweighted hop distances).
    pub fn sssp(&self, source: VertexId) -> AppRun {
        self.run(&VertexProgram::sssp(source))
    }

    /// Distributed level-synchronous BFS from `source`: `values[v]` is the
    /// level (hop count) at which `v` is first reached,
    /// `f64::INFINITY` for unreachable vertices. Each superstep expands
    /// exactly one frontier level (`frontier_only` gathering), so the
    /// superstep count is `eccentricity(source) + 1` on the source's
    /// component.
    pub fn bfs(&self, source: VertexId) -> AppRun {
        self.run(&VertexProgram::bfs(source))
    }

    /// Distributed WCC: every vertex converges to the minimum vertex id of
    /// its connected component.
    pub fn wcc(&self) -> AppRun {
        self.run(&VertexProgram::wcc())
    }

    /// Distributed PageRank with `iters` synchronous iterations
    /// (damping 0.85; unnormalized per-vertex formulation on the
    /// undirected graph, as in vertex-cut engines).
    pub fn pagerank(&self, iters: u64) -> AppRun {
        self.run(&VertexProgram::pagerank(iters))
    }
}

/// Sequential BFS reference for SSSP (hop distances; isolated and
/// unreachable vertices stay at `f64::INFINITY`).
pub fn sssp_reference(g: &Graph, source: VertexId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.num_vertices() as usize];
    dist[source as usize] = 0.0;
    let adj = Adjacency::build(g);
    let mut q = VecDeque::new();
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        for &u in adj.of(v) {
            if dist[u as usize].is_infinite() {
                dist[u as usize] = dist[v as usize] + 1.0;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Sequential level-synchronous BFS reference: expand one whole frontier
/// per level, like the distributed kernel expands one frontier per
/// superstep. Levels equal [`sssp_reference`] distances on this unweighted
/// graph — the implementations differ (frontier sweeps vs a FIFO queue)
/// precisely so that agreement is evidence, not tautology.
pub fn bfs_reference(g: &Graph, source: VertexId) -> Vec<f64> {
    let mut level = vec![f64::INFINITY; g.num_vertices() as usize];
    level[source as usize] = 0.0;
    let adj = Adjacency::build(g);
    let mut frontier = vec![source];
    let mut depth = 0.0f64;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in adj.of(v) {
                if level[u as usize].is_infinite() {
                    level[u as usize] = depth;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    level
}

/// Sequential reference for WCC (min vertex id per component; isolated
/// vertices are their own component).
pub fn wcc_reference(g: &Graph) -> Vec<f64> {
    dne_graph::transform::component_labels(g).into_iter().map(|l| l as f64).collect()
}

/// Sequential reference for the engine's PageRank formulation (isolated
/// vertices keep their initial value 1.0, matching the engine's
/// vertices-with-edges-only execution).
pub fn pagerank_reference(g: &Graph, iters: u64) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let mut pr = vec![1.0f64; n];
    let mut next = vec![0.0f64; n];
    let adj = Adjacency::build(g);
    for _ in 0..iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        for v in g.vertices() {
            let d = g.degree(v);
            if d == 0 {
                continue;
            }
            let share = pr[v as usize] / d as f64;
            for &u in adj.of(v) {
                next[u as usize] += share;
            }
        }
        for v in g.vertices() {
            if g.degree(v) > 0 {
                pr[v as usize] = 0.15 + 0.85 * next[v as usize];
            }
        }
    }
    pr
}

/// Exact per-vertex triangle counts on the raw graph: `counts[v]` is the
/// number of triangles containing `v` (0 for isolated vertices), computed
/// by sorted-intersection over every edge — the textbook edge-iterator
/// algorithm, structurally unlike the distributed three-round kernel.
/// The global triangle count is `Σ_v counts[v] / 3`
/// ([`triangle_total`]).
pub fn triangles_reference(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    // A neighbour list is two ascending runs (smaller neighbours, then
    // larger) in edge-id order, so it is ascending as a whole.
    let sorted = Adjacency::build(g);
    let mut charge = vec![0u64; n];
    g.for_each_edge(|_, u, v| {
        let t = sorted.of(u).iter().filter(|w| sorted.of(v).binary_search(w).is_ok());
        let t = t.count() as u64;
        charge[u as usize] += t;
        charge[v as usize] += t;
    });
    // Each triangle at v is charged once by each of its two edges at v.
    charge.iter().map(|&c| (c / 2) as f64).collect()
}

/// The global triangle count implied by per-vertex counts (each triangle
/// has three corners).
pub fn triangle_total(per_vertex: &[f64]) -> f64 {
    per_vertex.iter().sum::<f64>() / 3.0
}

/// Sequential local-clustering-coefficient reference:
/// `2·T(v) / (d(v)·(d(v)−1))` for `d(v) ≥ 2`, else 0. Evaluates the
/// identical floating-point expression as the distributed kernel over the
/// exact [`triangles_reference`] counts, so the two agree to the last bit
/// on every platform with IEEE-754 doubles.
pub fn lcc_reference(g: &Graph) -> Vec<f64> {
    triangles_reference(g)
        .iter()
        .enumerate()
        .map(|(v, &t)| lcc_value(t as u64, g.degree(v as VertexId)))
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use dne_graph::{gen, EdgeListBuilder};
    use dne_partition::hash_based::RandomPartitioner;
    use dne_partition::EdgePartitioner;

    #[test]
    fn sssp_reference_on_path() {
        let g = gen::path(5);
        let d = sssp_reference(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn bfs_reference_matches_sssp_reference() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 2));
        assert_eq!(bfs_reference(&g, 0), sssp_reference(&g, 0));
    }

    #[test]
    fn wcc_reference_on_two_components() {
        let g = gen::ring_complete(4); // clique 0..4, ring 4..10
        let l = wcc_reference(&g);
        assert!(l[0..4].iter().all(|&x| x == 0.0));
        assert!(l[4..].iter().all(|&x| x == 4.0));
    }

    #[test]
    fn pagerank_reference_uniform_on_cycle() {
        // On a regular graph, PR converges to a uniform value = 1.0.
        let g = gen::cycle(10);
        let pr = pagerank_reference(&g, 50);
        for &x in &pr {
            assert!((x - 1.0).abs() < 1e-9, "cycle PR should be 1.0, got {x}");
        }
    }

    #[test]
    fn references_agree_on_a_chunk_streamed_reopen() {
        // Every reference derives what it walks, so the backend that keeps
        // nothing but the edge stream answers like the in-memory graph.
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 6));
        let dir = std::env::temp_dir().join(format!("dne-apps-refs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.chunks");
        dne_graph::io::write_chunked(&g, &path, 50).unwrap();
        let s =
            dne_graph::io::open_chunked_with(&path, dne_graph::StorageKind::ChunkStreamed).unwrap();
        assert_eq!(sssp_reference(&s, 3), sssp_reference(&g, 3));
        assert_eq!(bfs_reference(&s, 3), bfs_reference(&g, 3));
        assert_eq!(wcc_reference(&s), wcc_reference(&g));
        assert_eq!(pagerank_reference(&s, 5), pagerank_reference(&g, 5));
        assert_eq!(triangles_reference(&s), triangles_reference(&g));
        assert_eq!(lcc_reference(&s), lcc_reference(&g));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn triangle_reference_on_known_shapes() {
        // A clique on 5 vertices has C(5,3) = 10 triangles, C(4,2) = 6 per
        // vertex; a cycle has none.
        let clique = gen::complete(5);
        let t = triangles_reference(&clique);
        assert!(t.iter().all(|&x| x == 6.0));
        assert_eq!(triangle_total(&t), 10.0);
        assert!(triangles_reference(&gen::cycle(8)).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn lcc_reference_on_known_shapes() {
        // Clique: every LCC is 1. Path interior vertex: two unlinked
        // neighbors, LCC 0. Triangle with a tail: the tail's endpoint has
        // degree 1 → 0, the junction has degree 3 and one linked pair
        // → 2·1/(3·2) = 1/3.
        assert!(lcc_reference(&gen::complete(4)).iter().all(|&x| x == 1.0));
        assert!(lcc_reference(&gen::path(4)).iter().all(|&x| x == 0.0));
        let mut b = EdgeListBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let g = b.into_graph(4);
        let lcc = lcc_reference(&g);
        assert_eq!(lcc, vec![1.0, 1.0, 1.0 / 3.0, 0.0]);
    }

    #[test]
    fn engine_sssp_matches_reference() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 1));
        let a = RandomPartitioner::new(1).partition(&g, 4);
        let eng = Engine::new(&g, &a);
        let run = eng.sssp(0);
        let want = sssp_reference(&g, 0);
        for v in 0..g.num_vertices() as usize {
            if g.degree(v as u64) > 0 {
                assert_eq!(run.values[v], want[v], "vertex {v}");
            }
        }
        assert!(run.comm_bytes > 0);
    }

    #[test]
    fn engine_bfs_matches_reference() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 8));
        let a = RandomPartitioner::new(8).partition(&g, 4);
        let run = Engine::new(&g, &a).bfs(1);
        assert_eq!(run.values, bfs_reference(&g, 1));
    }

    #[test]
    fn engine_wcc_matches_reference() {
        let g = gen::ring_complete(5);
        let a = RandomPartitioner::new(2).partition(&g, 4);
        let run = Engine::new(&g, &a).wcc();
        let want = wcc_reference(&g);
        for v in 0..g.num_vertices() as usize {
            assert_eq!(run.values[v], want[v], "vertex {v}");
        }
    }

    #[test]
    fn engine_pagerank_matches_reference() {
        let g = gen::rmat(&gen::RmatConfig::graph500(6, 4, 3));
        let a = RandomPartitioner::new(3).partition(&g, 4);
        let run = Engine::new(&g, &a).pagerank(10);
        let want = pagerank_reference(&g, 10);
        for v in 0..g.num_vertices() as usize {
            if g.degree(v as u64) > 0 {
                assert!(
                    (run.values[v] - want[v]).abs() < 1e-9,
                    "vertex {v}: engine {} vs reference {}",
                    run.values[v],
                    want[v]
                );
            }
        }
        assert_eq!(run.supersteps, 10);
    }

    #[test]
    fn engine_triangles_and_lcc_match_references() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 6, 4));
        let a = RandomPartitioner::new(4).partition(&g, 4);
        let eng = Engine::new(&g, &a);
        let tri = eng.triangles();
        assert_eq!(tri.values, triangles_reference(&g), "per-vertex triangle counts");
        assert_eq!(tri.aggregate, Some(triangle_total(&tri.values)), "global count");
        let lcc = eng.lcc();
        let want = lcc_reference(&g);
        for v in 0..g.num_vertices() as usize {
            assert_eq!(
                lcc.values[v].to_bits(),
                want[v].to_bits(),
                "vertex {v}: identical expression over exact counts must round identically"
            );
        }
    }
}
