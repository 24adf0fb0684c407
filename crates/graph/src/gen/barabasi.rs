//! Barabási–Albert preferential attachment — an alternative skewed-graph
//! model to RMAT.
//!
//! The paper's difficulty driver is degree skew, not the specific
//! generative process; providing a second power-law model lets the test
//! suite check that Distributed NE's quality advantage is not an RMAT
//! artifact (growth models yield exponent α ≈ 3 with different clustering
//! structure than Kronecker-style recursion).

use crate::hash::SplitMix64;
use crate::types::VertexId;
use crate::{EdgeListBuilder, Graph};

/// The sequential growth process shared by [`barabasi_albert`] and
/// [`barabasi_albert_parallel`]: preferential attachment is inherently
/// serial (each new vertex samples from the degree distribution *so far*),
/// so both variants grow the same raw edge stream and differ only in how
/// the builder finalizes it.
fn grow(n: VertexId, m: u64, seed: u64) -> EdgeListBuilder {
    assert!(m >= 1, "need at least one attachment per vertex");
    assert!(n > m, "need more vertices than attachments");
    let mut rng = SplitMix64::new(seed ^ 0x4241_6765_6E21); // "BAgen!"
    let mut b = EdgeListBuilder::with_capacity((n * m) as usize);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportional to degree (the classic implementation).
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * (n * m) as usize);
    // Seed clique over the first m+1 vertices.
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.push(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (m + 1)..n {
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m as usize);
        let mut guard = 0;
        while (chosen.len() as u64) < m && guard < 32 * m {
            guard += 1;
            let t = endpoints[rng.next_below(endpoints.len() as u64) as usize];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.push(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b
}

/// Barabási–Albert graph: start from a small clique, then attach each new
/// vertex to `m` existing vertices chosen proportionally to degree.
///
/// `n` total vertices, `m ≥ 1` attachments per new vertex; the seed makes
/// the growth deterministic.
pub fn barabasi_albert(n: VertexId, m: u64, seed: u64) -> Graph {
    grow(n, m, seed).into_graph(n)
}

/// Barabási–Albert graph finalized with up to `threads` threads;
/// byte-identical to [`barabasi_albert`] for every thread count.
///
/// The growth itself stays sequential (each attachment samples the degree
/// distribution produced by all previous attachments — there is no
/// independent sample stream to chunk), so this variant parallelizes the
/// expensive downstream half of ingestion: canonicalization, sort,
/// merge-dedup, validation and degree counting.
pub fn barabasi_albert_parallel(n: VertexId, m: u64, seed: u64, threads: usize) -> Graph {
    grow(n, m, seed).build_parallel(n, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::degree_stats;

    #[test]
    fn sizes_are_as_expected() {
        let g = barabasi_albert(1000, 3, 1);
        assert_eq!(g.num_vertices(), 1000);
        // Clique (3·4/2 = 6) + ~3 per subsequent vertex (dedup may trim).
        assert!(g.num_edges() > 2900 && g.num_edges() <= 6 + 997 * 3);
    }

    #[test]
    fn produces_power_law_skew() {
        let g = barabasi_albert(4000, 3, 2);
        let s = degree_stats(&g);
        assert!(s.skew > 8.0, "BA graphs must be skewed, got {}", s.skew);
        assert!(s.p50 <= 2 * 3, "most vertices stay near the attachment degree");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = barabasi_albert(500, 2, 7);
        let b = barabasi_albert(500, 2, 7);
        assert_eq!(a.edges(), b.edges());
        let c = barabasi_albert(500, 2, 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn min_degree_is_attachment_count() {
        let g = barabasi_albert(300, 4, 3);
        // Every non-seed vertex attaches with m edges (dedup can only
        // merge parallel attempts, which `chosen` already prevents).
        let min_late = (5..300).map(|v| g.degree(v)).min().unwrap();
        assert!(min_late >= 3, "late vertices keep >= m-1 edges, got {min_late}");
    }

    #[test]
    #[should_panic(expected = "more vertices")]
    fn rejects_tiny_n() {
        barabasi_albert(3, 5, 1);
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        // n·m > the parallel cutover so the chunked sort/merge/count path runs.
        let serial = barabasi_albert(3000, 3, 5);
        for threads in [1usize, 2, 8] {
            assert_eq!(serial, barabasi_albert_parallel(3000, 3, 5, threads));
        }
    }
}
