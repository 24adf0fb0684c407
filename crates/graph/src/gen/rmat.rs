//! RMAT / Graph500-style recursive-matrix graph generator.
//!
//! The paper's synthetic experiments (§7.1) use RMAT graphs "whose vertex
//! size are from Scale20 to Scale30" with edge factors from 2^4 (the Graph500
//! setting) to 2^10 (Facebook's trillion-edge density). This module
//! implements the standard recursive quadrant-descent sampler (Chakrabarti et
//! al., SDM 2004) with:
//!
//! * configurable quadrant probabilities `(a, b, c, d)` — Graph500 uses
//!   `(0.57, 0.19, 0.19, 0.05)`;
//! * optional per-level probability smoothing (as in the Graph500 reference
//!   implementation) to avoid exact self-similar artifacts;
//! * optional vertex-label permutation so vertex id order carries no
//!   structural information (Graph500 shuffles labels the same way);
//! * deterministic seeding — a seed plus the config fully determines the
//!   graph, so every experiment is reproducible.
//!
//! Duplicate samples and self loops are removed by the
//! [`crate::EdgeListBuilder`] pass, matching the paper's duplicate-edge
//! compaction note (§7.3): the *generated* edge count is `ef * 2^scale`, the
//! *resulting* simple-graph edge count is lower, increasingly so for high
//! edge factors.

use crate::hash::SplitMix64;
use crate::types::VertexId;
use crate::{EdgeListBuilder, Graph};

/// Configuration for the RMAT generator.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// log2 of the number of vertices ("ScaleN" in the paper).
    pub scale: u32,
    /// Generated edges per vertex ("edge factor"; Graph500 uses 16).
    pub edge_factor: u64,
    /// Quadrant probabilities. Must be non-negative and sum to ~1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability (`1 - a - b - c`).
    pub d: f64,
    /// Per-level multiplicative noise applied to `a` (Graph500-style
    /// smoothing). `0.0` disables smoothing.
    pub noise: f64,
    /// Randomly permute vertex labels after sampling.
    pub permute: bool,
    /// RNG seed; equal seeds give equal graphs.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500 defaults at the given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: u64, seed: u64) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.1,
            permute: true,
            seed,
        }
    }

    /// A more skewed parameterization approximating web-crawl graphs
    /// (heavier head, used for the WebUK stand-in).
    pub fn web(scale: u32, edge_factor: u64, seed: u64) -> Self {
        Self { a: 0.63, b: 0.17, c: 0.17, d: 0.03, ..Self::graph500(scale, edge_factor, seed) }
    }

    /// A milder skew approximating friendship social networks (Pokec,
    /// LiveJournal-class graphs).
    pub fn social(scale: u32, edge_factor: u64, seed: u64) -> Self {
        Self { a: 0.45, b: 0.22, c: 0.22, d: 0.11, ..Self::graph500(scale, edge_factor, seed) }
    }

    /// Number of vertices `2^scale`.
    pub fn num_vertices(&self) -> VertexId {
        1u64 << self.scale
    }

    /// Number of *generated* (pre-dedup) edge samples.
    pub fn num_samples(&self) -> u64 {
        self.edge_factor * self.num_vertices()
    }

    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!((s - 1.0).abs() < 1e-9, "RMAT probabilities must sum to 1 (got {s})");
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "RMAT probabilities must be non-negative"
        );
        assert!(self.scale <= 40, "scale {} too large for this build", self.scale);
    }
}

/// Sample one endpoint pair by recursive quadrant descent.
#[inline]
fn sample_edge(cfg: &RmatConfig, rng: &mut SplitMix64) -> (VertexId, VertexId) {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..cfg.scale {
        // Per-level smoothing: jitter `a` and renormalize the rest, as in the
        // Graph500 reference code.
        let (a, b, c) = if cfg.noise > 0.0 {
            let f = 1.0 + cfg.noise * (2.0 * rng.next_f64() - 1.0);
            let a = cfg.a * f;
            let rest = (1.0 - a).max(0.0) / (cfg.b + cfg.c + cfg.d);
            (a, cfg.b * rest, cfg.c * rest)
        } else {
            (cfg.a, cfg.b, cfg.c)
        };
        let r = rng.next_f64();
        u <<= 1;
        v <<= 1;
        if r < a {
            // upper-left: no bits set
        } else if r < a + b {
            v |= 1;
        } else if r < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u, v)
}

/// Optional label permutation: a seeded Feistel-style permutation would
/// avoid materializing the table, but an explicit shuffled table is
/// simpler and the memory is charged to generation, not partitioning.
fn label_permutation(cfg: &RmatConfig) -> Option<Vec<VertexId>> {
    if !cfg.permute {
        return None;
    }
    let mut p: Vec<VertexId> = (0..cfg.num_vertices()).collect();
    // Fisher–Yates with an independently salted generator so that the
    // edge sample stream is identical with and without permutation.
    let mut prng = SplitMix64::new(cfg.seed ^ 0x5045_524D_5554_4521); // "PERMUTE!"
    for i in (1..p.len()).rev() {
        let j = prng.next_below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    Some(p)
}

/// RNG draws [`sample_edge`] consumes per sample: one `f64` per level, two
/// when per-level smoothing also draws a jitter. Exact by construction —
/// this is what lets [`rmat_parallel`] jump a worker into the middle of the
/// sample stream with [`SplitMix64::advance`].
fn draws_per_sample(cfg: &RmatConfig) -> u64 {
    cfg.scale as u64 * if cfg.noise > 0.0 { 2 } else { 1 }
}

/// Generate an RMAT graph. Self loops and duplicates are removed, so the
/// returned simple graph has at most `cfg.num_samples()` edges.
pub fn rmat(cfg: &RmatConfig) -> Graph {
    cfg.validate();
    let n = cfg.num_vertices();
    let samples = cfg.num_samples();
    let mut rng = SplitMix64::new(cfg.seed ^ RMAT_STREAM_SALT);
    let mut b = EdgeListBuilder::with_capacity(samples as usize);
    let perm = label_permutation(cfg);
    for _ in 0..samples {
        let (mut u, mut v) = sample_edge(cfg, &mut rng);
        if let Some(p) = &perm {
            u = p[u as usize];
            v = p[v as usize];
        }
        b.push(u, v);
    }
    b.into_graph(n)
}

/// Samples per work unit handed to one [`rmat_parallel`] worker. Fixed (not
/// derived from the thread count) so the chunk decomposition — and with it
/// the output — is the same for every thread count.
const SAMPLE_CHUNK: u64 = 1 << 14;

/// Generate an RMAT graph with up to `threads` threads.
///
/// **Byte-identical to [`rmat`] for the same config, at every thread
/// count.** The sample stream is deterministic: each sample consumes a fixed
/// number of RNG draws, so worker `c` seeds the same generator as the serial
/// path and [`SplitMix64::advance`]s straight to its chunk's position in the
/// stream. Chunks are canonicalized and sorted in parallel, merge-deduped,
/// and validated and degree-counted in parallel — each stage preserving the
/// sorted-set semantics of the sequential [`EdgeListBuilder`] pass.
pub fn rmat_parallel(cfg: &RmatConfig, threads: usize) -> Graph {
    cfg.validate();
    if threads <= 1 {
        return rmat(cfg);
    }
    let n = cfg.num_vertices();
    let samples = cfg.num_samples();
    let perm = label_permutation(cfg);
    let perm = perm.as_deref();
    let draws = draws_per_sample(cfg);
    let edges = crate::parallel::generate_chunked(samples, SAMPLE_CHUNK, threads, |lo, hi, out| {
        let mut rng = SplitMix64::new(cfg.seed ^ RMAT_STREAM_SALT);
        rng.advance(lo * draws);
        for _ in lo..hi {
            let (mut u, mut v) = sample_edge(cfg, &mut rng);
            if let Some(p) = perm {
                u = p[u as usize];
                v = p[v as usize];
            }
            if u != v {
                out.push(crate::types::canonical(u, v));
            }
        }
    });
    Graph::from_canonical_edges_parallel(n, edges, threads)
}

/// Salt XORed into user seeds so the RMAT stream is decorrelated from other
/// consumers of the same seed (e.g. the partitioner's seed-vertex choice).
const RMAT_STREAM_SALT: u64 = 0x524D_4154_6765_6E21; // "RMATgen!"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let cfg = RmatConfig::graph500(8, 8, 42);
        let g1 = rmat(&cfg);
        let g2 = rmat(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = rmat(&RmatConfig::graph500(8, 8, 1));
        let g2 = rmat(&RmatConfig::graph500(8, 8, 2));
        assert_ne!(g1.edges(), g2.edges());
    }

    #[test]
    fn respects_vertex_budget() {
        let cfg = RmatConfig::graph500(6, 4, 7);
        let g = rmat(&cfg);
        assert_eq!(g.num_vertices(), 64);
        assert!(g.num_edges() <= cfg.num_samples());
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn skew_increases_with_a() {
        // A heavily skewed RMAT should have a larger max degree than a
        // uniform one at the same size.
        let skewed = rmat(&RmatConfig { permute: false, noise: 0.0, ..RmatConfig::web(10, 8, 3) });
        let uniform = rmat(&RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: 0.0,
            permute: false,
            ..RmatConfig::graph500(10, 8, 3)
        });
        assert!(
            skewed.max_degree() > uniform.max_degree(),
            "skewed max degree {} should exceed uniform {}",
            skewed.max_degree(),
            uniform.max_degree()
        );
    }

    #[test]
    fn permutation_preserves_edge_count_distribution() {
        let base = RmatConfig { noise: 0.0, ..RmatConfig::graph500(8, 8, 11) };
        let unperm = rmat(&RmatConfig { permute: false, ..base.clone() });
        let perm = rmat(&RmatConfig { permute: true, ..base });
        // Same sample stream, relabeled: edge count can differ slightly only
        // through dedup collisions, which relabeling preserves exactly
        // (a bijection maps duplicate pairs to duplicate pairs).
        assert_eq!(unperm.num_edges(), perm.num_edges());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(&RmatConfig { a: 0.9, ..RmatConfig::graph500(4, 2, 0) });
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        // Scale 11 / EF 16 spans two sample chunks, so the stream-jumping
        // path is genuinely exercised; test both smoothing settings since
        // they consume different draw counts per sample.
        for cfg in [
            RmatConfig::graph500(11, 16, 42),
            RmatConfig { noise: 0.0, permute: false, ..RmatConfig::web(11, 16, 7) },
        ] {
            let serial = rmat(&cfg);
            for threads in [1usize, 2, 8] {
                let par = rmat_parallel(&cfg, threads);
                assert_eq!(serial, par, "threads {threads}");
            }
        }
    }
}
