//! Random graph models: Erdős–Rényi G(n, m) and Chung–Lu power-law graphs.
//!
//! Erdős–Rényi graphs are the *non-skewed* random baseline used in tests and
//! property checks. Chung–Lu graphs realize a prescribed power-law degree
//! distribution `Pr[d] ∝ d^-α` — the model under which Table 1 computes the
//! expected theoretical bounds — so the benchmark harness can check the
//! closed-form expectations against sampled graphs.

use crate::hash::SplitMix64;
use crate::types::VertexId;
use crate::{EdgeListBuilder, Graph};

/// Stream salt of the Erdős–Rényi attempt stream ("ERGN").
const ER_STREAM_SALT: u64 = 0x4552_474E;

/// Erdős–Rényi `G(n, m)`: `m` edges sampled uniformly (after dedup the
/// result may have slightly fewer than `m` edges).
pub fn erdos_renyi(n: VertexId, m: u64, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = SplitMix64::new(seed ^ ER_STREAM_SALT);
    let mut b = EdgeListBuilder::with_capacity(m as usize);
    let mut produced = 0u64;
    let mut attempts = 0u64;
    // Cap attempts so dense requests near the complete graph still terminate.
    let max_attempts = m.saturating_mul(4).max(16);
    while produced < m && attempts < max_attempts {
        attempts += 1;
        let u = rng.next_below(n);
        let v = rng.next_below(n);
        if u != v {
            b.push(u, v);
            produced += 1;
        }
    }
    b.into_graph(n)
}

/// Erdős–Rényi `G(n, m)` with up to `threads` threads; byte-identical to
/// [`erdos_renyi`] for every thread count.
///
/// The serial sampler keeps the first `m` non-self-loop pairs of a bounded
/// attempt stream (2 RNG draws per attempt, accepted or not), which makes
/// the stream chunkable: workers [`SplitMix64::advance`] to their attempt
/// range, accepted pairs are concatenated in attempt order, and the prefix
/// the serial loop would have kept is cut at `m`. Waves of attempts are
/// issued until the quota is filled or the serial path's attempt cap is
/// reached.
pub fn erdos_renyi_parallel(n: VertexId, m: u64, seed: u64, threads: usize) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    if threads <= 1 {
        return erdos_renyi(n, m, seed);
    }
    let max_attempts = m.saturating_mul(4).max(16);
    let mut accepted: Vec<(VertexId, VertexId)> = Vec::with_capacity(m as usize);
    let mut attempt = 0u64;
    while (accepted.len() as u64) < m && attempt < max_attempts {
        let needed = m - accepted.len() as u64;
        // Oversample a little so low self-loop rates finish in one wave.
        let wave = needed.saturating_mul(2).max(1024).min(max_attempts - attempt);
        let per_job = wave.div_ceil(threads as u64 * 4).max(256);
        let jobs: Vec<(u64, u64)> = (0..wave.div_ceil(per_job))
            .map(|c| {
                let lo = attempt + c * per_job;
                (lo, (lo + per_job).min(attempt + wave))
            })
            .collect();
        // Jobs come back in attempt order, preserving the serial stream's
        // acceptance prefix.
        for run in crate::parallel::par_map(jobs, threads, |(lo, hi)| {
            let mut rng = SplitMix64::new(seed ^ ER_STREAM_SALT);
            rng.advance(2 * lo);
            let mut out = Vec::with_capacity((hi - lo) as usize);
            for _ in lo..hi {
                let u = rng.next_below(n);
                let v = rng.next_below(n);
                if u != v {
                    out.push((u, v));
                }
            }
            out
        }) {
            accepted.extend(run);
        }
        attempt += wave;
    }
    accepted.truncate(m as usize);
    let mut b = EdgeListBuilder::with_capacity(accepted.len());
    b.extend_edges(accepted);
    b.build_parallel(n, threads)
}

/// Stream salt of the Chung–Lu sample stream ("CLPG").
const CL_STREAM_SALT: u64 = 0x434C_5047;

/// Cumulative weight table for Chung–Lu inverse-transform sampling:
/// `cum[i] = Σ_{j<=i} (j+1)^(-1/(α-1))`. Returns the table and its total.
fn chung_lu_weights(n: VertexId, alpha: f64) -> (Vec<f64>, f64) {
    let gamma = 1.0 / (alpha - 1.0);
    let mut cum = Vec::with_capacity(n as usize);
    let mut total = 0.0f64;
    for i in 0..n {
        total += ((i + 1) as f64).powf(-gamma);
        cum.push(total);
    }
    (cum, total)
}

/// Draw one endpoint proportionally to the Chung–Lu weights. Consumes
/// exactly one RNG draw — the invariant the parallel variant's stream
/// jumping relies on.
#[inline]
fn chung_lu_endpoint(cum: &[f64], total: f64, rng: &mut SplitMix64) -> VertexId {
    let x = rng.next_f64() * total;
    // Binary search the cumulative table.
    match cum.binary_search_by(|probe| probe.partial_cmp(&x).unwrap()) {
        Ok(i) | Err(i) => (i as VertexId).min(cum.len() as VertexId - 1),
    }
}

/// Chung–Lu power-law graph: vertex `i` gets weight `w_i ∝ (i+1)^(-1/(α-1))`
/// scaled so the expected edge count is `target_edges`; endpoints of each
/// edge are drawn proportionally to weight.
///
/// `alpha` is the power-law exponent (paper's Table 1 uses 2.2–2.8).
pub fn chung_lu(n: VertexId, target_edges: u64, alpha: f64, seed: u64) -> Graph {
    assert!(alpha > 2.0, "Chung-Lu needs alpha > 2 for finite mean degree");
    assert!(n >= 2);
    let mut rng = SplitMix64::new(seed ^ CL_STREAM_SALT);
    let (cum, total) = chung_lu_weights(n, alpha);
    let mut b = EdgeListBuilder::with_capacity(target_edges as usize);
    for _ in 0..target_edges {
        let u = chung_lu_endpoint(&cum, total, &mut rng);
        let v = chung_lu_endpoint(&cum, total, &mut rng);
        b.push(u, v);
    }
    b.into_graph(n)
}

/// Chung–Lu power-law graph with up to `threads` threads; byte-identical to
/// [`chung_lu`] for every thread count.
///
/// Every sample consumes exactly two RNG draws, so workers
/// [`SplitMix64::advance`] straight to their chunk of the shared sample
/// stream; per-chunk sorted runs are merge-deduped and handed to the
/// parallel validate-and-count. The weight table is built once and shared
/// read-only.
pub fn chung_lu_parallel(
    n: VertexId,
    target_edges: u64,
    alpha: f64,
    seed: u64,
    threads: usize,
) -> Graph {
    assert!(alpha > 2.0, "Chung-Lu needs alpha > 2 for finite mean degree");
    assert!(n >= 2);
    if threads <= 1 {
        return chung_lu(n, target_edges, alpha, seed);
    }
    let (cum, total) = chung_lu_weights(n, alpha);
    const CHUNK: u64 = 1 << 14;
    let cum = &cum;
    let edges = crate::parallel::generate_chunked(target_edges, CHUNK, threads, |lo, hi, out| {
        let mut rng = SplitMix64::new(seed ^ CL_STREAM_SALT);
        rng.advance(2 * lo);
        for _ in lo..hi {
            let u = chung_lu_endpoint(cum, total, &mut rng);
            let v = chung_lu_endpoint(cum, total, &mut rng);
            if u != v {
                out.push(crate::types::canonical(u, v));
            }
        }
    });
    Graph::from_canonical_edges_parallel(n, edges, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_sizes() {
        let g = erdos_renyi(100, 300, 1);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() > 200 && g.num_edges() <= 300);
    }

    #[test]
    fn erdos_renyi_terminates_when_dense() {
        // Request more edges than exist in K_10 (45).
        let g = erdos_renyi(10, 1000, 2);
        assert!(g.num_edges() <= 45);
    }

    #[test]
    fn chung_lu_is_skewed() {
        let g = chung_lu(2000, 10_000, 2.2, 3);
        let mean = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            g.max_degree() as f64 > 8.0 * mean,
            "expected a heavy head: max {} vs mean {mean}",
            g.max_degree()
        );
    }

    #[test]
    fn chung_lu_deterministic() {
        let a = chung_lu(500, 2000, 2.5, 7);
        let b = chung_lu(500, 2000, 2.5, 7);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn higher_alpha_less_skew() {
        let heavy = chung_lu(4000, 20_000, 2.1, 5);
        let light = chung_lu(4000, 20_000, 2.9, 5);
        assert!(heavy.max_degree() > light.max_degree());
    }

    #[test]
    fn erdos_renyi_parallel_is_byte_identical() {
        // Includes the dense case where the serial loop exhausts its
        // attempt cap, exercising the wave logic's termination path.
        for (n, m) in [(500u64, 20_000u64), (10, 1000)] {
            let serial = erdos_renyi(n, m, 3);
            for threads in [1usize, 2, 8] {
                assert_eq!(serial, erdos_renyi_parallel(n, m, 3, threads), "n {n} m {m}");
            }
        }
    }

    #[test]
    fn chung_lu_parallel_is_byte_identical() {
        // > one 2^14 sample chunk so the stream jumping is exercised.
        let serial = chung_lu(2000, 40_000, 2.3, 11);
        for threads in [1usize, 2, 8] {
            assert_eq!(serial, chung_lu_parallel(2000, 40_000, 2.3, 11, threads));
        }
    }
}
