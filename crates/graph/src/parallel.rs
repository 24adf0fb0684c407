//! Parallel ingestion: chunked canonicalization, k-way merge-dedup, and
//! parallel validation and degree counting.
//!
//! The paper's premise is trillion-edge inputs; at the scales the benchmark
//! bins sweep, *building* the input graph (sample → canonicalize → sort →
//! dedup → validate) dominates wall-clock long before the partitioner does.
//! This module parallelizes that ingestion path with the same primitive the
//! simulated cluster uses (`std::thread::scope` — no external thread-pool
//! dependency), while keeping every result **byte-identical** to the
//! sequential path:
//!
//! * [`sort_dedup_parallel`] — split the raw edge vector into per-thread
//!   chunks, compact + sort each chunk in parallel, then merge-dedup the
//!   sorted runs pairwise (also in parallel). The output is the globally
//!   sorted, deduplicated canonical edge list — a set, so it is independent
//!   of the chunking and therefore of the thread count.
//! * `validate_and_count` — the canonical-order checks and the degree
//!   array of the in-memory backend: per-chunk histograms, summed.
//! * `par_map` — the tiny work-queue that backs both, reused by the
//!   parallel generators (`gen::*_parallel`) for per-chunk sampling.
//!
//! Entry points live on the types they extend:
//! [`crate::EdgeListBuilder::build_parallel`] and
//! [`crate::Graph::from_canonical_edges_parallel`].

use std::sync::Mutex;

use crate::types::{Edge, VertexId};

/// Inputs smaller than this skip the parallel machinery entirely — thread
/// spawn overhead exceeds the work. Both paths produce identical output, so
/// the cutover is unobservable.
pub const PAR_MIN_ITEMS: usize = 1 << 12;

/// Default ingestion thread count: the machine's available parallelism
/// (1 when it cannot be queried).
pub fn default_ingest_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Apply `f` to every item on up to `threads` scoped worker threads and
/// return the results in input order. Items are handed out from a shared
/// queue so uneven per-item cost load-balances naturally.
pub(crate) fn par_map<I, O, F>(items: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut queue: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    queue.reverse(); // pop() then hands items out in input order
    let queue = Mutex::new(queue);
    let done = Mutex::new(Vec::with_capacity(queue.lock().unwrap().len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let Some((i, item)) = queue.lock().unwrap().pop() else { break };
                    let out = f(item);
                    done.lock().unwrap().push((i, out));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Split `0..len` into up to `parts` contiguous, near-equal ranges.
pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let chunk = len.div_ceil(parts);
    (0..len).step_by(chunk).map(|lo| (lo, (lo + chunk).min(len))).collect()
}

/// Merge two sorted, deduplicated runs into one sorted, deduplicated run.
pub(crate) fn merge_dedup(a: &[Edge], b: &[Edge]) -> Vec<Edge> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Split a run list into merge pairs plus the odd run out, preserving
/// order. Shared by every merge round regardless of the run
/// representation (borrowed first round, owned thereafter).
fn pair_up<T>(items: Vec<T>) -> (Vec<(T, T)>, Option<T>) {
    let mut pairs = Vec::with_capacity(items.len() / 2);
    let mut leftover = None;
    let mut it = items.into_iter();
    while let Some(a) = it.next() {
        match it.next() {
            Some(b) => pairs.push((a, b)),
            None => leftover = Some(a),
        }
    }
    (pairs, leftover)
}

/// Merge any number of sorted, deduplicated runs into one, pairwise and in
/// parallel (`⌈log₂ r⌉` rounds). The result is the sorted union — identical
/// for every run decomposition and thread count.
pub(crate) fn merge_sorted_runs(mut runs: Vec<Vec<Edge>>, threads: usize) -> Vec<Edge> {
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        let (jobs, leftover) = pair_up(runs);
        runs = par_map(jobs, threads, |(a, b)| merge_dedup(&a, &b));
        runs.extend(leftover);
    }
    runs.pop().unwrap_or_default()
}

/// Run a chunk-decomposed sampling generator: split `samples` logical
/// sample indices into fixed-size chunks, `fill` each chunk's canonical
/// pairs on a worker thread, sort + dedup per chunk, and merge the runs
/// into the final canonical edge list.
///
/// The chunk size is part of a generator's output contract: it must not
/// depend on the thread count, so the decomposition (and with it the
/// result) is thread-count invariant. `fill(lo, hi, out)` must push the
/// canonical pairs of sample indices `[lo, hi)` — typically by reseeding
/// the generator's RNG and [`crate::hash::SplitMix64::advance`]-ing to
/// `lo`'s position in the shared sample stream.
pub(crate) fn generate_chunked(
    samples: u64,
    chunk: u64,
    threads: usize,
    fill: impl Fn(u64, u64, &mut Vec<Edge>) + Sync,
) -> Vec<Edge> {
    let jobs: Vec<(u64, u64)> =
        (0..samples.div_ceil(chunk)).map(|c| (c * chunk, ((c + 1) * chunk).min(samples))).collect();
    let runs = par_map(jobs, threads, |(lo, hi)| {
        let mut out = Vec::with_capacity((hi - lo) as usize);
        fill(lo, hi, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    });
    merge_sorted_runs(runs, threads)
}

/// Compact (drop self loops), sort, and deduplicate a raw canonical-pair
/// vector using up to `threads` threads. Byte-identical to the sequential
/// `retain + sort_unstable + dedup` for every thread count.
pub fn sort_dedup_parallel(mut raw: Vec<Edge>, threads: usize) -> Vec<Edge> {
    if threads <= 1 || raw.len() < PAR_MIN_ITEMS {
        raw.retain(|&(u, v)| u != v);
        raw.sort_unstable();
        raw.dedup();
        return raw;
    }
    let chunk = raw.len().div_ceil(threads);
    // Per-thread: compact self loops out of the chunk, sort, dedup in place;
    // report how many entries survive.
    let kept: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = raw
            .chunks_mut(chunk)
            .map(|c| {
                scope.spawn(move || {
                    let mut k = 0;
                    for i in 0..c.len() {
                        let (u, v) = c[i];
                        if u != v {
                            c[k] = (u, v);
                            k += 1;
                        }
                    }
                    c[..k].sort_unstable();
                    let mut kept = 0;
                    for i in 0..k {
                        if kept == 0 || c[kept - 1] != c[i] {
                            c[kept] = c[i];
                            kept += 1;
                        }
                    }
                    kept
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // First merge round consumes the in-place runs as slices; later rounds
    // merge the owned intermediates.
    let mut slices = Vec::with_capacity(kept.len());
    let mut base = 0;
    for &k in &kept {
        slices.push(&raw[base..base + k]);
        base += chunk.min(raw.len() - base);
    }
    slices.retain(|s| !s.is_empty());
    let runs: Vec<Vec<Edge>> = match slices.len() {
        0 => return Vec::new(),
        1 => vec![slices[0].to_vec()],
        _ => {
            let (jobs, leftover) = pair_up(slices);
            let mut merged = par_map(jobs, threads, |(a, b)| merge_dedup(a, b));
            merged.extend(leftover.map(|s| s.to_vec()));
            merged
        }
    };
    merge_sorted_runs(runs, threads)
}

/// Validate a canonical edge list and count every vertex's degree on up
/// to `threads` threads (one below [`PAR_MIN_ITEMS`] edges): each chunk of
/// the list is checked and histogrammed on its own, and the histograms are
/// summed. Chunk `j` also checks the ordering across its left boundary, so
/// the whole list is verified strictly sorted.
///
/// Each worker holds one histogram of length `|V|` — `8·t·|V|` bytes,
/// chosen over a vertex-range decomposition, which needs none but rescans
/// all of `E` per thread for the scattered larger endpoints.
///
/// # Panics
/// If an endpoint is out of range, a self loop is present, or the list is
/// not strictly sorted.
pub(crate) fn validate_and_count(
    num_vertices: VertexId,
    edges: &[Edge],
    threads: usize,
) -> Vec<u64> {
    let n = num_vertices as usize;
    let threads = if edges.len() < PAR_MIN_ITEMS { 1 } else { threads };
    let mut hists = par_map(chunk_ranges(edges.len(), threads), threads, |(lo, hi)| {
        let mut hist = vec![0u64; n];
        for i in lo..hi {
            let (u, v) = edges[i];
            assert!(u < v, "edges must be canonical (u < v, no self loops)");
            assert!((v as usize) < n, "endpoint {v} out of range (n = {n})");
            if i > 0 {
                assert!(edges[i - 1] < edges[i], "edge list must be strictly sorted/deduplicated");
            }
            hist[u as usize] += 1;
            hist[v as usize] += 1;
        }
        hist
    })
    .into_iter();
    let mut degrees = hists.next().unwrap_or_else(|| vec![0; n]);
    for hist in hists {
        degrees.iter_mut().zip(hist).for_each(|(d, c)| *d += c);
    }
    degrees
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix64;

    fn random_raw(n: u64, count: usize, seed: u64) -> Vec<Edge> {
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| crate::types::canonical(rng.next_below(n), rng.next_below(n))).collect()
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, 8, |x| x * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, parts) in [(0usize, 4usize), (1, 4), (10, 3), (100, 7), (7, 100)] {
            let r = chunk_ranges(len, parts);
            let covered: usize = r.iter().map(|&(a, b)| b - a).sum();
            assert_eq!(covered, len, "len {len} parts {parts}");
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn merge_dedup_unions() {
        let a = vec![(0, 1), (1, 2), (3, 4)];
        let b = vec![(0, 1), (2, 3), (3, 4), (5, 6)];
        assert_eq!(merge_dedup(&a, &b), vec![(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        assert_eq!(merge_dedup(&a, &[]), a);
        assert_eq!(merge_dedup(&[], &b), b);
    }

    #[test]
    fn sort_dedup_parallel_matches_sequential() {
        for threads in [1usize, 2, 3, 8] {
            for count in [0usize, 100, PAR_MIN_ITEMS + 1, 3 * PAR_MIN_ITEMS + 17] {
                let raw = random_raw(500, count, 42);
                let mut expect = raw.clone();
                expect.retain(|&(u, v)| u != v);
                expect.sort_unstable();
                expect.dedup();
                assert_eq!(
                    sort_dedup_parallel(raw, threads),
                    expect,
                    "threads {threads} count {count}"
                );
            }
        }
    }

    #[test]
    fn merge_sorted_runs_handles_odd_counts() {
        let runs = vec![vec![(0, 1)], vec![(1, 2)], vec![(0, 1), (2, 3)], vec![], vec![(4, 5)]];
        assert_eq!(merge_sorted_runs(runs, 4), vec![(0, 1), (1, 2), (2, 3), (4, 5)]);
        assert_eq!(merge_sorted_runs(Vec::new(), 4), Vec::<Edge>::new());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let raw = random_raw(700, 2 * PAR_MIN_ITEMS, 7);
        let edges = sort_dedup_parallel(raw, 4);
        let seq = crate::Graph::from_canonical_edges(700, edges.clone());
        for threads in [2usize, 3, 8] {
            let par = crate::Graph::from_canonical_edges_parallel(700, edges.clone(), threads);
            assert_eq!(seq, par, "threads {threads}");
            for v in seq.vertices() {
                assert_eq!(seq.degree(v), par.degree(v), "threads {threads}, vertex {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn parallel_build_rejects_unsorted_across_chunks() {
        let mut edges: Vec<Edge> = (0..(PAR_MIN_ITEMS as u64 * 2)).map(|i| (i, i + 1)).collect();
        let mid = edges.len() / 2;
        edges.swap(mid, mid + 1);
        let n = PAR_MIN_ITEMS as u64 * 2 + 2;
        crate::Graph::from_canonical_edges_parallel(n, edges, 4);
    }
}
