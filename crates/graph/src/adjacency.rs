//! Neighbour lists derived from a graph's canonical edge list.
//!
//! A [`Graph`] is its edge list on every backend; nothing on the
//! partition → quality → index → serve path walks neighbours. The
//! callers that do — the baseline partitioners and the sequential
//! application references — build an [`Adjacency`] for the duration of
//! their run, so its `16·|E| + 8·(|V|+1)` bytes are charged to the
//! method that walks it (Figure 9) and not to every holder of the graph.

use crate::types::VertexId;
use crate::{Graph, HeapSize};

/// The neighbours of every vertex in compressed sparse row form, built
/// from the degree array and one edge scan — so it exists for a graph on
/// any storage backend.
#[derive(Debug)]
pub struct Adjacency {
    /// `offsets[v] .. offsets[v+1]` bounds the slice of vertex `v`.
    offsets: Box<[u64]>,
    neighbors: Box<[VertexId]>,
}

impl Adjacency {
    /// Derive the neighbour lists of `g`. Every edge contributes one
    /// entry at each endpoint, in ascending edge-id order.
    ///
    /// # Panics
    /// On an I/O failure of disk-backed storage, like
    /// [`Graph::for_each_edge`].
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut end = 0u64;
        offsets.push(end);
        for v in g.vertices() {
            end += g.degree(v);
            offsets.push(end);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; end as usize];
        g.for_each_edge(|_, u, v| {
            for (at, nbr) in [(u, v), (v, u)] {
                let slot = &mut cursor[at as usize];
                neighbors[*slot as usize] = nbr;
                *slot += 1;
            }
        });
        Self { offsets: offsets.into_boxed_slice(), neighbors: neighbors.into_boxed_slice() }
    }

    /// The neighbours of `v`, one per incident edge in ascending edge-id
    /// order. Canonical edges sort by their smaller endpoint, so that is
    /// the smaller neighbours ascending, then the larger ascending: the
    /// slice is strictly ascending as a whole.
    #[inline]
    pub fn of(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

impl HeapSize for Adjacency {
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.neighbors.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{io, EdgeListBuilder, StorageKind};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn triangle_with_a_tail_and_an_isolated_vertex() {
        let mut b = EdgeListBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let g = b.into_graph(5);
        let adj = Adjacency::build(&g);
        assert_eq!(adj.of(2), &[0, 1, 3]);
        assert_eq!(adj.of(0), &[1, 2]);
        assert_eq!(adj.of(4), &[] as &[VertexId]);
        assert_eq!(adj.heap_bytes(), 16 * 4 + 8 * 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On every backend the derived lists equal a map filled in edge
        /// order — isolated vertices and the empty graph included.
        #[test]
        fn matches_a_model_on_every_backend(
            n in 0u64..48,
            raw in prop::collection::vec((0u64..48, 0u64..48), 0usize..160),
            chunk in 1usize..64,
        ) {
            let mut b = EdgeListBuilder::new();
            b.extend_edges(raw.into_iter().filter(|&(u, v)| u < n && v < n));
            let g = b.into_graph(n);
            let mut model: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
            g.for_each_edge(|_, u, v| {
                model.entry(u).or_default().push(v);
                model.entry(v).or_default().push(u);
            });
            let dir = std::env::temp_dir().join(format!("dne-adjacency-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("g.chunks");
            io::write_chunked(&g, &path, chunk).unwrap();
            for kind in StorageKind::ALL {
                let reopened = io::open_chunked_with(&path, kind).unwrap();
                prop_assert_eq!(reopened.storage_kind(), kind);
                let adj = Adjacency::build(&reopened);
                for v in g.vertices() {
                    let expect = model.get(&v).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(adj.of(v), expect, "{}: vertex {}", kind, v);
                    prop_assert_eq!(adj.of(v).len() as u64, g.degree(v));
                    prop_assert!(adj.of(v).windows(2).all(|w| w[0] < w[1]));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
