//! Dense local ids for a subset of the global vertex ids, without a hash
//! map.
//!
//! A machine that holds the edges of its share of the graph numbers the
//! endpoints it sees `0..n` in ascending global order. Translating a global
//! id back is a rank query over those sorted ids; [`LocalIds`] answers it
//! through a bucket directory of `u32` words instead of a hash map, so the
//! translation costs at most 4 bytes per local vertex beside the ids
//! themselves (the paper's subgraph is "stored without any
//! memory-consuming data structure such as the hash map", §7.3).

use crate::types::VertexId;
use crate::HeapSize;

/// The sorted distinct global ids of one machine's vertices; the local id
/// of a vertex is its position among them.
///
/// Lookups go through a directory of `2^shift`-wide id buckets: the local
/// ids whose global id lies in `[b << shift, (b + 1) << shift)` are
/// `dir[b] .. dir[b + 1]`. `shift` is the smallest that leaves at most `n`
/// buckets (at most two when `n == 1`), so a bucket holds one to two ids
/// on average and the directory stays within `n + 2` words.
#[derive(Debug)]
pub struct LocalIds {
    ids: Vec<VertexId>,
    dir: Vec<u32>,
    shift: u32,
}

impl LocalIds {
    /// Number the distinct values of `ids` (any order, repeats allowed)
    /// in ascending order. Every array is exactly as large as its
    /// contents.
    ///
    /// # Panics
    /// If there are more than `u32::MAX` distinct ids.
    pub fn new(mut ids: Vec<VertexId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        ids.shrink_to_fit();
        let n = ids.len();
        assert!(n <= u32::MAX as usize, "{n} local vertices overflow the u32 local ids");
        let Some(&max) = ids.last() else {
            return Self { ids, dir: vec![0], shift: 0 };
        };
        let mut shift = 0;
        while shift < 63 && max >> shift >= n as u64 {
            shift += 1;
        }
        let mut dir = vec![0u32; (max >> shift) as usize + 2];
        for &v in &ids {
            dir[(v >> shift) as usize + 1] += 1;
        }
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        Self { ids, dir, shift }
    }

    /// The local id of global vertex `v`, if it is one of these: two
    /// directory reads, then a binary search inside `v`'s bucket.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        let b = v >> self.shift;
        if b >= self.buckets() as u64 {
            return None;
        }
        let (lo, hi) = (self.dir[b as usize] as usize, self.dir[b as usize + 1] as usize);
        self.ids[lo..hi].binary_search(&v).ok().map(|i| (lo + i) as u32)
    }

    /// The global ids, ascending: entry `i` is the vertex of local id `i`.
    #[inline]
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no local vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of directory buckets; the directory is one word longer.
    pub fn buckets(&self) -> usize {
        self.dir.len() - 1
    }
}

impl HeapSize for LocalIds {
    fn heap_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.dir.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every member maps to its index in a `BTreeMap` model, probes
    /// around and between the members miss, the directory stays within
    /// `n + 2` words, and the arrays carry no slack.
    fn check_against_model(raw: Vec<VertexId>) {
        let model: BTreeMap<VertexId, u32> = raw.iter().map(|&v| (v, 0)).collect();
        let model: BTreeMap<VertexId, u32> = model.into_keys().zip(0..).collect();
        let local = LocalIds::new(raw);
        let n = model.len();
        assert_eq!(local.ids(), &model.keys().copied().collect::<Vec<_>>()[..]);
        assert_eq!((local.len(), local.is_empty()), (n, n == 0));
        assert!(local.dir.len() <= n + 2, "{} directory words for {n} ids", local.dir.len());
        assert_eq!(local.heap_bytes(), 8 * n + 4 * local.dir.len());
        for (&v, &lv) in &model {
            assert_eq!(local.get(v), Some(lv), "member {v}");
        }
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX, u64::MAX / 2];
        for (&v, &next) in model.keys().zip(model.keys().skip(1)) {
            probes.push(v + (next - v) / 2);
        }
        for &v in model.keys() {
            probes.extend([v.wrapping_sub(1), v.wrapping_add(1)]);
        }
        if let (Some(&first), Some(&last)) = (model.keys().next(), model.keys().next_back()) {
            probes.extend([first / 2, last + (u64::MAX - last) / 2]);
        }
        for v in probes {
            assert_eq!(local.get(v), model.get(&v).copied(), "probe {v}");
        }
    }

    #[test]
    fn edge_cases_match_the_model() {
        for raw in [
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![7, 7, 7],
            vec![0, u64::MAX],
            vec![u64::MAX, 0, u64::MAX - 1, 1],
            (0..1000).collect(),
            (0..64).map(|i| 1u64 << i).collect(),
        ] {
            check_against_model(raw);
        }
    }

    #[test]
    fn ids_clustered_in_one_bucket_stay_searchable() {
        // One far id forces a wide shift, so the dense run below it lands
        // in a single bucket that lookups binary-search.
        let mut raw: Vec<VertexId> = (0..500).collect();
        raw.push(u64::MAX);
        let local = LocalIds::new(raw.clone());
        assert_eq!(local.dir[..2], [0, 500]);
        check_against_model(raw);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Offsets `o >> spread` from an anchor: spread 58 makes dense
        /// runs, spread 0 ids across the whole `u64` range, and the
        /// wrap-around anchor mixes ids near `u64::MAX` with ids near 0.
        /// `far` adds `u64::MAX`, which clusters everything else into the
        /// low buckets.
        #[test]
        fn matches_a_btreemap_model(
            anchor in 0u8..3,
            base in 0u64..u64::MAX,
            spread in 0u32..64,
            offsets in prop::collection::vec(0u64..u64::MAX, 0..200),
            far in 0u8..4,
        ) {
            let base = [0, base, u64::MAX - (u64::MAX >> spread) / 2][anchor as usize];
            let mut raw: Vec<VertexId> =
                offsets.into_iter().map(|o| base.wrapping_add(o >> spread)).collect();
            if far == 0 {
                raw.push(u64::MAX);
            }
            check_against_model(raw);
        }
    }
}
