//! Dense local ids for a subset of the global vertex ids, without a hash
//! map and without ordering the ids by comparison.
//!
//! A machine that holds the edges of its share of the graph numbers the
//! endpoints it sees `0..n` in ascending global order (the paper's subgraph
//! is "stored without any memory-consuming data structure such as the hash
//! map", §7.3). [`LocalIds`] keeps a rank bitmap over the id range: bit `v` is
//! set when `v` is local, and the local id of `v` is the number of set bits
//! below it.
//!
//! ## Layout
//!
//! | array | bytes | |
//! |---|---|---|
//! | `ids` | ≈ 1.2–1.8 per local vertex | the set bits, ascending, as a [`PackedIds`]: entry `i` is the vertex of local id `i` |
//! | `bits` | 8 per 64 ids | word `w` covers ids `64·w .. 64·w + 64`, up to the largest local id |
//! | `below` | 4 per 64 ids | the number of set bits in all words before `w` |
//!
//! Building sets one bit per endpoint and packs `ids` straight off the words
//! (passes over the words, no list of the ids in between), so they come out
//! ascending and distinct by construction. A lookup is a bit test plus a
//! popcount; the way back, [`LocalIds::id`], is one [`PackedIds::get`].
//!
//! ## Domain and cost
//!
//! Ids come from a [`Graph`](crate::Graph), so they are below `|V|`: the
//! bitmap never exceeds `|V|·3/16` bytes, 1/42 of the 8-byte degree array
//! the graph already holds. Against a directory of one `u32` per local
//! vertex, the 12 bytes per 64 ids below a machine's largest id are smaller
//! whenever the machine holds more than ≈ 4.7 % of those ids (`12/64 < 4·n /
//! range`). A 2D-hash share of an RMAT or road graph at P ≤ 16 holds 18–50 %;
//! a road grid at P = 64 is about even. The packed ids cost a block header
//! (16 bytes) per 64 of them plus `w` bits each, where `w` bits span the
//! block: at a density `d` of local ids in the range, `w ≈ log₂(64 / d)`,
//! 8–10 bits for those shares.

use crate::types::VertexId;
use crate::{HeapSize, PackedIds};

/// The distinct global ids of one machine's vertices, ascending; the local
/// id of a vertex is its position among them, answered by a rank bitmap.
#[derive(Debug)]
pub struct LocalIds {
    ids: PackedIds,
    /// Bit `v % 64` of word `v / 64` is set iff `v` is local.
    bits: Vec<u64>,
    /// `below[w]`: the number of set bits in the words before `w`.
    below: Vec<u32>,
}

impl LocalIds {
    /// Number the distinct values of `ids` (any order, repeats allowed) in
    /// ascending order. Every array is exactly as large as its contents.
    ///
    /// The bitmap spans `0..=max(ids)`, so the ids must come from a bounded
    /// universe such as a graph's `0..|V|`.
    ///
    /// # Panics
    /// If there are more than `u32::MAX` distinct ids, or the bitmap up to
    /// the largest id cannot be allocated.
    pub fn new(ids: impl IntoIterator<Item = VertexId>) -> Self {
        let mut bits: Vec<u64> = Vec::new();
        for v in ids {
            let w = usize::try_from(v / 64).expect("a vertex id within the address space");
            if w >= bits.len() {
                bits.resize(w + 1, 0);
            }
            bits[w] |= 1 << (v % 64);
        }
        bits.shrink_to_fit();
        let mut n = 0usize;
        let below: Vec<u32> = bits
            .iter()
            .map(|word| {
                let before = n;
                n += word.count_ones() as usize;
                before as u32
            })
            .collect();
        assert!(n <= u32::MAX as usize, "{n} local vertices overflow the u32 local ids");
        let ids = PackedIds::new(ascending(&bits));
        Self { ids, bits, below }
    }

    /// The local id of global vertex `v`, if it is one of these: a bit
    /// test, then the set bits below it in its word plus the word's count.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        let w = usize::try_from(v / 64).ok()?;
        let word = *self.bits.get(w)?;
        let bit = 1u64 << (v % 64);
        (word & bit != 0).then(|| self.below[w] + (word & (bit - 1)).count_ones())
    }

    /// The global id of local vertex `lv`.
    ///
    /// # Panics
    /// If `lv >= self.len()`.
    #[inline]
    pub fn id(&self, lv: u32) -> VertexId {
        self.ids.get(lv as usize)
    }

    /// The global ids, ascending, read off the bitmap: the `i`-th is the
    /// vertex of local id `i`.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        ascending(&self.bits)
    }

    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no local vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// What [`HeapSize::heap_bytes`] must equal, from lengths and the
    /// packed ids' walk instead of capacities. O(len / 64).
    pub fn recount_heap_bytes(&self) -> usize {
        self.ids.recount_heap_bytes() + self.bits.len() * 8 + self.below.len() * 4
    }
}

impl HeapSize for LocalIds {
    fn heap_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.bits.heap_bytes() + self.below.heap_bytes()
    }
}

/// The set bits of `bits`, ascending, as ids: what [`LocalIds::iter`]
/// yields and what [`LocalIds::new`] packs.
fn ascending(bits: &[u64]) -> impl Iterator<Item = VertexId> + Clone + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| 64 * w as u64 + u64::from(rest.trailing_zeros()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every member maps to its index in a `BTreeMap` model and back, the
    /// ascending iterator yields the model's keys,
    /// probes below, between and past the members (and `u64::MAX`) miss,
    /// and the arrays carry no slack.
    fn check_against_model(raw: Vec<VertexId>) {
        let model: BTreeMap<VertexId, u32> = raw.iter().map(|&v| (v, 0)).collect();
        let model: BTreeMap<VertexId, u32> = model.into_keys().zip(0..).collect();
        let local = LocalIds::new(raw);
        let n = model.len();
        assert_eq!(local.iter().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
        assert_eq!((local.len(), local.is_empty()), (n, n == 0));
        let max = model.keys().next_back().copied();
        let words = max.map_or(0, |max| max as usize / 64 + 1);
        assert_eq!(local.bits.len(), words);
        assert_eq!(local.heap_bytes(), local.ids.heap_bytes() + 12 * words);
        assert_eq!(local.heap_bytes(), local.recount_heap_bytes());
        assert_eq!(local.bits.capacity(), local.bits.len());
        assert_eq!(local.below.capacity(), local.below.len());
        for (&v, &lv) in &model {
            assert_eq!(local.get(v), Some(lv), "member {v}");
            assert_eq!(local.id(lv), v, "local id {lv}");
        }
        let mut probes = vec![0, 1, 63, 64, u64::MAX - 1, u64::MAX, u64::MAX / 2];
        for (&v, &next) in model.keys().zip(model.keys().skip(1)) {
            probes.push(v + (next - v) / 2);
        }
        for &v in model.keys() {
            probes.extend([v.wrapping_sub(1), v + 1]);
        }
        if let (Some(&first), Some(max)) = (model.keys().next(), max) {
            probes.extend([first / 2, max + 64, words as u64 * 64, max + (u64::MAX - max) / 2]);
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
            vec![7, 7, 7],
            vec![63],
            vec![64],
            vec![127, 128],
            vec![128, 0, 127, 63, 64, 63],
            (0..1000).collect(),
            (0..64).chain(128..192).collect(),
            (0..500).chain([(1 << 16) - 1]).collect(),
        ] {
            check_against_model(raw);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ids in a universe below 2^16: offsets `o >> spread` from a base,
        /// so spread 11 packs them into dense runs over a few words and
        /// spread 0 scatters them over hundreds; `far` adds an isolated
        /// maximum above everything else.
        #[test]
        fn matches_a_btreemap_model(
            base in 0u64..1 << 15,
            spread in 0u32..12,
            offsets in prop::collection::vec(0u64..1 << 15, 0..200),
            far in 0u8..4,
        ) {
            let mut raw: Vec<VertexId> = offsets.into_iter().map(|o| base + (o >> spread)).collect();
            if far == 0 {
                raw.push((1 << 16) - 1);
            }
            check_against_model(raw);
        }
    }
}
