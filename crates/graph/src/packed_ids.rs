//! A sequence of `u64` ids in blocks of fixed-width deltas (frame of
//! reference), read back in O(1) with no select and no scan.
//!
//! [`PackedIds`] splits the sequence into blocks of 64 values. A block keeps
//! its minimum as `base` and stores every value as `v − base` in `w` bits,
//! the fewest that hold the block's largest delta. Sixty-four `w`-bit deltas
//! fill exactly `w` words, so every block starts on a word boundary and its
//! header records that word: the width of block `b` is `start[b + 1] −
//! start[b]`. Reading value `i` is one header (two adjacent words) plus the
//! two data words its delta starts in, shifted out of a `u128` with no
//! branch on the width or on whether the delta straddles a word boundary.
//! Two zero words after the last block keep that second word in bounds.
//!
//! ## Layout and cost
//!
//! | array | bytes | |
//! |---|---|---|
//! | `blocks` | 16 per 64 values, plus 16 | `[base, start]` per block and a closing `[0, end]` |
//! | `words` | `w / 8` per value, plus 16 | the deltas, `w` bits each (the last block stops at its last value), then two zero words |
//!
//! A machine's ids rise through a range that all machines share, so
//! neighbouring ids sit about `range / count` apart and a block of them needs
//! `w ≈ log₂(64 · range / count)` bits: the edge ids of one of 8 machines
//! cost ≈ 1.4 B each and a dense run of vertex ids ≈ 1.25 B, against 8 B for
//! a `Vec<u64>`. Nothing depends on order — `base` is the block minimum, not
//! its first value — so shuffled input round-trips too, at up to 8 B per
//! value plus the headers.

use crate::HeapSize;

/// Values per block.
const BLOCK: usize = 64;

/// An immutable sequence of `u64` values, packed block by block.
#[derive(Debug)]
pub struct PackedIds {
    len: usize,
    /// `[base, start]` per block, then `[0, end]`: the block's minimum and
    /// the word its deltas begin at; the next entry's `start` minus this
    /// one's is the block's delta width in bits. Empty when `len == 0`.
    blocks: Vec<[u64; 2]>,
    /// The deltas, `width` bits each, value `j` of a block at bit `j·width`
    /// from its start word (a delta may straddle two words), then two zero
    /// words.
    words: Vec<u64>,
}

impl PackedIds {
    /// Pack `values` in order. The iterator is walked three times (to
    /// count, for each block's base and width, to write the deltas), so the
    /// build holds no copy of the input and both arrays come out exactly as
    /// large as their contents. A clone must yield what the original yields.
    pub fn new<I>(values: I) -> Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let len = values.clone().count();
        let nblocks = len.div_ceil(BLOCK);
        let mut blocks = Vec::with_capacity(nblocks + usize::from(len > 0));
        let (mut start, mut used) = (0u64, 0u64);
        let mut scan = values.clone();
        for b in 0..nblocks {
            let count = BLOCK.min(len - b * BLOCK);
            let (lo, hi) =
                scan.by_ref().take(count).fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
            let width = u64::from(u64::BITS - (hi - lo).leading_zeros());
            blocks.push([lo, start]);
            used = start + (count as u64 * width).div_ceil(64);
            start += width;
        }
        if len > 0 {
            blocks.push([0, start]);
        }
        let mut words =
            vec![0u64; usize::try_from(used + 2).expect("packed ids within the address space")];
        for (i, v) in values.enumerate() {
            let (at, shift, _) = Self::locate(&blocks, i);
            let delta = u128::from(v - blocks[i / BLOCK][0]) << shift;
            words[at] |= delta as u64;
            words[at + 1] |= (delta >> 64) as u64;
        }
        Self { len, blocks, words }
    }

    /// Word index, bit shift and delta width of value `i`.
    #[inline]
    fn locate(blocks: &[[u64; 2]], i: usize) -> (usize, u64, u64) {
        let start = blocks[i / BLOCK][1];
        let width = blocks[i / BLOCK + 1][1] - start;
        let bit = (i % BLOCK) as u64 * width;
        ((start + bit / 64) as usize, bit % 64, width)
    }

    /// Value `i`: its block's base plus its delta.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of {} packed ids", self.len);
        let base = self.blocks[i / BLOCK][0];
        let (at, shift, width) = Self::locate(&self.blocks, i);
        let pair = u128::from(self.words[at]) | u128::from(self.words[at + 1]) << 64;
        base + ((pair >> shift) & ((1 << width) - 1)) as u64
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What [`HeapSize::heap_bytes`] must equal, from a walk over the block
    /// headers instead of the capacities: 16 bytes per header, the words
    /// each block's values occupy at its width and the two closing words.
    /// O(len / 64).
    pub fn recount_heap_bytes(&self) -> usize {
        let words: u64 = self
            .blocks
            .windows(2)
            .enumerate()
            .map(|(b, pair)| {
                (BLOCK.min(self.len - b * BLOCK) as u64 * (pair[1][1] - pair[0][1])).div_ceil(64)
            })
            .sum();
        16 * self.blocks.len() + 8 * (words as usize + 2)
    }
}

impl HeapSize for PackedIds {
    fn heap_bytes(&self) -> usize {
        self.blocks.heap_bytes() + self.words.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `get` reads back every value of the `Vec` model, and the O(1) byte
    /// count is the walked one (so neither array carries slack).
    fn check_against_model(model: Vec<u64>) {
        let packed = PackedIds::new(model.iter().copied());
        assert_eq!((packed.len(), packed.is_empty()), (model.len(), model.is_empty()));
        for (i, &v) in model.iter().enumerate() {
            assert_eq!(packed.get(i), v, "value {i}");
        }
        assert_eq!(packed.heap_bytes(), packed.recount_heap_bytes());
        assert_eq!(packed.blocks.capacity(), packed.blocks.len());
        assert_eq!(packed.words.capacity(), packed.words.len());
        let blocks = model.len().div_ceil(BLOCK);
        assert_eq!(packed.blocks.len(), blocks + usize::from(blocks > 0));
    }

    #[test]
    fn edge_cases_match_the_model() {
        for len in [0u64, 1, 63, 64, 65, 129] {
            check_against_model((0..len).map(|i| 1000 + 3 * i).collect());
            check_against_model(vec![7; len as usize]);
            check_against_model((0..len).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect());
        }
        // A block spanning the whole of u64 needs all 64 bits per delta.
        check_against_model(vec![0, u64::MAX, 1, u64::MAX - 1]);
        check_against_model((0..130).map(|i| if i % 2 == 0 { u64::MAX } else { i }).collect());
        // Equal runs give width-0 blocks between wide ones.
        let mixed: Vec<u64> =
            (0..64).map(|_| 5).chain(0..64).chain((0..64).map(|_| u64::MAX)).collect();
        check_against_model(mixed);
    }

    #[test]
    fn ascending_ids_cost_their_gaps() {
        // Gaps of 8 need 9 bits per value in a block of 64: 9 words, plus
        // the header, the closing header and the two closing words.
        let packed = PackedIds::new((0..64).map(|i| 8 * i));
        assert_eq!(packed.heap_bytes(), 2 * 16 + (9 + 2) * 8);
    }

    #[test]
    #[should_panic(expected = "out of 3 packed ids")]
    fn reading_past_the_end_panics() {
        PackedIds::new([1, 2, 3]).get(3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ascending runs with gaps below 2^`gap_bits` (0: one repeated
        /// value), starting at 0 or 2^32 below `u64::MAX` (where they end
        /// in a run of `u64::MAX`), and with `shuffle` odd the same values
        /// in a scrambled order.
        #[test]
        fn matches_a_vec_model(
            pick in 0usize..12,
            any_len in 0usize..400,
            gap_bits in 0u32..65,
            top in 0u8..2,
            shuffle in 0u64..u64::MAX,
            gaps in prop::collection::vec(0u64..u64::MAX, 400..401),
        ) {
            let len = [0, 1, 63, 64, 65, 129].get(pick).copied().unwrap_or(any_len);
            let mut v = if top == 1 { u64::MAX - (1 << 32) } else { 0 };
            let mut model: Vec<u64> = gaps[..len]
                .iter()
                .map(|&g| {
                    v = v.saturating_add(g.checked_shr(64 - gap_bits).unwrap_or(0));
                    v
                })
                .collect();
            if shuffle % 2 == 1 {
                let mut rng = crate::hash::SplitMix64::new(shuffle);
                for i in (1..model.len()).rev() {
                    model.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            check_against_model(model);
        }
    }
}
