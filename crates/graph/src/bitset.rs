//! Packed bitset: the in-memory form of an *adjacency bit vector*.
//!
//! In LF-GDPR-style protocols every user holds a length-`N` bit vector `B_i`
//! whose `j`-th bit says whether an edge `{i, j}` exists. Users perturb this
//! vector with randomized response and upload it, so the bitset is the
//! central data structure of the whole pipeline. It is stored as `u64`
//! words; all counting operations go through [`crate::popcount`].

use crate::popcount::{and_popcount, popcount};

/// A fixed-capacity packed bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset with capacity for `nbits` bits, all zero.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(WORD_BITS)],
            nbits,
        }
    }

    /// Builds a bitset of capacity `nbits` with the given bit indices set.
    ///
    /// # Panics
    /// Panics if any index is `>= nbits`.
    pub fn from_indices(nbits: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut bs = BitSet::new(nbits);
        for i in indices {
            bs.set(i);
        }
        bs
    }

    /// Number of bits this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Sets bit `i` to one.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.nbits,
            "bit index {i} out of range for capacity {}",
            self.nbits
        );
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i` to zero.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.nbits,
            "bit index {i} out of range for capacity {}",
            self.nbits
        );
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.nbits,
            "bit index {i} out of range for capacity {}",
            self.nbits
        );
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.nbits,
            "bit index {i} out of range for capacity {}",
            self.nbits
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits. For an adjacency bit vector this is the degree.
    pub fn count_ones(&self) -> usize {
        popcount(&self.words) as usize
    }

    /// `|self ∩ other|` — the popcount of the bitwise AND. This is
    /// Detect1's level-2 support count: the AND of two item columns.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "bitset capacities differ");
        and_popcount(&self.words, &other.words) as usize
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacities differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacities differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacities differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over the indices of set bits strictly below `limit`, in
    /// increasing order.
    ///
    /// Only words `0..⌈limit/64⌉` are scanned, so a consumer that discards
    /// everything at or above `limit` (e.g. lower-triangle report
    /// ingestion, where report `i` is authoritative only for slots `j < i`)
    /// skips the tail of the vector entirely instead of filtering it out.
    /// A `limit` beyond [`Self::capacity`] is clamped.
    pub fn iter_ones_below(&self, limit: usize) -> OnesBelowIter<'_> {
        let limit = limit.min(self.nbits);
        let words = &self.words[..limit.div_ceil(WORD_BITS)];
        OnesBelowIter {
            inner: OnesIter {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
            limit,
        }
    }

    /// Collects the set bit indices into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.count_ones());
        v.extend(self.iter_ones());
        v
    }

    /// Read access to the raw words (low bit of word 0 is bit 0). Bits at or
    /// beyond `capacity()` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the raw words, for bulk randomized-response
    /// perturbation. The caller must keep bits beyond `capacity()` zero;
    /// [`Self::mask_tail`] restores that invariant.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Zeroes any bits at positions `>= capacity()` in the last word.
    /// Call after bulk word-level writes.
    pub fn mask_tail(&mut self) {
        let rem = self.nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitSet({} bits: {:?})", self.nbits, self.to_indices())
    }
}

/// Iterator over set-bit indices; see [`BitSet::iter_ones`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Iterator over set-bit indices below a bound; see
/// [`BitSet::iter_ones_below`].
pub struct OnesBelowIter<'a> {
    inner: OnesIter<'a>,
    limit: usize,
}

impl Iterator for OnesBelowIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        // Indices come out ascending, so the first one at/above the limit
        // ends the iteration for good.
        self.inner.next().filter(|&i| i < self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bs = BitSet::new(130);
        assert!(!bs.get(0));
        bs.set(0);
        bs.set(64);
        bs.set(129);
        assert!(bs.get(0) && bs.get(64) && bs.get(129));
        assert_eq!(bs.count_ones(), 3);
        bs.clear(64);
        assert!(!bs.get(64));
        assert_eq!(bs.count_ones(), 2);
    }

    #[test]
    fn flip_toggles() {
        let mut bs = BitSet::new(10);
        bs.flip(3);
        assert!(bs.get(3));
        bs.flip(3);
        assert!(!bs.get(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bs = BitSet::new(8);
        bs.set(8);
    }

    #[test]
    fn iter_ones_in_order() {
        let bs = BitSet::from_indices(200, [5, 63, 64, 65, 199]);
        assert_eq!(bs.to_indices(), vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn iter_ones_below_bounds_scan() {
        let bs = BitSet::from_indices(200, [5, 63, 64, 65, 199]);
        assert_eq!(bs.iter_ones_below(65).collect::<Vec<_>>(), vec![5, 63, 64]);
        assert_eq!(bs.iter_ones_below(5).count(), 0);
        assert_eq!(bs.iter_ones_below(6).collect::<Vec<_>>(), vec![5]);
        // Word-boundary limits.
        assert_eq!(bs.iter_ones_below(64).collect::<Vec<_>>(), vec![5, 63]);
        assert_eq!(bs.iter_ones_below(0).count(), 0);
    }

    #[test]
    fn iter_ones_below_clamps_past_capacity() {
        let bs = BitSet::from_indices(70, [0, 69]);
        assert_eq!(bs.iter_ones_below(1000).collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(bs.iter_ones_below(70).collect::<Vec<_>>(), bs.to_indices());
    }

    #[test]
    fn iter_ones_below_is_fused_at_limit() {
        let bs = BitSet::from_indices(128, [1, 2, 100]);
        let mut it = bs.iter_ones_below(2);
        assert_eq!(it.next(), Some(1));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn iter_ones_empty() {
        let bs = BitSet::new(100);
        assert_eq!(bs.iter_ones().count(), 0);
        assert!(bs.is_empty());
    }

    #[test]
    fn intersection_count_matches_reference() {
        let a = BitSet::from_indices(300, [1, 2, 3, 100, 250]);
        let b = BitSet::from_indices(300, [2, 3, 4, 250, 299]);
        assert_eq!(a.intersection_count(&b), 3);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::from_indices(70, [1, 2]);
        let b = BitSet::from_indices(70, [2, 3, 69]);
        a.union_with(&b);
        assert_eq!(a.to_indices(), vec![1, 2, 3, 69]);
        a.intersect_with(&b);
        assert_eq!(a.to_indices(), vec![2, 3, 69]);
    }

    #[test]
    fn difference_with_removes() {
        let mut a = BitSet::from_indices(70, [1, 2, 3]);
        let b = BitSet::from_indices(70, [2]);
        a.difference_with(&b);
        assert_eq!(a.to_indices(), vec![1, 3]);
    }

    #[test]
    fn mask_tail_clears_spurious_bits() {
        let mut bs = BitSet::new(65);
        bs.words_mut()[1] = u64::MAX;
        bs.mask_tail();
        assert_eq!(bs.count_ones(), 1);
        assert!(bs.get(64));
    }

    #[test]
    fn capacity_exact_word_boundary_has_no_tail() {
        let mut bs = BitSet::new(128);
        bs.words_mut()[1] = u64::MAX;
        bs.mask_tail();
        assert_eq!(bs.count_ones(), 64);
    }

    #[test]
    fn zero_capacity_bitset() {
        let bs = BitSet::new(0);
        assert_eq!(bs.count_ones(), 0);
        assert_eq!(bs.iter_ones().count(), 0);
    }

    #[test]
    fn clear_all_resets() {
        let mut bs = BitSet::from_indices(100, [0, 50, 99]);
        bs.clear_all();
        assert!(bs.is_empty());
    }
}
