//! A dense one-bit-per-index set that drains in ascending index order.
//!
//! Hot paths that touch a handful of resources out of ~100 and then need
//! them in ascending index order (the solver's bottleneck scan, L07's
//! activity weights) mark each touch here instead of pushing it to a list
//! and sorting: draining visits the set bits word by word, lowest bit
//! first, which is exactly the order `sort_unstable` gives the list.

/// A set of small indices, one bit each. Empty between drains.
#[derive(Debug, Clone, Default)]
pub struct IndexBitset {
    words: Vec<u64>,
}

impl IndexBitset {
    /// An empty set; call [`IndexBitset::grow`] before inserting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for indices `0..len`. Never shrinks; keeps the members.
    pub fn grow(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Adds `i`; returns `true` when it was not yet a member.
    ///
    /// # Panics
    ///
    /// When `i` is beyond the length given to [`IndexBitset::grow`].
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Calls `f` on every member in ascending order and empties the set.
    #[inline]
    pub fn drain_ascending(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_sorted_order_and_empties() {
        let mut s = IndexBitset::new();
        s.grow(200);
        let touched = [130usize, 3, 64, 63, 0, 199, 3, 64, 127];
        let mut first = Vec::new();
        for &i in &touched {
            if s.insert(i) {
                first.push(i);
            }
        }
        assert_eq!(s.count(), first.len());
        first.sort_unstable();
        let mut drained = Vec::new();
        s.drain_ascending(|i| drained.push(i));
        assert_eq!(drained, first);
        assert_eq!(s.count(), 0);
        assert!(s.insert(3), "drained members can be inserted afresh");
    }

    #[test]
    fn grow_keeps_members() {
        let mut s = IndexBitset::new();
        s.grow(10);
        s.insert(9);
        s.grow(300);
        s.insert(299);
        let mut drained = Vec::new();
        s.drain_ascending(|i| drained.push(i));
        assert_eq!(drained, vec![9, 299]);
    }
}
