//! Packed `u64`-word bitsets for the simulator's hot paths.
//!
//! The per-slot loops of the engine ask the same three questions many
//! times: *is this node awake*, *are these two nodes neighbors*, *does
//! this node hold that packet*. All three are membership tests over
//! index sets bounded by the node or packet count, so they pack into
//! `u64` words: one probe instead of a binary search, and set algebra
//! (awake ∩ neighbors ∩ ¬down) becomes a handful of word ANDs.
//!
//! The helpers here are deliberately free functions over `&[u64]` /
//! `&mut [u64]` slices rather than an owned type: the possession matrix
//! and adjacency rows want to live flattened inside their owners'
//! allocations, and slices keep them borrowable row by row.

/// Number of `u64` words needed to hold `n` bits.
#[inline]
pub const fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Test bit `i`.
#[inline]
pub fn test_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

/// Set bit `i`. Returns whether the bit was newly set.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) -> bool {
    let w = &mut words[i / 64];
    let mask = 1u64 << (i % 64);
    let was = *w & mask != 0;
    *w |= mask;
    !was
}

/// Clear bit `i`.
#[inline]
pub fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Zero every word.
#[inline]
pub fn clear_all(words: &mut [u64]) {
    words.fill(0);
}

/// Number of set bits.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Word-occupancy summary of `words` into `out`: bit `w` of `out` is
/// set iff `words[w] != 0`. `out` must hold `words_for(words.len())`
/// words. Summaries let a scan over many candidate rows reject
/// non-intersecting ones 64 words at a time before touching the rows
/// themselves (the wake calendar's next-rendezvous query).
#[inline]
pub fn summarize_into(words: &[u64], out: &mut [u64]) {
    debug_assert!(out.len() >= words_for(words.len()));
    out.fill(0);
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            out[w / 64] |= 1u64 << (w % 64);
        }
    }
}

/// Iterate the indices of set bits in ascending order.
#[inline]
pub fn iter_ones(words: &[u64]) -> OnesIter<'_> {
    OnesIter {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Iterate the indices of set bits of `a ∩ b` in ascending order.
/// `a` and `b` must be the same length.
#[inline]
pub fn iter_ones_and<'a>(a: &'a [u64], b: &'a [u64]) -> AndOnesIter<'a> {
    debug_assert_eq!(a.len(), b.len());
    AndOnesIter {
        a,
        b,
        word_idx: 0,
        current: match (a.first(), b.first()) {
            (Some(x), Some(y)) => x & y,
            _ => 0,
        },
    }
}

/// Ascending set-bit iterator over one word slice.
#[derive(Clone, Debug)]
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// Ascending set-bit iterator over the intersection of two word slices.
#[derive(Clone, Debug)]
pub struct AndOnesIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for AndOnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & self.b[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut w = vec![0u64; words_for(130)];
        assert_eq!(w.len(), 3);
        assert!(set_bit(&mut w, 0));
        assert!(set_bit(&mut w, 63));
        assert!(set_bit(&mut w, 64));
        assert!(set_bit(&mut w, 129));
        assert!(!set_bit(&mut w, 129), "second set reports not-new");
        assert!(test_bit(&w, 0) && test_bit(&w, 63) && test_bit(&w, 64));
        assert!(!test_bit(&w, 1) && !test_bit(&w, 128));
        assert_eq!(count_ones(&w), 4);
        clear_bit(&mut w, 63);
        assert!(!test_bit(&w, 63));
        assert_eq!(count_ones(&w), 3);
        clear_all(&mut w);
        assert_eq!(count_ones(&w), 0);
    }

    #[test]
    fn iter_ones_is_ascending_and_complete() {
        let mut w = vec![0u64; 3];
        for i in [0usize, 5, 63, 64, 100, 128, 191] {
            set_bit(&mut w, i);
        }
        let got: Vec<usize> = iter_ones(&w).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 100, 128, 191]);
        assert_eq!(iter_ones(&[]).count(), 0);
        assert_eq!(iter_ones(&[0, 0]).count(), 0);
    }

    #[test]
    fn intersection_iterator_matches_filter() {
        let mut a = vec![0u64; 2];
        let mut b = vec![0u64; 2];
        for i in [1usize, 3, 64, 90, 127] {
            set_bit(&mut a, i);
        }
        for i in [3usize, 64, 91, 127] {
            set_bit(&mut b, i);
        }
        let got: Vec<usize> = iter_ones_and(&a, &b).collect();
        assert_eq!(got, vec![3, 64, 127]);
    }

    #[test]
    fn summary_marks_exactly_the_nonzero_words() {
        let mut w = vec![0u64; 130];
        set_bit(&mut w, 0); // word 0
        set_bit(&mut w, 64 * 65 + 3); // word 65
        set_bit(&mut w, 64 * 129); // word 129
        let mut s = vec![u64::MAX; words_for(w.len())];
        summarize_into(&w, &mut s);
        let got: Vec<usize> = iter_ones(&s).collect();
        assert_eq!(got, vec![0, 65, 129]);
        clear_bit(&mut w, 64 * 65 + 3);
        summarize_into(&w, &mut s);
        let got: Vec<usize> = iter_ones(&s).collect();
        assert_eq!(got, vec![0, 129]);
    }
}
