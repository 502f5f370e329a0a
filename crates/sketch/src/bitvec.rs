//! A compact, fixed-width bit vector.
//!
//! Backs the plain Bloom filters of [`crate::bloom`]. Beyond set/get it
//! counts set bits and ANDs two vectors, the bucket join of paper
//! Algorithm 7 line 4 on plain filters. The BFHM's own buckets are
//! [`crate::HybridFilter`]s, which keep a counter per set bit.

/// A fixed-length bit vector stored as 64-bit words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    words: Vec<u64>,
    nbits: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector with `nbits` bits.
    pub fn new(nbits: usize) -> Self {
        BitVec {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Number of bits (the Bloom filter parameter `m`).
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// `true` if the vector has zero bits of capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Sets bit `i`; returns whether the bit was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        let (w, b) = (i / 64, i % 64);
        let was_clear = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        was_clear
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND of two equally-sized vectors. Kept for tests: the
    /// plain-filter form of Algorithm 7's bucket join, which the BFHM does
    /// on [`crate::HybridFilter`] counters instead.
    ///
    /// # Panics
    /// Panics if the lengths differ — BFHM bucket joins require both sides
    /// to use the same filter size `m`.
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(
            self.nbits, other.nbits,
            "bitwise AND requires equal filter sizes"
        );
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            nbits: self.nbits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::new(130);
        assert!(v.set(0));
        assert!(v.set(63));
        assert!(v.set(64));
        assert!(v.set(129));
        assert!(!v.set(64), "second set reports already-set");
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(128));
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn and_keeps_only_common_bits() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        for p in [1, 10, 64, 99] {
            a.set(p);
        }
        for p in [10, 11, 64] {
            b.set(p);
        }
        let c = a.and(&b);
        let ones: Vec<usize> = (0..c.len()).filter(|&p| c.get(p)).collect();
        assert_eq!(ones, vec![10, 64]);
    }

    #[test]
    fn and_of_disjoint_is_all_zero() {
        let mut a = BitVec::new(64);
        let mut b = BitVec::new(64);
        a.set(3);
        b.set(4);
        assert_eq!(a.and(&b).count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "equal filter sizes")]
    fn and_rejects_mismatched_sizes() {
        let _ = BitVec::new(64).and(&BitVec::new(65));
    }

    #[test]
    fn zero_length_vector() {
        let v = BitVec::new(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
    }
}
