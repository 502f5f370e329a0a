//! The paper's hybrid filter: a single-hash Bloom filter fused with a
//! counting-filter hash table (Fig. 4, §5.1).
//!
//! Each BFHM bucket keeps (i) which bits of an `m`-bit single-hash bitmap
//! are set and (ii) a counter per set bit recording how many tuples hashed
//! there. Joining two buckets ANDs the bitmaps and sums counter products
//! over the common positions (Algorithm 7), optionally scaled by the α
//! false-positive compensation of §5.3. The structure is "a hybrid between
//! Golomb Compressed Sets and Counting Bloom filters"; the Golomb layer
//! lives in [`crate::blob`].
//!
//! # Layout
//!
//! The in-memory layout *is* the blob's: one array holding the set bit
//! positions in strictly increasing order, then one counter (≥ 1) per
//! position, in the same order. A blob decode moves the array in (and
//! [`HybridFilter::into_words`] moves it out for the next decode), an
//! encode reads its two halves as slices, a bucket join is a two-pointer
//! merge that allocates nothing ([`HybridFilter::common`]), an insert or
//! remove a binary search (plus a shifting insert or removal for a
//! position's first or last tuple). The bitmap is never materialized: a
//! bit is set exactly when its position is in the array.

use std::cmp::Ordering;

/// Single-hash Bloom filter + per-set-bit counters, as one sorted array
/// of positions followed by their counters (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct HybridFilter {
    /// Bitmap size in bits.
    m: usize,
    /// Insertions currently represented (`n` in `PT`).
    n_inserted: u64,
    /// The set bit positions, strictly increasing and each `< m`, then
    /// the counter of each (never 0): `words[..len / 2]` and
    /// `words[len / 2..]`.
    words: Vec<u32>,
}

/// How bucket-join cardinality estimates compensate for false positives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AlphaMode {
    /// Scale by `α = (1 - PT_A)(1 - PT_B)` (paper §5.3).
    #[default]
    Compensated,
    /// `α = 1` — the naive estimate; kept for the ablation study.
    Off,
}

impl HybridFilter {
    /// Creates a hybrid filter whose bitmap has `m` bits.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "Bloom filter needs at least one bit");
        HybridFilter {
            m,
            n_inserted: 0,
            words: Vec::new(),
        }
    }

    /// Inserts a join value; returns the bit position it was recorded at.
    pub fn insert(&mut self, join_value: &[u8]) -> u32 {
        let pos = self.position(join_value);
        let half = self.set_bit_count();
        match self.set_positions().binary_search(&pos) {
            Ok(at) => self.words[half + at] += 1,
            Err(at) => {
                // The counter first, so the position's shift moves it into
                // place.
                self.words.insert(half + at, 1);
                self.words.insert(at, pos);
            }
        }
        self.n_inserted += 1;
        pos
    }

    /// Removes one occurrence of a join value (BFHM tombstone replay, §6).
    ///
    /// Returns the bit position if an occurrence was recorded there, or
    /// `None` if the counter was already zero (a tombstone for a tuple the
    /// blob never saw — ignored, matching timestamp-ordered replay).
    pub fn remove(&mut self, join_value: &[u8]) -> Option<u32> {
        let pos = self.position(join_value);
        let half = self.set_bit_count();
        let at = self.set_positions().binary_search(&pos).ok()?;
        if self.words[half + at] > 1 {
            self.words[half + at] -= 1;
        } else {
            self.words.remove(half + at);
            self.words.remove(at);
        }
        self.n_inserted = self.n_inserted.saturating_sub(1);
        Some(pos)
    }

    /// The counter at `pos` (0 when the bit is clear).
    pub fn counter(&self, pos: u32) -> u32 {
        self.set_positions()
            .binary_search(&pos)
            .map_or(0, |at| self.counts()[at])
    }

    /// Bit position a join value would map to.
    pub fn position(&self, join_value: &[u8]) -> u32 {
        crate::bloom::SingleHashBloom::position_in(self.m, join_value) as u32
    }

    /// Set bit positions in increasing order.
    pub fn set_positions(&self) -> &[u32] {
        &self.words[..self.set_bit_count()]
    }

    /// The counter of each set bit, parallel to
    /// [`HybridFilter::set_positions`].
    pub fn counts(&self) -> &[u32] {
        &self.words[self.set_bit_count()..]
    }

    /// Number of distinct set bits.
    pub fn set_bit_count(&self) -> usize {
        self.words.len() / 2
    }

    /// Total insertions currently represented (`n` in `PT`).
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// Sum of all counters — the number of tuples recorded in this bucket.
    pub fn total_count(&self) -> u64 {
        self.counts().iter().map(|&c| u64::from(c)).sum()
    }

    /// Bitmap size `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `PT = 1 - (1 - 1/m)^n ≈ 1 - e^(-n/m)` for this filter (paper §5.3,
    /// k = 1): the probability that a given bit is set.
    pub fn pt(&self) -> f64 {
        1.0 - (-(self.n_inserted as f64) / self.m as f64).exp()
    }

    /// The common set-bit positions with `other` (the bitwise AND of
    /// Algorithm 7 line 4) as `(position, counter here, counter there)`,
    /// in increasing order: a two-pointer merge that allocates nothing.
    pub fn common<'a>(
        &'a self,
        other: &'a HybridFilter,
    ) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
        assert_eq!(self.m, other.m, "bucket join requires equal filter sizes");
        let (a, b) = (self.set_positions(), other.set_positions());
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        return Some((a[i - 1], self.counts()[i - 1], other.counts()[j - 1]));
                    }
                }
            }
            None
        })
    }

    /// Common set-bit positions with `other`, in increasing order.
    pub fn common_positions(&self, other: &HybridFilter) -> Vec<u32> {
        self.common(other).map(|(pos, ..)| pos).collect()
    }

    /// One bucket join: how many set bits the two filters share, and the
    /// estimated join cardinality `Σ c_A(bit)·c_B(bit)` over them, scaled
    /// by `α = (1-PT_A)(1-PT_B)` when compensation is on (Algorithm 7 line
    /// 8 with §5.3's α).
    pub fn join_estimate(&self, other: &HybridFilter, mode: AlphaMode) -> (usize, f64) {
        let (common, raw) = self
            .common(other)
            .fold((0, 0u64), |(common, raw), (_, a, b)| {
                (common + 1, raw + u64::from(a) * u64::from(b))
            });
        let alpha = match mode {
            AlphaMode::Compensated => (1.0 - self.pt()) * (1.0 - other.pt()),
            AlphaMode::Off => 1.0,
        };
        (common, raw as f64 * alpha)
    }

    /// Builds a filter from its persisted array (blob decoding), taken as
    /// it is — or `None` if it cannot be a filter's: one counter per
    /// position, positions strictly increasing and below `m`, counters at
    /// least 1.
    pub fn from_parts(m: usize, n_inserted: u64, words: Vec<u32>) -> Option<Self> {
        let filter = HybridFilter {
            m,
            n_inserted,
            words,
        };
        let positions = filter.set_positions();
        let valid = filter.words.len().is_multiple_of(2)
            && positions.windows(2).all(|pair| pair[0] < pair[1])
            && positions.last().map_or(m > 0, |&last| (last as usize) < m)
            && filter.counts().iter().all(|&c| c > 0);
        valid.then_some(filter)
    }

    /// The filter's one array, for another blob to decode into
    /// ([`crate::blob::BfhmBlob::decode_into`]).
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_of(m: usize, items: &[&[u8]]) -> HybridFilter {
        let mut f = HybridFilter::new(m);
        for it in items {
            f.insert(it);
        }
        f
    }

    #[test]
    fn counters_track_multiplicity() {
        let mut f = HybridFilter::new(1 << 16);
        let p1 = f.insert(b"d");
        let p2 = f.insert(b"d");
        assert_eq!(p1, p2);
        assert_eq!(f.counter(p1), 2);
        assert_eq!(f.total_count(), 2);
        assert_eq!(f.n_inserted(), 2);
    }

    #[test]
    fn remove_decrements_then_clears() {
        let mut f = HybridFilter::new(1 << 16);
        let p = f.insert(b"d");
        f.insert(b"d");
        assert_eq!(f.remove(b"d"), Some(p));
        assert_eq!(f.counter(p), 1);
        assert_eq!(f.remove(b"d"), Some(p));
        assert_eq!(f.counter(p), 0);
        assert!(f.set_positions().is_empty(), "the bit is clear again");
        assert_eq!(f.remove(b"d"), None, "over-delete is ignored");
    }

    #[test]
    fn join_cardinality_exact_without_collisions() {
        // Big m: no collisions. A = {a, b, b}, B = {b, b, c} → joins on b:
        // 2 * 2 = 4.
        let a = filter_of(1 << 20, &[b"a", b"b", b"b"]);
        let b = filter_of(1 << 20, &[b"b", b"b", b"c"]);
        let est = a.join_estimate(&b, AlphaMode::Off).1;
        assert_eq!(est, 4.0);
    }

    #[test]
    fn alpha_shrinks_estimate() {
        let a = filter_of(64, &[b"a", b"b", b"c", b"d", b"e"]);
        let b = filter_of(64, &[b"b", b"c", b"x", b"y"]);
        let raw = a.join_estimate(&b, AlphaMode::Off).1;
        let comp = a.join_estimate(&b, AlphaMode::Compensated).1;
        assert!(comp < raw);
        assert!(comp > 0.0);
    }

    #[test]
    fn disjoint_buckets_estimate_zero() {
        let a = filter_of(1 << 20, &[b"a"]);
        let b = filter_of(1 << 20, &[b"z"]);
        assert!(a.common_positions(&b).is_empty());
        assert_eq!(a.join_estimate(&b, AlphaMode::Off).1, 0.0);
    }

    #[test]
    fn cardinality_only_overestimates() {
        // Lemma 1: per-position counters are >= true multiplicity, so the
        // uncompensated estimate can only overestimate. Use a tiny filter to
        // force collisions.
        let keys_a: Vec<Vec<u8>> = (0..40u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let keys_b: Vec<Vec<u8>> = (20..60u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut a = HybridFilter::new(32);
        let mut b = HybridFilter::new(32);
        for k in &keys_a {
            a.insert(k);
        }
        for k in &keys_b {
            b.insert(k);
        }
        // True join: 20 common values, each multiplicity 1 → 20.
        let est = a.join_estimate(&b, AlphaMode::Off).1;
        assert!(est >= 20.0, "estimate {est} below true cardinality");
    }

    #[test]
    fn from_parts_roundtrip() {
        let f = filter_of(4096, &[b"a", b"b", b"b", b"c", b"zebra"]);
        let words = [f.set_positions(), f.counts()].concat();
        let g = HybridFilter::from_parts(f.m(), f.n_inserted(), words);
        assert_eq!(g, Some(f));
        let none = |m, positions: &[u32], counts: &[u32]| {
            HybridFilter::from_parts(m, 1, [positions, counts].concat()).is_none()
        };
        assert!(none(64, &[3, 3], &[1, 1]) && none(64, &[5, 3], &[1, 1]));
        assert!(none(64, &[64], &[1]) && none(64, &[3], &[0]) && none(64, &[3], &[]));
        assert!(none(0, &[], &[]));
    }

    #[test]
    #[should_panic(expected = "equal filter sizes")]
    fn join_rejects_mismatched_m() {
        let a = HybridFilter::new(64);
        let b = HybridFilter::new(128);
        a.common_positions(&b);
    }
}
