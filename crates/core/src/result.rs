//! Join result tuples and the two top-k buffers.
//!
//! Every coordinator algorithm — HRJN (ISL and the N-ary spine), BFHM and
//! DRJN — ranks into one buffer, [`TopIds`]: a result is its score and one
//! id per side into the tuple store the algorithm already keeps (HRJN's
//! and DRJN's seen sides, BFHM's reverse-row cache), the ranked-enumeration
//! view (Tziavelis et al.) of an answer as a tuple of pointers into the
//! inputs. Most matches a join enumeration admits are evicted again before
//! it ends, so a [`JoinTuple`] is built only when a result leaves the
//! operator. [`TopK`] ranks owned tuples; it stays where the tuples are
//! owned already: the MapReduce baselines and the oracle.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;

/// One joined result tuple.
///
/// Binary joins fill `left_key`/`right_key` and leave `inner` empty; an
/// N-ary [`crate::query::JoinSpec`] result additionally records every
/// *interior* side (result order, sides `1..n-1`) in `inner`, with side
/// 0 as `left` and side `n-1` as `right`. That keeps the binary layout —
/// and therefore every binary code path and equality — untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinTuple {
    /// Row key of the left-side base tuple (side 0).
    pub left_key: Vec<u8>,
    /// Row key of the right-side base tuple (the last side).
    pub right_key: Vec<u8>,
    /// The shared join-attribute value (binary joins; for N-ary results
    /// this is the value on the first join edge).
    pub join_value: Vec<u8>,
    /// Left tuple's individual score.
    pub left_score: f64,
    /// Right tuple's individual score.
    pub right_score: f64,
    /// Interior sides of an N-ary join, as `(row_key, score)` in side
    /// order. Always empty for binary results.
    pub inner: Vec<(Vec<u8>, f64)>,
    /// Aggregate score — `f(left_score, right_score)` for binary joins,
    /// the full [`crate::score::ScoreFn::combine_many`] fold for N-ary.
    pub score: f64,
}

impl JoinTuple {
    /// Total order: score descending (IEEE total order, so even a NaN
    /// that slipped past ingest validation cannot break sort invariants),
    /// then `(left_key, inner keys, right_key)` ascending. Every
    /// algorithm in the crate returns results in this order, which makes
    /// cross-algorithm equality testable even under score ties. Binary
    /// tuples have empty `inner`, so their order is exactly the
    /// pre-N-ary `(left_key, right_key)` one.
    pub fn rank_cmp(&self, other: &JoinTuple) -> Ordering {
        let (inner, other_inner) = (self.inner.iter(), other.inner.iter());
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.left_key.cmp(&other.left_key))
            .then_with(|| {
                inner
                    .map(|(key, _)| key)
                    .cmp(other_inner.map(|(key, _)| key))
            })
            .then_with(|| self.right_key.cmp(&other.right_key))
    }
}

/// The top-k buffer of every coordinator algorithm — the paper's
/// `SortedList results; results.trim(k)` (Algorithm 2) — over results kept
/// as ids: per entry the result's score and one id per side into the
/// caller's tuple store, ranked in [`JoinTuple::rank_cmp`] order by reading
/// the sides' base keys through the caller's key function (for a fixed
/// side count, `(left, inner…, right)` is just sides `0..n`). It admits,
/// deduplicates and evicts exactly as [`TopK`] does over the built tuples
/// (a rank-equal duplicate is kept once, the first offered): a full buffer
/// rejects by one comparison with its last entry, anything else costs
/// `O(log k)` rank comparisons.
///
/// Entries stay in the slot they were written to — an admission into a
/// full buffer overwrites the evicted entry's — and rank order is a column
/// of slot numbers, so an admission shifts the slot numbers ranked after
/// it: `O(k)` four-byte moves. That is cheap because the algorithms meet
/// results roughly in rank order (their inputs descend in score), so most
/// admissions land near the tail; a full enumeration (`k` past the join
/// size, every result admitted: 59 940 on SF 0.01's Q2) measured no slower
/// than the B-tree of built tuples this buffer replaced. Nothing is sized
/// from `k`: the buffer grows with what it holds. An executor's run starts
/// from the capacity of a buffer one of the executor's runs grew before
/// (cleared; `crate::spare`), so it regrows only past what an earlier
/// run grew. A clone is an exact-size copy.
#[derive(Clone, Debug)]
pub struct TopIds {
    k: usize,
    /// Words per entry: `1 + sides`.
    stride: usize,
    /// Entries by slot: the score's bits, then the chosen tuple's id on
    /// every side in side order.
    entries: Vec<u64>,
    /// Slot of the entry at each rank.
    ranked: Vec<u32>,
}

impl TopIds {
    /// An empty buffer of the best `k` results, each one id per side of
    /// `sides`. `k = 0` is valid and retains nothing.
    pub fn new(k: usize, sides: usize) -> Self {
        TopIds {
            k,
            stride: 1 + sides,
            entries: Vec::new(),
            ranked: Vec::new(),
        }
    }

    /// Empties the buffer, keeping its capacity, to keep the best `k`
    /// results of one id per side of `sides`.
    pub(crate) fn reset(&mut self, k: usize, sides: usize) {
        self.k = k;
        self.stride = 1 + sides;
        self.entries.clear();
        self.ranked.clear();
    }

    /// The `k` it keeps.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of buffered results (≤ k).
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The words of the entry in `slot`.
    fn slot(&self, slot: u32) -> &[u64] {
        &self.entries[slot as usize * self.stride..][..self.stride]
    }

    /// The score of the result at `rank`.
    pub fn score(&self, rank: usize) -> f64 {
        f64::from_bits(self.slot(self.ranked[rank])[0])
    }

    /// The id on `side` of the result at `rank`.
    pub fn id(&self, rank: usize, side: usize) -> u32 {
        self.slot(self.ranked[rank])[1 + side] as u32
    }

    /// The k-th (worst buffered) score, or `None` while fewer than `k`
    /// results are buffered — what the termination tests compare their
    /// thresholds against.
    pub fn kth_score(&self) -> Option<f64> {
        let len = self.len();
        (len > 0 && len == self.k).then(|| self.score(len - 1))
    }

    /// How many buffered results score strictly above `threshold`: a
    /// prefix of the ranks, which a cursor may emit as final.
    pub fn count_above(&self, threshold: f64) -> usize {
        let score = |slot: u32| f64::from_bits(self.slot(slot)[0]);
        self.ranked.partition_point(|&slot| score(slot) > threshold)
    }

    /// [`JoinTuple::rank_cmp`] of the result `(score, ids)` against the
    /// one at `rank`.
    fn cmp<'a>(
        &self,
        score: f64,
        ids: &[u32],
        key: &impl Fn(usize, u32) -> &'a [u8],
        rank: usize,
    ) -> Ordering {
        self.score(rank).total_cmp(&score).then_with(|| {
            (0..ids.len())
                .map(|side| key(side, ids[side]).cmp(key(side, self.id(rank, side))))
                .find(|order| order.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }

    /// Offers the result `(score, ids)` — one id per side, `key(side, id)`
    /// the base key of tuple `id` of `side` — kept if it ranks among the
    /// best `k` and no rank-equal result is buffered already.
    pub fn offer<'a>(&mut self, score: f64, ids: &[u32], key: impl Fn(usize, u32) -> &'a [u8]) {
        debug_assert_eq!(ids.len() + 1, self.stride, "one id per side");
        let full = self.len() >= self.k;
        if full && (self.k == 0 || self.cmp(score, ids, &key, self.k - 1).is_ge()) {
            return;
        }
        let (mut at, mut end) = (0, self.len());
        while at < end {
            let mid = (at + end) / 2;
            match self.cmp(score, ids, &key, mid) {
                Ordering::Less => end = mid,
                Ordering::Equal => return,
                Ordering::Greater => at = mid + 1,
            }
        }
        // A full buffer evicts its last entry and reuses its slot.
        let evicted = if full { self.ranked.pop() } else { None };
        let slot = evicted.unwrap_or_else(|| {
            self.entries.resize(self.entries.len() + self.stride, 0);
            u32::try_from(self.len()).expect("top-k past 2^32 results")
        });
        let entry = &mut self.entries[slot as usize * self.stride..][..self.stride];
        entry[0] = score.to_bits();
        for (word, &id) in entry[1..].iter_mut().zip(ids) {
            *word = u64::from(id);
        }
        self.ranked.insert(at, slot);
    }

    /// The results of ranks `ranks` of a two-side join, built — where
    /// BFHM and DRJN copy bytes out of their tuple stores, and only for
    /// results leaving the run: `tuple(side, id)` reads a tuple's base
    /// key, join value and score.
    pub fn binary_results<'a>(
        &self,
        ranks: Range<usize>,
        tuple: impl Fn(usize, u32) -> (&'a [u8], &'a [u8], f64),
    ) -> Vec<JoinTuple> {
        let result = |rank| {
            let (left, right) = (tuple(0, self.id(rank, 0)), tuple(1, self.id(rank, 1)));
            JoinTuple {
                left_key: left.0.to_vec(),
                right_key: right.0.to_vec(),
                join_value: left.1.to_vec(),
                left_score: left.2,
                right_score: right.2,
                inner: Vec::new(),
                score: self.score(rank),
            }
        };
        ranks.map(result).collect()
    }
}

/// Wrapper giving `JoinTuple` the total order of [`JoinTuple::rank_cmp`].
#[derive(Clone, Debug, PartialEq)]
struct Ranked(JoinTuple);

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_cmp(&other.0)
    }
}

/// A bounded, deduplicating top-k of owned tuples — the paper's
/// `SortedList results; results.trim(k)` idiom (Algorithm 2) where the
/// tuples already exist: the MapReduce baselines and the oracle.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    set: BTreeSet<Ranked>,
}

impl TopK {
    /// An empty accumulator retaining `k` best tuples. `k = 0` is valid
    /// and retains nothing (every offer is discarded) — the degenerate
    /// query contract of [`crate::query::RankJoinQuery::with_k`].
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            set: BTreeSet::new(),
        }
    }

    /// Offers a tuple; keeps it only if it ranks in the current top-k.
    /// Duplicate `(left_key, right_key)` pairs (same scores) are kept once.
    pub fn offer(&mut self, t: JoinTuple) {
        self.set.insert(Ranked(t));
        while self.set.len() > self.k {
            self.set.pop_last();
        }
    }

    /// Number of retained tuples (≤ k).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The k-th (worst retained) score, or `None` when fewer than k tuples
    /// are held.
    pub fn kth_score(&self) -> Option<f64> {
        if self.set.len() < self.k {
            None
        } else {
            self.set.last().map(|r| r.0.score)
        }
    }

    /// Best retained score.
    pub fn best_score(&self) -> Option<f64> {
        self.set.first().map(|r| r.0.score)
    }

    /// Consumes into a rank-ordered vector.
    pub fn into_sorted_vec(self) -> Vec<JoinTuple> {
        self.set.into_iter().map(|r| r.0).collect()
    }

    /// Rank-ordered iteration without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &JoinTuple> {
        self.set.iter().map(|r| &r.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(l: &[u8], r: &[u8], score: f64) -> JoinTuple {
        JoinTuple {
            left_key: l.to_vec(),
            right_key: r.to_vec(),
            join_value: b"j".to_vec(),
            left_score: score / 2.0,
            right_score: score / 2.0,
            inner: Vec::new(),
            score,
        }
    }

    #[test]
    fn keeps_best_k() {
        let mut top = TopK::new(3);
        for (i, s) in [0.1, 0.9, 0.5, 0.7, 0.3].iter().enumerate() {
            top.offer(t(&[i as u8], b"r", *s));
        }
        let v = top.into_sorted_vec();
        let scores: Vec<f64> = v.iter().map(|x| x.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn kth_score_only_when_full() {
        let mut top = TopK::new(2);
        top.offer(t(b"a", b"r", 0.9));
        assert_eq!(top.kth_score(), None);
        top.offer(t(b"b", b"r", 0.4));
        assert_eq!(top.kth_score(), Some(0.4));
        top.offer(t(b"c", b"r", 0.6));
        assert_eq!(top.kth_score(), Some(0.6));
        assert_eq!(top.best_score(), Some(0.9));
    }

    #[test]
    fn ties_break_deterministically_by_key() {
        let mut top = TopK::new(2);
        top.offer(t(b"c", b"x", 0.5));
        top.offer(t(b"a", b"x", 0.5));
        top.offer(t(b"b", b"x", 0.5));
        let v = top.into_sorted_vec();
        assert_eq!(v[0].left_key, b"a".to_vec());
        assert_eq!(v[1].left_key, b"b".to_vec());
    }

    #[test]
    fn k_zero_retains_nothing() {
        let mut top = TopK::new(0);
        top.offer(t(b"a", b"r", 0.9));
        assert!(top.is_empty());
        assert_eq!(top.kth_score(), None);
        assert!(top.into_sorted_vec().is_empty());
    }

    #[test]
    fn duplicate_offers_collapse() {
        let mut top = TopK::new(5);
        top.offer(t(b"a", b"r", 0.5));
        top.offer(t(b"a", b"r", 0.5));
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn rank_cmp_is_total_enough() {
        let a = t(b"a", b"r", 0.5);
        let b = t(b"b", b"r", 0.5);
        assert_eq!(a.rank_cmp(&b), Ordering::Less);
        assert_eq!(b.rank_cmp(&a), Ordering::Greater);
        assert_eq!(a.rank_cmp(&a), Ordering::Equal);
        let hi = t(b"z", b"z", 0.9);
        assert_eq!(hi.rank_cmp(&a), Ordering::Less, "higher score ranks first");
    }
}
