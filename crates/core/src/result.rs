//! Join result tuples and the bounded top-k list.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;

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
        rank_cmp_keys(self, other)
    }
}

/// The fields [`JoinTuple::rank_cmp`] orders by, readable without owning
/// them — what lets [`TopK::admits`] rank a join match while its keys
/// still sit in BFHM's reverse-row cache or DRJN's seen stores, before
/// any [`JoinTuple`] is built for it. (HRJN ranks matches without it: its
/// top-k buffers seen-tuple ids, see [`crate::hrjn`].)
pub trait RankKey {
    /// Aggregate score.
    fn score(&self) -> f64;
    /// Row key of side 0.
    fn left_key(&self) -> &[u8];
    /// Row key of the last side.
    fn right_key(&self) -> &[u8];
    /// Number of interior sides (0 for binary joins).
    fn inner_len(&self) -> usize;
    /// Row key of interior side `i` (side `i + 1` of the join).
    fn inner_key(&self, i: usize) -> &[u8];
}

impl RankKey for JoinTuple {
    fn score(&self) -> f64 {
        self.score
    }
    fn left_key(&self) -> &[u8] {
        &self.left_key
    }
    fn right_key(&self) -> &[u8] {
        &self.right_key
    }
    fn inner_len(&self) -> usize {
        self.inner.len()
    }
    fn inner_key(&self, i: usize) -> &[u8] {
        &self.inner[i].0
    }
}

/// A binary join match whose [`JoinTuple`] has not been built: its keys
/// and join value still borrowed from wherever the operator keeps its
/// tuples (BFHM's reverse-row cache, DRJN's seen stores and pulled
/// cells). [`TopK::offer_match`] builds the owned tuple only if it enters
/// the top-k.
pub(crate) struct BinaryMatch<'a> {
    pub left_key: &'a [u8],
    pub right_key: &'a [u8],
    pub join_value: &'a [u8],
    pub left_score: f64,
    pub right_score: f64,
    /// `f(left_score, right_score)`.
    pub score: f64,
}

impl RankKey for BinaryMatch<'_> {
    fn score(&self) -> f64 {
        self.score
    }
    fn left_key(&self) -> &[u8] {
        self.left_key
    }
    fn right_key(&self) -> &[u8] {
        self.right_key
    }
    fn inner_len(&self) -> usize {
        0
    }
    fn inner_key(&self, _: usize) -> &[u8] {
        &[]
    }
}

/// The one definition of the rank order, over any two [`RankKey`]s.
fn rank_cmp_keys<A: RankKey + ?Sized, B: RankKey + ?Sized>(a: &A, b: &B) -> Ordering {
    b.score()
        .total_cmp(&a.score())
        .then_with(|| a.left_key().cmp(b.left_key()))
        .then_with(|| {
            let a_inner = (0..a.inner_len()).map(|i| a.inner_key(i));
            let b_inner = (0..b.inner_len()).map(|i| b.inner_key(i));
            a_inner.cmp(b_inner)
        })
        .then_with(|| a.right_key().cmp(b.right_key()))
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

// `BTreeSet<Ranked>` lookups by a borrowed key: `dyn RankKey` carries the
// same order as `Ranked`, as `Borrow` requires.
impl<'a> Borrow<dyn RankKey + 'a> for Ranked {
    fn borrow(&self) -> &(dyn RankKey + 'a) {
        &self.0
    }
}

impl PartialEq for dyn RankKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn RankKey + '_ {}

impl PartialOrd for dyn RankKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn RankKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp_keys(self, other)
    }
}

/// A bounded, deduplicating top-k accumulator — the paper's
/// `SortedList results; results.trim(k)` idiom (Algorithm 2).
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

    /// Whether [`TopK::offer`]ing a tuple with this rank key would change
    /// the retained set: it is not retained already and it ranks among the
    /// best `k` (a tie with the k-th that sorts after it does not). BFHM's
    /// materialization and DRJN's pull join test this on borrowed keys
    /// (`TopK::offer_match`) and build the owned [`JoinTuple`] only for
    /// the matches that pass.
    pub fn admits(&self, candidate: &dyn RankKey) -> bool {
        let room = self.set.len() < self.k;
        let beats_last = self
            .set
            .last()
            .is_some_and(|last| rank_cmp_keys(candidate, &last.0) == Ordering::Less);
        (room || beats_last) && !self.set.contains(candidate)
    }

    /// [`TopK::offer`] for a match still borrowed: tested with
    /// [`TopK::admits`] first, copied out only when it passes.
    pub(crate) fn offer_match(&mut self, m: BinaryMatch<'_>) {
        if self.admits(&m) {
            self.offer(JoinTuple {
                left_key: m.left_key.to_vec(),
                right_key: m.right_key.to_vec(),
                join_value: m.join_value.to_vec(),
                left_score: m.left_score,
                right_score: m.right_score,
                inner: Vec::new(),
                score: m.score,
            });
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
    /// are held. This is the score the HRJN/BFHM termination tests compare
    /// thresholds against.
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
