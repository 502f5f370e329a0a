//! The centralized HRJN operator (Ilyas, Aref & Elmagarmid, VLDB 2003).
//!
//! HRJN consumes two inputs sorted by descending score, joining each newly
//! retrieved tuple against everything seen so far. It keeps per-input
//! minimum (`s̄_i`, the score of the last pulled tuple) and maximum
//! (`ŝ_i`, the first pulled) scores, and stops when the k-th buffered
//! result is at least the **threshold**
//!
//! ```text
//! S = max{ f(s̄_1, ŝ_2), f(ŝ_1, s̄_2) }
//! ```
//!
//! — the best score any future join tuple could achieve (§4.2.1). The ISL
//! algorithm (§4.2) is this operator driven by batched scans over the
//! score-ordered ISL index; this module keeps the core logic independent
//! so it can be tested (and property-tested) in isolation.

use rj_sketch::FlatMultiMap;

use crate::result::{JoinTuple, RankKey, TopK};
use crate::score::ScoreFn;

/// One input tuple: `(base key, join value, score)`.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedTuple {
    /// Base-table row key.
    pub key: Vec<u8>,
    /// Join-attribute value.
    pub join_value: Vec<u8>,
    /// Individual score.
    pub score: f64,
}

/// Which input a tuple came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left relation.
    Left,
    /// The right relation.
    Right,
}

impl Side {
    /// Side of a 0/1 index (0 = left).
    pub(crate) fn of(index: usize) -> Side {
        if index == 0 {
            Side::Left
        } else {
            Side::Right
        }
    }
}

/// Per-side seen-tuple store in flat, cache-friendly layout.
///
/// The old representation — `HashMap<Vec<u8>, Vec<(Vec<u8>, f64)>>` — paid
/// a heap allocation per join value plus one per tuple group, and the
/// descent loop chased those pointers on every probe. Here join values are
/// interned into a [`FlatMultiMap`] whose groups hold dense tuple ids, and
/// the tuples themselves are **columnar**: base keys back to back in one
/// byte arena, scores in one contiguous `f64` column (which is also what
/// the observed-descent histogram scans).
#[derive(Clone, Default)]
pub(crate) struct SeenSide {
    /// Join value → group of tuple ids.
    index: FlatMultiMap<u32>,
    /// Tuple base keys, interned back to back.
    key_arena: Vec<u8>,
    /// Per-tuple `(offset, len)` span into `key_arena`.
    key_spans: Vec<(u32, u32)>,
    /// Per-tuple scores, one flat column.
    scores: Vec<f64>,
}

impl SeenSide {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one `(base key, score)` tuple under `join`.
    pub(crate) fn insert(&mut self, join: &[u8], key: &[u8], score: f64) {
        // Checked narrowing: a store past 2^32 tuples or 4 GiB of key
        // bytes must panic, not silently alias spans.
        let id = u32::try_from(self.scores.len()).expect("SeenSide tuple count overflows u32");
        self.key_spans.push((
            u32::try_from(self.key_arena.len()).expect("SeenSide key arena overflows u32"),
            u32::try_from(key.len()).expect("SeenSide key length overflows u32"),
        ));
        self.key_arena.extend_from_slice(key);
        self.scores.push(score);
        self.index.push(join, id);
    }

    /// The `(base key, score)` tuple recorded under id `id`.
    fn tuple(&self, id: u32) -> (&[u8], f64) {
        let (off, len) = self.key_spans[id as usize];
        (
            &self.key_arena[off as usize..(off + len) as usize],
            self.scores[id as usize],
        )
    }

    /// All `(base key, score)` tuples seen under `join`, insertion order.
    pub(crate) fn matches<'a>(&'a self, join: &[u8]) -> impl Iterator<Item = (&'a [u8], f64)> + 'a {
        self.index.get(join).map(move |&id| self.tuple(id))
    }

    /// Every distinct join value with its tuples — the whole-side sweep.
    fn groups(
        &self,
    ) -> impl Iterator<Item = (&[u8], impl Iterator<Item = (&[u8], f64)> + '_)> + '_ {
        (0..self.index.num_keys() as u32).map(move |entry| {
            let tuples = self.index.group(entry).map(move |&id| self.tuple(id));
            (self.index.key(entry), tuples)
        })
    }

    /// Number of tuples recorded.
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }

    /// The contiguous score column (for whole-side sweeps).
    pub(crate) fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// A binary join match as a [`RankKey`], both row keys still borrowed
/// from wherever they sit (an index cell, a seen-tuple arena).
struct MatchKey<'a> {
    left_key: &'a [u8],
    right_key: &'a [u8],
    score: f64,
}

impl RankKey for MatchKey<'_> {
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
        unreachable!("binary matches have no interior sides")
    }
}

/// Offers the join of `left` and `right` (each `(base key, score)`) on
/// `join`, building the owned [`JoinTuple`] only if it enters the top-k.
fn offer_match(
    results: &mut TopK,
    score_fn: ScoreFn,
    join: &[u8],
    left: (&[u8], f64),
    right: (&[u8], f64),
) {
    let score = score_fn.combine(left.1, right.1);
    let key = MatchKey {
        left_key: left.0,
        right_key: right.0,
        score,
    };
    if results.admits(&key) {
        results.offer(JoinTuple {
            left_key: left.0.to_vec(),
            right_key: right.0.to_vec(),
            join_value: join.to_vec(),
            left_score: left.1,
            right_score: right.1,
            inner: Vec::new(),
            score,
        });
    }
}

/// Incremental HRJN state machine. Feed tuples in descending score order
/// per side (any interleaving of sides) and poll [`HrjnState::is_done`].
///
/// Plain columnar data throughout, so a paused cursor parks the state
/// itself ([`Clone`]) rather than a log to rebuild it from.
#[derive(Clone)]
pub struct HrjnState {
    k: usize,
    score_fn: ScoreFn,
    results: TopK,
    seen: [SeenSide; 2],
    /// Tuples pushed per side (kept separately so per-batch observers
    /// read it in O(1) instead of walking the seen-maps).
    consumed: [usize; 2],
    /// (max seen, min seen) per side; `None` until the first tuple.
    bounds: [Option<(f64, f64)>; 2],
    exhausted: [bool; 2],
}

impl HrjnState {
    /// Fresh state for a top-k join under `score_fn`.
    pub fn new(k: usize, score_fn: ScoreFn) -> Self {
        HrjnState {
            k,
            score_fn,
            results: TopK::new(k),
            seen: [SeenSide::new(), SeenSide::new()],
            consumed: [0, 0],
            bounds: [None, None],
            exhausted: [false, false],
        }
    }

    fn side_index(side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    /// Feeds one tuple from `side`. Panics in debug builds if scores go up
    /// — inputs must be score-descending.
    pub fn push(&mut self, side: Side, tuple: RankedTuple) {
        self.push_borrowed(side, &tuple.key, &tuple.join_value, tuple.score);
    }

    /// [`HrjnState::push`] over borrowed parts: nothing is copied except
    /// into the seen-tuple arenas and, for a join match that enters the
    /// top-k, its result tuple.
    pub fn push_borrowed(&mut self, side: Side, key: &[u8], join: &[u8], score: f64) {
        let i = Self::side_index(side);
        debug_assert!(
            self.bounds[i].is_none_or(|(_, min)| score <= min + 1e-12),
            "input not score-descending"
        );
        self.bounds[i] = Some(match self.bounds[i] {
            None => (score, score),
            Some((max, min)) => (max, min.min(score)),
        });

        // Join against the other side's seen tuples (columnar probe).
        for other in self.seen[1 - i].matches(join) {
            let (left, right) = if i == 0 {
                ((key, score), other)
            } else {
                (other, (key, score))
            };
            offer_match(&mut self.results, self.score_fn, join, left, right);
        }
        self.seen[i].insert(join, key, score);
        self.consumed[i] += 1;
    }

    /// Re-targets the operator to `new_k`, rebuilding the top-k buffer by
    /// one join sweep over the two seen sides: every match among consumed
    /// tuples is offered again, so results a shallower `k` had evicted
    /// come back. The sweep's order is immaterial — [`TopK`] is a set
    /// under the total [`JoinTuple::rank_cmp`] order — and consumed
    /// counts, bounds and exhaustion are untouched, so the operator is
    /// exactly what pushing the same tuples at `new_k` would have built.
    pub fn retarget(&mut self, new_k: usize) {
        self.k = new_k;
        self.results = TopK::new(new_k);
        let [left_side, right_side] = &self.seen;
        for (join, lefts) in left_side.groups() {
            for left in lefts {
                for right in right_side.matches(join) {
                    offer_match(&mut self.results, self.score_fn, join, left, right);
                }
            }
        }
    }

    /// Marks a side as fully consumed.
    pub fn exhaust(&mut self, side: Side) {
        self.exhausted[Self::side_index(side)] = true;
    }

    /// Whether `side` was marked fully consumed.
    pub fn is_exhausted(&self, side: Side) -> bool {
        self.exhausted[Self::side_index(side)]
    }

    /// The HRJN threshold: the maximum attainable score of any join tuple
    /// not yet produced. `None` while no bound exists yet (nothing pulled
    /// from some non-exhausted side).
    pub fn threshold(&self) -> Option<f64> {
        // A future join tuple needs at least one *unseen* tuple. Unseen
        // tuples on side i score at most s̄_i; the partner is bounded by
        // ŝ_other. Exhausted sides produce no unseen tuples.
        let mut t: Option<f64> = None;
        for i in 0..2 {
            if self.exhausted[i] {
                continue;
            }
            let Some((_, my_min)) = self.bounds[i] else {
                // Nothing pulled from an active side: unbounded.
                return None;
            };
            // Partner bound: the other side's max seen. If the other side
            // has produced nothing: an exhausted empty side can never
            // partner (skip); an active one leaves the bound open.
            let other_max = match self.bounds[1 - i] {
                Some((max, _)) => max,
                None if self.exhausted[1 - i] => continue,
                None => return None,
            };
            let bound = self.score_fn.combine_sided(i, my_min, other_max);
            t = Some(t.map_or(bound, |x: f64| x.max(bound)));
        }
        t.or(Some(f64::NEG_INFINITY))
    }

    /// Termination test: k results buffered and the k-th ≥ threshold.
    pub fn is_done(&self) -> bool {
        match (self.results.kth_score(), self.threshold()) {
            (Some(kth), Some(t)) => kth >= t,
            // Both sides exhausted → threshold = -inf → done even if fewer
            // than k results exist.
            (None, Some(t)) => t == f64::NEG_INFINITY,
            _ => false,
        }
    }

    /// Current result count.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Total tuples consumed across both sides.
    pub fn tuples_consumed(&self) -> usize {
        self.consumed.iter().sum()
    }

    /// Finishes, returning the rank-ordered results.
    pub fn into_results(self) -> Vec<JoinTuple> {
        self.results.into_sorted_vec()
    }

    /// Requested k.
    pub fn k(&self) -> usize {
        self.k
    }

    // ------------------------------------------------------------------
    // Threshold-state handoff — what an adaptive driver
    // ([`crate::adaptive`]) reads out of a part-way HRJN execution when it
    // aborts ISL and switches algorithms mid-query. Everything here is
    // derived from tuples already consumed; no handoff call touches the
    // store.
    // ------------------------------------------------------------------

    /// The k-th buffered result's score — a valid *lower bound* on the
    /// final k-th score (buffered results are genuine join tuples), or
    /// `None` while fewer than k are buffered.
    pub fn kth_score(&self) -> Option<f64> {
        self.results.kth_score()
    }

    /// Tuples consumed from one side so far (O(1) — observers call this
    /// after every batch).
    pub fn consumed(&self, side: Side) -> usize {
        self.consumed[Self::side_index(side)]
    }

    /// `(max seen, min seen)` scores of one side — the `ŝ_i`/`s̄_i` pair
    /// the HRJN threshold is built from. `None` before the first pull.
    /// The max is the side's *true* maximum (inputs are score-descending);
    /// the min is how deep the descent has reached.
    pub fn side_bounds(&self, side: Side) -> Option<(f64, f64)> {
        self.bounds[Self::side_index(side)]
    }

    /// Equi-width histogram (over `[0,1]`, `buckets` cells, out-of-range
    /// scores clamped to the edge cells) of the scores consumed from one
    /// side — the *observed* descent an adaptive driver compares against
    /// the planner's histogram-predicted descent, in the same bucket
    /// geometry as [`crate::planner::TableStats`].
    pub fn observed_histogram(&self, side: Side, buckets: usize) -> Vec<u64> {
        let buckets = buckets.max(1);
        let mut hist = vec![0u64; buckets];
        // One linear sweep over the side's contiguous score column.
        for score in self.seen[Self::side_index(side)].scores() {
            let b = ((score.max(0.0) * buckets as f64) as usize).min(buckets - 1);
            hist[b] += 1;
        }
        hist
    }

    /// The genuine join tuples buffered so far, rank-ordered — safe to
    /// seed another algorithm's top-k accumulator with (every one is a
    /// real join result of tuples already paid for).
    pub fn current_results(&self) -> Vec<JoinTuple> {
        self.results().cloned().collect()
    }

    /// The buffered results in rank order, borrowed.
    pub(crate) fn results(&self) -> impl Iterator<Item = &JoinTuple> {
        self.results.iter()
    }
}

impl ScoreFn {
    /// `combine` with the "my side" argument placed correctly.
    fn combine_sided(&self, my_index: usize, mine: f64, other: f64) -> f64 {
        if my_index == 0 {
            self.combine(mine, other)
        } else {
            self.combine(other, mine)
        }
    }
}

/// Runs HRJN to completion over two in-memory score-descending lists,
/// alternating pulls (the reference driver used by tests and by the
/// examples).
pub fn run_hrjn(
    k: usize,
    score_fn: ScoreFn,
    left: &[RankedTuple],
    right: &[RankedTuple],
) -> Vec<JoinTuple> {
    let mut state = HrjnState::new(k, score_fn);
    let mut li = 0usize;
    let mut ri = 0usize;
    let mut turn = Side::Left;
    loop {
        if state.is_done() {
            break;
        }
        let (idx, tuples, side) = match turn {
            Side::Left if li < left.len() => (&mut li, left, Side::Left),
            Side::Left => (&mut ri, right, Side::Right),
            Side::Right if ri < right.len() => (&mut ri, right, Side::Right),
            Side::Right => (&mut li, left, Side::Left),
        };
        if *idx >= tuples.len() {
            // Both exhausted.
            state.exhaust(Side::Left);
            state.exhaust(Side::Right);
            break;
        }
        state.push(side, tuples[*idx].clone());
        *idx += 1;
        if li == left.len() {
            state.exhaust(Side::Left);
        }
        if ri == right.len() {
            state.exhaust(Side::Right);
        }
        turn = match turn {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        };
    }
    state.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: &[u8], join: &[u8], score: f64) -> RankedTuple {
        RankedTuple {
            key: key.to_vec(),
            join_value: join.to_vec(),
            score,
        }
    }

    /// The running example of Fig. 1, score-sorted per relation.
    fn running_example() -> (Vec<RankedTuple>, Vec<RankedTuple>) {
        let mut r1 = vec![
            t(b"r1_1", b"d", 0.82),
            t(b"r1_2", b"c", 0.93),
            t(b"r1_3", b"c", 0.67),
            t(b"r1_4", b"d", 0.82),
            t(b"r1_5", b"a", 0.73),
            t(b"r1_6", b"c", 0.79),
            t(b"r1_7", b"b", 0.82),
            t(b"r1_8", b"b", 0.70),
            t(b"r1_9", b"d", 0.68),
            t(b"r1_10", b"a", 1.00),
            t(b"r1_11", b"b", 0.64),
        ];
        let mut r2 = vec![
            t(b"r2_1", b"a", 0.51),
            t(b"r2_2", b"b", 0.91),
            t(b"r2_3", b"c", 0.64),
            t(b"r2_4", b"d", 0.53),
            t(b"r2_5", b"d", 0.41),
            t(b"r2_6", b"d", 0.50),
            t(b"r2_7", b"a", 0.35),
            t(b"r2_8", b"a", 0.38),
            t(b"r2_9", b"a", 0.37),
            t(b"r2_10", b"c", 0.31),
            t(b"r2_11", b"b", 0.92),
        ];
        r1.sort_by(|a, b| b.score.total_cmp(&a.score));
        r2.sort_by(|a, b| b.score.total_cmp(&a.score));
        (r1, r2)
    }

    /// Brute-force top-k over the same inputs.
    fn brute_force(
        k: usize,
        f: ScoreFn,
        left: &[RankedTuple],
        right: &[RankedTuple],
    ) -> Vec<JoinTuple> {
        let mut top = crate::result::TopK::new(k);
        for l in left {
            for r in right {
                if l.join_value == r.join_value {
                    top.offer(JoinTuple {
                        left_key: l.key.clone(),
                        right_key: r.key.clone(),
                        join_value: l.join_value.clone(),
                        left_score: l.score,
                        right_score: r.score,
                        inner: Vec::new(),
                        score: f.combine(l.score, r.score),
                    });
                }
            }
        }
        top.into_sorted_vec()
    }

    #[test]
    fn running_example_top3_sum() {
        let (r1, r2) = running_example();
        let got = run_hrjn(3, ScoreFn::Sum, &r1, &r2);
        // All three best results come from join value b:
        // 0.82+0.92=1.74, 0.82+0.91=1.73, 0.70+0.92=1.62.
        let scores: Vec<f64> = got.iter().map(|x| x.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
    }

    /// Top-k is ambiguous at the k-th score boundary when several tuples
    /// tie there; HRJN may legitimately return any tie-sibling. This
    /// comparator requires: identical score sequences, identical tuples
    /// strictly above the boundary, and every boundary tuple of `got` to
    /// be a genuine boundary tuple of the full result.
    fn assert_rank_equivalent(got: &[JoinTuple], all_sorted: &[JoinTuple], k: usize) {
        let want: Vec<&JoinTuple> = all_sorted.iter().take(k).collect();
        assert_eq!(got.len(), want.len());
        let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
        assert_eq!(got_scores, want_scores, "score sequences differ");
        let boundary = want.last().map(|t| t.score);
        for (g, w) in got.iter().zip(&want) {
            if Some(g.score) != boundary {
                assert_eq!(&g, w, "above-boundary tuples must match exactly");
            } else {
                // A boundary tuple must appear somewhere in the full
                // rank-ordered join result with that exact score.
                assert!(
                    all_sorted.iter().any(|t| t.score == g.score
                        && t.left_key == g.left_key
                        && t.right_key == g.right_key),
                    "boundary tuple not a real join result: {g:?}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_example_all_k() {
        let (r1, r2) = running_example();
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let all = brute_force(usize::MAX / 2, f, &r1, &r2);
            for k in 1..=20 {
                let got = run_hrjn(k, f, &r1, &r2);
                assert_rank_equivalent(&got, &all, k.min(all.len()));
            }
        }
    }

    #[test]
    fn early_termination_consumes_less_than_everything() {
        // Two relations where the top result is obvious early.
        let left: Vec<RankedTuple> = (0..100)
            .map(|i| t(format!("l{i}").as_bytes(), b"x", 1.0 - i as f64 / 100.0))
            .collect();
        let right: Vec<RankedTuple> = (0..100)
            .map(|i| t(format!("r{i}").as_bytes(), b"x", 1.0 - i as f64 / 100.0))
            .collect();
        let mut state = HrjnState::new(1, ScoreFn::Sum);
        let mut consumed = 0;
        let mut li = 0;
        let mut ri = 0;
        while !state.is_done() {
            if li <= ri {
                state.push(Side::Left, left[li].clone());
                li += 1;
            } else {
                state.push(Side::Right, right[ri].clone());
                ri += 1;
            }
            consumed += 1;
        }
        assert!(consumed <= 4, "top-1 should need ≈2 pulls, used {consumed}");
    }

    #[test]
    fn empty_inputs_terminate() {
        let got = run_hrjn(5, ScoreFn::Sum, &[], &[]);
        assert!(got.is_empty());
        let one = vec![t(b"a", b"x", 0.5)];
        let got = run_hrjn(5, ScoreFn::Sum, &one, &[]);
        assert!(got.is_empty());
    }

    #[test]
    fn fewer_than_k_results() {
        let left = vec![t(b"l1", b"x", 0.9)];
        let right = vec![t(b"r1", b"x", 0.8), t(b"r2", b"y", 0.7)];
        let got = run_hrjn(10, ScoreFn::Sum, &left, &right);
        assert_eq!(got.len(), 1);
        assert!((got[0].score - 1.7).abs() < 1e-12);
    }

    #[test]
    fn threshold_is_none_before_both_sides_seen() {
        let mut s = HrjnState::new(1, ScoreFn::Sum);
        assert_eq!(s.threshold(), None);
        s.push(Side::Left, t(b"l", b"x", 0.9));
        assert_eq!(s.threshold(), None, "right side untouched → no bound");
        s.push(Side::Right, t(b"r", b"y", 0.8));
        assert!(s.threshold().is_some());
    }

    #[test]
    fn duplicate_join_values_multiply() {
        let left = vec![t(b"l1", b"x", 0.9), t(b"l2", b"x", 0.8)];
        let right = vec![t(b"r1", b"x", 0.7), t(b"r2", b"x", 0.6)];
        let got = run_hrjn(10, ScoreFn::Sum, &left, &right);
        assert_eq!(got.len(), 4, "2×2 cartesian on shared join value");
    }
}
