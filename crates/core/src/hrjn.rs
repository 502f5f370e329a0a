//! The centralized HRJN operator (Ilyas, Aref & Elmagarmid, VLDB 2003),
//! over the join tree of a [`JoinSpec`].
//!
//! HRJN consumes inputs sorted by descending score — one per side of the
//! spec, any interleaving of sides — joining each newly retrieved tuple
//! against everything seen so far. A new tuple of side `i` is joined by
//! walking the spec's join tree outward from `i`: every edge constrains
//! the neighbour side's candidates to seen tuples carrying the same value
//! on that edge, and a complete assignment — one tuple per side — is a
//! join result scored by [`ScoreFn::combine_many`] over the sides'
//! individual scores in side order.
//!
//! The operator keeps per-input minimum (`s̄_i`, the score of the last
//! pulled tuple) and maximum (`ŝ_i`, the first pulled) scores, and stops
//! when the k-th buffered result is at least the **threshold**
//!
//! ```text
//! S = max_i f(ŝ_1, …, s̄_i, …, ŝ_n)
//! ```
//!
//! — side `i` at its minimum seen score, every other side at its maximum:
//! the best score any future result using an *unseen* tuple of `i` could
//! achieve. Monotonicity of `f` in every argument (which all [`ScoreFn`]s
//! satisfy over the paper's `[0,1]` domain) makes each bound valid, and
//! two sides give exactly the paper's `max{ f(s̄_1, ŝ_2), f(ŝ_1, s̄_2) }`
//! (§4.2.1). The binary rank join is this operator at `n = 2`, not a
//! separate one — the ranked-enumeration view (Tziavelis et al.) of the
//! two-way join as the degenerate acyclic case.
//!
//! The ISL algorithm (§4.2) is this operator driven by batched scans over
//! the score-ordered index (the ISL descent of [`crate::cursor`]); this module
//! keeps the core logic independent so it can be tested (and
//! property-tested) in isolation.
//!
//! **Results are ids until they leave.** The operator must keep every
//! tuple it has pulled, but hands back only `k` results, so it ranks into
//! the shared id top-k ([`TopIds`]): a result is its score and one
//! seen-tuple id per side, ranked by reading key bytes out of the
//! seen-tuple arenas. A [`JoinTuple`] is built in one place, the
//! operator's private `result` builder, when a result leaves the operator:
//! a cursor's page, [`HrjnState::into_results`],
//! [`HrjnState::current_results`].

use rj_sketch::FlatMultiMap;

use crate::error::{RankJoinError, Result};
use crate::query::JoinSpec;
use crate::result::{JoinTuple, TopIds};
use crate::score::ScoreFn;
use crate::spare::Spares;

/// Per-side seen-tuple store in flat, cache-friendly layout.
///
/// Join values are interned into one [`FlatMultiMap`] per incident edge;
/// every tuple pushes one value onto its join value's group in every map,
/// in tuple order, so a value's flat-array position *is* its tuple's id
/// and the maps store nothing else (`V = ()`). The tuples themselves are
/// **columnar**: base keys back to back in one byte arena, scores in one
/// contiguous `f64` column, and per tuple one `u32` row holding the end
/// of its key plus, per edge, the entry id of its join value — so any
/// tuple's value on any edge is `by_edge[slot].key(entry)` and no byte is
/// stored twice. A buffered HRJN or DRJN result is one id per side into
/// these columns.
///
/// A run's store comes from its executor's spares and goes back there
/// when the run drops ([`crate::spare`]).
#[derive(Clone, Default)]
pub(crate) struct SeenSide {
    /// Per incident edge: join value on that edge → group of tuple ids.
    by_edge: Vec<FlatMultiMap<()>>,
    /// Tuple base keys, interned back to back.
    key_arena: Vec<u8>,
    /// Per tuple, `1 + edges` words: the end offset of its key in
    /// `key_arena` (it starts where the previous tuple's ends), then its
    /// join value's entry id in each edge's map.
    rows: Vec<u32>,
    /// Per-tuple scores, one flat column.
    scores: Vec<f64>,
}

impl SeenSide {
    /// An empty store for a side with `edges` incident join edges.
    pub(crate) fn new(edges: usize) -> Self {
        SeenSide {
            by_edge: (0..edges).map(|_| FlatMultiMap::new()).collect(),
            key_arena: Vec::new(),
            rows: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// How many join edges its tuples carry a value of.
    pub(crate) fn edges(&self) -> usize {
        self.by_edge.len()
    }

    /// Forgets every tuple, keeping the columns' capacity.
    pub(crate) fn clear(&mut self) {
        self.by_edge.iter_mut().for_each(FlatMultiMap::clear);
        self.key_arena.clear();
        self.rows.clear();
        self.scores.clear();
    }

    /// Records one `(base key, score)` tuple under one join value per
    /// edge (the caller has checked the count) and returns its id.
    pub(crate) fn insert<'a>(
        &mut self,
        join_values: impl IntoIterator<Item = &'a [u8]>,
        key: &[u8],
        score: f64,
    ) -> u32 {
        // Checked narrowing: a store past 2^32 tuples or 4 GiB of key
        // bytes must panic, not silently alias spans.
        let id = u32::try_from(self.scores.len()).expect("SeenSide tuple count overflows u32");
        self.key_arena.extend_from_slice(key);
        self.rows
            .push(u32::try_from(self.key_arena.len()).expect("SeenSide key arena overflows u32"));
        for (index, value) in self.by_edge.iter_mut().zip(join_values) {
            let entry = index.ensure(value);
            let position = index.push_to_entry(entry, ());
            debug_assert_eq!(position, id, "one value per tuple, in tuple order");
            self.rows.push(entry);
        }
        self.scores.push(score);
        id
    }

    /// Tuple `id`'s row in `rows`.
    fn row(&self, id: u32) -> usize {
        id as usize * (1 + self.by_edge.len())
    }

    /// The `(base key, score)` tuple recorded under id `id`.
    pub(crate) fn tuple(&self, id: u32) -> (&[u8], f64) {
        let row = self.row(id);
        let start = match id {
            0 => 0,
            _ => self.rows[row - 1 - self.by_edge.len()],
        };
        (
            &self.key_arena[start as usize..self.rows[row] as usize],
            self.scores[id as usize],
        )
    }

    /// Tuple `id`'s join value on its `slot`-th incident edge.
    pub(crate) fn join_value(&self, id: u32, slot: usize) -> &[u8] {
        self.by_edge[slot].key(self.rows[self.row(id) + 1 + slot])
    }

    /// Ids of all tuples seen with `join` on the `slot`-th incident edge,
    /// insertion order.
    pub(crate) fn matches<'a>(
        &'a self,
        slot: usize,
        join: &[u8],
    ) -> impl Iterator<Item = u32> + 'a {
        self.by_edge[slot].positions(join)
    }

    /// Number of tuples recorded.
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }
}

/// One input of the operator: what it has seen plus the threshold state.
#[derive(Clone)]
struct Input {
    seen: SeenSide,
    /// `(max seen, min seen)`; `None` until the first tuple.
    bounds: Option<(f64, f64)>,
    exhausted: bool,
}

/// One step of a join-tree walk: `child` takes every seen tuple whose
/// value on the shared edge equals the one `parent`'s chosen tuple
/// carries. Slots are positions in each side's incident-edge order,
/// resolved once at construction.
#[derive(Clone, Copy)]
struct Step {
    child: usize,
    child_slot: usize,
    parent: usize,
    parent_slot: usize,
}

/// Backtracking walk: `walk` lists the sides still to assign, every parent
/// before its children; the sides before it are fixed in `chosen`. Every
/// complete assignment is offered, as ids, to `results`.
fn extend(
    inputs: &[Input],
    score_fn: ScoreFn,
    walk: &[Step],
    chosen: &mut [u32],
    results: &mut TopIds,
) {
    let Some((step, rest)) = walk.split_first() else {
        let scores = inputs.iter().zip(&*chosen);
        let score = score_fn.combine_iter(scores.map(|(side, &id)| side.seen.tuple(id).1));
        results.offer(score, chosen, |side, id| inputs[side].seen.tuple(id).0);
        return;
    };
    let value = inputs[step.parent]
        .seen
        .join_value(chosen[step.parent], step.parent_slot);
    for id in inputs[step.child].seen.matches(step.child_slot, value) {
        chosen[step.child] = id;
        extend(inputs, score_fn, rest, chosen, results);
    }
}

/// Incremental HRJN state machine. Feed tuples in descending score order
/// per side (any interleaving of sides) and poll [`HrjnState::is_done`].
///
/// Plain columnar data throughout, so a paused cursor parks the state
/// itself ([`Clone`]) rather than a log to rebuild it from. The join
/// tree's walks and the per-push scratch are flat vectors sized once from
/// the spec, and the top-k buffers results as seen-tuple ids (see the
/// module docs): a push allocates only arena and buffer growth. An
/// executor's cursor takes the operator's seen sides and top-k from the
/// executor's spares and gives them back when it drops
/// (`crate::spare`), so that growth happens only where a run outgrows
/// the runs before it. A [`JoinTuple`] is built only for a result leaving
/// the operator.
#[derive(Clone)]
pub struct HrjnState {
    score_fn: ScoreFn,
    results: TopIds,
    inputs: Vec<Input>,
    /// Preorder walks of the join tree, one per root, back to back: the
    /// walk rooted at side `r` is `walks[r * (n - 1)..][..n - 1]`.
    walks: Box<[Step]>,
    /// Scratch: the tuple id chosen per side during an enumeration.
    chosen: Vec<u32>,
    /// Side whose first incident edge is the spec's edge 0 — its value
    /// fills the binary-compatible `join_value` field of results.
    join_value_side: usize,
}

impl HrjnState {
    /// Fresh state for `spec`'s join tree, keeping the best `k` results.
    /// The depth is the run's, not the descriptor's: `spec.k` is not read,
    /// so one shared spec serves runs at every `k`. Its buffers start
    /// empty.
    pub fn new(spec: &JoinSpec, k: usize) -> Self {
        HrjnState::from_spares(&Spares::default(), spec, k)
    }

    /// [`HrjnState::new`] with its buffers taken from `spares`.
    pub(crate) fn from_spares(spares: &Spares, spec: &JoinSpec, k: usize) -> Self {
        let n = spec.n();
        // Side `side`'s slot for edge `e`: how many earlier edges touch it.
        let slot = |side: usize, e: usize| {
            spec.edges[..e]
                .iter()
                .filter(|edge| edge.a == side || edge.b == side)
                .count()
        };
        let mut walks: Vec<Step> = Vec::with_capacity(n * n.saturating_sub(1));
        for root in 0..n {
            // Breadth-first from `root`, the walk doubling as the queue.
            let start = walks.len();
            let mut expanded = start;
            let mut at = root;
            loop {
                for (e, edge) in spec.edges.iter().enumerate() {
                    let next = match (edge.a == at, edge.b == at) {
                        (true, _) => edge.b,
                        (_, true) => edge.a,
                        _ => continue,
                    };
                    if next != root && walks[start..].iter().all(|s| s.child != next) {
                        walks.push(Step {
                            child: next,
                            child_slot: slot(next, e),
                            parent: at,
                            parent_slot: slot(at, e),
                        });
                    }
                }
                let Some(step) = walks.get(expanded) else {
                    break;
                };
                at = step.child;
                expanded += 1;
            }
        }
        HrjnState {
            score_fn: spec.score_fn,
            results: spares.top(k, n),
            inputs: (0..n)
                .map(|side| Input {
                    seen: spares.side(spec.incident_edges(side).count()),
                    bounds: None,
                    exhausted: false,
                })
                .collect(),
            walks: walks.into_boxed_slice(),
            chosen: vec![0; n],
            join_value_side: spec.edges.first().map_or(0, |edge| edge.a),
        }
    }

    /// Gives the seen sides and the top-k to `spares`, leaving the
    /// operator empty: a dropping run's last act.
    pub(crate) fn give_back(&mut self, spares: &Spares) {
        for input in &mut self.inputs {
            spares.give_side(std::mem::take(&mut input.seen));
        }
        spares.give_top(std::mem::replace(&mut self.results, TopIds::new(0, 0)));
    }

    /// Number of sides.
    pub fn sides(&self) -> usize {
        self.inputs.len()
    }

    /// How many join edges touch `side` — the number of join values each
    /// of its tuples carries.
    pub fn edges(&self, side: usize) -> usize {
        self.inputs
            .get(side)
            .map_or(0, |input| input.seen.by_edge.len())
    }

    /// Offers every complete assignment that takes tuple `id` of side
    /// `root`: the join-tree walk rooted at `root`.
    fn join(&mut self, root: usize, id: u32) {
        let n = self.inputs.len();
        self.chosen[root] = id;
        let walk = &self.walks[root * (n - 1)..][..n - 1];
        let (inputs, score_fn) = (&self.inputs, self.score_fn);
        extend(inputs, score_fn, walk, &mut self.chosen, &mut self.results);
    }

    /// Feeds one tuple of `side` — base key, one join value per edge
    /// incident to the side (in [`JoinSpec::incident_edges`] order), score
    /// — by reference: nothing is copied except into the seen-tuple arenas
    /// and, for a join match that enters the top-k, its ids.
    /// A wrong side or join-value count is a typed error and leaves the
    /// state untouched. Panics in debug builds if scores go up — inputs
    /// must be score-descending.
    pub fn push_borrowed<'a, I>(
        &mut self,
        side: usize,
        key: &[u8],
        join_values: I,
        score: f64,
    ) -> Result<()>
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: ExactSizeIterator,
    {
        let n = self.inputs.len();
        let input = self
            .inputs
            .get_mut(side)
            .ok_or(RankJoinError::SideOutOfRange {
                index: side,
                sides: n,
            })?;
        let join_values = join_values.into_iter();
        if join_values.len() != input.seen.by_edge.len() {
            return Err(RankJoinError::InvalidSpec(
                "a tuple carries exactly one join value per edge incident to its side",
            ));
        }
        debug_assert!(
            input.bounds.is_none_or(|(_, min)| score <= min + 1e-12),
            "input not score-descending"
        );
        input.bounds = Some(match input.bounds {
            None => (score, score),
            Some((max, min)) => (max, min.min(score)),
        });
        let id = input.seen.insert(join_values, key, score);

        // Every complete assignment using the new tuple: the walk rooted
        // at its side (a side never joins itself, so having recorded the
        // tuple first changes nothing but lets the root be read like any
        // other side).
        self.join(side, id);
        Ok(())
    }

    /// Re-targets the operator to `new_k`, rebuilding the top-k buffer's
    /// ids by one join sweep rooted at side 0: every assignment among
    /// consumed tuples is offered again, so results a shallower `k` had
    /// evicted come back. The sweep's order is immaterial — the buffer is
    /// a set under the total [`JoinTuple::rank_cmp`] order — and consumed
    /// counts, bounds and exhaustion are untouched, so the operator is
    /// exactly what pushing the same tuples at `new_k` would have built.
    pub fn retarget(&mut self, new_k: usize) {
        self.results.reset(new_k, self.inputs.len());
        for id in 0..self.inputs[0].seen.len() as u32 {
            self.join(0, id);
        }
    }

    /// Marks a side as fully consumed.
    pub fn exhaust(&mut self, side: usize) {
        self.inputs[side].exhausted = true;
    }

    /// Whether `side` was marked fully consumed.
    pub fn is_exhausted(&self, side: usize) -> bool {
        self.inputs[side].exhausted
    }

    /// Whether every side was marked fully consumed.
    pub fn all_exhausted(&self) -> bool {
        self.inputs.iter().all(|input| input.exhausted)
    }

    /// The HRJN threshold: the maximum attainable score of any result not
    /// yet produced. `None` while no bound exists yet (nothing pulled
    /// from some non-exhausted side).
    pub fn threshold(&self) -> Option<f64> {
        let top = self.terms().ok()?;
        Some(top.map_or(f64::NEG_INFINITY, |(t, _)| t))
    }

    /// The side HRJN* pulls next: the first active side with nothing
    /// pulled, else the side whose term is the threshold (pulling it is
    /// the only way to lower that term). `None` once no side has a term.
    pub(crate) fn pull_side(&self) -> Option<usize> {
        self.terms().map_or_else(Some, |top| top.map(|t| t.1))
    }

    /// One pass over the per-side terms `f(ŝ_1, …, s̄_i, …, ŝ_n)`:
    /// `Err(i)` while the active side `i` (the first such) has nothing
    /// pulled, else the largest term and its side, lowest index on ties.
    fn terms(&self) -> std::result::Result<Option<(f64, usize)>, usize> {
        // A future result needs at least one *unseen* tuple. Unseen tuples
        // of side i score at most s̄_i; every partner is bounded by its
        // side's ŝ. Exhausted sides produce no unseen tuples.
        let mut top: Option<(f64, usize)> = None;
        'sides: for (i, input) in self.inputs.iter().enumerate() {
            if input.exhausted {
                continue;
            }
            let Some((_, my_min)) = input.bounds else {
                // Nothing pulled from an active side: unbounded.
                return Err(i);
            };
            // Left-to-right fold of `f` over the sides' arguments, as
            // `combine_many` folds them (this runs after every tuple).
            let mut bound = 0.0;
            for (j, partner) in self.inputs.iter().enumerate() {
                let arg = match partner.bounds {
                    _ if j == i => my_min,
                    Some((max, _)) => max,
                    // An exhausted empty side can never partner any
                    // future tuple — side i contributes no bound.
                    None if partner.exhausted => continue 'sides,
                    // An active side with nothing pulled: unbounded.
                    None => return Err(j),
                };
                bound = if j == 0 {
                    arg
                } else {
                    self.score_fn.combine(bound, arg)
                };
            }
            if top.is_none_or(|(t, _)| bound > t) {
                top = Some((bound, i));
            }
        }
        Ok(top)
    }

    /// Termination test: k results buffered and the k-th ≥ threshold.
    pub fn is_done(&self) -> bool {
        match (self.results.kth_score(), self.threshold()) {
            (Some(kth), Some(t)) => kth >= t,
            // Every side exhausted → threshold = -inf → done even if
            // fewer than k results exist.
            (None, Some(t)) => t == f64::NEG_INFINITY,
            _ => false,
        }
    }

    /// Current result count.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Total tuples consumed across all sides.
    pub fn tuples_consumed(&self) -> usize {
        self.inputs.iter().map(|input| input.seen.len()).sum()
    }

    /// Finishes, returning the rank-ordered results.
    pub fn into_results(self) -> Vec<JoinTuple> {
        self.current_results()
    }

    /// Requested k.
    pub fn k(&self) -> usize {
        self.results.k()
    }

    /// The join tuples buffered so far, rank-ordered, without consuming
    /// the operator.
    pub fn current_results(&self) -> Vec<JoinTuple> {
        self.results(0..self.result_count())
    }

    /// The buffered results of ranks `ranks`, built.
    pub(crate) fn results(&self, ranks: std::ops::Range<usize>) -> Vec<JoinTuple> {
        ranks.map(|rank| self.result(rank)).collect()
    }

    /// How many buffered results score strictly above `threshold` (they
    /// are buffered in rank order, so they are a prefix).
    pub(crate) fn results_above(&self, threshold: f64) -> usize {
        self.results.count_above(threshold)
    }

    /// The one [`JoinTuple`] builder: the buffered result of rank `rank`,
    /// its keys and join value copied out of the seen-tuple arenas. Runs
    /// only for a result leaving the operator.
    fn result(&self, rank: usize) -> JoinTuple {
        let id = |side: usize| self.results.id(rank, side);
        let tuple = |side: usize| self.inputs[side].seen.tuple(id(side));
        let n = self.inputs.len();
        let (left, right) = (tuple(0), tuple(n - 1));
        let join_value = self.inputs[self.join_value_side]
            .seen
            .join_value(id(self.join_value_side), 0);
        JoinTuple {
            left_key: left.0.to_vec(),
            right_key: right.0.to_vec(),
            join_value: join_value.to_vec(),
            left_score: left.1,
            right_score: right.1,
            inner: (1..n - 1)
                .map(|side| (tuple(side).0.to_vec(), tuple(side).1))
                .collect(),
            score: self.results.score(rank),
        }
    }
}

/// One in-memory input tuple of the reference driver: base key, one join
/// value per incident edge, score.
pub type InputTuple = (Vec<u8>, Vec<Vec<u8>>, f64);

/// Runs HRJN to completion over in-memory score-descending per-side
/// lists — the reference driver used by tests, at the spec's own `k`.
/// Two sides alternate, one tuple each; three or more pull one tuple at a
/// time from `HrjnState::pull_side`, the order the N-way cursor's
/// batches follow.
pub fn run_hrjn(spec: &JoinSpec, sides: &[Vec<InputTuple>]) -> Result<Vec<JoinTuple>> {
    if sides.len() != spec.n() {
        return Err(RankJoinError::InvalidSpec(
            "one input list per side required",
        ));
    }
    let mut state = HrjnState::new(spec, spec.k);
    let mut at = vec![0usize; sides.len()];
    for (i, list) in sides.iter().enumerate() {
        if list.is_empty() {
            state.exhaust(i);
        }
    }
    let (n, mut turn) = (sides.len(), 0);
    // Every pull advances a side; all of them exhausted is done.
    while !state.is_done() {
        match state.pull_side() {
            Some(side) if n > 2 => turn = side,
            _ => {
                while state.is_exhausted(turn) {
                    turn = (turn + 1) % n;
                }
            }
        }
        let (key, join_values, score) = &sides[turn][at[turn]];
        state.push_borrowed(turn, key, join_values.iter().map(Vec::as_slice), *score)?;
        at[turn] += 1;
        if at[turn] == sides[turn].len() {
            state.exhaust(turn);
        }
        turn = (turn + 1) % n;
    }
    Ok(state.into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinSide;

    fn side(label: &str) -> JoinSide {
        JoinSide::new(&label.to_lowercase(), label, ("d", b"jk"), ("d", b"score"))
    }

    fn binary(k: usize, f: ScoreFn) -> JoinSpec {
        JoinSpec::path(vec![side("L"), side("R")], k, f).unwrap()
    }

    fn path3(k: usize, f: ScoreFn) -> JoinSpec {
        JoinSpec::path(vec![side("A"), side("B"), side("C")], k, f).unwrap()
    }

    fn t(key: &[u8], values: &[&[u8]], score: f64) -> InputTuple {
        (
            key.to_vec(),
            values.iter().map(|v| v.to_vec()).collect(),
            score,
        )
    }

    fn sorted(mut v: Vec<InputTuple>) -> Vec<InputTuple> {
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    fn push(state: &mut HrjnState, side: usize, tuple: &InputTuple) {
        state
            .push_borrowed(side, &tuple.0, tuple.1.iter().map(Vec::as_slice), tuple.2)
            .unwrap();
    }

    /// The running example of Fig. 1, score-sorted per relation.
    fn running_example() -> Vec<Vec<InputTuple>> {
        let r1 = vec![
            t(b"r1_1", &[b"d"], 0.82),
            t(b"r1_2", &[b"c"], 0.93),
            t(b"r1_3", &[b"c"], 0.67),
            t(b"r1_4", &[b"d"], 0.82),
            t(b"r1_5", &[b"a"], 0.73),
            t(b"r1_6", &[b"c"], 0.79),
            t(b"r1_7", &[b"b"], 0.82),
            t(b"r1_8", &[b"b"], 0.70),
            t(b"r1_9", &[b"d"], 0.68),
            t(b"r1_10", &[b"a"], 1.00),
            t(b"r1_11", &[b"b"], 0.64),
        ];
        let r2 = vec![
            t(b"r2_1", &[b"a"], 0.51),
            t(b"r2_2", &[b"b"], 0.91),
            t(b"r2_3", &[b"c"], 0.64),
            t(b"r2_4", &[b"d"], 0.53),
            t(b"r2_5", &[b"d"], 0.41),
            t(b"r2_6", &[b"d"], 0.50),
            t(b"r2_7", &[b"a"], 0.35),
            t(b"r2_8", &[b"a"], 0.38),
            t(b"r2_9", &[b"a"], 0.37),
            t(b"r2_10", &[b"c"], 0.31),
            t(b"r2_11", &[b"b"], 0.92),
        ];
        vec![sorted(r1), sorted(r2)]
    }

    /// A deterministic pseudo-random side: `n` tuples, join values drawn
    /// from `domain` letters, scores spread over (0,1].
    fn gen_side(n: usize, domain: u8, seed: u64, edges: usize) -> Vec<InputTuple> {
        let mut v = Vec::new();
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = b'a' + (x >> 33) as u8 % domain;
            let score = ((x >> 11) % 1000) as f64 / 1000.0;
            v.push(t(format!("k{i}").as_bytes(), &vec![&[j][..]; edges], score));
        }
        sorted(v)
    }

    /// Brute-force top-k of a two- or three-side *path* spec over the
    /// same in-memory inputs.
    fn brute_force_path(spec: &JoinSpec, s: &[Vec<InputTuple>]) -> Vec<JoinTuple> {
        let mut top = crate::result::TopK::new(spec.k);
        let mut offer = |tuples: &[&InputTuple]| {
            let (a, c) = (tuples[0], tuples[tuples.len() - 1]);
            let scores: Vec<f64> = tuples.iter().map(|t| t.2).collect();
            top.offer(JoinTuple {
                left_key: a.0.clone(),
                right_key: c.0.clone(),
                join_value: a.1[0].clone(),
                left_score: a.2,
                right_score: c.2,
                inner: tuples[1..tuples.len() - 1]
                    .iter()
                    .map(|b| (b.0.clone(), b.2))
                    .collect(),
                score: spec.score_fn.combine_many(&scores),
            });
        };
        for a in &s[0] {
            for b in s[1].iter().filter(|b| a.1[0] == b.1[0]) {
                match s.get(2) {
                    None => offer(&[a, b]),
                    Some(cs) => cs
                        .iter()
                        .filter(|c| b.1[1] == c.1[0])
                        .for_each(|c| offer(&[a, b, c])),
                }
            }
        }
        top.into_sorted_vec()
    }

    #[test]
    fn running_example_top3_sum() {
        let got = run_hrjn(&binary(3, ScoreFn::Sum), &running_example()).unwrap();
        // All three best results come from join value b:
        // 0.82+0.92=1.74, 0.82+0.91=1.73, 0.70+0.92=1.62.
        let scores: Vec<f64> = got.iter().map(|x| x.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
        assert_eq!(got[0].join_value, b"b".to_vec());
        assert!(got[0].inner.is_empty());
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
        let inputs = running_example();
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let all = brute_force_path(&binary(usize::MAX / 2, f), &inputs);
            for k in 1..=20 {
                let got = run_hrjn(&binary(k, f), &inputs).unwrap();
                assert_rank_equivalent(&got, &all, k.min(all.len()));
            }
        }
    }

    #[test]
    fn early_termination_consumes_less_than_everything() {
        // Two relations where the top result is obvious early.
        let list = |prefix: &str| -> Vec<InputTuple> {
            (0..100)
                .map(|i| {
                    t(
                        format!("{prefix}{i}").as_bytes(),
                        &[b"x"],
                        1.0 - i as f64 / 100.0,
                    )
                })
                .collect()
        };
        let (left, right) = (list("l"), list("r"));
        let mut state = HrjnState::new(&binary(1, ScoreFn::Sum), 1);
        let mut consumed = 0;
        let mut li = 0;
        let mut ri = 0;
        while !state.is_done() {
            if li <= ri {
                push(&mut state, 0, &left[li]);
                li += 1;
            } else {
                push(&mut state, 1, &right[ri]);
                ri += 1;
            }
            consumed += 1;
        }
        assert!(consumed <= 4, "top-1 should need ≈2 pulls, used {consumed}");
    }

    #[test]
    fn empty_inputs_terminate() {
        let spec = binary(5, ScoreFn::Sum);
        let got = run_hrjn(&spec, &[vec![], vec![]]).unwrap();
        assert!(got.is_empty());
        let one = vec![t(b"a", &[b"x"], 0.5)];
        let got = run_hrjn(&spec, &[one, vec![]]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn fewer_than_k_results() {
        let left = vec![t(b"l1", &[b"x"], 0.9)];
        let right = vec![t(b"r1", &[b"x"], 0.8), t(b"r2", &[b"y"], 0.7)];
        let got = run_hrjn(&binary(10, ScoreFn::Sum), &[left, right]).unwrap();
        assert_eq!(got.len(), 1);
        assert!((got[0].score - 1.7).abs() < 1e-12);
    }

    #[test]
    fn threshold_is_none_before_both_sides_seen() {
        let mut s = HrjnState::new(&binary(1, ScoreFn::Sum), 1);
        assert_eq!(s.threshold(), None);
        push(&mut s, 0, &t(b"l", &[b"x"], 0.9));
        assert_eq!(s.threshold(), None, "right side untouched → no bound");
        push(&mut s, 1, &t(b"r", &[b"y"], 0.8));
        assert!(s.threshold().is_some());
    }

    #[test]
    fn duplicate_join_values_multiply() {
        let left = vec![t(b"l1", &[b"x"], 0.9), t(b"l2", &[b"x"], 0.8)];
        let right = vec![t(b"r1", &[b"x"], 0.7), t(b"r2", &[b"x"], 0.6)];
        let got = run_hrjn(&binary(10, ScoreFn::Sum), &[left, right]).unwrap();
        assert_eq!(got.len(), 4, "2×2 cartesian on shared join value");
    }

    #[test]
    fn wrong_join_value_count_is_a_typed_error_and_a_no_op() {
        // The interior side of a path carries two join values; one or
        // three must be refused, never indexed out of bounds or joined on
        // a prefix.
        let mut s = HrjnState::new(&path3(2, ScoreFn::Sum), 2);
        push(&mut s, 0, &t(b"a", &[b"x"], 0.9));
        push(&mut s, 2, &t(b"c", &[b"y"], 0.8));
        let wrong: [&[&[u8]]; 2] = [&[b"x"], &[b"x", b"y", b"z"]];
        for values in wrong {
            let err = s
                .push_borrowed(1, b"b", values.iter().copied(), 0.5)
                .unwrap_err();
            assert!(matches!(err, RankJoinError::InvalidSpec(_)), "{err}");
        }
        assert!(matches!(
            s.push_borrowed(3, b"b", [&b"x"[..]], 0.5),
            Err(RankJoinError::SideOutOfRange { index: 3, sides: 3 })
        ));
        // Side B still has nothing pulled: no bound exists, and B is the
        // side the descent must pull next.
        assert_eq!(s.tuples_consumed(), 2);
        assert_eq!(s.threshold(), None);
        assert_eq!(s.pull_side(), Some(1));
    }

    #[test]
    fn path3_matches_brute_force() {
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let spec = path3(8, f);
            let sides = vec![
                gen_side(20, 3, 1, 1),
                gen_side(18, 3, 2, 2),
                gen_side(22, 3, 3, 1),
            ];
            let got = run_hrjn(&spec, &sides).unwrap();
            let want = brute_force_path(&spec, &sides);
            let gs: Vec<f64> = got.iter().map(|t| t.score).collect();
            let ws: Vec<f64> = want.iter().map(|t| t.score).collect();
            assert_eq!(gs, ws, "{f:?}");
        }
    }

    #[test]
    fn star3_hub_joins_both_leaves() {
        // Hub H joins leaves X and Y on different attributes.
        let spec = JoinSpec::star(vec![side("H"), side("X"), side("Y")], 10, ScoreFn::Sum).unwrap();
        // Hub tuples carry one value per incident edge (2 edges).
        let hub = sorted(vec![
            t(b"h1", &[b"a", b"p"], 0.9),
            t(b"h2", &[b"a", b"q"], 0.7),
            t(b"h3", &[b"b", b"p"], 0.5),
        ]);
        let x = sorted(vec![t(b"x1", &[b"a"], 0.8), t(b"x2", &[b"b"], 0.6)]);
        let y = sorted(vec![t(b"y1", &[b"p"], 0.4), t(b"y2", &[b"q"], 0.9)]);
        let got = run_hrjn(&spec, &[hub, x, y]).unwrap();
        // h1⋈x1⋈y1 (0.9+0.8+0.4=2.1), h2⋈x1⋈y2 (0.7+0.8+0.9=2.4),
        // h3⋈x2⋈y1 (0.5+0.6+0.4=1.5).
        let scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![2.4, 2.1, 1.5]);
        // Hub is side 0 → result's left; inner holds side 1 (X).
        assert_eq!(got[0].left_key, b"h2".to_vec());
        assert_eq!(got[0].inner, vec![(b"x1".to_vec(), 0.8)]);
        assert_eq!(got[0].right_key, b"y2".to_vec());
        // `join_value` is the value on edge 0 (H–X).
        assert_eq!(got[0].join_value, b"a".to_vec());
    }

    #[test]
    fn early_termination_on_path() {
        // Clear winner at the top: top-1 should not consume everything.
        let mk = |prefix: &str, values: &[&[u8]]| -> Vec<InputTuple> {
            (0..50)
                .map(|i| {
                    t(
                        format!("{prefix}{i}").as_bytes(),
                        values,
                        1.0 - i as f64 / 50.0,
                    )
                })
                .collect()
        };
        let mut state = HrjnState::new(&path3(1, ScoreFn::Sum), 1);
        let sides = [mk("a", &[b"x"]), mk("m", &[b"x", b"x"]), mk("c", &[b"x"])];
        let mut at = [0usize; 3];
        while !state.is_done() {
            for i in 0..3 {
                push(&mut state, i, &sides[i][at[i]]);
                at[i] += 1;
            }
        }
        assert!(
            state.tuples_consumed() <= 9,
            "top-1 needed {} pulls",
            state.tuples_consumed()
        );
    }

    #[test]
    fn threshold_none_until_every_side_bounded() {
        let mut s = HrjnState::new(&path3(2, ScoreFn::Sum), 2);
        assert_eq!(s.threshold(), None);
        push(&mut s, 0, &t(b"a", &[b"x"], 0.9));
        push(&mut s, 1, &t(b"b", &[b"x", b"x"], 0.8));
        assert_eq!(s.threshold(), None, "side 2 untouched → no bound");
        push(&mut s, 2, &t(b"c", &[b"x"], 0.7));
        assert!(s.threshold().is_some());
    }

    /// A 3-path operator under `f` whose side `i` has seen the scores
    /// `bounds[i] = (max, min)`, in eighths (exact, so ties are ties).
    fn with_bounds(f: ScoreFn, bounds: [(u8, u8); 3]) -> HrjnState {
        let mut s = HrjnState::new(&path3(1, f), 1);
        for (side, (max, min)) in bounds.into_iter().enumerate() {
            let values: &[&[u8]] = if side == 1 { &[b"x", b"y"] } else { &[b"z"] };
            for score in [max, min] {
                push(&mut s, side, &t(b"k", values, f64::from(score) / 8.0));
            }
        }
        s
    }

    #[test]
    fn pull_side_takes_an_unbounded_side_first_in_side_order() {
        let mut s = HrjnState::new(&path3(1, ScoreFn::Sum), 1);
        assert_eq!(s.pull_side(), Some(0));
        push(&mut s, 1, &t(b"b", &[b"x", b"x"], 0.9));
        assert_eq!(s.pull_side(), Some(0), "side 0 is still unbounded");
        push(&mut s, 0, &t(b"a", &[b"x"], 0.1));
        assert_eq!(s.pull_side(), Some(2));
        assert_eq!(s.threshold(), None);
    }

    #[test]
    fn pull_side_is_the_side_whose_term_is_the_threshold() {
        // (f, per-side (max, min) in eighths, the side picked, its term).
        let cases = [
            (ScoreFn::Sum, [(7, 3), (6, 3), (5, 4)], 2, 17.0 / 8.0),
            (ScoreFn::Product, [(7, 2), (6, 5), (5, 4)], 1, 175.0 / 512.0),
            (ScoreFn::Min, [(7, 6), (4, 1), (5, 2)], 0, 4.0 / 8.0),
            // Max: sides 1 and 2 tie at side 0's max; the lower index wins.
            (ScoreFn::Max, [(7, 1), (4, 3), (5, 2)], 1, 7.0 / 8.0),
            // Sum: sides 1 and 2 tie at 17/8.
            (ScoreFn::Sum, [(7, 3), (6, 5), (5, 4)], 1, 17.0 / 8.0),
        ];
        for (f, bounds, side, term) in cases {
            let s = with_bounds(f, bounds);
            assert_eq!(s.pull_side(), Some(side), "{f:?} {bounds:?}");
            assert_eq!(s.threshold(), Some(term), "{f:?} {bounds:?}");
        }
    }

    #[test]
    fn pull_side_skips_exhausted_sides_and_empty_exhausted_partners() {
        let mut s = with_bounds(ScoreFn::Sum, [(7, 3), (6, 3), (5, 4)]);
        s.exhaust(2);
        assert_eq!(s.pull_side(), Some(1), "side 2's 17/8 no longer counts");
        assert_eq!(s.threshold(), Some(15.0 / 8.0));

        // Side 1 exhausted empty: no future result exists, but side 2 is
        // still unbounded until its first pull.
        let mut s = HrjnState::new(&path3(1, ScoreFn::Sum), 1);
        push(&mut s, 0, &t(b"a", &[b"x"], 0.5));
        s.exhaust(1);
        assert_eq!(s.pull_side(), Some(2));
        push(&mut s, 2, &t(b"c", &[b"x"], 0.5));
        assert_eq!(s.pull_side(), None, "no side has a term");
        assert_eq!(s.threshold(), Some(f64::NEG_INFINITY));
        assert!(s.is_done());
    }

    #[test]
    fn exhausted_empty_side_terminates() {
        let mut s = HrjnState::new(&path3(2, ScoreFn::Sum), 2);
        push(&mut s, 0, &t(b"a", &[b"x"], 0.9));
        push(&mut s, 2, &t(b"c", &[b"x"], 0.7));
        s.exhaust(1);
        s.exhaust(0);
        s.exhaust(2);
        assert!(s.all_exhausted());
        assert_eq!(s.threshold(), Some(f64::NEG_INFINITY));
        assert!(s.is_done());
        assert_eq!(s.result_count(), 0);
    }
}
