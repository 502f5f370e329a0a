//! The N-way HRJN operator: the binary threshold machinery of
//! [`crate::hrjn`] generalized along a [`JoinSpec`]'s edge tree.
//!
//! Each side feeds tuples in descending score order (any interleaving of
//! sides). A new tuple from side `i` is joined against everything seen so
//! far by walking the spec's join tree outward from `i`: every edge
//! constrains the neighbour side's candidates to tuples carrying the same
//! value on that edge, and a complete assignment — one tuple per side —
//! is a join result scored by [`ScoreFn::combine_many`] over the sides'
//! individual scores in side order.
//!
//! The termination threshold is the N-ary form of HRJN's
//! `S = max{f(s̄_1, ŝ_2), f(ŝ_1, s̄_2)}`: for each non-exhausted side
//! `i`, the best score any future result using an *unseen* tuple of `i`
//! can achieve is `f(ŝ_1, …, s̄_i, …, ŝ_n)` — side `i` at its minimum
//! seen score, every other side at its maximum — and the threshold is
//! the max over those bounds. Monotonicity of `f` in every argument
//! (which all [`ScoreFn`]s satisfy over the paper's `[0,1]` domain)
//! makes each bound valid; two sides degenerates to the exact binary
//! formula.

use std::collections::HashMap;

use crate::query::JoinSpec;
use crate::result::{JoinTuple, RankKey, TopK};
use crate::score::ScoreFn;

/// One input tuple of side `i`: base key, one join value per edge
/// incident to `i` (in [`JoinSpec::incident_edges`] order), and the
/// side's individual score.
#[derive(Clone, Debug, PartialEq)]
pub struct NaryTuple {
    /// Base-table row key.
    pub key: Vec<u8>,
    /// Join values, one per incident edge, in incident order.
    pub edge_values: Vec<Vec<u8>>,
    /// Individual score.
    pub score: f64,
}

/// Per-side seen-tuple store: the tuples plus one hash index per
/// incident edge (join value on that edge → tuple ids).
#[derive(Clone, Default)]
struct SeenNary {
    tuples: Vec<NaryTuple>,
    /// One map per incident edge, parallel to the side's incident list.
    by_edge: Vec<HashMap<Vec<u8>, Vec<u32>>>,
}

/// A complete assignment — one tuple per side — as a [`RankKey`], every
/// key still borrowed from the seen-tuple stores.
struct AssignmentKey<'a> {
    hrjn: &'a NaryHrjn,
    root: usize,
    new: &'a NaryTuple,
    chosen: &'a [u32],
    score: f64,
}

impl RankKey for AssignmentKey<'_> {
    fn score(&self) -> f64 {
        self.score
    }
    fn left_key(&self) -> &[u8] {
        &self.hrjn.tuple_at(self.root, self.new, self.chosen, 0).key
    }
    fn right_key(&self) -> &[u8] {
        let last = self.hrjn.n() - 1;
        &self
            .hrjn
            .tuple_at(self.root, self.new, self.chosen, last)
            .key
    }
    fn inner_len(&self) -> usize {
        self.hrjn.n() - 2
    }
    fn inner_key(&self, i: usize) -> &[u8] {
        &self
            .hrjn
            .tuple_at(self.root, self.new, self.chosen, i + 1)
            .key
    }
}

/// Incremental N-way HRJN state machine. Feed tuples in descending score
/// order per side and poll [`NaryHrjn::is_done`].
pub struct NaryHrjn {
    k: usize,
    score_fn: ScoreFn,
    results: TopK,
    seen: Vec<SeenNary>,
    /// `(max seen, min seen)` per side; `None` until the first tuple.
    bounds: Vec<Option<(f64, f64)>>,
    exhausted: Vec<bool>,
    consumed: Vec<usize>,
    /// Incident edge ids per side, in incident order.
    incident: Vec<Vec<usize>>,
    /// `edge_slot[side][edge] = position` of `edge` in `incident[side]`.
    edge_slot: Vec<HashMap<usize, usize>>,
    /// Preorder tree walks, one per possible root: `dfs[root]` lists
    /// `(child, edge, parent)` with every parent before its children.
    dfs: Vec<Vec<(usize, usize, usize)>>,
    /// `(side, incident slot)` carrying edge 0's value — fills the
    /// binary-compatible `join_value` field of emitted results.
    edge0_slot: (usize, usize),
}

impl NaryHrjn {
    /// Fresh state for `spec` at `k = spec.k` (pass a re-targeted spec
    /// for other depths).
    pub fn new(spec: &JoinSpec) -> Self {
        let n = spec.n();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e, edge) in spec.edges.iter().enumerate() {
            incident[edge.a].push(e);
            incident[edge.b].push(e);
        }
        let edge_slot: Vec<HashMap<usize, usize>> = incident
            .iter()
            .map(|edges| edges.iter().enumerate().map(|(s, &e)| (e, s)).collect())
            .collect();
        // Adjacency: side → [(neighbour, edge)].
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (e, edge) in spec.edges.iter().enumerate() {
            adj[edge.a].push((edge.b, e));
            adj[edge.b].push((edge.a, e));
        }
        let mut dfs = Vec::with_capacity(n);
        for root in 0..n {
            let mut order = Vec::with_capacity(n.saturating_sub(1));
            let mut visited = vec![false; n];
            visited[root] = true;
            let mut stack = vec![root];
            while let Some(side) = stack.pop() {
                for &(next, e) in &adj[side] {
                    if !visited[next] {
                        visited[next] = true;
                        order.push((next, e, side));
                        stack.push(next);
                    }
                }
            }
            dfs.push(order);
        }
        let edge0_owner = spec.edges[0].a;
        let edge0_slot = (edge0_owner, edge_slot[edge0_owner][&0]);
        NaryHrjn {
            k: spec.k,
            score_fn: spec.score_fn,
            results: TopK::new(spec.k),
            seen: incident
                .iter()
                .map(|edges| SeenNary {
                    tuples: Vec::new(),
                    by_edge: vec![HashMap::new(); edges.len()],
                })
                .collect(),
            bounds: vec![None; n],
            exhausted: vec![false; n],
            consumed: vec![0; n],
            incident,
            edge_slot,
            dfs,
            edge0_slot,
        }
    }

    fn n(&self) -> usize {
        self.bounds.len()
    }

    /// Feeds one tuple from side `side`. Panics in debug builds if scores
    /// go up — inputs must be score-descending — or if the tuple carries
    /// the wrong number of edge values.
    pub fn push(&mut self, side: usize, tuple: NaryTuple) {
        debug_assert_eq!(tuple.edge_values.len(), self.incident[side].len());
        debug_assert!(
            self.bounds[side].is_none_or(|(_, min)| tuple.score <= min + 1e-12),
            "input not score-descending"
        );
        self.bounds[side] = Some(match self.bounds[side] {
            None => (tuple.score, tuple.score),
            Some((max, min)) => (max, min.min(tuple.score)),
        });

        // Enumerate every complete assignment using the new tuple:
        // backtracking over the tree walk rooted at `side`.
        let order = std::mem::take(&mut self.dfs[side]);
        let mut chosen = vec![0u32; self.n()];
        let mut fresh = Vec::new();
        self.enumerate(&order, 0, side, &tuple, &mut chosen, &mut fresh);
        self.dfs[side] = order;
        for t in fresh {
            self.results.offer(t);
        }

        let slots = self.incident[side].len();
        let id = u32::try_from(self.seen[side].tuples.len()).expect("tuple count overflows u32");
        for slot in 0..slots {
            self.seen[side].by_edge[slot]
                .entry(tuple.edge_values[slot].clone())
                .or_default()
                .push(id);
        }
        self.seen[side].tuples.push(tuple);
        self.consumed[side] += 1;
    }

    /// Backtracking walk: `order[pos..]` still to assign; sides before
    /// `pos` fixed in `chosen` (the root uses `new` instead).
    fn enumerate(
        &self,
        order: &[(usize, usize, usize)],
        pos: usize,
        root: usize,
        new: &NaryTuple,
        chosen: &mut [u32],
        out: &mut Vec<JoinTuple>,
    ) {
        if pos == order.len() {
            // Only an assignment that will enter the top-k is worth
            // building. Testing against the buffer as it stood before this
            // push is sound: the offers that follow only raise the bar.
            let score = self
                .score_fn
                .combine_iter((0..self.n()).map(|i| self.tuple_at(root, new, chosen, i).score));
            let key = AssignmentKey {
                hrjn: self,
                root,
                new,
                chosen,
                score,
            };
            if self.results.admits(&key) {
                out.push(self.assemble(root, new, chosen, score));
            }
            return;
        }
        let (child, edge, parent) = order[pos];
        let parent_values = if parent == root {
            &new.edge_values
        } else {
            &self.seen[parent].tuples[chosen[parent] as usize].edge_values
        };
        let value = &parent_values[self.edge_slot[parent][&edge]];
        let child_slot = self.edge_slot[child][&edge];
        let Some(ids) = self.seen[child].by_edge[child_slot].get(value) else {
            return;
        };
        for &id in ids {
            chosen[child] = id;
            self.enumerate(order, pos + 1, root, new, chosen, out);
        }
    }

    /// Side `i`'s tuple in the assignment `chosen` rooted at the new
    /// tuple of side `root`.
    fn tuple_at<'a>(
        &'a self,
        root: usize,
        new: &'a NaryTuple,
        chosen: &[u32],
        i: usize,
    ) -> &'a NaryTuple {
        if i == root {
            new
        } else {
            &self.seen[i].tuples[chosen[i] as usize]
        }
    }

    /// Builds the result tuple of a complete assignment scoring `score`.
    fn assemble(&self, root: usize, new: &NaryTuple, chosen: &[u32], score: f64) -> JoinTuple {
        let n = self.n();
        let tuple_at = |i: usize| self.tuple_at(root, new, chosen, i);
        let (jv_side, jv_slot) = self.edge0_slot;
        JoinTuple {
            left_key: tuple_at(0).key.clone(),
            right_key: tuple_at(n - 1).key.clone(),
            join_value: tuple_at(jv_side).edge_values[jv_slot].clone(),
            left_score: tuple_at(0).score,
            right_score: tuple_at(n - 1).score,
            inner: (1..n - 1)
                .map(|i| (tuple_at(i).key.clone(), tuple_at(i).score))
                .collect(),
            score,
        }
    }

    /// Marks a side as fully consumed.
    pub fn exhaust(&mut self, side: usize) {
        self.exhausted[side] = true;
    }

    /// The N-ary HRJN threshold: the maximum attainable score of any
    /// result not yet produced. `None` while no bound exists (nothing
    /// pulled from some non-exhausted side).
    pub fn threshold(&self) -> Option<f64> {
        let n = self.n();
        let mut t: Option<f64> = None;
        'sides: for i in 0..n {
            if self.exhausted[i] {
                continue;
            }
            let Some((_, my_min)) = self.bounds[i] else {
                // Nothing pulled from an active side: unbounded.
                return None;
            };
            // Left-to-right fold of `f` over the sides' arguments, as
            // `combine_many` folds them (this runs after every tuple).
            let mut bound = 0.0;
            for j in 0..n {
                let arg = match self.bounds[j] {
                    _ if j == i => my_min,
                    Some((max, _)) => max,
                    // An exhausted empty side can never partner any
                    // future tuple — side i contributes no bound.
                    None if self.exhausted[j] => continue 'sides,
                    // An active side with nothing pulled: unbounded.
                    None => return None,
                };
                bound = if j == 0 {
                    arg
                } else {
                    self.score_fn.combine(bound, arg)
                };
            }
            t = Some(t.map_or(bound, |x: f64| x.max(bound)));
        }
        t.or(Some(f64::NEG_INFINITY))
    }

    /// Termination test: k results buffered and the k-th ≥ threshold.
    pub fn is_done(&self) -> bool {
        match (self.results.kth_score(), self.threshold()) {
            (Some(kth), Some(t)) => kth >= t,
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
        self.consumed.iter().sum()
    }

    /// Tuples consumed from one side.
    pub fn consumed(&self, side: usize) -> usize {
        self.consumed[side]
    }

    /// The k-th buffered score, or `None` while fewer than k buffered.
    pub fn kth_score(&self) -> Option<f64> {
        self.results.kth_score()
    }

    /// The genuine results buffered so far, in rank order.
    pub(crate) fn results(&self) -> impl Iterator<Item = &JoinTuple> {
        self.results.iter()
    }

    /// Finishes, returning the rank-ordered results.
    pub fn into_results(self) -> Vec<JoinTuple> {
        self.results.into_sorted_vec()
    }

    /// Requested k.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Runs N-way HRJN to completion over in-memory score-descending
/// per-side lists, round-robin over the sides — the reference driver
/// used by tests and the bench baselines.
pub fn run_nary_hrjn(spec: &JoinSpec, sides: &[Vec<NaryTuple>]) -> Vec<JoinTuple> {
    assert_eq!(sides.len(), spec.n());
    let mut state = NaryHrjn::new(spec);
    let mut at = vec![0usize; sides.len()];
    loop {
        if state.is_done() {
            break;
        }
        let mut advanced = false;
        for (i, list) in sides.iter().enumerate() {
            if at[i] < list.len() {
                state.push(i, list[at[i]].clone());
                at[i] += 1;
                if at[i] == list.len() {
                    state.exhaust(i);
                }
                advanced = true;
                if state.is_done() {
                    break;
                }
            }
        }
        if !advanced {
            for i in 0..sides.len() {
                state.exhaust(i);
            }
            break;
        }
    }
    state.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrjn::{run_hrjn, RankedTuple};
    use crate::query::JoinSide;

    fn side(label: &str) -> JoinSide {
        JoinSide::new(&label.to_lowercase(), label, ("d", b"jk"), ("d", b"score"))
    }

    fn nt(key: &[u8], values: &[&[u8]], score: f64) -> NaryTuple {
        NaryTuple {
            key: key.to_vec(),
            edge_values: values.iter().map(|v| v.to_vec()).collect(),
            score,
        }
    }

    fn sorted(mut v: Vec<NaryTuple>) -> Vec<NaryTuple> {
        v.sort_by(|a, b| b.score.total_cmp(&a.score));
        v
    }

    /// A deterministic pseudo-random side: `n` tuples, join values drawn
    /// from `domain` letters, scores spread over (0,1].
    fn gen_side(n: usize, domain: u8, seed: u64, edges: usize) -> Vec<NaryTuple> {
        let mut v = Vec::new();
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = b'a' + (x >> 33) as u8 % domain;
            let score = ((x >> 11) % 1000) as f64 / 1000.0;
            v.push(nt(
                format!("k{i}").as_bytes(),
                &vec![&[j][..]; edges],
                score,
            ));
        }
        sorted(v)
    }

    /// Brute-force 3-way path oracle over in-memory lists.
    fn brute_path3(spec: &JoinSpec, s: &[Vec<NaryTuple>]) -> Vec<JoinTuple> {
        let mut top = TopK::new(spec.k);
        for a in &s[0] {
            for b in &s[1] {
                if a.edge_values[0] != b.edge_values[0] {
                    continue;
                }
                for c in &s[2] {
                    if b.edge_values[1] != c.edge_values[0] {
                        continue;
                    }
                    top.offer(JoinTuple {
                        left_key: a.key.clone(),
                        right_key: c.key.clone(),
                        join_value: a.edge_values[0].clone(),
                        left_score: a.score,
                        right_score: c.score,
                        inner: vec![(b.key.clone(), b.score)],
                        score: spec.score_fn.combine_many(&[a.score, b.score, c.score]),
                    });
                }
            }
        }
        top.into_sorted_vec()
    }

    #[test]
    fn binary_spec_matches_binary_hrjn() {
        let spec = JoinSpec::path(vec![side("L"), side("R")], 5, ScoreFn::Sum).unwrap();
        let l = gen_side(30, 3, 7, 1);
        let r = gen_side(25, 3, 13, 1);
        let as_ranked = |v: &[NaryTuple]| -> Vec<RankedTuple> {
            v.iter()
                .map(|t| RankedTuple {
                    key: t.key.clone(),
                    join_value: t.edge_values[0].clone(),
                    score: t.score,
                })
                .collect()
        };
        let want = run_hrjn(5, ScoreFn::Sum, &as_ranked(&l), &as_ranked(&r));
        let got = run_nary_hrjn(&spec, &[l, r]);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.score, w.score);
            assert_eq!(g.left_key, w.left_key);
            assert_eq!(g.right_key, w.right_key);
        }
    }

    #[test]
    fn path3_matches_brute_force() {
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 8, f).unwrap();
            let sides = vec![
                gen_side(20, 3, 1, 1),
                gen_side(18, 3, 2, 2),
                gen_side(22, 3, 3, 1),
            ];
            let got = run_nary_hrjn(&spec, &sides);
            let want = brute_path3(&spec, &sides);
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
            nt(b"h1", &[b"a", b"p"], 0.9),
            nt(b"h2", &[b"a", b"q"], 0.7),
            nt(b"h3", &[b"b", b"p"], 0.5),
        ]);
        let x = sorted(vec![nt(b"x1", &[b"a"], 0.8), nt(b"x2", &[b"b"], 0.6)]);
        let y = sorted(vec![nt(b"y1", &[b"p"], 0.4), nt(b"y2", &[b"q"], 0.9)]);
        let got = run_nary_hrjn(&spec, &[hub, x, y]);
        // h1⋈x1⋈y1 (0.9+0.8+0.4=2.1), h2⋈x1⋈y2 (0.7+0.8+0.9=2.4),
        // h3⋈x2⋈y1 (0.5+0.6+0.4=1.5).
        let scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![2.4, 2.1, 1.5]);
        // Hub is side 0 → result's left; inner holds side 1 (X).
        assert_eq!(got[0].left_key, b"h2".to_vec());
        assert_eq!(got[0].inner, vec![(b"x1".to_vec(), 0.8)]);
        assert_eq!(got[0].right_key, b"y2".to_vec());
    }

    #[test]
    fn early_termination_on_path() {
        // Clear winner at the top: top-1 should not consume everything.
        let mk = |prefix: &str, n: usize| -> Vec<NaryTuple> {
            sorted(
                (0..n)
                    .map(|i| {
                        nt(
                            format!("{prefix}{i}").as_bytes(),
                            &[b"x"],
                            1.0 - i as f64 / n as f64,
                        )
                    })
                    .collect(),
            )
        };
        let mid: Vec<NaryTuple> = sorted(
            (0..50)
                .map(|i| {
                    nt(
                        format!("m{i}").as_bytes(),
                        &[b"x", b"x"],
                        1.0 - i as f64 / 50.0,
                    )
                })
                .collect(),
        );
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 1, ScoreFn::Sum).unwrap();
        let mut state = NaryHrjn::new(&spec);
        let sides = [mk("a", 50), mid, mk("c", 50)];
        let mut at = [0usize; 3];
        while !state.is_done() {
            for i in 0..3 {
                state.push(i, sides[i][at[i]].clone());
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
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 2, ScoreFn::Sum).unwrap();
        let mut s = NaryHrjn::new(&spec);
        assert_eq!(s.threshold(), None);
        s.push(0, nt(b"a", &[b"x"], 0.9));
        s.push(1, nt(b"b", &[b"x", b"x"], 0.8));
        assert_eq!(s.threshold(), None, "side 2 untouched → no bound");
        s.push(2, nt(b"c", &[b"x"], 0.7));
        assert!(s.threshold().is_some());
    }

    #[test]
    fn exhausted_empty_side_terminates() {
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 2, ScoreFn::Sum).unwrap();
        let mut s = NaryHrjn::new(&spec);
        s.push(0, nt(b"a", &[b"x"], 0.9));
        s.push(2, nt(b"c", &[b"x"], 0.7));
        s.exhaust(1);
        s.exhaust(0);
        s.exhaust(2);
        assert_eq!(s.threshold(), Some(f64::NEG_INFINITY));
        assert!(s.is_done());
        assert_eq!(s.result_count(), 0);
    }
}
