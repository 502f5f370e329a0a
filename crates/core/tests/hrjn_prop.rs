//! Property tests of the one HRJN operator: it equals brute force on
//! arbitrary score-sorted inputs over two-side, 3-path and 3-star specs
//! (modulo tie-sibling exchange at the k-th score), driven by `run_hrjn`
//! — which pulls three sides one tuple at a time from the side whose
//! term is the threshold, the N-way cursor's order; the id top-k every
//! coordinator algorithm ranks into is `TopK` to the bit, duplicate base
//! keys included, under HRJN's, BFHM's and DRJN's offers; re-targeting a
//! 3-way operator equals having run it at the new `k` from the start; and
//! a DRJN run whose seen sides and top-k are recycled from earlier runs of
//! its executor answers exactly as a fresh one.

use std::sync::OnceLock;

use proptest::prelude::*;

use rj_core::drjn::DrjnConfig;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::hrjn::{run_hrjn, HrjnState, InputTuple};
use rj_core::oracle;
use rj_core::query::{JoinSide, JoinSpec, RankJoinQuery};
use rj_core::result::{JoinTuple, TopIds, TopK};
use rj_core::score::ScoreFn;
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

#[derive(Clone, Copy, Debug)]
enum Shape {
    Binary,
    Path3,
    Star3,
}

fn shape() -> impl Strategy<Value = Shape> {
    (0usize..3).prop_map(|i| [Shape::Binary, Shape::Path3, Shape::Star3][i])
}

/// A spec of `shape` (the operator reads only its topology, `k` and `f`).
fn spec_of(shape: Shape, k: usize, f: ScoreFn) -> JoinSpec {
    let side = |label: &str| JoinSide::new(label, label, ("d", b"jk"), ("d", b"score"));
    match shape {
        Shape::Binary => JoinSpec::path(vec![side("L"), side("R")], k, f),
        Shape::Path3 => JoinSpec::path(vec![side("A"), side("B"), side("C")], k, f),
        Shape::Star3 => JoinSpec::star(vec![side("H"), side("X"), side("Y")], k, f),
    }
    .unwrap()
}

/// One raw tuple: two join values (a side uses as many as it has edges)
/// and a score in thousandths.
type Raw = (u8, u8, u32);

/// Score-sorted inputs for every side of `spec`.
fn make_sides(spec: &JoinSpec, raw: &[Vec<Raw>]) -> Vec<Vec<InputTuple>> {
    (0..spec.n())
        .map(|i| {
            let edges = spec.incident_edges(i).count();
            let mut tuples: Vec<InputTuple> = raw[i]
                .iter()
                .enumerate()
                .map(|(t, &(j0, j1, s))| {
                    let values = [vec![j0], vec![j1]][..edges].to_vec();
                    (vec![b'a' + i as u8, t as u8], values, f64::from(s) / 1000.0)
                })
                .collect();
            tuples.sort_by(|a, b| b.2.total_cmp(&a.2));
            tuples
        })
        .collect()
}

/// Exhaustive top-k: every assignment of one tuple per side whose values
/// agree on every edge.
fn brute_force(spec: &JoinSpec, sides: &[Vec<InputTuple>]) -> Vec<JoinTuple> {
    fn assign<'a>(
        spec: &JoinSpec,
        sides: &'a [Vec<InputTuple>],
        chosen: &mut Vec<&'a InputTuple>,
        top: &mut TopK,
    ) {
        let n = spec.n();
        if chosen.len() < n {
            for t in &sides[chosen.len()] {
                chosen.push(t);
                assign(spec, sides, chosen, top);
                chosen.pop();
            }
            return;
        }
        // Side `i`'s value on edge `e`.
        let value = |i: usize, e: usize| {
            let slot = spec.incident_edges(i).position(|(edge, _)| edge == e);
            &chosen[i].1[slot.expect("edge touches side")]
        };
        let joins = spec
            .edges
            .iter()
            .enumerate()
            .all(|(e, edge)| value(edge.a, e) == value(edge.b, e));
        if joins {
            let scores: Vec<f64> = chosen.iter().map(|t| t.2).collect();
            top.offer(JoinTuple {
                left_key: chosen[0].0.clone(),
                right_key: chosen[n - 1].0.clone(),
                join_value: value(spec.edges[0].a, 0).clone(),
                left_score: scores[0],
                right_score: scores[n - 1],
                inner: chosen[1..n - 1]
                    .iter()
                    .map(|t| (t.0.clone(), t.2))
                    .collect(),
                score: spec.score_fn.combine_many(&scores),
            });
        }
    }
    let mut top = TopK::new(spec.k);
    assign(spec, sides, &mut Vec::new(), &mut top);
    top.into_sorted_vec()
}

fn push(state: &mut HrjnState, side: usize, t: &InputTuple) {
    state
        .push_borrowed(side, &t.0, t.1.iter().map(Vec::as_slice), t.2)
        .unwrap();
}

/// Every score function the operator folds with.
fn score_fn() -> impl Strategy<Value = ScoreFn> {
    (0usize..5).prop_map(|i| {
        [
            ScoreFn::Sum,
            ScoreFn::Product,
            ScoreFn::Min,
            ScoreFn::Max,
            ScoreFn::WeightedSum { wl: 0.25, wr: 2.0 },
        ][i]
    })
}

/// `sides` with one more copy of each tuple `dups` names (side, which) —
/// the same base key, join values and score — kept score-descending. A
/// side with a duplicate base key is how two different assignments come
/// to rank equal, which the top-k must keep once.
fn with_duplicates(mut sides: Vec<Vec<InputTuple>>, dups: &[(usize, u16)]) -> Vec<Vec<InputTuple>> {
    for &(side, which) in dups {
        let n = sides.len();
        let list = &mut sides[side % n];
        if !list.is_empty() {
            let copy = list[usize::from(which) % list.len()].clone();
            list.push(copy);
            list.sort_by(|a, b| b.2.total_cmp(&a.2));
        }
    }
    sides
}

/// A binary tuple as BFHM's cache and DRJN's seen sides hold it: base
/// key, join value, score.
type Tuple = (Vec<u8>, Vec<u8>, f64);

/// Offers every join match of `sides[0] × sides[1]` as a pull join meets
/// them — `pulls` names the side that pulls its next tuple, which is then
/// recorded and joined against the other side's recorded tuples — to a
/// `TopIds` at `k` and to a `TopK` at `k` over the built tuples. Ids index
/// one store per side (DRJN's seen sides) or, with `one_store`, a single
/// store both sides push into (BFHM's reverse-row cache). Returns the
/// `TopIds` results built, the `TopK` results, and how many matches were
/// offered.
fn rank_pull_join(
    k: usize,
    f: ScoreFn,
    sides: [&[Tuple]; 2],
    pulls: &[usize],
    one_store: bool,
) -> (Vec<JoinTuple>, Vec<JoinTuple>, usize) {
    let mut stores: [Vec<&Tuple>; 2] = [Vec::new(), Vec::new()];
    let mut recorded: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let (mut top_ids, mut top) = (TopIds::new(k, 2), TopK::new(k));
    let mut offered = 0;
    let mut at = [0usize; 2];
    let rest = (0..2).flat_map(|i| std::iter::repeat_n(i, sides[i].len()));
    for side in pulls.iter().map(|i| i % 2).chain(rest) {
        let Some(t) = sides[side].get(at[side]) else {
            continue;
        };
        at[side] += 1;
        let store = if one_store { 0 } else { side };
        recorded[side].push(stores[store].len() as u32);
        stores[store].push(t);
        let id = *recorded[side].last().unwrap();
        let tuple = |side: usize, id: u32| stores[if one_store { 0 } else { side }][id as usize];
        for &other in &recorded[1 - side] {
            let ids = if side == 0 { [id, other] } else { [other, id] };
            let (l, r) = (tuple(0, ids[0]), tuple(1, ids[1]));
            if l.1 != r.1 {
                continue;
            }
            offered += 1;
            let score = f.combine(l.2, r.2);
            top_ids.offer(score, &ids, |side, id| &tuple(side, id).0);
            top.offer(built(l, r, score));
        }
    }
    let tuple = |side: usize, id: u32| stores[if one_store { 0 } else { side }][id as usize];
    let ranked = (0..top_ids.len()).map(|rank| {
        let (l, r) = (tuple(0, top_ids.id(rank, 0)), tuple(1, top_ids.id(rank, 1)));
        built(l, r, top_ids.score(rank))
    });
    (ranked.collect(), top.into_sorted_vec(), offered)
}

/// The result tuple of the binary match `l ⋈ r` scoring `score`.
fn built(l: &Tuple, r: &Tuple, score: f64) -> JoinTuple {
    JoinTuple {
        left_key: l.0.clone(),
        right_key: r.0.clone(),
        join_value: l.1.clone(),
        left_score: l.2,
        right_score: r.2,
        inner: Vec::new(),
        score,
    }
}

/// `k` of kind `kind` for a join of `size` results: 0, 1, below the join
/// size, above it.
fn k_of(kind: usize, offset: usize, size: usize) -> usize {
    match kind {
        0 => 0,
        1 => 1,
        2 => offset % size.max(1),
        _ => size + 1 + offset,
    }
}

/// A binary join loaded into a cluster with DRJN's matrices built, an
/// executor over them, and the join's whole answer: the DRJN runs of
/// [`a_recycled_store_answers_as_a_fresh_one`] record their pulled tuples
/// into seen stores and rank into a top-k the executor recycles from case
/// to case.
fn drjn_fixture() -> &'static (RankJoinExecutor, Vec<JoinTuple>) {
    static FIXTURE: OnceLock<(RankJoinExecutor, Vec<JoinTuple>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cluster = Cluster::new(2, CostModel::test());
        let client = cluster.client();
        let mut x = 0x5eed_u64;
        for table in ["l", "r"] {
            cluster.create_table(table, &["d"]).unwrap();
            for i in 0..24 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let join = [b'a' + (x >> 33) as u8 % 6];
                // Eighths: ties at every score.
                let score = ((x >> 11) % 9) as f64 / 8.0;
                let puts = vec![
                    Mutation::put("d", b"jk", join.to_vec()),
                    Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                ];
                client
                    .mutate_row(table, format!("{table}{i:02}").as_bytes(), puts)
                    .unwrap();
            }
        }
        let side = |table: &str| JoinSide::new(table, table, ("d", b"jk"), ("d", b"score"));
        let query = RankJoinQuery::new(side("l"), side("r"), 1, ScoreFn::Sum);
        let all = oracle::topk(&cluster, &query.with_k(usize::MAX / 2)).unwrap();
        let mut ex = RankJoinExecutor::new(&cluster, query);
        ex.prepare_drjn(drjn_config()).unwrap();
        (ex, all)
    })
}

fn drjn_config() -> DrjnConfig {
    DrjnConfig {
        num_buckets: 8,
        num_partitions: 16,
    }
}

proptest! {
    #[test]
    fn hrjn_equals_brute_force(
        shape in shape(),
        raw in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u8..4, 0u32..=1000), 0..24),
            3..=3,
        ),
        k in 1usize..30,
        product in any::<bool>(),
    ) {
        let f = if product { ScoreFn::Product } else { ScoreFn::Sum };
        let spec = spec_of(shape, k, f);
        let sides = make_sides(&spec, &raw);
        let got = run_hrjn(&spec, &sides).unwrap();
        let want = brute_force(&spec, &sides);
        let all = brute_force(&spec.with_k(usize::MAX / 2), &sides);

        // Rank equivalence: identical score sequences; exact tuples above
        // the k-th score; boundary tuples must be genuine.
        let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
        prop_assert_eq!(&got_scores, &want_scores);
        let boundary = want.last().map(|t| t.score);
        for (g, w) in got.iter().zip(&want) {
            if Some(g.score) != boundary {
                prop_assert_eq!(g, w);
            } else {
                prop_assert!(all.contains(g), "boundary tuple is not a join result: {:?}", g);
            }
        }
    }

    /// The id top-k keeps tuple ids and builds a `JoinTuple` only when a
    /// result leaves; it must admit, deduplicate and evict exactly as
    /// `TopK` does over built tuples. In the HRJN operator: after every
    /// push of an arbitrary interleaving, its results equal — exactly —
    /// `TopK` over every join result among the tuples pushed so far, for
    /// every score function, shape and `k` from 0 past the join size, with
    /// duplicate base keys on a side. The early-terminating `run_hrjn`
    /// equals the same brute force exactly wherever the top-k is one set
    /// (no tie straddles the k-th score, or `k` reaches the join size).
    /// Under BFHM's offers (one id space for both sides) and DRJN's (one
    /// per side, each tuple recorded before its matches are offered), at
    /// `k` of 0, 1, below and above the match count, the built results
    /// equal `TopK`'s exactly.
    #[test]
    fn id_top_k_is_top_k_to_the_bit(
        shape in shape(),
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3, 0u32..=8), 0..10),
            3..=3,
        ),
        dups in prop::collection::vec((0usize..3, any::<u16>()), 0..6),
        picks in prop::collection::vec(0usize..3, 0..90),
        k in 0usize..48,
        f in score_fn(),
    ) {
        let spec = spec_of(shape, k, f);
        // Scores in eighths: ties at every rank, broken by keys.
        let raw: Vec<Vec<Raw>> = raw
            .into_iter()
            .map(|side| side.into_iter().map(|(a, b, s)| (a, b, s * 125)).collect())
            .collect();
        let sides = with_duplicates(make_sides(&spec, &raw), &dups);
        let n = spec.n();
        let mut state = HrjnState::new(&spec, k);
        let mut at = vec![0usize; n];
        // The picked interleaving, then whatever it left, side by side.
        let rest = (0..n).flat_map(|i| std::iter::repeat_n(i, sides[i].len()));
        for i in picks.iter().map(|i| i % n).chain(rest) {
            let Some(t) = sides[i].get(at[i]) else { continue };
            push(&mut state, i, t);
            at[i] += 1;
            let pushed: Vec<Vec<InputTuple>> =
                (0..n).map(|j| sides[j][..at[j]].to_vec()).collect();
            prop_assert_eq!(state.current_results(), brute_force(&spec, &pushed));
        }
        prop_assert_eq!(state.result_count(), state.current_results().len());

        let want = brute_force(&spec, &sides);
        let all = brute_force(&spec.with_k(usize::MAX / 2), &sides);
        prop_assert_eq!(state.into_results(), want.clone());
        let got = run_hrjn(&spec, &sides).unwrap();
        let unique = k == 0 || all.len() <= k || all[k - 1].score > all[k].score;
        if unique {
            prop_assert_eq!(got, want);
        } else {
            let scores = |v: &[JoinTuple]| v.iter().map(|t| t.score).collect::<Vec<_>>();
            prop_assert_eq!(scores(&got), scores(&want));
            prop_assert!(got.iter().all(|g| all.contains(g)));
        }

        // BFHM- and DRJN-shaped offers over the first two sides' tuples
        // (their first join value), duplicates included.
        let binary = with_duplicates(make_sides(&spec_of(Shape::Binary, k, f), &raw), &dups);
        let tuples = |side: &Vec<InputTuple>| -> Vec<Tuple> {
            side.iter().map(|(key, values, s)| (key.clone(), values[0].clone(), *s)).collect()
        };
        let (left, right) = (tuples(&binary[0]), tuples(&binary[1]));
        let matches = rank_pull_join(0, f, [&left, &right], &picks, true).2;
        for k in [0, 1, k, matches.saturating_sub(1), matches + 1] {
            for one_store in [true, false] {
                let (ids, owned, _) = rank_pull_join(k, f, [&left, &right], &picks, one_store);
                prop_assert_eq!(ids, owned, "k = {}, one store: {}", k, one_store);
            }
        }
    }

    /// Re-targeting by join sweep rebuilds exactly the operator a fresh
    /// run at the new `k` would hold after the same pushes — results,
    /// threshold and termination — and the two stay equal as the descent
    /// continues. Three sides, path and star: this is what replaying a
    /// consumed-tuple log used to guarantee.
    #[test]
    fn retarget_equals_fresh_run_at_new_k(
        star in any::<bool>(),
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3, 0u32..=20), 0..16),
            3..=3,
        ),
        picks in prop::collection::vec(0usize..3, 0..60),
        k in 0usize..12,
        new_k in 0usize..24,
        product in any::<bool>(),
    ) {
        let f = if product { ScoreFn::Product } else { ScoreFn::Sum };
        let shape = if star { Shape::Star3 } else { Shape::Path3 };
        let spec = spec_of(shape, k, f);
        let sides = make_sides(&spec, &raw);
        // An arbitrary interleaving of the three score-descending inputs.
        let mut at = [0usize; 3];
        let mut pushes = Vec::new();
        for i in picks {
            if let Some(t) = sides[i].get(at[i]) {
                at[i] += 1;
                pushes.push((i, t));
            }
        }
        let split = pushes.len() / 2;

        let mut retargeted = HrjnState::new(&spec, spec.k);
        let mut fresh = HrjnState::new(&spec, new_k);
        for &(side, t) in &pushes[..split] {
            push(&mut retargeted, side, t);
            push(&mut fresh, side, t);
        }
        retargeted.retarget(new_k);
        for &(side, t) in &pushes[split..] {
            prop_assert_eq!(retargeted.current_results(), fresh.current_results());
            prop_assert_eq!(retargeted.threshold(), fresh.threshold());
            prop_assert_eq!(retargeted.is_done(), fresh.is_done());
            push(&mut retargeted, side, t);
            push(&mut fresh, side, t);
        }
        prop_assert_eq!(retargeted.k(), new_k);
        prop_assert_eq!(retargeted.tuples_consumed(), fresh.tuples_consumed());
        prop_assert_eq!(retargeted.into_results(), fresh.into_results());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every DRJN run goes through one executor, so it starts from the
    /// seen sides and top-k the DRJN runs before it dropped — earlier
    /// cases included. Between them run HRJN operators made directly,
    /// which have no executor and recycle nothing, over two- and
    /// three-side specs whose sides have one or two edges (a path's
    /// middle, a star's hub); some are parked and dropped in another order
    /// than made. Each run's answer, taken after every tuple
    /// was pushed, must equal the brute-force top-k to the bit at every
    /// `k` kind: 0, 1, below and above the join size.
    #[test]
    fn a_recycled_store_answers_as_a_fresh_one(
        runs in prop::collection::vec(
            (
                shape(),
                prop::collection::vec(
                    prop::collection::vec((0u8..3, 0u8..3, 0u32..=8), 0..12),
                    3..=3,
                ),
                (0usize..4, 0usize..64),
                score_fn(),
                any::<bool>(),
                (any::<bool>(), 0usize..4, 0usize..64),
            ),
            1..6,
        ),
    ) {
        let mut parked: Vec<(HrjnState, Vec<JoinTuple>)> = Vec::new();
        for (shape, raw, (kind, offset), f, park, (with_drjn, drjn_kind, drjn_offset)) in runs {
            let raw: Vec<Vec<Raw>> = raw
                .into_iter()
                .map(|side| side.into_iter().map(|(a, b, s)| (a, b, s * 125)).collect())
                .collect();
            let spec = spec_of(shape, 0, f);
            let sides = make_sides(&spec, &raw);
            let size = brute_force(&spec.with_k(usize::MAX / 2), &sides).len();
            let k = k_of(kind, offset, size);
            let want = brute_force(&spec.with_k(k), &sides);
            let mut state = HrjnState::new(&spec, k);
            for (i, side) in sides.iter().enumerate() {
                side.iter().for_each(|t| push(&mut state, i, t));
            }
            prop_assert_eq!(state.current_results(), want.clone(), "k = {}", k);
            if park {
                parked.push((state, want));
            }
            if with_drjn {
                let (ex, all) = drjn_fixture();
                let k = k_of(drjn_kind, drjn_offset, all.len());
                let got = ex.execute_with_k(Algorithm::Drjn, k).unwrap();
                prop_assert_eq!(&got.results[..], &all[..k.min(all.len())], "DRJN k = {}", k);
            }
            // Past two parked states, drop the oldest: drops in another
            // order than the takes.
            if parked.len() > 2 {
                let (state, want) = parked.remove(0);
                prop_assert_eq!(state.current_results(), want);
            }
        }
        // Newest first.
        while let Some((state, want)) = parked.pop() {
            prop_assert_eq!(state.current_results(), want);
        }
    }
}
