//! Property tests: the HRJN operator equals brute force on arbitrary
//! score-sorted inputs (modulo tie-sibling exchange at the k-th score);
//! `TopK::admits` predicts `TopK::offer` exactly; re-targeting an
//! operator equals having run it at the new `k` from the start.

use proptest::prelude::*;

use rj_core::hrjn::{run_hrjn, HrjnState, RankedTuple, Side};
use rj_core::result::{JoinTuple, TopK};
use rj_core::score::ScoreFn;

fn make_side(raw: Vec<(u8, u32)>, prefix: u8) -> Vec<RankedTuple> {
    let mut tuples: Vec<RankedTuple> = raw
        .into_iter()
        .enumerate()
        .map(|(i, (j, s))| RankedTuple {
            key: vec![prefix, i as u8],
            join_value: vec![j],
            score: f64::from(s) / 1000.0,
        })
        .collect();
    tuples.sort_by(|a, b| b.score.total_cmp(&a.score));
    tuples
}

fn brute_force(
    k: usize,
    f: ScoreFn,
    left: &[RankedTuple],
    right: &[RankedTuple],
) -> Vec<JoinTuple> {
    let mut top = TopK::new(k);
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

proptest! {
    #[test]
    fn hrjn_equals_brute_force(
        left in prop::collection::vec((0u8..10, 0u32..=1000), 0..60),
        right in prop::collection::vec((0u8..10, 0u32..=1000), 0..60),
        k in 1usize..30,
        product in any::<bool>(),
    ) {
        let f = if product { ScoreFn::Product } else { ScoreFn::Sum };
        let left = make_side(left, b'l');
        let right = make_side(right, b'r');
        let got = run_hrjn(k, f, &left, &right);
        let want = brute_force(k, f, &left, &right);
        let all = brute_force(usize::MAX / 2, f, &left, &right);

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
                prop_assert!(all.iter().any(|t| t.score == g.score
                    && t.left_key == g.left_key
                    && t.right_key == g.right_key));
            }
        }
    }

    /// The borrowed admission test is true exactly when `offer` would
    /// change the retained set — ties at the k-th score, duplicates and
    /// `k = 0` included.
    #[test]
    fn topk_admits_iff_offer_changes_the_set(
        k in 0usize..6,
        // (score, left key, interior key, right key): tiny domains, so
        // ties at every rank and exact duplicates are common.
        offers in prop::collection::vec((0u32..4, 0u8..3, 0u8..3, 0u8..3), 0..40),
        nary in any::<bool>(),
    ) {
        let mut top = TopK::new(k);
        for (score, l, m, r) in offers {
            let t = JoinTuple {
                left_key: vec![l],
                right_key: vec![r],
                join_value: vec![b'j'],
                left_score: 0.0,
                right_score: 0.0,
                inner: if nary { vec![(vec![m], 0.0)] } else { Vec::new() },
                score: f64::from(score),
            };
            let before: Vec<JoinTuple> = top.iter().cloned().collect();
            let admitted = top.admits(&t);
            top.offer(t);
            let after: Vec<JoinTuple> = top.iter().cloned().collect();
            prop_assert_eq!(admitted, before != after);
        }
    }

    /// Re-targeting by join sweep rebuilds exactly the operator a fresh
    /// run at the new `k` would hold after the same pushes — results,
    /// threshold and termination — and the two stay equal as the descent
    /// continues.
    #[test]
    fn retarget_equals_fresh_run_at_new_k(
        left in prop::collection::vec((0u8..6, 0u32..=20), 0..40),
        right in prop::collection::vec((0u8..6, 0u32..=20), 0..40),
        picks in prop::collection::vec(any::<bool>(), 0..80),
        k in 0usize..12,
        new_k in 0usize..24,
        product in any::<bool>(),
    ) {
        let f = if product { ScoreFn::Product } else { ScoreFn::Sum };
        let sides = [make_side(left, b'l'), make_side(right, b'r')];
        // An arbitrary interleaving of the two score-descending inputs.
        let mut at = [0usize; 2];
        let mut pushes = Vec::new();
        for pick_right in picks {
            let i = usize::from(pick_right);
            if let Some(t) = sides[i].get(at[i]) {
                at[i] += 1;
                pushes.push((if i == 0 { Side::Left } else { Side::Right }, t.clone()));
            }
        }
        let split = pushes.len() / 2;

        let mut retargeted = HrjnState::new(k, f);
        let mut fresh = HrjnState::new(new_k, f);
        for (side, t) in &pushes[..split] {
            retargeted.push(*side, t.clone());
            fresh.push(*side, t.clone());
        }
        retargeted.retarget(new_k);
        for (side, t) in &pushes[split..] {
            prop_assert_eq!(retargeted.current_results(), fresh.current_results());
            prop_assert_eq!(retargeted.threshold(), fresh.threshold());
            prop_assert_eq!(retargeted.is_done(), fresh.is_done());
            retargeted.push(*side, t.clone());
            fresh.push(*side, t.clone());
        }
        prop_assert_eq!(retargeted.k(), new_k);
        prop_assert_eq!(retargeted.tuples_consumed(), fresh.tuples_consumed());
        prop_assert_eq!(retargeted.into_results(), fresh.into_results());
    }
}
