//! The correctness oracle: an omniscient full join + sort.
//!
//! Computes the exact top-k by reading every row through the store's
//! debug (metric-free) path, hash-joining in memory, and sorting. This is
//! *not* one of the paper's algorithms — it exists so that every algorithm
//! in the crate can be tested against ground truth, including the BFHM
//! 100%-recall theorem (§5.3).

use std::collections::HashMap;

use rj_store::cluster::Cluster;
use rj_store::error::Result;

use crate::query::{JoinSpec, RankJoinQuery};
use crate::result::{JoinTuple, TopK};

/// Computes the exact top-k result without touching the metric ledger.
pub fn topk(cluster: &Cluster, query: &RankJoinQuery) -> Result<Vec<JoinTuple>> {
    let left_table = cluster.table(&query.left.table)?;
    let right_table = cluster.table(&query.right.table)?;

    let mut right_by_join: HashMap<Vec<u8>, Vec<(Vec<u8>, f64)>> = HashMap::new();
    for row in right_table.debug_all_rows() {
        if let Some((join, score)) = query.right.extract(&row) {
            right_by_join
                .entry(join)
                .or_default()
                .push((row.key, score));
        }
    }

    let mut top = TopK::new(query.k);
    for row in left_table.debug_all_rows() {
        let Some((join, left_score)) = query.left.extract(&row) else {
            continue;
        };
        let Some(matches) = right_by_join.get(&join) else {
            continue;
        };
        for (right_key, right_score) in matches {
            top.offer(JoinTuple {
                left_key: row.key.clone(),
                right_key: right_key.clone(),
                join_value: join.clone(),
                left_score,
                right_score: *right_score,
                inner: Vec::new(),
                score: query.score_fn.combine(left_score, *right_score),
            });
        }
    }
    Ok(top.into_sorted_vec())
}

/// Computes the *entire* join result, rank-ordered (for recall studies).
pub fn full_join(cluster: &Cluster, query: &RankJoinQuery) -> Result<Vec<JoinTuple>> {
    let huge = RankJoinQuery {
        k: usize::MAX / 2,
        ..query.clone()
    };
    topk(cluster, &huge)
}

/// One side tuple as the N-ary oracle sees it: row key, edge values in
/// incident order, score.
type SideRow = (Vec<u8>, Vec<Vec<u8>>, f64);

/// The N-ary oracle: exact top-k for any [`JoinSpec`] by exhaustive
/// assignment enumeration over the metric-free debug rows. Cubic-ish in
/// the side sizes — test-scale only, like [`topk`].
pub fn topk_spec(cluster: &Cluster, spec: &JoinSpec) -> Result<Vec<JoinTuple>> {
    let n = spec.n();
    let mut sides: Vec<Vec<SideRow>> = Vec::with_capacity(n);
    for (side, columns) in spec.sides.iter().zip(spec.side_columns()) {
        let table = cluster.table(&side.table)?;
        let mut rows = Vec::new();
        for row in table.debug_all_rows() {
            if let Some((values, score)) = columns.extract(&row) {
                let values = values.into_iter().map(<[u8]>::to_vec).collect();
                rows.push((row.key, values, score));
            }
        }
        sides.push(rows);
    }
    // Incident-slot lookup: which position edge `e` occupies in side
    // `i`'s edge-value vector.
    let slots: Vec<HashMap<usize, usize>> = (0..n)
        .map(|i| {
            spec.incident_edges(i)
                .enumerate()
                .map(|(slot, (e, _))| (e, slot))
                .collect()
        })
        .collect();

    let mut top = TopK::new(spec.k);
    let mut chosen = vec![0usize; n];
    enumerate_assignments(spec, &sides, &slots, 0, &mut chosen, &mut top);
    Ok(top.into_sorted_vec())
}

fn enumerate_assignments(
    spec: &JoinSpec,
    sides: &[Vec<SideRow>],
    slots: &[HashMap<usize, usize>],
    depth: usize,
    chosen: &mut [usize],
    top: &mut TopK,
) {
    let n = spec.n();
    if depth == n {
        for (e, edge) in spec.edges.iter().enumerate() {
            let a_val = &sides[edge.a][chosen[edge.a]].1[slots[edge.a][&e]];
            let b_val = &sides[edge.b][chosen[edge.b]].1[slots[edge.b][&e]];
            if a_val != b_val {
                return;
            }
        }
        let scores: Vec<f64> = (0..n).map(|i| sides[i][chosen[i]].2).collect();
        let e0 = &spec.edges[0];
        top.offer(JoinTuple {
            left_key: sides[0][chosen[0]].0.clone(),
            right_key: sides[n - 1][chosen[n - 1]].0.clone(),
            join_value: sides[e0.a][chosen[e0.a]].1[slots[e0.a][&0]].clone(),
            left_score: scores[0],
            right_score: scores[n - 1],
            inner: (1..n - 1)
                .map(|i| (sides[i][chosen[i]].0.clone(), scores[i]))
                .collect(),
            score: spec.score_fn.combine_many(&scores),
        });
        return;
    }
    for idx in 0..sides[depth].len() {
        chosen[depth] = idx;
        enumerate_assignments(spec, sides, slots, depth + 1, chosen, top);
    }
}

/// The entire N-ary join result, rank-ordered.
pub fn full_join_spec(cluster: &Cluster, spec: &JoinSpec) -> Result<Vec<JoinTuple>> {
    topk_spec(cluster, &spec.with_k(usize::MAX / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinSide;
    use crate::score::ScoreFn;
    use crate::testsupport::put_tuple;
    use rj_store::costmodel::CostModel;

    fn setup() -> (Cluster, RankJoinQuery) {
        let c = Cluster::new(2, CostModel::test());
        for t in ["l", "r"] {
            c.create_table(t, &["d"]).unwrap();
        }
        let client = c.client();
        // l: (k1, join=a, 0.9), (k2, join=b, 0.5)
        // r: (k3, join=a, 0.8), (k4, join=a, 0.1), (k5, join=c, 1.0)
        let rows = [
            ("l", "k1", b"a", 0.9_f64),
            ("l", "k2", b"b", 0.5),
            ("r", "k3", b"a", 0.8),
            ("r", "k4", b"a", 0.1),
            ("r", "k5", b"c", 1.0),
        ];
        for (t, k, j, s) in rows {
            put_tuple(&client, t, k.as_bytes(), j, s);
        }
        let q = RankJoinQuery::new(
            JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
            2,
            ScoreFn::Sum,
        );
        (c, q)
    }

    #[test]
    fn joins_and_ranks() {
        let (c, q) = setup();
        let results = topk(&c, &q).unwrap();
        assert_eq!(results.len(), 2);
        assert!((results[0].score - 1.7).abs() < 1e-12); // k1 ⋈ k3
        assert!((results[1].score - 1.0).abs() < 1e-12); // k1 ⋈ k4
        assert_eq!(results[0].left_key, b"k1".to_vec());
        assert_eq!(results[0].right_key, b"k3".to_vec());
    }

    #[test]
    fn full_join_returns_all() {
        let (c, q) = setup();
        let all = full_join(&c, &q).unwrap();
        assert_eq!(all.len(), 2, "only join value 'a' matches, twice");
    }

    #[test]
    fn spec_oracle_agrees_with_binary_oracle() {
        let (c, q) = setup();
        let binary = topk(&c, &q).unwrap();
        let spec = topk_spec(&c, &q.to_spec()).unwrap();
        assert_eq!(binary, spec, "two-side spec oracle must match");
    }

    #[test]
    fn spec_oracle_three_way_path() {
        let (c, spec) = crate::testsupport::three_way_path_cluster(4);
        let results = topk_spec(&c, &spec).unwrap();
        assert!(results.len() <= 4);
        assert!(results
            .windows(2)
            .all(|w| w[0].rank_cmp(&w[1]) == std::cmp::Ordering::Less));
        for t in &results {
            assert_eq!(t.inner.len(), 1, "one interior side");
            let combined = spec
                .score_fn
                .combine_many(&[t.left_score, t.inner[0].1, t.right_score]);
            assert!((t.score - combined).abs() < 1e-12);
        }
        let before = c.metrics().snapshot();
        let _ = topk_spec(&c, &spec).unwrap();
        assert_eq!(before, c.metrics().snapshot(), "spec oracle is metric-free");
    }

    #[test]
    fn no_metrics_charged() {
        let (c, q) = setup();
        let before = c.metrics().snapshot();
        let _ = topk(&c, &q).unwrap();
        let after = c.metrics().snapshot();
        assert_eq!(before, after, "oracle must not perturb the ledger");
    }
}
