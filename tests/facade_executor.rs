//! Facade coverage: every [`Algorithm`] variant is executable through
//! [`RankJoinExecutor`] re-exported at the crate root, and agrees exactly
//! with the oracle on a tiny fixed two-table fixture — the fast,
//! deterministic companion to the `cross_algorithm` property suite — at
//! the executor's own `k` and at any other `k` it is asked for.

use rankjoin::core::oracle;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, IslConfig, JoinSide, Mutation,
    RankJoinExecutor, RankJoinQuery, ScoreFn, StopPolicy,
};

/// Two relations with distinct scores (no ties, so equality is exact):
/// join values fan out 1:2 on "x" and 2:1 on "y" (4 join tuples), and
/// "z" never joins.
const LEFT: &[(&str, u8, f64)] = &[
    ("l0", b'x', 0.90),
    ("l1", b'y', 0.80),
    ("l2", b'y', 0.35),
    ("l3", b'z', 0.99),
];
const RIGHT: &[(&str, u8, f64)] = &[("r0", b'x', 0.70), ("r1", b'x', 0.20), ("r2", b'y', 0.60)];

fn fixture(k: usize, score_fn: ScoreFn) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(2, CostModel::test());
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (table, rows) in [("l", LEFT), ("r", RIGHT)] {
        for (key, jv, score) in rows {
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*jv]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        k,
        score_fn,
    );
    (cluster, query)
}

fn prepared_executor(cluster: &Cluster, query: RankJoinQuery) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query);
    ex.isl_config = IslConfig::uniform(3);
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 8,
        ..Default::default()
    })
    .unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 8,
        num_partitions: 4,
    })
    .unwrap();
    ex
}

#[test]
fn every_algorithm_variant_executes_and_matches_oracle() {
    for score_fn in [ScoreFn::Sum, ScoreFn::Product] {
        for k in [1, 3, 10] {
            let (cluster, query) = fixture(k, score_fn);
            let want = oracle::topk(&cluster, &query).unwrap();
            assert_eq!(want.len(), k.min(4), "fixture has 4 join tuples");
            let ex = prepared_executor(&cluster, query);
            for algo in Algorithm::ALL {
                let got = ex.execute(algo).unwrap();
                assert_eq!(
                    got.results,
                    want,
                    "{} disagrees with oracle (k={k}, {score_fn:?})",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn executor_reports_metrics_for_every_algorithm() {
    let (cluster, query) = fixture(3, ScoreFn::Sum);
    let ex = prepared_executor(&cluster, query);
    for algo in Algorithm::ALL {
        let outcome = ex.execute(algo).unwrap();
        assert!(
            outcome.metrics.sim_seconds > 0.0,
            "{} reported no simulated time",
            algo.name()
        );
        assert!(
            outcome.metrics.kv_reads > 0,
            "{} reported no KV reads",
            algo.name()
        );
    }
}

/// `k` is an argument of every run, not a field read off the executor's
/// query: one executor built at k = 3 serves each algorithm one-shot,
/// and ISL / BFHM / DRJN / Auto as cursors paged one result at a time
/// through pause and resume, at depths below, at and past the fixture's
/// four join tuples — up to `usize::MAX / 2`, full enumeration. Every
/// answer must be the oracle's at that depth — a leftover read of the
/// built-in k = 3 shows up as a wrong length.
#[test]
fn one_executor_answers_every_k_it_is_asked_for() {
    let (cluster, query) = fixture(3, ScoreFn::Sum);
    let ex = prepared_executor(&cluster, query.clone());
    for k in [1, 2, 4, 10, usize::MAX / 2] {
        let want = oracle::topk(&cluster, &query.with_k(k)).unwrap();
        assert_eq!(want.len(), k.min(4));
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let got = ex.execute_with_k(algo, k).unwrap();
            assert_eq!(got.results, want, "{} one-shot at k={k}", algo.name());
        }
        for algo in [
            Algorithm::Isl,
            Algorithm::Bfhm,
            Algorithm::Drjn,
            Algorithm::Auto,
        ] {
            let mut cursor = ex.open_cursor(algo, k).unwrap();
            let mut got = Vec::new();
            // One result a page, so k + 1 pages always reach `done`.
            for _ in 0..=k {
                let batch = cursor.next_batch(1, &StopPolicy::never()).unwrap();
                got.extend(batch.results);
                if batch.done {
                    break;
                }
                cursor = ex.resume_cursor(cursor.pause()).unwrap();
            }
            assert!(cursor.is_done(), "{} paged at k={k}: not done", algo.name());
            assert_eq!(got, want, "{} paged at k={k}", algo.name());
        }
    }
    assert_eq!(
        ex.query().k,
        3,
        "serving other depths leaves the query alone"
    );
}
