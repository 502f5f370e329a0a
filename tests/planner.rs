//! Planner test suite: `Algorithm::Auto` correctness under arbitrary
//! preparation subsets and datasets, plus the bugfix-sweep regressions —
//! NaN scores, `k = 0`, and score ties — across all algorithms.

use proptest::prelude::*;

use rankjoin::core::error::RankJoinError;
use rankjoin::core::oracle;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, IslConfig, JoinSide, MaintainedSide,
    Mutation, Objective, RankJoinExecutor, RankJoinQuery, ScoreFn,
};

/// A randomized workload: two relations, a `k`, a score function, and a
/// subset of indices to prepare.
#[derive(Clone, Debug)]
struct Scenario {
    left: Vec<(u8, f64)>,
    right: Vec<(u8, f64)>,
    k: usize,
    product: bool,
    /// Which of (ijlmr, isl, bfhm, drjn) to prepare.
    prepared: [bool; 4],
    objective_dollars: bool,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let tuple = (0u8..10, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0));
    (
        prop::collection::vec(tuple.clone(), 0..40),
        prop::collection::vec(tuple, 0..40),
        1usize..20,
        any::<bool>(),
        [any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()],
        any::<bool>(),
    )
        .prop_map(
            |(left, right, k, product, prepared, objective_dollars)| Scenario {
                left,
                right,
                k,
                product,
                prepared,
                objective_dollars,
            },
        )
}

fn load(s: &Scenario) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(3, CostModel::test());
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (rows, table) in [(&s.left, "l"), (&s.right, "r")] {
        for (i, (j, score)) in rows.iter().enumerate() {
            client
                .mutate_row(
                    table,
                    format!("{table}{i:03}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*j]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        s.k,
        if s.product {
            ScoreFn::Product
        } else {
            ScoreFn::Sum
        },
    );
    (cluster, query)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// `Auto` returns the oracle top-k and never errors, whatever subset
    /// of indices happens to be prepared (including none: the baselines
    /// are always available), under both objectives.
    #[test]
    fn auto_is_oracle_exact_for_any_preparation(s in scenario_strategy()) {
        let (cluster, query) = load(&s);
        let mut ex = RankJoinExecutor::new(&cluster, query.clone());
        ex.isl_config = IslConfig::uniform(7);
        ex.objective = if s.objective_dollars { Objective::Dollars } else { Objective::Time };
        if s.prepared[0] { ex.prepare_ijlmr().unwrap(); }
        if s.prepared[1] { ex.prepare_isl().unwrap(); }
        if s.prepared[2] {
            ex.prepare_bfhm(BfhmConfig { num_buckets: 10, ..Default::default() }).unwrap();
        }
        if s.prepared[3] {
            ex.prepare_drjn(DrjnConfig { num_buckets: 10, num_partitions: 32 }).unwrap();
        }

        let want = oracle::topk(&cluster, &query).unwrap();
        let all = oracle::full_join(&cluster, &query).unwrap();
        let got = ex.execute(Algorithm::Auto).unwrap();
        // Rank-equivalent to the oracle: identical score sequence, exact
        // tuples above the k-th score, genuine tie-siblings at it.
        assert_rank_equivalent("AUTO", &got.results, &want, &all);

        // The plan ranks only prepared algorithms plus the two baselines.
        let plan = ex.plan().unwrap();
        let expected = 2 + s.prepared.iter().filter(|p| **p).count();
        prop_assert_eq!(plan.ranked.len(), expected);
        let best = plan.best().unwrap();
        let available = |a: Algorithm| match a {
            Algorithm::Hive | Algorithm::Pig => true,
            Algorithm::Ijlmr => s.prepared[0],
            Algorithm::Isl => s.prepared[1],
            Algorithm::Bfhm => s.prepared[2],
            Algorithm::Drjn => s.prepared[3],
            Algorithm::Auto => false,
        };
        prop_assert!(available(best), "chose unprepared {:?}", best);
    }
}

/// Rank-equivalence under score ties (the cross-algorithm contract):
/// identical score sequences, exact matches strictly above the k-th score,
/// and every boundary tuple must be a genuine join result.
fn assert_rank_equivalent(
    algo: &str,
    got: &[rankjoin::JoinTuple],
    want: &[rankjoin::JoinTuple],
    all: &[rankjoin::JoinTuple],
) {
    let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
    let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
    assert_eq!(got_scores, want_scores, "{algo}: score sequences differ");
    let boundary = want.last().map(|t| t.score);
    for (g, w) in got.iter().zip(want) {
        if Some(g.score) != boundary {
            assert_eq!(g, w, "{algo}: above-boundary tuple differs");
        } else {
            assert!(
                all.iter().any(|t| t.score == g.score
                    && t.left_key == g.left_key
                    && t.right_key == g.right_key),
                "{algo}: boundary tuple is not a real join result: {g:?}"
            );
        }
    }
}

fn tie_fixture() -> (Cluster, RankJoinQuery) {
    // Every tuple scores 0.5, so every join result ties at 1.0 (sum):
    // the rank order must come entirely from the key tie-break.
    let cluster = Cluster::new(2, CostModel::test());
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (table, n) in [("l", 6), ("r", 5)] {
        for i in 0..n {
            client
                .mutate_row(
                    table,
                    format!("{table}{i}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![b'x']),
                        Mutation::put("d", b"score", 0.5f64.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        7,
        ScoreFn::Sum,
    );
    (cluster, query)
}

/// A ties-free fixture (distinct scores everywhere) for tests that want
/// exact result equality.
fn distinct_fixture() -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(2, CostModel::test());
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (table, n, base) in [("l", 6u32, 0.05f64), ("r", 5, 0.4)] {
        for i in 0..n {
            let jv = if i % 2 == 0 { b'x' } else { b'y' };
            let score = base + f64::from(i) / 100.0;
            client
                .mutate_row(
                    table,
                    format!("{table}{i}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![jv]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        7,
        ScoreFn::Sum,
    );
    (cluster, query)
}

fn fully_prepared(cluster: &Cluster, query: &RankJoinQuery) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query.clone());
    ex.isl_config = IslConfig::uniform(4);
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 8,
        ..Default::default()
    })
    .unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 8,
        num_partitions: 16,
    })
    .unwrap();
    ex
}

/// All-ties regression: 30 identical-score join tuples; all six
/// algorithms plus Auto return a rank-equivalent top-7 (deterministic
/// score sequence; every boundary tuple a genuine result) without any
/// comparator panic.
#[test]
fn score_ties_are_deterministic_across_all_algorithms() {
    let (cluster, query) = tie_fixture();
    let ex = fully_prepared(&cluster, &query);
    let want = oracle::topk(&cluster, &query).unwrap();
    let all = oracle::full_join(&cluster, &query).unwrap();
    assert_eq!(want.len(), 7);
    assert_eq!(all.len(), 30);
    assert!(want.iter().all(|t| (t.score - 1.0).abs() < 1e-12));
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let got = ex.execute(algo).unwrap();
        assert_rank_equivalent(algo.name(), &got.results, &want, &all);
    }
}

/// `k = 0` regression: empty, zero-cost result from every algorithm
/// through the executor, the one door to a run.
#[test]
fn k_zero_is_empty_and_free_everywhere() {
    let (cluster, query) = tie_fixture();
    let ex = fully_prepared(&cluster, &query);
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let got = ex.execute_with_k(algo, 0).unwrap();
        assert!(got.results.is_empty(), "{}", algo.name());
        assert_eq!(got.metrics.kv_reads, 0, "{}", algo.name());
        assert_eq!(got.metrics.rpc_calls, 0, "{}", algo.name());
        assert_eq!(got.metrics.sim_seconds, 0.0, "{}", algo.name());
    }
}

/// NaN regression: a NaN score planted directly in the base table (below
/// the maintained write path) must be ignored — not panic — by every
/// algorithm, and the maintained write path rejects it with a typed
/// error before it can land at all.
#[test]
fn nan_scores_never_panic_and_are_rejected_at_ingest() {
    let (cluster, query) = distinct_fixture();
    let client = cluster.client();
    // Plant a NaN score straight into the base table (simulating a
    // corrupt or hostile writer bypassing MaintainedSide).
    client
        .mutate_row(
            "l",
            b"l_nan",
            vec![
                Mutation::put("d", b"jk", vec![b'x']),
                Mutation::put("d", b"score", f64::NAN.to_be_bytes().to_vec()),
            ],
        )
        .unwrap();
    let ex = fully_prepared(&cluster, &query);
    let want = oracle::topk(&cluster, &query).unwrap();
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let got = ex.execute(algo).unwrap();
        assert_eq!(got.results, want, "{}", algo.name());
        assert!(
            got.results.iter().all(|t| t.left_key != b"l_nan".to_vec()),
            "{}: NaN tuple must not join",
            algo.name()
        );
    }
    // The typed ingest rejection.
    let side = MaintainedSide::new(&cluster, query.left.clone());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            side.insert(b"l_bad", b"x", bad, vec![]).unwrap_err(),
            RankJoinError::NonFiniteScore(_)
        ));
    }
}

/// Re-preparation regression: rebuilding every index through the same
/// executor must replace (not duplicate) the stale index, and Auto keeps
/// answering correctly before and after.
#[test]
fn auto_survives_re_preparation() {
    let (cluster, query) = distinct_fixture();
    let mut ex = fully_prepared(&cluster, &query);
    let want = oracle::topk(&cluster, &query).unwrap();
    assert_eq!(ex.execute(Algorithm::Auto).unwrap().results, want);
    // Rebuild everything in place (e.g. after a bulk load).
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 8,
        ..Default::default()
    })
    .unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 8,
        num_partitions: 16,
    })
    .unwrap();
    assert_eq!(ex.execute(Algorithm::Auto).unwrap().results, want);
    for algo in Algorithm::ALL {
        assert_eq!(ex.execute(algo).unwrap().results, want, "{}", algo.name());
    }
}

/// The plan explains itself and respects the dollar objective's ranking.
#[test]
fn explain_is_rendered_and_objectives_differ() {
    let (cluster, query) = tie_fixture();
    let mut ex = fully_prepared(&cluster, &query);
    let time_plan = ex.plan().unwrap();
    let rendered = time_plan.explain();
    assert!(rendered.contains("objective=time"));
    assert!(rendered.contains("=>"));
    for algo in Algorithm::ALL {
        assert!(rendered.contains(algo.name()), "{} missing", algo.name());
    }
    ex.objective = Objective::Dollars;
    let dollar_plan = ex.plan().unwrap();
    let best = dollar_plan.ranked.first().unwrap();
    for e in &dollar_plan.ranked {
        assert!(best.dollars <= e.dollars + 1e-15);
    }
}
