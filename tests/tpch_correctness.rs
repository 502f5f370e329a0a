//! Integration: Q1/Q2 on generated TPC-H data, every algorithm vs the
//! oracle, across k values and both testbed profiles.

use rankjoin::core::oracle;
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, Extras, JoinSide, RankJoinExecutor,
    RankJoinQuery, ScoreFn,
};

fn q1(k: usize) -> RankJoinQuery {
    RankJoinQuery::new(
        JoinSide::new(
            loader::PART_TABLE,
            "P",
            (loader::FAMILY, loader::cols::JK),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        JoinSide::new(
            loader::LINEITEM_TABLE,
            "L",
            (loader::FAMILY, loader::cols::JK_PART),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        k,
        ScoreFn::Product,
    )
}

fn q2(k: usize) -> RankJoinQuery {
    RankJoinQuery::new(
        JoinSide::new(
            loader::ORDERS_TABLE,
            "O",
            (loader::FAMILY, loader::cols::JK),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        JoinSide::new(
            loader::LINEITEM_TABLE,
            "L2",
            (loader::FAMILY, loader::cols::JK_ORDER),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        k,
        ScoreFn::Sum,
    )
}

fn check_all(cluster: &Cluster, query: RankJoinQuery, ks: &[usize]) {
    let mut ex = RankJoinExecutor::new(cluster, query.clone());
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig::with_buckets(50)).unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 50,
        num_partitions: 128,
    })
    .unwrap();
    for &k in ks {
        let want = oracle::topk(cluster, &query.with_k(k)).unwrap();
        for algo in Algorithm::ALL {
            let got = ex.execute_with_k(algo, k).unwrap();
            assert_eq!(got.results, want, "{} k={k}", algo.name());
        }
    }
}

#[test]
fn q1_all_algorithms_all_k() {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.0006)).unwrap();
    check_all(&cluster, q1(1), &[1, 5, 25, 100]);
}

#[test]
fn q2_all_algorithms_all_k() {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.0006)).unwrap();
    check_all(&cluster, q2(1), &[1, 5, 25, 100]);
}

#[test]
fn q2_digs_deeper_than_q1() {
    // The paper's score-distribution claim (§7.1): Q2 has fewer
    // high-ranking tuples, so ISL consumes more tuples at equal k.
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.001)).unwrap();

    let mut ex1 = RankJoinExecutor::new(&cluster, q1(20));
    ex1.prepare_isl().unwrap();
    let mut ex2 = RankJoinExecutor::new(&cluster, q2(20));
    ex2.prepare_isl().unwrap();

    let consumed = |ex: &RankJoinExecutor| match ex.execute(Algorithm::Isl).unwrap().extras {
        Extras::Isl {
            tuples_consumed, ..
        } => tuples_consumed,
        other => panic!("a binary ISL run counts as ISL: {other:?}"),
    };
    let (t1, t2) = (consumed(&ex1), consumed(&ex2));
    assert!(
        t2 > t1,
        "Q2 should consume more tuples than Q1 (got {t2} vs {t1})"
    );
}

#[test]
fn both_profiles_agree_on_results() {
    // Cost profiles change metrics, never answers.
    let mut results = Vec::new();
    for cost in [CostModel::ec2(4), CostModel::lab()] {
        let cluster = Cluster::with_profile(cost);
        loader::load_all(&cluster, &TpchConfig::new(0.0004)).unwrap();
        let mut ex = RankJoinExecutor::new(&cluster, q1(10));
        ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
        results.push(ex.execute(Algorithm::Bfhm).unwrap().results);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn fk_join_cardinality_invariant() {
    // Every lineitem joins exactly one order: full-join size == lineitems.
    let cluster = Cluster::new(2, CostModel::test());
    let stats = loader::load_all(&cluster, &TpchConfig::new(0.0004)).unwrap();
    let all = oracle::full_join(&cluster, &q2(1)).unwrap();
    assert_eq!(all.len() as u64, stats.lineitems);
}
