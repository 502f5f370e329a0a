//! Integration: the paper's running example (Fig. 1–6) through the
//! public API, across every algorithm, k value, and scoring function.

use rankjoin::core::oracle;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, RankJoinExecutor, RankJoinQuery, ScoreFn,
};

mod common;

fn load(score_fn: ScoreFn, k: usize) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(3, CostModel::test());
    let query = common::load_fig1(&cluster, score_fn, k);
    (cluster, query)
}

fn prepared_executor(cluster: &Cluster, query: RankJoinQuery) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query);
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 10,
        ..Default::default()
    })
    .unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 10,
        num_partitions: 64,
    })
    .unwrap();
    ex
}

#[test]
fn paper_top3_is_the_three_b_joins() {
    let (cluster, query) = load(ScoreFn::Sum, 3);
    let ex = prepared_executor(&cluster, query);
    for algo in Algorithm::ALL {
        let outcome = ex.execute(algo).unwrap();
        let scores: Vec<f64> = outcome.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62], "{}", algo.name());
        assert!(outcome
            .results
            .iter()
            .all(|t| t.join_value == b"b".to_vec()));
    }
}

#[test]
fn all_algorithms_match_oracle_across_k() {
    let (cluster, query) = load(ScoreFn::Sum, 3);
    let ex = prepared_executor(&cluster, query.clone());
    for k in [1, 2, 4, 9, 20, 38, 100] {
        let want = oracle::topk(&cluster, &query.with_k(k)).unwrap();
        for algo in Algorithm::ALL {
            let got = ex.execute_with_k(algo, k).unwrap();
            assert_eq!(got.results, want, "{} k={k}", algo.name());
        }
    }
}

#[test]
fn weighted_sum_scoring_also_agrees() {
    // A third monotone aggregate (beyond the paper's sum/product),
    // exercising the generic threshold machinery end to end.
    let (cluster, query) = load(ScoreFn::WeightedSum { wl: 2.0, wr: 0.5 }, 4);
    let ex = prepared_executor(&cluster, query.clone());
    let want = oracle::topk(&cluster, &query).unwrap();
    for algo in Algorithm::ALL {
        assert_eq!(ex.execute(algo).unwrap().results, want, "{}", algo.name());
    }
    // Left-heavy weights: r1_10 (a, 1.00) must anchor the top result.
    assert_eq!(want[0].left_key, b"r1_10".to_vec());
}

#[test]
fn asymmetric_isl_batches_agree() {
    let (cluster, query) = load(ScoreFn::Sum, 5);
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.prepare_isl().unwrap();
    let want = oracle::topk(&cluster, &query).unwrap();
    // A batch of 0 pulls one row a turn, as a batch of 1 does.
    for (bl, br) in [(1usize, 16usize), (16, 1), (3, 7), (0, 0), (0, 16)] {
        ex.isl_config = rankjoin::IslConfig {
            batch_left: bl,
            batch_right: br,
        };
        let got = ex.execute(Algorithm::Isl).unwrap();
        assert_eq!(got.results, want, "batches ({bl},{br})");
    }
}

#[test]
fn product_scoring_also_agrees() {
    let (cluster, query) = load(ScoreFn::Product, 5);
    let ex = prepared_executor(&cluster, query.clone());
    let want = oracle::topk(&cluster, &query).unwrap();
    assert!((want[0].score - 0.82 * 0.92).abs() < 1e-12, "b-join tops");
    for algo in Algorithm::ALL {
        assert_eq!(ex.execute(algo).unwrap().results, want, "{}", algo.name());
    }
}

#[test]
fn full_join_has_38_results() {
    // 2×4 (a) + 3×2 (b) + 3×2 (c) + 3×3 (d) = 8+6+6+9 = 29... computed by
    // the oracle; sanity-check the running example's join size invariant.
    let (cluster, query) = load(ScoreFn::Sum, 100);
    let all = oracle::full_join(&cluster, &query).unwrap();
    // a: 2 left × 4 right = 8; b: 3×2 = 6; c: 3×2 = 6; d: 3×3 = 9.
    assert_eq!(all.len(), 8 + 6 + 6 + 9);
    let ex = prepared_executor(&cluster, query);
    for algo in Algorithm::ALL {
        assert_eq!(
            ex.execute(algo).unwrap().results.len(),
            29,
            "{}",
            algo.name()
        );
    }
}

#[test]
fn metrics_shape_matches_paper_ordering() {
    // Dollar cost (KV reads): BFHM must be the cheapest of the indexed
    // algorithms, and MapReduce approaches the most expensive (§7.2).
    let (cluster, query) = load(ScoreFn::Sum, 3);
    let ex = prepared_executor(&cluster, query);
    let reads = |algo: Algorithm| ex.execute(algo).unwrap().metrics.kv_reads;
    let bfhm = reads(Algorithm::Bfhm);
    let isl = reads(Algorithm::Isl);
    let ijlmr = reads(Algorithm::Ijlmr);
    let hive = reads(Algorithm::Hive);
    let drjn = reads(Algorithm::Drjn);
    assert!(bfhm <= isl, "BFHM ({bfhm}) <= ISL ({isl})");
    assert!(isl <= ijlmr, "ISL ({isl}) <= IJLMR ({ijlmr})");
    assert!(ijlmr <= hive, "IJLMR ({ijlmr}) <= HIVE ({hive})");
    assert!(drjn >= ijlmr, "DRJN ({drjn}) rescans everything");
}
