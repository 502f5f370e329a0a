//! Integration: Theorem 1 — BFHM achieves 100% recall for any valid
//! input, even under adversarial configurations that maximize Bloom
//! false positives and histogram coarseness.

use rankjoin::core::{bfhm, oracle};
use rankjoin::sketch::blob::BlobCodec;
use rankjoin::sketch::hybrid::AlphaMode;
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, BoundMode, Cluster, CostModel, JoinSide, MapReduceEngine, Mutation,
    RankJoinExecutor, RankJoinQuery, ScoreFn,
};

fn adversarial_cluster(n: u64) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(2, CostModel::test());
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    // Many distinct join values, clustered scores (every tuple competes).
    for i in 0..n {
        let score = 0.5 + (i % 97) as f64 / 1000.0;
        for (t, key) in [("l", format!("l{i:04}")), ("r", format!("r{i:04}"))] {
            client
                .mutate_row(
                    t,
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", (i % 53).to_be_bytes().to_vec()),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        10,
        ScoreFn::Sum,
    );
    (cluster, query)
}

/// Builds `query`'s BFHM index at `table` with `config` and returns an
/// executor that runs over it.
fn built(
    cluster: &Cluster,
    query: &RankJoinQuery,
    table: &str,
    config: &BfhmConfig,
) -> RankJoinExecutor {
    let engine = MapReduceEngine::new(cluster.clone());
    bfhm::build_pair(&engine, query, table, config).unwrap();
    let mut ex = RankJoinExecutor::new(cluster, query.clone());
    ex.attach_bfhm(table, config.clone()).unwrap();
    ex
}

fn run_config(config: BfhmConfig, label: &str) {
    let (cluster, query) = adversarial_cluster(120);
    let ex = built(&cluster, &query, "idx", &config);
    for k in [1, 5, 10, 40, 200] {
        let got = ex.execute_with_k(Algorithm::Bfhm, k).unwrap();
        let want = oracle::topk(&cluster, &query.with_k(k)).unwrap();
        assert_eq!(got.results, want, "{label} k={k}");
    }
}

#[test]
fn tiny_filters_force_collisions_but_recall_holds() {
    // 8-bit filters over 53 distinct join values: virtually every bit
    // position collides. Phase 2 must resolve by real join values.
    run_config(
        BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(8),
            ..Default::default()
        },
        "m=8",
    );
}

#[test]
fn single_bucket_histogram() {
    // One bucket = no score pruning at all; everything funnels through
    // one estimate. Degenerates gracefully to a full reverse-mapped join.
    run_config(
        BfhmConfig {
            num_buckets: 1,
            filter_bits: Some(64),
            ..Default::default()
        },
        "buckets=1",
    );
}

#[test]
fn alpha_off_still_exact() {
    run_config(
        BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(32),
            alpha: AlphaMode::Off,
            ..Default::default()
        },
        "alpha=off",
    );
}

#[test]
fn conservative_bound_mode_still_exact() {
    run_config(
        BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(32),
            bound_mode: BoundMode::Conservative,
            ..Default::default()
        },
        "conservative",
    );
}

#[test]
fn raw_codec_equals_golomb() {
    // Blob wire format must not affect results, only bytes.
    let (cluster, query) = adversarial_cluster(80);
    let golomb = BfhmConfig {
        num_buckets: 10,
        codec: BlobCodec::Golomb,
        ..Default::default()
    };
    let raw = BfhmConfig {
        num_buckets: 10,
        codec: BlobCodec::Raw,
        ..Default::default()
    };
    let got_g = built(&cluster, &query, "idx_g", &golomb).execute(Algorithm::Bfhm);
    let got_r = built(&cluster, &query, "idx_r", &raw).execute(Algorithm::Bfhm);
    assert_eq!(got_g.unwrap().results, got_r.unwrap().results);
    let g_size = cluster.table("idx_g").unwrap().disk_size();
    let r_size = cluster.table("idx_r").unwrap().disk_size();
    assert!(
        g_size < r_size,
        "golomb blobs ({g_size}) should be smaller than raw ({r_size})"
    );
}

#[test]
fn k_exceeding_join_size_returns_everything() {
    let cluster = Cluster::new(2, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.0002)).unwrap();
    let query = RankJoinQuery::new(
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
        1_000_000,
        ScoreFn::Product,
    );
    let config = BfhmConfig::with_buckets(10);
    let got = built(&cluster, &query, "idx", &config)
        .execute(Algorithm::Bfhm)
        .unwrap();
    let want = oracle::full_join(&cluster, &query).unwrap();
    assert_eq!(got.results.len(), want.len());
    assert_eq!(got.results, want);
}
