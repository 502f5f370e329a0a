//! Concurrency guarantees of serving many queries over one shared
//! cluster: every thread, each on its own forked ledger, gets the oracle
//! answer, and concurrent DRJN runs keep their scratch tables apart.

use rankjoin::core::{bfhm, isl, oracle};
use rankjoin::{
    BfhmConfig, Cluster, CostModel, DrjnConfig, IslConfig, RankJoinExecutor, RankJoinQuery,
    ScoreFn, WriteBackPolicy,
};

mod common;

fn fig1_cluster() -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(4, CostModel::ec2(4));
    let query = common::load_fig1(&cluster, ScoreFn::Sum, 3);
    (cluster, query)
}

/// Eight threads fire the same query concurrently at one shared cluster —
/// alternating ISL and BFHM, each thread on its own forked ledger, as a
/// serving layer's tenants do — and every single one must get the oracle
/// answer.
#[test]
fn eight_threads_share_a_cluster_and_agree_with_the_oracle() {
    let (cluster, query) = fig1_cluster();
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 10,
        filter_bits: Some(1 << 14),
        ..Default::default()
    })
    .unwrap();
    let want = oracle::topk(&cluster, &query).unwrap();

    let isl_table = isl::index_table_name(&query);
    let bfhm_table = bfhm::index_table_name(&query);
    std::thread::scope(|scope| {
        for thread_id in 0..8 {
            let (cluster, query, want) = (&cluster, &query, &want);
            let (isl_table, bfhm_table) = (&isl_table, &bfhm_table);
            scope.spawn(move || {
                let fork = cluster.fork_metrics();
                for round in 0..4 {
                    let got = if (thread_id + round) % 2 == 0 {
                        isl::run(&fork, query, isl_table, IslConfig::uniform(4))
                    } else {
                        bfhm::run(
                            &fork,
                            query,
                            bfhm_table,
                            &BfhmConfig {
                                num_buckets: 10,
                                filter_bits: Some(1 << 14),
                                ..Default::default()
                            },
                            WriteBackPolicy::Off,
                        )
                    }
                    .unwrap_or_else(|e| panic!("thread {thread_id} round {round}: {e}"));
                    assert_eq!(
                        &got.results, want,
                        "thread {thread_id} round {round} diverged from the oracle"
                    );
                }
            });
        }
    });
}

/// Concurrent DRJN queries must not collide on their pull-phase temp
/// tables (they are named from a process-global sequence).
#[test]
fn concurrent_drjn_queries_do_not_collide() {
    let (cluster, query) = fig1_cluster();
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 10,
        num_partitions: 64,
    })
    .unwrap();
    let want = oracle::topk(&cluster, &query).unwrap();
    std::thread::scope(|scope| {
        for thread_id in 0..4 {
            let (cluster, query, want) = (&cluster, &query, &want);
            scope.spawn(move || {
                let fork = cluster.fork_metrics();
                let engine = rankjoin::MapReduceEngine::new(fork);
                let got = rankjoin::core::drjn::run(
                    &engine,
                    query,
                    &rankjoin::core::drjn::index_table_name(query),
                    &DrjnConfig {
                        num_buckets: 10,
                        num_partitions: 64,
                    },
                )
                .unwrap_or_else(|e| panic!("thread {thread_id}: {e}"));
                assert_eq!(&got.results, want, "thread {thread_id}");
            });
        }
    });
}
