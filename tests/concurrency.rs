//! Concurrency guarantees of serving many queries over one shared
//! cluster: every thread, each on its own executor fork and forked
//! ledger, gets the oracle answer, and concurrent DRJN runs keep their
//! scratch tables apart.

use rankjoin::core::oracle;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, IslConfig, RankJoinExecutor,
    RankJoinQuery, ScoreFn,
};

mod common;

fn fig1_cluster() -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(4, CostModel::ec2(4));
    let query = common::load_fig1(&cluster, ScoreFn::Sum, 3);
    (cluster, query)
}

/// Eight threads fire the same query concurrently at one shared cluster —
/// alternating ISL and BFHM, each thread on its own executor fork over a
/// forked ledger, as a serving layer's tenants do — and every single one
/// must get the oracle answer.
#[test]
fn eight_threads_share_a_cluster_and_agree_with_the_oracle() {
    let (cluster, query) = fig1_cluster();
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.isl_config = IslConfig::uniform(4);
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 10,
        filter_bits: Some(1 << 14),
        ..Default::default()
    })
    .unwrap();
    let want = oracle::topk(&cluster, &query).unwrap();

    std::thread::scope(|scope| {
        for thread_id in 0..8 {
            let (cluster, ex, want) = (&cluster, &ex, &want);
            scope.spawn(move || {
                let fork = ex.fork_onto(&cluster.fork_metrics()).unwrap();
                for round in 0..4 {
                    let algorithm = if (thread_id + round) % 2 == 0 {
                        Algorithm::Isl
                    } else {
                        Algorithm::Bfhm
                    };
                    let got = fork
                        .execute(algorithm)
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
            let (cluster, ex, want) = (&cluster, &ex, &want);
            scope.spawn(move || {
                let fork = ex.fork_onto(&cluster.fork_metrics()).unwrap();
                let got = fork
                    .execute(Algorithm::Drjn)
                    .unwrap_or_else(|e| panic!("thread {thread_id}: {e}"));
                assert_eq!(&got.results, want, "thread {thread_id}");
            });
        }
    });
}
