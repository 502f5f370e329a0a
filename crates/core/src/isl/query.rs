//! Tests of ISL query processing (paper Algorithm 4) through the
//! executor: a run is its cursor drained in one pull over the index that
//! [`crate::isl::build`] wrote.

#[cfg(test)]
mod tests {
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::isl::{index_table_name, IslConfig};
    use crate::oracle;
    use crate::query::RankJoinQuery;
    use crate::stats::{Extras, QueryOutcome};
    use crate::testsupport::running_example_cluster;
    use rj_store::cluster::Cluster;

    /// An executor for `query` with its score index built.
    fn prepared(c: &Cluster, query: &RankJoinQuery) -> RankJoinExecutor {
        let mut ex = RankJoinExecutor::new(c, query.clone());
        ex.prepare_isl().unwrap();
        ex
    }

    /// Runs ISL for the top `k` at `batch` rows per turn.
    fn run(ex: &mut RankJoinExecutor, k: usize, batch: usize) -> QueryOutcome {
        ex.isl_config = IslConfig::uniform(batch);
        ex.execute_with_k(Algorithm::Isl, k).unwrap()
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let got = run(&mut prepared(&c, &q), 3, 2);
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
    }

    #[test]
    fn matches_oracle_for_all_k_and_batches() {
        let (c, q) = running_example_cluster();
        let mut ex = prepared(&c, &q);
        for k in [1, 2, 3, 7, 40] {
            for batch in [1, 3, 16] {
                assert_eq!(
                    run(&mut ex, k, batch).results,
                    oracle::topk(&c, &q.with_k(k)).unwrap(),
                    "k={k} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn early_termination_reads_less_than_everything() {
        let (c, q) = running_example_cluster();
        let got = run(&mut prepared(&c, &q), 1, 1);
        // 22 tuples exist; top-1 must terminate well before consuming all.
        let shallow = matches!(
            got.extras,
            Extras::Isl {
                tuples_consumed: ..15,
                ..
            }
        );
        assert!(shallow, "{:?}", got.extras);
    }

    #[test]
    fn larger_batches_fewer_rpcs_more_reads() {
        let (c, q) = running_example_cluster();
        let mut ex = prepared(&c, &q);
        let small = run(&mut ex, q.k, 1);
        let large = run(&mut ex, q.k, 50);
        assert!(large.metrics.rpc_calls < small.metrics.rpc_calls);
        assert!(large.metrics.kv_reads >= small.metrics.kv_reads);
        assert_eq!(small.results, large.results);
    }

    /// An index table dropped under the executor that built it is
    /// reported when a run opens.
    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let ex = prepared(&c, &q);
        c.drop_table(&index_table_name(&q)).unwrap();
        assert!(matches!(
            ex.execute(Algorithm::Isl).unwrap_err(),
            crate::error::RankJoinError::MissingIndex(_)
        ));
    }
}
