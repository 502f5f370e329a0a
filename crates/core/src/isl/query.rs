//! ISL query processing (paper Algorithm 4).
//!
//! The coordinator takes batched scans over the sides' score lists in
//! turn, maintaining per-side hash tables on the join values for fast
//! joins against newly fetched tuples, and terminating by the HRJN
//! threshold test after every tuple. The loop itself lives in
//! [`IslCursor`]; the one-shot drivers here drain it in one call.

use std::sync::Arc;

use rj_store::metrics::QueryMeter;

use crate::cancel::StopPolicy;
use crate::cursor::{isl_algorithm_name, CursorMeta, IslCursor, SideAccess};
use crate::error::Result;
use crate::query::{JoinSpec, RankJoinQuery};
use crate::spare::Spares;
use crate::stats::QueryOutcome;

/// ISL tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IslConfig {
    /// Index rows pulled per turn from the left list (`C_A`).
    pub batch_left: usize,
    /// Index rows pulled per turn from the right list (`C_B`).
    pub batch_right: usize,
}

impl Default for IslConfig {
    fn default() -> Self {
        IslConfig {
            batch_left: 64,
            batch_right: 64,
        }
    }
}

impl IslConfig {
    /// Same batch size for both sides.
    pub fn uniform(batch: usize) -> Self {
        IslConfig {
            batch_left: batch.max(1),
            batch_right: batch.max(1),
        }
    }

    /// The batch sizes in side order.
    pub(crate) fn batches(&self) -> [usize; 2] {
        [self.batch_left, self.batch_right]
    }
}

/// Executes the ISL rank join over a previously built index table — the
/// two-side instance of the spec-driven descent (the query's
/// [`RankJoinQuery::to_spec`], both sides descended) at the query's own
/// `k`. This direct entry point builds that spec for its one call and
/// recycles no buffer; an executor builds its spec once, runs every `k`
/// against it and recycles its runs' buffers.
pub fn run(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
) -> Result<QueryOutcome> {
    let spec = Arc::new(query.to_spec());
    let meta = CursorMeta::new(query.k, None, Spares::default());
    run_spec(cluster, &spec, meta, index_table, &config.batches())
}

/// The all-sides-descending one-shot run for the top `meta.k` of a
/// shared spec (whose own `k` is not read), its buffers taken from and
/// given back to `meta.spares`: the cursor drained in one call, reporting
/// the tuples it consumed and the batches it fetched.
pub(crate) fn run_spec(
    cluster: &rj_store::cluster::Cluster,
    spec: &Arc<JoinSpec>,
    meta: CursorMeta,
    index_table: &str,
    batch: &[usize],
) -> Result<QueryOutcome> {
    let (algorithm, k) = (isl_algorithm_name(spec.n()), meta.k);
    if k == 0 {
        return Ok(QueryOutcome::new(
            algorithm,
            Vec::new(),
            rj_store::metrics::MetricsSnapshot::default(),
        )
        .with_extra("tuples_consumed", 0.0)
        .with_extra("batches", 0.0));
    }
    let meter = QueryMeter::start(cluster.metrics());

    // The batched round-robin descent lives in [`IslCursor`]; this
    // function is that cursor drained in one call, which is what makes
    // every pause/resume schedule result- and metric-equivalent to the
    // one-shot run *by construction*. The cursor opens one scanner per
    // column family on demand; the store batches RPCs at the configured
    // row-cache size (§4.2.3).
    let descend = vec![SideAccess::Descend; spec.n()];
    let mut cursor = IslCursor::open_on(cluster, spec, meta, index_table, batch, &descend)?;
    cursor.pump(k, &StopPolicy::never())?;
    let state = cursor.hrjn();
    Ok(
        QueryOutcome::new(algorithm, state.current_results(), meter.finish())
            .with_extra("tuples_consumed", state.tuples_consumed() as f64)
            .with_extra("batches", cursor.batches() as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RankJoinError;
    use crate::testsupport::running_example_cluster;
    use crate::{isl, oracle};
    use rj_mapreduce::MapReduceEngine;

    fn build_index(c: &rj_store::cluster::Cluster, q: &RankJoinQuery) -> &'static str {
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, q, "isl_idx").unwrap();
        "isl_idx"
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let idx = build_index(&c, &q);
        let got = run(&c, &q, idx, IslConfig::uniform(2)).unwrap();
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
    }

    #[test]
    fn matches_oracle_for_all_k_and_batches() {
        let (c, q) = running_example_cluster();
        let idx = build_index(&c, &q);
        for k in [1, 2, 3, 7, 40] {
            for batch in [1, 3, 16] {
                let qk = q.with_k(k);
                let got = run(&c, &qk, idx, IslConfig::uniform(batch)).unwrap();
                assert_eq!(
                    got.results,
                    oracle::topk(&c, &qk).unwrap(),
                    "k={k} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn early_termination_reads_less_than_everything() {
        let (c, q) = running_example_cluster();
        let idx = build_index(&c, &q);
        let got = run(&c, &q.with_k(1), idx, IslConfig::uniform(1)).unwrap();
        // 22 tuples exist; top-1 must terminate well before consuming all.
        let consumed = got.extra("tuples_consumed").unwrap();
        assert!(consumed < 15.0, "consumed {consumed}");
    }

    #[test]
    fn larger_batches_fewer_rpcs_more_reads() {
        let (c, q) = running_example_cluster();
        let idx = build_index(&c, &q);
        let small = run(&c, &q, idx, IslConfig::uniform(1)).unwrap();
        let large = run(&c, &q, idx, IslConfig::uniform(50)).unwrap();
        assert!(large.metrics.rpc_calls < small.metrics.rpc_calls);
        assert!(large.metrics.kv_reads >= small.metrics.kv_reads);
        assert_eq!(small.results, large.results);
    }

    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        assert!(matches!(
            run(&c, &q, "absent", IslConfig::default()).unwrap_err(),
            RankJoinError::MissingIndex(_)
        ));
    }
}
