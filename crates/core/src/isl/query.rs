//! ISL query processing (paper Algorithm 4).
//!
//! The coordinator takes batched scans over the sides' score lists in
//! turn, maintaining per-side hash tables on the join values for fast
//! joins against newly fetched tuples, and terminating by the HRJN
//! threshold test after every tuple. The loop itself lives in
//! [`IslCursor`]; the one-shot driver here drains it in one call.

use std::sync::Arc;

use crate::cursor::{CursorMeta, IslCore, SideAccess, StepCursor};
use crate::error::Result;
use crate::query::RankJoinQuery;
use crate::spare::Spares;
use crate::stats::QueryOutcome;

/// ISL tuning knobs, for any arity: side 0 pulls `batch_left` rows per
/// turn, every other side `batch_right`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IslConfig {
    /// Index rows pulled per turn from the left list (`C_A`).
    pub batch_left: usize,
    /// Index rows pulled per turn from the right list (`C_B`), and from
    /// every further side's.
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
    /// Same batch size for every side.
    pub fn uniform(batch: usize) -> Self {
        IslConfig {
            batch_left: batch.max(1),
            batch_right: batch.max(1),
        }
    }

    /// The batch size of side `side`.
    pub(crate) fn batch(&self, side: usize) -> usize {
        if side == 0 {
            self.batch_left
        } else {
            self.batch_right
        }
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
    // The batched round-robin descent lives in [`IslCursor`]; a run is
    // that cursor drained in one call, which is what makes every
    // pause/resume schedule result- and metric-equivalent to the
    // one-shot run *by construction*. The cursor opens one scanner per
    // column family on demand; the store batches RPCs at the configured
    // row-cache size (§4.2.3).
    let spec = Arc::new(query.to_spec());
    let meta = CursorMeta::new(query.k, None, Spares::default());
    let batch = |side| config.batch(side);
    let descend = [SideAccess::Descend; 2];
    let core = IslCore::open(cluster, &spec, meta, index_table, batch, &descend)?;
    StepCursor::new(cluster, core).drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RankJoinError;
    use crate::stats::Extras;
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
