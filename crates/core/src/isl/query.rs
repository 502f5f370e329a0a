//! ISL query processing (paper Algorithm 4).
//!
//! The coordinator alternates batched scans over the two score lists,
//! maintaining per-side hash tables on the join value for fast joins
//! against newly fetched tuples, and terminating by the HRJN threshold
//! test after every tuple.

use rj_store::keys;
use rj_store::metrics::QueryMeter;
use rj_store::parallel::{run_lanes, ExecutionMode, LaneTask, ParallelScanner};
use rj_store::scan::Scan;

use crate::cursor::{push_index_cell, BatchStep, IslCursor};
use crate::error::{RankJoinError, Result};
use crate::hrjn::{HrjnState, Side};
use crate::query::RankJoinQuery;
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
}

/// Executes the ISL rank join over a previously built index table
/// (serial execution; see [`run_with_mode`]).
pub fn run(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
) -> Result<QueryOutcome> {
    run_with_mode(cluster, query, index_table, config, ExecutionMode::Serial)
}

/// Executes the ISL rank join under an explicit [`ExecutionMode`].
///
/// Two read paths fan out in parallel mode, both read-for-read identical
/// to serial execution:
///
/// * the *warm-up round* — the first scan RPC of each score list — runs
///   concurrently. HRJN can never terminate before both sides have
///   produced tuples, so both first batches are fetched unconditionally
///   either way; only the modelled wall-clock differs (max instead of
///   sum, the paper's §5 parallel-round accounting). All later batches
///   depend on the threshold test over earlier tuples and stay
///   demand-driven — the inherent sequentiality of batched HRJN.
/// * *full ranked enumeration* (`k` at least the largest possible join
///   cardinality, e.g. `usize::MAX / 2`): the HRJN termination test can
///   provably never fire before both lists are exhausted, so every batch
///   of both scans is unconditional and the whole read fans out across
///   regions via [`ParallelScanner`] — the any-k serving workload of the
///   ranked-enumeration literature.
pub fn run_with_mode(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
    mode: ExecutionMode,
) -> Result<QueryOutcome> {
    match run_observed(cluster, query, index_table, config, mode, &mut |_, _| {
        BatchVerdict::Continue
    })? {
        IslRun::Complete(outcome) => Ok(outcome),
        IslRun::Aborted(_) => unreachable!("a Continue-only observer never aborts"),
    }
}

/// Verdict an ISL batch observer returns after each completed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchVerdict {
    /// Keep descending the score lists.
    Continue,
    /// Stop fetching and hand the partial HRJN state back — the
    /// mid-query abort of the adaptive driver ([`crate::adaptive`]).
    Abort,
}

/// The two ways an observed ISL execution can end.
pub(crate) enum IslRun {
    /// Ran to HRJN termination (or input exhaustion) — the normal
    /// [`run_with_mode`] outcome.
    Complete(QueryOutcome),
    /// The observer aborted after a batch; the partial state carries
    /// everything a switch needs. Boxed: the flat seen-tuple arenas make
    /// `IslPartial` much larger than the `Complete` variant.
    Aborted(Box<IslPartial>),
}

/// Partial state of an aborted ISL execution: the HRJN threshold state
/// (consumed tuples, buffered genuine results, per-side score bounds),
/// how many batches ran, and the metric delta the aborted prefix already
/// charged (the *wasted reads* an adaptive switch must account honestly).
pub(crate) struct IslPartial {
    /// The part-way HRJN state (see the threshold-state handoff API on
    /// [`HrjnState`]).
    pub state: HrjnState,
    /// Batches fetched before the abort.
    pub batches: u64,
    /// Metrics the aborted prefix charged to the cluster ledger.
    pub metrics: rj_store::metrics::MetricsSnapshot,
}

/// [`run_with_mode`] with a per-batch observation hook: after every
/// completed batch (while HRJN is neither done nor exhausted) the
/// observer sees the current [`HrjnState`] and the batch count, and can
/// abort the descent. Observation is pure bookkeeping over tuples already
/// fetched — a `Continue`-only observer makes this byte- and
/// metric-identical to [`run_with_mode`].
///
/// The parallel *full-enumeration* fast path is never observed: every
/// read there is provably unconditional, so no mid-query information
/// could change the plan's remaining cost.
pub(crate) fn run_observed(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
    mode: ExecutionMode,
    observe: &mut dyn FnMut(&HrjnState, u64) -> BatchVerdict,
) -> Result<IslRun> {
    if query.k == 0 {
        return Ok(IslRun::Complete(QueryOutcome::new(
            "ISL",
            Vec::new(),
            rj_store::metrics::MetricsSnapshot::default(),
        )));
    }
    let index = cluster
        .table(index_table)
        .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?;
    let meter = QueryMeter::start(cluster.metrics());

    // The batched alternating descent lives in [`IslCursor`]; this
    // function is that cursor drained in one call, which is what makes
    // every pause/resume schedule result- and metric-equivalent to the
    // one-shot run *by construction*. The cursor opens one scanner per
    // column family on demand; the store batches RPCs at the configured
    // row-cache size (§4.2.3).
    let mut cursor = IslCursor::open(cluster, query, index_table, config, None)?;
    if mode.is_parallel() {
        let left_spec = Scan::new()
            .families(&[query.left.label.as_str()])
            .caching(config.batch_left);
        let right_spec = Scan::new()
            .families(&[query.right.label.as_str()])
            .caching(config.batch_right);
        let lane = index.serving_node(&[]);
        let mut states = run_lanes(
            cluster,
            mode.workers(),
            [left_spec, right_spec]
                .into_iter()
                .map(|spec| {
                    LaneTask::new(lane, move |worker: &rj_store::client::Client| {
                        let mut scan = worker.scan(index_table, spec)?;
                        scan.prefetch();
                        Ok(scan.into_state())
                    })
                })
                .collect(),
        )?;
        let (Some(right_state), Some(left_state)) = (states.pop(), states.pop()) else {
            return Err(RankJoinError::Internal(
                "warm-up produced fewer than two lanes",
            ));
        };
        // Full-enumeration fast path: with k >= (live KVs)^2 >= |L| * |R|
        // and both sides known non-empty, the HRJN termination test can
        // never fire before both lists exhaust, so serial execution reads
        // both lists completely — the remainder can fan out across
        // regions and read exactly the same. (With an empty side, serial
        // stops after the other side's first demand, which the warm-up
        // has already performed — the shared loop below handles it.)
        let kvs = index.kv_count();
        if query.k as u64 >= kvs.saturating_mul(kvs)
            && left_state.has_buffered_rows()
            && right_state.has_buffered_rows()
        {
            return run_enumeration_parallel(
                cluster,
                query,
                index_table,
                config,
                mode,
                meter,
                [left_state, right_state],
            )
            .map(IslRun::Complete);
        }
        cursor = cursor.with_warm_scans([left_state, right_state]);
    }

    loop {
        match cursor.advance_one_batch()? {
            BatchStep::Drained => break,
            BatchStep::Completed => {
                if cursor.both_exhausted() {
                    continue;
                }
                // Observation point: one batch is fully paid for and HRJN
                // has not terminated. The observer sees only
                // already-fetched state, so a Continue verdict leaves
                // execution untouched.
                if observe(cursor.hrjn(), cursor.batches()) == BatchVerdict::Abort {
                    let batches = cursor.batches();
                    return Ok(IslRun::Aborted(Box::new(IslPartial {
                        state: cursor.into_hrjn(),
                        batches,
                        metrics: meter.finish(),
                    })));
                }
            }
        }
    }

    let batches = cursor.batches();
    let state = cursor.into_hrjn();
    let consumed = state.tuples_consumed();
    let results = state.into_results();
    Ok(IslRun::Complete(
        QueryOutcome::new("ISL", results, meter.finish())
            .with_extra("tuples_consumed", consumed as f64)
            .with_extra("batches", batches as f64),
    ))
}

/// Full-enumeration read path: both score lists are consumed completely
/// (the caller has proven termination cannot fire first), so the
/// remainder of each side's scan — everything past the warm-up round's
/// buffered rows — fans out across the index table's regions. Rows arrive
/// in the same per-side score-descending order as serial batched scans,
/// and HRJN over the complete inputs is interleaving-independent, so
/// results are identical.
fn run_enumeration_parallel(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
    mode: ExecutionMode,
    meter: QueryMeter,
    states: [rj_store::client::ScannerState; 2],
) -> Result<QueryOutcome> {
    let scanner = ParallelScanner::new(cluster, mode);
    let mut state = HrjnState::new(query.k, query.score_fn);
    let mut batches = 0u64;
    for ((side, family, batch_size), mut scan_state) in [
        (Side::Left, query.left.label.as_str(), config.batch_left),
        (Side::Right, query.right.label.as_str(), config.batch_right),
    ]
    .into_iter()
    .zip(states)
    {
        let mut rows = scan_state.take_buffered_rows();
        if let Some(resume) = scan_state.resume_key() {
            rows.extend(
                scanner.scan_collect(
                    index_table,
                    &Scan::new()
                        .families(&[family])
                        .caching(batch_size)
                        .start(resume.to_vec()),
                )?,
            );
        }
        // Informational only: the per-side turn count a serial driver
        // would need for this many rows. The serial path's demand-driven
        // count can differ by its exhaustion-discovery demands; the
        // equivalence contract covers results and counted metrics, not
        // extras.
        batches += rows.len().div_ceil(batch_size.max(1)) as u64;
        for row in rows {
            let Some(score) = keys::decode_score_desc(&row.key) else {
                continue;
            };
            for cell in row.family_cells(family) {
                push_index_cell(&mut state, side, cell, score);
            }
        }
        state.exhaust(side);
    }
    let consumed = state.tuples_consumed();
    let results = state.into_results();
    Ok(QueryOutcome::new("ISL", results, meter.finish())
        .with_extra("tuples_consumed", consumed as f64)
        .with_extra("batches", batches as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
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
