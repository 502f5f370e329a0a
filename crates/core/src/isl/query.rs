//! ISL query processing (paper Algorithm 4).
//!
//! The coordinator takes batched scans over the sides' score lists in
//! turn, maintaining per-side hash tables on the join values for fast
//! joins against newly fetched tuples, and terminating by the HRJN
//! threshold test after every tuple. The loop itself lives in
//! [`IslCursor`]; the one-shot drivers here drain it in one call.

use std::sync::Arc;

use rj_store::metrics::QueryMeter;
use rj_store::parallel::{run_lanes, ExecutionMode, LaneTask, ParallelScanner};
use rj_store::row::RowResult;
use rj_store::scan::Scan;

use crate::cancel::StopPolicy;
use crate::cursor::{ingest_side, isl_algorithm_name, BatchObserver, IslCursor, SideAccess};
use crate::error::{RankJoinError, Result};
use crate::hrjn::HrjnState;
use crate::query::{JoinSpec, RankJoinQuery};
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

/// Executes the ISL rank join under an explicit [`ExecutionMode`] — the
/// two-side instance of the spec-driven descent (the query's
/// [`RankJoinQuery::to_spec`], both sides descended) at the query's own
/// `k`. This direct entry point builds that spec for its one call; an
/// executor builds its spec once and runs every `k` against it.
///
/// Two read paths fan out in parallel mode, both read-for-read identical
/// to serial execution:
///
/// * the *warm-up round* — the first scan RPC of each score list — runs
///   concurrently. HRJN can never terminate before every side has
///   produced tuples, so all first batches are fetched unconditionally
///   either way; only the modelled wall-clock differs (max instead of
///   sum, the paper's §5 parallel-round accounting). All later batches
///   depend on the threshold test over earlier tuples and stay
///   demand-driven — the inherent sequentiality of batched HRJN.
/// * *full ranked enumeration* (`k` at least the largest possible join
///   cardinality, e.g. `usize::MAX / 2`): the HRJN termination test can
///   provably never fire before every list is exhausted, so every batch
///   of every scan is unconditional and the whole read fans out across
///   regions via [`ParallelScanner`] — the any-k serving workload of the
///   ranked-enumeration literature.
pub fn run_with_mode(
    cluster: &rj_store::cluster::Cluster,
    query: &RankJoinQuery,
    index_table: &str,
    config: IslConfig,
    mode: ExecutionMode,
) -> Result<QueryOutcome> {
    let spec = Arc::new(query.to_spec());
    run_observed(
        cluster,
        &spec,
        query.k,
        index_table,
        &config.batches(),
        mode,
        None,
    )
    .map(IslRun::into_outcome)
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

/// How an all-sides-descending one-shot execution ended: the HRJN
/// operator (consumed tuples, buffered genuine results, per-side score
/// bounds — the threshold-state handoff API of [`HrjnState`]), how many
/// batches ran, and the metric delta charged.
pub(crate) struct IslRun {
    /// The operator: terminated or exhausted, unless `aborted`.
    pub state: HrjnState,
    /// Batches fetched.
    pub batches: u64,
    /// Metrics charged to the cluster ledger (for an aborted run, the
    /// *wasted reads* an adaptive switch must account honestly).
    pub metrics: rj_store::metrics::MetricsSnapshot,
    /// The observer aborted the descent after a batch — the mid-query
    /// abort of the adaptive driver ([`crate::adaptive`]).
    pub aborted: bool,
}

impl IslRun {
    /// Closes a completed run into its outcome.
    pub(crate) fn into_outcome(self) -> QueryOutcome {
        let algorithm = isl_algorithm_name(self.state.sides());
        let consumed = self.state.tuples_consumed();
        QueryOutcome::new(algorithm, self.state.into_results(), self.metrics)
            .with_extra("tuples_consumed", consumed as f64)
            .with_extra("batches", self.batches as f64)
    }
}

/// The all-sides-descending one-shot run for the top `k` of a shared
/// spec (whose own `k` is not read), with an optional per-batch
/// observation hook ([`IslCursor::set_observer`]): after every
/// completed batch (while HRJN is neither done nor exhausted) the
/// observer sees the current [`HrjnState`] and the batch count, and can
/// abort the descent. Observation is pure bookkeeping over tuples already
/// fetched — a `Continue`-only observer changes neither a byte nor a
/// metric.
///
/// The parallel *full-enumeration* fast path is never observed: every
/// read there is provably unconditional, so no mid-query information
/// could change the plan's remaining cost.
pub(crate) fn run_observed(
    cluster: &rj_store::cluster::Cluster,
    spec: &Arc<JoinSpec>,
    k: usize,
    index_table: &str,
    batch: &[usize],
    mode: ExecutionMode,
    observer: Option<BatchObserver>,
) -> Result<IslRun> {
    if k == 0 {
        return Ok(IslRun {
            state: HrjnState::new(spec, 0),
            batches: 0,
            metrics: rj_store::metrics::MetricsSnapshot::default(),
            aborted: false,
        });
    }
    let meter = QueryMeter::start(cluster.metrics());

    // The batched round-robin descent lives in [`IslCursor`]; this
    // function is that cursor drained in one call, which is what makes
    // every pause/resume schedule result- and metric-equivalent to the
    // one-shot run *by construction*. The cursor opens one scanner per
    // column family on demand; the store batches RPCs at the configured
    // row-cache size (§4.2.3).
    let descend = vec![SideAccess::Descend; spec.n()];
    let mut cursor = IslCursor::open(cluster, spec, k, index_table, batch, &descend, None)?;
    if mode.is_parallel() {
        let index = cluster.table(index_table)?;
        let lane = index.serving_node(&[]);
        let states = run_lanes(
            cluster,
            mode.workers(),
            spec.sides
                .iter()
                .zip(batch)
                .map(|(side, &batch)| {
                    let scan = Scan::new().families(&[side.label.as_str()]).caching(batch);
                    LaneTask::new(lane, move |worker: &rj_store::client::Client| {
                        let mut scan = worker.scan(index_table, scan)?;
                        scan.prefetch()?;
                        Ok(scan.into_state())
                    })
                })
                .collect(),
        )?;
        if states.len() != spec.n() {
            return Err(RankJoinError::Internal(
                "warm-up produced fewer lanes than sides",
            ));
        }
        // Full-enumeration fast path: with k >= (live KVs)^n >= the join
        // cardinality and every side known non-empty, the HRJN
        // termination test can never fire before every list exhausts, so
        // serial execution reads all lists completely — the remainder can
        // fan out across regions and read exactly the same. (With an
        // empty side, serial stops after the other sides' first demands,
        // which the warm-up has already performed — the shared loop below
        // handles it.)
        let kvs = index.kv_count();
        if k as u64 >= kvs.saturating_pow(spec.n() as u32)
            && states.iter().all(|s| s.has_buffered_rows())
        {
            // The fast path feeds the cursor's fresh operator directly.
            let state = cursor.into_hrjn();
            let (state, batches) =
                run_enumeration_parallel(cluster, spec, index_table, batch, mode, states, state)?;
            return Ok(IslRun {
                state,
                batches,
                metrics: meter.finish(),
                aborted: false,
            });
        }
        cursor.set_warm_scans(states);
    }

    if let Some(observer) = observer {
        cursor.set_observer(observer);
    }
    cursor.pump(k, &StopPolicy::never())?;
    Ok(IslRun {
        batches: cursor.batches(),
        aborted: cursor.observer_aborted(),
        state: cursor.into_hrjn(),
        metrics: meter.finish(),
    })
}

/// Full-enumeration read path: every score list is consumed completely
/// (the caller has proven termination cannot fire first), so the
/// remainder of each side's scan — everything past the warm-up round's
/// buffered rows — fans out across the index table's regions. Rows arrive
/// in the same per-side score-descending order as serial batched scans,
/// and HRJN over the complete inputs is interleaving-independent, so
/// results are identical. Feeds every side into `state` and returns it
/// with the batch count.
fn run_enumeration_parallel(
    cluster: &rj_store::cluster::Cluster,
    spec: &JoinSpec,
    index_table: &str,
    batch: &[usize],
    mode: ExecutionMode,
    states: Vec<rj_store::client::ScannerState>,
    mut state: HrjnState,
) -> Result<(HrjnState, u64)> {
    let scanner = ParallelScanner::new(cluster, mode);
    let mut batches = 0u64;
    for (i, ((side, &batch_size), mut scan_state)) in
        spec.sides.iter().zip(batch).zip(states).enumerate()
    {
        let family = side.label.as_str();
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
        ingest_side(
            &mut state,
            i,
            family,
            rows.iter().map(RowResult::as_row_ref),
        )?;
    }
    Ok((state, batches))
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
