//! DRJN query processing: histogram-driven bound estimation plus
//! map-job tuple pulls through server-side filters (paper §2/§7.1).
//!
//! The driver is an owned *round machine* ([`DrjnRun`]): each
//! [`DrjnRun::advance_round`] call performs one full estimate → pull →
//! join → re-check round, and the machine's position (seen tuples, the
//! running top-k, matrix rows, pulled depth) lives in a plain-data
//! [`DrjnCore`]. The one-shot entry points drain the machine;
//! [`DrjnCursor`] pumps the same machine on demand and yields certified
//! results from the materialized joins between rounds.
//!
//! Every pulled tuple is held once, in its side's seen store
//! ([`SeenSide`]); the running top-k is the shared id buffer ([`TopIds`])
//! over the two stores' tuple ids, and a [`JoinTuple`] is built only for a
//! result leaving the run.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper};
use rj_mapreduce::MapReduceEngine;
use rj_sketch::histogram::ScoreHistogram;
use rj_store::cell::{Cell, Mutation};
use rj_store::cluster::Cluster;
use rj_store::filter::ScoreInRange;
use rj_store::metrics::{MetricsSnapshot, QueryMeter};
use rj_store::scan::Scan;

use crate::cancel::StopPolicy;
use crate::codec;
use crate::cursor::{
    policy_stop, snap_add, CursorBatch, CursorMeta, CursorState, RankedCursor, StateInner,
};
use crate::error::{RankJoinError, Result};
use crate::hrjn::SeenSide;
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopIds};
use crate::score::ScoreFn;
use crate::spare::Spares;
use crate::stats::QueryOutcome;

use super::index::bucket_row_key;
use super::DrjnConfig;

/// Maps one side's base rows to temp-table tuples; the side is read
/// through the shared query.
struct PullMapper {
    query: Arc<RankJoinQuery>,
    side: usize,
}

impl Mapper for PullMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let (Some(row), Ok(side)) = (input.row(), self.query.try_side(self.side)) else {
            return;
        };
        let Ok((join_value, score)) = side.extract_checked(row) else {
            return;
        };
        // Temp-table row: key = join value ‖ base key (unique), one cell
        // carrying the tuple.
        let key = rj_store::keys::composite(&[join_value, &row.key]);
        out.put(
            key,
            Mutation::put(
                &side.label,
                &row.key,
                codec::encode_value_score(join_value, score),
            ),
        );
    }
}

/// Pulls tuples of side `s` of `query` with scores in `[lo, hi)` into
/// `tmp_table` via a map-only job with a server-side score filter.
fn pull_band(
    engine: &MapReduceEngine,
    query: &Arc<RankJoinQuery>,
    s: usize,
    lo: f64,
    hi: f64,
    tmp_table: &str,
) -> Result<()> {
    let side = query.try_side(s)?;
    let spec = JobSpec::new(
        &format!("drjn-pull-{}", side.label),
        JobInput::Tables(vec![TableInput::projected(
            &side.table,
            &[&side.join_col.0, &side.score_col.0],
        )]),
        0,
    )
    .put_table(tmp_table)
    .scan_filter(Arc::new(ScoreInRange {
        family: side.score_col.0.clone(),
        qualifier: side.score_col.1.clone(),
        min: lo,
        max: hi,
    }));
    engine.run(
        &spec,
        &|| {
            Box::new(PullMapper {
                query: query.clone(),
                side: s,
            })
        },
        None,
        None,
    )?;
    Ok(())
}

/// Decodes one pulled temp-table cell of side `s`, records its tuple as
/// seen, and offers its joins with the other side's seen tuples to the
/// top-k as id pairs (matches come only from the other side, so recording
/// the tuple first changes nothing but gives it its id). A cell that does
/// not decode is an error: skipping it would drop every result its tuple
/// joins into, silently.
fn join_pulled_cell(
    seen: &mut [SeenSide; 2],
    results: &mut TopIds,
    score_fn: ScoreFn,
    s: usize,
    cell: &Cell,
) -> Result<()> {
    let (join, score) = codec::decode_one_value_score(&cell.value)?;
    let id = seen[s].insert([join], &cell.qualifier, score);
    let seen = &*seen;
    for other in seen[1 - s].matches(0, join) {
        let ids = if s == 0 { [id, other] } else { [other, id] };
        let score = score_fn.combine(seen[0].tuple(ids[0]).1, seen[1].tuple(ids[1]).1);
        results.offer(score, &ids, |side, id| seen[side].tuple(id).0);
    }
    Ok(())
}

/// Tuple `id` of `side`: base key, join value, score.
fn tuple(seen: &[SeenSide; 2], side: usize, id: u32) -> (&[u8], &[u8], f64) {
    let (key, score) = seen[side].tuple(id);
    (key, seen[side].join_value(id, 0), score)
}

/// Process-wide sequence for temp-table names: concurrent DRJN queries on
/// one shared cluster must not collide on their pull-phase scratch tables.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The full position of a DRJN execution between rounds — plain owned
/// data, detachable into a [`crate::cursor::CursorState`] and resumable
/// on any cluster handle over the same data.
#[derive(Clone)]
pub(crate) struct DrjnCore {
    /// Cursor bookkeeping (target k, emitted count, cumulative charge) —
    /// the run's `k` lives here, not in the query.
    pub(crate) meta: CursorMeta,
    /// The executor's query, shared.
    query: Arc<RankJoinQuery>,
    /// The matrices' table name, the table's own handle.
    index_table: Arc<str>,
    config: DrjnConfig,
    /// Seen tuples per side, keyed by join value (flat columnar store).
    seen: [SeenSide; 2],
    /// The running top-k: a seen-tuple id per side.
    results: TopIds,
    /// Per-side fetched matrix rows (bucket → per-partition counts).
    rows: [Vec<Vec<u64>>; 2],
    cum_estimate: f64,
    /// Score depth already pulled, per side (exclusive lower bound of the
    /// next band's upper edge).
    pulled_to: [f64; 2],
    rounds: u64,
    pull_jobs: u64,
    /// Matrix rows fetched (same depth both sides).
    depth: u32,
    done: bool,
}

impl DrjnCore {
    /// Monotone progress measure: tuples pulled into the seen store.
    pub(crate) fn consumed_depth(&self) -> u64 {
        self.seen.iter().map(SeenSide::len).sum::<usize>() as u64
    }

    /// The buffered results of ranks `ranks`, built.
    fn results(&self, ranks: std::ops::Range<usize>) -> Vec<JoinTuple> {
        let seen = &self.seen;
        self.results
            .binary_results(ranks, |side, id| tuple(seen, side, id))
    }
}

impl Drop for DrjnCore {
    /// Gives the seen sides and the top-k back to the run's spares.
    fn drop(&mut self) {
        let spares = &self.meta.spares;
        for seen in &mut self.seen {
            spares.give_side(std::mem::take(seen));
        }
        spares.give_top(std::mem::replace(&mut self.results, TopIds::new(0, 0)));
    }
}

/// An owned, stepping DRJN execution over `cluster` (see the module
/// docs). The MapReduce engine for pull jobs is rebuilt from the cluster
/// handle, so a resumed machine bills its pulls to the resuming handle's
/// ledger.
pub(crate) struct DrjnRun {
    cluster: Cluster,
    pub(crate) core: DrjnCore,
}

impl DrjnRun {
    /// A machine for the top `meta.k` of `query` (whose own `k` is not
    /// read), its buffers taken from and given back to `meta.spares`.
    pub(crate) fn new(
        cluster: &Cluster,
        query: &Arc<RankJoinQuery>,
        meta: CursorMeta,
        index_table: &str,
        config: &DrjnConfig,
    ) -> Result<Self> {
        let index_table = cluster
            .table(index_table)
            .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?
            .name_handle();
        Ok(DrjnRun {
            cluster: cluster.clone(),
            core: DrjnCore {
                seen: [meta.spares.side(1), meta.spares.side(1)],
                results: meta.spares.top(meta.k, 2),
                meta,
                query: query.clone(),
                index_table,
                config: *config,
                rows: [Vec::new(), Vec::new()],
                cum_estimate: 0.0,
                pulled_to: [f64::INFINITY, f64::INFINITY],
                rounds: 0,
                pull_jobs: 0,
                depth: 0,
                done: false,
            },
        })
    }

    /// Reattaches a detached machine to `cluster`.
    pub(crate) fn resume(cluster: &Cluster, core: DrjnCore) -> Self {
        DrjnRun {
            cluster: cluster.clone(),
            core,
        }
    }

    /// The score bound of the last completed round: everything above it
    /// (on both sides) has been pulled and joined.
    fn pulled_bound(&self) -> f64 {
        if self.core.depth == 0 {
            1.0
        } else {
            ScoreHistogram::new(self.core.config.num_buckets).lower_bound(self.core.depth - 1)
        }
    }

    /// Upper bound on the score of any join result not yet materialized:
    /// a missing pair has one side below the pulled bound, the other at
    /// most the domain max (1.0). Non-increasing across rounds.
    fn threat_bound(&self) -> f64 {
        let bound = self.pulled_bound();
        self.core
            .query
            .score_fn
            .combine(bound, 1.0)
            .max(self.core.query.score_fn.combine(1.0, bound))
    }

    /// One estimate → pull → join → re-check round (the loop body of the
    /// old run-to-completion driver, verbatim). Returns `false` once the
    /// k-th real result provably beats anything still unpulled (or the
    /// histogram is exhausted).
    pub(crate) fn advance_round(&mut self) -> Result<bool> {
        if self.core.done {
            return Ok(false);
        }
        let engine = MapReduceEngine::new(self.cluster.clone());
        let client = self.cluster.client();
        let hist = ScoreHistogram::new(self.core.config.num_buckets);
        let query = self.core.query.clone();
        let config = self.core.config;

        self.core.rounds += 1;
        // (i) fetch matrix rows until the cumulative estimate reaches k or
        // the histogram is exhausted.
        while self.core.cum_estimate < self.core.meta.k as f64
            && self.core.depth < config.num_buckets
        {
            for (s, label) in [&query.left.label, &query.right.label].iter().enumerate() {
                let row = client.get_with_families(
                    &self.core.index_table,
                    &bucket_row_key(self.core.depth),
                    Some(std::slice::from_ref(*label)),
                )?;
                let counts: Vec<u64> = match row {
                    Some(r) => {
                        let mut v = vec![0u64; config.num_partitions as usize];
                        for cell in r.family_cells(label) {
                            if let (Some(p), Ok(c)) = (
                                rj_store::keys::decode_u32(&cell.qualifier),
                                cell.value.as_ref().try_into().map(u64::from_be_bytes),
                            ) {
                                if (p as usize) < v.len() {
                                    v[p as usize] = c;
                                }
                            }
                        }
                        v
                    }
                    None => vec![0u64; config.num_partitions as usize],
                };
                self.core.rows[s].push(counts);
            }
            // (ii) join the new depth's rows against everything fetched:
            // new pairs are (d, j) for j ≤ d and (i, d) for i < d.
            let d = self.core.depth as usize;
            let dot = |a: &[u64], b: &[u64]| -> f64 {
                a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
            };
            for j in 0..=d {
                self.core.cum_estimate += dot(&self.core.rows[0][d], &self.core.rows[1][j]);
            }
            for i in 0..d {
                self.core.cum_estimate += dot(&self.core.rows[0][i], &self.core.rows[1][d]);
            }
            self.core.depth += 1;
        }

        // (iii) pull all tuples above the lower boundary of the last
        // fetched bucket and join.
        let bound = if self.core.depth == 0 {
            1.0
        } else {
            hist.lower_bound(self.core.depth - 1)
        };
        let tmp = format!(
            "drjn_tmp_{}",
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let tmp_table = self.cluster.create_table(
            &tmp,
            &[query.left.label.as_str(), query.right.label.as_str()],
        )?;
        // The temp table's region layout decides how many RPCs the
        // coordinator's scan below takes, so it must depend on the pulled
        // content alone for DRJN's RPC counts (and simulated time) to be
        // deterministic. MR tasks write concurrently, so an auto-split
        // would land at a write-order-dependent median: no mid-load
        // splits, and the rebalance below shards instead.
        tmp_table.set_split_threshold(usize::MAX);
        for s in 0..2 {
            if bound < self.core.pulled_to[s] {
                pull_band(&engine, &query, s, bound, self.core.pulled_to[s], &tmp)?;
                self.core.pulled_to[s] = bound;
                self.core.pull_jobs += 1;
            }
        }
        // The temp table's key domain (join value ‖ base key) is unknown
        // before the pull, so it is re-sharded afterwards, into a layout
        // that depends only on the pulled content.
        tmp_table.rebalance(self.cluster.num_nodes() * 2);
        // Coordinator fetches the temp table and joins.
        let pulled_rows = client
            .scan(&tmp, Scan::new().caching(1000))?
            .collect_rows()?;
        for row in pulled_rows {
            for (s, label) in [&query.left.label, &query.right.label].iter().enumerate() {
                for cell in row.family_cells(label) {
                    let core = &mut self.core;
                    join_pulled_cell(&mut core.seen, &mut core.results, query.score_fn, s, cell)?;
                }
            }
        }
        self.cluster.drop_table(&tmp)?;

        // (iv) terminate when the k-th real result beats anything still
        // unpulled: a missing pair has one side below `bound`, the other
        // at most the domain max (1.0).
        let unpulled_max = query
            .score_fn
            .combine(bound, 1.0)
            .max(query.score_fn.combine(1.0, bound));
        let done_by_score = self
            .core
            .results
            .kth_score()
            .is_some_and(|kth| kth >= unpulled_max);
        let exhausted = self.core.depth >= config.num_buckets && bound <= 0.0;
        if done_by_score || exhausted {
            self.core.done = true;
            return Ok(false);
        }
        // Not enough: deepen the estimate and loop.
        self.core.cum_estimate = 0.0; // force at least one more histogram row
        if self.core.depth >= config.num_buckets && bound <= 0.0 {
            self.core.done = true;
            return Ok(false);
        }
        Ok(true)
    }

    fn finish(self, meter: QueryMeter) -> Result<QueryOutcome> {
        let consumed = self.core.consumed_depth();
        let results = self.core.results(0..self.core.results.len());
        Ok(QueryOutcome::new("DRJN", results, meter.finish())
            .with_extra("rounds", self.core.rounds as f64)
            .with_extra("histogram_depth", self.core.depth as f64)
            .with_extra("pull_jobs", self.core.pull_jobs as f64)
            .with_extra("tuples_pulled", consumed as f64))
    }
}

/// DRJN as a [`RankedCursor`]: pumps the round machine and yields, from
/// the tuples each round materialized out of its temp table, the prefix
/// strictly above the unpulled-score bound — which is non-increasing
/// across rounds, so emitted results are final.
pub(crate) struct DrjnCursor {
    run: DrjnRun,
}

impl DrjnCursor {
    /// Opens a cursor for the top `meta.k` of `query` over previously
    /// built DRJN matrices, its buffers taken from and given back to
    /// `meta.spares`.
    pub(crate) fn open(
        cluster: &Cluster,
        query: &Arc<RankJoinQuery>,
        meta: CursorMeta,
        index_table: &str,
        config: &DrjnConfig,
    ) -> Result<Self> {
        let run = DrjnRun::new(cluster, query, meta, index_table, config)?;
        Ok(DrjnCursor { run })
    }

    /// Reattaches a detached state to `cluster`.
    pub(crate) fn resume(cluster: &Cluster, core: DrjnCore) -> Self {
        DrjnCursor {
            run: DrjnRun::resume(cluster, core),
        }
    }

    fn drained(&self) -> bool {
        self.run.core.meta.k == 0 || self.run.core.done
    }

    /// Results certain to be final (strictly above the unpulled bound;
    /// everything once the machine terminates).
    fn certified(&self) -> usize {
        if self.drained() {
            return self.run.core.results.len();
        }
        self.run.core.results.count_above(self.run.threat_bound())
    }
}

impl RankedCursor for DrjnCursor {
    fn next_batch(&mut self, n: usize, policy: &StopPolicy) -> Result<CursorBatch> {
        let meta_k = self.run.core.meta.k;
        let want = self.run.core.meta.emitted.saturating_add(n).min(meta_k);
        let ledger = self.run.cluster.metrics();
        let before = ledger.snapshot();
        let mut stopped = None;
        while !self.drained() && self.certified() < want {
            let more = self.run.advance_round()?;
            if !more {
                break;
            }
            let sim_so_far = self.run.core.meta.charged.sim_seconds
                + ledger.snapshot().delta_since(&before).sim_seconds;
            if let Some(reason) = policy_stop(policy, self.run.core.rounds, sim_so_far) {
                stopped = Some(reason);
                break;
            }
        }
        let delta = ledger.snapshot().delta_since(&before);
        self.run.core.meta.charged = snap_add(self.run.core.meta.charged, delta);
        let emit_to = self.certified().min(want).max(self.run.core.meta.emitted);
        let results = self.run.core.results(self.run.core.meta.emitted..emit_to);
        self.run.core.meta.emitted = emit_to;
        Ok(CursorBatch {
            results,
            done: self.is_done(),
            stopped,
            metrics: delta,
        })
    }

    fn pause(self: Box<Self>) -> CursorState {
        CursorState {
            inner: StateInner::Drjn(Box::new(self.run.core)),
        }
    }

    fn emitted(&self) -> usize {
        self.run.core.meta.emitted
    }

    fn consumed_depth(&self) -> u64 {
        self.run.core.consumed_depth()
    }

    fn charged(&self) -> MetricsSnapshot {
        self.run.core.meta.charged
    }

    /// Done once every result of the one-shot run is out: all `k` of
    /// them (each certified final), or everything a finished machine
    /// found.
    fn is_done(&self) -> bool {
        let meta = &self.run.core.meta;
        meta.emitted == meta.k || (self.drained() && meta.emitted == self.run.core.results.len())
    }

    fn algorithm(&self) -> &'static str {
        "DRJN"
    }
}

/// Executes the DRJN rank join over previously built matrices at the
/// query's own `k`. This direct entry point shares its query for the one
/// call and recycles no buffer; an executor shares one query across every
/// run and recycles its runs' buffers.
pub fn run(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    index_table: &str,
    config: &DrjnConfig,
) -> Result<QueryOutcome> {
    let shared = Arc::new(query.clone());
    let meta = CursorMeta::new(query.k, None, Spares::default());
    run_shared(engine, &shared, meta, index_table, config)
}

/// [`run`] for the top `meta.k` of a shared query, whose own `k` is not
/// read, its buffers taken from and given back to `meta.spares` — the
/// executor's entry point.
pub(crate) fn run_shared(
    engine: &MapReduceEngine,
    query: &Arc<RankJoinQuery>,
    meta: CursorMeta,
    index_table: &str,
    config: &DrjnConfig,
) -> Result<QueryOutcome> {
    if meta.k == 0 {
        return Ok(QueryOutcome::new(
            "DRJN",
            Vec::new(),
            rj_store::metrics::MetricsSnapshot::default(),
        ));
    }
    let cluster = engine.cluster();
    cluster
        .table(index_table)
        .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?;
    let meter = QueryMeter::start(cluster.metrics());
    let mut run = DrjnRun::new(cluster, query, meta, index_table, config)?;
    while run.advance_round()? {}
    run.finish(meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drjn;
    use crate::oracle;
    use crate::testsupport::running_example_cluster;

    fn build(c: &rj_store::cluster::Cluster, q: &RankJoinQuery, config: &DrjnConfig) {
        let engine = MapReduceEngine::new(c.clone());
        drjn::build_pair(&engine, q, "drjn_idx", config).unwrap();
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let config = DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        };
        build(&c, &q, &config);
        let engine = MapReduceEngine::new(c.clone());
        let got = run(&engine, &q, "drjn_idx", &config).unwrap();
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
    }

    #[test]
    fn matches_oracle_for_all_k() {
        let (c, q) = running_example_cluster();
        let config = DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        };
        build(&c, &q, &config);
        let engine = MapReduceEngine::new(c.clone());
        for k in [1, 2, 5, 11, 38, 60] {
            let qk = q.with_k(k);
            let got = run(&engine, &qk, "drjn_idx", &config).unwrap();
            assert_eq!(got.results, oracle::topk(&c, &qk).unwrap(), "k={k}");
        }
    }

    #[test]
    fn pull_jobs_scan_everything() {
        // The DRJN signature: map pulls bill every base KV read even
        // though few tuples ship.
        let (c, q) = running_example_cluster();
        let config = DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        };
        build(&c, &q, &config);
        let engine = MapReduceEngine::new(c.clone());
        let got = run(&engine, &q, "drjn_idx", &config).unwrap();
        assert!(got.extra("pull_jobs").unwrap() >= 2.0);
        // Each pull job scans both relations' projected columns fully.
        assert!(
            got.metrics.kv_reads > 40,
            "kv_reads = {}",
            got.metrics.kv_reads
        );
    }

    /// The temp table lives only inside a round, so the decode-and-join
    /// of one pulled cell is tested on its own: a value that does not
    /// decode is the typed error (it used to be skipped, dropping every
    /// result its tuple joins into), and a good one joins and is seen.
    #[test]
    fn an_undecodable_pulled_cell_is_an_error_not_a_skipped_tuple() {
        let cell = |key: &[u8], value: Vec<u8>| Cell {
            family: "R1".into(),
            qualifier: key.to_vec().into(),
            timestamp: 1,
            value: value.into(),
        };
        let mut seen = [SeenSide::new(1), SeenSide::new(1)];
        let mut results = TopIds::new(3, 2);
        let mut pull =
            |s, cell: &Cell| join_pulled_cell(&mut seen, &mut results, ScoreFn::Sum, s, cell);
        pull(0, &cell(b"l1", codec::encode_value_score(b"j", 0.5))).unwrap();
        assert!(matches!(
            pull(1, &cell(b"r0", b"garbage".to_vec())),
            Err(RankJoinError::Codec(_))
        ));
        pull(1, &cell(b"r1", codec::encode_value_score(b"j", 0.25))).unwrap();
        assert_eq!(seen[0].len() + seen[1].len(), 2, "the bad cell is not seen");
        let joined = results.binary_results(0..results.len(), |side, id| tuple(&seen, side, id));
        assert_eq!(joined.len(), 1);
        assert_eq!(
            (&joined[0].left_key[..], &joined[0].right_key[..]),
            (&b"l1"[..], &b"r1"[..])
        );
        assert_eq!(
            (&joined[0].join_value[..], joined[0].score),
            (&b"j"[..], 0.75)
        );
    }

    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c);
        assert!(matches!(
            run(&engine, &q, "absent", &DrjnConfig::default()).unwrap_err(),
            RankJoinError::MissingIndex(_)
        ));
    }
}
