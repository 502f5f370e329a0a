//! DRJN query processing: histogram-driven bound estimation plus
//! map-job tuple pulls through server-side filters (paper §2/§7.1).
//!
//! The driver is an owned *round machine* ([`DrjnCore`]): each step (its
//! `Step::step`) performs one full estimate → pull → join → re-check
//! round, and the machine's position (seen tuples, the running top-k,
//! matrix rows, pulled depth) is plain data. It runs behind the crate's
//! one cursor ([`crate::cursor`]'s `StepCursor`), which pumps the rounds
//! on demand — one round per stop-policy boundary — and yields certified
//! results from the materialized joins between rounds; the one-shot run
//! is that cursor drained in one pull.
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
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::filter::ScoreInRange;
use rj_store::row::{CellRef, RowBatch};
use rj_store::scan::Scan;

use crate::codec;
use crate::cursor::{CursorMeta, StateInner, Step};
use crate::error::{RankJoinError, Result};
use crate::hrjn::SeenSide;
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopIds};
use crate::score::ScoreFn;
use crate::stats::Extras;

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
        let key = rj_store::keys::composite(&[join_value, row.key]);
        out.put(
            key,
            Mutation::put(
                &side.label,
                row.key,
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
    cell: CellRef<'_>,
) -> Result<()> {
    let (join, score) = codec::decode_one_value_score(cell.value)?;
    let id = seen[s].insert([join], cell.qualifier, score);
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

impl DrjnCore {
    /// A machine for the top `meta.k` of `query` (whose own `k` is not
    /// read) over previously built DRJN matrices, its buffers taken from
    /// and given back to `meta.spares`. The MapReduce engine for pull jobs
    /// is rebuilt from the cluster handle each round, so a resumed machine
    /// bills its pulls to the resuming handle's ledger.
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
        Ok(DrjnCore {
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
        })
    }

    /// The score bound of the last completed round: everything above it
    /// (on both sides) has been pulled and joined.
    fn pulled_bound(&self) -> f64 {
        if self.depth == 0 {
            1.0
        } else {
            ScoreHistogram::new(self.config.num_buckets).lower_bound(self.depth - 1)
        }
    }

    /// Upper bound on the score of any join result not yet materialized:
    /// a missing pair has one side below the pulled bound, the other at
    /// most the domain max (1.0). Non-increasing across rounds.
    fn threat_bound(&self) -> f64 {
        let bound = self.pulled_bound();
        self.query
            .score_fn
            .combine(bound, 1.0)
            .max(self.query.score_fn.combine(1.0, bound))
    }
}

/// The rounds behind the one cursor: from the tuples each round
/// materialized out of its temp table, it emits the prefix strictly above
/// the unpulled-score bound — which is non-increasing across rounds, so
/// emitted results are final.
impl Step for DrjnCore {
    /// One estimate → pull → join → re-check round. Returns `false` once
    /// the k-th real result provably beats anything still unpulled (or
    /// the histogram is exhausted).
    fn step(&mut self, cluster: &Cluster) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        let engine = MapReduceEngine::new(cluster.clone());
        let client = cluster.client();
        let query = self.query.clone();
        let config = self.config;

        self.rounds += 1;
        // (i) fetch matrix rows until the cumulative estimate reaches k or
        // the histogram is exhausted.
        let mut batch = RowBatch::new();
        while self.cum_estimate < self.meta.k as f64 && self.depth < config.num_buckets {
            for (s, label) in [&query.left.label, &query.right.label].iter().enumerate() {
                let projection =
                    client.projection(&self.index_table, Some(std::slice::from_ref(*label)))?;
                let row = client.get_into(&mut batch, &projection, &bucket_row_key(self.depth));
                let counts: Vec<u64> = match row {
                    Some(r) => {
                        let mut v = vec![0u64; config.num_partitions as usize];
                        for cell in r.family_cells(label) {
                            if let (Some(p), Ok(c)) = (
                                rj_store::keys::decode_u32(cell.qualifier),
                                cell.value.try_into().map(u64::from_be_bytes),
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
                self.rows[s].push(counts);
            }
            // (ii) join the new depth's rows against everything fetched:
            // new pairs are (d, j) for j ≤ d and (i, d) for i < d.
            let d = self.depth as usize;
            let dot = |a: &[u64], b: &[u64]| -> f64 {
                a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
            };
            for j in 0..=d {
                self.cum_estimate += dot(&self.rows[0][d], &self.rows[1][j]);
            }
            for i in 0..d {
                self.cum_estimate += dot(&self.rows[0][i], &self.rows[1][d]);
            }
            self.depth += 1;
        }

        // (iii) pull all tuples above the lower boundary of the last
        // fetched bucket and join.
        let bound = self.pulled_bound();
        let tmp = format!(
            "drjn_tmp_{}",
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let tmp_table = cluster.create_table(
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
            if bound < self.pulled_to[s] {
                pull_band(&engine, &query, s, bound, self.pulled_to[s], &tmp)?;
                self.pulled_to[s] = bound;
                self.pull_jobs += 1;
            }
        }
        // The temp table's key domain (join value ‖ base key) is unknown
        // before the pull, so it is re-sharded afterwards, into a layout
        // that depends only on the pulled content.
        tmp_table.rebalance(cluster.num_nodes() * 2);
        // Coordinator fetches the temp table and joins the rows it lends.
        let mut pulled = client.scan_with_batch(&tmp, Scan::new().caching(1000), batch)?;
        while let Some(row) = pulled.next_row()? {
            for (s, label) in [&query.left.label, &query.right.label].iter().enumerate() {
                for cell in row.family_cells(label) {
                    join_pulled_cell(&mut self.seen, &mut self.results, query.score_fn, s, cell)?;
                }
            }
        }
        drop(pulled);
        cluster.drop_table(&tmp)?;

        // (iv) terminate when the k-th real result beats anything still
        // unpulled (a missing pair has one side below `bound`), or the
        // histogram is exhausted.
        let unpulled_max = self.threat_bound();
        let done_by_score = self
            .results
            .kth_score()
            .is_some_and(|kth| kth >= unpulled_max);
        let exhausted = self.depth >= config.num_buckets && bound <= 0.0;
        if done_by_score || exhausted {
            self.done = true;
            return Ok(false);
        }
        // Not enough: deepen the estimate and loop.
        self.cum_estimate = 0.0; // force at least one more histogram row
        Ok(true)
    }

    fn drained(&self) -> bool {
        self.meta.k == 0 || self.done
    }

    /// Strictly above the unpulled bound; everything once the machine
    /// terminates.
    fn certified(&self) -> usize {
        if self.drained() {
            return self.results.len();
        }
        self.results.count_above(self.threat_bound())
    }

    fn results(&mut self, ranks: std::ops::Range<usize>) -> Vec<JoinTuple> {
        let seen = &self.seen;
        self.results
            .binary_results(ranks, |side, id| tuple(seen, side, id))
    }

    /// Tuples pulled into the seen store.
    fn consumed_depth(&self) -> u64 {
        self.seen.iter().map(SeenSide::len).sum::<usize>() as u64
    }

    fn boundaries(&self) -> u64 {
        self.rounds
    }

    fn meta(&self) -> &CursorMeta {
        &self.meta
    }

    fn meta_mut(&mut self) -> &mut CursorMeta {
        &mut self.meta
    }

    fn paused(self) -> StateInner {
        StateInner::Drjn(Box::new(self))
    }

    fn algorithm(&self) -> &'static str {
        "DRJN"
    }

    fn extras(&self) -> Extras {
        Extras::Drjn {
            rounds: self.rounds,
            histogram_depth: u64::from(self.depth),
            pull_jobs: self.pull_jobs,
            tuples_pulled: self.consumed_depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::oracle;
    use crate::testsupport::running_example_cluster;

    /// An executor for `q` with its DRJN matrices built with `config`.
    fn prepared(c: &Cluster, q: &RankJoinQuery, config: DrjnConfig) -> RankJoinExecutor {
        let mut ex = RankJoinExecutor::new(c, q.clone());
        ex.prepare_drjn(config).unwrap();
        ex
    }

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let config = DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        };
        let ex = prepared(&c, &q, config);
        let got = ex.execute(Algorithm::Drjn).unwrap();
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
        let ex = prepared(&c, &q, config);
        for k in [1, 2, 5, 11, 38, 60] {
            let qk = q.with_k(k);
            let got = ex.execute_with_k(Algorithm::Drjn, k).unwrap();
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
        let got = prepared(&c, &q, config).execute(Algorithm::Drjn).unwrap();
        assert!(matches!(got.extras, Extras::Drjn { pull_jobs: 2.., .. }));
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
        let cell = |key: &[u8], value: &[u8]| rj_store::Cell {
            family: "R1".into(),
            qualifier: key.into(),
            timestamp: 1,
            value: value.into(),
        };
        let mut seen = [SeenSide::new(1), SeenSide::new(1)];
        let mut results = TopIds::new(3, 2);
        let mut pull = |s, cell: &rj_store::Cell| {
            join_pulled_cell(&mut seen, &mut results, ScoreFn::Sum, s, cell.as_cell_ref())
        };
        pull(0, &cell(b"l1", &codec::encode_value_score(b"j", 0.5))).unwrap();
        assert!(matches!(
            pull(1, &cell(b"r0", b"garbage")),
            Err(RankJoinError::Codec(_))
        ));
        pull(1, &cell(b"r1", &codec::encode_value_score(b"j", 0.25))).unwrap();
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

    /// Matrices dropped under the executor that built them are reported
    /// when a run opens.
    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let ex = prepared(&c, &q, DrjnConfig::with_buckets(10));
        c.drop_table(&crate::drjn::index_table_name(&q)).unwrap();
        assert!(matches!(
            ex.execute(Algorithm::Drjn).unwrap_err(),
            RankJoinError::MissingIndex(_)
        ));
    }
}
