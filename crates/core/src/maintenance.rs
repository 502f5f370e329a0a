//! Write-path interception keeping base tables and indices consistent
//! (paper §6).
//!
//! "Both insertions and deletions are intercepted at the caller level;
//! then, the mutation is augmented so as to perform both a base data and
//! an index insertion/deletion in one operation, using the original
//! mutation timestamp for both operations." Consistency is eventual —
//! timestamps discern fresh from stale entries, matching the store's
//! native semantics.
//!
//! [`MaintainedSide`] wraps one relation and fans every insert/delete out
//! to whichever indices are attached: ISL, IJLMR, and/or a BFHM
//! maintainer (whose blob handling lives in [`crate::bfhm::maintenance`]).
//! A registered [`SharedTableStats`] handle rides the same write: each
//! base mutation's statistics-relevant residue is merged as a
//! [`StatsDelta`] under the handle's lock, keeping the planner's
//! histograms fresh in place (see [`crate::statsmaint`]).

use std::sync::{Arc, Mutex, PoisonError};

use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::row::RowBatch;
use rj_store::Bytes;

use crate::bfhm::maintenance::BfhmMaintainer;
use crate::codec;
use crate::error::{RankJoinError, Result};
use crate::query::JoinSide;
use crate::statsmaint::{join_fingerprint, DeltaOp, SharedTableStats, StatsDelta};

/// Intercepted write path for one relation and its indices.
///
/// A write allocates what the store keeps. The label and column handles
/// are resolved once, here; an insert builds its values, row-key qualifier
/// and value-score payload once each and hands every table that stores
/// one the same handle. A delete reads its row into a batch the side keeps,
/// tombstones the base columns with the handles that row lent (a frozen
/// cell lends none, so its qualifier is copied once), and shares one
/// row-key handle across its index tombstones.
pub struct MaintainedSide {
    cluster: Cluster,
    side: JoinSide,
    /// `side.label`: the family of the side's index cells.
    label: Arc<str>,
    /// `side.join_col` and `side.score_col`.
    join_col: (Arc<str>, Bytes),
    score_col: (Arc<str>, Bytes),
    isl_table: Option<String>,
    ijlmr_table: Option<String>,
    bfhm: Option<BfhmMaintainer>,
    stats: Option<Arc<SharedTableStats>>,
    /// The batch [`MaintainedSide::delete`] reads its base row into.
    read: Mutex<RowBatch>,
}

impl MaintainedSide {
    /// Wraps a relation with no indices attached yet.
    pub fn new(cluster: &Cluster, side: JoinSide) -> Self {
        let column = |(family, qualifier): &(String, Vec<u8>)| {
            (family.as_str().into(), Bytes::copy_from_slice(qualifier))
        };
        MaintainedSide {
            cluster: cluster.clone(),
            label: side.label.as_str().into(),
            join_col: column(&side.join_col),
            score_col: column(&side.score_col),
            side,
            isl_table: None,
            ijlmr_table: None,
            bfhm: None,
            stats: None,
            read: Mutex::default(),
        }
    }

    /// Attaches an ISL index table.
    pub fn with_isl(mut self, table: &str) -> Self {
        self.isl_table = Some(table.to_owned());
        self
    }

    /// Attaches an IJLMR index table.
    pub fn with_ijlmr(mut self, table: &str) -> Self {
        self.ijlmr_table = Some(table.to_owned());
        self
    }

    /// Attaches a BFHM maintainer.
    pub fn with_bfhm(mut self, maintainer: BfhmMaintainer) -> Self {
        self.bfhm = Some(maintainer);
        self
    }

    /// Registers a statistics handle (usually an executor's
    /// [`stats_handle`](crate::executor::RankJoinExecutor::stats_handle)),
    /// replacing any registered before: every subsequent insert/delete
    /// runs its base put under the handle's lock and merges its
    /// [`StatsDelta`] under the same guard, so a concurrent statistics
    /// pass counts the write exactly once. The index writes follow
    /// outside the lock.
    pub fn with_stats(mut self, stats: Arc<SharedTableStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Runs the base write `put`; with a statistics handle, fenced by it
    /// (see [`MaintainedSide::with_stats`]) — the delta's schema borrowed
    /// from this side, so the merge allocates nothing of its own.
    fn base_write(
        &self,
        op: DeltaOp,
        row_key: &[u8],
        join_value: &[u8],
        score: f64,
        put: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let Some(stats) = &self.stats else {
            return put();
        };
        let delta = StatsDelta {
            table: &self.side.table,
            join_col: &self.side.join_col,
            score_col: &self.side.score_col,
            op,
            join_fingerprint: join_fingerprint(join_value),
            score,
            entry_bytes: crate::planner::entry_bytes_of(join_value, row_key),
        };
        stats.fenced(&delta, put)
    }

    /// The wrapped side descriptor.
    pub fn side(&self) -> &JoinSide {
        &self.side
    }

    /// Inserts a tuple into the base table and all attached indices,
    /// sharing one timestamp. `extra` mutations (filler columns etc.) ride
    /// along in the same atomic base-row operation. Returns the timestamp.
    ///
    /// Non-finite scores are rejected with
    /// [`RankJoinError::NonFiniteScore`] before anything is written: a
    /// NaN admitted here would panic much later, deep inside a score-list
    /// key encoding or a query-time sort. So are finite scores outside the
    /// paper's `[0, 1]` (§1.1), with [`RankJoinError::ScoreOutOfRange`]:
    /// the statistics would file one under an edge bucket.
    ///
    /// **Contract: `row_key` must be new.** Like the paper's §6 write
    /// interception, this is an *insert*, not an upsert — writing an
    /// existing key leaves the old score's index entries (and statistics
    /// contribution) in place alongside the new ones. The same applies to
    /// retries: the fan-out is not transactional, so if an index write
    /// fails mid-way the base row and statistics delta have already
    /// landed — recover by [`MaintainedSide::delete`]-ing the key (or
    /// rebuilding the failed index), not by re-inserting it.
    pub fn insert(
        &self,
        row_key: &[u8],
        join_value: &[u8],
        score: f64,
        extra: Vec<Mutation>,
    ) -> Result<u64> {
        if !score.is_finite() {
            return Err(RankJoinError::NonFiniteScore(score));
        }
        if !(0.0..=1.0).contains(&score) {
            return Err(RankJoinError::ScoreOutOfRange(score));
        }
        let ts = self.cluster.next_ts();
        let client = self.cluster.client();

        let score_value = Bytes::from(score.to_be_bytes());
        let column = |(family, qualifier): &(Arc<str>, Bytes), value| {
            Mutation::put_shared(family.clone(), qualifier.clone(), value, Some(ts))
        };
        let mut base = Vec::with_capacity(2 + extra.len());
        base.push(column(&self.join_col, Bytes::copy_from_slice(join_value)));
        base.push(column(&self.score_col, score_value.clone()));
        base.extend(extra.into_iter().map(|m| pin_ts(m, ts)));
        self.base_write(DeltaOp::Insert, row_key, join_value, score, || {
            Ok(client.mutate_row(&self.side.table, row_key, base)?)
        })?;

        let row_key = Bytes::copy_from_slice(row_key);
        let entry = codec::encode_value_score(join_value, score);
        let cell = |value: &Bytes| {
            Mutation::put_shared(self.label.clone(), row_key.clone(), value.clone(), Some(ts))
        };
        // The base row and its statistics delta have landed, so an index
        // write failing below leaves both in place: planner statistics
        // describe the *base tables*, what a statistics pass scans.
        if let Some(t) = &self.isl_table {
            client.mutate_row(t, &keys::encode_score_desc(score), [cell(&entry)])?;
        }
        if let Some(t) = &self.ijlmr_table {
            client.mutate_row(t, join_value, [cell(&score_value)])?;
        }
        if let Some(b) = &self.bfhm {
            b.record_insert(&row_key, join_value, score, &entry, ts)?;
        }
        Ok(ts)
    }

    /// Deletes a tuple from the base table and all attached indices. The
    /// base row is read first to learn the join value and score that
    /// locate the index entries. Returns the timestamp, or an error if
    /// the row does not exist.
    ///
    /// Validation mirrors [`MaintainedSide::insert`]: every failure is a
    /// typed error, never a panic. A row already deleted (including by an
    /// earlier call with the same key — tombstones hide it from the read)
    /// yields [`RankJoinError::MissingRow`] *before* any index is
    /// touched, so double-deleting a key can never tombstone an index
    /// entry twice under a fresher timestamp. A stored score that is not
    /// finite (only writable by clients bypassing the maintained path)
    /// yields [`RankJoinError::NonFiniteScore`], the same rejection
    /// `insert` applies at ingest.
    ///
    /// The BFHM maintainer is handed the timestamp of the row's score
    /// cell, which `insert` pinned on the tuple's insertion record too, so
    /// it can cancel that record while it is pending
    /// ([`BfhmMaintainer::record_delete`]).
    ///
    /// The side's read batch stays locked for the whole delete, because
    /// the join value borrows from it. Nothing else takes that lock, so
    /// the order is: batch lock, then the statistics fence or the BFHM
    /// maintainer's buffer lock, then the store's region locks.
    pub fn delete(&self, row_key: &[u8]) -> Result<u64> {
        let client = self.cluster.client();
        let projection = client.projection(&self.side.table, None)?;
        let mut batch = self.read.lock().unwrap_or_else(PoisonError::into_inner);
        let row = client
            .get_into(&mut batch, &projection, row_key)
            .ok_or(RankJoinError::MissingRow)?;
        let (join_value, score) = self.side.extract_checked(row)?;
        // `insert` pinned one timestamp on the score cell and on the
        // tuple's BFHM insertion record.
        let (family, qualifier) = &self.score_col;
        let inserted = row.cell(family, qualifier).map_or(0, |cell| cell.timestamp);
        let ts = self.cluster.next_ts();

        // Tombstone every base column, with the handles the read lent.
        let muts: Vec<Mutation> = row
            .cells()
            .map(|c| Mutation::delete_shared(c.family_handle(), c.qualifier_handle(), Some(ts)))
            .collect();
        self.base_write(DeltaOp::Delete, row_key, join_value, score, || {
            Ok(client.mutate_row(&self.side.table, row_key, muts)?)
        })?;

        let row_key = Bytes::copy_from_slice(row_key);
        let tombstone = || Mutation::delete_shared(self.label.clone(), row_key.clone(), Some(ts));
        // As in `insert`: the base row and its delta stay if an index
        // tombstone fails below.
        if let Some(t) = &self.isl_table {
            client.mutate_row(t, &keys::encode_score_desc(score), [tombstone()])?;
        }
        if let Some(t) = &self.ijlmr_table {
            client.mutate_row(t, join_value, [tombstone()])?;
        }
        if let Some(b) = &self.bfhm {
            b.record_delete(&row_key, join_value, score, inserted, ts)?;
        }
        Ok(ts)
    }
}

/// Forces a mutation's timestamp to `ts`.
fn pin_ts(m: Mutation, ts: u64) -> Mutation {
    match m {
        Mutation::Put {
            family,
            qualifier,
            value,
            ..
        } => Mutation::Put {
            family,
            qualifier,
            value,
            timestamp: Some(ts),
        },
        Mutation::Delete {
            family, qualifier, ..
        } => Mutation::Delete {
            family,
            qualifier,
            timestamp: Some(ts),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{ijlmr_run, isl_run, put_tuple, running_example_cluster};
    use crate::{ijlmr, isl, oracle};
    use rj_mapreduce::MapReduceEngine;

    #[test]
    fn insert_updates_base_and_both_list_indices() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();

        let side = MaintainedSide::new(&c, q.right.clone())
            .with_isl("isl_idx")
            .with_ijlmr("ijlmr_idx");
        side.insert(b"r2_99", b"b", 0.99, vec![]).unwrap();

        // Both query paths see the new tuple (top score b: 0.82+0.99).
        let got_isl = isl_run(&c, &q, "isl_idx").unwrap();
        let got_ijlmr = ijlmr_run(&c, &q, "ijlmr_idx").unwrap();
        let want = oracle::topk(&c, &q).unwrap();
        assert_eq!(got_isl.results, want);
        assert_eq!(got_ijlmr.results, want);
        assert!((want[0].score - 1.81).abs() < 1e-9);
    }

    #[test]
    fn delete_removes_from_indices() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();

        let side = MaintainedSide::new(&c, q.right.clone())
            .with_isl("isl_idx")
            .with_ijlmr("ijlmr_idx");
        // Remove r2_11 (b, 0.92): the old top-1 partner.
        side.delete(b"r2_11").unwrap();

        let want = oracle::topk(&c, &q).unwrap();
        assert!((want[0].score - 1.73).abs() < 1e-9, "0.82 + 0.91 now tops");
        let got_isl = isl_run(&c, &q, "isl_idx").unwrap();
        let got_ijlmr = ijlmr_run(&c, &q, "ijlmr_idx").unwrap();
        assert_eq!(got_isl.results, want);
        assert_eq!(got_ijlmr.results, want);
    }

    #[test]
    fn non_finite_scores_are_rejected_at_ingest() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        let side = MaintainedSide::new(&c, q.left.clone()).with_isl("isl_idx");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = side.insert(b"r1_bad", b"a", bad, vec![]).unwrap_err();
            assert!(
                matches!(err, RankJoinError::NonFiniteScore(_)),
                "{bad} must yield a typed error, got {err}"
            );
        }
        // Nothing landed: the base table has no such row.
        assert!(c.client().get("r1", b"r1_bad").unwrap().is_none());
    }

    #[test]
    fn scores_outside_the_unit_interval_are_rejected_before_any_write() {
        use crate::bfhm::{self, BfhmConfig};

        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        };
        bfhm::build_pair(&engine, &q, "bfhm_idx", &config).unwrap();
        let stats = primed_handle(&c, &q);
        let side = MaintainedSide::new(&c, q.left.clone())
            .with_isl("isl_idx")
            .with_ijlmr("ijlmr_idx")
            .with_bfhm(BfhmMaintainer::attach(&c, "bfhm_idx", &q.left.label).unwrap())
            .with_stats(stats.clone());
        let version = stats.version();
        let footprint = || {
            ["r1", "isl_idx", "ijlmr_idx", "bfhm_idx"].map(|name| {
                let table = c.table(name).unwrap();
                (table.kv_count(), table.disk_size())
            })
        };
        let before = footprint();
        for bad in [1.5, -0.1] {
            let err = side.insert(b"r1_bad", b"a", bad, vec![]).unwrap_err();
            assert!(
                matches!(err, RankJoinError::ScoreOutOfRange(s) if s == bad),
                "{bad} must yield a typed error, got {err}"
            );
        }
        // Nothing landed: no base row, no index entry, no delta.
        assert!(c.client().get("r1", b"r1_bad").unwrap().is_none());
        assert_eq!(footprint(), before);
        assert_eq!(stats.version(), version);

        // Both ends of the domain are in it.
        side.insert(b"r1_zero", b"a", 0.0, vec![]).unwrap();
        side.insert(b"r1_one", b"a", 1.0, vec![]).unwrap();
        assert_eq!(stats.version(), version + 2);
        assert_eq!(left_tuples(&stats), 13);
    }

    #[test]
    fn delete_missing_row_errors() {
        let (c, q) = running_example_cluster();
        let side = MaintainedSide::new(&c, q.left.clone());
        assert!(matches!(
            side.delete(b"no_such_row").unwrap_err(),
            RankJoinError::MissingRow
        ));
    }

    #[test]
    fn double_delete_is_typed_and_leaves_indices_consistent() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();
        let side = MaintainedSide::new(&c, q.right.clone())
            .with_isl("isl_idx")
            .with_ijlmr("ijlmr_idx");

        side.delete(b"r2_11").unwrap();
        let idx_kvs = c.table("isl_idx").unwrap().kv_count();
        // Second delete of the same key: typed MissingRow, *before* any
        // index is touched — no second tombstone under a fresher
        // timestamp, no index drift.
        assert!(matches!(
            side.delete(b"r2_11").unwrap_err(),
            RankJoinError::MissingRow
        ));
        assert_eq!(
            c.table("isl_idx").unwrap().kv_count(),
            idx_kvs,
            "failed delete must not write to indices"
        );
        let want = oracle::topk(&c, &q).unwrap();
        let got_isl = isl_run(&c, &q, "isl_idx").unwrap();
        let got_ijlmr = ijlmr_run(&c, &q, "ijlmr_idx").unwrap();
        assert_eq!(got_isl.results, want);
        assert_eq!(got_ijlmr.results, want);

        // Delete → insert → delete of the same key also stays clean.
        side.insert(b"r2_11", b"b", 0.92, vec![]).unwrap();
        side.delete(b"r2_11").unwrap();
        let want = oracle::topk(&c, &q).unwrap();
        let got = isl_run(&c, &q, "isl_idx").unwrap();
        assert_eq!(got.results, want);
    }

    #[test]
    fn delete_validates_stored_rows_with_typed_errors() {
        let (c, q) = running_example_cluster();
        let side = MaintainedSide::new(&c, q.left.clone());
        let client = c.client();
        // A non-finite score planted by a writer bypassing the maintained
        // path: delete must reject it exactly like insert would, not
        // panic inside a key encoding.
        put_tuple(&client, "r1", b"r1_nan", b"a", f64::NAN);
        assert!(matches!(
            side.delete(b"r1_nan").unwrap_err(),
            RankJoinError::NonFiniteScore(_)
        ));
        // A row missing its score column: typed internal error.
        client
            .mutate_row(
                "r1",
                b"r1_noscore",
                vec![Mutation::put("d", b"jk", b"a".to_vec())],
            )
            .unwrap();
        assert!(matches!(
            side.delete(b"r1_noscore").unwrap_err(),
            RankJoinError::Internal(_)
        ));
        // A truncated score value: typed internal error, no slice panic.
        client
            .mutate_row(
                "r1",
                b"r1_short",
                vec![
                    Mutation::put("d", b"jk", b"a".to_vec()),
                    Mutation::put("d", b"score", vec![1, 2, 3]),
                ],
            )
            .unwrap();
        assert!(matches!(
            side.delete(b"r1_short").unwrap_err(),
            RankJoinError::Internal(_)
        ));
    }

    /// A statistics handle over `q` with its first pass collected.
    fn primed_handle(c: &Cluster, q: &crate::query::RankJoinQuery) -> Arc<SharedTableStats> {
        let stats = SharedTableStats::new(Arc::new(q.to_spec()));
        stats.stats_for_planning(c).unwrap();
        stats
    }

    /// The maintained tuple count of the left side.
    fn left_tuples(stats: &SharedTableStats) -> u64 {
        stats.maintained_stats().unwrap().sides[0].tuples
    }

    #[test]
    fn index_write_failure_still_emits_the_stats_delta() {
        let (c, q) = running_example_cluster();
        let stats = primed_handle(&c, &q);
        let version = stats.version();
        // ISL table never built: the index write fails after the base
        // write lands. Statistics describe base tables, so the delta
        // must be merged anyway — otherwise the staleness counter goes
        // blind to drift it exists to bound.
        let side = MaintainedSide::new(&c, q.left.clone())
            .with_isl("isl_idx_missing")
            .with_stats(stats.clone());
        assert!(side.insert(b"r1_99", b"a", 0.5, vec![]).is_err());
        assert!(c.client().get("r1", b"r1_99").unwrap().is_some());
        assert_eq!(stats.version(), version + 1, "base write landed");
        assert_eq!(left_tuples(&stats), 12, "its delta merged");
        assert!(stats.staleness() > 0.0);
    }

    #[test]
    fn base_write_failure_emits_no_stats_delta() {
        let (c, q) = running_example_cluster();
        let stats = primed_handle(&c, &q);
        let (version, staleness) = (stats.version(), stats.staleness());
        let side = MaintainedSide::new(&c, q.left.clone()).with_stats(stats.clone());
        // The base table is gone, so the base put fails and nothing was
        // written: a delta would bill the statistics for a row that does
        // not exist.
        c.drop_table("r1").unwrap();
        assert!(side.insert(b"r1_99", b"a", 0.5, vec![]).is_err());
        assert_eq!(stats.version(), version, "no base write, no delta");
        assert_eq!(stats.staleness(), staleness);
        assert_eq!(left_tuples(&stats), 11);
    }

    #[test]
    fn insert_delete_roundtrip_is_clean() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        let side = MaintainedSide::new(&c, q.left.clone()).with_isl("isl_idx");
        let before = oracle::topk(&c, &q).unwrap();
        side.insert(b"r1_99", b"a", 0.95, vec![]).unwrap();
        side.delete(b"r1_99").unwrap();
        let after = oracle::topk(&c, &q).unwrap();
        assert_eq!(before, after);
        let got = isl_run(&c, &q, "isl_idx").unwrap();
        assert_eq!(got.results, after);
    }

    /// §6 pins one timestamp on a base write and its index writes, and the
    /// fan-out is not atomic: a `delete` can run between a racing
    /// `insert`'s base put and its index put, landing the index tombstone
    /// *first*. The tombstone, newer than the late put, must still mask it.
    /// Played here by hand: the insert's two halves around a real
    /// `MaintainedSide::delete`.
    #[test]
    fn a_delete_overtaking_an_insert_converges_inside_the_grace_window() {
        use rj_store::region::TOMBSTONE_GRACE_TICKS;
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        isl::build(&engine, &q, "isl_idx").unwrap();
        let side = MaintainedSide::new(&c, q.right.clone()).with_isl("isl_idx");
        let client = c.client();
        let base_half = |key: &[u8], ts: u64| {
            let muts = vec![
                Mutation::put_at("d", b"jk", b"b".to_vec(), ts),
                Mutation::put_at("d", b"score", 0.99f64.to_be_bytes().to_vec(), ts),
            ];
            client.mutate_row("r2", key, muts).unwrap();
        };
        let index_half = |key: &[u8], ts: u64| {
            let entry = codec::encode_value_score(b"b", 0.99);
            let put = Mutation::put_at("R2", key, entry, ts);
            client
                .mutate_row("isl_idx", &keys::encode_score_desc(0.99), vec![put])
                .unwrap();
        };
        let isl_top = || isl_run(&c, &q, "isl_idx").unwrap().results;

        // Insert (base half) → delete (base and index) → insert (index
        // half, late): the index agrees with the base table, which has no
        // such row.
        let ts = c.next_ts();
        base_half(b"r2_99", ts);
        assert!(side.delete(b"r2_99").unwrap() > ts);
        index_half(b"r2_99", ts);
        let want = oracle::topk(&c, &q).unwrap();
        assert_eq!(isl_top(), want, "the tombstone masks the late index put");
        assert!(want.iter().all(|t| t.right_key != b"r2_99"));

        // The documented limit. An index put delayed past the window finds
        // the tombstone purged (by the next write to its region) and is
        // visible: a dangling index entry, as in HBase once a major
        // compaction has dropped the delete marker.
        let ts = c.next_ts();
        base_half(b"r2_98", ts);
        side.delete(b"r2_98").unwrap();
        for _ in 0..=TOMBSTONE_GRACE_TICKS {
            c.next_ts();
        }
        index_half(b"r2_98", ts);
        assert_eq!(oracle::topk(&c, &q).unwrap(), want, "the base row is gone");
        assert!(isl_top().iter().any(|t| t.right_key == b"r2_98"));
    }
}
