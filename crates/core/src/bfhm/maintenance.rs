//! Online updates to the BFHM (paper §6).
//!
//! Blob rows cannot be rewritten on every base-table mutation, so updates
//! append **insertion/tombstone records** to the bucket row — key-value
//! pairs carrying the tuple's full BFHM information (row key, join value,
//! score) under the original mutation's timestamp — while reverse-mapping
//! rows are maintained directly with vanilla puts/deletes. "This
//! information allows anyone retrieving a bucket row to replay all row
//! mutations in timestamp order and reconstruct the up-to-date blob from
//! the original blob", after which the blob is written back and consumed
//! records are purged **in a single row-level-atomic operation**.
//!
//! Write-back can run eagerly (when query processing fetches the bucket),
//! lazily (after results are returned, once per side and bucket the read
//! resolved), or offline ([`compact_if_pending`], the "thread periodically
//! probing bucket rows" variant, optionally gated by a mutation-count
//! threshold).
//!
//! One conservative deviation, documented in DESIGN.md: replayed deletes
//! do not shrink the bucket's min/max score range (the true extrema of
//! the survivors are unknown without a recount). Stale extrema only ever
//! widen bounds — termination tests stay sound, at worst fetching more.

use std::sync::Arc;

use rj_sketch::blob::{BfhmBlob, BlobCodec};
use rj_sketch::bloom::SingleHashBloom;
use rj_sketch::histogram::ScoreHistogram;
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::row::{RowBatch, RowRef};
use rj_store::Bytes;

use crate::codec;
use crate::error::Result;

use super::index::{blob_row_key, read_meta, reverse_row_key, BLOB_QUALIFIER};

/// When reconstructed blobs get written back during query processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WriteBackPolicy {
    /// At the beginning of query processing, as buckets are fetched — the
    /// paper's worst case for query-time overhead (§7.2 measures < 10%).
    Eager,
    /// After the query results are returned.
    Lazy,
    /// Never during queries (an offline process owns compaction).
    #[default]
    Off,
}

/// Mutation-record op tags.
const OP_INSERT: u8 = b'i';
const OP_DELETE: u8 = b'd';

/// Qualifier of a mutation record: `op ‖ ts(u64 BE) ‖ base row key`,
/// built in the one buffer the store then keeps.
fn record_qualifier(op: u8, ts: u64, row_key: &[u8]) -> Bytes {
    std::iter::once(op)
        .chain(ts.to_be_bytes())
        .chain(row_key.iter().copied())
        .collect()
}

fn parse_record_qualifier(q: &[u8]) -> Option<(u8, u64, &[u8])> {
    if q.len() < 9 || (q[0] != OP_INSERT && q[0] != OP_DELETE) {
        return None;
    }
    let ts = u64::from_be_bytes(q[1..9].try_into().ok()?);
    Some((q[0], ts, &q[9..]))
}

/// Outcome of replaying a bucket row.
pub(crate) struct ResolvedBucket {
    /// The up-to-date blob; `None` when the bucket is empty.
    pub blob: Option<BfhmBlob>,
    /// Whether any pending mutation records were replayed.
    pub had_mutations: bool,
    /// Timestamp of the latest replayed mutation (0 when none).
    pub latest_ts: u64,
    /// Qualifiers of the consumed records (for write-back purging),
    /// shared by handle with the fetched row when it lends handles (a
    /// memstore row, as every bucket row taking records is).
    pub consumed_qualifiers: Vec<Bytes>,
}

/// Replays a fetched bucket row: decodes the stored blob (if any) into
/// the array `array` picks ([`BfhmBlob::decode_into`]) and applies
/// pending insertion/tombstone records in timestamp order. `m` sizes the
/// filter when the bucket had no blob yet. A record whose value does not
/// decode is an error: replaying around it would return a blob — and
/// from it a top-k — that silently misses a write.
pub(crate) fn resolve_bucket_row(
    row: RowRef<'_>,
    label: &str,
    m: usize,
    array: impl FnOnce(usize) -> Vec<u32>,
) -> Result<ResolvedBucket> {
    let mut blob: Option<BfhmBlob> = match row.value(label, BLOB_QUALIFIER) {
        Some(bytes) => Some(BfhmBlob::decode_into(bytes, array)?),
        None => None,
    };

    // Collect pending records, join values borrowed from the row. A cell
    // under any other qualifier (the blob itself) is not a record.
    let mut records: Vec<(u64, u8, &[u8], f64)> = Vec::new(); // (ts, op, join, score)
    let mut consumed = Vec::new();
    for cell in row.family_cells(label) {
        let Some((op, ts, _key)) = parse_record_qualifier(cell.qualifier) else {
            continue;
        };
        let (join, score) = codec::decode_one_value_score(cell.value)?;
        records.push((ts, op, join, score));
        consumed.push(cell.qualifier_handle());
    }
    if records.is_empty() {
        return Ok(ResolvedBucket {
            blob,
            had_mutations: false,
            latest_ts: 0,
            consumed_qualifiers: Vec::new(),
        });
    }
    // Timestamp order; inserts before deletes at equal timestamps so a
    // same-instant insert+delete cancels.
    records.sort_by_key(|(ts, op, _, _)| (*ts, u8::from(*op == OP_DELETE)));
    let latest_ts = records.last().map(|(ts, ..)| *ts).unwrap_or(0);

    let mut b = blob.take().unwrap_or_else(|| {
        BfhmBlob::new(
            rj_sketch::hybrid::HybridFilter::new(m),
            f64::INFINITY,
            f64::NEG_INFINITY,
        )
    });
    for (_ts, op, join, score) in &records {
        if *op == OP_INSERT {
            b.filter.insert(join);
            b.min_score = b.min_score.min(*score);
            b.max_score = b.max_score.max(*score);
        } else {
            // Deletes shrink the filter but, conservatively, not the
            // score extrema (see module docs).
            let _ = b.filter.remove(join);
        }
    }
    let blob = if b.filter.n_inserted() == 0 {
        None
    } else {
        Some(b)
    };
    Ok(ResolvedBucket {
        blob,
        had_mutations: true,
        latest_ts,
        consumed_qualifiers: consumed,
    })
}

/// Writes a replayed bucket back and purges the consumed records, in one
/// atomic row mutation stamped with the latest replayed timestamp: the
/// reconstructed blob, or — when the replay emptied the bucket — a
/// tombstone over the stored one. The one write-back of all three
/// policies; without the empty arm a bucket whose last tuple was deleted
/// would keep its records, and every later read would replay them again.
pub(crate) fn write_back_bucket(
    cluster: &Cluster,
    table: &str,
    label: &str,
    bucket_row: &[u8],
    resolved: &ResolvedBucket,
    codec_sel: BlobCodec,
) -> Result<()> {
    let ts = Some(resolved.latest_ts);
    // One family handle for the blob and every purged record.
    let family: Arc<str> = label.into();
    let mut muts = Vec::with_capacity(1 + resolved.consumed_qualifiers.len());
    muts.push(match &resolved.blob {
        Some(blob) => {
            let value = blob.encode(codec_sel).into();
            Mutation::put_shared(family.clone(), BLOB_QUALIFIER.into(), value, ts)
        }
        None => Mutation::delete_shared(family.clone(), BLOB_QUALIFIER.into(), ts),
    });
    muts.extend(
        resolved
            .consumed_qualifiers
            .iter()
            .map(|qualifier| Mutation::delete_shared(family.clone(), qualifier.clone(), ts)),
    );
    cluster.client().mutate_row(table, bucket_row, muts)?;
    Ok(())
}

/// If at least `threshold` (≥ 1) mutation records are pending in `row`,
/// a bucket row read under `label` of an index whose filters have `m`
/// bits, replays and writes it back (the lazy and offline write-back).
/// Returns the number of records compacted.
pub(crate) fn refresh_bucket(
    cluster: &Cluster,
    table: &str,
    label: &str,
    row: RowRef<'_>,
    m: usize,
    codec_sel: BlobCodec,
    threshold: usize,
) -> Result<usize> {
    let pending = row
        .family_cells(label)
        .filter(|c| parse_record_qualifier(c.qualifier).is_some())
        .count();
    if pending < threshold.max(1) {
        return Ok(0);
    }
    let resolved = resolve_bucket_row(row, label, m, Vec::with_capacity)?;
    write_back_bucket(cluster, table, label, row.key, &resolved, codec_sel)?;
    Ok(resolved.consumed_qualifiers.len())
}

/// Offline compaction sweep: refreshes every bucket whose pending-record
/// count is at least `threshold` ("one can choose to perform the
/// write-back only if the number of replayed mutations is above some
/// predefined threshold", §6). Every row of the sweep is read into one
/// batch. Returns total records compacted.
pub fn compact_if_pending(
    cluster: &Cluster,
    table: &str,
    label: &str,
    codec_sel: BlobCodec,
    threshold: usize,
) -> Result<usize> {
    let client = cluster.client();
    let mut batch = RowBatch::new();
    let (m, buckets) = read_meta(&client, &mut batch, table, label)?;
    let family = client.projection(table, Some(&[label.to_owned()]))?;
    let mut compacted = 0;
    for bucket in 0..buckets {
        if let Some(row) = client.get_into(&mut batch, &family, &blob_row_key(bucket)) {
            compacted += refresh_bucket(cluster, table, label, row, m, codec_sel, threshold)?;
        }
    }
    Ok(compacted)
}

/// Intercepted write path for one side's BFHM index (§6).
pub struct BfhmMaintainer {
    cluster: Cluster,
    table: String,
    /// The side's label: the family of its records and reverse cells.
    label: Arc<str>,
    hist: ScoreHistogram,
    m: usize,
}

impl BfhmMaintainer {
    /// Attaches to a built index (reads `m` and the bucket count from the
    /// metadata row).
    pub fn attach(cluster: &Cluster, table: &str, label: &str) -> Result<Self> {
        let (m, buckets) = read_meta(&cluster.client(), &mut RowBatch::new(), table, label)?;
        Ok(BfhmMaintainer {
            cluster: cluster.clone(),
            table: table.to_owned(),
            label: label.into(),
            hist: ScoreHistogram::new(buckets),
            m,
        })
    }

    /// The filter size in force.
    pub fn filter_bits(&self) -> usize {
        self.m
    }

    /// The bucket row and reverse-mapping row a tuple's entries live in.
    fn rows(&self, join_value: &[u8], score: f64) -> ([u8; 4], [u8; 9]) {
        let bucket = self.hist.bucket_of(score);
        let pos = SingleHashBloom::position_in(self.m, join_value) as u32;
        (blob_row_key(bucket), reverse_row_key(bucket, pos))
    }

    /// Records the insertion of a base tuple: an insertion record on the
    /// bucket row plus a direct reverse-mapping put, both at `ts`, both
    /// storing the caller's `entry` handle (the tuple's
    /// [`codec::encode_value_score`]) and the put its `row_key`.
    pub fn record_insert(
        &self,
        row_key: &Bytes,
        join_value: &[u8],
        score: f64,
        entry: &Bytes,
        ts: u64,
    ) -> Result<()> {
        let (bucket_row, reverse_row) = self.rows(join_value, score);
        let client = self.cluster.client();
        let qualifier = record_qualifier(OP_INSERT, ts, row_key);
        let record = Mutation::put_shared(self.label.clone(), qualifier, entry.clone(), Some(ts));
        client.mutate_row(&self.table, &bucket_row, [record])?;
        let reverse =
            Mutation::put_shared(self.label.clone(), row_key.clone(), entry.clone(), Some(ts));
        client.mutate_row(&self.table, &reverse_row, [reverse])?;
        Ok(())
    }

    /// Records the deletion of a base tuple: a tombstone record on the
    /// bucket row plus a vanilla reverse-mapping delete, both at `ts`.
    pub fn record_delete(
        &self,
        row_key: &Bytes,
        join_value: &[u8],
        score: f64,
        ts: u64,
    ) -> Result<()> {
        let (bucket_row, reverse_row) = self.rows(join_value, score);
        let client = self.cluster.client();
        let qualifier = record_qualifier(OP_DELETE, ts, row_key);
        let entry = codec::encode_value_score(join_value, score);
        let record = Mutation::put_shared(self.label.clone(), qualifier, entry, Some(ts));
        client.mutate_row(&self.table, &bucket_row, [record])?;
        let reverse = Mutation::delete_shared(self.label.clone(), row_key.clone(), Some(ts));
        client.mutate_row(&self.table, &reverse_row, [reverse])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfhm::{self, BfhmConfig};
    use crate::executor::Algorithm;
    use crate::oracle;
    use crate::testsupport::{bfhm_executor, bfhm_run, running_example_cluster};
    use rj_mapreduce::MapReduceEngine;

    fn build(c: &Cluster, q: &crate::query::RankJoinQuery) -> BfhmConfig {
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 14),
            ..Default::default()
        };
        let engine = MapReduceEngine::new(c.clone());
        bfhm::build_pair(&engine, q, "bfhm_idx", &config).unwrap();
        config
    }

    /// [`BfhmMaintainer::record_insert`] of a tuple given as slices.
    fn insert_record(m: &BfhmMaintainer, key: &[u8], join: &[u8], score: f64, ts: u64) {
        let entry = codec::encode_value_score(join, score);
        m.record_insert(&Bytes::copy_from_slice(key), join, score, &entry, ts)
            .unwrap();
    }

    #[test]
    fn record_qualifier_roundtrip() {
        let q = record_qualifier(OP_INSERT, 42, b"rk");
        let (op, ts, key) = parse_record_qualifier(&q).unwrap();
        assert_eq!(op, OP_INSERT);
        assert_eq!(ts, 42);
        assert_eq!(key, b"rk");
        assert!(parse_record_qualifier(b"blob").is_none());
        assert!(parse_record_qualifier(b"x").is_none());
    }

    #[test]
    fn insert_then_query_sees_new_tuple() {
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        // New R2 tuple joining b with a huge score → displaces the top-1.
        let base = c.client();
        let ts = c.next_ts();
        base.mutate_row(
            "r2",
            b"r2_99",
            vec![
                Mutation::put_at("d", b"jk", b"b".to_vec(), ts),
                Mutation::put_at("d", b"score", 0.99f64.to_be_bytes().to_vec(), ts),
            ],
        )
        .unwrap();
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        insert_record(&maintainer, b"r2_99", b"b", 0.99, ts);

        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
        assert!((got.results[0].score - 1.81).abs() < 1e-9, "0.82 + 0.99");
    }

    #[test]
    fn delete_then_query_drops_tuple() {
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        // Delete r2_11 (b, 0.92) — the top result's right tuple.
        let base = c.client();
        let ts = c.next_ts();
        base.mutate_row(
            "r2",
            b"r2_11",
            vec![
                Mutation::delete_at("d", b"jk", ts),
                Mutation::delete_at("d", b"score", ts),
            ],
        )
        .unwrap();
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        maintainer
            .record_delete(&Bytes::from_static(b"r2_11"), b"b", 0.92, ts)
            .unwrap();

        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Off).unwrap();
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
        assert!((got.results[0].score - 1.73).abs() < 1e-9, "0.82 + 0.91");
    }

    #[test]
    fn eager_write_back_compacts_records() {
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        let ts = c.next_ts();
        c.client()
            .mutate_row(
                "r2",
                b"r2_99",
                vec![
                    Mutation::put_at("d", b"jk", b"b".to_vec(), ts),
                    Mutation::put_at("d", b"score", 0.99f64.to_be_bytes().to_vec(), ts),
                ],
            )
            .unwrap();
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        insert_record(&maintainer, b"r2_99", b"b", 0.99, ts);

        // Eager query: reconstructs + writes back bucket 0 of R2.
        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Eager).unwrap();
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());

        // Record purged; blob reflects the insert.
        let row = c
            .client()
            .get("bfhm_idx", &blob_row_key(0))
            .unwrap()
            .unwrap();
        let pending = row
            .family_cells("R2")
            .filter(|cell| parse_record_qualifier(cell.qualifier).is_some())
            .count();
        assert_eq!(pending, 0, "eager write-back purges records");
        let blob = BfhmBlob::decode(row.value("R2", BLOB_QUALIFIER).unwrap()).unwrap();
        assert_eq!(blob.max_score, 0.99);
        assert_eq!(blob.filter.n_inserted(), 3);
    }

    /// A lazy write-back happens once the result is ready, and a cursor's
    /// result is ready when it has emitted its `k`-th result — the page
    /// that reports `done`, before the guarantee loop has ended.
    #[test]
    fn lazy_write_back_lands_on_the_cursor_page_that_is_done() {
        use crate::cancel::StopPolicy;
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        let side =
            crate::maintenance::MaintainedSide::new(&c, q.right.clone()).with_bfhm(maintainer);
        // Into R2's bucket 0, which the top-1 (0.82 + 0.99) must fetch.
        side.insert(b"r2_99", b"b", 0.99, vec![]).unwrap();
        assert_eq!(bucket_row_cost(&c, "R2", 0).0, 1);

        let ex = bfhm_executor(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Lazy).unwrap();
        let mut cursor = ex.open_cursor(Algorithm::Bfhm, 1).unwrap();
        let page = cursor.next_batch(1, &StopPolicy::never()).unwrap();
        assert!(page.done);
        assert_eq!(page.results, oracle::topk(&c, &q.with_k(1)).unwrap());
        assert_eq!(
            bucket_row_cost(&c, "R2", 0).0,
            0,
            "the record was written back"
        );
    }

    /// A lazy write-back refreshes what the read resolved, once: the one
    /// `(side, bucket)` that had records, by one get of its row and one
    /// write. It used to refresh both sides of a pending bucket, each with
    /// a metadata read besides, so the clean side billed two reads.
    #[test]
    fn a_lazy_write_back_bills_one_get_and_one_write_for_the_side_it_resolved() {
        use crate::cancel::StopPolicy;
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        let side =
            crate::maintenance::MaintainedSide::new(&c, q.right.clone()).with_bfhm(maintainer);
        // Into R2's bucket 0, which the top-1 fetches with R1's clean one.
        side.insert(b"r2_99", b"b", 0.99, vec![]).unwrap();
        let (pending, row_reads) = bucket_row_cost(&c, "R2", 0);
        assert_eq!(pending, 1);

        let open = |policy| {
            let ex = bfhm_executor(&c, &q, "bfhm_idx", &config, policy).unwrap();
            ex.open_cursor(Algorithm::Bfhm, 1).unwrap()
        };
        let never = StopPolicy::never();
        // The same read without a write-back, then with the lazy one.
        let off = open(WriteBackPolicy::Off).next_batch(1, &never).unwrap();
        let mut cursor = open(WriteBackPolicy::Lazy);
        let lazy = cursor.next_batch(1, &never).unwrap();
        assert!(lazy.done);
        assert_eq!(lazy.results, off.results);
        let flush = lazy.metrics.delta_since(&off.metrics);
        assert_eq!(
            (flush.rpc_calls, flush.kv_reads, flush.kv_writes),
            (2, row_reads, 2),
            "one get of R2's bucket row, one write of its blob and record"
        );
        assert_eq!(
            bucket_row_cost(&c, "R2", 0).0,
            0,
            "the record was written back"
        );
        let again = cursor.next_batch(1, &never).unwrap();
        assert!(again.results.is_empty());
        assert_eq!(
            again.metrics,
            Default::default(),
            "a second flush bills nothing"
        );
    }

    #[test]
    fn offline_compaction_with_threshold() {
        let (c, q) = running_example_cluster();
        let _config = build(&c, &q);
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R1").unwrap();
        // Two inserts into bucket 0 (scores >= 0.9).
        for (key, score) in [(b"x1", 0.95), (b"x2", 0.96)] {
            let ts = c.next_ts();
            insert_record(&maintainer, key, b"a", score, ts);
        }
        // Threshold 3: nothing compacts.
        let n = compact_if_pending(&c, "bfhm_idx", "R1", BlobCodec::Golomb, 3).unwrap();
        assert_eq!(n, 0);
        // Threshold 2: bucket 0 compacts.
        let n = compact_if_pending(&c, "bfhm_idx", "R1", BlobCodec::Golomb, 2).unwrap();
        assert_eq!(n, 2);
        let n_again = compact_if_pending(&c, "bfhm_idx", "R1", BlobCodec::Golomb, 1).unwrap();
        assert_eq!(n_again, 0, "records were purged");
    }

    #[test]
    fn insert_into_empty_bucket_materializes_blob() {
        let (c, q) = running_example_cluster();
        let config = build(&c, &q);
        // R2 has no bucket 1 (no scores in [0.8, 0.9)); insert one.
        let ts = c.next_ts();
        c.client()
            .mutate_row(
                "r2",
                b"r2_88",
                vec![
                    Mutation::put_at("d", b"jk", b"a".to_vec(), ts),
                    Mutation::put_at("d", b"score", 0.85f64.to_be_bytes().to_vec(), ts),
                ],
            )
            .unwrap();
        let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
        insert_record(&maintainer, b"r2_88", b"a", 0.85, ts);
        let got = bfhm_run(&c, &q, "bfhm_idx", &config, WriteBackPolicy::Eager).unwrap();
        // a-join: r1_10 (1.00) × r2_88 (0.85) = 1.85 is the new top.
        assert!((got.results[0].score - 1.85).abs() < 1e-9);
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
    }

    /// Stored mutation records of `label` in `bucket`, and the KV reads a
    /// fetch of the bucket row bills.
    fn bucket_row_cost(c: &Cluster, label: &str, bucket: u32) -> (usize, u64) {
        let before = c.metrics().snapshot();
        let client = c.client();
        let family = client
            .projection("bfhm_idx", Some(&[label.to_owned()]))
            .unwrap();
        let mut batch = RowBatch::new();
        let row = client.get_into(&mut batch, &family, &blob_row_key(bucket));
        let pending = row.map_or(0, |row| {
            row.family_cells(label)
                .filter(|cell| parse_record_qualifier(cell.qualifier).is_some())
                .count()
        });
        (
            pending,
            c.metrics().snapshot().delta_since(&before).kv_reads,
        )
    }

    /// A bucket whose replay deletes its last tuple is written back like
    /// any other — under every policy. It used to keep its records (only
    /// the lazy path had the empty-bucket arm), so each later read fetched,
    /// replayed and paid for them again.
    #[test]
    fn a_bucket_emptied_by_deletes_is_compacted_under_every_policy() {
        use crate::maintenance::MaintainedSide;
        use rj_store::region::TOMBSTONE_GRACE_TICKS;
        for policy in [
            WriteBackPolicy::Eager,
            WriteBackPolicy::Lazy,
            WriteBackPolicy::Off,
        ] {
            let (c, q) = running_example_cluster();
            let config = build(&c, &q);
            let maintainer = BfhmMaintainer::attach(&c, "bfhm_idx", "R2").unwrap();
            let side = MaintainedSide::new(&c, q.right.clone()).with_bfhm(maintainer);
            // R2 has no tuple in bucket 1 (scores in [0.8, 0.9)): this
            // insert and delete are all the bucket holds, and cancel.
            side.insert(b"r2_88", b"a", 0.85, vec![]).unwrap();
            side.delete(b"r2_88").unwrap();
            assert_eq!(bucket_row_cost(&c, "R2", 1), (2, 2), "{policy:?}");

            let want = oracle::topk(&c, &q).unwrap();
            let got = bfhm_run(&c, &q, "bfhm_idx", &config, policy).unwrap();
            assert_eq!(got.results, want, "{policy:?}");
            if policy == WriteBackPolicy::Off {
                // The offline sweep is this policy's write-back.
                let n = compact_if_pending(&c, "bfhm_idx", "R2", config.codec, 1).unwrap();
                assert_eq!(n, 2);
            }
            let (pending, _) = bucket_row_cost(&c, "R2", 1);
            assert_eq!(pending, 0, "{policy:?}: consumed records are purged");

            // Once the tombstones' grace window has passed, the next write
            // to the bucket row drops them: the row then holds that
            // write's record and nothing else.
            for _ in 0..=TOMBSTONE_GRACE_TICKS {
                c.next_ts();
            }
            side.insert(b"r2_89", b"zz", 0.86, vec![]).unwrap();
            assert_eq!(bucket_row_cost(&c, "R2", 1), (1, 1), "{policy:?}");
            let again = bfhm_run(&c, &q, "bfhm_idx", &config, policy).unwrap();
            assert_eq!(again.results, want, "{policy:?}: `zz` joins nothing");
            assert!(
                again.metrics.kv_reads < got.metrics.kv_reads,
                "{policy:?}: second read {} KVs, first {}",
                again.metrics.kv_reads,
                got.metrics.kv_reads
            );
        }
    }
}
