//! BFHM index creation (paper Algorithm 5).
//!
//! One MapReduce job per relation: mappers partition tuples into score
//! buckets; each reducer builds the bucket's hybrid filter, emits one
//! reverse-mapping put per tuple (`bucket|bitpos → {rowkey: join value,
//! score}`) and finally the bucket blob row. When no filter size is
//! pinned, a counting pre-pass sizes `m` for the most heavily populated
//! bucket across **both** relations at the target false-positive rate
//! (§7.1's configuration rule) — both sides must share `m` for bitmaps to
//! be AND-able.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, OutputSink, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper, Reducer};
use rj_mapreduce::MapReduceEngine;
use rj_sketch::blob::{BfhmBlob, BlobCodec};
use rj_sketch::histogram::ScoreHistogram;
use rj_sketch::hybrid::HybridFilter;
use rj_store::cell::Mutation;
use rj_store::client::Client;
use rj_store::keys;
use rj_store::row::{RowBatch, RowRef};

use crate::codec;
use crate::error::{RankJoinError, Result};
use crate::indexutil::{index_put, BuildStats};
use crate::query::{JoinSide, RankJoinQuery};

use super::BfhmConfig;

/// Build statistics for the BFHM index.
pub type BfhmBuildStats = BuildStats;

/// Canonical index-table name for a query pair.
pub fn index_table_name(query: &RankJoinQuery) -> String {
    format!("bfhm__{}__{}", query.left.label, query.right.label)
}

/// Row key of a bucket blob row.
pub(crate) fn blob_row_key(bucket: u32) -> [u8; 4] {
    keys::encode_u32(bucket)
}

/// Row key of a reverse-mapping row (`bucket|bitpos`, §5.1): the
/// [`keys::composite`] of the two encoded numbers, on the stack.
pub(crate) fn reverse_row_key(bucket: u32, pos: u32) -> [u8; 9] {
    let mut key = [b'|'; 9];
    key[..4].copy_from_slice(&keys::encode_u32(bucket));
    key[5..].copy_from_slice(&keys::encode_u32(pos));
    key
}

/// Qualifier of the blob cell inside a bucket row.
pub(crate) const BLOB_QUALIFIER: &[u8] = b"blob";

/// Row key of the index metadata row (sorts after all bucket rows).
pub(crate) const META_ROW: &[u8] = b"\xff\xff\xffmeta";
/// Metadata qualifier: filter size `m` (u64 BE).
pub(crate) const META_M: &[u8] = b"m";
/// Metadata qualifier: bucket count (u32 BE).
pub(crate) const META_BUCKETS: &[u8] = b"buckets";

struct BucketPartitionMapper {
    side: JoinSide,
    hist: ScoreHistogram,
}

impl Mapper for BucketPartitionMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let Some(row) = input.row() else { return };
        let Some((join_value, score)) = self.side.extract(row) else {
            return;
        };
        let bucket = self.hist.bucket_of(score);
        let mut value = Vec::with_capacity(row.key.len() + join_value.len() + 16);
        codec::put_f64(&mut value, score);
        codec::put_field(&mut value, row.key);
        codec::put_field(&mut value, &join_value);
        out.emit(keys::encode_u32(bucket).to_vec(), value);
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let total: u64 = values
            .iter()
            .filter_map(|v| v.as_slice().try_into().ok().map(u64::from_be_bytes))
            .sum();
        out.emit(key.to_vec(), total.to_be_bytes().to_vec());
    }
}

struct BucketBuildReducer {
    /// The side's label, the index family: one handle for the whole job.
    label: Arc<str>,
    m: usize,
    codec: BlobCodec,
}

impl Reducer for BucketBuildReducer {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let Some(bucket) = keys::decode_u32(key) else {
            return;
        };
        let mut filter = HybridFilter::new(self.m);
        let mut min_score = f64::INFINITY;
        let mut max_score = f64::NEG_INFINITY;
        for v in values {
            let mut r = codec::Reader::new(v);
            let (Ok(score), Ok(row_key), Ok(join_value)) = (r.f64(), r.field(), r.field()) else {
                continue;
            };
            let pos = filter.insert(join_value);
            min_score = min_score.min(score);
            max_score = max_score.max(score);
            // Reverse-mapping row (Algorithm 5 line 17).
            out.put(
                reverse_row_key(bucket, pos).to_vec(),
                index_put(
                    &self.label,
                    row_key,
                    codec::encode_value_score(join_value, score),
                ),
            );
        }
        // Bucket blob row (Algorithm 5 line 19).
        let blob = BfhmBlob::new(filter, min_score, max_score);
        out.put(
            blob_row_key(bucket).to_vec(),
            index_put(&self.label, BLOB_QUALIFIER, blob.encode(self.codec).into()),
        );
    }

    fn state_bytes(&self) -> u64 {
        // Uncompressed hybrid-filter footprint: bitmap + counter table —
        // the §7.2 reducer memory metric.
        (self.m / 8) as u64
    }
}

/// Sizes `m` via a counting job: the most heavily populated bucket of
/// either relation, at `target_fpp` (single-hash filter: `m = n / fpp`).
fn auto_filter_bits(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    config: &BfhmConfig,
    stats: &mut BuildStats,
) -> Result<usize> {
    let hist = ScoreHistogram::new(config.num_buckets);
    let spec = JobSpec::new(
        "bfhm-count",
        JobInput::two_tables(
            TableInput::projected(
                &query.left.table,
                &[&query.left.join_col.0, &query.left.score_col.0],
            ),
            TableInput::projected(
                &query.right.table,
                &[&query.right.join_col.0, &query.right.score_col.0],
            ),
        ),
        engine.cluster().num_nodes(),
    )
    .sink(OutputSink::Collect);
    let left = query.left.clone();
    let right = query.right.clone();
    let left_table = query.left.table.clone();
    let result = engine.run(
        &spec,
        &move || {
            // The mapper tags by side; it must handle rows of either
            // table, so pick the matching descriptor lazily.
            Box::new(DualCountMapper {
                left: left.clone(),
                right: right.clone(),
                left_table: left_table.clone(),
                hist,
            })
        },
        Some(&|| Box::new(SumReducer)),
        Some(&|| Box::new(SumReducer)),
    )?;
    stats.absorb(result.counters);
    let max_bucket = result
        .collected
        .iter()
        .filter_map(|(_k, v)| v.as_slice().try_into().ok().map(u64::from_be_bytes))
        .max()
        .unwrap_or(0);
    Ok((((max_bucket.max(1) as f64) / config.target_fpp).ceil() as usize).max(64))
}

struct DualCountMapper {
    left: JoinSide,
    right: JoinSide,
    left_table: String,
    hist: ScoreHistogram,
}

impl Mapper for DualCountMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let (Some(table), Some(row)) = (input.table(), input.row()) else {
            return;
        };
        let (tag, side) = if table == self.left_table {
            (0u8, &self.left)
        } else {
            (1u8, &self.right)
        };
        let Some((_join, score)) = side.extract(row) else {
            return;
        };
        let bucket = self.hist.bucket_of(score);
        let mut key = Vec::with_capacity(5);
        key.push(tag);
        key.extend_from_slice(&keys::encode_u32(bucket));
        out.emit(key, 1u64.to_be_bytes().to_vec());
    }
}

/// Builds the BFHM index for both sides of `query` into `table`.
///
/// Returns the build statistics and the filter size `m` actually used.
pub fn build_pair(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    table: &str,
    config: &BfhmConfig,
) -> Result<(BuildStats, usize)> {
    if config.num_buckets == 0 {
        return Err(RankJoinError::Internal("BFHM needs >= 1 bucket"));
    }
    let cluster = engine.cluster();
    let mut stats = BuildStats::default();
    let m = match config.filter_bits {
        Some(m) => m.max(8),
        None => auto_filter_bits(engine, query, config, &mut stats)?,
    };

    // Pre-split on bucket-number boundaries (the key domain is known).
    let pieces = cluster.num_nodes() * 2;
    let splits: Vec<Vec<u8>> = (1..pieces)
        .map(|i| blob_row_key(config.num_buckets * i as u32 / pieces as u32))
        .filter(|k| k != &blob_row_key(0))
        .map(|k| k.to_vec())
        .collect();
    cluster.create_table_with_splits(
        table,
        &[query.left.label.as_str(), query.right.label.as_str()],
        &splits,
    )?;

    let hist = ScoreHistogram::new(config.num_buckets);
    for side in [&query.left, &query.right] {
        let spec = JobSpec::new(
            &format!("bfhm-build-{}", side.label),
            JobInput::Tables(vec![TableInput::projected(
                &side.table,
                &[&side.join_col.0, &side.score_col.0],
            )]),
            cluster.num_nodes(),
        )
        .put_table(table);
        let side_cl = side.clone();
        let label: Arc<str> = side.label.as_str().into();
        let codec_sel = config.codec;
        let result = engine.run(
            &spec,
            &move || {
                Box::new(BucketPartitionMapper {
                    side: side_cl.clone(),
                    hist,
                })
            },
            Some(&move || {
                Box::new(BucketBuildReducer {
                    label: Arc::clone(&label),
                    m,
                    codec: codec_sel,
                })
            }),
            None,
        )?;
        stats.absorb(result.counters);
    }

    // Metadata row (under both families so either side's maintainer can
    // read it): the query processor and the §6 maintainer need m and the
    // bucket count.
    let client = cluster.client();
    let mut meta_muts = Vec::new();
    for label in [&query.left.label, &query.right.label] {
        meta_muts.push(Mutation::put(
            label,
            META_M,
            (m as u64).to_be_bytes().to_vec(),
        ));
        meta_muts.push(Mutation::put(
            label,
            META_BUCKETS,
            keys::encode_u32(config.num_buckets).to_vec(),
        ));
    }
    client.mutate_row(table, META_ROW, meta_muts)?;

    stats.index_bytes = cluster.table(table)?.disk_size();
    Ok((stats, m))
}

/// Reads `(m, num_buckets)` from the index metadata row, into `batch`.
pub(crate) fn read_meta(
    client: &Client,
    batch: &mut RowBatch,
    table: &str,
    left_label: &str,
) -> Result<(usize, u32)> {
    let all = client.projection(table, None)?;
    meta_of(client.get_into(batch, &all, META_ROW), left_label)
}

/// `(m, num_buckets)` of a metadata row read under `left_label`.
pub(crate) fn meta_of(row: Option<RowRef<'_>>, left_label: &str) -> Result<(usize, u32)> {
    let row = row.ok_or(RankJoinError::Internal("BFHM meta row missing"))?;
    let m = row
        .value(left_label, META_M)
        .and_then(|v| v.as_ref().try_into().ok().map(u64::from_be_bytes))
        .ok_or(RankJoinError::Internal("BFHM meta m missing"))?;
    let buckets = row
        .value(left_label, META_BUCKETS)
        .and_then(keys::decode_u32)
        .ok_or(RankJoinError::Internal("BFHM meta buckets missing"))?;
    Ok((m as usize, buckets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::running_example_cluster;

    #[test]
    fn build_writes_blobs_reverse_rows_and_meta() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: Some(1 << 12),
            ..Default::default()
        };
        let (stats, m) = build_pair(&engine, &q, "bfhm_idx", &config).unwrap();
        assert_eq!(m, 1 << 12);
        assert!(stats.index_bytes > 0);
        assert_eq!(stats.jobs.len(), 2, "no counting job when m is pinned");

        let (meta_m, meta_buckets) =
            read_meta(&c.client(), &mut RowBatch::new(), "bfhm_idx", "R1").unwrap();
        assert_eq!(meta_m, m);
        assert_eq!(meta_buckets, 10);

        // Fig. 5: R1 bucket 0 holds r1_02 (c, 0.93) and r1_10 (a, 1.00).
        let client = c.client();
        let row = client.get("bfhm_idx", &blob_row_key(0)).unwrap().unwrap();
        let blob_bytes = row.value("R1", BLOB_QUALIFIER).expect("R1 blob");
        let blob = BfhmBlob::decode(blob_bytes).unwrap();
        assert_eq!(blob.min_score, 0.93);
        assert_eq!(blob.max_score, 1.00);
        assert_eq!(blob.filter.n_inserted(), 2);
        assert_eq!(blob.filter.set_bit_count(), 2, "a and c: distinct bits");

        // R2 bucket 0 holds r2_02 (b, 0.91), r2_11 (b, 0.92): one bit,
        // counter 2.
        let blob2 = BfhmBlob::decode(row.value("R2", BLOB_QUALIFIER).expect("R2 blob")).unwrap();
        assert_eq!(blob2.min_score, 0.91);
        assert_eq!(blob2.max_score, 0.92);
        let pos = blob2.filter.position(b"b");
        assert_eq!(blob2.filter.counter(pos), 2);

        // Reverse row for that bit: two cells (both b tuples).
        let rev = client
            .get("bfhm_idx", &reverse_row_key(0, pos))
            .unwrap()
            .expect("reverse row");
        assert_eq!(rev.family_cells("R2").count(), 2);
        let cell = rev.family_cells("R2").next().unwrap();
        let (join, score) = codec::decode_values_score(cell.value, 1).unwrap();
        assert_eq!(join.collect::<Vec<_>>(), [b"b"]);
        assert!(score == 0.91 || score == 0.92);
    }

    #[test]
    fn auto_sizing_runs_count_job() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c);
        let config = BfhmConfig {
            num_buckets: 10,
            filter_bits: None,
            target_fpp: 0.05,
            ..Default::default()
        };
        let (stats, m) = build_pair(&engine, &q, "bfhm_idx", &config).unwrap();
        assert_eq!(stats.jobs.len(), 3, "count job + two build jobs");
        // Most populated bucket: R2 bucket 6 has 4 tuples → m >= 4/0.05.
        assert!(m >= 80, "m = {m}");
    }

    #[test]
    fn bucket_rows_sort_before_their_reverse_rows() {
        // Key-layout invariant: blob(b) < reverse(b, pos) < blob(b+1),
        // and META_ROW after everything.
        let blob1 = blob_row_key(1);
        let rev1 = reverse_row_key(1, 999);
        let blob2 = blob_row_key(2);
        assert!(blob1[..] < rev1[..]);
        assert!(rev1[..] < blob2[..]);
        assert_eq!(
            rev1.to_vec(),
            keys::composite(&[&keys::encode_u32(1), &keys::encode_u32(999)])
        );
        // META_ROW sorts after any realistic bucket (buckets are far below
        // 2^24, so their keys start with a 0x00 byte).
        assert!(META_ROW > &reverse_row_key(1 << 20, u32::MAX)[..]);
    }
}
