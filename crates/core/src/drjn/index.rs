//! DRJN index creation: the 2-D (score × join-partition) count matrix,
//! stored one row per score bucket with one column per partition.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper, Reducer};
use rj_mapreduce::MapReduceEngine;
use rj_sketch::hist2d::partition_for;
use rj_sketch::histogram::ScoreHistogram;
use rj_store::keys;
use rj_store::Bytes;

use crate::error::Result;
use crate::indexutil::{index_put, BuildStats};
use crate::query::{JoinSide, RankJoinQuery};

use super::DrjnConfig;

/// Build statistics for the DRJN index.
pub type DrjnBuildStats = BuildStats;

/// Canonical index-table name for a query pair.
pub fn index_table_name(query: &RankJoinQuery) -> String {
    format!("drjn__{}__{}", query.left.label, query.right.label)
}

/// Row key of one score-bucket row.
pub(crate) fn bucket_row_key(bucket: u32) -> Vec<u8> {
    keys::encode_u32(bucket).to_vec()
}

struct CellCountMapper {
    side: JoinSide,
    hist: ScoreHistogram,
    partitions: u32,
}

impl Mapper for CellCountMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let Some(row) = input.row() else { return };
        let Some((join_value, score)) = self.side.extract(row) else {
            return;
        };
        let bucket = self.hist.bucket_of(score);
        let partition = partition_for(&join_value, self.partitions);
        let key = keys::composite(&[&keys::encode_u32(bucket), &keys::encode_u32(partition)]);
        out.emit(key, 1u64.to_be_bytes().to_vec());
    }
}

struct CellSumReducer {
    /// The side's label, the index family: one handle for the whole job.
    label: Arc<str>,
}

impl Reducer for CellSumReducer {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let total: u64 = values
            .iter()
            .filter_map(|v| v.as_slice().try_into().ok().map(u64::from_be_bytes))
            .sum();
        // key = bucket|partition → row key = bucket, qualifier = partition.
        let Some(bucket) = keys::decode_u32(&key[..4]) else {
            return;
        };
        let partition = &key[5..9];
        out.put(
            bucket_row_key(bucket),
            index_put(&self.label, partition, Bytes::from(total.to_be_bytes())),
        );
    }
}

/// Builds the DRJN matrices for both sides of `query` into `table` (one
/// MR job per side; the matrix is tiny — a single region suffices).
pub fn build_pair(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    table: &str,
    config: &DrjnConfig,
) -> Result<BuildStats> {
    let cluster = engine.cluster();
    cluster.create_table(
        table,
        &[query.left.label.as_str(), query.right.label.as_str()],
    )?;
    let hist = ScoreHistogram::new(config.num_buckets);
    let mut stats = BuildStats::default();
    for side in [&query.left, &query.right] {
        let spec = JobSpec::new(
            &format!("drjn-build-{}", side.label),
            JobInput::Tables(vec![TableInput::projected(
                &side.table,
                &[&side.join_col.0, &side.score_col.0],
            )]),
            cluster.num_nodes(),
        )
        .put_table(table);
        let side_cl = side.clone();
        let label: Arc<str> = side.label.as_str().into();
        let partitions = config.num_partitions;
        let result = engine.run(
            &spec,
            &move || {
                Box::new(CellCountMapper {
                    side: side_cl.clone(),
                    hist,
                    partitions,
                })
            },
            Some(&move || {
                Box::new(CellSumReducer {
                    label: Arc::clone(&label),
                })
            }),
            // The combiner collapses per-mapper duplicates — counts, so
            // the same reducer logic works (it puts, which is wrong for a
            // combiner; use a plain summing combiner instead).
            None,
        )?;
        stats.absorb(result.counters);
    }
    stats.index_bytes = cluster.table(table)?.disk_size();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::running_example_cluster;

    #[test]
    fn matrix_counts_match_data() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        let config = DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        };
        build_pair(&engine, &q, "drjn_idx", &config).unwrap();

        // R1 bucket 1 (scores [0.8, 0.9)) holds r1_1 (d), r1_4 (d),
        // r1_7 (b): counts 2 in partition(d), 1 in partition(b).
        let client = c.client();
        let row = client.get("drjn_idx", &bucket_row_key(1)).unwrap().unwrap();
        let pd = partition_for(b"d", 64);
        let pb = partition_for(b"b", 64);
        let count = |p: u32| -> u64 {
            row.value("R1", &keys::encode_u32(p))
                .map(|v| u64::from_be_bytes(v.as_ref().try_into().unwrap()))
                .unwrap_or(0)
        };
        if pd != pb {
            assert_eq!(count(pd), 2);
            assert_eq!(count(pb), 1);
        } else {
            assert_eq!(count(pd), 3, "d and b collided into one partition");
        }

        // Total counts across all rows equal the relation sizes.
        let total: u64 = (0..10)
            .filter_map(|b| client.get("drjn_idx", &bucket_row_key(b)).unwrap())
            .flat_map(|r| {
                r.family_cells("R2")
                    .map(|cell| u64::from_be_bytes(cell.value.as_ref().try_into().unwrap()))
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn index_is_tiny() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        let stats = build_pair(&engine, &q, "drjn_idx", &DrjnConfig::default()).unwrap();
        // The paper reports DRJN indices of hundreds of kB vs GB for the
        // others; here: strictly less than the base data.
        let base = c.table("r1").unwrap().disk_size() + c.table("r2").unwrap().disk_size();
        assert!(stats.index_bytes < base);
    }
}
