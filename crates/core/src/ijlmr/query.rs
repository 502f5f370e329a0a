//! IJLMR query processing (paper Algorithm 2).
//!
//! A single MapReduce job over the index table: mappers compute the
//! Cartesian product of the two column families **within each row** (all
//! cells of one row share one join value), maintain an in-memory top-k,
//! and emit only their final local list; a single reducer merges the local
//! lists into the global top-k.

use rj_mapreduce::job::{JobInput, JobSpec, OutputSink, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper, Reducer};
use rj_mapreduce::MapReduceEngine;

use crate::codec;
use crate::error::{RankJoinError, Result};
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopK};
use crate::score::ScoreFn;
use crate::stats::Extras;

struct TopKMapper {
    left_family: String,
    score_fn: ScoreFn,
    top: TopK,
}

impl Mapper for TopKMapper {
    fn map(&mut self, input: InputRecord<'_>, _out: &mut Emitter) {
        let Some(row) = input.row() else { return };
        // Partition the row's cells into sides; qualifiers are base row
        // keys, values are f64 BE scores.
        let mut left: Vec<(&[u8], f64)> = Vec::new();
        let mut right: Vec<(&[u8], f64)> = Vec::new();
        for cell in row.cells() {
            let Some(bytes) = cell.value.get(..8) else {
                continue;
            };
            let score = f64::from_be_bytes(bytes.try_into().expect("8 bytes"));
            if cell.family == self.left_family {
                left.push((cell.qualifier, score));
            } else {
                right.push((cell.qualifier, score));
            }
        }
        for (lk, ls) in &left {
            for (rk, rs) in &right {
                self.top.offer(JoinTuple {
                    left_key: lk.to_vec(),
                    right_key: rk.to_vec(),
                    join_value: row.key.to_vec(),
                    left_score: *ls,
                    right_score: *rs,
                    inner: Vec::new(),
                    score: self.score_fn.combine(*ls, *rs),
                });
            }
        }
    }

    fn finish(&mut self, out: &mut Emitter) {
        // Emit the local top-k once the region is exhausted (§4.1.2: "the
        // mappers store in-memory only the top-k ranking result tuples,
        // and emit their final top-k list when their input data is
        // exhausted").
        for t in self.top.iter() {
            out.emit(b"topk".to_vec(), codec::encode_join_tuple(t));
        }
    }
}

struct MergeReducer {
    k: usize,
}

impl Reducer for MergeReducer {
    fn reduce(&mut self, _key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let mut top = TopK::new(self.k);
        for v in values {
            if let Ok(t) = codec::decode_join_tuple(v) {
                top.offer(t);
            }
        }
        for t in top.iter() {
            out.emit(b"result".to_vec(), codec::encode_join_tuple(t));
        }
    }
}

/// Executes the IJLMR rank join for the top `k` of `query` over a
/// previously built index table: the answer and the run's counters. A run
/// goes through the executor, whose cursor meters it ([`crate::cursor`]).
pub(crate) fn run(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    k: usize,
    index_table: &str,
) -> Result<(Vec<JoinTuple>, Extras)> {
    engine
        .cluster()
        .table(index_table)
        .map_err(|_| RankJoinError::MissingIndex(index_table.to_owned()))?;

    let spec = JobSpec::new(
        "ijlmr-query",
        JobInput::Tables(vec![TableInput::all(index_table)]),
        1, // "a single reducer"
    )
    .sink(OutputSink::Collect);
    let left_family = query.left.label.clone();
    let score_fn = query.score_fn;
    let result = engine.run(
        &spec,
        &move || {
            Box::new(TopKMapper {
                left_family: left_family.clone(),
                score_fn,
                top: TopK::new(k),
            })
        },
        Some(&move || Box::new(MergeReducer { k })),
        None,
    )?;

    let mut top = TopK::new(k);
    for (_k, v) in &result.collected {
        top.offer(codec::decode_join_tuple(v)?);
    }
    let extras = Extras::Ijlmr {
        mr_jobs: 1,
        map_input_records: result.counters.map_input_records,
    };
    Ok((top.into_sorted_vec(), extras))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{ijlmr_run, running_example_cluster};
    use crate::{ijlmr, oracle};

    #[test]
    fn running_example_top3() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();
        let got = ijlmr_run(&c, &q, "ijlmr_idx").unwrap();
        let scores: Vec<f64> = got.results.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
        assert_eq!(got.results, oracle::topk(&c, &q).unwrap());
    }

    #[test]
    fn matches_oracle_for_all_k() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();
        for k in [1, 2, 5, 10, 40] {
            let qk = q.with_k(k);
            let got = ijlmr_run(&c, &qk, "ijlmr_idx").unwrap();
            assert_eq!(got.results, oracle::topk(&c, &qk).unwrap(), "k={k}");
        }
    }

    #[test]
    fn missing_index_is_reported() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c);
        assert!(matches!(
            run(&engine, &q, q.k, "nope").unwrap_err(),
            RankJoinError::MissingIndex(_)
        ));
    }

    #[test]
    fn ships_only_topk_lists() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        ijlmr::build(&engine, &q, "ijlmr_idx").unwrap();
        let got = ijlmr_run(&c, &q, "ijlmr_idx").unwrap();
        // Dollar cost: the whole index is scanned (22 cells).
        assert!(got.metrics.kv_reads >= 22);
        // Bandwidth: only per-mapper top-k lists + final merge cross the
        // network — far less than shipping all 38 join pairs.
        assert!(got.metrics.network_bytes < 6000);
    }
}
