//! The Pig-style baseline (paper §3.1).
//!
//! "Pig takes a smarter approach. Its query plan optimizer pushes
//! projections and top-k (STOP AFTER) operators as early in the physical
//! plan as possible, and takes extra measures to better balance the load
//! caused by the join result ordering (ORDER BY) operator."
//!
//! Three MapReduce jobs:
//! 1. **join** — mappers project early (only join value, score, row key
//!    survive), reducers emit the joined records to a DFS file;
//! 2. **sample** — maps sample the joined file, a reducer computes score
//!    quantiles for a balanced range partitioner;
//! 3. **order** — maps key records by order-inverted score, *combiners*
//!    trim each map task's output to its local top-k, range-partitioned
//!    reducers emit their leading k records; the driver concatenates the
//!    (globally ordered) reducer outputs and keeps k.
//!
//! The paper's text ends job 3 in "a sole reducer"; with the combiner trim
//! in place both shapes ship only `O(k · tasks)` records — we keep the
//! balanced multi-reducer variant the sampler exists for, and merge at the
//! driver.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, OutputSink, TableInput};
use rj_mapreduce::partition::RangePartitioner;
use rj_mapreduce::task::{Emitter, InputRecord, Mapper, Reducer};
use rj_mapreduce::MapReduceEngine;
use rj_store::keys;

use crate::codec::{self, TaggedTuple};
use crate::error::Result;
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopK};
use crate::stats::Extras;

/// DFS path of the (projected) join result.
const JOINED_FILE: &str = "pig/__joined";
/// Sampling rate of the quantile job: one in `SAMPLE_EVERY` records.
const SAMPLE_EVERY: u64 = 100;

struct ProjectingJoinMapper {
    query: RankJoinQuery,
}

impl Mapper for ProjectingJoinMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let (Some(table), Some(row)) = (input.table(), input.row()) else {
            return;
        };
        let (side_idx, side) = if table == self.query.left.table {
            (0u8, &self.query.left)
        } else {
            (1u8, &self.query.right)
        };
        let Some((join_value, score)) = side.extract(row) else {
            return;
        };
        // Early projection: no payload beyond key + score.
        let tagged = TaggedTuple {
            side: side_idx,
            row_key: row.key.to_vec(),
            score,
            payload: Vec::new(),
        };
        out.emit(join_value, tagged.encode());
    }
}

struct JoinReducer {
    query: RankJoinQuery,
}

impl Reducer for JoinReducer {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for v in values {
            match TaggedTuple::decode(v) {
                Ok(t) if t.side == 0 => left.push(t),
                Ok(t) => right.push(t),
                Err(_) => {}
            }
        }
        for l in &left {
            for r in &right {
                let tuple = JoinTuple {
                    left_key: l.row_key.clone(),
                    right_key: r.row_key.clone(),
                    join_value: key.to_vec(),
                    left_score: l.score,
                    right_score: r.score,
                    inner: Vec::new(),
                    score: self.query.score_fn.combine(l.score, r.score),
                };
                out.emit(key.to_vec(), codec::encode_join_tuple(&tuple));
            }
        }
    }
}

/// Order-job key: inverted score then base keys (deterministic total
/// order matching [`JoinTuple::rank_cmp`] for fixed-width keys).
fn order_key(t: &JoinTuple) -> Vec<u8> {
    let mut k = Vec::with_capacity(16 + t.left_key.len() + t.right_key.len());
    k.extend_from_slice(&keys::encode_score_desc(t.score));
    k.extend_from_slice(&t.left_key);
    k.push(0);
    k.extend_from_slice(&t.right_key);
    k
}

struct SampleMapper {
    seen: u64,
}

impl Mapper for SampleMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let InputRecord::Pair { value, .. } = input else {
            return;
        };
        if self.seen.is_multiple_of(SAMPLE_EVERY) {
            if let Ok(t) = codec::decode_join_tuple(value) {
                out.emit(b"sample".to_vec(), order_key(&t));
            }
        }
        self.seen += 1;
    }
}

struct QuantileReducer {
    partitions: usize,
}

impl Reducer for QuantileReducer {
    fn reduce(&mut self, _key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        let mut sample: Vec<Vec<u8>> = values.to_vec();
        sample.sort();
        sample.dedup();
        if sample.is_empty() {
            return;
        }
        for i in 1..self.partitions {
            let idx = (i * sample.len() / self.partitions).min(sample.len() - 1);
            out.emit(b"boundary".to_vec(), sample[idx].clone());
        }
    }
}

struct OrderMapper;

impl Mapper for OrderMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let InputRecord::Pair { value, .. } = input else {
            return;
        };
        if let Ok(t) = codec::decode_join_tuple(value) {
            out.emit(order_key(&t), value.to_vec());
        }
    }
}

/// Emits only the first `k` records it sees; keys arrive in ascending
/// order (descending score), so those are the best. Used both as the
/// order-job combiner ("combiners take over producing a local top-k
/// list") and as its reducer.
struct LeadingK {
    remaining: usize,
}

impl Reducer for LeadingK {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        for v in values {
            if self.remaining == 0 {
                return;
            }
            out.emit(key.to_vec(), v.clone());
            self.remaining -= 1;
        }
    }
}

/// Executes the Pig-style rank join for the top `k` of `query`: the
/// answer and the run's counters. A run goes through the executor, whose
/// cursor meters it ([`crate::cursor`]).
pub(crate) fn run(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    k: usize,
) -> Result<(Vec<JoinTuple>, Extras)> {
    let num_nodes = engine.cluster().num_nodes();

    // Job 1: early-projected join.
    let left_fams = [
        query.left.join_col.0.as_str(),
        query.left.score_col.0.as_str(),
    ];
    let right_fams = [
        query.right.join_col.0.as_str(),
        query.right.score_col.0.as_str(),
    ];
    let join_spec = JobSpec::new(
        "pig-join",
        JobInput::two_tables(
            TableInput::projected(&query.left.table, &left_fams),
            TableInput::projected(&query.right.table, &right_fams),
        ),
        num_nodes,
    )
    .sink(OutputSink::File(JOINED_FILE.into()));
    let q1 = query.clone();
    let q2 = query.clone();
    let join_result = engine.run(
        &join_spec,
        &move || Box::new(ProjectingJoinMapper { query: q1.clone() }),
        Some(&move || Box::new(JoinReducer { query: q2.clone() })),
        None,
    )?;

    // Job 2: sample → quantiles for the balanced partitioner.
    let sample_spec =
        JobSpec::new("pig-sample", JobInput::file(JOINED_FILE), 1).sink(OutputSink::Collect);
    let sample_result = engine.run(
        &sample_spec,
        &|| Box::new(SampleMapper { seen: 0 }),
        Some(&move || {
            Box::new(QuantileReducer {
                partitions: num_nodes,
            })
        }),
        None,
    )?;
    let boundaries: Vec<Vec<u8>> = sample_result
        .collected
        .into_iter()
        .map(|(_k, v)| v)
        .collect();

    // Job 3: balanced order-by with combiner top-k trimming.
    let order_spec = JobSpec::new("pig-order", JobInput::file(JOINED_FILE), num_nodes)
        .sink(OutputSink::Collect)
        .partitioner(Arc::new(RangePartitioner::new(boundaries)));
    let order_result = engine.run(
        &order_spec,
        &|| Box::new(OrderMapper),
        Some(&move || Box::new(LeadingK { remaining: k })),
        Some(&move || Box::new(LeadingK { remaining: k })),
    )?;

    let mut top = TopK::new(k);
    for (_k, v) in &order_result.collected {
        top.offer(codec::decode_join_tuple(v)?);
    }

    engine.dfs().remove(JOINED_FILE);

    let extras = Extras::Pig {
        mr_jobs: 3,
        join_result_records: join_result.counters.output_records,
        order_shuffle_bytes: order_result.counters.shuffle_bytes,
    };
    Ok((top.into_sorted_vec(), extras))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Algorithm, RankJoinExecutor};
    use crate::oracle;
    use crate::query::JoinSide;
    use crate::score::ScoreFn;
    use crate::stats::QueryOutcome;
    use rj_store::cell::Mutation;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;

    fn setup(n: u64) -> (Cluster, RankJoinQuery) {
        let c = Cluster::new(3, CostModel::test());
        c.create_table("l", &["d"]).unwrap();
        c.create_table("r", &["d"]).unwrap();
        let client = c.client();
        // Deterministic pseudo-random scores and join values.
        for i in 0..n {
            let j = (i * 7919 % 17).to_be_bytes();
            let s = ((i * 2654435761) % 1000) as f64 / 1000.0;
            client
                .mutate_row(
                    "l",
                    format!("l{i:04}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", j.to_vec()),
                        Mutation::put("d", b"score", s.to_be_bytes().to_vec()),
                        Mutation::put("d", b"comment", b"left filler".to_vec()),
                    ],
                )
                .unwrap();
            let j = (i * 104729 % 17).to_be_bytes();
            let s = ((i * 40503) % 1000) as f64 / 1000.0;
            client
                .mutate_row(
                    "r",
                    format!("r{i:04}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", j.to_vec()),
                        Mutation::put("d", b"score", s.to_be_bytes().to_vec()),
                        Mutation::put("d", b"comment", b"right filler".to_vec()),
                    ],
                )
                .unwrap();
        }
        let q = RankJoinQuery::new(
            JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
            5,
            ScoreFn::Sum,
        );
        (c, q)
    }

    /// `q`'s `algorithm` run through an executor.
    fn execute(c: &Cluster, q: &RankJoinQuery, algorithm: Algorithm) -> QueryOutcome {
        let ex = RankJoinExecutor::new(c, q.clone());
        ex.execute(algorithm).unwrap()
    }

    #[test]
    fn matches_oracle() {
        let (c, q) = setup(60);
        let got = execute(&c, &q, Algorithm::Pig);
        let want = oracle::topk(&c, &q).unwrap();
        assert_eq!(got.results, want);
    }

    #[test]
    fn ships_fewer_bytes_than_hive() {
        let (c, q) = setup(80);
        let pig = execute(&c, &q, Algorithm::Pig);
        let hive = execute(&c, &q, Algorithm::Hive);
        assert_eq!(pig.results, hive.results, "same answers");
        assert!(
            pig.metrics.network_bytes < hive.metrics.network_bytes,
            "pig ({}) should ship less than hive ({})",
            pig.metrics.network_bytes,
            hive.metrics.network_bytes
        );
    }

    #[test]
    fn three_jobs_charged() {
        let (c, q) = setup(20);
        let got = execute(&c, &q, Algorithm::Pig);
        assert!(matches!(got.extras, Extras::Pig { mr_jobs: 3, .. }));
    }

    #[test]
    fn tiny_inputs_with_k_larger_than_result() {
        let (c, mut q) = setup(3);
        q.k = 50;
        let got = execute(&c, &q, Algorithm::Pig);
        let want = oracle::topk(&c, &q).unwrap();
        assert_eq!(got.results, want);
    }
}
