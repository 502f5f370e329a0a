//! The Hive-style baseline (paper §3.1).
//!
//! "In Hive, rank join processing consists of two MapReduce jobs plus a
//! final stage. The first job computes and materializes the join result
//! set, while the second one computes the score of the join result set
//! tuples and stores them sorted on their score; a third, non-MapReduce
//! stage then fetches the k highest-ranked results from the final list."
//!
//! Faithfully expensive: mappers ship **whole rows** (no early
//! projection), the full join result is materialized to the DFS, and the
//! global sort funnels everything through a single reducer — which is why
//! Hive trails every other approach by orders of magnitude in the paper's
//! Figures 7–8.

use rj_mapreduce::job::{JobInput, JobSpec, OutputSink, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper, Reducer};
use rj_mapreduce::MapReduceEngine;
use rj_store::keys;

use crate::codec::{self, TaggedTuple};
use crate::error::Result;
use crate::query::RankJoinQuery;
use crate::result::{JoinTuple, TopK};
use crate::stats::Extras;

/// DFS path of the materialized join result.
const JOINED_FILE: &str = "hive/__joined";
/// DFS path of the score-sorted join result.
const SORTED_FILE: &str = "hive/__sorted";

/// Serializes every cell of a row — Hive's `SELECT *` shipping.
fn full_row_payload(row: rj_store::row::RowRef<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.weight() as usize + 16);
    for cell in row.cells() {
        codec::put_field(&mut out, cell.family.as_bytes());
        codec::put_field(&mut out, cell.qualifier);
        codec::put_field(&mut out, cell.value);
    }
    out
}

struct JoinMapper {
    query: RankJoinQuery,
}

impl Mapper for JoinMapper {
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
        let tagged = TaggedTuple {
            side: side_idx,
            row_key: row.key.to_vec(),
            score,
            payload: full_row_payload(row),
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
                // The joined record drags both full-row payloads along —
                // Hive materializes complete result tuples.
                let mut rec = codec::encode_join_tuple(&tuple);
                codec::put_field(&mut rec, &l.payload);
                codec::put_field(&mut rec, &r.payload);
                out.emit(key.to_vec(), rec);
            }
        }
    }
}

/// Sort key: order-inverted score, then the base keys for determinism.
fn sort_key(t: &JoinTuple) -> Vec<u8> {
    let mut k = Vec::with_capacity(16 + t.left_key.len() + t.right_key.len());
    k.extend_from_slice(&keys::encode_score_desc(t.score));
    k.extend_from_slice(&t.left_key);
    k.push(0);
    k.extend_from_slice(&t.right_key);
    k
}

struct SortMapper;

impl Mapper for SortMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let InputRecord::Pair { value, .. } = input else {
            return;
        };
        let Ok(tuple) = codec::decode_join_tuple(value) else {
            return;
        };
        out.emit(sort_key(&tuple), value.to_vec());
    }
}

struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        for v in values {
            out.emit(key.to_vec(), v.clone());
        }
    }
}

/// Executes the Hive-style rank join for the top `k` of `query`: the
/// answer and the run's counters. A run goes through the executor, whose
/// cursor meters it ([`crate::cursor`]).
pub(crate) fn run(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    k: usize,
) -> Result<(Vec<JoinTuple>, Extras)> {
    // Job 1: materialize the join result.
    let join_spec = JobSpec::new(
        "hive-join",
        JobInput::two_tables(
            TableInput::all(&query.left.table),
            TableInput::all(&query.right.table),
        ),
        engine.cluster().num_nodes(),
    )
    .sink(OutputSink::File(JOINED_FILE.into()));
    let q1 = query.clone();
    let q2 = query.clone();
    let join_result = engine.run(
        &join_spec,
        &move || Box::new(JoinMapper { query: q1.clone() }),
        Some(&move || Box::new(JoinReducer { query: q2.clone() })),
        None,
    )?;

    // Job 2: global sort on score (single reducer, as Hive's ORDER BY).
    let sort_spec = JobSpec::new("hive-sort", JobInput::file(JOINED_FILE), 1)
        .sink(OutputSink::File(SORTED_FILE.into()));
    let sort_result = engine.run(
        &sort_spec,
        &|| Box::new(SortMapper),
        Some(&|| Box::new(IdentityReducer)),
        None,
    )?;

    // Final non-MapReduce stage: fetch the top-k prefix.
    let fetched = engine.fetch_file_prefix(SORTED_FILE, k)?;
    let mut top = TopK::new(k);
    for (_k, v) in &fetched {
        top.offer(codec::decode_join_tuple(v)?);
    }

    engine.dfs().remove(JOINED_FILE);
    engine.dfs().remove(SORTED_FILE);

    let extras = Extras::Hive {
        mr_jobs: 2,
        join_result_records: join_result.counters.output_records,
        sorted_records: sort_result.counters.output_records,
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
    use rj_store::cell::Mutation;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;

    fn setup(
        rows_l: &[(&str, &[u8], f64)],
        rows_r: &[(&str, &[u8], f64)],
    ) -> (Cluster, RankJoinQuery) {
        let c = Cluster::new(3, CostModel::test());
        c.create_table("l", &["d"]).unwrap();
        c.create_table("r", &["d"]).unwrap();
        let client = c.client();
        for (rows, t) in [(rows_l, "l"), (rows_r, "r")] {
            for &(k, j, s) in rows {
                client
                    .mutate_row(
                        t,
                        k.as_bytes(),
                        vec![
                            Mutation::put("d", b"jk", j.to_vec()),
                            Mutation::put("d", b"score", s.to_be_bytes().to_vec()),
                            Mutation::put("d", b"comment", b"some wide filler text".to_vec()),
                        ],
                    )
                    .unwrap();
            }
        }
        let q = RankJoinQuery::new(
            JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
            3,
            ScoreFn::Sum,
        );
        (c, q)
    }

    /// `q`'s Hive run through an executor.
    fn execute(c: &Cluster, q: &RankJoinQuery) -> crate::stats::QueryOutcome {
        let ex = RankJoinExecutor::new(c, q.clone());
        ex.execute(Algorithm::Hive).unwrap()
    }

    #[test]
    fn matches_oracle() {
        let (c, q) = setup(
            &[
                ("l1", b"a", 0.9),
                ("l2", b"b", 0.8),
                ("l3", b"a", 0.3),
                ("l4", b"c", 0.6),
            ],
            &[
                ("r1", b"a", 0.7),
                ("r2", b"b", 0.95),
                ("r3", b"c", 0.2),
                ("r4", b"a", 0.5),
            ],
        );
        let got = execute(&c, &q);
        let want = oracle::topk(&c, &q).unwrap();
        assert_eq!(got.results, want);
        assert_eq!(got.algorithm, "HIVE");
    }

    #[test]
    fn empty_join_is_empty() {
        let (c, q) = setup(&[("l1", b"a", 0.9)], &[("r1", b"z", 0.7)]);
        assert!(execute(&c, &q).results.is_empty());
    }

    #[test]
    fn charges_two_jobs_and_cleans_up() {
        let (c, q) = setup(&[("l1", b"a", 0.9)], &[("r1", b"a", 0.7)]);
        let got = execute(&c, &q);
        assert!(matches!(got.extras, Extras::Hive { mr_jobs: 2, .. }));
        assert!(got.metrics.kv_reads >= 6, "scans both tables fully");
        let engine = MapReduceEngine::new(c.clone());
        run(&engine, &q, q.k).unwrap();
        assert!(engine.dfs().read(JOINED_FILE).is_none());
        assert!(engine.dfs().read(SORTED_FILE).is_none());
    }
}
