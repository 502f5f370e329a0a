//! IJLMR index creation (paper Algorithm 1).
//!
//! One map-only job per indexed relation: each mapper scans its region and
//! puts `{join value: base row key, score}` into the shared index table,
//! under the relation's column family. "The IJLMR index is built with a
//! map-only MapReduce job — a special type of MapReduce job where there
//! are no reducers and the output of mappers is written directly into the
//! NoSQL store" (§4.1.1).

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper};
use rj_mapreduce::MapReduceEngine;
use rj_store::Bytes;

use crate::error::Result;
use crate::indexutil::{index_put, sample_join_splits, BuildStats};
use crate::query::{JoinSide, RankJoinQuery};

/// Build statistics for the IJLMR index.
pub type IjlmrBuildStats = BuildStats;

/// Canonical index-table name for a query pair.
pub fn index_table_name(query: &RankJoinQuery) -> String {
    format!("ijlmr__{}__{}", query.left.label, query.right.label)
}

struct IndexMapper {
    side: JoinSide,
    /// The side's label, the index family: one handle for the whole job.
    label: Arc<str>,
}

impl Mapper for IndexMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let Some(row) = input.row() else { return };
        let Some((join_value, score)) = self.side.extract(row) else {
            return;
        };
        // Index row: key = join value; column = {CF: side label,
        // qualifier: base row key, value: score}.
        let score = Bytes::from(score.to_be_bytes());
        out.put(join_value, index_put(&self.label, row.key, score));
    }
}

/// Builds the IJLMR index for both sides of `query` into `table`
/// (created here, pre-split from a sampled join-value distribution).
/// Returns build statistics; the index table's disk size is in
/// [`BuildStats::index_bytes`].
pub fn build(engine: &MapReduceEngine, query: &RankJoinQuery, table: &str) -> Result<BuildStats> {
    let cluster = engine.cluster();
    let pieces = cluster.num_nodes() * 2;
    // Sample the (larger-domain) left side for split points; both sides
    // share the join-value key space by definition of the equi-join.
    let splits = sample_join_splits(engine, &query.left, pieces)?;
    cluster.create_table_with_splits(
        table,
        &[query.left.label.as_str(), query.right.label.as_str()],
        &splits,
    )?;

    let mut stats = BuildStats::default();
    for side in [&query.left, &query.right] {
        let families = [side.join_col.0.as_str(), side.score_col.0.as_str()];
        let spec = JobSpec::new(
            &format!("ijlmr-build-{}", side.label),
            JobInput::Tables(vec![TableInput::projected(&side.table, &families)]),
            0,
        )
        .put_table(table);
        let side_cl = side.clone();
        let label: Arc<str> = side.label.as_str().into();
        let result = engine.run(
            &spec,
            &move || {
                Box::new(IndexMapper {
                    side: side_cl.clone(),
                    label: Arc::clone(&label),
                })
            },
            None,
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
    use crate::score::ScoreFn;
    use crate::testsupport::put_tuple;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;
    use rj_store::scan::Scan;

    fn setup() -> (Cluster, RankJoinQuery) {
        let c = Cluster::new(2, CostModel::test());
        c.create_table("l", &["d"]).unwrap();
        c.create_table("r", &["d"]).unwrap();
        let client = c.client();
        let data: &[(&str, &str, &[u8], f64)] = &[
            ("l", "l1", b"a", 0.9),
            ("l", "l2", b"b", 0.8),
            ("r", "r1", b"a", 0.7),
            ("r", "r2", b"a", 0.6),
            ("r", "r3", b"c", 0.5),
        ];
        for (t, k, j, s) in data {
            put_tuple(&client, t, k.as_bytes(), j, *s);
        }
        let q = RankJoinQuery::new(
            JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
            2,
            ScoreFn::Sum,
        );
        (c, q)
    }

    #[test]
    fn build_creates_inverted_lists() {
        let (c, q) = setup();
        let engine = MapReduceEngine::new(c.clone());
        let stats = build(&engine, &q, "ijlmr_idx").unwrap();
        assert_eq!(stats.jobs.len(), 2, "one map-only job per side");
        assert!(stats.index_bytes > 0);

        // Join value "a" row: 1 left entry + 2 right entries.
        let client = c.client();
        let row = client.get("ijlmr_idx", b"a").unwrap().expect("row a");
        assert_eq!(row.family_cells("L").count(), 1);
        assert_eq!(row.family_cells("R").count(), 2);
        // Score roundtrip.
        let score = f64::from_be_bytes(row.value("L", b"l1").unwrap().as_ref().try_into().unwrap());
        assert_eq!(score, 0.9);

        // "c" appears only on the right.
        let row_c = client.get("ijlmr_idx", b"c").unwrap().expect("row c");
        assert_eq!(row_c.family_cells("L").count(), 0);
        assert_eq!(row_c.family_cells("R").count(), 1);

        // Total index entries = total base tuples.
        let n: usize = client
            .scan("ijlmr_idx", Scan::new())
            .unwrap()
            .map(|r| r.cells.len())
            .sum();
        assert_eq!(n, 5);
    }

    #[test]
    fn index_name_is_stable() {
        let (_c, q) = setup();
        assert_eq!(index_table_name(&q), "ijlmr__L__R");
    }
}
