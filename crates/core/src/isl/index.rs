//! Score-index creation (paper Algorithm 3), for every side of a
//! [`JoinSpec`].
//!
//! One map-only job per side, putting `{negated score: base row key,
//! join values}` into the shared index table under the side's column
//! family (its label). Scores live in `[0,1]` (§1.1), so the index table
//! is pre-split uniformly over the order-inverted score domain — no
//! sampling needed.
//!
//! # Cell layout
//!
//! Row key = the negated score; per indexed tuple one cell: qualifier =
//! base row key, value = [`codec::encode_values_score`] — the exact score
//! followed by one length-prefixed join value per join edge incident to
//! the side, in [`JoinSpec::incident_edges`] order, and **no count
//! word**. A reader decodes a cell against its own spec's edge count
//! ([`codec::decode_values_score`]) and refuses one that carries fewer or
//! more values, so an index built for another spec over the same labels
//! fails loudly instead of mis-joining. A side with one edge — both sides
//! of every binary query — stores exactly the paper's `(join value,
//! score)` pair, which is also what
//! [`crate::maintenance::MaintainedSide::with_isl`] writes.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper};
use rj_mapreduce::MapReduceEngine;
use rj_store::keys;

use crate::codec;
use crate::error::Result;
use crate::indexutil::{index_put, BuildStats};
use crate::query::{JoinSpec, SideColumns};

/// Build statistics for the score index.
pub type IslBuildStats = BuildStats;

/// Canonical index-table name for a spec: `isl__<label>__<label>…`.
pub fn index_table_name(spec: &JoinSpec) -> String {
    let mut name = String::from("isl");
    for side in &spec.sides {
        name.push_str("__");
        name.push_str(&side.label);
    }
    name
}

struct IndexMapper {
    /// The side's label, the index family: one handle for the whole job.
    label: Arc<str>,
    /// The side's columns, resolved once for the whole job.
    columns: SideColumns,
}

impl Mapper for IndexMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        let Some(row) = input.row() else { return };
        let Some((join_values, score)) = self.columns.extract(row) else {
            return;
        };
        // Index row: key = negated score (ascending keys ⇔ descending
        // scores); column = {CF: side label, qualifier: base row key,
        // value: score + join values (see the module docs)}.
        out.put(
            keys::encode_score_desc(score).to_vec(),
            index_put(
                &self.label,
                row.key,
                codec::encode_values_score(&join_values, score),
            ),
        );
    }
}

/// Builds the score index for every side of `spec` into `table`.
pub fn build(engine: &MapReduceEngine, spec: &JoinSpec, table: &str) -> Result<BuildStats> {
    let cluster = engine.cluster();
    let pieces = cluster.num_nodes() * 2;
    // Known score domain [0,1]: pre-split uniformly on the inverted axis.
    let splits: Vec<Vec<u8>> = (1..pieces)
        .map(|i| keys::encode_score_desc(1.0 - i as f64 / pieces as f64).to_vec())
        .collect();
    let labels: Vec<&str> = spec.sides.iter().map(|s| s.label.as_str()).collect();
    cluster.create_table_with_splits(table, &labels, &splits)?;

    let mut stats = BuildStats::default();
    for (side, columns) in spec.sides.iter().zip(spec.side_columns()) {
        let job = JobSpec::new(
            &format!("isl-build-{}", side.label),
            JobInput::Tables(vec![TableInput::projected(
                &side.table,
                &columns.families(),
            )]),
            0,
        )
        .put_table(table);
        let label: Arc<str> = side.label.as_str().into();
        let result = engine.run(
            &job,
            &move || {
                Box::new(IndexMapper {
                    label: Arc::clone(&label),
                    columns: columns.clone(),
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
    use crate::testsupport::{running_example_cluster, three_way_path_cluster};
    use rj_store::scan::Scan;

    #[test]
    fn index_rows_sorted_by_descending_score() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        build(&engine, &q.to_spec(), "isl_idx").unwrap();
        let client = c.client();
        let mut scores = Vec::new();
        for row in client
            .scan("isl_idx", Scan::new().families(&["R1"]))
            .unwrap()
        {
            if row.family_cells("R1").count() > 0 {
                scores.push(keys::decode_score_desc(&row.key).unwrap());
            }
        }
        // Fig. 3: R1 scores descending: 1.00, 0.93, 0.82 (x3 in one row),
        // 0.79, 0.73, 0.70, 0.68, 0.67, 0.64.
        assert_eq!(scores.first(), Some(&1.0));
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
        assert_eq!(scores.len(), 9, "0.82 appears once as a row key");
    }

    #[test]
    fn equal_scores_share_one_row() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        build(&engine, &q.to_spec(), "isl_idx").unwrap();
        let client = c.client();
        let row = client
            .get("isl_idx", &keys::encode_score_desc(0.82))
            .unwrap()
            .expect("0.82 row");
        // r1_1, r1_4, r1_7 all score 0.82 (Fig. 3).
        assert_eq!(row.family_cells("R1").count(), 3);
    }

    #[test]
    fn cell_payload_roundtrips_join_value() {
        let (c, q) = running_example_cluster();
        let engine = MapReduceEngine::new(c.clone());
        build(&engine, &q.to_spec(), "isl_idx").unwrap();
        let client = c.client();
        let row = client
            .get("isl_idx", &keys::encode_score_desc(1.0))
            .unwrap()
            .expect("top row");
        let cell = row.family_cells("R1").next().expect("r1_10");
        assert_eq!(cell.qualifier, b"r1_10".to_vec());
        let (join, score) = codec::decode_values_score(cell.value, 1).unwrap();
        assert_eq!(join.collect::<Vec<_>>(), [b"a"]);
        assert_eq!(score, 1.0);
    }

    #[test]
    fn index_rows_sorted_by_descending_score_per_side() {
        let (c, spec) = three_way_path_cluster(3);
        let engine = MapReduceEngine::new(c.clone());
        let table = index_table_name(&spec);
        assert_eq!(table, "isl__A__B__C");
        build(&engine, &spec, &table).unwrap();
        let client = c.client();
        for label in ["A", "B", "C"] {
            let mut scores = Vec::new();
            for row in client.scan(&table, Scan::new().families(&[label])).unwrap() {
                if row.family_cells(label).count() > 0 {
                    scores.push(keys::decode_score_desc(&row.key).unwrap());
                }
            }
            assert!(!scores.is_empty(), "{label} indexed");
            assert!(
                scores.windows(2).all(|w| w[0] >= w[1]),
                "{label}: {scores:?}"
            );
        }
    }

    #[test]
    fn interior_side_cells_carry_both_edge_values() {
        let (c, spec) = three_way_path_cluster(3);
        let engine = MapReduceEngine::new(c.clone());
        build(&engine, &spec, "mw_idx").unwrap();
        let client = c.client();
        let mut checked = 0usize;
        for row in client.scan("mw_idx", Scan::new().families(&["B"])).unwrap() {
            let score = keys::decode_score_desc(&row.key).unwrap();
            for cell in row.family_cells("B") {
                let (values, s) = codec::decode_values_score(cell.value, 2).unwrap();
                assert_eq!(values.len(), 2, "B has two incident edges");
                assert_eq!(s, score);
                assert!(codec::decode_values_score(cell.value, 1).is_err());
                checked += 1;
            }
        }
        assert_eq!(checked, 12, "every tb row indexed");
    }

    #[test]
    fn leaf_side_cells_carry_one_edge_value() {
        let (c, spec) = three_way_path_cluster(3);
        let engine = MapReduceEngine::new(c.clone());
        build(&engine, &spec, "mw_idx").unwrap();
        let client = c.client();
        for row in client.scan("mw_idx", Scan::new().families(&["A"])).unwrap() {
            for cell in row.family_cells("A") {
                let (values, _) = codec::decode_values_score(cell.value, 1).unwrap();
                assert_eq!(values.len(), 1);
                assert!(codec::decode_values_score(cell.value, 2).is_err());
            }
        }
    }
}
