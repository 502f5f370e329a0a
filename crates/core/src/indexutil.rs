//! Shared helpers for index builders: their puts, split-point sampling
//! and build statistics.

use std::sync::Arc;

use rj_mapreduce::job::{JobInput, JobSpec, OutputSink, TableInput};
use rj_mapreduce::task::{Emitter, InputRecord, Mapper};
use rj_mapreduce::{Counters, MapReduceEngine};
use rj_store::cell::Mutation;
use rj_store::Bytes;

use crate::error::Result;
use crate::query::JoinSide;

/// An index build's put under `family`, the one handle its task resolved,
/// timestamped by the cluster clock.
pub(crate) fn index_put(family: &Arc<str>, qualifier: &[u8], value: Bytes) -> Mutation {
    Mutation::put_shared(Arc::clone(family), qualifier.into(), value, None)
}

/// Rows each sampling mapper reads from the head of its region.
const SAMPLE_ROWS_PER_REGION: usize = 256;

/// Statistics common to all index builds.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Modelled seconds spent building (sum of the builder's MR jobs).
    pub build_seconds: f64,
    /// Index size on disk after the build.
    pub index_bytes: u64,
    /// Per-job counters, in execution order.
    pub jobs: Vec<Counters>,
    /// Peak self-reported reducer state during the build (BFHM's filter
    /// memory — the §7.2 memory-footprint metric).
    pub max_reducer_state_bytes: u64,
    /// Largest shuffle volume any build reducer received (the footprint
    /// of stateless reducers like DRJN's cell summer).
    pub max_reducer_input_bytes: u64,
}

impl BuildStats {
    /// Folds one job's counters in.
    pub fn absorb(&mut self, c: Counters) {
        self.build_seconds += c.job_seconds;
        self.max_reducer_state_bytes = self.max_reducer_state_bytes.max(c.max_reducer_state_bytes);
        self.max_reducer_input_bytes = self.max_reducer_input_bytes.max(c.max_reducer_input_bytes);
        self.jobs.push(c);
    }
}

struct SampleMapper {
    side: JoinSide,
    taken: usize,
    limit: usize,
}

impl Mapper for SampleMapper {
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        if let Some(row) = input.row() {
            if let Some((join_value, _score)) = self.side.extract(row) {
                out.emit(join_value, Vec::new());
                self.taken += 1;
            }
        }
    }

    fn wants_more(&self) -> bool {
        self.taken < self.limit
    }
}

/// Samples join values from the head of each base-table region and
/// returns `pieces - 1` quantile split keys for pre-splitting a
/// join-value-keyed index table. Costs are charged (it is a real map-only
/// job with bounded scans).
pub fn sample_join_splits(
    engine: &MapReduceEngine,
    side: &JoinSide,
    pieces: usize,
) -> Result<Vec<Vec<u8>>> {
    if pieces <= 1 {
        return Ok(Vec::new());
    }
    let families = [side.join_col.0.as_str(), side.score_col.0.as_str()];
    let spec = JobSpec::new(
        "index-sample",
        JobInput::Tables(vec![TableInput::projected(&side.table, &families)]),
        0,
    )
    .sink(OutputSink::Collect)
    .scan_caching(SAMPLE_ROWS_PER_REGION);
    let side_cl = side.clone();
    let result = engine.run(
        &spec,
        &move || {
            Box::new(SampleMapper {
                side: side_cl.clone(),
                taken: 0,
                limit: SAMPLE_ROWS_PER_REGION,
            })
        },
        None,
        None,
    )?;
    let mut sample: Vec<Vec<u8>> = result.collected.into_iter().map(|(k, _)| k).collect();
    sample.sort();
    sample.dedup();
    let mut splits = Vec::new();
    if !sample.is_empty() {
        for i in 1..pieces {
            let idx = (i * sample.len() / pieces).min(sample.len() - 1);
            splits.push(sample[idx].clone());
        }
        splits.dedup();
    }
    Ok(splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::put_tuple;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;

    #[test]
    fn sampling_produces_ordered_splits() {
        let c = Cluster::new(2, CostModel::test());
        c.create_table_with_splits("t", &["d"], &[500u64.to_be_bytes().to_vec()])
            .unwrap();
        let client = c.client();
        for i in 0..1000u64 {
            put_tuple(&client, "t", &i.to_be_bytes(), &i.to_be_bytes(), 0.5f64);
        }
        let engine = MapReduceEngine::new(c);
        let side = JoinSide::new("t", "L", ("d", b"jk"), ("d", b"score"));
        let splits = sample_join_splits(&engine, &side, 4).unwrap();
        assert!(!splits.is_empty() && splits.len() <= 3);
        assert!(splits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_piece_needs_no_splits() {
        let c = Cluster::new(1, CostModel::test());
        c.create_table("t", &["d"]).unwrap();
        let engine = MapReduceEngine::new(c);
        let side = JoinSide::new("t", "L", ("d", b"jk"), ("d", b"score"));
        assert!(sample_join_splits(&engine, &side, 1).unwrap().is_empty());
    }

    #[test]
    fn build_stats_absorb_accumulates() {
        let mut s = BuildStats::default();
        let c1 = Counters {
            job_seconds: 2.0,
            max_reducer_state_bytes: 100,
            ..Default::default()
        };
        let c2 = Counters {
            job_seconds: 3.0,
            max_reducer_state_bytes: 50,
            ..Default::default()
        };
        s.absorb(c1);
        s.absorb(c2);
        assert_eq!(s.build_seconds, 5.0);
        assert_eq!(s.max_reducer_state_bytes, 100);
        assert_eq!(s.jobs.len(), 2);
    }
}
