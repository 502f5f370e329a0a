//! Per-query statistics: the paper's three evaluation metrics plus
//! algorithm-specific counters.

use rj_store::metrics::MetricsSnapshot;

use crate::result::JoinTuple;

/// The outcome of one rank-join execution.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Algorithm name ("HIVE", "PIG", "IJLMR", "ISL", "BFHM", "DRJN").
    pub algorithm: &'static str,
    /// The top-k join result, rank-ordered.
    pub results: Vec<JoinTuple>,
    /// Metric deltas for the execution: `sim_seconds` (turnaround time),
    /// `network_bytes` (bandwidth), `kv_reads` (dollar cost in read units).
    pub metrics: MetricsSnapshot,
    /// The counters of the algorithm that ran.
    pub extras: Extras,
    /// How many algorithms `Algorithm::Auto`'s plan costed before it
    /// picked this run's; `None` for a run named directly.
    pub planner_candidates: Option<usize>,
}

/// What an algorithm counts beside the ledger, one variant per algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extras {
    /// No counters: an N-ary ISL run, or `k = 0`.
    None,
    /// Binary ISL.
    Isl {
        /// Tuples pulled off the two score indices.
        tuples_consumed: u64,
        /// Index scan batches fetched.
        batches: u64,
    },
    /// BFHM.
    Bfhm {
        /// Non-empty buckets fetched, both sides.
        buckets_fetched: u64,
        /// Bucket gets issued, empty buckets included.
        bucket_gets: u64,
        /// Bucket-pair estimates made.
        estimates: u64,
        /// Reverse-mapping rows fetched.
        reverse_rows_fetched: u64,
        /// §5.3 guarantee rounds.
        rounds: u64,
    },
    /// DRJN.
    Drjn {
        /// Estimation rounds.
        rounds: u64,
        /// Histogram matrix rows fetched (the same depth on both sides).
        histogram_depth: u64,
        /// Pull jobs run.
        pull_jobs: u64,
        /// Tuples pulled.
        tuples_pulled: u64,
    },
    /// Hive's join-then-sort.
    Hive {
        /// MapReduce jobs run.
        mr_jobs: u64,
        /// Records the join job wrote.
        join_result_records: u64,
        /// Records the sort job wrote.
        sorted_records: u64,
    },
    /// Pig's join-then-order.
    Pig {
        /// MapReduce jobs run.
        mr_jobs: u64,
        /// Records the join job wrote.
        join_result_records: u64,
        /// Bytes the order job shuffled.
        order_shuffle_bytes: u64,
    },
    /// IJLMR's one map-only job.
    Ijlmr {
        /// MapReduce jobs run.
        mr_jobs: u64,
        /// Index records the job's maps read.
        map_input_records: u64,
    },
}

impl QueryOutcome {
    /// Creates an outcome with no counters.
    pub fn new(algorithm: &'static str, results: Vec<JoinTuple>, metrics: MetricsSnapshot) -> Self {
        QueryOutcome {
            algorithm,
            results,
            metrics,
            extras: Extras::None,
            planner_candidates: None,
        }
    }

    /// Dollar cost under the DynamoDB model (§7.1 footnote): read units
    /// priced at $0.01 per hour per 50 units.
    pub fn dollar_cost(&self, dollar_per_read_unit: f64) -> f64 {
        self.metrics.kv_reads as f64 * dollar_per_read_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollar_cost_scales_with_reads() {
        let m = MetricsSnapshot {
            kv_reads: 1000,
            ..Default::default()
        };
        let o = QueryOutcome::new("ISL", vec![], m);
        let per_unit = 0.01 / 3600.0 / 50.0;
        assert!((o.dollar_cost(per_unit) - 1000.0 * per_unit).abs() < 1e-15);
    }
}
