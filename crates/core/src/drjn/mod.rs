//! DRJN — the comparator from Doulkeridis et al. (ICDE 2012), as adapted
//! to the NoSQL setting by the paper (§2, §7.1).
//!
//! The DRJN index is "roughly a 2-d matrix, with join value partitions on
//! its x-axis and score value partitions on its y-axis". The paper's HBase
//! adaptation groups all buckets of one score range into a single row, so
//! the querying node fetches a complete batch of buckets with one `Get`,
//! and implements the pull phase "as a lightweight Map-only Hadoop job,
//! storing its output data in a temporary HBase table for the querying
//! node to access and join", with custom server-side filters.
//!
//! Query processing loops: (i) fetch matrix rows in decreasing score
//! order, (ii) join them to estimate the result cardinality, (iii) once
//! the cumulative estimate reaches k, pull every tuple above the score
//! bounds and join for real, (iv) terminate when the k-th real result
//! beats the maximum attainable score of unfetched buckets.
//!
//! Because the pull phase scans the base tables with map jobs (billing
//! every KV) while shipping only qualifying tuples, DRJN lands exactly
//! where the paper's Figures 8 put it: decent bandwidth, terrible
//! turnaround time and dollar cost.

mod index;
mod query;

pub use index::{build_pair, index_table_name, DrjnBuildStats};
pub(crate) use query::DrjnCore;

/// DRJN configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrjnConfig {
    /// Score-axis buckets (the paper runs 100 and 500).
    pub num_buckets: u32,
    /// Join-value partitions (the x-axis of the 2-d matrix).
    pub num_partitions: u32,
}

impl Default for DrjnConfig {
    fn default() -> Self {
        DrjnConfig {
            num_buckets: 100,
            num_partitions: 512,
        }
    }
}

impl DrjnConfig {
    /// Config with a given score-bucket count, default partitions.
    pub fn with_buckets(num_buckets: u32) -> Self {
        DrjnConfig {
            num_buckets,
            ..Default::default()
        }
    }
}
