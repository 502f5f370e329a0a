//! ISL — Inverse Score List rank join (paper §4.2).
//!
//! A no-MapReduce, coordinator-based adaptation of HRJN (Ilyas et al.,
//! VLDB 2003) to NoSQL stores. The ISL index is a score-ordered inverted
//! list per relation (Algorithm 3), stored with **negated scores** as row
//! keys because HBase only scans ascending (§4.2.2). The coordinator
//! takes batched scans over the lists in turn (Algorithm 4), joining new
//! tuples against hash tables of everything seen, until the HRJN threshold
//! falls below the current k-th result.
//!
//! Index ([`index`]), descent (a step machine the crate's one cursor,
//! [`crate::cursor`], pumps) and operator ([`crate::hrjn`]) are written
//! once over a [`crate::query::JoinSpec`]; the paper's binary algorithm
//! is the two-side instance, and the functions of this module that take
//! a [`RankJoinQuery`] are its [`RankJoinQuery::to_spec`] conversions. A
//! run goes through the executor ([`crate::executor::RankJoinExecutor`]):
//! a one-shot run is its cursor drained in one pull.
//!
//! The batch (row-cache) size trades time against bandwidth/dollar cost:
//! "batching reads results in a lower disk I/O overhead, as well as a
//! lower processing time due to the cost of IPC calls ... being amortized
//! over the batch size" (§4.2.3).

pub mod index;
mod query;

use rj_mapreduce::MapReduceEngine;

use crate::error::Result;
use crate::query::RankJoinQuery;

pub use index::IslBuildStats;
pub(crate) use query::IslCore;

/// ISL tuning knobs, for any arity: side 0 pulls `batch_left` rows per
/// turn, every other side `batch_right`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IslConfig {
    /// Index rows pulled per turn from the left list (`C_A`).
    pub batch_left: usize,
    /// Index rows pulled per turn from the right list (`C_B`), and from
    /// every further side's.
    pub batch_right: usize,
}

impl Default for IslConfig {
    fn default() -> Self {
        IslConfig {
            batch_left: 64,
            batch_right: 64,
        }
    }
}

impl IslConfig {
    /// Same batch size for every side.
    pub fn uniform(batch: usize) -> Self {
        IslConfig {
            batch_left: batch,
            batch_right: batch,
        }
    }

    /// The batch size of side `side`, at least 1: a turn that pulls no
    /// row would never end the descent.
    pub(crate) fn batch(&self, side: usize) -> usize {
        let batch = if side == 0 {
            self.batch_left
        } else {
            self.batch_right
        };
        batch.max(1)
    }
}

/// Canonical index-table name for a query pair: [`index::index_table_name`]
/// of its two-side spec (`isl__<left label>__<right label>`).
pub fn index_table_name(query: &RankJoinQuery) -> String {
    index::index_table_name(&query.to_spec())
}

/// Builds the ISL index for both sides of `query` into `table`:
/// [`index::build`] over its two-side spec.
pub fn build(
    engine: &MapReduceEngine,
    query: &RankJoinQuery,
    table: &str,
) -> Result<IslBuildStats> {
    index::build(engine, &query.to_spec(), table)
}
