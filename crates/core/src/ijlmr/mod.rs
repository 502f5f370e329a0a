//! IJLMR — Inverse Join List MapReduce rank join (paper §4.1).
//!
//! The IJLMR index is "a space-optimized form of ... inverted lists, where
//! index values consist of a list of tuples each being a combination of
//! the row key and score value of the indexed row" (Fig. 2): index rows
//! are keyed by **join value**, with one column family per indexed
//! relation, so co-joining tuples of both relations live side by side in
//! the same row — on the same region server.
//!
//! Query processing (§4.1.2) is a single MapReduce job: each mapper scans
//! its index region, computes the per-join-value Cartesian products, keeps
//! a running top-k, and emits only that list; a single reducer merges the
//! local lists. Network cost is tiny (k tuples per mapper), but the
//! mappers "still have to scan through the entire input dataset, weighing
//! on the dollar-cost of query processing".

mod index;
mod query;

pub use index::{build, index_table_name, IjlmrBuildStats};
pub(crate) use query::run;
