//! An HBase-model NoSQL cloudstore simulator.
//!
//! This crate is the storage substrate for the reproduction of Ntarmos,
//! Patlakas & Triantafillou, *"Rank Join Queries in NoSQL Databases"*
//! (PVLDB 7(7), 2014). The paper runs on HBase over HDFS; Rust has no mature
//! HBase client, so we implement the HBase **data model and cost behaviour**
//! in-process:
//!
//! * tables are ordered collections of key-value pairs `{row key, column
//!   family, qualifier, timestamp, value}` (§1 of the paper),
//! * each table is horizontally partitioned into **regions** (contiguous
//!   row-key ranges) sharded across **nodes**,
//! * clients issue `get` / `put` / `delete` / atomic `mutate_row` /
//!   batched `scan` operations; scans run in ascending key order only —
//!   the HBase "kink" (§4.2.2) that forces score-ordered layouts to store
//!   negated scores — and lend their rows out of one reused batch per
//!   scanner ([`row`]), so a scanned row costs its reader no allocation;
//!   a run of point reads does the same through [`Client::get_into`],
//! * a column stores its newest version only, and a delete's tombstone for
//!   a fixed grace window of clock ticks after its timestamp — the
//!   retention rule, and the §6 race it protects, are in [`region`],
//! * **server-side filters** evaluate predicates at the region server so
//!   that filtered rows are read (and billed) but never shipped (§7.1's
//!   DRJN optimization),
//! * every operation is charged against a [`costmodel::CostModel`]:
//!   simulated wall-clock time, network bytes (cross-node traffic only),
//!   and KV read units — the paper's dollar-cost metric (one read unit per
//!   KV pair read, per the DynamoDB pricing footnote in §7.1).
//!
//! The simulator executes real operations on real data; only *time* is
//! virtual. Determinism is a design goal throughout: logical timestamps,
//! round-robin region placement, and ordered iteration make every run
//! reproducible.
//!
//! # Example
//!
//! ```
//! use rj_store::{Cluster, CostModel, Mutation, Scan};
//!
//! let cluster = Cluster::new(4, CostModel::lab());
//! cluster.create_table("t", &["cf"]).unwrap();
//! let client = cluster.client();
//! client.put("t", b"row1", Mutation::put("cf", b"q", b"v".to_vec())).unwrap();
//! let row = client.get("t", b"row1").unwrap().expect("row exists");
//! assert_eq!(row.value("cf", b"q").unwrap(), b"v");
//! let rows: Vec<_> = client.scan("t", Scan::new()).unwrap().collect();
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod cell;
pub mod client;
pub mod cluster;
pub mod costmodel;
pub mod error;
pub mod filter;
pub mod keys;
mod memstore;
pub mod metrics;
pub mod pool;
pub mod region;
#[cfg(test)]
mod region_oracle;
pub mod row;
pub mod scan;
mod segment;
pub mod table;

pub use bulk::BulkLoad;
/// The refcounted byte buffer of [`Cell`] and [`Mutation`] fields.
pub use bytes::Bytes;
pub use cell::{Cell, Mutation};
pub use client::{Client, Projection};
pub use cluster::Cluster;
pub use costmodel::CostModel;
pub use error::StoreError;
pub use metrics::{MetricsSnapshot, QueryMeter};
pub use pool::WorkStealingPool;
pub use row::{CellRef, RowBatch, RowRef, RowResult};
pub use scan::Scan;
