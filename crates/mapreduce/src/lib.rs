//! A Hadoop-model MapReduce engine over the [`rj_store`] simulator.
//!
//! The paper's baselines (Hive, Pig — §3) and index builders (Algorithms 1,
//! 3, 5) are MapReduce programs over HBase tables and HDFS files. This crate
//! provides the engine they run on:
//!
//! * **jobs** read either a store table (one map task per region, placed on
//!   the region's node — Hadoop/HBase locality) or a simulated DFS file
//!   (one map task per part, placed on the part's node),
//! * map output is optionally **combined**, then partitioned
//!   (hash or sampled-range partitioners — Pig's balanced `ORDER BY` uses
//!   the latter), shuffled (cross-node bytes billed), and sorted by key,
//! * reducers consume sorted groups and write to a DFS file, to a store
//!   table (via real `put`s), or back to the driver,
//! * **map-only jobs** (no reducers) write directly into the store — the
//!   paper's index-creation jobs,
//! * job cost is charged to the cluster's simulated clock as
//!   `startup + map waves + shuffle + reduce waves`, with per-node task
//!   makespans computed from the tasks' modelled I/O work. Every KV a
//!   mapper touches is billed as a read unit — which is why the paper's
//!   MapReduce approaches dominate the dollar-cost charts (§7.2).
//!
//! The engine executes the user's map/reduce closures for real, in
//! parallel threads, while keeping results deterministic: map outputs are
//! merged in task order, groups iterate in key order, and value order
//! within a group is (task index, emit order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod dfs;
pub mod engine;
pub mod job;
pub mod partition;
pub mod task;

pub use counters::Counters;
pub use dfs::{Dfs, DfsFile};
pub use engine::MapReduceEngine;
pub use job::{JobInput, JobResult, JobSpec, OutputSink};
pub use partition::{HashPartitioner, Partitioner, RangePartitioner};
pub use task::{Emitter, InputRecord, Mapper, Reducer};
