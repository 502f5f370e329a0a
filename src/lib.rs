//! # rankjoin — Rank Join Queries in NoSQL Databases
//!
//! A from-scratch Rust reproduction of Ntarmos, Patlakas & Triantafillou,
//! *"Rank Join Queries in NoSQL Databases"*, PVLDB 7(7):493–504, 2014 —
//! the first study of top-k equi-join processing over cloud NoSQL stores.
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`store`] — an HBase-model NoSQL store simulator (regions sharded
//!   over nodes, column families, ascending-only scans, server-side
//!   filters, and a cloud cost model for time/bandwidth/dollar metrics),
//! * [`mapreduce`] — a Hadoop-model MapReduce engine with a simulated DFS,
//! * [`sketch`] — single-hash/hybrid Bloom filters, Golomb coding, and
//!   score histograms (the BFHM building blocks),
//! * [`tpch`] — a deterministic TPC-H-style generator (Part / Orders /
//!   Lineitem plus refresh sets),
//! * [`core`] — the six rank-join algorithms: Hive and Pig baselines,
//!   IJLMR, ISL/HRJN, **BFHM** (the paper's headline contribution, with
//!   provable 100% recall), and the DRJN comparator,
//! * [`serve`] — a multi-tenant serving front-end over the executors:
//!   query sessions with per-tenant metering, admission control with
//!   weighted fairness, and cross-query work sharing,
//! * [`analyze`] — machine enforcement for the invariants everything
//!   above rests on: the **rjlint** repo-specific lint pass and the
//!   **rj_check** deterministic interleaving explorer that model-tests
//!   the execution core's concurrency protocols,
//!
//! plus the most-used types at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use rankjoin::{Algorithm, Cluster, CostModel, JoinSide, Mutation,
//!                RankJoinExecutor, RankJoinQuery, ScoreFn};
//!
//! // A 4-node cluster with the lab-cluster cost profile.
//! let cluster = Cluster::new(4, CostModel::lab());
//! cluster.create_table("movies", &["d"]).unwrap();
//! cluster.create_table("showings", &["d"]).unwrap();
//! let client = cluster.client();
//! for (table, key, join, score) in [
//!     ("movies", "m1", b"sci-fi", 0.9f64),
//!     ("movies", "m2", b"drama!", 0.8),
//!     ("showings", "s1", b"sci-fi", 0.7),
//!     ("showings", "s2", b"sci-fi", 0.4),
//! ] {
//!     client.mutate_row(table, key.as_bytes(), vec![
//!         Mutation::put("d", b"jk", join.to_vec()),
//!         Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
//!     ]).unwrap();
//! }
//!
//! let query = RankJoinQuery::new(
//!     JoinSide::new("movies", "M", ("d", b"jk"), ("d", b"score")),
//!     JoinSide::new("showings", "S", ("d", b"jk"), ("d", b"score")),
//!     2,
//!     ScoreFn::Sum,
//! );
//! let mut executor = RankJoinExecutor::new(&cluster, query);
//! executor.prepare_isl().unwrap();
//! let outcome = executor.execute(Algorithm::Isl).unwrap();
//! assert_eq!(outcome.results.len(), 2);
//! assert!((outcome.results[0].score - 1.6).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub use rj_analyze as analyze;
pub use rj_core as core;
pub use rj_mapreduce as mapreduce;
pub use rj_serve as serve;
pub use rj_sketch as sketch;
pub use rj_store as store;
pub use rj_tpch as tpch;

pub use rj_core::bfhm::{maintenance::WriteBackPolicy, BfhmConfig, BoundMode};
pub use rj_core::cancel::{CancelToken, StopPolicy, StopReason};
pub use rj_core::drjn::DrjnConfig;
pub use rj_core::executor::{Algorithm, RankJoinExecutor};
pub use rj_core::isl::IslConfig;
pub use rj_core::maintenance::MaintainedSide;
pub use rj_core::multiway::{SideAccess, SpecExecutor};
pub use rj_core::planner::{Objective, Plan, StatsSource};
pub use rj_core::query::{JoinEdge, JoinSide, JoinSpec, RankJoinQuery, SpecShape};
pub use rj_core::result::{JoinTuple, TopK};
pub use rj_core::score::ScoreFn;
pub use rj_core::stats::{Extras, QueryOutcome};
pub use rj_core::statsmaint::{
    SharedTableStats, StatsDelta, StatsMaintainer, DEFAULT_STALENESS_BOUND,
};
pub use rj_mapreduce::MapReduceEngine;
pub use rj_serve::{
    QueryPriority, RankJoinService, ServeConfig, ServedBy, SessionOutcome, SessionStatus,
    SubmitOptions,
};
pub use rj_store::{Cell, Client, Cluster, CostModel, Mutation, Scan};
