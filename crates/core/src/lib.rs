//! Rank (top-k) join queries in NoSQL databases.
//!
//! This crate implements the complete algorithm suite of Ntarmos, Patlakas
//! & Triantafillou, *"Rank Join Queries in NoSQL Databases"*, PVLDB 7(7),
//! 2014 — the first study of top-k equi-joins over cloud stores. A rank
//! join computes
//!
//! ```sql
//! SELECT * FROM R1, R2
//! WHERE R1.jk = R2.jk
//! ORDER BY f(R1.score, R2.score)
//! STOP AFTER k
//! ```
//!
//! without materializing the full join. Implemented algorithms, all over
//! the [`rj_store`] cloudstore and the [`rj_mapreduce`] engine:
//!
//! | module | algorithm | paper |
//! |--------|-----------|-------|
//! | [`hive`] | Hive-style baseline: 2 MR jobs + fetch | §3.1 |
//! | [`pig`] | Pig-style baseline: 3 MR jobs with early projection, sampling, top-k combiners | §3.1 |
//! | [`ijlmr`] | Inverse Join List MapReduce rank join: indexed, single MR job | §4.1 |
//! | [`isl`] | Inverse Score List rank join: coordinator-based HRJN over the score-ordered index of any [`query::JoinSpec`] — the paper's binary algorithm at two sides | §4.2 |
//! | [`bfhm`] | Bloom Filter Histogram Matrix: statistical rank join with 100% recall | §5 |
//! | [`drjn`] | DRJN comparator (Doulkeridis et al., ICDE 2012) as adapted in §7.1 | §7.1 |
//! | [`hrjn`] | the centralized HRJN operator (Ilyas et al., VLDB 2003) ISL builds on, over a spec's join tree | §4.2.1 |
//! | [`planner`] | cost-based selection over the suite, once per query at plan time ([`Algorithm::Auto`]) | Figs. 7–8 |
//! | [`multiway`] | [`multiway::SpecExecutor`], the executor's spec-shaped face for any arity (the read path itself is [`hrjn`] + [`cursor`] + [`isl`]) | §8 outlook |
//!
//! Every algorithm returns the same deterministic top-k (ties broken by
//! key) and a [`rj_store::metrics::MetricsSnapshot`] with the paper's three
//! metrics: simulated time, network bytes, and KV read units (dollar cost).
//!
//! The update/maintenance machinery of §6 lives in [`maintenance`] (write
//! interception for the inverted-list indices) and
//! [`bfhm::maintenance`] (insertion/tombstone records + blob replay);
//! [`statsmaint`] extends the same interception to the planner's
//! statistics, so [`executor::Algorithm::Auto`] keeps choosing from fresh
//! histograms under maintained writes (with an explicit staleness bound).
//!
//! Start with [`executor::RankJoinExecutor`], the one entry point for a
//! join spec of any arity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfhm;
pub mod cancel;
pub mod codec;
pub mod cursor;
pub mod drjn;
pub mod error;
pub mod executor;
pub mod hive;
pub mod hrjn;
pub mod ijlmr;
pub mod indexutil;
pub mod isl;
pub mod maintenance;
pub mod multiway;
pub mod oracle;
pub mod pig;
pub mod planner;
pub mod query;
pub mod result;
pub mod score;
mod spare;
pub mod stats;
pub mod statsmaint;

#[cfg(test)]
pub(crate) mod testsupport;

pub use cancel::{CancelToken, StopPolicy, StopReason};
pub use cursor::{CursorBatch, CursorState, RankedCursor};
pub use executor::{Algorithm, RankJoinExecutor};
pub use multiway::SpecExecutor;
pub use planner::{Objective, Plan, StatsSource, TableStats};
pub use query::{JoinEdge, JoinSide, JoinSpec, RankJoinQuery, SpecShape};
pub use result::{JoinTuple, TopK};
pub use score::ScoreFn;
pub use stats::{Extras, QueryOutcome};
pub use statsmaint::{SharedTableStats, StatsDelta, STALENESS_BOUND};
