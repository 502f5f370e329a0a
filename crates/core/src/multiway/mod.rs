//! N-ary rank joins over a [`crate::query::JoinSpec`]: the spec-shaped
//! facade.
//!
//! The paper presents HRJN/ISL over binary equi-joins; the ranked-
//! enumeration literature (Tziavelis et al., *Ranked Enumeration for
//! Database Queries*; *Optimal Join Algorithms Meet Top-k*) shows the
//! same threshold machinery covers any acyclic multi-way join. The read
//! path is therefore not in this module: the operator
//! ([`crate::hrjn::HrjnState`]), the ISL descent ([`crate::cursor`]),
//! the index builder ([`crate::isl::index`]) and the cell codec are each
//! written once over a spec, and the paper's binary ISL is their two-side
//! instance. ISL
//! descends every side at every arity unless the executor's
//! `access_override` forces a side to be materialized, so nothing here
//! plans; what this module holds is a face:
//!
//! * [`exec`] — [`exec::SpecExecutor`], the spec-shaped face of the one
//!   executor ([`crate::executor::RankJoinExecutor`]): the same executor,
//!   with ISL as its one algorithm.

pub mod exec;

pub use crate::cursor::SideAccess;
pub use exec::SpecExecutor;
