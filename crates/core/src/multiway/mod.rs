//! N-ary rank joins over a [`crate::query::JoinSpec`]: access planning
//! and the spec-shaped facade.
//!
//! The paper presents HRJN/ISL over binary equi-joins; the ranked-
//! enumeration literature (Tziavelis et al., *Ranked Enumeration for
//! Database Queries*; *Optimal Join Algorithms Meet Top-k*) shows the
//! same threshold machinery covers any acyclic multi-way join. The read
//! path is therefore not in this module: the operator
//! ([`crate::hrjn::HrjnState`]), the cursor
//! ([`crate::cursor::IslCursor`]), the index builder
//! ([`crate::isl::index`]) and the cell codec are each written once over
//! a spec, and the paper's binary ISL is their two-side instance. What
//! is specific to three or more sides lives here:
//!
//! * [`planner`] — the per-side access choice (batched index **descent**
//!   vs. **materialize**-then-join) and the cost model that picks the
//!   cheapest assignment, which the one executor
//!   ([`crate::executor::RankJoinExecutor`]) consults for an ISL run over
//!   three or more sides. Its statistics are not specific to three or
//!   more sides: they are the [`crate::planner::TableStats`] snapshot
//!   behind the one [`crate::statsmaint::SharedTableStats`] handle, which
//!   serves every arity (any side's maintained write bumps the version
//!   plan caches, cursors, and serving caches check).
//! * [`exec`] — [`exec::SpecExecutor`], the spec-shaped face of that
//!   executor: the same executor, with ISL as its one algorithm.

pub mod exec;
pub mod planner;

pub use crate::cursor::SideAccess;
pub use exec::SpecExecutor;
pub use planner::choose_access;
