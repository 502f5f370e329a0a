//! The serving layer's execution backend: binary or multi-way.
//!
//! [`BackendExec`] wraps either the binary
//! [`RankJoinExecutor`] (registered through
//! [`crate::RankJoinService::register_backend`]) or the spec-driven
//! [`SpecExecutor`] ([`crate::RankJoinService::register_spec_backend`])
//! behind the handful of operations a scheduling round needs: open a
//! pinned cursor, resume one, fork onto a tenant ledger, rebuild the
//! index, and report statistics version/staleness. Everything above this
//! seam — admission, fairness, coalescing, the prefix and warm caches —
//! is join-arity agnostic.
//!
//! The **share key** each backend registers under is the canonical
//! [`JoinSpec` fingerprint](rj_core::query::JoinSpec::fingerprint) (plus
//! the execution-config signature), *not* the `(left table, right
//! table)` pair: the fingerprint covers every side and every edge, so a
//! three-way spec over `(R, S)`-plus-a-third-side can never alias the
//! binary `R ⋈ S` backend's caches.

use std::sync::Arc;

use rj_core::cursor::{CursorState, RankedCursor};
use rj_core::error::Result;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::multiway::{SharedSpecStats, SpecExecutor};
use rj_core::statsmaint::SharedTableStats;
use rj_store::cluster::Cluster;

/// One registered backend's executor — binary or spec-driven.
pub enum BackendExec {
    /// The binary executor (always ISL-dispatched by the serving layer).
    Binary(Box<RankJoinExecutor>),
    /// The spec-driven executor: a two-side spec delegates to the binary
    /// path verbatim; three or more sides run the multiway cursor.
    Spec(Box<SpecExecutor>),
}

/// Per-(tenant, backend) execution context: a metrics fork of the base
/// cluster and an executor clone bound to it. Everything a pool job
/// needs, shared immutably.
pub(crate) struct TenantFork {
    pub cluster: Cluster,
    pub executor: BackendExec,
}

/// The statistics handle a backend's caches version against — the
/// table-pair handle for binary backends, the spec handle for multi-way
/// ones. Both expose the same coherence counters.
pub(crate) enum StatsHandle {
    /// [`SharedTableStats`] of a binary backend.
    Table(Arc<SharedTableStats>),
    /// [`SharedSpecStats`] of a multi-way backend.
    Spec(Arc<SharedSpecStats>),
}

impl StatsHandle {
    /// Current coherence version (bumped by maintained writes,
    /// invalidations, and collections).
    pub fn version(&self) -> u64 {
        match self {
            StatsHandle::Table(h) => h.version(),
            StatsHandle::Spec(h) => h.version(),
        }
    }

    /// Mutated fraction since the last full statistics pass
    /// (`f64::INFINITY` before the first).
    pub fn staleness(&self) -> f64 {
        match self {
            StatsHandle::Table(h) => h.staleness(),
            StatsHandle::Spec(h) => h.staleness(),
        }
    }
}

impl BackendExec {
    /// Whether the executor has its score index prepared or attached —
    /// the registration precondition (the serving layer executes
    /// exclusively through batch-boundary-stoppable cursors over the
    /// index).
    pub fn prepared(&self) -> bool {
        match self {
            BackendExec::Binary(b) => b.isl_table().is_some(),
            BackendExec::Spec(s) => s.prepared(),
        }
    }

    /// The canonical spec fingerprint — the arity-proof half of the
    /// share key (see the module docs).
    pub fn fingerprint(&self) -> u64 {
        match self {
            BackendExec::Binary(b) => b.spec().fingerprint(),
            BackendExec::Spec(s) => s.fingerprint(),
        }
    }

    /// The execution-configuration half of the share key: two backends
    /// share work only if both the spec *and* the way it executes match.
    pub fn config_sig(&self) -> String {
        match self {
            BackendExec::Binary(b) => format!("isl:{:?}", b.isl_config),
            BackendExec::Spec(s) => match s.binary() {
                Some(b) => format!("isl:{:?}", b.isl_config),
                None => format!("mw:{:?}:{:?}", s.config, s.access_override),
            },
        }
    }

    /// The statistics handle the backend's caches version against.
    pub(crate) fn stats(&self) -> StatsHandle {
        match self {
            BackendExec::Binary(b) => StatsHandle::Table(b.stats_handle()),
            BackendExec::Spec(s) => match s.spec_stats() {
                Some(h) => StatsHandle::Spec(h),
                None => {
                    // rjlint: allow(no-unwrap) — spec_stats() returns None only
                    // for the two-side delegation case, where binary() is Some.
                    StatsHandle::Table(s.binary().expect("two-side spec delegates").stats_handle())
                }
            },
        }
    }

    /// The executor's staleness bound (drives the serving layer's
    /// automatic background rebuilds).
    pub fn staleness_bound(&self) -> f64 {
        match self {
            BackendExec::Binary(b) => b.staleness_bound,
            BackendExec::Spec(s) => match s.binary() {
                Some(b) => b.staleness_bound,
                None => s.staleness_bound,
            },
        }
    }

    /// The cluster the executor runs on.
    pub fn cluster(&self) -> &Cluster {
        match self {
            BackendExec::Binary(b) => b.engine().cluster(),
            BackendExec::Spec(s) => s.engine().cluster(),
        }
    }

    /// Clones the executor onto `cluster` (a per-tenant metrics fork),
    /// sharing the statistics handle so cache invalidation stays
    /// coherent across forks.
    pub fn fork_onto(&self, cluster: &Cluster) -> Result<BackendExec> {
        Ok(match self {
            BackendExec::Binary(b) => BackendExec::Binary(Box::new(b.fork_onto(cluster)?)),
            BackendExec::Spec(s) => BackendExec::Spec(Box::new(s.fork_onto(cluster)?)),
        })
    }

    /// Opens a statistics-version-pinned cursor for the top `k`.
    pub fn open_cursor(&self, k: usize) -> Result<Box<dyn RankedCursor>> {
        match self {
            BackendExec::Binary(b) => b.open_cursor(Algorithm::Isl, k),
            BackendExec::Spec(s) => s.open_cursor(k),
        }
    }

    /// Resumes a paused cursor, refusing a version mismatch
    /// ([`rj_core::error::RankJoinError::StaleCursor`]).
    pub fn resume_cursor(&self, state: CursorState) -> Result<Box<dyn RankedCursor>> {
        match self {
            BackendExec::Binary(b) => b.resume_cursor(state),
            BackendExec::Spec(s) => s.resume_cursor(state),
        }
    }

    /// Rebuilds the score index and restarts the staleness clock with a
    /// fresh statistics pass (so a rebuild does not leave staleness
    /// unbounded and re-trigger itself every round).
    pub fn rebuild(&mut self) -> Result<()> {
        match self {
            BackendExec::Binary(b) => {
                b.prepare_isl()?;
                b.plan().map(|_| ())
            }
            BackendExec::Spec(s) => {
                s.prepare()?;
                match (s.spec_stats(), s.binary()) {
                    (Some(stats), _) => {
                        let cluster = s.engine().cluster().clone();
                        stats.stats_for_planning(&cluster, s.staleness_bound)?;
                        Ok(())
                    }
                    (None, Some(b)) => b.plan().map(|_| ()),
                    (None, None) => unreachable!("spec executor is binary or N-ary"),
                }
            }
        }
    }
}
