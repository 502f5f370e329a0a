//! Tenants: identity, weights, and the stride-scheduling state.

use rj_store::metrics::MetricsSnapshot;

/// Opaque handle of one registered tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub(crate) usize);

/// A tenant's registered identity.
#[derive(Clone, Debug)]
pub struct TenantProfile {
    /// Display name (also used in admission-rejection errors).
    pub name: String,
    /// Fair-share weight: long-run charged simulated seconds are
    /// proportional to this, enforced by stride scheduling. Must be
    /// finite and strictly positive.
    pub weight: f64,
}

/// Mutable per-tenant scheduler state.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub profile: TenantProfile,
    /// Stride-scheduling pass value: advanced by
    /// `charged sim-seconds / weight` on every charge; the scheduler
    /// serves the smallest pass within a priority class.
    pub pass: f64,
    /// Sum of every charge billed to this tenant's sessions.
    pub charged: MetricsSnapshot,
}

impl TenantState {
    pub fn new(profile: TenantProfile, join_pass: f64) -> Self {
        TenantState {
            profile,
            pass: join_pass,
            charged: MetricsSnapshot::default(),
        }
    }
}
