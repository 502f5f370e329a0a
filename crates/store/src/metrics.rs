//! Metric accounting: the ledgers behind the paper's three evaluation
//! metrics (§7.1) — turnaround time, network bandwidth, and dollar cost.
//!
//! Simulated time has one clock, advanced by [`Metrics::add_sim_seconds`]:
//! a [`MetricsSnapshot`] reports it as both `sim_seconds` and
//! `node_seconds`, so the two fields are always equal. `node_seconds`
//! stays because callers outside this workspace build the snapshot by
//! literal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-global metric ledger. All counters are monotonically increasing;
/// consumers measure queries by snapshot deltas via [`QueryMeter`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// KV pairs read at region servers (the dollar-cost unit: each KV < 1 KB
    /// counts as one DynamoDB read unit, paper §7.1 footnote).
    kv_reads: AtomicU64,
    /// KV pairs written.
    kv_writes: AtomicU64,
    /// Bytes that crossed a node boundary (client↔server or server↔server).
    network_bytes: AtomicU64,
    /// Client RPC invocations.
    rpc_calls: AtomicU64,
    /// Simulated wall-clock time, nanoseconds.
    sim_nanos: AtomicU64,
    /// KV pairs read through *admin* paths — statistics collection and
    /// other master-side bookkeeping. Never billed (no time, bytes, or
    /// dollar cost), but counted so tests and operators can see when a
    /// full statistics pass actually ran (the planner's staleness-bound
    /// contract is asserted against this counter).
    admin_kv_reads: AtomicU64,
}

impl Metrics {
    /// Fresh ledger.
    pub fn new() -> Arc<Self> {
        Arc::new(Metrics::default())
    }

    /// Records `n` KV reads at a region server.
    pub fn add_kv_reads(&self, n: u64) {
        self.kv_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` KV writes.
    pub fn add_kv_writes(&self, n: u64) {
        self.kv_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` KV reads performed through a metric-free admin path
    /// (statistics collection). Separate from [`Metrics::add_kv_reads`]:
    /// admin reads cost nothing, they are only *observable*.
    pub fn add_admin_kv_reads(&self, n: u64) {
        self.admin_kv_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes of cross-node traffic.
    pub fn add_network_bytes(&self, n: u64) {
        self.network_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one client RPC.
    pub fn add_rpc(&self) {
        self.rpc_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Advances the simulated clock by `seconds`.
    ///
    /// The simulator executes operations instantly and *models* their
    /// duration; sequential client operations accumulate here, while the
    /// MapReduce engine charges whole-job critical-path times.
    pub fn add_sim_seconds(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0 && seconds.is_finite());
        self.sim_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let sim_seconds = self.sim_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        MetricsSnapshot {
            kv_reads: self.kv_reads.load(Ordering::Relaxed),
            kv_writes: self.kv_writes.load(Ordering::Relaxed),
            network_bytes: self.network_bytes.load(Ordering::Relaxed),
            rpc_calls: self.rpc_calls.load(Ordering::Relaxed),
            sim_seconds,
            node_seconds: sim_seconds,
            admin_kv_reads: self.admin_kv_reads.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the ledger, also used as a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// KV pairs read at region servers.
    pub kv_reads: u64,
    /// KV pairs written.
    pub kv_writes: u64,
    /// Bytes moved across node boundaries.
    pub network_bytes: u64,
    /// Client RPC invocations.
    pub rpc_calls: u64,
    /// Simulated elapsed wall-clock seconds.
    pub sim_seconds: f64,
    /// Node busy seconds: always equal to `sim_seconds`.
    pub node_seconds: f64,
    /// KV pairs read through metric-free admin paths (statistics
    /// collection). Not part of any billed metric — purely observational.
    pub admin_kv_reads: u64,
}

/// Simulated seconds in the clock's own unit, whole nanoseconds: a
/// reading (`n / 1e9`) converts back to exactly `n`, so the sums and
/// differences below are exact and convert to seconds once. The same
/// charge then reads the same at any clock position.
fn nanos(seconds: f64) -> f64 {
    (seconds * 1e9).round()
}

impl MetricsSnapshot {
    /// Component-wise difference `self - earlier`.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            kv_reads: self.kv_reads - earlier.kv_reads,
            kv_writes: self.kv_writes - earlier.kv_writes,
            network_bytes: self.network_bytes - earlier.network_bytes,
            rpc_calls: self.rpc_calls - earlier.rpc_calls,
            sim_seconds: (nanos(self.sim_seconds) - nanos(earlier.sim_seconds)) / 1e9,
            node_seconds: (nanos(self.node_seconds) - nanos(earlier.node_seconds)) / 1e9,
            admin_kv_reads: self.admin_kv_reads - earlier.admin_kv_reads,
        }
    }
}

impl std::ops::AddAssign for MetricsSnapshot {
    /// Component-wise sum: deltas compose into a cumulative charge.
    fn add_assign(&mut self, delta: MetricsSnapshot) {
        self.kv_reads += delta.kv_reads;
        self.kv_writes += delta.kv_writes;
        self.network_bytes += delta.network_bytes;
        self.rpc_calls += delta.rpc_calls;
        self.sim_seconds = (nanos(self.sim_seconds) + nanos(delta.sim_seconds)) / 1e9;
        self.node_seconds = (nanos(self.node_seconds) + nanos(delta.node_seconds)) / 1e9;
        self.admin_kv_reads += delta.admin_kv_reads;
    }
}

/// Measures the metric delta of one execution on one ledger: a query, a
/// cursor page or a serving session. It is the one way a run measures
/// its charge — taking ledger deltas by hand is linted out of `rj_core`
/// and `rj_serve` (rjlint's `ledger-delta` rule). The delta is the whole
/// ledger's, so concurrent work on the same ledger lands in it too: run
/// metered work on its own [`crate::cluster::Cluster::fork_metrics`] fork.
pub struct QueryMeter {
    metrics: Arc<Metrics>,
    start: MetricsSnapshot,
}

impl QueryMeter {
    /// Starts measuring.
    pub fn start(metrics: Arc<Metrics>) -> Self {
        let start = metrics.snapshot();
        QueryMeter { metrics, start }
    }

    /// The delta so far, measuring on (a deadline reads it mid-run).
    pub fn so_far(&self) -> MetricsSnapshot {
        self.metrics.snapshot().delta_since(&self.start)
    }

    /// Stops measuring and returns the delta.
    pub fn finish(self) -> MetricsSnapshot {
        self.so_far()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_kv_reads(5);
        m.add_kv_reads(3);
        m.add_network_bytes(100);
        m.add_rpc();
        m.add_sim_seconds(1.5);
        let s = m.snapshot();
        assert_eq!(s.kv_reads, 8);
        assert_eq!(s.network_bytes, 100);
        assert_eq!(s.rpc_calls, 1);
        assert!((s.sim_seconds - 1.5).abs() < 1e-9);
    }

    #[test]
    fn admin_reads_are_counted_but_never_billed() {
        let m = Metrics::new();
        m.add_admin_kv_reads(40);
        m.add_admin_kv_reads(2);
        let s = m.snapshot();
        assert_eq!(s.admin_kv_reads, 42);
        // Nothing billable moved: no reads, bytes, time, or RPCs.
        assert_eq!(s.kv_reads, 0);
        assert_eq!(s.network_bytes, 0);
        assert_eq!(s.sim_seconds, 0.0);
        assert_eq!(s.rpc_calls, 0);
    }

    #[test]
    fn meter_measures_delta_only() {
        let m = Metrics::new();
        m.add_kv_reads(100);
        let meter = QueryMeter::start(m.clone());
        m.add_kv_reads(7);
        assert_eq!(meter.so_far().kv_reads, 7);
        m.add_kv_writes(2);
        let d = meter.finish();
        assert_eq!(d.kv_reads, 7);
        assert_eq!(d.kv_writes, 2);
        assert_eq!(d.network_bytes, 0);
        // Deltas compose: two consecutive meters add up to one over both.
        let (whole, first) = (QueryMeter::start(m.clone()), QueryMeter::start(m.clone()));
        m.add_kv_reads(3);
        let mut sum = first.finish();
        let second = QueryMeter::start(m.clone());
        m.add_sim_seconds(0.25);
        sum += second.finish();
        assert_eq!(sum, whole.finish());
        // The same 2 µs charge reads the same bits at any clock position.
        let charge = || {
            let meter = QueryMeter::start(m.clone());
            m.add_sim_seconds(2e-6);
            meter.finish()
        };
        let early = charge();
        m.add_sim_seconds(0.3);
        assert_eq!(charge().sim_seconds.to_bits(), early.sim_seconds.to_bits());
    }

    #[test]
    fn serial_work_keeps_wall_equal_to_total() {
        let m = Metrics::new();
        m.add_sim_seconds(0.5);
        m.add_sim_seconds(1.0);
        let s = m.snapshot();
        assert!((s.sim_seconds - 1.5).abs() < 1e-9);
        assert!((s.node_seconds - 1.5).abs() < 1e-9);
    }
}
