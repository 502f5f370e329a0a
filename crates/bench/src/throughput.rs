//! Concurrent-query throughput harness.
//!
//! Ranked-enumeration work (Tziavelis et al.; "Optimal Join Algorithms
//! Meet Top-k") treats top-k join processing as a *serving* problem: the
//! interesting number is sustained result throughput under concurrent
//! load, not one query's latency. This harness spawns N client threads
//! firing a mixed rank-join workload — both evaluation queries (sum and
//! product score functions, different join selectivities), a `k` sweep,
//! both coordinator algorithms (ISL and BFHM), and a planner-driven AUTO
//! lane — against **one shared cluster**, once per execution mode.
//!
//! Clients run as tasks on the process-wide
//! [`rj_store::WorkStealingPool`] — the same scheduler their queries fan
//! out on — so the harness measures the execution core it ships: client
//! tasks submit nested parallel rounds from inside pool workers, and the
//! pool's help-first join keeps the whole mix deadlock-free at machine
//! width. Each client forks the cluster's metric ledger
//! ([`rj_store::Cluster::fork_metrics`]), so per-query latency is measured
//! on an isolated ledger while the data and region servers are shared.
//! Time is the simulator's modelled time: a thread's busy time is the sum
//! of its queries' wall-clock latencies, the harness wall-clock is the
//! busiest thread, and queries/sec follows from that — deterministic
//! across runs, unlike host-machine timing. Every query result is checked
//! against the oracle, so the harness doubles as a concurrency stress
//! test.

use std::collections::HashMap;

use rj_core::bfhm::{self, maintenance::WriteBackPolicy, BfhmConfig};
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::isl::{self, IslConfig};
use rj_core::oracle;
use rj_core::result::JoinTuple;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;
use rj_store::parallel::ExecutionMode;
use rj_store::WorkStealingPool;

use crate::fixture::{Fixture, FixtureConfig, QuerySpec};
use crate::report::{fmt_dollars, fmt_seconds, Json, Table};

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// TPC-H scale factor (laptop-scaled).
    pub scale_factor: f64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Queries each client fires.
    pub queries_per_client: usize,
    /// Worker-pool width of the parallel execution mode under test.
    pub workers: usize,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            scale_factor: 0.001,
            clients: 8,
            queries_per_client: 16,
            workers: 4,
        }
    }
}

/// One workload item: which query, which k, which algorithm.
#[derive(Clone, Copy, Debug)]
struct WorkItem {
    spec: QuerySpec,
    k: usize,
    algo: Algorithm,
}

/// The `k` that stands for "enumerate every result in rank order" — the
/// any-k workload of the ranked-enumeration literature. Large enough that
/// no join can ever fill the top-k buffer, which is also what lets the
/// parallel ISL path prove all reads unconditional and fan them out.
pub const K_ENUMERATE: usize = usize::MAX / 2;

/// The mixed workload, a deterministic cycle over every (query, k,
/// algorithm) combination: Q1/Q2 (product vs sum scoring, Part-key vs
/// Order-key join selectivity) × k in point lookups {1, 10, 50} plus
/// full ranked enumeration × {ISL, BFHM, AUTO}. The AUTO lane exercises
/// the cost-based planner under concurrency: each client plans through
/// its own executor (plan cache and all) and runs whatever the planner
/// picks. Positions walk the 24-combo space through a bijective scramble
/// (`n * 11 mod 24`; 11 is coprime to 24), so any 24 consecutive items
/// cover all combinations exactly once and even short windows mix
/// algorithms and k values.
fn workload(queries: usize, offset: usize) -> Vec<WorkItem> {
    const K_MIX: [usize; 4] = [1, 10, 50, K_ENUMERATE];
    const ALGO_MIX: [Algorithm; 3] = [Algorithm::Isl, Algorithm::Bfhm, Algorithm::Auto];
    (0..queries)
        .map(|i| {
            let m = ((offset + i) * 11) % 24;
            WorkItem {
                spec: if m.is_multiple_of(2) {
                    QuerySpec::Q1
                } else {
                    QuerySpec::Q2
                },
                k: K_MIX[(m / 2) % K_MIX.len()],
                algo: ALGO_MIX[m / 8],
            }
        })
        .collect()
}

/// Aggregated results of one mode's run.
#[derive(Clone, Debug)]
pub struct ModeStats {
    /// Execution-mode label ("serial", "parallel(4)").
    pub mode: String,
    /// Total queries completed (all of them oracle-verified).
    pub queries: usize,
    /// Queries per simulated second: `queries / wall_sim_seconds`.
    pub qps: f64,
    /// Simulated harness wall-clock: the busiest client thread's total.
    pub wall_sim_seconds: f64,
    /// Median per-query simulated latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query simulated latency, milliseconds.
    pub p99_ms: f64,
    /// Total node-seconds across all queries (mode-independent).
    pub node_seconds: f64,
    /// Total KV read units (the dollar-cost driver). Equal across modes
    /// for the pinned-algorithm lanes; the AUTO lane's mode-aware planner
    /// may legitimately choose a different algorithm per mode, shifting
    /// the total.
    pub kv_reads: u64,
    /// Total cross-node bytes (same caveat as `kv_reads`).
    pub network_bytes: u64,
    /// KV read units of the pinned-algorithm (non-AUTO) lanes only —
    /// these lanes run the *same* algorithm in both modes, so this is the
    /// observable the counted-metric equivalence contract is asserted on.
    pub pinned_kv_reads: u64,
    /// Cross-node bytes of the pinned-algorithm lanes only.
    pub pinned_network_bytes: u64,
    /// Dollar cost of the run's reads.
    pub dollars: f64,
}

/// The full harness report.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Parameters the harness ran with.
    pub config: ThroughputConfig,
    /// Worker nodes in the simulated cluster.
    pub cluster_nodes: usize,
    /// Per-mode aggregates, serial first.
    pub modes: Vec<ModeStats>,
}

impl ThroughputReport {
    /// Parallel-over-serial queries/sec ratio.
    pub fn speedup(&self) -> f64 {
        match (self.modes.first(), self.modes.last()) {
            (Some(serial), Some(parallel)) if self.modes.len() == 2 && serial.qps > 0.0 => {
                parallel.qps / serial.qps
            }
            _ => f64::NAN,
        }
    }

    /// Renders the report as an experiment table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Concurrent-query throughput ({} clients x {} queries, {} nodes, SF={})",
                self.config.clients,
                self.config.queries_per_client,
                self.cluster_nodes,
                self.config.scale_factor
            ),
            &[
                "mode", "queries", "qps(sim)", "p50", "p99", "sim wall", "node-sec", "kv reads",
                "dollars",
            ],
        );
        for m in &self.modes {
            t.row(vec![
                m.mode.clone(),
                m.queries.to_string(),
                format!("{:.2}", m.qps),
                fmt_seconds(m.p50_ms / 1e3),
                fmt_seconds(m.p99_ms / 1e3),
                fmt_seconds(m.wall_sim_seconds),
                fmt_seconds(m.node_seconds),
                m.kv_reads.to_string(),
                fmt_dollars(m.dollars),
            ]);
        }
        t
    }

    /// Machine-readable JSON (the `BENCH_throughput.json` artifact).
    pub fn to_json(&self) -> String {
        let modes = self
            .modes
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("mode", m.mode.as_str().into()),
                    ("queries", m.queries.into()),
                    ("qps", Json::fixed(m.qps, 4)),
                    ("p50_ms", Json::fixed(m.p50_ms, 4)),
                    ("p99_ms", Json::fixed(m.p99_ms, 4)),
                    ("wall_sim_seconds", Json::fixed(m.wall_sim_seconds, 6)),
                    ("node_seconds", Json::fixed(m.node_seconds, 6)),
                    ("kv_reads", m.kv_reads.into()),
                    ("network_bytes", m.network_bytes.into()),
                    ("pinned_kv_reads", m.pinned_kv_reads.into()),
                    ("pinned_network_bytes", m.pinned_network_bytes.into()),
                    ("dollars", Json::fixed(m.dollars, 8)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "throughput".into()),
            ("scale_factor", Json::Num(self.config.scale_factor, None)),
            ("clients", self.config.clients.into()),
            ("queries_per_client", self.config.queries_per_client.into()),
            ("workers", self.config.workers.into()),
            ("cluster_nodes", self.cluster_nodes.into()),
            ("speedup", Json::fixed(self.speedup(), 4)),
            ("modes", Json::Arr(modes)),
        ])
        .render()
    }
}

/// Builds the AUTO-lane executor for one spec on a forked ledger: adopts
/// the fixture's shared ISL and BFHM indices (no rebuild) and the
/// fixture executor's shared statistics handle, then lets the cost-based
/// planner choose per query. Sharing the handle means the whole harness
/// collects statistics once per query pair instead of once per client
/// thread — and maintained writes (if any) invalidate every fork's plans
/// coherently. Planning statistics come from the metric-free admin path,
/// so the lane's measured latency is the chosen algorithm's latency.
fn auto_executor(
    fork: &Cluster,
    fixture: &Fixture,
    spec: QuerySpec,
    mode: ExecutionMode,
) -> RankJoinExecutor {
    let query = spec.query(10);
    let mut ex = RankJoinExecutor::new(fork, query.clone());
    ex.isl_config = IslConfig::uniform(fixture.config.isl_batch);
    ex.execution_mode = mode;
    ex.attach_isl(&isl::index_table_name(&query)).expect("isl");
    ex.attach_bfhm(
        &bfhm::index_table_name(&query),
        BfhmConfig::with_buckets(fixture.config.bfhm_buckets),
    )
    .expect("bfhm");
    ex.attach_stats(fixture.executor(spec).stats_handle())
        .expect("stats handle describes the same query pair");
    ex
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One client's share of the workload: fires `queries_per_client` queries
/// at the shared cluster on a forked ledger, verifying each against the
/// oracle. Returns `(latencies, ledger snapshot, pinned reads, pinned
/// bytes)`.
fn run_client(
    fixture: &Fixture,
    cfg: &ThroughputConfig,
    mode: ExecutionMode,
    oracles: &[((QuerySpec, usize), Vec<JoinTuple>)],
    client_id: usize,
) -> (Vec<f64>, rj_store::MetricsSnapshot, u64, u64) {
    let fork = fixture.cluster.fork_metrics();
    let mut auto_execs: HashMap<QuerySpec, RankJoinExecutor> = HashMap::new();
    let mut latencies = Vec::with_capacity(cfg.queries_per_client);
    let (mut pinned_reads, mut pinned_bytes) = (0u64, 0u64);
    for item in workload(cfg.queries_per_client, client_id) {
        let query = item.spec.query(item.k);
        let outcome = match item.algo {
            Algorithm::Isl => isl::run_with_mode(
                &fork,
                &query,
                &isl::index_table_name(&query),
                IslConfig::uniform(fixture.config.isl_batch),
                mode,
            ),
            Algorithm::Bfhm => bfhm::run_with_mode(
                &fork,
                &query,
                &bfhm::index_table_name(&query),
                &BfhmConfig::with_buckets(fixture.config.bfhm_buckets),
                WriteBackPolicy::Off,
                mode,
            ),
            Algorithm::Auto => auto_execs
                .entry(item.spec)
                .or_insert_with(|| auto_executor(&fork, fixture, item.spec, mode))
                .execute_with_k(Algorithm::Auto, item.k),
            other => unreachable!("workload never schedules {other:?}"),
        }
        .unwrap_or_else(|e| panic!("{:?} {item:?}: {e}", mode));
        let want = &oracles
            .iter()
            .find(|(key, _)| *key == (item.spec, item.k))
            .expect("oracle precomputed")
            .1;
        assert_eq!(
            &outcome.results, want,
            "client {client_id} got a wrong answer for {item:?} under {mode:?}"
        );
        latencies.push(outcome.metrics.sim_seconds);
        if item.algo != Algorithm::Auto {
            pinned_reads += outcome.metrics.kv_reads;
            pinned_bytes += outcome.metrics.network_bytes;
        }
    }
    (
        latencies,
        fork.metrics().snapshot(),
        pinned_reads,
        pinned_bytes,
    )
}

/// Runs the full workload once under `mode` against a prepared fixture.
/// Clients are tasks on the shared pool — the serving shape the harness
/// ships: nested submits (a client's parallel query fanning out from
/// inside a pool worker) are the normal case.
fn run_mode(
    fixture: &Fixture,
    cfg: &ThroughputConfig,
    mode: ExecutionMode,
    oracles: &[((QuerySpec, usize), Vec<JoinTuple>)],
) -> ModeStats {
    // What one client hands back: per-query latencies, its forked metric
    // ledger, and the pinned-lane read/byte totals.
    type ClientOut = (Vec<f64>, rj_store::MetricsSnapshot, u64, u64);
    let jobs = (0..cfg.clients)
        .map(|client_id| {
            let job: Box<dyn FnOnce() -> ClientOut + Send + '_> =
                Box::new(move || run_client(fixture, cfg, mode, oracles, client_id));
            job
        })
        .collect();
    let per_thread: Vec<ClientOut> = WorkStealingPool::global().run_batch(jobs);

    let mut all: Vec<f64> = Vec::new();
    let mut wall = 0.0f64;
    let mut node_seconds = 0.0f64;
    let mut kv_reads = 0u64;
    let mut network_bytes = 0u64;
    let mut pinned_kv_reads = 0u64;
    let mut pinned_network_bytes = 0u64;
    for (latencies, snapshot, pinned_reads, pinned_bytes) in &per_thread {
        wall = wall.max(latencies.iter().sum());
        all.extend(latencies);
        node_seconds += snapshot.node_seconds;
        kv_reads += snapshot.kv_reads;
        network_bytes += snapshot.network_bytes;
        pinned_kv_reads += pinned_reads;
        pinned_network_bytes += pinned_bytes;
    }
    all.sort_by(f64::total_cmp);
    let queries = all.len();
    ModeStats {
        mode: mode.label(),
        queries,
        qps: if wall > 0.0 {
            queries as f64 / wall
        } else {
            0.0
        },
        wall_sim_seconds: wall,
        p50_ms: percentile(&all, 0.50) * 1e3,
        p99_ms: percentile(&all, 0.99) * 1e3,
        node_seconds,
        kv_reads,
        network_bytes,
        pinned_kv_reads,
        pinned_network_bytes,
        dollars: fixture.config.cost.dollars(kv_reads),
    }
}

/// Loads the fixture, builds indices, and runs the workload under
/// `Serial` and `Parallel { workers }`, returning the comparison.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let mut fixture_config = FixtureConfig::ec2(cfg.scale_factor);
    fixture_config.cost = CostModel::ec2(4);
    let mut fixture = Fixture::load(fixture_config);
    fixture.prepare(QuerySpec::Q1);
    fixture.prepare(QuerySpec::Q2);

    // Precompute the expected answer of every (query, k) combination once;
    // worker threads verify against it.
    let mut oracles = Vec::new();
    for item in workload(cfg.clients.max(6) * cfg.queries_per_client, 0) {
        if !oracles.iter().any(|(key, _)| *key == (item.spec, item.k)) {
            let want = oracle::topk(&fixture.cluster, &item.spec.query(item.k)).expect("oracle");
            oracles.push(((item.spec, item.k), want));
        }
    }

    let cluster_nodes = fixture.cluster.num_nodes();
    let parallel = ExecutionMode::Parallel {
        workers: cfg.workers,
    };
    let modes = vec![
        run_mode(&fixture, cfg, ExecutionMode::Serial, &oracles),
        run_mode(&fixture, cfg, parallel, &oracles),
    ];
    ThroughputReport {
        config: cfg.clone(),
        cluster_nodes,
        modes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_covers_every_combination() {
        // One full cycle hits all 2 x 4 x 3 (query, k, algorithm) combos —
        // in particular ISL with k = K_ENUMERATE (the parallel fast path),
        // BFHM at every point-lookup k, and the planner-driven AUTO lane
        // on both queries.
        let combos: std::collections::BTreeSet<(String, usize, &str)> = workload(24, 0)
            .iter()
            .map(|i| (i.spec.name().to_owned(), i.k, i.algo.name()))
            .collect();
        assert_eq!(combos.len(), 24, "workload axes must be decorrelated");
        assert!(combos.contains(&("Q1".to_owned(), K_ENUMERATE, "ISL")));
        assert!(combos.contains(&("Q2".to_owned(), 1, "BFHM")));
        assert!(combos.contains(&("Q1".to_owned(), 10, "AUTO")));
        assert!(combos.contains(&("Q2".to_owned(), K_ENUMERATE, "AUTO")));
        // Different offsets shift the cycle so threads interleave kinds.
        assert_ne!(workload(1, 0)[0].spec, workload(1, 1)[0].spec);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// The PR's acceptance criterion: at tiny scale on a 4-node cluster,
    /// `Parallel { workers: 4 }` sustains at least 2x the queries/sec of
    /// `Serial`, with identical aggregate reads and bytes.
    #[test]
    fn parallel_at_least_doubles_throughput() {
        let cfg = ThroughputConfig {
            scale_factor: 0.0005,
            clients: 4,
            // One full 24-combo cycle per client, so every thread carries a
            // balanced mix of point lookups, enumerations, and AUTO lanes.
            queries_per_client: 24,
            workers: 4,
        };
        let report = run_throughput(&cfg);
        let serial = &report.modes[0];
        let parallel = &report.modes[1];
        assert_eq!(serial.queries, 96);
        assert_eq!(parallel.queries, 96);
        // The counted-metric equivalence contract holds per algorithm:
        // lanes pinned to ISL/BFHM read and ship exactly the same in both
        // modes. The AUTO lane's planner is mode-aware (parallel fan-out
        // makes BFHM's reverse gets cheaper in predicted *time*), so it
        // may legitimately pick a different algorithm per mode and shift
        // the aggregate totals.
        assert_eq!(
            parallel.pinned_kv_reads, serial.pinned_kv_reads,
            "mode must not change what a pinned algorithm reads"
        );
        assert_eq!(
            parallel.pinned_network_bytes, serial.pinned_network_bytes,
            "mode must not change what a pinned algorithm ships"
        );
        assert!(
            report.speedup() >= 2.0,
            "parallel(4) qps {:.2} is less than 2x serial qps {:.2} (speedup {:.2})",
            parallel.qps,
            serial.qps,
            report.speedup()
        );
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"throughput\""));
        assert!(json.contains("\"modes\""));
    }
}
