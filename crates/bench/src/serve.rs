//! The `serve` experiment: multi-tenant serving throughput with and
//! without cross-query work sharing.
//!
//! An open-loop workload — Poisson-ish arrivals over Zipf-distributed
//! tenants, all querying the same join pair at varying depths — is
//! generated once and replayed against two identically configured
//! [`RankJoinService`] instances: the control arm with sharing disabled
//! (every session pays for its own execution) and the treatment arm with
//! coalescing and the result-prefix cache enabled. Both arms run the
//! exact same arrival trace on the exact same data, so the qps and
//! sojourn-percentile deltas are attributable to sharing alone.
//!
//! The report also carries the metering story the serving layer promises:
//! per-tenant fork-ledger totals, the billing-record totals, and a
//! `conserved` flag asserting they match (every KV read the cluster
//! performed was charged to exactly one session).

use rj_core::executor::RankJoinExecutor;
use rj_core::isl::IslConfig;
use rj_core::query::{JoinSide, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_serve::{
    QueryPriority, RankJoinService, ServeConfig, SessionId, SessionStatus, SubmitOptions,
};
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::report::{Json, Table};

/// `serve` experiment knobs.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Registered tenants; arrivals pick one Zipf(`zipf_s`)-distributed.
    pub tenants: usize,
    /// Total query arrivals in the trace.
    pub queries: usize,
    /// Zipf skew across tenants (1.0 = classic, higher = more skewed).
    pub zipf_s: f64,
    /// Sessions dispatched per scheduling round.
    pub round_width: usize,
    /// Rows per base-table side of the synthetic join.
    pub rows_per_side: usize,
    /// LCG seed for the trace.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            tenants: 4,
            queries: 240,
            zipf_s: 1.1,
            round_width: 8,
            rows_per_side: 96,
            seed: 0x5eed_cafe_f00d_u64,
        }
    }
}

/// One arm (sharing on or off) of the experiment.
#[derive(Clone, Debug)]
pub struct ServeArm {
    /// `true` for the work-sharing arm.
    pub sharing: bool,
    /// Sessions that reached a terminal state.
    pub completed: u64,
    /// Queries served per simulated second (`completed / clock`).
    pub qps: f64,
    /// Sojourn percentiles (submit → terminal, simulated seconds).
    pub p50: f64,
    /// 99th percentile sojourn.
    pub p99: f64,
    /// 99.9th percentile sojourn.
    pub p999: f64,
    /// Query executions actually run (a coalesced group counts one).
    pub executions: u64,
    /// Sessions served by coalescing onto a concurrent execution.
    pub coalesced: u64,
    /// Sessions served from the result-prefix cache.
    pub cache_hits: u64,
    /// Cluster-side KV reads summed over every tenant fork ledger.
    pub ledger_kv_reads: u64,
    /// KV reads summed over the per-session billing records.
    pub billed_kv_reads: u64,
    /// Final simulated clock of the arm.
    pub clock: f64,
    /// Per-tenant `(name, ledger kv_reads, billed kv_reads)`.
    pub per_tenant: Vec<(String, u64, u64)>,
}

/// `serve` experiment results: both arms plus the conservation verdict.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The configuration the trace was generated under.
    pub config: ServeBenchConfig,
    /// Control arm: sharing disabled.
    pub off: ServeArm,
    /// Treatment arm: coalescing + prefix cache enabled.
    pub on: ServeArm,
    /// Every arm's ledgers match its billing records exactly on KV reads
    /// (and within float-sum epsilon on simulated seconds).
    pub conserved: bool,
}

/// One arrival in the replayable trace.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    at: f64,
    tenant: usize,
    k: usize,
    priority: QueryPriority,
}

/// Deterministic 64-bit LCG (same constants as the store's tests); the
/// harness takes no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `(0, 1]` — safe as a log argument.
    fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 33) + 1) as f64) / (1u64 << 31) as f64
    }
}

/// The synthetic base data: `rows` rows per side, eight join values,
/// deterministic LCG scores.
fn build_cluster(rows: usize, seed: u64) -> (Cluster, RankJoinQuery) {
    let c = Cluster::new(3, CostModel::test());
    c.create_table("l", &["d"]).expect("bench table");
    c.create_table("r", &["d"]).expect("bench table");
    let client = c.client();
    let mut rng = Lcg(seed);
    for (table, n) in [("l", rows), ("r", rows + 4)] {
        for i in 0..n {
            let key = format!("{table}_{i:05}");
            let jv = vec![b'a' + (i % 8) as u8];
            let score = rng.next_unit();
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        rj_store::cell::Mutation::put("d", b"jk", jv),
                        rj_store::cell::Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .expect("bench row");
        }
    }
    let q = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Sum,
    );
    (c, q)
}

/// A service over a fresh copy of the base data with one ISL backend.
fn build_service(
    config: &ServeBenchConfig,
    sharing: bool,
) -> (RankJoinService, rj_serve::BackendId) {
    let (c, q) = build_cluster(config.rows_per_side, config.seed);
    let mut executor = RankJoinExecutor::new(&c, q);
    executor.isl_config = IslConfig::uniform(8);
    executor.prepare_isl().expect("isl build");
    let service = RankJoinService::new(ServeConfig {
        round_width: config.round_width,
        max_queue_per_tenant: usize::MAX,
        sharing,
        pool_threads: None,
        coalesce_hold_rounds: 0,
    });
    let backend = service.register_backend(executor).expect("backend");
    (service, backend)
}

/// Zipf CDF over `n` tenants with skew `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Generates the replayable arrival trace. The mean interarrival is
/// calibrated to half the measured cost of one mid-depth query, so the
/// service runs saturated (queues form, sharing has something to share).
fn generate_trace(config: &ServeBenchConfig) -> Vec<Arrival> {
    let mean_cost = probe_query_cost(config);
    let mean_dt = mean_cost / 2.0;
    let cdf = zipf_cdf(config.tenants, config.zipf_s);
    let ks = [1usize, 2, 2, 3, 3, 4, 6, 8];
    let mut rng = Lcg(config.seed ^ 0x9e3779b97f4a7c15);
    let mut at = 0.0;
    (0..config.queries)
        .map(|i| {
            at += -rng.next_unit().ln() * mean_dt;
            let u = rng.next_unit();
            let tenant = cdf
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(config.tenants - 1);
            let k = ks[(rng.next_u64() >> 7) as usize % ks.len()];
            let priority = if i % 8 == 7 {
                QueryPriority::Batch
            } else {
                QueryPriority::Interactive
            };
            Arrival {
                at,
                tenant,
                k,
                priority,
            }
        })
        .collect()
}

/// Measures one k=4 query's simulated cost on a throwaway service.
fn probe_query_cost(config: &ServeBenchConfig) -> f64 {
    let (service, backend) = build_service(config, false);
    let tenant = service.register_tenant("probe", 1.0).expect("tenant");
    service
        .submit(tenant, backend, SubmitOptions::topk(4))
        .expect("probe submit");
    service.run_until_idle().expect("probe run");
    service
        .tenant_usage(tenant)
        .expect("probe usage")
        .sim_seconds
        .max(1e-12)
}

/// Replays the trace against one service arm.
fn run_arm(config: &ServeBenchConfig, trace: &[Arrival], sharing: bool) -> ServeArm {
    let (service, backend) = build_service(config, sharing);
    let tenants: Vec<_> = (0..config.tenants)
        .map(|i| {
            service
                .register_tenant(&format!("t{i}"), 1.0)
                .expect("tenant")
        })
        .collect();
    // Sessions submitted and not yet seen `Done`. Sojourns are harvested
    // as sessions finish, not after the trace: a finished session's
    // record is only kept for `rj_serve::FINISHED_GRACE_ROUNDS` rounds.
    let mut in_flight: Vec<SessionId> = Vec::new();
    let mut sojourns: Vec<f64> = Vec::with_capacity(trace.len());
    let mut next = 0usize;
    loop {
        while next < trace.len() && trace[next].at <= service.clock() {
            let a = trace[next];
            let opts = SubmitOptions::topk(a.k).with_priority(a.priority);
            in_flight.push(
                service
                    .submit(tenants[a.tenant], backend, opts)
                    .expect("unbounded queue"),
            );
            next += 1;
        }
        if in_flight.is_empty() {
            if next >= trace.len() {
                break;
            }
            // Idle gap: jump the clock to the next arrival.
            service.advance_clock_to(trace[next].at);
            continue;
        }
        service.run_round().expect("round");
        in_flight.retain(|id| match service.poll(*id).expect("session") {
            SessionStatus::Done(result) => {
                sojourns.push(result.sojourn());
                false
            }
            _ => true,
        });
    }
    assert_eq!(sojourns.len(), trace.len(), "one sojourn per trace query");
    sojourns.sort_by(f64::total_cmp);
    let counters = service.counters();
    let mut per_tenant = Vec::with_capacity(tenants.len());
    let mut ledger_kv = 0u64;
    for (i, t) in tenants.iter().enumerate() {
        let usage = service.tenant_usage(*t).expect("usage");
        let charged = service.tenant_charged(*t).expect("charged");
        ledger_kv += usage.kv_reads;
        per_tenant.push((format!("t{i}"), usage.kv_reads, charged.kv_reads));
    }
    let clock = service.clock();
    ServeArm {
        sharing,
        completed: counters.completed,
        qps: counters.completed as f64 / clock.max(1e-12),
        p50: percentile(&sojourns, 0.50),
        p99: percentile(&sojourns, 0.99),
        p999: percentile(&sojourns, 0.999),
        executions: counters.executions,
        coalesced: counters.coalesced,
        cache_hits: counters.cache_hits,
        ledger_kv_reads: ledger_kv,
        billed_kv_reads: service.charged_total().kv_reads,
        clock,
        per_tenant,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn arm_conserved(arm: &ServeArm) -> bool {
    arm.ledger_kv_reads == arm.billed_kv_reads
        && arm
            .per_tenant
            .iter()
            .all(|(_, usage, billed)| usage == billed)
}

/// Runs the `serve` experiment: generate the trace once, replay it with
/// sharing off then on.
pub fn run_serve(config: &ServeBenchConfig) -> ServeReport {
    let trace = generate_trace(config);
    let off = run_arm(config, &trace, false);
    let on = run_arm(config, &trace, true);
    let conserved = arm_conserved(&off) && arm_conserved(&on);
    ServeReport {
        config: config.clone(),
        off,
        on,
        conserved,
    }
}

impl ServeReport {
    /// `on.qps / off.qps` — what sharing buys.
    pub fn sharing_speedup(&self) -> f64 {
        self.on.qps / self.off.qps.max(1e-12)
    }

    /// Renders the report as experiment tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut arms = Table::new(
            &format!(
                "Multi-tenant serving: {} queries, {} tenants (zipf s={}), width {}",
                self.config.queries,
                self.config.tenants,
                self.config.zipf_s,
                self.config.round_width
            ),
            &[
                "sharing",
                "qps",
                "p50 (s)",
                "p99 (s)",
                "p999 (s)",
                "execs",
                "coalesced",
                "cache hits",
                "KV reads",
            ],
        );
        for arm in [&self.off, &self.on] {
            arms.row(vec![
                if arm.sharing { "on" } else { "off" }.to_owned(),
                format!("{:.1}", arm.qps),
                format!("{:.6}", arm.p50),
                format!("{:.6}", arm.p99),
                format!("{:.6}", arm.p999),
                arm.executions.to_string(),
                arm.coalesced.to_string(),
                arm.cache_hits.to_string(),
                arm.ledger_kv_reads.to_string(),
            ]);
        }
        let mut tenants = Table::new(
            "Per-tenant metering, sharing-on arm (ledger == billed ⇒ conserved)",
            &["tenant", "ledger KV reads", "billed KV reads"],
        );
        for (name, usage, billed) in &self.on.per_tenant {
            tenants.row(vec![name.clone(), usage.to_string(), billed.to_string()]);
        }
        vec![arms, tenants]
    }

    /// Machine-readable JSON (the `BENCH_serve.json` artifact).
    pub fn to_json(&self) -> String {
        let arm_json = |arm: &ServeArm| {
            Json::Obj(vec![
                ("sharing", arm.sharing.into()),
                ("completed", arm.completed.into()),
                ("qps", Json::fixed(arm.qps, 3)),
                ("p50", Json::fixed(arm.p50, 9)),
                ("p99", Json::fixed(arm.p99, 9)),
                ("p999", Json::fixed(arm.p999, 9)),
                ("executions", arm.executions.into()),
                ("coalesced", arm.coalesced.into()),
                ("cache_hits", arm.cache_hits.into()),
                ("ledger_kv_reads", arm.ledger_kv_reads.into()),
                ("billed_kv_reads", arm.billed_kv_reads.into()),
                ("clock", Json::fixed(arm.clock, 9)),
            ])
        };
        let per_tenant = self
            .on
            .per_tenant
            .iter()
            .map(|(name, usage, billed)| {
                Json::Obj(vec![
                    ("tenant", name.as_str().into()),
                    ("ledger_kv_reads", (*usage).into()),
                    ("billed_kv_reads", (*billed).into()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "serve".into()),
            ("queries", self.config.queries.into()),
            ("tenants", self.config.tenants.into()),
            ("zipf_s", Json::Num(self.config.zipf_s, None)),
            (
                "arms",
                Json::Obj(vec![
                    ("off", arm_json(&self.off)),
                    ("on", arm_json(&self.on)),
                ]),
            ),
            ("sharing_speedup", Json::fixed(self.sharing_speedup(), 3)),
            ("per_tenant", Json::Arr(per_tenant)),
            ("conserved", self.conserved.into()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_sharing_wins_and_work_is_conserved() {
        let report = run_serve(&ServeBenchConfig {
            queries: 60,
            rows_per_side: 48,
            ..ServeBenchConfig::default()
        });
        assert_eq!(report.off.completed, 60);
        assert_eq!(report.on.completed, 60);
        assert!(report.conserved, "ledgers must equal billing records");
        assert!(
            report.on.executions < report.off.executions,
            "sharing must eliminate executions ({} vs {})",
            report.on.executions,
            report.off.executions
        );
        assert!(report.on.coalesced + report.on.cache_hits > 0);
        assert!(
            report.sharing_speedup() >= 1.0,
            "sharing-on qps must not regress: {:.3}",
            report.sharing_speedup()
        );
        assert!(
            report.on.p99 <= report.off.p99 * 1.001,
            "sharing-on p99 must be equal or better: {} vs {}",
            report.on.p99,
            report.off.p99
        );
        let json = report.to_json();
        for key in [
            "\"experiment\"",
            "\"arms\"",
            "\"sharing_speedup\"",
            "\"per_tenant\"",
            "\"conserved\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(report.tables().len(), 2);
    }

    #[test]
    fn arm_longer_than_the_grace_window_still_harvests_every_sojourn() {
        // Sharing off at width 1: one round per query, so the first
        // sessions' records are dropped long before the trace ends.
        let config = ServeBenchConfig {
            queries: rj_serve::FINISHED_GRACE_ROUNDS as usize + 64,
            round_width: 1,
            rows_per_side: 48,
            ..ServeBenchConfig::default()
        };
        let trace = generate_trace(&config);
        // `run_arm` itself asserts one sojourn per trace query.
        let arm = run_arm(&config, &trace, false);
        assert_eq!(arm.completed as usize, config.queries);
        assert_eq!(arm.executions as usize, config.queries);
        assert!(arm.p50 > 0.0 && arm.p50 <= arm.p999);
        assert!(arm_conserved(&arm), "ledgers must equal billing records");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.5], 0.999), 7.5);
    }
}
