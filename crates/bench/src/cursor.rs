//! The `cursor` experiment: what pull-based execution buys.
//!
//! Two lanes over the same data and the same ISL-prepared executor
//! prototype, all metered on private fork ledgers:
//!
//! * **Paging** — serving a depth-`k` answer in `page`-sized pages three
//!   ways: one shot (`execute_with_k`), a paused-and-resumed
//!   [`rj_core::cursor::RankedCursor`] pulling one page at a time (the
//!   serving layer's `next_page` path), and the naive
//!   re-run-per-page strategy that restarts the query at every page
//!   boundary (`k' = page, 2·page, …, k`). The cursor must charge
//!   exactly the one-shot reads; the re-run strategy must be strictly
//!   worse.
//! * **Warm-start sweep** — a donor query runs to completion at depth
//!   `d`, pauses, and its [`rj_core::cursor::CursorState`] is
//!   re-targeted to finish the full depth-`k` answer
//!   (`resume_cursor_retargeted`). The continuation's reads are compared
//!   against the cold depth-`k` cost for each donor depth: deeper donors
//!   must leave less to pay.

use rj_core::cancel::StopPolicy;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::isl::IslConfig;
use rj_core::query::{JoinSide, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::report::{Json, Table};

/// `cursor` experiment knobs.
#[derive(Clone, Debug)]
pub struct CursorBenchConfig {
    /// Rows per base-table side of the synthetic join.
    pub rows_per_side: usize,
    /// Full answer depth every lane ultimately serves.
    pub k: usize,
    /// Page size for the paging lane.
    pub page: usize,
    /// ISL index batch size.
    pub batch: usize,
    /// Donor depths for the warm-start sweep.
    pub warm_depths: Vec<usize>,
    /// LCG seed for the synthetic scores.
    pub seed: u64,
}

impl Default for CursorBenchConfig {
    fn default() -> Self {
        CursorBenchConfig {
            rows_per_side: 96,
            k: 50,
            page: 10,
            batch: 8,
            warm_depths: vec![10, 20, 30, 40],
            seed: 0xc01d_5eed_u64,
        }
    }
}

/// The paging lane: three strategies serving the same `k` results.
#[derive(Clone, Debug)]
pub struct PagingLane {
    /// KV reads of the one-shot depth-`k` run.
    pub oneshot_kv_reads: u64,
    /// KV reads of the cursor paging through with pause/resume between
    /// pages.
    pub paged_kv_reads: u64,
    /// Pages the cursor served.
    pub pages: u64,
    /// KV reads of re-running the query from scratch at every page
    /// boundary.
    pub rerun_kv_reads: u64,
}

impl PagingLane {
    /// `rerun / oneshot` — the factor the naive strategy overpays.
    pub fn rerun_penalty(&self) -> f64 {
        self.rerun_kv_reads as f64 / self.oneshot_kv_reads.max(1) as f64
    }
}

/// One donor depth of the warm-start sweep.
#[derive(Clone, Copy, Debug)]
pub struct WarmPoint {
    /// Depth the donor cursor had consumed when it paused.
    pub depth: usize,
    /// KV reads the re-targeted continuation paid to finish depth `k`.
    pub warm_kv_reads: u64,
}

/// `cursor` experiment results.
#[derive(Clone, Debug)]
pub struct CursorReport {
    /// The configuration the lanes ran under.
    pub config: CursorBenchConfig,
    /// The paging lane.
    pub paging: PagingLane,
    /// Cold depth-`k` reference cost for the warm sweep.
    pub cold_kv_reads: u64,
    /// Warm-start continuations, one per donor depth.
    pub warm_sweep: Vec<WarmPoint>,
}

/// Deterministic 64-bit LCG (same constants as the store's tests).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((self.0 >> 33) + 1) as f64) / (1u64 << 31) as f64
    }
}

/// Synthetic base data: `rows` rows per side, eight join values, LCG
/// scores.
fn build_cluster(config: &CursorBenchConfig) -> (Cluster, RankJoinQuery) {
    let c = Cluster::new(3, CostModel::test());
    c.create_table("l", &["d"]).expect("bench table");
    c.create_table("r", &["d"]).expect("bench table");
    let client = c.client();
    let mut rng = Lcg(config.seed);
    for (table, n) in [("l", config.rows_per_side), ("r", config.rows_per_side + 4)] {
        for i in 0..n {
            let key = format!("{table}_{i:05}");
            let jv = vec![b'a' + (i % 8) as u8];
            let score = rng.next_unit();
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", jv),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
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

/// ISL-prepared prototype with primed statistics, so every fork pays
/// symmetric query-path costs.
fn prototype(cluster: &Cluster, query: &RankJoinQuery, batch: usize) -> RankJoinExecutor {
    let mut proto = RankJoinExecutor::new(cluster, query.clone());
    proto.isl_config = IslConfig::uniform(batch);
    proto.prepare_isl().expect("isl build");
    let _ = proto.plan().expect("plan");
    proto
}

/// Runs `f` against a fresh executor fork and returns the fork ledger's
/// KV-read delta.
fn metered<T>(
    cluster: &Cluster,
    proto: &RankJoinExecutor,
    f: impl FnOnce(&RankJoinExecutor) -> T,
) -> (T, u64) {
    let fork = cluster.fork_metrics();
    let ex = proto.fork_onto(&fork).expect("fork");
    let before = fork.metrics().snapshot();
    let out = f(&ex);
    let reads = fork.metrics().snapshot().delta_since(&before).kv_reads;
    (out, reads)
}

/// Page boundaries `page, 2·page, …, k` (last one clamped to `k`).
fn boundaries(k: usize, page: usize) -> Vec<usize> {
    let page = page.max(1);
    let mut out = Vec::new();
    let mut at = page;
    loop {
        out.push(at.min(k));
        if at >= k {
            return out;
        }
        at += page;
    }
}

/// The paging lane: one-shot vs paused-cursor pages vs re-run-per-page.
fn run_paging(
    cluster: &Cluster,
    proto: &RankJoinExecutor,
    config: &CursorBenchConfig,
) -> PagingLane {
    let policy = StopPolicy::never();
    let k = config.k;
    let (_, oneshot_kv_reads) = metered(cluster, proto, |ex| {
        ex.execute_with_k(Algorithm::Isl, k).expect("one-shot")
    });

    // The serving layer's `next_page` path: every page boundary is a full
    // pause into a serializable `CursorState` and a resume from it.
    let mut pages = 0u64;
    let (_, paged_kv_reads) = metered(cluster, proto, |ex| {
        let mut cursor = ex.open_cursor(Algorithm::Isl, k).expect("open");
        let mut emitted = 0usize;
        loop {
            let batch = cursor
                .next_batch(config.page.min(k - emitted).max(1), &policy)
                .expect("page");
            emitted += batch.results.len();
            pages += 1;
            if batch.done || emitted >= k {
                break;
            }
            let state = cursor.pause();
            cursor = ex.resume_cursor(state).expect("resume");
        }
    });

    let (_, rerun_kv_reads) = metered(cluster, proto, |ex| {
        for depth in boundaries(k, config.page) {
            ex.execute_with_k(Algorithm::Isl, depth).expect("re-run");
        }
    });

    PagingLane {
        oneshot_kv_reads,
        paged_kv_reads,
        pages,
        rerun_kv_reads,
    }
}

/// The warm-start sweep: donor at depth `d`, re-targeted to finish `k`.
fn run_warm_sweep(
    cluster: &Cluster,
    proto: &RankJoinExecutor,
    config: &CursorBenchConfig,
) -> Vec<WarmPoint> {
    let policy = StopPolicy::never();
    config
        .warm_depths
        .iter()
        .map(|&depth| {
            let fork = cluster.fork_metrics();
            let ex = proto.fork_onto(&fork).expect("fork");
            let mut donor = ex.open_cursor(Algorithm::Isl, depth).expect("open donor");
            let mut got = 0usize;
            loop {
                let batch = donor.next_batch(depth - got, &policy).expect("donor pull");
                got += batch.results.len();
                if batch.done || got >= depth {
                    break;
                }
            }
            let state = donor.pause();
            let before = fork.metrics().snapshot();
            let mut warm = ex
                .resume_cursor_retargeted(state, config.k)
                .expect("retarget");
            let mut emitted = 0usize;
            loop {
                let batch = warm
                    .next_batch(config.k - emitted, &policy)
                    .expect("warm pull");
                emitted += batch.results.len();
                if batch.done || emitted >= config.k {
                    break;
                }
            }
            let warm_kv_reads = fork.metrics().snapshot().delta_since(&before).kv_reads;
            WarmPoint {
                depth,
                warm_kv_reads,
            }
        })
        .collect()
}

/// Runs the `cursor` experiment.
pub fn run_cursor(config: &CursorBenchConfig) -> CursorReport {
    let (cluster, query) = build_cluster(config);
    let proto = prototype(&cluster, &query, config.batch);
    let paging = run_paging(&cluster, &proto, config);
    let warm_sweep = run_warm_sweep(&cluster, &proto, config);
    CursorReport {
        config: config.clone(),
        cold_kv_reads: paging.oneshot_kv_reads,
        paging,
        warm_sweep,
    }
}

impl CursorReport {
    /// Renders the report as experiment tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut paging = Table::new(
            &format!(
                "Serving k={} in pages of {}: cursor vs re-run-per-page (KV reads)",
                self.config.k, self.config.page
            ),
            &["strategy", "KV reads", "vs one-shot"],
        );
        paging.row(vec![
            "one-shot".to_owned(),
            self.paging.oneshot_kv_reads.to_string(),
            "1.00x".to_owned(),
        ]);
        paging.row(vec![
            format!("cursor ({} pages)", self.paging.pages),
            self.paging.paged_kv_reads.to_string(),
            format!(
                "{:.2}x",
                self.paging.paged_kv_reads as f64 / self.paging.oneshot_kv_reads.max(1) as f64
            ),
        ]);
        paging.row(vec![
            "re-run per page".to_owned(),
            self.paging.rerun_kv_reads.to_string(),
            format!("{:.2}x", self.paging.rerun_penalty()),
        ]);
        let mut warm = Table::new(
            &format!(
                "Warm-starting k={} from a donor paused at depth d (cold = {} KV reads)",
                self.config.k, self.cold_kv_reads
            ),
            &["donor depth", "continuation KV reads", "saved"],
        );
        for point in &self.warm_sweep {
            warm.row(vec![
                point.depth.to_string(),
                point.warm_kv_reads.to_string(),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - point.warm_kv_reads as f64 / self.cold_kv_reads.max(1) as f64)
                ),
            ]);
        }
        vec![paging, warm]
    }

    /// Machine-readable JSON (the `BENCH_cursor.json` artifact).
    pub fn to_json(&self) -> String {
        let sweep = self
            .warm_sweep
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("depth", p.depth.into()),
                    ("warm_kv_reads", p.warm_kv_reads.into()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment", "cursor".into()),
            ("k", self.config.k.into()),
            ("page", self.config.page.into()),
            (
                "paging",
                Json::Obj(vec![
                    ("oneshot_kv_reads", self.paging.oneshot_kv_reads.into()),
                    ("paged_kv_reads", self.paging.paged_kv_reads.into()),
                    ("pages", self.paging.pages.into()),
                    ("rerun_kv_reads", self.paging.rerun_kv_reads.into()),
                    ("rerun_penalty", Json::fixed(self.paging.rerun_penalty(), 3)),
                ]),
            ),
            ("cold_kv_reads", self.cold_kv_reads.into()),
            ("warm_sweep", Json::Arr(sweep)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_bench_paging_is_free_and_reruns_are_not() {
        let report = run_cursor(&CursorBenchConfig::default());
        assert_eq!(report.paging.pages, 5, "k=50 in pages of 10");
        assert_eq!(
            report.paging.paged_kv_reads, report.paging.oneshot_kv_reads,
            "the cursor must charge exactly the one-shot reads"
        );
        assert!(
            report.paging.rerun_kv_reads > report.paging.oneshot_kv_reads,
            "re-running per page must be strictly worse: {} vs {}",
            report.paging.rerun_kv_reads,
            report.paging.oneshot_kv_reads
        );
        for point in &report.warm_sweep {
            assert!(
                point.warm_kv_reads < report.cold_kv_reads,
                "warm start from depth {} must beat cold: {} vs {}",
                point.depth,
                point.warm_kv_reads,
                report.cold_kv_reads
            );
        }
        for pair in report.warm_sweep.windows(2) {
            assert!(
                pair[1].warm_kv_reads <= pair[0].warm_kv_reads,
                "deeper donors must not leave more to pay: {:?}",
                report.warm_sweep
            );
        }
        let json = report.to_json();
        for key in ["\"experiment\"", "\"paging\"", "\"warm_sweep\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(report.tables().len(), 2);
    }

    #[test]
    fn boundaries_cover_k_exactly_once() {
        assert_eq!(boundaries(50, 10), vec![10, 20, 30, 40, 50]);
        assert_eq!(boundaries(7, 3), vec![3, 6, 7]);
        assert_eq!(boundaries(4, 9), vec![4]);
        assert_eq!(boundaries(5, 0), vec![1, 2, 3, 4, 5]);
    }
}
