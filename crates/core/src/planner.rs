//! The cost-based planner behind [`Algorithm::Auto`].
//!
//! The paper's central empirical finding (Figs. 7–8) is that no single
//! rank-join algorithm wins everywhere: BFHM's frugal point gets win where
//! the network dominates (EC2), ISL's batched scans win on a fast LAN
//! until large `k`, and the MapReduce baselines only pay off when a job's
//! fixed startup is amortized over huge inputs. A system serving mixed
//! query traffic cannot ask the caller to pick — it needs to choose per
//! query, the same "cheapest physical plan for a ranked query" instinct
//! driving algorithm selection in *Optimal Join Algorithms Meet Top-k*
//! (Tziavelis et al.).
//!
//! The planner works in three steps:
//!
//! 1. [`TableStats::collect`] snapshots per-input statistics —
//!    tuple counts, distinct join values, the exact expected join
//!    cardinality, per-side score histograms, and average entry sizes —
//!    through the store's metric-free admin paths (the statistics a real
//!    master already holds; collection charges nothing to the query
//!    ledger).
//! 2. [`plan`] predicts turnaround time and dollar cost for every
//!    *prepared* algorithm by composing the profile's
//!    [`CostModel`] estimation helpers (`est_point_gets`,
//!    `est_batched_scan`, `est_mr_job`) over access-shape models of each
//!    algorithm, then ranks them under an [`Objective`].
//! 3. [`Plan::explain`] renders the prediction table; the executor caches
//!    plans per `(k, objective)` so repeated queries skip estimation.
//!
//! The choice is made once, at plan time: `Auto` then runs the chosen
//! algorithm exactly as if the caller had named it.
//!
//! Estimates are *models*, not measurements: they exist to rank
//! algorithms, and their absolute values are only as good as the
//! statistics are fresh (see ROADMAP: stats refresh under updates).

use std::collections::{BinaryHeap, HashMap};

use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

use crate::bfhm::BfhmConfig;
use crate::drjn::DrjnConfig;
use crate::error::Result;
use crate::executor::Algorithm;
use crate::isl::IslConfig;
use crate::query::{read_score, JoinSpec, RankJoinQuery};

/// Resolution of the planner's per-side score histograms (equi-width over
/// the paper's normalized `[0,1]` score domain, §1.1).
pub(crate) const STAT_BUCKETS: usize = 100;

/// Bytes of fixed per-KV overhead assumed when sizing transfers (row key,
/// qualifier, timestamp — the simulator's cell framing).
pub(crate) const KV_OVERHEAD_BYTES: f64 = 24.0;

/// Per-input statistics for one join side.
#[derive(Clone, Debug, PartialEq)]
pub struct SideStats {
    /// Tuples with a valid `(join values, score)` extraction.
    pub tuples: u64,
    /// Highest score seen (0.0 when empty).
    pub max_score: f64,
    /// Score histogram: `hist[b]` counts tuples with score in
    /// `[b/S, (b+1)/S)` (top bucket closed at 1.0; out-of-range scores
    /// clamp to the edge buckets).
    pub hist: Vec<u64>,
    /// Average bytes per indexed entry (join values + score + key framing).
    pub avg_entry_bytes: f64,
    /// Regions of the side's base table (MR map-task fan-out).
    pub regions: usize,
}

impl SideStats {
    pub(crate) fn empty() -> Self {
        SideStats {
            tuples: 0,
            max_score: 0.0,
            hist: vec![0; STAT_BUCKETS],
            avg_entry_bytes: KV_OVERHEAD_BYTES,
            regions: 0,
        }
    }

    /// Histogram bucket of a score.
    pub(crate) fn bucket_of(score: f64) -> usize {
        ((score * STAT_BUCKETS as f64) as usize).min(STAT_BUCKETS - 1)
    }

    /// Upper score bound of bucket `b`.
    pub(crate) fn upper(b: usize) -> f64 {
        (b + 1) as f64 / STAT_BUCKETS as f64
    }

    /// Tuples with score above `bound` (bucket-granular).
    fn tuples_above(&self, bound: f64) -> u64 {
        self.hist
            .iter()
            .enumerate()
            .filter(|(b, _)| Self::upper(*b) > bound)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Score of this side's `n`-th best tuple (bucket lower bound; `1.0`
    /// for `n = 0`, `0.0` once the side is exhausted).
    fn score_at_depth(&self, n: u64) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let mut cum = 0u64;
        for b in (0..STAT_BUCKETS).rev() {
            cum += self.hist[b];
            if cum >= n {
                return b as f64 / STAT_BUCKETS as f64;
            }
        }
        0.0
    }
}

/// Statistics for one join edge of a [`JoinSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeStats {
    /// Distinct join values at each endpoint: `[side a, side b]`.
    pub distinct: [u64; 2],
    /// Exact expected join cardinality of the edge alone:
    /// `Σ_v a_v·b_v` over the join values `v`.
    pub pairs: u64,
}

/// A statistics snapshot over a join's inputs, for any arity: one
/// [`SideStats`] per side and one [`EdgeStats`] per edge of the
/// [`JoinSpec`] it was collected for. A binary query is its two-side
/// spec ([`RankJoinQuery::to_spec`]): side 0 is the left input, side 1
/// the right, and edge 0 joins them.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Per-side statistics, in side order.
    pub sides: Vec<SideStats>,
    /// Per-edge statistics, in edge order.
    pub edges: Vec<EdgeStats>,
}

impl TableStats {
    /// Collects a snapshot for `spec` through the store's metric-free
    /// admin read path (one pass per base table — the ANALYZE step;
    /// nothing is charged to the query ledger). A binary query's snapshot
    /// is its two-side spec's ([`RankJoinQuery::to_spec`]).
    ///
    /// The pass *is* visible on the handle's
    /// [`rj_store::metrics::MetricsSnapshot::admin_kv_reads`] counter —
    /// admin reads cost nothing, but tests and operators can see when a
    /// full statistics pass actually ran (the staleness-bound contract).
    pub fn collect(cluster: &Cluster, spec: &JoinSpec) -> Result<TableStats> {
        collect_detailed(cluster, spec).map(|d| d.stats)
    }

    /// The binary view: left side, right side, and the join cardinality
    /// of the one edge.
    fn binary(&self) -> (&SideStats, &SideStats, u64) {
        (&self.sides[0], &self.sides[1], self.edges[0].pairs)
    }
}

/// A full statistics pass plus the per-join-value bookkeeping the
/// incremental maintenance path ([`crate::statsmaint`]) needs to keep the
/// snapshot current under writes.
pub(crate) struct DetailedStats {
    /// The planner-facing snapshot.
    pub stats: TableStats,
    /// Per edge: join-value fingerprint → tuple count at each endpoint
    /// (the distinct-join-value sketch; fingerprints come from
    /// [`crate::statsmaint::join_fingerprint`]).
    pub join_counts: Vec<HashMap<u64, [u64; 2]>>,
    /// Per-side total indexed-entry bytes (the numerator behind
    /// `avg_entry_bytes`).
    pub entry_bytes: Vec<f64>,
}

/// The one statistics pass: streams every side's base table once,
/// keeping the join-value sketch and byte totals. A row counts when it
/// carries a finite score and one join value per incident edge — the
/// rows every read path extracts.
pub(crate) fn collect_detailed(cluster: &Cluster, spec: &JoinSpec) -> Result<DetailedStats> {
    let mut join_counts: Vec<HashMap<u64, [u64; 2]>> =
        spec.edges.iter().map(|_| HashMap::new()).collect();
    let mut sides = Vec::with_capacity(spec.n());
    let mut side_bytes = Vec::with_capacity(spec.n());
    let mut fingerprints = Vec::new();
    let mut admin_reads = 0u64;
    for (i, side) in spec.sides.iter().enumerate() {
        let table = cluster.table(&side.table)?;
        let mut s = SideStats::empty();
        s.regions = table.region_infos().len();
        let mut bytes = 0.0f64;
        // Streamed: each row is read in place, none is copied or kept.
        table.for_each_row(|row| {
            admin_reads += 1;
            fingerprints.clear();
            let mut join_len = 0;
            for (_, col) in spec.incident_edges(i) {
                let Some(value) = row.value(&col.0, &col.1) else {
                    return;
                };
                join_len += value.len();
                fingerprints.push(crate::statsmaint::join_fingerprint(value));
            }
            let Ok(score) = read_score(row, &side.score_col) else {
                return;
            };
            s.tuples += 1;
            s.max_score = s.max_score.max(score);
            s.hist[SideStats::bucket_of(score)] += 1;
            bytes += entry_bytes(join_len, row.key.len());
            for ((e, _), &fingerprint) in spec.incident_edges(i).zip(&fingerprints) {
                let endpoint = usize::from(spec.edges[e].a != i);
                join_counts[e].entry(fingerprint).or_insert([0, 0])[endpoint] += 1;
            }
        });
        if s.tuples > 0 {
            s.avg_entry_bytes = bytes / s.tuples as f64;
        }
        sides.push(s);
        side_bytes.push(bytes);
    }
    cluster.metrics().add_admin_kv_reads(admin_reads);
    let edges = join_counts
        .iter()
        .map(|counts| {
            let mut edge = EdgeStats {
                distinct: [0, 0],
                pairs: 0,
            };
            for c in counts.values() {
                edge.pairs += c[0] * c[1];
                for (distinct, &n) in edge.distinct.iter_mut().zip(c) {
                    *distinct += u64::from(n > 0);
                }
            }
            edge
        })
        .collect();
    Ok(DetailedStats {
        stats: TableStats { sides, edges },
        join_counts,
        entry_bytes: side_bytes,
    })
}

/// Bytes one indexed entry contributes to a side's transfer-size model
/// (join value + row key + score + cell framing) — shared between the
/// full statistics pass and the incremental delta path so both account
/// identically. Public so external delta producers (experiment harnesses,
/// custom write paths) fill [`crate::statsmaint::StatsDelta::entry_bytes`]
/// with the same arithmetic.
pub fn entry_bytes_of(join_value: &[u8], row_key: &[u8]) -> f64 {
    entry_bytes(join_value.len(), row_key.len())
}

/// [`entry_bytes_of`] by length: `join_len` is the bytes of every join
/// value the entry carries.
fn entry_bytes(join_len: usize, key_len: usize) -> f64 {
    (join_len + key_len + 8) as f64 + KV_OVERHEAD_BYTES
}

/// What the planner optimizes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize predicted turnaround time (the paper's Fig. 7a/8a axis).
    #[default]
    Time,
    /// Minimize predicted dollar cost — KV read units under the DynamoDB
    /// model (the Fig. 7c/8c axis).
    Dollars,
}

impl Objective {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Time => "time",
            Objective::Dollars => "dollars",
        }
    }
}

/// One algorithm's predicted cost.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// The algorithm this estimate describes.
    pub algorithm: Algorithm,
    /// Predicted turnaround time, seconds.
    pub seconds: f64,
    /// Predicted KV read units.
    pub kv_reads: f64,
    /// Predicted dollar cost of those reads.
    pub dollars: f64,
}

/// The prepared algorithms a plan may choose between, with their query
/// configurations (the executor fills this from its prepared indices).
#[derive(Clone, Debug, Default)]
pub struct Candidates {
    /// Consider the index-free HIVE/PIG baselines (always executable).
    pub baselines: bool,
    /// IJLMR index is prepared.
    pub ijlmr: bool,
    /// ISL index is prepared, with these batch sizes.
    pub isl: Option<IslConfig>,
    /// BFHM index is prepared, with this configuration.
    pub bfhm: Option<BfhmConfig>,
    /// DRJN matrices are prepared, with this configuration.
    pub drjn: Option<DrjnConfig>,
}

impl Candidates {
    /// Candidates considering every algorithm at default configurations.
    pub fn all() -> Self {
        Candidates {
            baselines: true,
            ijlmr: true,
            isl: Some(IslConfig::default()),
            bfhm: Some(BfhmConfig::default()),
            drjn: Some(DrjnConfig::default()),
        }
    }
}

/// Where the statistics behind a [`Plan`] came from — the freshness
/// dimension of the prediction (see [`crate::statsmaint`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatsSource {
    /// A full [`TableStats::collect`] pass with no maintained writes since —
    /// the statistics are exact.
    Exact,
    /// Incrementally-maintained statistics: writes since the last full
    /// pass were folded in as deltas, and the recorded mutated fraction
    /// stayed within the handle's staleness bound.
    Maintained {
        /// Fraction of either side's tuples mutated since the last full
        /// statistics pass (the larger of the two sides' fractions).
        staleness: f64,
    },
    /// The mutated fraction exceeded the staleness bound, so the planner
    /// transparently re-ran the full statistics pass before predicting.
    Recollected {
        /// The staleness that forced the re-collection.
        staleness: f64,
    },
}

impl StatsSource {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StatsSource::Exact => "exact",
            StatsSource::Maintained { .. } => "maintained",
            StatsSource::Recollected { .. } => "recollected",
        }
    }
}

impl std::fmt::Display for StatsSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsSource::Exact => write!(f, "exact"),
            StatsSource::Maintained { staleness } => {
                write!(f, "maintained (staleness {:.1}%)", staleness * 100.0)
            }
            StatsSource::Recollected { staleness } => {
                write!(
                    f,
                    "recollected (staleness {:.1}% over bound)",
                    staleness * 100.0
                )
            }
        }
    }
}

/// A ranked physical plan for one `(query, k)`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The objective the ranking used.
    pub objective: Objective,
    /// The `k` the estimates assume.
    pub k: usize,
    /// Cost-model profile name the prediction used ("EC2", "LC", ...).
    pub profile: &'static str,
    /// Where the statistics behind the estimates came from. [`plan`]
    /// itself always sets [`StatsSource::Exact`] (it is handed a
    /// snapshot); the executor overwrites this with the path its shared
    /// statistics handle actually took.
    pub stats_source: StatsSource,
    /// Per-algorithm estimates, cheapest first under `objective`.
    pub ranked: Vec<CostEstimate>,
}

impl Plan {
    /// The chosen algorithm (`None` only if no candidate was available —
    /// impossible when baselines are considered).
    pub fn best(&self) -> Option<Algorithm> {
        self.ranked.first().map(|e| e.algorithm)
    }

    /// The estimate for one algorithm, if it was a candidate.
    pub fn estimate(&self, algorithm: Algorithm) -> Option<&CostEstimate> {
        self.ranked.iter().find(|e| e.algorithm == algorithm)
    }

    /// Renders the predicted costs, cheapest first — the `EXPLAIN` of the
    /// rank-join world.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "plan (k={}, objective={}, profile={}, stats={}):\n",
            self.k,
            self.objective.name(),
            self.profile,
            self.stats_source
        );
        for (rank, e) in self.ranked.iter().enumerate() {
            let marker = if rank == 0 { "=>" } else { "  " };
            out.push_str(&format!(
                "{} {:<6} est {:>12} {:>12} ({:.0} reads)\n",
                marker,
                e.algorithm.name(),
                format_seconds(e.seconds),
                format!("${:.2e}", e.dollars),
                e.kv_reads,
            ));
        }
        out
    }
}

fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Internal: everything the per-algorithm estimators share.
struct Estimator<'a> {
    left: &'a SideStats,
    right: &'a SideStats,
    /// Exact expected join cardinality.
    join_pairs: u64,
    query: &'a RankJoinQuery,
    k: usize,
    cost: &'a CostModel,
    /// Score bound of the k-th expected result (`None`: the whole join is
    /// smaller than `k` — every algorithm must exhaust its input).
    kth_bound: Option<f64>,
}

impl<'a> Estimator<'a> {
    fn new(stats: &'a TableStats, query: &'a RankJoinQuery, k: usize, cost: &'a CostModel) -> Self {
        let (left, right, join_pairs) = stats.binary();
        Estimator {
            left,
            right,
            join_pairs,
            query,
            k,
            cost,
            kth_bound: kth_score_bound(stats, query, k),
        }
    }

    /// Per-side threshold depth and score bound: a score-descending
    /// consumer on side `i` must reach the largest score `s̄_i` with
    /// `f(s̄_i, other max) < s_k` before the HRJN threshold can drop below
    /// the k-th result. Returns `(tuples above the bound, bound score)`;
    /// `(all tuples, 0.0)` under full enumeration.
    fn depth_and_bound(&self, i: usize) -> (u64, f64) {
        let (own, other) = if i == 0 {
            (self.left, self.right)
        } else {
            (self.right, self.left)
        };
        let Some(kth) = self.kth_bound else {
            return (own.tuples, 0.0); // full enumeration
        };
        let combine = |mine: f64, partner: f64| {
            if i == 0 {
                self.query.score_fn.combine(mine, partner)
            } else {
                self.query.score_fn.combine(partner, mine)
            }
        };
        let mut depth = 0u64;
        let mut bound = 1.0f64;
        for b in (0..STAT_BUCKETS).rev() {
            if combine(SideStats::upper(b), other.max_score) < kth {
                break;
            }
            depth += own.hist[b];
            bound = b as f64 / STAT_BUCKETS as f64;
        }
        // HRJN needs at least one pull per side to bound anything.
        (depth.clamp(1, own.tuples.max(1)), bound)
    }

    /// Tuple depth of [`Estimator::depth_and_bound`].
    fn scan_depth(&self, i: usize) -> u64 {
        self.depth_and_bound(i).0
    }

    /// ISL: two alternating batched scans. Two effects calibrated against
    /// the simulator dominate the cost:
    ///
    /// * the alternation is **batch-synchronized** — both sides descend
    ///   the same number of turns, set by whichever side needs the deeper
    ///   score bound, so the shallow side over-fetches to `turns × batch`;
    /// * each side's scanner walks the **union** of both relations' index
    ///   rows (the score-keyed table interleaves them), so a sparse
    ///   relation pays one RPC per `batch` union rows to harvest few of
    ///   its own.
    fn isl(&self, config: IslConfig) -> CostEstimate {
        let l = self.left;
        let r = self.right;
        let (dl, dr) = (self.scan_depth(0), self.scan_depth(1));
        let bl = config.batch(0) as u64;
        let br = config.batch(1) as u64;
        let turns = dl.max(1).div_ceil(bl).max(dr.max(1).div_ceil(br));
        let consumed_l = (turns * bl).min(l.tuples.max(1));
        let consumed_r = (turns * br).min(r.tuples.max(1));
        let walk = |own: &SideStats, other: &SideStats, consumed: u64, batch: u64| -> u64 {
            let bar = own.score_at_depth(consumed);
            let union = own.tuples_above(bar).max(consumed) + other.tuples_above(bar);
            union.div_ceil(batch) + 1
        };
        let rpcs = walk(l, r, consumed_l, bl) + walk(r, l, consumed_r, br);
        let kvs = consumed_l + consumed_r;
        let bytes = consumed_l as f64 * l.avg_entry_bytes + consumed_r as f64 * r.avg_entry_bytes;
        CostEstimate {
            algorithm: Algorithm::Isl,
            seconds: self.cost.est_batched_scan(rpcs, kvs, bytes as u64),
            kv_reads: kvs as f64,
            dollars: self.cost.dollars(kvs),
        }
    }

    /// BFHM: bucket-blob point gets down to each side's score bound, then
    /// roughly one reverse-row get per side per surviving result pair
    /// (each reverse row carries about one matching cell at this bucket
    /// resolution), plus the metadata row.
    fn bfhm(&self, config: &BfhmConfig) -> CostEstimate {
        let buckets = f64::from(config.num_buckets.max(1));
        let bucket_depth = |i: usize| -> f64 {
            let (_, bound) = self.depth_and_bound(i);
            ((1.0 - bound) * buckets).ceil().clamp(1.0, buckets)
        };
        let bucket_gets = bucket_depth(0) + bucket_depth(1);
        let l = self.left;
        let r = self.right;
        let pairs = (self.join_pairs.min(self.k as u64)).max(1) as f64;
        let reverse_gets = 2.0 * pairs + 2.0;
        let gets = bucket_gets + reverse_gets + 1.0; // + metadata row
        let kv_reads = gets; // ≈ one KV per blob get / reverse row / meta
        let probe_bytes = bucket_gets * 64.0;
        let reverse_bytes = reverse_gets * (l.avg_entry_bytes + r.avg_entry_bytes) / 2.0;
        let probe_secs = self.cost.est_point_gets(
            (bucket_gets + 1.0) as u64,
            (bucket_gets + 1.0) as u64,
            probe_bytes as u64,
        );
        let reverse_secs = self.cost.est_point_gets(
            reverse_gets as u64,
            reverse_gets as u64,
            reverse_bytes as u64,
        );
        CostEstimate {
            algorithm: Algorithm::Bfhm,
            seconds: probe_secs + reverse_secs,
            kv_reads,
            dollars: self.cost.dollars(kv_reads.round() as u64),
        }
    }

    /// IJLMR: one MR job scanning the whole join-value index.
    fn ijlmr(&self) -> CostEstimate {
        let kvs = self.left.tuples + self.right.tuples;
        let bytes = self.left.tuples as f64 * self.left.avg_entry_bytes
            + self.right.tuples as f64 * self.right.avg_entry_bytes;
        let maps = (self.left.regions + self.right.regions).max(1);
        let shuffle = (self.k as f64 * 64.0 * maps as f64) as u64;
        CostEstimate {
            algorithm: Algorithm::Ijlmr,
            seconds: self.cost.est_mr_job(maps, kvs, bytes as u64, shuffle, 1),
            kv_reads: kvs as f64,
            dollars: self.cost.dollars(kvs),
        }
    }

    /// HIVE: full unprojected join job + rank job + result fetch.
    fn hive(&self) -> CostEstimate {
        // The baseline scans every cell (no projection): approximate the
        // full row as twice the projected entry.
        let kvs = 2 * (self.left.tuples + self.right.tuples);
        let bytes = 2.0
            * (self.left.tuples as f64 * self.left.avg_entry_bytes
                + self.right.tuples as f64 * self.right.avg_entry_bytes);
        let maps = (self.left.regions + self.right.regions).max(1);
        let join_bytes = self.join_pairs.saturating_mul(96);
        let join_job = self.cost.est_mr_job(
            maps,
            kvs,
            bytes as u64,
            bytes as u64,
            self.cost.worker_nodes,
        );
        let rank_job = self.cost.est_mr_job(
            self.cost.worker_nodes,
            self.join_pairs,
            join_bytes,
            join_bytes,
            1,
        );
        CostEstimate {
            algorithm: Algorithm::Hive,
            seconds: join_job + rank_job,
            kv_reads: kvs as f64,
            dollars: self.cost.dollars(kvs),
        }
    }

    /// PIG: three jobs, but the first projects early (§3.1).
    fn pig(&self) -> CostEstimate {
        let kvs = 2 * (self.left.tuples + self.right.tuples);
        let bytes = self.left.tuples as f64 * self.left.avg_entry_bytes
            + self.right.tuples as f64 * self.right.avg_entry_bytes;
        let maps = (self.left.regions + self.right.regions).max(1);
        let join_bytes = self.join_pairs.saturating_mul(32);
        let join_job =
            self.cost
                .est_mr_job(maps, kvs, bytes as u64, join_bytes, self.cost.worker_nodes);
        // Sampling + top-k jobs over the (projected, combined) join result.
        let order_job = self.cost.est_mr_job(
            self.cost.worker_nodes,
            self.join_pairs,
            join_bytes,
            (self.k as u64).saturating_mul(64),
            1,
        );
        let sample_job = self.cost.est_mr_job(
            self.cost.worker_nodes,
            self.join_pairs / 10,
            join_bytes / 10,
            1024,
            1,
        );
        CostEstimate {
            algorithm: Algorithm::Pig,
            seconds: join_job + sample_job + order_job,
            kv_reads: kvs as f64,
            dollars: self.cost.dollars(kvs),
        }
    }

    /// DRJN: matrix-row gets, then per-side map-only pull jobs that scan
    /// the full projected relations, then the coordinator's temp scan.
    fn drjn(&self, config: &DrjnConfig) -> CostEstimate {
        let buckets = f64::from(config.num_buckets.max(1));
        // Both sides descend the same number of matrix rows, down to the
        // deeper of the two score bounds.
        let bound = self.depth_and_bound(0).1.min(self.depth_and_bound(1).1);
        let depth = ((1.0 - bound) * buckets).ceil().clamp(1.0, buckets);
        let matrix_gets = 2.0 * depth;
        let matrix_kvs = matrix_gets * config.num_partitions.max(1) as f64;
        // One pull job per side, each scanning its full projected input
        // (the server-side score filter reduces shipping, not reading).
        let projected_kvs = 2 * (self.left.tuples + self.right.tuples);
        let pull_l = self.cost.est_mr_job(
            self.left.regions.max(1),
            2 * self.left.tuples,
            (self.left.tuples as f64 * self.left.avg_entry_bytes) as u64,
            0,
            0,
        );
        let pull_r = self.cost.est_mr_job(
            self.right.regions.max(1),
            2 * self.right.tuples,
            (self.right.tuples as f64 * self.right.avg_entry_bytes) as u64,
            0,
            0,
        );
        // Pulled tuples land in a temp table the coordinator then scans.
        let pulled = self.scan_depth(0) + self.scan_depth(1);
        let temp_scan = self.cost.est_batched_scan(
            pulled.div_ceil(1000) + 1,
            pulled,
            (pulled as f64 * (self.left.avg_entry_bytes + self.right.avg_entry_bytes) / 2.0) as u64,
        );
        let kv_reads = matrix_kvs + projected_kvs as f64 + pulled as f64;
        CostEstimate {
            algorithm: Algorithm::Drjn,
            seconds: self.cost.est_point_gets(
                matrix_gets as u64,
                matrix_kvs as u64,
                (matrix_kvs * 12.0) as u64,
            ) + pull_l
                + pull_r
                + temp_scan,
            kv_reads,
            dollars: self.cost.dollars(kv_reads.round() as u64),
        }
    }
}

/// One row of the score grid on the frontier of [`kth_score_bound`]'s
/// walk: left bucket `bl`, paused at `br`, its highest right bucket not
/// visited yet, where the cell's upper score is `upper`. The greatest
/// cursor is the next cell in visiting order: highest `upper` by
/// [`f64::total_cmp`], then lowest `bl`.
struct RowCursor {
    upper: f64,
    bl: usize,
    br: usize,
}

impl Ord for RowCursor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.upper
            .total_cmp(&other.upper)
            .then_with(|| other.bl.cmp(&self.bl))
    }
}

impl PartialOrd for RowCursor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RowCursor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RowCursor {}

/// Expected score of the k-th best join result, from the independence
/// assumption over the two score histograms scaled to the exact expected
/// join cardinality. `None` when the whole join is smaller than `k`.
///
/// A cell of the score grid is a pair of non-empty buckets `(bl, br)`
/// holding `hist_l[bl] · hist_r[br] · scale` expected pairs under an upper
/// score `f(upper(bl), upper(br))`. **The visiting order is the
/// contract:** cells are visited by upper score descending
/// ([`f64::total_cmp`]), ties by `(bl, br)` ascending, their pairs summed
/// in that order, and the answer is the lower score of the cell the sum
/// reaches `k` in — so the sum, and with it every plan, is the same to
/// the bit however the order is produced. It is produced by walking the
/// frontier: `f` is monotone, so along one row `bl` the upper score never
/// rises as `br` falls, and a heap of one cursor per non-empty row, each
/// descending its row from the top, merges the rows in order; the cells of
/// one row that tie (all of `br ≥ bl` under `Min`) are one contiguous run,
/// taken in ascending `br`. That costs the cells needed to reach `k` and
/// one heap of at most `hist_l.len()` cursors (2.4 KB), where sorting the
/// whole grid cost `STAT_BUCKETS`² cells (1 MB) on every cold plan.
fn kth_score_bound(stats: &TableStats, query: &RankJoinQuery, k: usize) -> Option<f64> {
    let (l, r, join_pairs) = stats.binary();
    if join_pairs < k as u64 || l.tuples == 0 || r.tuples == 0 {
        return None;
    }
    let scale = join_pairs as f64 / (l.tuples as f64 * r.tuples as f64);
    let (left, right) = (&l.hist, &r.hist);
    let upper = |bl: usize, br: usize| {
        query
            .score_fn
            .combine(SideStats::upper(bl), SideStats::upper(br))
    };
    // The highest non-empty right bucket below `br`.
    let below = |br: usize| (0..br).rev().find(|&b| right[b] != 0);
    let highest = below(right.len())?;
    let mut frontier = BinaryHeap::with_capacity(left.len());
    for (bl, _) in left.iter().enumerate().filter(|(_, nl)| **nl != 0) {
        frontier.push(RowCursor {
            upper: upper(bl, highest),
            bl,
            br: highest,
        });
    }
    let mut cum = 0.0;
    while let Some(RowCursor {
        upper: tie,
        bl,
        br: top,
    }) = frontier.pop()
    {
        // The row's run of cells tied at `tie` is `low..=top`.
        let mut low = top;
        let mut next = below(top);
        while let Some(br) = next.filter(|&br| upper(bl, br).total_cmp(&tie).is_eq()) {
            low = br;
            next = below(br);
        }
        for br in (low..=top).filter(|&br| right[br] != 0) {
            cum += left[bl] as f64 * right[br] as f64 * scale;
            if cum >= k as f64 {
                return Some(query.score_fn.combine(
                    bl as f64 / STAT_BUCKETS as f64,
                    br as f64 / STAT_BUCKETS as f64,
                ));
            }
        }
        if let Some(br) = next {
            frontier.push(RowCursor {
                upper: upper(bl, br),
                bl,
                br,
            });
        }
    }
    None
}

/// Predicts the cost of every candidate and returns the ranked [`Plan`].
pub fn plan(
    stats: &TableStats,
    query: &RankJoinQuery,
    k: usize,
    cost: &CostModel,
    objective: Objective,
    candidates: &Candidates,
) -> Plan {
    let est = Estimator::new(stats, query, k, cost);
    let mut ranked = Vec::new();
    if candidates.baselines {
        ranked.push(est.hive());
        ranked.push(est.pig());
    }
    if candidates.ijlmr {
        ranked.push(est.ijlmr());
    }
    if let Some(config) = candidates.isl {
        ranked.push(est.isl(config));
    }
    if let Some(config) = &candidates.bfhm {
        ranked.push(est.bfhm(config));
    }
    if let Some(config) = &candidates.drjn {
        ranked.push(est.drjn(config));
    }
    ranked.sort_by(|a, b| match objective {
        Objective::Time => a.seconds.total_cmp(&b.seconds),
        Objective::Dollars => a
            .dollars
            .total_cmp(&b.dollars)
            // Dollar ties (identical read counts) break by time.
            .then(a.seconds.total_cmp(&b.seconds)),
    });
    Plan {
        objective,
        k,
        profile: cost.name,
        stats_source: StatsSource::Exact,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ScoreFn;
    use crate::testsupport::running_example_cluster;
    use proptest::prelude::*;

    fn stats_and_query() -> (TableStats, RankJoinQuery) {
        let (c, q) = running_example_cluster();
        (TableStats::collect(&c, &q.to_spec()).unwrap(), q)
    }

    #[test]
    fn stats_snapshot_is_exact_on_the_running_example() {
        let (s, _q) = stats_and_query();
        assert_eq!(s.sides[0].tuples, 11);
        assert_eq!(s.sides[1].tuples, 11);
        assert_eq!(s.edges[0].distinct, [4, 4]);
        // Fig. 1 fan-outs — R1: a×2, b×3, c×3, d×3; R2: a×4, b×2, c×2,
        // d×3 → 2·4 + 3·2 + 3·2 + 3·3 = 29 join pairs.
        assert_eq!(s.edges[0].pairs, 29);
        assert_eq!(s.sides[0].max_score, 1.0);
        assert!((s.sides[1].max_score - 0.92).abs() < 1e-12);
    }

    #[test]
    fn stats_collection_charges_nothing_but_is_observable() {
        let (c, q) = running_example_cluster();
        let before = c.metrics().snapshot();
        let _ = TableStats::collect(&c, &q.to_spec()).unwrap();
        let after = c.metrics().snapshot();
        // Nothing billable: no reads, writes, bytes, RPCs, or time.
        assert_eq!(after.kv_reads, before.kv_reads);
        assert_eq!(after.kv_writes, before.kv_writes);
        assert_eq!(after.network_bytes, before.network_bytes);
        assert_eq!(after.rpc_calls, before.rpc_calls);
        assert_eq!(after.sim_seconds, before.sim_seconds);
        // But the pass is visible on the admin-read counter (11+11 rows).
        assert_eq!(after.admin_kv_reads, before.admin_kv_reads + 22);
    }

    /// The oracle for [`kth_score_bound`]: every cell of the grid, stably
    /// sorted by upper score — the visiting order by construction.
    fn kth_score_bound_sorted(stats: &TableStats, query: &RankJoinQuery, k: usize) -> Option<f64> {
        let (l, r, join_pairs) = stats.binary();
        if join_pairs < k as u64 || l.tuples == 0 || r.tuples == 0 {
            return None;
        }
        let scale = join_pairs as f64 / (l.tuples as f64 * r.tuples as f64);
        // Expected pairs per bucket pair, walked in descending upper-bound
        // order until k accumulate.
        let mut cells: Vec<(f64, f64, f64)> = Vec::new(); // (upper, lower, pairs)
        for (bl, nl) in l.hist.iter().enumerate() {
            if *nl == 0 {
                continue;
            }
            for (br, nr) in r.hist.iter().enumerate() {
                if *nr == 0 {
                    continue;
                }
                let pairs = *nl as f64 * *nr as f64 * scale;
                let upper = query
                    .score_fn
                    .combine(SideStats::upper(bl), SideStats::upper(br));
                let lower = query.score_fn.combine(
                    bl as f64 / STAT_BUCKETS as f64,
                    br as f64 / STAT_BUCKETS as f64,
                );
                cells.push((upper, lower, pairs));
            }
        }
        cells.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut cum = 0.0;
        for (_upper, lower, pairs) in cells {
            cum += pairs;
            if cum >= k as f64 {
                return Some(lower);
            }
        }
        None
    }

    /// One side's histogram: a single bucket, a sparse one (long zero
    /// runs) or a dense one.
    fn hist() -> impl Strategy<Value = Vec<u64>> {
        (
            0u8..3,
            0usize..STAT_BUCKETS,
            prop::collection::vec((0u8..10, 1u64..40), STAT_BUCKETS),
        )
            .prop_map(|(shape, single, buckets)| {
                let keep = [0, 3, 9][shape as usize];
                let mut hist: Vec<u64> = buckets
                    .iter()
                    .map(|&(gate, n)| if gate < keep { n } else { 0 })
                    .collect();
                if hist.iter().all(|n| *n == 0) {
                    hist[single] = buckets[single].1;
                }
                hist
            })
    }

    fn side(hist: Vec<u64>) -> SideStats {
        SideStats {
            tuples: hist.iter().sum(),
            hist,
            ..SideStats::empty()
        }
    }

    proptest! {
        /// The frontier walk returns what sorting the whole grid returned,
        /// to the bit: under every score function (`Min` / `Max` tie whole
        /// stretches of a row, a zero weight ties whole rows or makes a
        /// row flat), any join size from empty to the full product, and
        /// `k` from 1 to past the join.
        #[test]
        fn frontier_walk_equals_the_sorted_grid(
            left in hist(),
            right in hist(),
            (f, wl, wr) in (0u8..7, 0.0f64..2.0, 0.0f64..2.0),
            (extreme, fill) in (0u8..8, 0.0f64..=1.0),
            (small_k, deep_k) in (1usize..60, 0.0f64..1.2),
        ) {
            let (left, right) = (side(left), side(right));
            let product = left.tuples * right.tuples;
            let join_pairs = match extreme {
                0 => 0,
                1 => product,
                _ => (product as f64 * fill) as u64,
            };
            let edges = vec![EdgeStats { distinct: [0, 0], pairs: join_pairs }];
            let stats = TableStats { sides: vec![left, right], edges };
            let mut query = running_example_cluster().1;
            query.score_fn = match f {
                0 => ScoreFn::Sum,
                1 => ScoreFn::Product,
                2 => ScoreFn::Min,
                3 => ScoreFn::Max,
                4 => ScoreFn::WeightedSum { wl, wr },
                5 => ScoreFn::WeightedSum { wl: 0.0, wr },
                _ => ScoreFn::WeightedSum { wl, wr: 0.0 },
            };
            let (deep_k, all) = ((join_pairs as f64 * deep_k) as usize, join_pairs as usize);
            for k in [1, small_k, deep_k / 16, deep_k / 4, deep_k, all, all + 1] {
                let k = k.max(1);
                prop_assert_eq!(
                    kth_score_bound(&stats, &query, k).map(f64::to_bits),
                    kth_score_bound_sorted(&stats, &query, k).map(f64::to_bits),
                    "{:?} k={} join_pairs={}", query.score_fn, k, join_pairs
                );
            }
        }
    }

    #[test]
    fn kth_bound_is_monotone_in_k() {
        let (s, q) = stats_and_query();
        let b1 = kth_score_bound(&s, &q, 1).unwrap();
        let b5 = kth_score_bound(&s, &q, 5).unwrap();
        assert!(b1 >= b5, "{b1} < {b5}");
        // k beyond the join size: full enumeration.
        assert!(kth_score_bound(&s, &q, 1000).is_none());
    }

    #[test]
    fn plan_ranks_coordinators_over_mapreduce_at_small_scale() {
        let (s, q) = stats_and_query();
        let cost = CostModel::ec2(8);
        let p = plan(&s, &q, 3, &cost, Objective::Time, &Candidates::all());
        assert_eq!(p.ranked.len(), 6);
        let best = p.best().unwrap();
        assert!(
            matches!(best, Algorithm::Isl | Algorithm::Bfhm),
            "MR startup constants must lose at 11-tuple scale, got {best:?}"
        );
        // The MR baselines carry the job-startup constant.
        assert!(p.estimate(Algorithm::Hive).unwrap().seconds >= cost.mr_job_startup);
        let rendered = p.explain();
        assert!(rendered.contains("=>") && rendered.contains(best.name()));
    }

    #[test]
    fn dollar_objective_prefers_frugal_reads() {
        let (s, q) = stats_and_query();
        let cost = CostModel::ec2(8);
        let p = plan(&s, &q, 3, &cost, Objective::Dollars, &Candidates::all());
        let best = p.ranked.first().unwrap();
        for e in &p.ranked {
            assert!(best.dollars <= e.dollars + 1e-15);
        }
    }

    #[test]
    fn depth_grows_with_k() {
        let (s, q) = stats_and_query();
        let cost = CostModel::ec2(8);
        let e1 = Estimator::new(&s, &q, 1, &cost);
        let e9 = Estimator::new(&s, &q, 9, &cost);
        assert!(e9.scan_depth(0) >= e1.scan_depth(0));
        assert!(e9.scan_depth(1) >= e1.scan_depth(1));
    }

    #[test]
    fn empty_candidates_yield_empty_plan() {
        let (s, q) = stats_and_query();
        let cost = CostModel::test();
        let p = plan(&s, &q, 3, &cost, Objective::Time, &Candidates::default());
        assert!(p.best().is_none());
        assert!(p.ranked.is_empty());
    }
}
