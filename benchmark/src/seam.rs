//! The API seam: **every** call from the benchmark into the workspace is
//! in this file, so the surface the benchmark depends on can be audited
//! (and kept alive by the refactors queued in ROADMAP.md) in one place.
//!
//! Allowed surface: the `rankjoin` facade's root re-exports plus
//! `store::{Client, Scan}`, `store::metrics::MetricsSnapshot`,
//! `store::WorkStealingPool::run_batch`, `core::cursor::RankedCursor`,
//! `sketch::{BfhmBlob, HybridFilter, FlatMultiMap}` and `tpch`.
//! One documented exception: `core::bfhm::{index_table_name,
//! maintenance::BfhmMaintainer}` — the only way to put a BFHM index
//! behind a `MaintainedSide`, which `update_stream` needs.
//!
//! Never used here (later PRs delete them): `rj_bench`, `HrjnState`,
//! `IslCursor`, `isl::index`, `BackendExec`, `LaneBackend`,
//! `cancel_after_batches`, `adaptive_force_switch_after`,
//! `access_override`, `QueryOutcome.extras`.
//!
//! Nothing in here reads the host clock or the allocation counters: the
//! layers are measured from outside, by the callers of these wrappers.

use std::sync::Arc;

use rankjoin::core::bfhm::maintenance::BfhmMaintainer;
use rankjoin::core::cursor::{CursorState, RankedCursor};
use rankjoin::serve::{BackendId, PageToken, ServeCounters, SessionId, TenantId};
use rankjoin::sketch::{BfhmBlob, BlobCodec, FlatMultiMap, HybridFilter};
use rankjoin::store::WorkStealingPool;
use rankjoin::tpch::{self, loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Client, Cluster, CostModel, IslConfig, JoinEdge, JoinSide, JoinSpec,
    MaintainedSide, Mutation, RankJoinExecutor, RankJoinQuery, RankJoinService, Scan, ScoreFn,
    ServeConfig, SessionOutcome, SessionStatus, SpecExecutor, StopPolicy, SubmitOptions, TopK,
    WriteBackPolicy,
};

pub use rankjoin::store::metrics::MetricsSnapshot;
pub use rankjoin::JoinTuple;

/// Component-wise sum of two ledger readings (deltas compose).
pub fn ledger_sum(a: MetricsSnapshot, b: MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        kv_reads: a.kv_reads + b.kv_reads,
        kv_writes: a.kv_writes + b.kv_writes,
        network_bytes: a.network_bytes + b.network_bytes,
        rpc_calls: a.rpc_calls + b.rpc_calls,
        sim_seconds: a.sim_seconds + b.sim_seconds,
        node_seconds: a.node_seconds + b.node_seconds,
        admin_kv_reads: a.admin_kv_reads + b.admin_kv_reads,
    }
}

/// TPC-H scale factor of the binary workloads (2 000 parts / 15 000
/// orders / ≈ 60 000 lineitems).
pub const SF_BINARY: f64 = 0.01;
/// TPC-H scale factor of `multiway_path`.
pub const SF_MULTIWAY: f64 = 0.002;
/// ISL scanner row-cache size (rows per RPC).
pub const ISL_BATCH: usize = 128;
/// BFHM histogram buckets.
pub const BFHM_BUCKETS: u32 = 100;

/// Every seam call reports failure as the error's display text; the
/// workloads only count failures, they never branch on the kind.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The paper's two evaluation queries (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Q {
    /// `Part ⋈ Lineitem ON PartKey`, product of scores.
    Q1,
    /// `Orders ⋈ Lineitem ON OrderKey`, sum of scores.
    Q2,
}

impl Q {
    /// Both queries, in index order.
    pub const BOTH: [Q; 2] = [Q::Q1, Q::Q2];

    /// 0 for Q1, 1 for Q2.
    pub fn index(self) -> usize {
        self as usize
    }

    fn query(self) -> RankJoinQuery {
        let col = |c: &'static [u8]| (loader::FAMILY, c);
        let (left, right) = match self {
            Q::Q1 => (
                JoinSide::new(
                    loader::PART_TABLE,
                    "P",
                    col(loader::cols::JK),
                    col(loader::cols::SCORE),
                ),
                JoinSide::new(
                    loader::LINEITEM_TABLE,
                    "L",
                    col(loader::cols::JK_PART),
                    col(loader::cols::SCORE),
                ),
            ),
            Q::Q2 => (
                JoinSide::new(
                    loader::ORDERS_TABLE,
                    "O",
                    col(loader::cols::JK),
                    col(loader::cols::SCORE),
                ),
                JoinSide::new(
                    loader::LINEITEM_TABLE,
                    "L2",
                    col(loader::cols::JK_ORDER),
                    col(loader::cols::SCORE),
                ),
            ),
        };
        RankJoinQuery::new(left, right, 10, self.score_fn())
    }

    fn score_fn(self) -> ScoreFn {
        match self {
            Q::Q1 => ScoreFn::Product,
            Q::Q2 => ScoreFn::Sum,
        }
    }

    /// Aggregate score of one joined pair, by the query's own function.
    pub fn combine(self, left: f64, right: f64) -> f64 {
        self.score_fn().combine(left, right)
    }
}

/// Which driver a binary query runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// `Algorithm::Isl`.
    Isl,
    /// `Algorithm::Auto` (the cost-based planner picks).
    Auto,
}

impl Algo {
    fn algorithm(self) -> Algorithm {
        match self {
            Algo::Isl => Algorithm::Isl,
            Algo::Auto => Algorithm::Auto,
        }
    }
}

/// One base-table row as the reference join sees it.
#[derive(Clone, Debug)]
pub struct BaseRow {
    /// Row key.
    pub key: Vec<u8>,
    /// Values of the requested join columns, in request order.
    pub joins: Vec<Vec<u8>>,
    /// The score column.
    pub score: f64,
}

/// The three base tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    /// `part`, joined on `jk`.
    Part,
    /// `orders`, joined on `jk`.
    Orders,
    /// `lineitem`, joined on `jk_part` and `jk_order` (in that order).
    Lineitem,
}

/// A loaded cluster.
pub struct Store {
    cluster: Cluster,
    cfg: TpchConfig,
}

impl Store {
    /// Creates a `CostModel::lab()` cluster and loads TPC-H at `sf`.
    pub fn load(sf: f64) -> Res<Store> {
        let cluster = Cluster::with_profile(CostModel::lab());
        let cfg = TpchConfig::new(sf);
        tpch::load_all(&cluster, &cfg).map_err(err)?;
        Ok(Store { cluster, cfg })
    }

    /// Number of Part rows loaded.
    pub fn part_count(&self) -> u64 {
        self.cfg.part_count()
    }

    /// Number of Orders rows loaded.
    pub fn order_count(&self) -> u64 {
        self.cfg.order_count()
    }

    /// The cluster's cumulative ledger (simulated §7 metrics).
    pub fn ledger(&self) -> MetricsSnapshot {
        self.cluster.metrics().snapshot()
    }

    /// A fresh executor for `q` with the benchmark's ISL batch size and
    /// no index yet.
    pub fn binary(&self, q: Q) -> Binary {
        let mut ex = RankJoinExecutor::new(&self.cluster, q.query());
        ex.isl_config = IslConfig::uniform(ISL_BATCH);
        Binary { ex, q }
    }

    /// A fresh executor for the 3-way path Part ⋈ Lineitem ⋈ Orders
    /// (`jk` = `jk_part`, `jk_order` = `jk`), sum of the three scores.
    pub fn multiway(&self) -> Res<Multiway> {
        let col = |c: &'static [u8]| (loader::FAMILY, c);
        let owned = |c: &'static [u8]| (loader::FAMILY.to_owned(), c.to_vec());
        let sides = vec![
            JoinSide::new(
                loader::PART_TABLE,
                "P",
                col(loader::cols::JK),
                col(loader::cols::SCORE),
            ),
            JoinSide::new(
                loader::LINEITEM_TABLE,
                "L",
                col(loader::cols::JK_PART),
                col(loader::cols::SCORE),
            ),
            JoinSide::new(
                loader::ORDERS_TABLE,
                "O",
                col(loader::cols::JK),
                col(loader::cols::SCORE),
            ),
        ];
        let edges = vec![
            JoinEdge {
                a: 0,
                a_col: owned(loader::cols::JK),
                b: 1,
                b_col: owned(loader::cols::JK_PART),
            },
            JoinEdge {
                a: 1,
                a_col: owned(loader::cols::JK_ORDER),
                b: 2,
                b_col: owned(loader::cols::JK),
            },
        ];
        let spec = JoinSpec::new(sides, edges, 10, ScoreFn::Sum).map_err(err)?;
        Ok(Multiway {
            ex: SpecExecutor::new(&self.cluster, spec),
        })
    }

    /// Scans one base table through `Client::scan` for the reference
    /// join.
    pub fn scan_base(&self, base: Base) -> Res<Vec<BaseRow>> {
        let (table, join_cols): (&str, &[&[u8]]) = match base {
            Base::Part => (loader::PART_TABLE, &[loader::cols::JK]),
            Base::Orders => (loader::ORDERS_TABLE, &[loader::cols::JK]),
            Base::Lineitem => (
                loader::LINEITEM_TABLE,
                &[loader::cols::JK_PART, loader::cols::JK_ORDER],
            ),
        };
        let client = self.cluster.client();
        let mut rows = Vec::new();
        for row in client.scan(table, Scan::new().caching(1024)).map_err(err)? {
            let mut joins = Vec::with_capacity(join_cols.len());
            for c in join_cols {
                let v = row
                    .value(loader::FAMILY, c)
                    .ok_or_else(|| format!("{table}: row without a join column"))?;
                joins.push(v.to_vec());
            }
            let score = row
                .value(loader::FAMILY, loader::cols::SCORE)
                .and_then(|v| <[u8; 8]>::try_from(v.as_ref()).ok())
                .map(f64::from_be_bytes)
                .ok_or_else(|| format!("{table}: row without a score"))?;
            rows.push(BaseRow {
                key: row.key,
                joins,
                score,
            });
        }
        Ok(rows)
    }

    /// The maintained write path over `ex`'s two sides, fanning out to
    /// its ISL index, its BFHM index (when `bfhm`) and its statistics
    /// handle.
    pub fn writer(&self, ex: &Binary, bfhm: bool) -> Res<Writer> {
        let query = ex.ex.query().clone();
        let isl = ex
            .ex
            .isl_table()
            .ok_or("writer: executor has no ISL index")?
            .to_owned();
        let bfhm_table = rankjoin::core::bfhm::index_table_name(&query);
        let side = |s: &JoinSide| -> Res<MaintainedSide> {
            let mut m = MaintainedSide::new(&self.cluster, s.clone()).with_isl(&isl);
            if bfhm {
                m = m.with_bfhm(
                    BfhmMaintainer::attach(&self.cluster, &bfhm_table, &s.label).map_err(err)?,
                );
            }
            Ok(m.with_stats(ex.ex.stats_handle()))
        };
        Ok(Writer {
            q: ex.q,
            left: side(&query.left)?,
            right: side(&query.right)?,
        })
    }

    /// A point-read / scan / put handle for the store probes.
    pub fn probe_client(&self) -> ProbeClient {
        ProbeClient {
            client: self.cluster.client(),
        }
    }
}

/// Row-key and join-value encoders of the TPC-H layout.
pub mod rowkey {
    use super::loader::rowkeys;

    /// Part row key (also its `jk` value).
    pub fn part(part_key: u64) -> Vec<u8> {
        rowkeys::part(part_key)
    }

    /// Orders row key (also its `jk` value and lineitem's `jk_order`).
    pub fn order(order_key: u64) -> Vec<u8> {
        rowkeys::order(order_key)
    }

    /// Lineitem row key.
    pub fn lineitem(order_key: u64, line_number: u32) -> Vec<u8> {
        rowkeys::lineitem(order_key, line_number)
    }
}

/// A binary rank-join executor (one of Q1/Q2).
pub struct Binary {
    ex: RankJoinExecutor,
    q: Q,
}

/// One pulled page: the results and whether the cursor drained.
pub struct Page {
    /// Results of this pull, rank order.
    pub results: Vec<JoinTuple>,
    /// The cursor has emitted everything.
    pub done: bool,
}

/// An open pull-based cursor.
pub struct Cursor(Box<dyn RankedCursor>);

/// A paused cursor.
pub struct Paused(CursorState);

impl Cursor {
    /// Pulls up to `n` further results.
    pub fn pull(&mut self, n: usize) -> Res<Page> {
        let batch = self.0.next_batch(n, &StopPolicy::never()).map_err(err)?;
        Ok(Page {
            results: batch.results,
            done: batch.done,
        })
    }

    /// Detaches the execution into plain data.
    pub fn pause(self) -> Paused {
        Paused(self.0.pause())
    }
}

impl Binary {
    /// Builds the ISL index (a MapReduce job).
    pub fn prepare_isl(&mut self) -> Res<()> {
        self.ex.prepare_isl().map(drop).map_err(err)
    }

    /// Builds the BFHM index (MapReduce jobs).
    pub fn prepare_bfhm(&mut self) -> Res<()> {
        self.ex
            .prepare_bfhm(BfhmConfig::with_buckets(BFHM_BUCKETS))
            .map(drop)
            .map_err(err)
    }

    /// A clone over the same data, indices and statistics handle whose
    /// BFHM reads write reconstructed blobs back as they fetch them
    /// (`WriteBackPolicy::Eager`): the read pays for the update records
    /// pending in the buckets it touches, and leaves them compacted.
    pub fn with_eager_write_back(&self, store: &Store) -> Res<Binary> {
        let mut ex = self.ex.fork_onto(&store.cluster).map_err(err)?;
        ex.write_back = WriteBackPolicy::Eager;
        Ok(Binary { ex, q: self.q })
    }

    /// One-shot top-`k`. Returns the results and the algorithm that ran.
    pub fn execute(&self, algo: Algo, k: usize) -> Res<(Vec<JoinTuple>, &'static str)> {
        let out = self.ex.execute_with_k(algo.algorithm(), k).map_err(err)?;
        Ok((out.results, out.algorithm))
    }

    /// The planner call alone (cached per `k` and statistics version).
    pub fn plan(&self, k: usize) -> Res<()> {
        self.ex.plan_with_k(k).map(drop).map_err(err)
    }

    /// Opens a cursor targeting the top `k`.
    pub fn open(&self, algo: Algo, k: usize) -> Res<Cursor> {
        self.ex
            .open_cursor(algo.algorithm(), k)
            .map(Cursor)
            .map_err(err)
    }

    /// Resumes a paused cursor.
    pub fn resume(&self, paused: Paused) -> Res<Cursor> {
        self.ex.resume_cursor(paused.0).map(Cursor).map_err(err)
    }

    /// Full statistics passes the shared handle has run so far.
    pub fn stats_collections(&self) -> u64 {
        self.ex.stats_handle().collections()
    }
}

/// The 3-way path executor.
pub struct Multiway {
    ex: SpecExecutor,
}

impl Multiway {
    /// Builds the multiway score index (a MapReduce job).
    pub fn prepare(&mut self) -> Res<()> {
        self.ex.prepare().map(drop).map_err(err)
    }

    /// One-shot top-`k`.
    pub fn execute(&self, k: usize) -> Res<Vec<JoinTuple>> {
        self.ex.execute_with_k(k).map(|o| o.results).map_err(err)
    }

    /// The per-side access planning call alone.
    pub fn plan(&self, k: usize) -> Res<()> {
        self.ex.plan_access(k).map(drop).map_err(err)
    }

    /// Opens a cursor targeting the top `k`.
    pub fn open(&self, k: usize) -> Res<Cursor> {
        self.ex.open_cursor(k).map(Cursor).map_err(err)
    }
}

/// The maintained write path over one executor's two sides.
pub struct Writer {
    q: Q,
    left: MaintainedSide,
    right: MaintainedSide,
}

impl Writer {
    /// Inserts a new left-side row (a Part for Q1, an Orders row for
    /// Q2): row key and join value are both the encoded `key`.
    pub fn insert_left(&self, key: u64, score: f64) -> Res<()> {
        let key = rowkey::order(key);
        self.left
            .insert(&key, &key, score, Vec::new())
            .map(drop)
            .map_err(err)
    }

    /// Deletes a left-side row inserted through this writer.
    pub fn delete_left(&self, key: u64) -> Res<()> {
        self.left.delete(&rowkey::order(key)).map(drop).map_err(err)
    }

    /// Inserts a new Lineitem row — the right side of both queries. The
    /// writer's own join column (`jk_part` for Q1, `jk_order` for Q2)
    /// goes through the maintained path; the other one rides along so
    /// the row stays well-formed for the other query's base scans.
    pub fn insert_lineitem(
        &self,
        order_key: u64,
        line_number: u32,
        part_key: u64,
        score: f64,
    ) -> Res<()> {
        let (own, other_col, other) = match self.q {
            Q::Q1 => (
                rowkey::part(part_key),
                loader::cols::JK_ORDER,
                rowkey::order(order_key),
            ),
            Q::Q2 => (
                rowkey::order(order_key),
                loader::cols::JK_PART,
                rowkey::part(part_key),
            ),
        };
        let extra = vec![Mutation::put(loader::FAMILY, other_col, other)];
        self.right
            .insert(
                &rowkey::lineitem(order_key, line_number),
                &own,
                score,
                extra,
            )
            .map(drop)
            .map_err(err)
    }

    /// Deletes a Lineitem row inserted through this writer.
    pub fn delete_lineitem(&self, order_key: u64, line_number: u32) -> Res<()> {
        self.right
            .delete(&rowkey::lineitem(order_key, line_number))
            .map(drop)
            .map_err(err)
    }
}

/// What a session looks like to a polling client.
pub enum Status {
    /// Queued or running.
    Pending,
    /// Parked between pages.
    Paged {
        /// Continuation for `next_page`.
        token: PageToken,
    },
    /// Terminal.
    Done {
        /// The answer.
        results: Arc<Vec<JoinTuple>>,
        /// Ended `Complete` (anything else is a failure here — the
        /// benchmark never cancels and sets no deadline).
        complete: bool,
    },
}

impl From<SessionStatus> for Status {
    fn from(s: SessionStatus) -> Status {
        match s {
            SessionStatus::Queued | SessionStatus::Running => Status::Pending,
            SessionStatus::Paged(info) => Status::Paged { token: info.token },
            SessionStatus::Done(r) => Status::Done {
                complete: r.outcome == SessionOutcome::Complete,
                results: r.results,
            },
        }
    }
}

/// A session handle.
pub type Session = SessionId;

/// What one scheduling round did, as far as the client can tell.
pub struct Round {
    /// Sessions dispatched, completed, requeued or rebuilt this round.
    pub activity: usize,
}

/// A serving front-end over Q1 and Q2 ISL backends.
pub struct Service {
    svc: RankJoinService,
    backends: [BackendId; 2],
    tenants: Vec<TenantId>,
}

impl Service {
    /// A fresh service (sharing on, `round_width` 8, the global pool)
    /// with `tenants` equal-weight tenants and one backend per query.
    pub fn new(store: &Store, q1: &Binary, q2: &Binary, tenants: usize) -> Res<Service> {
        let svc = RankJoinService::new(ServeConfig {
            round_width: 8,
            sharing: true,
            pool_threads: None,
            ..ServeConfig::default()
        });
        let mut backends = Vec::with_capacity(2);
        for b in [q1, q2] {
            let proto = b.ex.fork_onto(&store.cluster).map_err(err)?;
            backends.push(svc.register_backend(proto).map_err(err)?);
        }
        let tenants = (0..tenants)
            .map(|i| svc.register_tenant(&format!("t{i}"), 1.0).map_err(err))
            .collect::<Res<Vec<_>>>()?;
        Ok(Service {
            svc,
            backends: [backends[0], backends[1]],
            tenants,
        })
    }

    /// Submits a top-`k` session, paged when `page` is set.
    pub fn submit(&self, tenant: usize, q: Q, k: usize, page: Option<usize>) -> Res<SessionId> {
        let mut opts = SubmitOptions::topk(k);
        if let Some(p) = page {
            opts = opts.with_page_size(p);
        }
        self.svc
            .submit(self.tenants[tenant], self.backends[q.index()], opts)
            .map_err(err)
    }

    /// Runs rounds until nothing is queued; returns how many ran.
    pub fn run_until_idle(&self) -> Res<usize> {
        self.svc.run_until_idle().map(|r| r.len()).map_err(err)
    }

    /// Runs one scheduling round.
    pub fn run_round(&self) -> Res<Round> {
        let r = self.svc.run_round().map_err(err)?;
        Ok(Round {
            activity: r.dispatched + r.completed + r.requeued + r.maintenance_runs,
        })
    }

    /// Polls a session.
    pub fn poll(&self, id: SessionId) -> Res<Status> {
        self.svc.poll(id).map(Status::from).map_err(err)
    }

    /// Pulls a paged session's next page.
    pub fn next_page(&self, token: PageToken) -> Res<Status> {
        self.svc.next_page(token).map(Status::from).map_err(err)
    }

    /// The service's monotone counters.
    pub fn counters(&self) -> ServeCounters {
        self.svc.counters()
    }

    /// Sum of every tenant fork ledger — what serving charged in total.
    pub fn usage(&self) -> MetricsSnapshot {
        self.svc.total_usage()
    }

    /// Metering conservation: every tenant's billing record equals its
    /// fork ledgers, component for component.
    pub fn billed_equals_ledger(&self) -> Res<bool> {
        for &t in &self.tenants {
            let used = self.svc.tenant_usage(t).map_err(err)?;
            let billed = self.svc.tenant_charged(t).map_err(err)?;
            if used.kv_reads != billed.kv_reads
                || used.network_bytes != billed.network_bytes
                || used.rpc_calls != billed.rpc_calls
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The store probes' client handle.
pub struct ProbeClient {
    client: Client,
}

impl ProbeClient {
    /// Scans up to `limit` rows of `table` with the ISL row-cache size;
    /// returns how many rows came back.
    pub fn scan_rows(&self, table: &str, limit: usize) -> Res<usize> {
        let scan = Scan::new().caching(ISL_BATCH).limit(limit);
        Ok(self.client.scan(table, scan).map_err(err)?.count())
    }

    /// Point-reads one row; `true` when it exists.
    pub fn get(&self, table: &str, key: &[u8]) -> Res<bool> {
        self.client
            .get(table, key)
            .map(|r| r.is_some())
            .map_err(err)
    }

    /// One single-column `mutate_row`.
    pub fn put(&self, table: &str, key: &[u8], qualifier: &[u8], value: &[u8]) -> Res<()> {
        self.client
            .mutate_row(
                table,
                key,
                vec![Mutation::put(loader::FAMILY, qualifier, value.to_vec())],
            )
            .map_err(err)
    }
}

/// Base-table names for the probes.
pub mod tables {
    use super::loader;
    /// `orders`.
    pub const ORDERS: &str = loader::ORDERS_TABLE;
}

impl Binary {
    /// The ISL index table — the largest index table, for the scan probe.
    pub fn isl_table(&self) -> Res<String> {
        self.ex
            .isl_table()
            .map(str::to_owned)
            .ok_or_else(|| "no ISL index".to_owned())
    }
}

/// `WorkStealingPool::run_batch` of `n` empty tasks on the global pool.
pub fn pool_batch(n: usize) -> usize {
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
        .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>)
        .collect();
    WorkStealingPool::global().run_batch(tasks).len()
}

/// Worker threads of the global pool (`RJ_POOL_THREADS` or `nproc`).
pub fn pool_threads() -> usize {
    WorkStealingPool::global().threads()
}

/// Inputs of the sketch probes: two populated hybrid filters and one of
/// them Golomb-encoded as a BFHM blob.
pub struct SketchFixture {
    left: HybridFilter,
    right: HybridFilter,
    blob: Vec<u8>,
}

impl SketchFixture {
    /// Two `m`-bit filters holding `n` keys each, half of them shared.
    pub fn new(m: usize, n: u64) -> SketchFixture {
        let mut left = HybridFilter::new(m);
        let mut right = HybridFilter::new(m);
        for i in 0..n {
            left.insert(&i.to_be_bytes());
            right.insert(&(i + n / 2).to_be_bytes());
        }
        let blob = BfhmBlob::new(left.clone(), 0.25, 0.75).encode(BlobCodec::Golomb);
        SketchFixture { left, right, blob }
    }

    /// `BfhmBlob::decode`; returns the decoded filter's set-bit count.
    pub fn blob_decode(&self) -> Res<usize> {
        BfhmBlob::decode(&self.blob)
            .map(|b| b.filter.set_bit_count())
            .map_err(err)
    }

    /// `HybridFilter::common_positions`; returns the match count.
    pub fn filter_intersect(&self) -> usize {
        self.left.common_positions(&self.right).len()
    }
}

/// `FlatMultiMap` probe target.
pub struct FlatMap(FlatMultiMap<u32>);

impl FlatMap {
    /// An empty map.
    pub fn new() -> FlatMap {
        FlatMap(FlatMultiMap::new())
    }

    /// `FlatMultiMap::push`.
    pub fn push(&mut self, key: &[u8], value: u32) {
        self.0.push(key, value);
    }

    /// `FlatMultiMap::get`; returns the group's length.
    pub fn get(&self, key: &[u8]) -> usize {
        self.0.get(key).count()
    }
}

/// `TopK` probe: offers `scores.len()` distinct tuples to a `k`-bounded
/// list and returns how many it kept.
pub fn topk_offer(k: usize, tuples: Vec<JoinTuple>) -> usize {
    let mut top = TopK::new(k);
    for t in tuples {
        top.offer(t);
    }
    top.len()
}

/// A result tuple for the `TopK` probe.
pub fn probe_tuple(i: u64, score: f64) -> JoinTuple {
    JoinTuple {
        left_key: i.to_be_bytes().to_vec(),
        right_key: (i ^ 0x5555).to_be_bytes().to_vec(),
        join_value: (i % 97).to_be_bytes().to_vec(),
        left_score: score,
        right_score: 0.0,
        inner: Vec::new(),
        score,
    }
}

/// `JoinTuple::rank_cmp`, the workspace's total result order.
pub fn rank_cmp(a: &JoinTuple, b: &JoinTuple) -> std::cmp::Ordering {
    a.rank_cmp(b)
}
