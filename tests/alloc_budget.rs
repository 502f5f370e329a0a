//! Allocation budget of the ISL read path (scan → HRJN → top-k → cursor),
//! binary and 3-way — one spine, so one budget.
//!
//! The path is meant to copy nothing per tuple: a row the scan lends out
//! costs nothing (its batch is refilled in place), a row it merely walks
//! over costs nothing, the top-k buffers a join match as seen-tuple ids
//! (admitting and evicting reuse its slots) and builds a result only when
//! it leaves the operator, and a paused cursor carries its operator state
//! instead of rebuilding it. The seen-tuple stores, the top-k and the
//! scanners' row batches a run keeps are not grown from empty either: a
//! run starts from the buffers its executor's last run grew and gives
//! them back when it is dropped. So the steady state is the warm run,
//! which pays for its result keys and a small constant (scanner specs,
//! cursor, result vector) and leaves the live heap where the run before
//! it did; an executor's first run also pays its buffers' growth, and the
//! budgets below that a cold run meets still hold. Dropping the executor
//! with everything it opened frees what it kept. These tests pin that
//! with a counting allocator, on a tiny TPC-H load. Counts are per
//! thread, so the other tests of this binary running
//! beside a measured region do not disturb it (every such call runs on the
//! calling thread), and a test comparing two runs makes both warm, or says
//! which one is cold. What is counted process-wide — DRJN, whose pulls fan
//! out to the pool, and the live heap — is counted while no other test of
//! the binary runs ([`ALONE`]).
//!
//! BFHM's read path borrows in the same way: a run resolves its
//! projections once and refills one row batch for every get, the
//! metadata row's included (`Client::get_into`); a decoded blob *is* the
//! hybrid filter's one array; an estimate is a bucket pair and its
//! numbers, whose shared positions a merge re-derives without allocating;
//! cells are decoded in place into the cache's columns, and the top-k
//! ranks the cache's tuple ids, so a match is built only when it leaves
//! the run. What it still pays is one array per fetched blob, the cache's
//! column growth and the results it hands back; its one-shot budget below
//! is that figure. A warm run starts from the cache, estimates, fetched
//! lists and blob arrays its executor's last run gave back — a blob decodes
//! into the smallest kept array with room — and its outcome's counters are
//! plain fields, so it pays for its results and nothing else. Shape tests
//! pin that a get, a blob decode beyond its array and an estimate allocate
//! nothing. DRJN's pull join ranks ids
//! into its seen sides the same way, but its pulled rows are still
//! collected owned and its seen sides built by incremental pushes.
//!
//! No run copies its query: an executor shares one query (and its
//! two-side spec) with every run and cursor and passes `k` as an
//! argument, so `Auto` on a cached plan costs exactly what the algorithm
//! it picks costs.
//!
//! The maintained write path has a budget of the same kind. A write
//! allocates what the store keeps — a new row's key and column vector,
//! the values, and one row-key and one value-score handle that every index
//! cell and BFHM record of the write shares — plus the vectors it is made
//! of: an insert 12 allocations, a delete 4, pinned exactly. A one-mutation
//! index write passes an array, a delete reads its row into a batch its
//! side keeps and its tombstones reuse the handles that row lent (a
//! frozen row lends none, so each of its qualifiers is copied once), and
//! a statistics delta borrows its schema, so a statistics handle adds
//! nothing to a write. The store frees what a
//! delete kills (after the tombstones' grace window), so a round of
//! inserts and deletes allocates the same however many rounds came before
//! it. So has the serving layer's
//! `next_page`: a page costs its own rows, not a copy of every page
//! served before it.
//!
//! And the caches cost what they save: a prefix-cache hit shares the cut
//! an earlier hit was given, a cold plan walks the score grid's frontier
//! instead of materializing the grid, a cached 3-way access plan and a
//! resumed scanner's projection allocate nothing.
//!
//! Under all of it sits what the store keeps resident. A finished load or
//! index build freezes its rows into region segments, which own their
//! bytes in per-segment arenas, so a loaded store with both binary ISL
//! indices holds a ratcheted heap per stored byte, counted process-wide.
//! A scan of such a table copies each cell's bytes into its batch, and a
//! warm batch takes them without allocating.

use std::sync::{PoisonError, RwLock};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{counted, counted_bytes, counted_process_wide, CountingAlloc};

use rankjoin::core::bfhm::maintenance::{compact_if_pending, BfhmMaintainer};
use rankjoin::core::cursor::{CursorState, RankedCursor};
use rankjoin::core::{bfhm, isl};
use rankjoin::sketch::blob::{BfhmBlob, BlobCodec};
use rankjoin::sketch::hybrid::{AlphaMode, HybridFilter};
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, Extras, IslConfig, JoinEdge, JoinSide,
    JoinSpec, MaintainedSide, Mutation, RankJoinExecutor, RankJoinQuery, RankJoinService, Scan,
    ScoreFn, ServeConfig, SessionStatus, SpecExecutor, StopPolicy, SubmitOptions, WriteBackPolicy,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every test holds this for its whole body: shared when it counts its
/// own thread, exclusive when it counts the process.
static ALONE: RwLock<()> = RwLock::new(());

const ISL_BATCH: usize = 64;
/// One-shot BFHM on Q2 at k = 10, an executor's first run: 65 allocations
/// for 37 KV reads, the list its three blobs' arrays are kept in included
/// (66 while the outcome's counters were a growing vector; 85 when a blob
/// decoded into two arrays, an estimate kept its positions and the top-k
/// built every match it admitted; 109 when every run copied the query
/// twice, 504 when a blob decoded into a B-tree and a bitmap and every get
/// built an owned row).
const BFHM_ALLOCS_PER_1000_READS: u64 = 1_800;
/// One-shot DRJN on Q2 at k = 10: 12 815 allocations, give or take a few
/// (the order parallel map tasks write the pull table in decides a few
/// B-tree node splits), for 115 239 KV reads (14 051 when each round
/// copied the query and each pulled row its join value).
const DRJN_ALLOCS_PER_1000_READS: u64 = 115;
/// What a warm one-shot ISL run at k = 200 allocates beyond its result
/// keys: opening the cursor and its two scanners (scan specs, resume
/// keys) and the result vector; the scanners refill the row batches the
/// run before gave back. Measured: 13 on Q1 and on Q2 (33 when each run
/// built its own spec, 58 and 67 when every scanner also grew a new
/// batch); an executor's first run, growing its seen sides, top-k and
/// batches from empty, allocates 176 more on Q1 and 216 more on Q2.
const WARM_ISL_CONSTANT: u64 = 36;
/// The same for the 3-way path, with three scanners. Measured: 16 at
/// every `k` (58 with new batches); the executor's first run allocates
/// 315 more.
const WARM_THREE_WAY_CONSTANT: u64 = 20;

fn side(table: &str, label: &str, join: &'static [u8]) -> JoinSide {
    JoinSide::new(
        table,
        label,
        (loader::FAMILY, join),
        (loader::FAMILY, loader::cols::SCORE),
    )
}

/// The paper's Q1 (`Part ⋈ Lineitem`, product) and Q2 (`Orders ⋈
/// Lineitem`, sum).
fn queries() -> [RankJoinQuery; 2] {
    [
        RankJoinQuery::new(
            side(loader::PART_TABLE, "P", loader::cols::JK),
            side(loader::LINEITEM_TABLE, "L", loader::cols::JK_PART),
            10,
            ScoreFn::Product,
        ),
        RankJoinQuery::new(
            side(loader::ORDERS_TABLE, "O", loader::cols::JK),
            side(loader::LINEITEM_TABLE, "L2", loader::cols::JK_ORDER),
            10,
            ScoreFn::Sum,
        ),
    ]
}

/// A tiny TPC-H cluster with the ISL index of `query` built.
fn prepared(query: &RankJoinQuery) -> (Cluster, RankJoinExecutor) {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.isl_config = IslConfig::uniform(ISL_BATCH);
    ex.prepare_isl().unwrap();
    (cluster, ex)
}

/// A tiny TPC-H cluster with the score index of the 3-way path
/// `Part ⋈ Lineitem ⋈ Orders` (sum of the three scores) built, every side
/// descended `batch` rows a turn.
fn prepared_three_way(batch: usize) -> SpecExecutor {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let col = |c: &[u8]| (loader::FAMILY.to_owned(), c.to_vec());
    let sides = vec![
        side(loader::PART_TABLE, "P", loader::cols::JK),
        side(loader::LINEITEM_TABLE, "L", loader::cols::JK_PART),
        side(loader::ORDERS_TABLE, "O", loader::cols::JK),
    ];
    let edges = vec![
        JoinEdge {
            a: 0,
            a_col: col(loader::cols::JK),
            b: 1,
            b_col: col(loader::cols::JK_PART),
        },
        JoinEdge {
            a: 1,
            a_col: col(loader::cols::JK_ORDER),
            b: 2,
            b_col: col(loader::cols::JK),
        },
    ];
    let spec = JoinSpec::new(sides, edges, 10, ScoreFn::Sum).unwrap();
    let mut ex = SpecExecutor::new(&cluster, spec);
    ex.isl_config = IslConfig::uniform(batch);
    ex.prepare().unwrap();
    ex
}

/// Pulls `pulls` results one call each, pausing and resuming after every
/// call; returns each pause's consumed depth and each resume's
/// allocations.
fn resume_costs(
    mut cursor: Box<dyn RankedCursor>,
    pulls: [usize; 2],
    resume: impl Fn(CursorState) -> Box<dyn RankedCursor>,
) -> ([u64; 2], [u64; 2]) {
    let policy = StopPolicy::default();
    let (mut depths, mut allocs) = ([0; 2], [0; 2]);
    for (i, pull) in pulls.into_iter().enumerate() {
        let batch = cursor.next_batch(pull, &policy).unwrap();
        assert_eq!(batch.results.len(), pull);
        let state = cursor.pause();
        depths[i] = state.consumed_depth();
        (cursor, allocs[i]) = counted(|| resume(state));
    }
    (depths, allocs)
}

/// Drains a fresh cursor over `k` results `page` at a time with a
/// pause/resume between pages; returns the results and the page count.
fn paged(
    open: impl Fn() -> Box<dyn RankedCursor>,
    resume: impl Fn(CursorState) -> Box<dyn RankedCursor>,
    (k, page): (usize, usize),
) -> (Vec<rankjoin::JoinTuple>, u64) {
    let policy = StopPolicy::default();
    let mut results = Vec::new();
    let mut pages = 0;
    let mut cursor = open();
    loop {
        let batch = cursor.next_batch(page, &policy).unwrap();
        results.extend(batch.results);
        pages += 1;
        if batch.done {
            assert_eq!(results.len(), k);
            return (results, pages);
        }
        cursor = resume(cursor.pause());
    }
}

/// A new executor over `ex`'s cluster, query and ISL index, with its ISL
/// tuning, whose spare list is empty: its first run is a cold run. (A
/// fork would recycle `ex`'s list.)
fn cold(ex: &RankJoinExecutor) -> RankJoinExecutor {
    let mut fresh = RankJoinExecutor::new(ex.engine().cluster(), ex.query().clone());
    fresh.isl_config = ex.isl_config;
    fresh.attach_isl(ex.isl_table().unwrap()).unwrap();
    fresh
}

/// The cold budget: every run on a fresh executor, growing its seen sides
/// and top-k from empty.
#[test]
fn one_shot_isl_stays_below_one_allocation_per_kv_read() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let (mut total_allocs, mut total_reads) = (0, 0);
    for query in queries() {
        let (_cluster, ex) = prepared(&query);
        for k in [10, 50, 200] {
            let fresh = cold(&ex);
            let (outcome, allocs) = counted(|| fresh.execute_with_k(Algorithm::Isl, k).unwrap());
            assert_eq!(outcome.results.len(), k);
            let reads = outcome.metrics.kv_reads;
            assert!(
                allocs < reads,
                "{} k={k}: {allocs} allocations for {reads} KV reads",
                query.left.label
            );
            total_allocs += allocs;
            total_reads += reads;
        }
    }
    // Measured: 2 721 allocations for 14 059 KV reads (0.19 a read; 0.37
    // at worst, Q1 at k = 200, where building the 200 results dominates:
    // 789, against 1 872 when every admitted match was copied into the
    // top-k and 5 429 in all).
    assert!(
        total_allocs * 100 <= total_reads * 25,
        "{total_allocs} allocations for {total_reads} KV reads"
    );
}

/// The warm steady state: a run that starts from the seen sides and top-k
/// a run before it grew pays for its results and a small constant, not
/// for the thousands of tuples it keeps.
#[test]
fn a_warm_one_shot_isl_run_allocates_its_result_keys_and_a_constant() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let k = 200;
    for query in queries() {
        let (_cluster, ex) = prepared(&query);
        let run = || ex.execute_with_k(Algorithm::Isl, k).unwrap();
        // The executor's first run, then one from the buffers it grew.
        let (first, first_allocs) = counted(run);
        let (warm, warm_allocs) = counted(run);
        assert_eq!(warm.results, first.results);
        assert_eq!(warm.metrics.kv_reads, first.metrics.kv_reads);
        // Three keys a result (left, right, join value).
        assert!(
            warm_allocs <= 3 * k as u64 + WARM_ISL_CONSTANT,
            "{}: a warm run allocated {warm_allocs} (the first: {first_allocs})",
            query.left.label
        );
    }
}

#[test]
fn a_warm_three_way_run_allocates_its_result_keys_and_a_constant() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let ex = prepared_three_way(ISL_BATCH);
    // The executor's first run, then the `k`s of the `multiway_path`
    // benchmark workload and a deep one, each run twice.
    let (cold, cold_allocs) = counted(|| ex.execute_with_k(200).unwrap());
    for k in [1, 10, 25, 200] {
        let (first, first_allocs) = counted(|| ex.execute_with_k(k).unwrap());
        let (warm, warm_allocs) = counted(|| ex.execute_with_k(k).unwrap());
        assert_eq!(warm.results, first.results, "k = {k}");
        assert_eq!(warm.results.len(), k);
        // Five a result: three keys, the interior side's key and the
        // vector holding it.
        assert!(
            warm_allocs <= 5 * k as u64 + WARM_THREE_WAY_CONSTANT,
            "k = {k}: a warm 3-way run allocated {warm_allocs} (the first: {first_allocs})"
        );
    }
    assert_eq!(ex.execute_with_k(200).unwrap().results, cold.results);
    assert!(cold_allocs > 5 * 200 + WARM_THREE_WAY_CONSTANT);
}

/// An executor's spare buffers are what its runs grew, and no more: after
/// an ISL one-shot run and a paged session, ten more of each leave the
/// live heap exactly where the first pair left it, and after a cycle of
/// BFHM runs over mixed `k`s, whose blobs decode into the arrays the runs
/// before kept, so do ten more cycles — nothing accumulates.
#[test]
fn warm_runs_leave_the_live_heap_where_the_first_left_it() {
    let _alone = ALONE.write().unwrap_or_else(PoisonError::into_inner);
    let [q1, q2] = queries();
    let (_cluster, isl) = prepared(&q1);
    let isl_runs = || {
        let one_shot = isl.execute_with_k(Algorithm::Isl, 200).unwrap();
        let (paged, _) = paged(
            || isl.open_cursor(Algorithm::Isl, 200).unwrap(),
            |s| isl.resume_cursor(s).unwrap(),
            (200, 10),
        );
        assert_eq!(paged, one_shot.results);
    };
    assert_live_heap_flat("ISL", isl_runs);
    let (_cluster, mut bfhm) = prepared(&q2);
    bfhm.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    let bfhm_cycle = || {
        for k in [50, 1, 10, 50, 10, 1] {
            bfhm_run(&bfhm, k);
        }
    };
    assert_live_heap_flat("BFHM", bfhm_cycle);
}

/// Asserts that ten more calls of `run` leave the live heap where its
/// first call left it. Measured: 0 bytes each time, ISL and BFHM.
fn assert_live_heap_flat(what: &str, run: impl Fn()) {
    // On the stack: a vector of readings would be live heap too.
    let mut after = [0; 10];
    let before = counting_alloc::live_bytes();
    run();
    let first = counting_alloc::live_bytes();
    for live in &mut after {
        run();
        *live = counting_alloc::live_bytes();
    }
    assert!(
        after.iter().all(|&live| live == first),
        "{what}: the first run left {} bytes live; each of 10 more: {:?}",
        first - before,
        after.map(|live| live as i64 - before as i64)
    );
}

/// The store's own footprint: a loaded SF-0.002 store with both binary
/// ISL indices built holds at most this many hundredths of a heap byte
/// per byte its tables report stored (`Table::disk_size`). Measured:
/// 0.6385, its rows frozen by the load's and the index builds' flushes
/// into region segments that own their bytes, store each repeated name
/// once and nothing they can derive: no key or qualifier ends where
/// every key, or every qualifier of a family, has one width, one
/// timestamp per row where a row was written whole, timestamp deltas of
/// 16 bits where their span fits, one row shape where every row names
/// the same columns, the keys' common prefix once and 16-bit ends in
/// blocks of 256 (0.7366 with a code and a `u32` end per column, a
/// `u32` column end per row and whole keys; 0.8666 with `u32` key and qualifier
/// ends and a `u32` timestamp delta per column, 1.1218 while each column
/// kept its own name and `u64` timestamp, 1.8908 while a segment held
/// each cell's qualifier and value as handles, 2.819–2.823 while every
/// row was a B-tree entry, 3.299–3.301 when every loaded row also copied
/// its column names and each lineitem its join keys).
const STORE_HEAP_PER_STORED_BYTE_X100: u64 = 64;

/// A finished load or index build freezes its rows into region segments,
/// each holding its keys, names and values in flat arenas and storing
/// only what it cannot derive: the live heap of a loaded, indexed store
/// stays at the ratio that buys.
#[test]
fn a_loaded_store_holds_a_bounded_heap_per_stored_byte() {
    let _alone = ALONE.write().unwrap_or_else(PoisonError::into_inner);
    let before = counting_alloc::live_bytes();
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    for query in queries() {
        RankJoinExecutor::new(&cluster, query)
            .prepare_isl()
            .unwrap();
    }
    let heap = counting_alloc::live_bytes() - before;
    let stored: u64 = cluster
        .table_names()
        .iter()
        .map(|name| cluster.table(name).unwrap().disk_size())
        .sum();
    assert!(
        heap * 100 <= STORE_HEAP_PER_STORED_BYTE_X100 * stored,
        "{heap} B of heap for {stored} B stored"
    );
}

/// What an executor keeps is freed with it: after one-shot, paged and
/// parked ISL and BFHM runs, dropping the executor with every cursor and
/// parked state it opened leaves the live heap where it was before the
/// executor was made.
#[test]
fn dropping_an_executor_frees_its_spares() {
    let _alone = ALONE.write().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut prototype) = prepared(&q2);
    let (config, policy) = (BfhmConfig::with_buckets(20), StopPolicy::default());
    prototype.prepare_bfhm(config.clone()).unwrap();
    // The cluster's first reads free a little of what the index builds
    // left, so they run before the reading.
    for algorithm in [Algorithm::Isl, Algorithm::Bfhm] {
        prototype.execute_with_k(algorithm, 50).unwrap();
    }
    let before = counting_alloc::live_bytes();
    let mut ex = cold(&prototype);
    ex.attach_bfhm(&bfhm::index_table_name(prototype.query()), config)
        .unwrap();
    let mut parked = Vec::new();
    for algorithm in [Algorithm::Isl, Algorithm::Bfhm] {
        for k in [10, 50] {
            let one_shot = ex.execute_with_k(algorithm, k).unwrap();
            let (paged, _) = paged(
                || ex.open_cursor(algorithm, k).unwrap(),
                |s| ex.resume_cursor(s).unwrap(),
                (k, 7),
            );
            assert_eq!(paged, one_shot.results);
            let mut cursor = ex.open_cursor(algorithm, k).unwrap();
            cursor.next_batch(3, &policy).unwrap();
            parked.push(cursor.pause());
        }
    }
    let open = ex.open_cursor(Algorithm::Isl, 10).unwrap();
    assert!(counting_alloc::live_bytes() > before);
    drop((ex, open, parked));
    assert_eq!(counting_alloc::live_bytes(), before);
}

#[test]
fn a_never_policy_allocates_nothing() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let (policy, allocs) = counted(StopPolicy::never);
    assert_eq!(allocs, 0, "`StopPolicy::never` allocated");
    assert!(!policy.token.is_cancelled());
}

/// A binary HRJN at `k` (min of the two scores) fed 40 right tuples, then
/// 40 left ones, all on one join value and each side at one score, so
/// every match ties and ranks by its keys alone. With `descending_keys`
/// each side arrives in descending key order, which makes every match
/// outrank all the ones before it; otherwise every match after the first
/// `k` ranks below them. Returns the results and the pushes' allocations.
fn hrjn_over_ties(k: usize, descending_keys: bool) -> (Vec<rankjoin::JoinTuple>, u64) {
    use rankjoin::core::hrjn::HrjnState;
    let spec = JoinSpec::path(
        vec![side("l", "L", b"j"), side("r", "R", b"j")],
        k,
        ScoreFn::Min,
    )
    .unwrap();
    let key = |prefix: &str, i: u32| {
        let i = if descending_keys { 39 - i } else { i };
        format!("{prefix}{i:02}").into_bytes()
    };
    let inputs: Vec<(usize, Vec<u8>, f64)> = (0..40)
        .map(|i| (1, key("r", i), 0.5))
        .chain((0..40).map(|i| (0, key("l", i), 1.0)))
        .collect();
    let mut state = HrjnState::new(&spec, k);
    let ((), allocs) = counted(|| {
        for (side, key, score) in &inputs {
            state
                .push_borrowed(*side, key, [&b"x"[..]], *score)
                .unwrap();
        }
    });
    (state.into_results(), allocs)
}

#[test]
fn top_k_churn_allocates_nothing_beyond_the_final_k() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let k = 10;
    // The same tuples, arenas and final answer; the top-k admits only its
    // final ten matches in one run, and all 1 600 (evicting 1 590) in the
    // other.
    let (calm, calm_allocs) = hrjn_over_ties(k, false);
    let (churn, churn_allocs) = hrjn_over_ties(k, true);
    assert_eq!(churn, calm);
    assert_eq!(churn.len(), k);
    // Measured: 55 each, the arenas' and the top-k's growth. When an
    // admission built a `JoinTuple`, the churn cost three allocations an
    // admission.
    assert!(
        churn_allocs <= calm_allocs,
        "churning top-k: {churn_allocs} allocations, calm one: {calm_allocs}"
    );
}

#[test]
fn one_shot_bfhm_allocations_per_kv_read_are_pinned() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    let (outcome, allocs) = counted(|| ex.execute(Algorithm::Bfhm).unwrap());
    assert_eq!(outcome.results.len(), 10);
    let reads = outcome.metrics.kv_reads;
    assert!(
        allocs <= BFHM_ALLOCS_PER_1000_READS * reads / 1000,
        "BFHM: {allocs} allocations for {reads} KV reads"
    );
}

/// The warm steady state of BFHM: a run that starts from the buffers a
/// run before it grew, its blobs decoding into the arrays that run's
/// blobs left, pays for its results and nothing else.
#[test]
fn a_warm_one_shot_bfhm_run_allocates_only_its_results() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    for query in queries() {
        let (_cluster, mut ex) = prepared(&query);
        ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
        for k in [1, 10, 50] {
            let (first, first_allocs) = bfhm_run(&ex, k);
            let (warm, warm_allocs) = bfhm_run(&ex, k);
            assert_eq!(warm.results, first.results, "k = {k}");
            // Three keys a result (left, right, join value) and the
            // vector holding them.
            assert_eq!(
                warm_allocs,
                3 * k as u64 + 1,
                "{} k = {k}: a warm run allocated {warm_allocs} (the first: {first_allocs})",
                query.left.label
            );
        }
    }
}

/// A parked BFHM state copied into a cache (as `rj_serve`'s partial-work
/// cache copies one) copies the run, not the arrays its executor kept for
/// later decodes: the copy costs the same whether they are kept or not.
#[test]
fn a_parked_bfhm_state_clones_without_its_executors_kept_arrays() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    let policy = StopPolicy::default();
    let clone_of_parked = |ex: &RankJoinExecutor| {
        let mut cursor = ex.open_cursor(Algorithm::Bfhm, 10).unwrap();
        assert_eq!(cursor.next_batch(3, &policy).unwrap().results.len(), 3);
        let state = cursor.pause();
        counted(|| state.clone()).1
    };
    // The executor's first cursor: nothing kept yet.
    let cold = clone_of_parked(&ex);
    // A deeper run leaves arrays for more blobs than the cursor fetches.
    bfhm_run(&ex, 50);
    let warm = clone_of_parked(&ex);
    assert_eq!(warm, cold);
}

#[test]
fn auto_on_a_cached_plan_allocates_exactly_what_its_choice_allocates() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    // The lab profile, where Auto picks BFHM over ISL and the MapReduce
    // baselines, as in the benchmark's `bfhm_auto`.
    let cluster = Cluster::with_profile(CostModel::lab());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let mut ex = RankJoinExecutor::new(&cluster, q2);
    ex.isl_config = IslConfig::uniform(ISL_BATCH);
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    for k in [1, 10, 50] {
        let choice = ex.plan_with_k(k).unwrap().best().unwrap();
        assert_eq!(choice, Algorithm::Bfhm, "k = {k}");
        // Uncounted, so both counted runs start from a top-k this executor
        // grew at this `k`: otherwise the first one pays the growth.
        ex.execute_with_k(choice, k).unwrap();
        let (chosen, chosen_allocs) = counted(|| ex.execute_with_k(choice, k).unwrap());
        let (auto, auto_allocs) = counted(|| ex.execute_with_k(Algorithm::Auto, k).unwrap());
        assert_eq!(auto.results, chosen.results, "k = {k}");
        // The cached plan, the shared query and the outcome's plain
        // `planner_candidates` field: Auto adds no allocation to its
        // choice's (it added a copy of the query when it took one per run).
        assert_eq!(auto_allocs, chosen_allocs, "k = {k}");
    }
}

/// The ISL twin of the test above: an `Auto` run whose plan picks ISL is
/// that ISL run, with nothing wrapped around it.
#[test]
fn auto_choosing_isl_allocates_exactly_what_isl_allocates() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    // EC2 constants with only ISL prepared: a MapReduce job's startup
    // prices the baselines out, so Auto picks ISL.
    let cluster = Cluster::with_profile(CostModel::ec2(3));
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let mut ex = RankJoinExecutor::new(&cluster, q2);
    ex.isl_config = IslConfig::uniform(ISL_BATCH);
    ex.prepare_isl().unwrap();
    for k in [1, 10, 50] {
        let choice = ex.plan_with_k(k).unwrap().best().unwrap();
        assert_eq!(choice, Algorithm::Isl, "k = {k}");
        // Uncounted, so both counted runs start from the buffers this
        // executor grew at this `k`.
        ex.execute_with_k(choice, k).unwrap();
        let (chosen, chosen_allocs) = counted(|| ex.execute_with_k(choice, k).unwrap());
        let (auto, auto_allocs) = counted(|| ex.execute_with_k(Algorithm::Auto, k).unwrap());
        assert_eq!(auto.results, chosen.results, "k = {k}");
        assert_eq!(auto.algorithm, "ISL", "k = {k}");
        assert_eq!(auto_allocs, chosen_allocs, "k = {k}");
    }
}

/// Equal runs allocate equally: each side's scans refill the batch that
/// side gave back, so sides of unequal batch sizes do not trade batches
/// from run to run, and a wider run on another executor leaves its
/// batches in that executor's list. (Taking
/// the oldest spare instead, the runs below allocated 55, 52 and 43 at
/// k = 10; taking the newest, the Auto/ISL equality above read 16 against
/// 22 at k = 1.)
#[test]
fn equal_warm_runs_allocate_equally_after_a_wider_run() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let three = prepared_three_way(ISL_BATCH);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    // Sides of unequal batch sizes grow unequal row batches.
    ex.isl_config = IslConfig {
        batch_left: 4,
        batch_right: 128,
    };
    for k in [10, 50, 200] {
        // Three batches to the 3-way list, then one run warms the binary
        // sides.
        three.execute_with_k(25).unwrap();
        ex.execute_with_k(Algorithm::Isl, k).unwrap();
        let runs: [_; 3] =
            std::array::from_fn(|_| counted(|| ex.execute_with_k(Algorithm::Isl, k).unwrap()));
        let allocs = runs.each_ref().map(|(_, allocs)| *allocs);
        assert!(
            allocs.iter().all(|&a| a == allocs[0]),
            "k = {k}: {allocs:?}"
        );
        assert!(runs.iter().all(|(run, _)| run.results == runs[0].0.results));
    }
}

/// One-shot BFHM at `k` and the allocations it made.
fn bfhm_run(ex: &RankJoinExecutor, k: usize) -> (rankjoin::QueryOutcome, u64) {
    let (outcome, allocs) = counted(|| ex.execute_with_k(Algorithm::Bfhm, k).unwrap());
    assert_eq!(outcome.results.len(), k);
    (outcome, allocs)
}

#[test]
fn a_reverse_row_get_allocates_nothing_once_the_runs_buffers_exist() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    // Uncounted: both counted runs start from the top-k it grew.
    bfhm_run(&ex, 50);
    let (shallow, shallow_allocs) = bfhm_run(&ex, 10);
    let (deep, deep_allocs) = bfhm_run(&ex, 50);
    let gets = |o: &rankjoin::QueryOutcome| match o.extras {
        Extras::Bfhm {
            bucket_gets,
            reverse_rows_fetched,
            ..
        } => bucket_gets + reverse_rows_fetched,
        other => panic!("a BFHM run counts as BFHM: {other:?}"),
    };
    let extra_gets = gets(&deep) - gets(&shallow);
    assert!(extra_gets >= 100, "k = 50 made only {extra_gets} more gets");
    // What the deeper run pays for: three keys per extra result — not the
    // gets, nor its extra blobs, which decode into the arrays the first
    // run's left. Measured: 31 and 151 allocations, 33 and 171 gets (57
    // and 192 while blob arrays were freed and the outcome's counters were
    // a growing vector; 64 and 204 when the shallow run was the executor's
    // first; 85 and 274 while estimates kept position vectors, blobs
    // decoded into two arrays and the top-k copied admitted matches); at
    // seven allocations a get the difference alone was 966.
    let budget = 3 * 40;
    assert!(
        deep_allocs <= shallow_allocs + budget,
        "k = 10: {shallow_allocs} allocations, k = 50: {deep_allocs}, for {extra_gets} more gets"
    );
}

/// Two hybrid filters over 400 join values, 200 of them shared.
fn bucket_filters() -> [HybridFilter; 2] {
    let mut filters = [HybridFilter::new(1 << 16), HybridFilter::new(1 << 16)];
    for i in 0..400u64 {
        filters[0].insert(&i.to_be_bytes());
        filters[1].insert(&(i + 200).to_be_bytes());
    }
    filters
}

#[test]
fn a_golomb_blob_decode_is_one_allocation() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [filter, _] = bucket_filters();
    let bytes = BfhmBlob::new(filter.clone(), 0.25, 0.75).encode(BlobCodec::Golomb);
    // The filter's one array: positions, then counters (it was two).
    let (blob, allocs) = counted(|| BfhmBlob::decode(&bytes).unwrap());
    assert_eq!(blob.filter, filter);
    assert_eq!(allocs, 1);
}

#[test]
fn a_bucket_pair_estimate_allocates_nothing() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [left, right] = bucket_filters();
    // A merge over the two arrays; it used to collect the shared positions.
    let ((common, cardinality), allocs) =
        counted(|| left.join_estimate(&right, AlphaMode::Compensated));
    assert_eq!(common, left.common_positions(&right).len());
    assert!(common >= 200 && cardinality > 0.0);
    assert_eq!(allocs, 0);
}

#[test]
fn bfhm_paged_session_costs_one_shot_plus_its_pages() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    let (k, page) = (50, 10);
    // Uncounted: both counted runs start from the top-k it grew.
    bfhm_run(&ex, k);
    let (one_shot, one_shot_allocs) = bfhm_run(&ex, k);
    let ((paged, pages), paged_allocs) = counted(|| {
        paged(
            || ex.open_cursor(Algorithm::Bfhm, k).unwrap(),
            |s| ex.resume_cursor(s).unwrap(),
            (k, page),
        )
    });
    assert_eq!(paged, one_shot.results);
    // Per page as for ISL: the page vector, a clone of each emitted result
    // and the pause/resume boxes. The parked machine is moved, not copied.
    // Measured: 192 against 208 over 5 pages.
    let per_page = 16 + 4 * page as u64;
    assert!(
        paged_allocs <= one_shot_allocs + pages * per_page,
        "paged {paged_allocs} vs one-shot {one_shot_allocs} over {pages} pages"
    );
}

/// A point read bills what a one-row scan of the same projection bills,
/// ledger for ledger, returns the row that scan returns, and allocates
/// nothing into a warm batch.
#[test]
fn a_point_read_bills_what_a_one_row_scan_bills_and_allocates_nothing_into_a_warm_batch() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let cluster = Cluster::new(2, CostModel::test());
    cluster.create_table("t", &["a", "b"]).unwrap();
    let client = cluster.client();
    let put = |row: &[u8], family: &str, qualifier: &[u8]| {
        let value = vec![7u8; 40];
        client
            .put("t", row, Mutation::put(family, qualifier, value))
            .unwrap();
    };
    put(b"wide", "a", b"q1");
    put(b"wide", "a", b"q2");
    put(b"wide", "b", b"q");
    put(b"only-a", "a", b"q");
    put(b"dead", "b", b"q");
    client.delete("t", b"dead", "b", b"q").unwrap();

    let families = [None, Some(vec!["b".to_owned()])];
    let mut batch = rankjoin::store::RowBatch::new();
    for families in &families {
        let projection = client.projection("t", families.as_deref()).unwrap();
        // Present, projected-empty (under `b`), tombstoned, absent; the
        // widest row first, so the batch is warm for the rest.
        let rows: [&[u8]; 4] = [b"wide", b"only-a", b"dead", b"absent"];
        for (i, row) in rows.into_iter().enumerate() {
            // A fresh ledger per read: its snapshot is that read's bill,
            // simulated seconds included, to the bit.
            let (scan_side, get_side) = (cluster.fork_metrics(), cluster.fork_metrics());
            let mut scan = Scan::new().start(row).stop([row, &[0]].concat());
            if let Some(families) = families {
                scan = scan.families(&[families[0].as_str()]);
            }
            let scanned: Vec<_> = scan_side.client().scan("t", scan).unwrap().collect();
            let reader = get_side.client();
            let (found, allocs) = counted(|| {
                let lent = reader.get_into(&mut batch, &projection, row);
                lent.map(|row| row.to_owned())
            });
            assert_eq!(
                found.into_iter().collect::<Vec<_>>(),
                scanned,
                "{families:?} row {i}"
            );
            assert_eq!(
                get_side.metrics().snapshot(),
                scan_side.metrics().snapshot(),
                "{families:?} row {i}"
            );
            assert_eq!(get_side.metrics().snapshot().rpc_calls, 1);
            // The `to_owned` above is the test's: key and cells.
            let copy = 2 * u64::from(!scanned.is_empty());
            if i > 0 {
                assert_eq!(allocs, copy, "{families:?} row {i}: the read allocated");
            }
        }
    }
    assert!(client.projection("t", Some(&["nope".to_owned()])).is_err());
    assert!(client.projection("nope", None).is_err());
}

/// A frozen index table lends its cells out of the scanner's batch, their
/// bytes copied from the segment's arena into it: a scanner reopened on
/// the batch an earlier scan grew refills it in place, so a scan of the
/// whole table allocates what one of ten rows does — nothing per row.
#[test]
fn a_warm_scan_of_a_frozen_index_allocates_nothing_per_row() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    // The build flushed the index into its regions' segments.
    let (cluster, ex) = prepared(&q2);
    let (client, table) = (cluster.client(), ex.isl_table().unwrap());
    let label = q2.right.label.as_str();
    let scan = |batch, limit| {
        let spec = Scan::new()
            .families(&[label])
            .caching(ISL_BATCH)
            .limit(limit);
        let mut scan = client.scan_with_batch(table, spec, batch).unwrap();
        let mut rows = 0;
        while scan.next_row().unwrap().is_some() {
            rows += 1;
        }
        (scan.into_state().into_batch(), rows)
    };
    let (batch, all) = scan(rankjoin::store::RowBatch::new(), usize::MAX);
    let ((batch, ten), ten_allocs) = counted(|| scan(batch, 10));
    let ((_, again), all_allocs) = counted(|| scan(batch, usize::MAX));
    assert_eq!((ten, again), (10, all));
    assert!(all > 100 * ISL_BATCH, "{all} rows");
    assert_eq!(all_allocs, ten_allocs, "{all} rows allocated per row");
}

#[test]
fn one_shot_drjn_allocations_per_kv_read_are_pinned() {
    let _alone = ALONE.write().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, mut ex) = prepared(&q2);
    ex.prepare_drjn(DrjnConfig::with_buckets(20)).unwrap();
    // The pull phase is MapReduce jobs on the pool's threads.
    let (outcome, allocs) = counted_process_wide(|| ex.execute(Algorithm::Drjn).unwrap());
    assert_eq!(outcome.results.len(), 10);
    let reads = outcome.metrics.kv_reads;
    assert!(
        allocs <= DRJN_ALLOCS_PER_1000_READS * reads / 1000,
        "DRJN: {allocs} allocations for {reads} KV reads"
    );
}

#[test]
fn projected_scan_allocates_nothing_for_rows_without_a_projected_cell() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    // The same ten `b` rows, alone and hidden among a thousand rows that
    // hold only `a` cells (the shape of a shared ISL index table).
    let cluster = Cluster::new(1, CostModel::test());
    let client = cluster.client();
    for (table, foreign_rows) in [("alone", 0u32), ("among", 1000)] {
        cluster.create_table(table, &["a", "b"]).unwrap();
        for i in 0..foreign_rows {
            let key = format!("row{:05}", i * 2 + 1);
            client
                .put(
                    table,
                    key.as_bytes(),
                    Mutation::put("a", b"q", b"v".to_vec()),
                )
                .unwrap();
        }
        for i in 0..10u32 {
            let key = format!("row{:05}", i * 200);
            client
                .put(
                    table,
                    key.as_bytes(),
                    Mutation::put("b", b"q", b"v".to_vec()),
                )
                .unwrap();
        }
    }
    let scan = |table: &'static str| {
        counted(|| {
            client
                .scan(table, Scan::new().families(&["b"]).caching(4096))
                .unwrap()
                .count()
        })
    };
    let (alone_rows, alone_allocs) = scan("alone");
    let (among_rows, among_allocs) = scan("among");
    assert_eq!((alone_rows, among_rows), (10, 10));
    assert_eq!(
        among_allocs, alone_allocs,
        "walking 1000 rows of another family must not allocate"
    );
}

#[test]
fn resume_cost_does_not_depend_on_consumed_depth() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, ex) = prepared(&q2);
    let cursor = ex.open_cursor(Algorithm::Isl, 200).unwrap();
    let (depths, allocs) = resume_costs(cursor, [1, 150], |s| ex.resume_cursor(s).unwrap());
    assert!(depths[1] > 4 * depths[0], "depths {depths:?}");
    assert_eq!(allocs[0], allocs[1], "depths {depths:?}");
    assert!(allocs[1] <= 8, "resume allocated {allocs:?}");
}

#[test]
fn three_way_resume_cost_does_not_depend_on_consumed_depth() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let ex = prepared_three_way(8);
    let cursor = ex.open_cursor(200).unwrap();
    let (depths, allocs) = resume_costs(cursor, [1, 150], |s| ex.resume_cursor(s).unwrap());
    assert!(depths[1] > 4 * depths[0], "depths {depths:?}");
    assert_eq!(allocs[0], allocs[1], "depths {depths:?}");
    assert!(allocs[1] <= 8, "resume allocated {allocs:?}");
}

#[test]
fn paged_session_costs_one_shot_plus_its_pages() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [q1, _] = queries();
    let (_cluster, ex) = prepared(&q1);
    let (k, page) = (200, 10);
    // Uncounted: both counted runs start from the buffers it grew.
    ex.execute_with_k(Algorithm::Isl, k).unwrap();
    let (one_shot, one_shot_allocs) = counted(|| ex.execute_with_k(Algorithm::Isl, k).unwrap());
    let ((paged, pages), paged_allocs) = counted(|| {
        paged(
            || ex.open_cursor(Algorithm::Isl, k).unwrap(),
            |s| ex.resume_cursor(s).unwrap(),
            (k, page),
        )
    });
    assert_eq!(paged, one_shot.results);
    // Both build each result once, as it leaves the operator; per page
    // the paged session adds the page vector and the pause/resume boxes.
    // Measured: 638 against 701 over 20 pages (787 against 849 before a
    // run started from the buffers of the run before it, 821 against 883
    // when each open copied the query into a spec).
    let per_page = 16;
    assert!(
        paged_allocs <= one_shot_allocs + pages * per_page,
        "paged {paged_allocs} vs one-shot {one_shot_allocs} over {pages} pages"
    );
}

#[test]
fn three_way_paged_session_costs_one_shot_plus_its_pages() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let ex = prepared_three_way(ISL_BATCH);
    let (k, page) = (200, 10);
    // Uncounted: both counted runs start from the buffers it grew.
    ex.execute_with_k(k).unwrap();
    let (one_shot, one_shot_allocs) = counted(|| ex.execute_with_k(k).unwrap());
    let ((paged, pages), paged_allocs) = counted(|| {
        paged(
            || ex.open_cursor(k).unwrap(),
            |s| ex.resume_cursor(s).unwrap(),
            (k, page),
        )
    });
    assert_eq!(paged, one_shot.results);
    // As for the binary join: a result is built once either way, when it
    // leaves the operator. Measured: 1 058 against 1 123 over 20 pages
    // (1 346 against 1 410 before a run started from the buffers of the
    // run before it, 1 378 against 1 442 when each open copied the spec,
    // 2 838 against 3 902 when the operator buffered built tuples, the
    // one-shot moved them out and every page cloned its own).
    let per_page = 16;
    assert!(
        paged_allocs <= one_shot_allocs + pages * per_page,
        "paged {paged_allocs} vs one-shot {one_shot_allocs} over {pages} pages"
    );
}

#[test]
fn served_page_cost_does_not_depend_on_pages_before_it() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [q1, _] = queries();
    let (_cluster, ex) = prepared(&q1);
    let service = RankJoinService::new(ServeConfig::default());
    let backend = service.register_backend(ex).unwrap();
    let tenant = service.register_tenant("pager", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(100).with_page_size(10))
        .unwrap();
    // The first page is served by a scheduling round (on the pool); every
    // later one by `next_page`, on this thread.
    service.run_round().unwrap();
    let mut per_page = Vec::new();
    loop {
        // Keep the token only: a client still holding a `PageInfo` shares
        // the rows served so far, and the next page must then copy them.
        let token = match service.poll(id).unwrap() {
            SessionStatus::Paged(info) => info.token,
            SessionStatus::Done(result) => {
                assert_eq!(result.results.len(), 100);
                break;
            }
            other => panic!("unexpected status {other:?}"),
        };
        let (status, allocs) = counted(|| service.next_page(token).unwrap());
        drop(status);
        per_page.push(allocs);
    }
    assert_eq!(per_page.len(), 9, "pages 2 to 10");
    // Page 9 holds 80 earlier rows where page 2 held 10; what may differ
    // is one regrowth of the row vector. Measured: 34, 34, 33, 34, 33, 37,
    // 33, 34, 34 (88 falling to 34 while the operator buffered built
    // tuples); when each page copied its predecessors and the parked
    // cursor, 488 rising to 680.
    let (second, ninth) = (per_page[0], per_page[7]);
    assert!(
        ninth <= second + 4,
        "allocations per page, 2nd to 10th: {per_page:?}"
    );
}

#[test]
fn a_prefix_hit_shares_its_cut_instead_of_copying_it() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [q1, _] = queries();
    let (_cluster, ex) = prepared(&q1);
    let service = RankJoinService::new(ServeConfig::default());
    let backend = service.register_backend(ex).unwrap();
    let tenant = service.register_tenant("reader", 1.0).unwrap();
    let deep = service
        .submit(tenant, backend, SubmitOptions::topk(100))
        .unwrap();
    service.run_until_idle().unwrap();
    let SessionStatus::Done(deep) = service.poll(deep).unwrap() else {
        panic!("the depth-100 session did not finish");
    };
    assert_eq!(deep.results.len(), 100);
    // Waves of 8, as a front-end would batch them; every record is still
    // inside its grace window at the end, so one cut serves all 1 000.
    let ((), allocs) = counted(|| {
        for _ in 0..125 {
            let ids: [_; 8] = std::array::from_fn(|_| {
                service
                    .submit(tenant, backend, SubmitOptions::topk(50))
                    .unwrap()
            });
            service.run_round().unwrap();
            for id in ids {
                let SessionStatus::Done(hit) = service.poll(id).unwrap() else {
                    panic!("a prefix hit did not finish in its round");
                };
                assert_eq!(hit.results[..], deep.results[..50]);
            }
        }
    });
    let n = service.counters();
    assert_eq!((n.cache_hits, n.cuts_built, n.executions), (1000, 1, 1));
    // Measured: 1 420 (submit, round and poll included); a copied cut is
    // three keys a row, 150 allocations a hit.
    assert!(allocs <= 3 * 1000, "1000 prefix hits: {allocs} allocations");
}

#[test]
fn a_cold_plan_does_not_materialize_the_score_grid() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (_cluster, ex) = prepared(&q2);
    // The first plan collects statistics; a plan at another `k` is a cache
    // miss over the statistics already held — the cost every read pays
    // after a maintained write.
    ex.plan_with_k(10).unwrap();
    let (plan, bytes) = counted_bytes(|| ex.plan_with_k(11).unwrap());
    assert_eq!(plan.k, 11);
    // Measured: 7 218 bytes; 10 000 `(upper, lower, pairs)` cells and
    // their sort buffer were 1.0 MB.
    assert!(bytes <= 32 * 1024, "a cold plan allocated {bytes} bytes");
}

#[test]
fn a_resumed_one_family_scanner_allocates_nothing_beyond_its_batch() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let cluster = Cluster::new(1, CostModel::test());
    cluster.create_table("t", &["a", "b"]).unwrap();
    let client = cluster.client();
    for i in 0..40u32 {
        let key = format!("row{i:03}");
        let put = Mutation::put("b", b"q", vec![7u8; 16]);
        client.put("t", key.as_bytes(), put).unwrap();
    }
    // The ISL cursor's turn: reattach, read on (an RPC every fourth row),
    // detach. The first turn grows the batch; later ones reuse it.
    let mut state = client
        .scan("t", Scan::new().families(&["b"]).caching(4))
        .unwrap()
        .into_state();
    for turn in 0..8 {
        let rpcs = cluster.metrics().snapshot().rpc_calls;
        let (next, allocs) = counted(|| {
            let mut scan = client.resume_scan(state).unwrap();
            for _ in 0..4 {
                assert!(scan.next_row().unwrap().is_some());
            }
            scan.into_state()
        });
        state = next;
        assert_eq!(cluster.metrics().snapshot().rpc_calls, rpcs + 1);
        if turn > 0 {
            assert_eq!(allocs, 0, "turn {turn} allocated");
        }
    }
}

#[test]
fn a_statistics_handle_adds_nothing_to_a_maintained_write() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (cluster, ex) = prepared(&q2);
    // A collected snapshot, so every delta merges into it.
    ex.plan().unwrap();
    let isl = isl::index_table_name(&q2);
    let plain = MaintainedSide::new(&cluster, q2.right.clone()).with_isl(&isl);
    let tracked = MaintainedSide::new(&cluster, q2.right.clone())
        .with_isl(&isl)
        .with_stats(ex.stats_handle());
    // The same 60 keys each round, through one side or the other.
    let rows: Vec<(Vec<u8>, [u8; 8], f64)> = (0..60u32)
        .map(|i| {
            let order = u64::from(1 + (i * 7) % 200);
            (
                loader::rowkeys::lineitem(order, 2000),
                rankjoin::store::keys::encode_u64(order),
                0.05 + 0.9 * f64::from(i) / 60.0,
            )
        })
        .collect();
    let round = |side: &MaintainedSide| {
        counted(|| {
            for (key, join, score) in &rows {
                side.insert(key, join, *score, vec![]).unwrap();
                side.delete(key).unwrap();
            }
        })
        .1
    };
    let version = ex.stats_handle().version();
    let per_round: Vec<(u64, u64)> = (0..6).map(|_| (round(&plain), round(&tracked))).collect();
    assert_eq!(ex.stats_handle().version(), version + 6 * 2 * 60);
    // Past the first rounds' warm-up, an insert + delete pair costs the
    // same with the handle as without it: 9 allocations here, where each
    // key is written again inside its tombstones' grace window (24 before
    // a write shared its handles). The delta borrows its schema and the
    // handle matches sides in place; it added 12 allocations a pair when
    // the delta owned copies of the schema.
    assert!(
        per_round[2..]
            .iter()
            .all(|&(plain, tracked)| plain == tracked),
        "(without, with) the handle, per round: {per_round:?}"
    );
}

/// The offline sweep over a frozen index with nothing pending reads the
/// metadata row and every bucket row into one batch and writes nothing
/// back: it allocates a constant, whatever the bucket count.
///
/// Measured at 10 / 20 / 40 buckets: 7 allocations each, and 6 162 /
/// 3 481 / 2 018 bytes, the batch growing to the widest bucket row. It
/// was 52 / 102 / 202 allocations and 11 779 / 14 311 / 17 855 bytes
/// while each bucket row was read owned, every cell (the bucket's blob
/// included) copied into two new handles.
#[test]
fn a_sweep_with_nothing_pending_allocates_a_constant() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (cluster, mut ex) = prepared(&q2);
    let index = bfhm::index_table_name(&q2);
    let mut costs = Vec::new();
    for buckets in [10, 20, 40] {
        ex.prepare_bfhm(BfhmConfig::with_buckets(buckets)).unwrap();
        let ((compacted, allocs), bytes) = counted_bytes(|| {
            counted(|| compact_if_pending(&cluster, &index, "L2", BlobCodec::Golomb, 1).unwrap())
        });
        assert_eq!(compacted, 0);
        costs.push((buckets, allocs, bytes));
    }
    let constant = costs[0].1;
    assert!(constant <= 8, "{costs:?}");
    assert!(
        costs
            .iter()
            .all(|&(_, allocs, bytes)| allocs == constant && bytes <= 8 * 1024),
        "(buckets, allocations, bytes): {costs:?}"
    );
}

#[test]
fn maintained_write_round_cost_does_not_depend_on_rounds_before_it() {
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    ex.write_back = WriteBackPolicy::Eager;
    let index = bfhm::index_table_name(&q2);
    let lineitems = MaintainedSide::new(&cluster, q2.right.clone())
        .with_isl(&isl::index_table_name(&q2))
        .with_bfhm(BfhmMaintainer::attach(&cluster, &index, "L2").unwrap());
    // The same 120 keys every round (about 1 200 clock ticks, so each
    // round outlasts the previous one's tombstones): a re-insert pays for
    // the row and qualifiers the delete freed, and for nothing older.
    let rows: Vec<(Vec<u8>, [u8; 8], f64)> = (0..120u32)
        .map(|i| {
            let order = u64::from(1 + (i * 7) % 200);
            (
                loader::rowkeys::lineitem(order, 1000),
                rankjoin::store::keys::encode_u64(order),
                0.05 + 0.9 * f64::from(i) / 120.0,
            )
        })
        .collect();
    let mut per_round = Vec::new();
    for _ in 0..20 {
        let ((), allocs) = counted(|| {
            for (key, join, score) in &rows {
                lineitems.insert(key, join, *score, vec![]).unwrap();
            }
            for (key, ..) in &rows {
                lineitems.delete(key).unwrap();
            }
        });
        per_round.push(allocs);
        // Uncounted: the reads and the sweep that consume the records.
        ex.execute(Algorithm::Bfhm).unwrap();
        compact_if_pending(&cluster, &index, "L2", BlobCodec::Golomb, 1).unwrap();
    }
    // A widened row's column vector keeps its capacity, so the steady
    // state starts at the third round, not the second.
    assert!(
        per_round[2..].iter().all(|&allocs| allocs == per_round[2]),
        "per round: {per_round:?}"
    );
}

/// A warm maintained insert and delete of one Lineitem row on Q2's side,
/// with ISL, BFHM and the executor's statistics handle attached, pay for
/// what the store keeps and for the vectors the write is made of.
///
/// The insert's 12 allocations: the base mutations' vector (passed to the
/// store, dropped when it returns); the base row's key and column vector
/// and its join and score values; the row-key qualifier and value-score
/// payload handles, which the ISL cell, the BFHM record and the BFHM
/// reverse cell all store; the ISL row's key and column vector; the BFHM
/// record's qualifier; the reverse row's key and column vector.
///
/// The delete's 2: the tombstones' vector and the row-key handle its ISL
/// and reverse tombstones share. The delete reads the base row into the
/// side's warm batch, and every tombstone of a base column takes the
/// family and qualifier handles the memstore row lends. Its insertion
/// record is still pending, so the BFHM write tombstones that record with
/// the qualifier handle the bucket row stores, having checked for it from
/// the maintainer's warm buffer.
///
/// 31 and 18 while a mutation owned its family as a `String`, a value was
/// copied from a `Vec` into its buffer, each index write copied the row
/// key and value-score payload again and wrapped its one mutation in a
/// vector, and each base tombstone copied the family and qualifier its
/// read had handed out; 12 and 6 while the delete read its row owned (its
/// key and cell vector); a delete made 4 while it appended a BFHM deletion
/// record (its qualifier and payload) beside the pending insertion record.
const MAINTAINED_INSERT_ALLOCS: u64 = 12;
const MAINTAINED_DELETE_ALLOCS: u64 = 2;

#[test]
fn a_maintained_write_allocates_only_what_it_stores() {
    use rankjoin::store::region::TOMBSTONE_GRACE_TICKS;
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let (cluster, mut ex) = prepared(&q2);
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();
    // A collected snapshot, so every delta merges into it.
    ex.plan().unwrap();
    let index = bfhm::index_table_name(&q2);
    let lineitems = MaintainedSide::new(&cluster, q2.right.clone())
        .with_isl(&isl::index_table_name(&q2))
        .with_bfhm(BfhmMaintainer::attach(&cluster, &index, "L2").unwrap())
        .with_stats(ex.stats_handle());
    let key = loader::rowkeys::lineitem(900_000, 1);
    let join = rankjoin::store::keys::encode_u64(900_000);
    let mut costs = Vec::new();
    for _ in 0..3 {
        let ((), insert) = counted(|| {
            lineitems.insert(&key, &join, 0.123_456, vec![]).unwrap();
        });
        let ((), delete) = counted(|| {
            lineitems.delete(&key).unwrap();
        });
        costs.push((insert, delete));
        // Uncounted: the sweep that consumes the two records, and a clock
        // past the tombstones' grace window, so the next write to each of
        // the rows' regions drops what this round left behind.
        compact_if_pending(&cluster, &index, "L2", BlobCodec::Golomb, 1).unwrap();
        for _ in 0..=TOMBSTONE_GRACE_TICKS {
            cluster.next_ts();
        }
    }
    // The first delete also allocates the purge queues of the three
    // regions it leaves tombstones in.
    assert_eq!(
        costs[1..],
        [(MAINTAINED_INSERT_ALLOCS, MAINTAINED_DELETE_ALLOCS); 2],
        "(insert, delete) per round: {costs:?}"
    );
}

/// A warm maintained delete of a loaded Lineitem row, which the load froze
/// into its region's segment, on a side with no index attached.
///
/// Its 8 allocations: the tombstones' vector and the row-key handle; one
/// copy of each of the row's 4 qualifiers for its tombstone, since a
/// frozen cell's bytes are copied into the side's batch and lend no
/// handle; and the write's thaw of the row into the memstore, which
/// copies its key and allocates its column vector (2). Every column the
/// delete supersedes is stored anew under its tombstone's qualifier
/// handle, so the thaw copies no qualifier or value. The read itself
/// allocates nothing into the warm batch. 16 while the thaw copied each
/// column's qualifier and value, and 22 while the delete read its row
/// owned: the row's key and cell vector, and two handles per column.
const FROZEN_DELETE_ALLOCS: u64 = 8;

#[test]
fn a_warm_delete_of_a_frozen_row_copies_each_qualifier_once() {
    use rankjoin::store::region::TOMBSTONE_GRACE_TICKS;
    let _shared = ALONE.read().unwrap_or_else(PoisonError::into_inner);
    let [_, q2] = queries();
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let lineitems = MaintainedSide::new(&cluster, q2.right.clone());
    let keys: Vec<Vec<u8>> = cluster
        .client()
        .scan(loader::LINEITEM_TABLE, Scan::new().limit(24))
        .unwrap()
        .map(|row| row.key)
        .collect();
    // Two rounds of eight grow the side's batch, the memstore and the
    // purge queue; each round outlasts the tombstones of the one before,
    // so the next round's first write drops them and keeps the capacity.
    let mut costs = Vec::new();
    for round in keys.chunks(8) {
        costs = round
            .iter()
            .map(|key| counted(|| lineitems.delete(key).unwrap()).1)
            .collect();
        for _ in 0..=TOMBSTONE_GRACE_TICKS {
            cluster.next_ts();
        }
    }
    assert_eq!(costs, [FROZEN_DELETE_ALLOCS; 8]);
}
