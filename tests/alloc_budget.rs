//! Allocation budget of the ISL read path (scan → HRJN → top-k → cursor),
//! binary and 3-way — one spine, so one budget.
//!
//! The path is meant to copy nothing per tuple: a row the scan returns
//! costs its key and its `cells` vector, a row it merely walks over costs
//! nothing, a join match is materialised only when it enters the top-k,
//! and a paused cursor carries its operator state instead of rebuilding
//! it. These tests pin that with a counting allocator, on a tiny TPC-H
//! load. Counts are per thread, so the other tests of this binary running
//! beside a measured region do not disturb it (every measured call runs
//! on the calling thread).
//!
//! The maintained write path has a budget of the same kind: the store
//! frees what a delete kills (after the tombstones' grace window), so a
//! round of inserts and deletes allocates the same however many rounds
//! came before it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rankjoin::core::bfhm::maintenance::{compact_if_pending, BfhmMaintainer};
use rankjoin::core::cursor::{CursorState, RankedCursor};
use rankjoin::core::{bfhm, isl};
use rankjoin::sketch::blob::BlobCodec;
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, IslConfig, JoinEdge, JoinSide, JoinSpec,
    MaintainedSide, MultiwayConfig, Mutation, RankJoinExecutor, RankJoinQuery, Scan, ScoreFn,
    SideAccess, SpecExecutor, StopPolicy, WriteBackPolicy,
};

thread_local! {
    /// Allocation calls made by this thread (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls per thread.
struct CountingAlloc;

fn count_one() {
    // `try_with`: a thread that is tearing down has no counter left, and
    // nothing measured runs there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc` is `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's contract for `alloc_zeroed` is `System`'s own.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the trait's contract for `dealloc` is `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the trait's contract for `realloc` is `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size`
        // is the caller's obligation, both passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ISL_BATCH: usize = 64;

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
    ex.config = MultiwayConfig { batch };
    // A fixed plan: the budget is the read path's, not the planner's.
    ex.access_override = Some(vec![SideAccess::Descend; 3]);
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

/// Drains a fresh cursor `page` results at a time with a pause/resume
/// between pages; returns the results and the page count.
fn paged(
    open: impl Fn() -> Box<dyn RankedCursor>,
    resume: impl Fn(CursorState) -> Box<dyn RankedCursor>,
    page: usize,
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
            return (results, pages);
        }
        cursor = resume(cursor.pause());
    }
}

#[test]
fn one_shot_isl_stays_within_four_allocations_per_kv_read() {
    for query in queries() {
        let (cluster, _ex) = prepared(&query);
        let table = isl::index_table_name(&query);
        for k in [10, 50, 200] {
            let q = query.with_k(k);
            let (outcome, allocs) =
                counted(|| isl::run(&cluster, &q, &table, IslConfig::uniform(ISL_BATCH)).unwrap());
            assert_eq!(outcome.results.len(), k);
            let reads = outcome.metrics.kv_reads;
            assert!(
                allocs <= 4 * reads,
                "{} k={k}: {allocs} allocations for {reads} KV reads",
                query.left.label
            );
        }
    }
}

#[test]
fn projected_scan_allocates_nothing_for_rows_without_a_projected_cell() {
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
    let ex = prepared_three_way(8);
    let cursor = ex.open_cursor(200).unwrap();
    let (depths, allocs) = resume_costs(cursor, [1, 150], |s| ex.resume_cursor(s).unwrap());
    assert!(depths[1] > 4 * depths[0], "depths {depths:?}");
    assert_eq!(allocs[0], allocs[1], "depths {depths:?}");
    assert!(allocs[1] <= 8, "resume allocated {allocs:?}");
}

#[test]
fn paged_session_costs_one_shot_plus_its_pages() {
    let [q1, _] = queries();
    let (_cluster, ex) = prepared(&q1);
    let (k, page) = (200, 10);
    let (one_shot, one_shot_allocs) = counted(|| ex.execute_with_k(Algorithm::Isl, k).unwrap());
    let ((paged, pages), paged_allocs) = counted(|| {
        paged(
            || ex.open_cursor(Algorithm::Isl, k).unwrap(),
            |s| ex.resume_cursor(s).unwrap(),
            page,
        )
    });
    assert_eq!(paged, one_shot.results);
    // Per page: the page vector, a clone of each emitted result (three
    // keys apiece), and the pause/resume boxes.
    let per_page = 16 + 4 * page as u64;
    assert!(
        paged_allocs <= one_shot_allocs + pages * per_page,
        "paged {paged_allocs} vs one-shot {one_shot_allocs} over {pages} pages"
    );
}

#[test]
fn three_way_paged_session_costs_one_shot_plus_its_pages() {
    let ex = prepared_three_way(ISL_BATCH);
    let (k, page) = (200, 10);
    let (one_shot, one_shot_allocs) = counted(|| ex.execute_with_k(k).unwrap());
    let ((paged, pages), paged_allocs) = counted(|| {
        paged(
            || ex.open_cursor(k).unwrap(),
            |s| ex.resume_cursor(s).unwrap(),
            page,
        )
    });
    assert_eq!(paged, one_shot.results);
    // Per page as above, a 3-way result cloning two more allocations
    // (its interior side's vector and key).
    let per_page = 16 + 6 * page as u64;
    assert!(
        paged_allocs <= one_shot_allocs + pages * per_page,
        "paged {paged_allocs} vs one-shot {one_shot_allocs} over {pages} pages"
    );
}

#[test]
fn maintained_write_round_cost_does_not_depend_on_rounds_before_it() {
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
    assert_eq!(per_round[19], per_round[1], "per round: {per_round:?}");
}
