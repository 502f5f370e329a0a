//! Heap footprint of the store against the bytes it reports as stored.
//!
//! `Table::disk_size` is the paper's index-size metric: key, family,
//! qualifier, timestamp and value of every stored column. What the
//! process holds for them on the heap is a multiple of that — row and
//! column headers, refcounts, B-tree slack — and the multiple is the
//! store's own overhead, the floor under every workload's peak memory.
//! A finished load or index build freezes its rows into region segments
//! that own their bytes in flat arenas and store each name, timestamp
//! and column end only as often as it differs, no key or qualifier end
//! whose width repeats, a row shape and a key prefix once and 16-bit
//! ends in blocks of 256 (see `rj_store::segment`). This test's run
//! measures 0.51× on the base tables, 0.89× on Q2's ISL index, 0.96× on
//! its BFHM index and 0.66× in all. Beside each ratio it prints the heap
//! per stored column beyond the billed bytes, `(heap − stored) / cells`:
//! negative where the store keeps once what `disk_size` bills per cell
//! (a row's key, a family name, a qualifier shared by a table's columns,
//! a row's timestamp). Earlier layouts measured 0.63×, 0.95×, 1.17× and
//! 0.78× with a code per column, a `u32` end per value and per row's
//! columns and whole keys; 0.73×, 1.15×, 1.20× and
//! 0.89× with `u32` key and qualifier ends and a `u32` timestamp delta
//! per column; 1.03×, 1.31×, 1.28× and 1.12× while each column kept its
//! own qualifier, byte ends and `u64` timestamp; 1.55×, 2.56×, 2.48× and
//! 1.89× while a segment held each cell's qualifier and value as
//! handles; 2.2×, 4.1× and 2.9× while every row was a B-tree entry with
//! its own sorted column vector; 3.6× while every row copied its names
//! and keys, 8.6× when a row held one B-tree per family, and 13× on the
//! one-column rows of an index table.
//! It holds the line at 5×; `tests/alloc_budget.rs` ratchets the loaded
//! store's own ratio.
//!
//! Live bytes are process-wide, so this binary has the one test.

use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{BfhmConfig, Cluster, CostModel, RankJoinExecutor};
use rj_bench::QuerySpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(live heap, Σ disk_size, Σ kv_count)` over every table right now.
fn footprint(cluster: &Cluster) -> (u64, u64, u64) {
    let (mut stored, mut cells) = (0, 0);
    for name in cluster.table_names() {
        let table = cluster.table(&name).unwrap();
        stored += table.disk_size();
        cells += table.kv_count();
    }
    (live_bytes(), stored, cells)
}

/// What `heap` holds for `stored` bytes in `cells` cells: the ratio, and
/// the heap per cell beyond the billed bytes.
fn report(name: &str, heap: u64, stored: u64, cells: u64) {
    let beyond = (heap as f64 - stored as f64) / cells as f64;
    println!(
        "{name}: {heap} B of heap for {stored} B stored in {cells} cells ({:.2}x, {beyond:+.2} B per cell)",
        heap as f64 / stored as f64
    );
}

#[test]
fn live_heap_stays_within_five_times_the_stored_bytes() {
    let start = live_bytes();
    let cluster = Cluster::new(3, CostModel::test());
    let mut ex = RankJoinExecutor::new(&cluster, QuerySpec::Q2.query(10));
    let mut before = (start, 0, 0);
    let mut step = |name: &str, cluster: &Cluster| {
        let after = footprint(cluster);
        let (heap, stored, cells) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        report(name, heap, stored, cells);
        before = after;
    };

    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    step("base tables", &cluster);
    ex.prepare_isl().unwrap();
    step("ISL index", &cluster);
    ex.prepare_bfhm(BfhmConfig::default()).unwrap();
    step("BFHM index", &cluster);

    let (live, stored, cells) = footprint(&cluster);
    let heap = live - start;
    report("total", heap, stored, cells);
    assert!(heap <= 5 * stored, "{heap} B of heap for {stored} B stored");
}
