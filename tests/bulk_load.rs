//! Loads and index builds as bulk loads (`rj_store::bulk`): what a build
//! leaves does not depend on how its tasks interleave, and applying a
//! load allocates per region, not per row.
//!
//! Each task stages its rows and the job applies them at its end, one
//! clock tick per row in task order, so two builds of one index leave the
//! same regions, encodings and cells, timestamps included, at whatever
//! pool width the suite runs (CI runs it at 1 and 8).

use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{BfhmConfig, Cluster, CostModel, Mutation, RankJoinExecutor};
use rj_bench::QuerySpec;
use rj_store::table::RegionInfo;
use rj_store::{BulkLoad, RowResult};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every table of `cluster` by name: its regions, their encodings and
/// its rows.
type Census = Vec<(String, Vec<RegionInfo>, Vec<String>, Vec<RowResult>)>;

/// Loads SF 0.002 and builds Q2's ISL and BFHM indices on a new cluster.
fn build() -> Census {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    let mut ex = RankJoinExecutor::new(&cluster, QuerySpec::Q2.query(10));
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig::default()).unwrap();
    cluster
        .table_names()
        .into_iter()
        .map(|name| {
            let table = cluster.table(&name).unwrap();
            let census = (table.region_infos(), table.segment_encodings());
            (name, census.0, census.1, table.debug_all_rows())
        })
        .collect()
}

#[test]
fn two_builds_of_one_index_freeze_alike() {
    let [first, second] = [build(), build()];
    let names: Vec<&str> = first.iter().map(|(name, ..)| name.as_str()).collect();
    assert_eq!(
        names.len(),
        5,
        "three base tables and two indices: {names:?}"
    );
    for (first, second) in first.iter().zip(&second) {
        assert_eq!(first.0, second.0);
        assert_eq!(first.1, second.1, "{}: region census", first.0);
        assert_eq!(first.2, second.2, "{}: encodings", first.0);
        assert!(first.3 == second.3, "{}: cells", first.0);
    }
}

/// Allocations of applying a bulk load of `rows` one-column rows to a new
/// one-region table.
fn load_allocations(rows: u32) -> u64 {
    let cluster = Cluster::new(1, CostModel::test());
    let table = cluster.create_table("t", &["cf"]).unwrap();
    let client = cluster.client();
    let mut load = BulkLoad::new(table);
    for i in 0..rows {
        let put = Mutation::put("cf", b"q", i.to_le_bytes().to_vec());
        client.stage(&mut load, &i.to_be_bytes(), &[put]).unwrap();
    }
    let (loaded, allocations) = counted(|| cluster.bulk_load("t", &[load]));
    loaded.unwrap();
    assert_eq!(cluster.table("t").unwrap().row_count(), rows as usize);
    allocations
}

/// A load into an empty region allocates its arrays once each, however
/// many rows it writes: no allocation per row.
#[test]
fn a_bulk_load_allocates_per_region_not_per_row() {
    // The process's first load also sets up the global pool.
    load_allocations(1);
    assert_eq!(load_allocations(1_000), load_allocations(20_000));
}
