//! How the bulk loader holds its bytes, and what the store bills it.
//!
//! A load builds its family and column-name handles once and each join
//! key once: every row shares the names, and a lineitem's `jk_part` and
//! `jk_order` values are its part's and its order's `jk` values. That
//! moves no bill: every figure in the first test was recorded before the
//! load shared anything, and the index builds after it are billed as
//! they were too.

use rankjoin::core::indexutil::BuildStats;
use rankjoin::store::keys;
use rankjoin::store::metrics::MetricsSnapshot;
use rankjoin::store::RowResult;
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{Client, Cluster, CostModel, RankJoinExecutor, Scan};
use rj_bench::QuerySpec;

/// Where the stored bytes of `table`'s row `key`, column `qualifier`
/// live: `(qualifier, value)` addresses. Two equal addresses are one
/// allocation held twice.
fn addresses(client: &Client, table: &str, key: &[u8], qualifier: &[u8]) -> (usize, usize) {
    let row = client.get(table, key).unwrap().expect("the row is loaded");
    let cell = row.cells.iter().find(|c| *c.qualifier == *qualifier);
    let cell = cell.expect("the column is loaded");
    (
        cell.qualifier.as_ptr() as usize,
        cell.value.as_ptr() as usize,
    )
}

/// The ledger fields a write bills: `(kv_writes, rpc_calls,
/// network_bytes, kv_reads, sim_seconds)`.
fn bill(d: MetricsSnapshot) -> (u64, u64, u64, u64, f64) {
    (
        d.kv_writes,
        d.rpc_calls,
        d.network_bytes,
        d.kv_reads,
        d.sim_seconds,
    )
}

/// One index build's `(bill, index_bytes, build_seconds, per-job
/// (map_input_records, store_puts, job_seconds))`.
type Recorded = ((u64, u64, u64, u64, f64), u64, f64, [(u64, u64, f64); 2]);

/// A TPC-H load at SF 0.0005, then both binary ISL indices and Q1's
/// IJLMR index over it: the ledger, every table's `disk_size` and each
/// build's statistics, as recorded.
#[test]
fn a_load_and_its_index_builds_bill_and_store_exactly_as_recorded() {
    let cluster = Cluster::new(3, CostModel::test());
    let before = cluster.metrics().snapshot();
    loader::load_all(&cluster, &TpchConfig::new(0.0005)).unwrap();
    let load = cluster.metrics().snapshot().delta_since(&before);
    assert_eq!(bill(load), (14_474, 3_806, 686_615, 0, 0.003806), "load");
    let sizes = [
        loader::PART_TABLE,
        loader::ORDERS_TABLE,
        loader::LINEITEM_TABLE,
    ]
    .map(|table| cluster.table(table).unwrap().disk_size());
    assert_eq!(sizes, [18_917, 100_315, 567_383], "part, orders, lineitem");

    let mut executors =
        [QuerySpec::Q1, QuerySpec::Q2].map(|q| RankJoinExecutor::new(&cluster, q.query(10)));
    type Build = fn(&mut RankJoinExecutor) -> BuildStats;
    let builds: [(&str, usize, Build, Recorded); 3] = [
        (
            "Q1 ISL",
            0,
            |ex| ex.prepare_isl().unwrap(),
            (
                (3_056, 3_068, 101_110, 12_224, 0.000193032),
                152_300,
                0.0001930330985000003,
                [
                    (100, 100, 6.8773542499999994e-6),
                    (2_956, 2_956, 0.0001861557442500003),
                ],
            ),
        ),
        (
            "Q2 ISL",
            1,
            |ex| ex.prepare_isl().unwrap(),
            (
                (3_706, 3_718, 121_656, 14_074, 0.000236094),
                184_506,
                0.00023609448799999898,
                [
                    (750, 750, 4.993831649999999e-5),
                    (2_956, 2_956, 0.00018615617149999897),
                ],
            ),
        ),
        (
            "Q1 IJLMR",
            0,
            |ex| ex.prepare_ijlmr().unwrap(),
            (
                (3_056, 3_074, 76_473, 12_624, 0.000170491),
                115_628,
                0.00017046441424999924,
                [
                    (100, 100, 9.394620000000001e-7),
                    (2_956, 2_956, 0.00016952495224999923),
                ],
            ),
        ),
    ];
    for (name, on, build, want) in builds {
        let before = cluster.metrics().snapshot();
        let stats = build(&mut executors[on]);
        let ledger = cluster.metrics().snapshot().delta_since(&before);
        let jobs: Vec<(u64, u64, f64)> = stats
            .jobs
            .iter()
            .map(|c| (c.map_input_records, c.store_puts, c.job_seconds))
            .collect();
        assert_eq!(
            (
                bill(ledger),
                stats.index_bytes,
                stats.build_seconds,
                &jobs[..]
            ),
            (want.0, want.1, want.2, &want.3[..]),
            "{name}"
        );
        assert!(stats.jobs.iter().all(|c| c.shuffle_bytes == 0), "{name}");
    }
}

/// Forty lineitems share one `jk_part` and one `jk_order` name, parts and
/// orders one `jk` name, and each lineitem's join-key values are the ones
/// its part and its order store.
#[test]
fn a_load_holds_each_column_name_and_join_key_once() {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.0005)).unwrap();
    let client = cluster.client();
    let at = |table, key: &[u8], qualifier| addresses(&client, table, key, qualifier);
    let (part, order) = (loader::PART_TABLE, loader::ORDERS_TABLE);
    let (jk, jk_part, jk_order) = (
        loader::cols::JK,
        loader::cols::JK_PART,
        loader::cols::JK_ORDER,
    );
    let lineitems: Vec<RowResult> = client
        .scan(loader::LINEITEM_TABLE, Scan::new())
        .unwrap()
        .take(40)
        .collect();
    let name = |row: &RowResult, qualifier| at(loader::LINEITEM_TABLE, &row.key, qualifier);
    let first = keys::encode_u64(1);
    for row in &lineitems[1..] {
        assert_eq!(name(row, jk_part).0, name(&lineitems[0], jk_part).0);
        assert_eq!(name(row, jk_order).0, name(&lineitems[0], jk_order).0);
    }
    assert_eq!(
        at(part, &first, jk).0,
        at(order, &first, jk).0,
        "one `jk` name"
    );
    for row in &lineitems {
        let part_key = row.value(loader::FAMILY, jk_part).unwrap();
        let order_key = row.value(loader::FAMILY, jk_order).unwrap();
        assert_eq!(
            name(row, jk_part).1,
            at(part, part_key, jk).1,
            "the part's `jk`"
        );
        assert_eq!(
            name(row, jk_order).1,
            at(order, order_key, jk).1,
            "the order's `jk`"
        );
    }
}
