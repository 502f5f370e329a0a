//! How the store holds its bytes, and what it bills for them.
//!
//! A region's segment owns the bytes a flush froze, and its memstore the
//! handles its writers gave it (see `rj_store::region`). Neither moves a
//! bill: every figure in the first test was recorded while the store
//! held handles in both halves, and the index builds after the load are
//! billed as they were too.

use rankjoin::core::ijlmr;
use rankjoin::core::indexutil::BuildStats;
use rankjoin::store::keys;
use rankjoin::store::metrics::MetricsSnapshot;
use rankjoin::store::RowBatch;
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{Cluster, CostModel, MaintainedSide, RankJoinExecutor, Scan};
use rj_bench::QuerySpec;

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

/// A frozen cell's bytes live in its segment's arena, so two reads of it
/// lend equal bytes, each read its own copy. A maintained insert lands in
/// the memstore, which keeps its writer's handles, and a read lends them:
/// the insert's row key is one handle held by its ISL and IJLMR cells,
/// and its score one handle held by its base row and its IJLMR cell.
#[test]
fn a_frozen_cell_reads_alike_and_a_maintained_insert_shares_its_handles() {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(0.0005)).unwrap();
    let query = QuerySpec::Q2.query(10);
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.prepare_isl().unwrap();
    ex.prepare_ijlmr().unwrap();
    let client = cluster.client();
    let lineitems = client.projection(loader::LINEITEM_TABLE, None).unwrap();

    let mut scan = client.scan(loader::LINEITEM_TABLE, Scan::new()).unwrap();
    let frozen = scan.next_row().unwrap().unwrap().to_owned();
    let (mut first, mut second) = (RowBatch::new(), RowBatch::new());
    let reads = [&mut first, &mut second].map(|batch| {
        client
            .get_into(batch, &lineitems, &frozen.key)
            .unwrap()
            .to_owned()
    });
    assert_eq!(reads[0], frozen);
    assert_eq!(reads[1], frozen);
    let lent = [&first, &second].map(|batch| batch.get(0).unwrap());
    for (a, b) in lent[0].cells().zip(lent[1].cells()) {
        assert_eq!((a.qualifier, a.value), (b.qualifier, b.value));
        assert_ne!(a.value.as_ptr(), b.value.as_ptr(), "each read copies");
    }

    let side = MaintainedSide::new(&cluster, query.right.clone())
        .with_isl(ex.isl_table().unwrap())
        .with_ijlmr(&ijlmr::index_table_name(&query));
    let (key, join, score) = (loader::rowkeys::lineitem(1, 2000), keys::encode_u64(1), 0.5);
    side.insert(&key, &join, score, vec![]).unwrap();
    let label = query.right.label.as_str();
    let mut batch = RowBatch::new();
    let mut index_cell = |table: &str, row: &[u8]| {
        let projection = client.projection(table, Some(&[label.to_owned()])).unwrap();
        let row = client.get_into(&mut batch, &projection, row).unwrap();
        let cell = row.cells().find(|c| c.qualifier == key);
        cell.expect("the insert's index cell").to_cell()
    };
    let isl = index_cell(ex.isl_table().unwrap(), &keys::encode_score_desc(score));
    let ijlmr = index_cell(&ijlmr::index_table_name(&query), &join);
    assert_eq!(isl.qualifier.as_ptr(), ijlmr.qualifier.as_ptr(), "one key");
    let base = client.get(loader::LINEITEM_TABLE, &key).unwrap().unwrap();
    let stored = base
        .cells
        .iter()
        .find(|c| *c.qualifier == *loader::cols::SCORE);
    let stored = stored.expect("the insert's score column");
    assert_eq!(stored.value.as_ptr(), ijlmr.value.as_ptr(), "one score");
}
