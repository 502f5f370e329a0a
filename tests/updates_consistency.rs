//! Integration: §6 online updates — TPC-H refresh sets applied through
//! the intercepted write path, verified across every algorithm and every
//! BFHM write-back policy.

use rankjoin::core::bfhm::maintenance::{compact_if_pending, BfhmMaintainer};
use rankjoin::core::{bfhm, ijlmr, isl, oracle};
use rankjoin::sketch::blob::BlobCodec;
use rankjoin::tpch::{generate_update_set, loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, JoinSide, MaintainedSide, RankJoinExecutor,
    RankJoinQuery, Scan, ScoreFn, WriteBackPolicy,
};

const SF: f64 = 0.0006;

fn q2(k: usize) -> RankJoinQuery {
    RankJoinQuery::new(
        JoinSide::new(
            loader::ORDERS_TABLE,
            "O",
            (loader::FAMILY, loader::cols::JK),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        JoinSide::new(
            loader::LINEITEM_TABLE,
            "L2",
            (loader::FAMILY, loader::cols::JK_ORDER),
            (loader::FAMILY, loader::cols::SCORE),
        ),
        k,
        ScoreFn::Sum,
    )
}

struct Setup {
    cluster: Cluster,
    ex: RankJoinExecutor,
    orders: MaintainedSide,
    lineitems: MaintainedSide,
}

fn setup() -> Setup {
    let cluster = Cluster::new(3, CostModel::test());
    loader::load_all(&cluster, &TpchConfig::new(SF)).unwrap();
    let query = q2(15);
    let mut ex = RankJoinExecutor::new(&cluster, query.clone());
    ex.prepare_ijlmr().unwrap();
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig::with_buckets(20)).unwrap();

    let bfhm_table = bfhm::index_table_name(&query);
    let orders = MaintainedSide::new(&cluster, query.left.clone())
        .with_isl(&isl::index_table_name(&query))
        .with_ijlmr(&ijlmr::index_table_name(&query))
        .with_bfhm(BfhmMaintainer::attach(&cluster, &bfhm_table, "O").unwrap());
    let lineitems = MaintainedSide::new(&cluster, query.right.clone())
        .with_isl(&isl::index_table_name(&query))
        .with_ijlmr(&ijlmr::index_table_name(&query))
        .with_bfhm(BfhmMaintainer::attach(&cluster, &bfhm_table, "L2").unwrap());
    Setup {
        cluster,
        ex,
        orders,
        lineitems,
    }
}

fn apply_refresh_sets(s: &Setup, sets: u64) -> usize {
    let cfg = TpchConfig::new(SF);
    let mut n = 0;
    for set_idx in 0..sets {
        let set = generate_update_set(&cfg, set_idx);
        n += rj_bench::apply_update_set(&s.orders, &s.lineitems, &set).expect("apply refresh set");
    }
    n
}

#[test]
fn refresh_sets_keep_every_index_consistent() {
    let s = setup();
    let before = oracle::topk(&s.cluster, &q2(15)).unwrap();
    let n = apply_refresh_sets(&s, 2);
    assert!(n > 0);
    // Refresh sets are score-agnostic, so nothing guarantees they touch
    // the current top-k; also delete the reigning top-1 order through the
    // intercepted path so the staleness check below cannot pass vacuously.
    // MissingRow is fine (a refresh set already removed it — the top-k
    // changed either way); any other failure is a real maintenance bug.
    if let Err(e) = s.orders.delete(&before[0].left_key) {
        assert!(
            matches!(e, rankjoin::core::error::RankJoinError::MissingRow),
            "top-1 delete failed: {e}"
        );
    }
    let after = oracle::topk(&s.cluster, &q2(15)).unwrap();
    assert_ne!(before, after, "updates should change the top-k");
    for algo in [Algorithm::Ijlmr, Algorithm::Isl, Algorithm::Bfhm] {
        let got = s.ex.execute(algo).unwrap();
        assert_eq!(got.results, after, "{} stale after updates", algo.name());
    }
}

#[test]
fn every_write_back_policy_returns_the_truth() {
    let query = q2(15);
    for policy in [
        WriteBackPolicy::Off,
        WriteBackPolicy::Lazy,
        WriteBackPolicy::Eager,
    ] {
        let mut s = setup();
        apply_refresh_sets(&s, 1);
        let want = oracle::topk(&s.cluster, &query).unwrap();
        s.ex.write_back = policy;
        let got = s.ex.execute(Algorithm::Bfhm).unwrap();
        assert_eq!(got.results, want, "{policy:?}");
        // And again (Eager/Lazy will have compacted — answers identical).
        let got2 = s.ex.execute(Algorithm::Bfhm).unwrap();
        assert_eq!(got2.results, want, "{policy:?} second run");
    }
}

#[test]
fn offline_compaction_preserves_answers_and_purges_records() {
    let s = setup();
    apply_refresh_sets(&s, 1);
    let want = oracle::topk(&s.cluster, &q2(15)).unwrap();
    let table = bfhm::index_table_name(&q2(15));
    let compacted_o = compact_if_pending(&s.cluster, &table, "O", BlobCodec::Golomb, 1).unwrap();
    let compacted_l = compact_if_pending(&s.cluster, &table, "L2", BlobCodec::Golomb, 1).unwrap();
    assert!(
        compacted_o + compacted_l > 0,
        "refresh left pending records"
    );
    let got = s.ex.execute(Algorithm::Bfhm).unwrap();
    assert_eq!(got.results, want);
    // Idempotent.
    assert_eq!(
        compact_if_pending(&s.cluster, &table, "O", BlobCodec::Golomb, 1).unwrap(),
        0
    );
}

#[test]
fn eager_write_back_overhead_is_bounded() {
    // The §7.2 claim: < 10% query-time overhead under an update-heavy
    // workload with eager write-back. Our simulated check is looser (the
    // constant factors differ) but asserts the same order: an updated
    // index must not cost multiples of a clean query.
    let clean = setup();
    let clean_time = clean
        .ex
        .execute(Algorithm::Bfhm)
        .unwrap()
        .metrics
        .sim_seconds;

    let mut dirty = setup();
    apply_refresh_sets(&dirty, 1);
    dirty.ex.write_back = WriteBackPolicy::Eager;
    let outcome = dirty.ex.execute(Algorithm::Bfhm).unwrap();
    let want = oracle::topk(&dirty.cluster, &q2(15)).unwrap();
    assert_eq!(outcome.results, want);
    // The updated top-k may legitimately need a few more fetches; bound
    // the overhead at 2x to catch regressions to rebuild-per-query.
    assert!(
        outcome.metrics.sim_seconds < clean_time * 2.0 + 0.05,
        "eager overhead too high: {} vs clean {}",
        outcome.metrics.sim_seconds,
        clean_time
    );
}

/// Columns stored in `table` — live cells and retained tombstones alike:
/// what a full scan touches and bills.
fn stored_columns(cluster: &Cluster, table: &str) -> u64 {
    let before = cluster.metrics().snapshot();
    let rows = cluster.client().scan(table, Scan::new()).unwrap().count();
    assert!(rows > 0);
    cluster.metrics().snapshot().delta_since(&before).kv_reads
}

/// Update rounds are exchangeable: a round of maintained inserts, the
/// deletion of the previous round's rows and one eager BFHM read costs
/// the same KV reads late in a stream as early, and — the offline sweep
/// compacting the buckets no read fetched — the index stores no more. Before the store dropped consumed records and expired tombstones,
/// every record ever written was re-scanned — and charged — by each later
/// read of its bucket, so a read's cost grew with the stream's length.
#[test]
fn update_rounds_are_exchangeable() {
    const ROUNDS: u32 = 9;
    const PER_ROUND: u32 = 100;
    let mut s = setup();
    s.ex.write_back = WriteBackPolicy::Eager;
    let query = q2(15);
    let index = bfhm::index_table_name(&query);
    // The same join values and scores every round, under fresh row keys.
    let row = |round: u32, i: u32| {
        let order = u64::from(1 + (i * 7) % 200);
        let score = 0.05 + 0.9 * f64::from(i) / f64::from(PER_ROUND);
        (loader::rowkeys::lineitem(order, 1000 + round), order, score)
    };
    let (mut reads, mut stored) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        for i in 0..PER_ROUND {
            let (key, order, score) = row(round, i);
            let join = rankjoin::store::keys::encode_u64(order);
            s.lineitems.insert(&key, &join, score, vec![]).unwrap();
        }
        for i in 0..PER_ROUND {
            if let Some(previous) = round.checked_sub(1) {
                s.lineitems.delete(&row(previous, i).0).unwrap();
            }
        }
        let want = oracle::topk(&s.cluster, &query).unwrap();
        let got = s.ex.execute(Algorithm::Bfhm).unwrap();
        assert_eq!(got.results, want, "round {round}");
        reads.push(got.metrics.kv_reads);
        // The read wrote back the buckets it fetched; the offline sweep
        // owns the rest.
        compact_if_pending(&s.cluster, &index, "L2", BlobCodec::Golomb, 1).unwrap();
        stored.push(stored_columns(&s.cluster, &index));
    }
    let last = ROUNDS as usize - 1;
    assert_eq!(reads[last], reads[2], "KV reads per round: {reads:?}");
    assert_eq!(stored[last], stored[2], "stored columns: {stored:?}");
}

/// The bill of a fixed stream of maintained writes, and what it leaves
/// stored: inserts (with a filler column riding along) and deletes on both
/// sides with ISL, IJLMR and BFHM attached, then the offline BFHM sweep.
/// Every figure was recorded before the write path shared its family,
/// row-key and value-score handles across the tables it writes; how a
/// mutation's bytes are held must move neither `Mutation::weight` nor any
/// table's `disk_size`.
///
/// Re-recorded when a delete began to cancel its tuple's pending BFHM
/// insertion record: (822, 626, 51 216) and 239 956 B of BFHM index
/// before. Each of the 24 deletes then wrote a tombstone where it wrote a
/// deletion record (the same write count, no value shipped), and the
/// sweep no longer purges the 48 records of those pairs, nor writes back
/// the one bucket that held nothing else.
#[test]
fn a_fixed_write_stream_bills_and_stores_exactly_as_recorded() {
    let s = setup();
    let query = q2(15);
    let before = s.cluster.metrics().snapshot();
    for i in 0..40u32 {
        let order = u64::from(1 + (i * 7) % 50);
        let join = rankjoin::store::keys::encode_u64(order);
        let score = 0.02 + 0.96 * f64::from(i) / 40.0;
        let key = loader::rowkeys::lineitem(order, 3000 + i);
        let filler = vec![rankjoin::Mutation::put(
            loader::FAMILY,
            loader::cols::JK_PART,
            vec![b'p'; 1 + i as usize % 5],
        )];
        s.lineitems.insert(&key, &join, score, filler).unwrap();
        let order_key = loader::rowkeys::order(90_000 + u64::from(i));
        s.orders
            .insert(&order_key, &order_key, 1.0 - score, vec![])
            .unwrap();
        if i % 3 == 0 {
            s.lineitems.delete(&key).unwrap();
        }
        if i % 4 == 1 {
            s.orders.delete(&order_key).unwrap();
        }
    }
    let index = bfhm::index_table_name(&query);
    for label in ["O", "L2"] {
        compact_if_pending(&s.cluster, &index, label, BlobCodec::Golomb, 1).unwrap();
    }
    let bill = s.cluster.metrics().snapshot().delta_since(&before);
    assert_eq!(
        (bill.kv_writes, bill.rpc_calls, bill.network_bytes),
        (773, 625, 46_379),
        "(kv_writes, rpc_calls, network_bytes)"
    );
    let mut names = s.cluster.table_names();
    names.sort();
    let sizes: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let size = s.cluster.table(&name).unwrap().disk_size();
            (name, size)
        })
        .collect();
    let want = [
        ("bfhm__O__L2", 239_152),
        ("ijlmr__O__L2", 170_922),
        ("isl__O__L2", 225_018),
        ("lineitem", 686_056),
        ("orders", 122_290),
        ("part", 22_430),
    ];
    assert_eq!(sizes, want.map(|(name, size)| (name.to_owned(), size)));
}

/// A maintained insert hands one row-key handle and one value-score
/// payload to the ISL cell, the BFHM record and the reverse cell. One
/// table dropping its copy — the ISL cell tombstoned, then purged once
/// its grace window has passed — leaves the others' bytes as they were.
#[test]
fn a_purged_index_cell_leaves_the_handles_it_shared_intact() {
    use rankjoin::store::keys::{encode_score_desc, encode_u64};
    use rankjoin::store::region::TOMBSTONE_GRACE_TICKS;
    let s = setup();
    let query = q2(15);
    let (isl_table, bfhm_table) = (
        isl::index_table_name(&query),
        bfhm::index_table_name(&query),
    );
    // A lineitem joining the top order, with a near-perfect score: the
    // new top-1.
    let top = oracle::topk(&s.cluster, &query).unwrap().remove(0);
    let key = loader::rowkeys::lineitem(1, 7000);
    s.lineitems
        .insert(&key, &top.join_value, 0.999, vec![])
        .unwrap();
    let entry = rankjoin::core::codec::encode_value_score(&top.join_value, 0.999);
    let client = s.cluster.client();
    let reverse_cell = || {
        let scan = Scan::new().families(&["L2"]);
        let mut cells = client
            .scan(&bfhm_table, scan)
            .unwrap()
            .flat_map(|row| row.cells);
        cells
            .find(|cell| cell.qualifier == key)
            .map(|cell| cell.value)
    };
    assert_eq!(reverse_cell(), Some(entry.clone()));

    // Tombstone the ISL cell; past the window, the next write to its
    // region (an insert whose score sorts beside it) drops the column
    // and its row, so a read of the row touches nothing.
    let isl_row = encode_score_desc(0.999);
    client.delete(&isl_table, &isl_row, "L2", &key).unwrap();
    for _ in 0..=TOMBSTONE_GRACE_TICKS {
        s.cluster.next_ts();
    }
    let neighbour = loader::rowkeys::lineitem(900_000, 1);
    s.lineitems
        .insert(&neighbour, &encode_u64(900_000), 0.9985, vec![])
        .unwrap();
    let before = s.cluster.metrics().snapshot();
    assert!(client.get(&isl_table, &isl_row).unwrap().is_none());
    assert_eq!(
        s.cluster.metrics().snapshot().delta_since(&before).kv_reads,
        0
    );

    assert_eq!(reverse_cell(), Some(entry.clone()), "the reverse cell");
    let want = oracle::topk(&s.cluster, &query).unwrap();
    assert_eq!(want[0].right_key, key);
    assert_eq!(s.ex.execute(Algorithm::Bfhm).unwrap().results, want);
    // The ISL cell written again, from a copy of the payload.
    let cell = rankjoin::Mutation::put("L2", &key, entry.to_vec());
    client.put(&isl_table, &isl_row, cell).unwrap();
    assert_eq!(s.ex.execute(Algorithm::Isl).unwrap().results, want);
}
