//! The experiment implementations, one per paper table/figure.

use rj_core::bfhm::maintenance::WriteBackPolicy;
use rj_core::bfhm::BfhmConfig;
use rj_core::error::RankJoinError;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::isl::IslConfig;
use rj_core::maintenance::MaintainedSide;
use rj_core::oracle;
use rj_core::stats::Extras;
use rj_sketch::blob::{BfhmBlob, BlobCodec};
use rj_sketch::bloom::{ClassicBloom, SingleHashBloom};
use rj_sketch::hybrid::HybridFilter;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;
use rj_tpch::{generate_update_set, loader, TpchConfig, UpdateSet};

use crate::fixture::{Fixture, FixtureConfig, QuerySpec};
use crate::report::{fmt_bytes, fmt_dollars, fmt_seconds, Table};

/// The k values swept on the figures' x-axes.
pub const K_SWEEP: [usize; 4] = [1, 10, 50, 100];

/// Renders one metric table (algorithms × k) for one query.
fn metric_tables(fixture: &Fixture, spec: QuerySpec, label: &str) -> Vec<Table> {
    let header: Vec<String> = std::iter::once("algo".to_owned())
        .chain(K_SWEEP.iter().map(|k| format!("k={k}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut time = Table::new(
        &format!("{label}: {} query processing time", spec.name()),
        &header_refs,
    );
    let mut net = Table::new(
        &format!("{label}: {} network bandwidth", spec.name()),
        &header_refs,
    );
    let mut cost = Table::new(
        &format!("{label}: {} dollar cost (KV read units)", spec.name()),
        &header_refs,
    );
    let dollar_unit = fixture.config.cost.dollar_per_read_unit;

    for algo in Algorithm::ALL {
        let mut t_row = vec![algo.name().to_owned()];
        let mut n_row = vec![algo.name().to_owned()];
        let mut c_row = vec![algo.name().to_owned()];
        for &k in &K_SWEEP {
            let outcome = fixture.run(spec, algo, k);
            // Cross-check against the oracle at every point.
            let want = oracle::topk(&fixture.cluster, &spec.query(k)).expect("oracle");
            assert_eq!(
                outcome.results,
                want,
                "{} {} k={k} returned wrong answer",
                spec.name(),
                algo.name()
            );
            t_row.push(fmt_seconds(outcome.metrics.sim_seconds));
            n_row.push(fmt_bytes(outcome.metrics.network_bytes));
            c_row.push(format!(
                "{} ({})",
                outcome.metrics.kv_reads,
                fmt_dollars(outcome.dollar_cost(dollar_unit))
            ));
        }
        time.row(t_row);
        net.row(n_row);
        cost.row(c_row);
    }
    vec![time, net, cost]
}

/// Figure 7 (a–f): Q1 and Q2 on the EC2 profile.
pub fn run_fig7(scale_factor: f64) -> Vec<Table> {
    let mut fixture = Fixture::load(FixtureConfig::ec2(scale_factor));
    fixture.prepare(QuerySpec::Q1);
    fixture.prepare(QuerySpec::Q2);
    let mut out = metric_tables(&fixture, QuerySpec::Q1, "Fig.7 EC2 (1+8)");
    out.extend(metric_tables(&fixture, QuerySpec::Q2, "Fig.7 EC2 (1+8)"));
    out
}

/// Figure 8 (a–f): Q1 and Q2 on the lab-cluster profile.
pub fn run_fig8(scale_factor: f64) -> Vec<Table> {
    let mut fixture = Fixture::load(FixtureConfig::lab(scale_factor));
    fixture.prepare(QuerySpec::Q1);
    fixture.prepare(QuerySpec::Q2);
    let mut out = metric_tables(&fixture, QuerySpec::Q1, "Fig.8 LC (5 nodes)");
    out.extend(metric_tables(&fixture, QuerySpec::Q2, "Fig.8 LC (5 nodes)"));
    out
}

/// Figure 9: index build times per index type on both profiles.
pub fn run_fig9(ec2_sf: f64, lab_sf: f64) -> Vec<Table> {
    let mut table = Table::new(
        "Fig.9: indexing time (per index, per query pair)",
        &["profile", "query", "IJLMR", "ISL", "BFHM", "DRJN"],
    );
    for (label, config) in [
        ("EC2", FixtureConfig::ec2(ec2_sf)),
        ("LC", FixtureConfig::lab(lab_sf)),
    ] {
        let mut fixture = Fixture::load(config);
        for spec in [QuerySpec::Q1, QuerySpec::Q2] {
            let report = fixture.prepare(spec);
            table.row(vec![
                label.to_owned(),
                spec.name().to_owned(),
                fmt_seconds(report.ijlmr.build_seconds),
                fmt_seconds(report.isl.build_seconds),
                fmt_seconds(report.bfhm.build_seconds),
                fmt_seconds(report.drjn.build_seconds),
            ]);
        }
    }
    vec![table]
}

/// §7.2 index disk-space list.
pub fn run_sizes(scale_factor: f64) -> Vec<Table> {
    let mut fixture = Fixture::load(FixtureConfig::lab(scale_factor));
    let base = fixture.base_bytes();
    let mut table = Table::new(
        "Index disk space (vs base data)",
        &["query", "base", "IJLMR", "ISL", "BFHM", "DRJN"],
    );
    for spec in [QuerySpec::Q1, QuerySpec::Q2] {
        let report = fixture.prepare(spec);
        table.row(vec![
            spec.name().to_owned(),
            fmt_bytes(base),
            fmt_bytes(report.ijlmr.index_bytes),
            fmt_bytes(report.isl.index_bytes),
            fmt_bytes(report.bfhm.index_bytes),
            fmt_bytes(report.drjn.index_bytes),
        ]);
    }
    vec![table]
}

/// §7.2 reducer memory-footprint list.
pub fn run_memory(scale_factor: f64, bucket_variants: &[u32]) -> Vec<Table> {
    let mut table = Table::new(
        "Index-build reducer memory footprint (max state bytes)",
        &["index", "buckets", "max reducer state"],
    );
    for &buckets in bucket_variants {
        let mut config = FixtureConfig::lab(scale_factor);
        config.bfhm_buckets = buckets;
        config.drjn_buckets = buckets;
        let mut fixture = Fixture::load(config);
        let report = fixture.prepare(QuerySpec::Q2);
        table.row(vec![
            "BFHM".to_owned(),
            buckets.to_string(),
            fmt_bytes(report.bfhm.max_reducer_state_bytes),
        ]);
        table.row(vec![
            "DRJN".to_owned(),
            buckets.to_string(),
            fmt_bytes(
                report
                    .drjn
                    .max_reducer_state_bytes
                    .max(report.drjn.max_reducer_input_bytes),
            ),
        ]);
        table.row(vec![
            "ISL/IJLMR".to_owned(),
            buckets.to_string(),
            "negligible (map-only)".to_owned(),
        ]);
    }
    vec![table]
}

/// Applies one refresh set through the maintained write paths, returning
/// how many mutations actually landed. Deletes of rows already gone (the
/// expected no-op when refresh sets wrap the loaded order range at tiny
/// scale factors) are skipped; any other failure propagates.
pub fn apply_update_set(
    orders: &MaintainedSide,
    lineitems: &MaintainedSide,
    set: &UpdateSet,
) -> rj_core::error::Result<usize> {
    let mut applied = 0usize;
    for o in &set.insert_orders {
        orders.insert(
            &loader::rowkeys::order(o.order_key),
            &rj_store::keys::encode_u64(o.order_key),
            o.total_score,
            vec![],
        )?;
        applied += 1;
    }
    for l in &set.insert_lineitems {
        lineitems.insert(
            &loader::rowkeys::lineitem(l.order_key, l.line_number),
            &rj_store::keys::encode_u64(l.order_key),
            l.extended_score,
            vec![],
        )?;
        applied += 1;
    }
    for l in &set.delete_lineitems {
        match lineitems.delete(&loader::rowkeys::lineitem(l.order_key, l.line_number)) {
            Ok(_) => applied += 1,
            Err(RankJoinError::MissingRow) => {}
            Err(e) => return Err(e),
        }
    }
    for o in &set.delete_orders {
        match orders.delete(&loader::rowkeys::order(o.order_key)) {
            Ok(_) => applied += 1,
            Err(RankJoinError::MissingRow) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(applied)
}

/// §7.2 online-updates study: apply refresh sets until at least
/// `target_mutations` rows changed (the paper applies ≈750 per set at its
/// scale), then measure the BFHM query with eager write-back against a
/// clean-index query.
pub fn run_updates(scale_factor: f64, target_mutations: usize) -> Vec<Table> {
    let tpch_cfg = TpchConfig::new(scale_factor);
    let k = 50;

    // Baseline: clean index, no pending mutations.
    let mut clean = Fixture::load(FixtureConfig::lab(scale_factor));
    clean.prepare(QuerySpec::Q2);
    let clean_outcome = clean.run(QuerySpec::Q2, Algorithm::Bfhm, k);

    // Updated: same fixture shape, apply refresh sets through the
    // maintained write path, then query with eager write-back.
    let mut updated = Fixture::load(FixtureConfig::lab(scale_factor));
    updated.prepare(QuerySpec::Q2);
    let query = QuerySpec::Q2.query(k);
    let bfhm_table = rj_core::bfhm::index_table_name(&query);
    let isl_table = rj_core::isl::index_table_name(&query);
    let ijlmr_table = rj_core::ijlmr::index_table_name(&query);

    let orders_side = MaintainedSide::new(&updated.cluster, query.left.clone())
        .with_isl(&isl_table)
        .with_ijlmr(&ijlmr_table)
        .with_bfhm(
            rj_core::bfhm::maintenance::BfhmMaintainer::attach(
                &updated.cluster,
                &bfhm_table,
                &query.left.label,
            )
            .expect("attach O"),
        );
    let lineitem_side = MaintainedSide::new(&updated.cluster, query.right.clone())
        .with_isl(&isl_table)
        .with_ijlmr(&ijlmr_table)
        .with_bfhm(
            rj_core::bfhm::maintenance::BfhmMaintainer::attach(
                &updated.cluster,
                &bfhm_table,
                &query.right.label,
            )
            .expect("attach L"),
        );

    let mut mutations = 0usize;
    let mut set_idx = 0u64;
    while mutations < target_mutations {
        let set = generate_update_set(&tpch_cfg, set_idx);
        set_idx += 1;
        mutations +=
            apply_update_set(&orders_side, &lineitem_side, &set).expect("apply refresh set");
    }

    // Query with eager write-back (the paper's worst case): reconstruct
    // pending buckets at the start of query processing and write them
    // back inline.
    updated.executor_mut(QuerySpec::Q2).write_back = WriteBackPolicy::Eager;
    let eager_outcome = updated.run(QuerySpec::Q2, Algorithm::Bfhm, k);
    // Correctness under updates.
    let want = oracle::topk(&updated.cluster, &query).expect("oracle");
    assert_eq!(eager_outcome.results, want, "BFHM wrong after updates");

    // Second query: records now compacted — overhead should vanish.
    let compacted_outcome = updated.run(QuerySpec::Q2, Algorithm::Bfhm, k);

    let overhead = |t: f64| -> String {
        format!(
            "{:+.1}%",
            (t / clean_outcome.metrics.sim_seconds - 1.0) * 100.0
        )
    };
    let mut table = Table::new(
        &format!("Online updates: BFHM query time after {mutations} mutations (eager write-back)"),
        &["scenario", "sim time", "vs clean"],
    );
    table.row(vec![
        "clean index".into(),
        fmt_seconds(clean_outcome.metrics.sim_seconds),
        "—".into(),
    ]);
    table.row(vec![
        "pending mutations, eager write-back".into(),
        fmt_seconds(eager_outcome.metrics.sim_seconds),
        overhead(eager_outcome.metrics.sim_seconds),
    ]);
    table.row(vec![
        "after compaction (2nd query)".into(),
        fmt_seconds(compacted_outcome.metrics.sim_seconds),
        overhead(compacted_outcome.metrics.sim_seconds),
    ]);
    vec![table]
}

/// §7.1 cluster-size scaling note: 1+2 → 1+8 EC2 workers.
pub fn run_scaling(scale_factor: f64) -> Vec<Table> {
    let mut table = Table::new(
        "EC2 cluster-size scaling (Q1, k=50, sim time)",
        &["workers", "HIVE", "PIG", "IJLMR", "ISL", "BFHM"],
    );
    for workers in [2usize, 4, 8] {
        let mut config = FixtureConfig::ec2(scale_factor);
        config.cost = CostModel::ec2(workers);
        let mut fixture = Fixture::load(config);
        fixture.prepare(QuerySpec::Q1);
        let mut row = vec![format!("1+{workers}")];
        for algo in [
            Algorithm::Hive,
            Algorithm::Pig,
            Algorithm::Ijlmr,
            Algorithm::Isl,
            Algorithm::Bfhm,
        ] {
            let outcome = fixture.run(QuerySpec::Q1, algo, 50);
            row.push(fmt_seconds(outcome.metrics.sim_seconds));
        }
        table.row(row);
    }
    vec![table]
}

/// The design-choice ablations behind §4.2.3 and §5.1, four tables: ISL
/// batch size, BFHM bucket count (both Q2, k=50, EC2 profile),
/// single-hash vs classic Bloom false positives at equal space, and
/// Golomb vs raw BFHM blob size.
pub fn run_ablations(scale_factor: f64) -> Vec<Table> {
    let fixture = Fixture::load(FixtureConfig::ec2(scale_factor));
    let query = QuerySpec::Q2.query(50);
    let want = oracle::topk(&fixture.cluster, &query).expect("oracle");
    let mut executor = RankJoinExecutor::new(&fixture.cluster, query);

    // §4.2.3: a larger row cache trades bandwidth and read units for
    // fewer round trips.
    let mut batches = Table::new(
        "Ablation: ISL batch size (Q2, k=50)",
        &["batch", "sim time", "rpc calls", "kv reads", "net bytes"],
    );
    executor.prepare_isl().expect("isl build");
    for batch in [1usize, 8, 64, 512] {
        executor.isl_config = IslConfig::uniform(batch);
        let outcome = executor.execute(Algorithm::Isl).expect("isl query");
        assert_eq!(
            outcome.results, want,
            "ISL batch={batch} returned wrong answer"
        );
        batches.row(vec![
            batch.to_string(),
            fmt_seconds(outcome.metrics.sim_seconds),
            outcome.metrics.rpc_calls.to_string(),
            outcome.metrics.kv_reads.to_string(),
            outcome.metrics.network_bytes.to_string(),
        ]);
    }

    // §7.1 runs 100/500/1000 buckets: more buckets give tighter score
    // bounds (fewer tuples fetched) but more bucket-row gets.
    let mut buckets = Table::new(
        "Ablation: BFHM bucket count (Q2, k=50)",
        &[
            "buckets",
            "sim time",
            "kv reads",
            "net bytes",
            "bucket gets",
            "reverse rows",
        ],
    );
    for num_buckets in [10u32, 100, 500] {
        executor
            .prepare_bfhm(BfhmConfig::with_buckets(num_buckets))
            .expect("bfhm build");
        let outcome = executor.execute(Algorithm::Bfhm).expect("bfhm query");
        assert_eq!(
            outcome.results, want,
            "BFHM buckets={num_buckets} returned wrong answer"
        );
        let Extras::Bfhm {
            bucket_gets,
            reverse_rows_fetched,
            ..
        } = outcome.extras
        else {
            panic!("a BFHM run counts as BFHM: {:?}", outcome.extras)
        };
        buckets.row(vec![
            num_buckets.to_string(),
            fmt_seconds(outcome.metrics.sim_seconds),
            outcome.metrics.kv_reads.to_string(),
            outcome.metrics.network_bytes.to_string(),
            bucket_gets.to_string(),
            reverse_rows_fetched.to_string(),
        ]);
    }

    // §5.1: only single-hash filters admit position→value reverse
    // mapping; this is the false-positive premium BFHM pays for it.
    let (filter_bits, keys, probes) = (200_000usize, 10_000u64, 100_000u64);
    let mut single = SingleHashBloom::new(filter_bits);
    let mut classic = ClassicBloom::new(filter_bits, 7);
    for i in 0..keys {
        single.insert(&i.to_be_bytes());
        classic.insert(&i.to_be_bytes());
    }
    // Probe keys disjoint from the inserted ones: every hit is false.
    let fpp = |contains: &dyn Fn(&[u8]) -> bool| {
        let hits = (0..probes)
            .filter(|i| contains(&(i + (1 << 40)).to_be_bytes()))
            .count();
        format!("{:.6}", hits as f64 / probes as f64)
    };
    let mut bloom = Table::new(
        &format!(
            "Ablation: Bloom false positives at equal space (m={filter_bits} bits, n={keys} keys)"
        ),
        &["filter", "hashes", "measured FPP"],
    );
    bloom.row(vec![
        "single-hash".into(),
        "1".into(),
        fpp(&|key| single.contains(key)),
    ]);
    bloom.row(vec![
        "classic".into(),
        "7".into(),
        fpp(&|key| classic.contains(key)),
    ]);

    // §5.1 calls Golomb compression "an integral part of our data
    // structure": wire size of one bucket blob at 5% FPP sizing.
    let mut golomb = Table::new(
        "Ablation: BFHM blob size, Golomb vs raw",
        &[
            "items",
            "filter bits",
            "golomb bytes",
            "raw bytes",
            "raw/golomb",
        ],
    );
    for items in [100u64, 1_000, 10_000] {
        let filter_bits = items as usize * 20;
        let mut filter = HybridFilter::new(filter_bits);
        for i in 0..items {
            filter.insert(&(i % (items / 2 + 1)).to_be_bytes());
        }
        let blob = BfhmBlob::new(filter, 0.62, 0.69);
        let golomb_len = blob.encode(BlobCodec::Golomb).len();
        let raw_len = blob.encode(BlobCodec::Raw).len();
        assert!(golomb_len < raw_len, "compression must pay off");
        golomb.row(vec![
            items.to_string(),
            filter_bits.to_string(),
            golomb_len.to_string(),
            raw_len.to_string(),
            format!("{:.1}x", raw_len as f64 / golomb_len as f64),
        ]);
    }

    vec![batches, buckets, bloom, golomb]
}

/// The running example (Fig. 1–6) as an experiment: every algorithm on
/// the 11+11-tuple input.
pub fn run_example_walkthrough() -> Vec<Table> {
    let cluster = Cluster::new(3, CostModel::ec2(3));
    cluster.create_table("r1", &["d"]).expect("table r1");
    cluster.create_table("r2", &["d"]).expect("table r2");
    let client = cluster.client();
    let r1: &[(&str, &[u8], f64)] = &[
        ("r1_01", b"d", 0.82),
        ("r1_02", b"c", 0.93),
        ("r1_03", b"c", 0.67),
        ("r1_04", b"d", 0.82),
        ("r1_05", b"a", 0.73),
        ("r1_06", b"c", 0.79),
        ("r1_07", b"b", 0.82),
        ("r1_08", b"b", 0.70),
        ("r1_09", b"d", 0.68),
        ("r1_10", b"a", 1.00),
        ("r1_11", b"b", 0.64),
    ];
    let r2: &[(&str, &[u8], f64)] = &[
        ("r2_01", b"a", 0.51),
        ("r2_02", b"b", 0.91),
        ("r2_03", b"c", 0.64),
        ("r2_04", b"d", 0.53),
        ("r2_05", b"d", 0.41),
        ("r2_06", b"d", 0.50),
        ("r2_07", b"a", 0.35),
        ("r2_08", b"a", 0.38),
        ("r2_09", b"a", 0.37),
        ("r2_10", b"c", 0.31),
        ("r2_11", b"b", 0.92),
    ];
    for (rows, table) in [(r1, "r1"), (r2, "r2")] {
        for &(key, join, score) in rows {
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        rj_store::cell::Mutation::put("d", b"jk", join.to_vec()),
                        rj_store::cell::Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .expect("load row");
        }
    }
    let query = rj_core::query::RankJoinQuery::new(
        rj_core::query::JoinSide::new("r1", "R1", ("d", b"jk"), ("d", b"score")),
        rj_core::query::JoinSide::new("r2", "R2", ("d", b"jk"), ("d", b"score")),
        3,
        rj_core::score::ScoreFn::Sum,
    );
    let mut executor = RankJoinExecutor::new(&cluster, query.clone());
    executor.prepare_ijlmr().expect("ijlmr");
    executor.prepare_isl().expect("isl");
    executor
        .prepare_bfhm(BfhmConfig {
            num_buckets: 10,
            ..Default::default()
        })
        .expect("bfhm");
    executor
        .prepare_drjn(rj_core::drjn::DrjnConfig {
            num_buckets: 10,
            num_partitions: 64,
        })
        .expect("drjn");

    let mut table = Table::new(
        "Running example (Fig. 1): top-3 sum-scored rank join",
        &["algo", "sim time", "net bytes", "kv reads", "top-3 scores"],
    );
    let want = oracle::topk(&cluster, &query).expect("oracle");
    for algo in Algorithm::ALL {
        let outcome = executor.execute(algo).expect("execute");
        assert_eq!(outcome.results, want, "{} disagrees", algo.name());
        table.row(vec![
            outcome.algorithm.to_owned(),
            fmt_seconds(outcome.metrics.sim_seconds),
            outcome.metrics.network_bytes.to_string(),
            outcome.metrics.kv_reads.to_string(),
            outcome
                .results
                .iter()
                .map(|t| format!("{:.2}", t.score))
                .collect::<Vec<_>>()
                .join(", "),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_walkthrough_runs() {
        let tables = run_example_walkthrough();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 6, "six algorithms");
        let rendered = tables[0].render();
        assert!(rendered.contains("1.74, 1.73, 1.62"));
    }

    #[test]
    fn ablations_show_the_tradeoff_directions() {
        let tables = run_ablations(0.0002);
        let rendered: Vec<String> = tables.iter().map(Table::render).collect();
        assert_eq!(
            tables.iter().map(Table::len).collect::<Vec<_>>(),
            [4, 3, 2, 3],
            "{rendered:?}"
        );
        // Space-equal single-hash filters pay a visible FPP premium, and
        // Golomb coding shrinks every blob (asserted inside the run).
        assert!(rendered[2].contains("single-hash"));
        assert!(rendered[3].contains("raw/golomb"));
    }

    #[test]
    fn tiny_fig7_runs_and_verifies() {
        // Microscopic scale factor to keep the test fast; the oracle
        // cross-check inside metric_tables does the heavy lifting.
        let tables = run_fig7(0.0002);
        assert_eq!(tables.len(), 6);
    }
}
