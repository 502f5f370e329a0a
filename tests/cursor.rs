//! Cursor test suite: the pull-based execution contract
//! (`rj_core::cursor`).
//!
//! * Proptest: an *arbitrary* interleaving of `next_batch` pulls,
//!   pause/resume round-trips, and resumes on a **different executor
//!   fork** is rank-equivalent to the one-shot run of the same algorithm
//!   on arbitrary data — and charges the cluster ledger *identical* total
//!   `kv_reads` (split points never re-read the consumed prefix, never
//!   skip a read). Checked for ISL, BFHM, DRJN, and `Auto`.
//! * Acceptance: a maintained write between pause and resume bumps the
//!   shared statistics version, and the resume is refused with the typed
//!   [`RankJoinError::StaleCursor`] instead of silently mixing epochs;
//!   a completed cursor's state re-targeted to a deeper `k` replays its
//!   consumed prefix for free and leaves less to pay the deeper it went;
//!   an `Auto` cursor is the cursor of the algorithm its plan chose.
//! * Every schedule here drains a cursor on `batch.done` alone: a cursor
//!   that has emitted all `k` results says so.
//! * A one-shot run of every algorithm is its cursor drained: it bills
//!   exactly the cursor's lifetime charge, BFHM's read at opening
//!   included, and both equal the ledger's delta (checked beside the
//!   `done` pages, at k ∈ {1, 5, 12}).
//! * Golden: where a stop fires — each page's result count, `done`,
//!   `stopped` and ledger charge under `cancel_after_batches` 1 and 2, a
//!   deadline and a token cancelled before the first pull, for ISL (also
//!   over a pair it exhausts), BFHM, DRJN, a 3-way path, Hive and IJLMR —
//!   is pinned; and a `k = 0` cursor of every algorithm is empty and
//!   free.

use proptest::prelude::*;

use rankjoin::core::cursor::RankedCursor;
use rankjoin::core::error::RankJoinError;
use rankjoin::core::oracle;
use rankjoin::store::metrics::MetricsSnapshot;
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, DrjnConfig, IslConfig, JoinSide, JoinSpec,
    MaintainedSide, Mutation, RankJoinExecutor, RankJoinQuery, ScoreFn, SpecExecutor, StopPolicy,
};

/// Loads two relations and returns the top-k sum query over them.
fn load_pair(left: &[(u8, f64)], right: &[(u8, f64)], k: usize) -> (Cluster, RankJoinQuery) {
    load_pair_with(CostModel::test(), left, right, k)
}

/// [`load_pair`] under the `cost` profile.
fn load_pair_with(
    cost: CostModel,
    left: &[(u8, f64)],
    right: &[(u8, f64)],
    k: usize,
) -> (Cluster, RankJoinQuery) {
    let cluster = Cluster::new(3, cost);
    cluster.create_table("l", &["d"]).unwrap();
    cluster.create_table("r", &["d"]).unwrap();
    let client = cluster.client();
    for (rows, table) in [(left, "l"), (right, "r")] {
        for (i, (j, score)) in rows.iter().enumerate() {
            client
                .mutate_row(
                    table,
                    format!("{table}{i:04}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*j]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let query = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        k,
        ScoreFn::Sum,
    );
    (cluster, query)
}

/// All indexed algorithms prepared, statistics primed (so no fork pays
/// an asymmetric collection pass).
fn prepared(cluster: &Cluster, query: &RankJoinQuery, batch: usize) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query.clone());
    ex.isl_config = IslConfig::uniform(batch);
    ex.prepare_isl().unwrap();
    ex.prepare_bfhm(BfhmConfig {
        num_buckets: 10,
        ..Default::default()
    })
    .unwrap();
    ex.prepare_drjn(DrjnConfig {
        num_buckets: 10,
        num_partitions: 16,
    })
    .unwrap();
    let _ = ex.plan().unwrap();
    ex
}

/// Rank-equivalence under score ties (the repo's cross-algorithm
/// contract): identical score sequences, exact matches strictly above
/// the boundary score, genuine join tuples at it.
fn assert_rank_equivalent(
    label: &str,
    got: &[rankjoin::JoinTuple],
    want: &[rankjoin::JoinTuple],
    all: &[rankjoin::JoinTuple],
) {
    let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
    let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
    assert_eq!(got_scores, want_scores, "{label}: score sequences differ");
    let boundary = want.last().map(|t| t.score);
    for (g, w) in got.iter().zip(want) {
        if Some(g.score) != boundary {
            assert_eq!(g, w, "{label}: above-boundary tuple differs");
        } else {
            assert!(
                all.iter().any(|t| t.score == g.score
                    && t.left_key == g.left_key
                    && t.right_key == g.right_key),
                "{label}: boundary tuple is not a real join result: {g:?}"
            );
        }
    }
}

/// One step of an interleaved cursor schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Pull up to this many more ranks.
    Pull(usize),
    /// Pause into a serializable state and resume on the same executor.
    Reopen,
    /// Pause and resume on a *different* executor fork (the state is
    /// plain owned data — it outlives the executor that minted it).
    Refork,
    /// Pull the rest under `cancel_after_batches: Some(n)`: the pull stops
    /// at a step boundary, and later ops pull under `never()` again.
    Stop(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..6, 0u64..8).prop_map(|(v, n)| match v {
        0..=2 => Op::Pull(v + 1),
        3 => Op::Reopen,
        4 => Op::Refork,
        _ => Op::Stop(n),
    })
}

#[derive(Clone, Debug)]
struct Scenario {
    left: Vec<(u8, f64)>,
    right: Vec<(u8, f64)>,
    k: usize,
    batch: usize,
    ops: Vec<Op>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let tuple = (0u8..6, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0));
    (
        prop::collection::vec(tuple.clone(), 1..25),
        prop::collection::vec(tuple, 1..25),
        1usize..10,
        1usize..5,
        prop::collection::vec(op_strategy(), 1..10),
    )
        .prop_map(|(left, right, k, batch, ops)| Scenario {
            left,
            right,
            k,
            batch,
            ops,
        })
}

/// Drives one cursor through the schedule on two executor forks, then
/// drains it; returns the emitted prefix. Pulls land on whichever fork's
/// ledger the cursor is currently resumed on.
fn run_schedule(
    ex_a: &RankJoinExecutor,
    ex_b: &RankJoinExecutor,
    algorithm: Algorithm,
    k: usize,
    ops: &[Op],
) -> Vec<rankjoin::JoinTuple> {
    let policy = StopPolicy::never();
    let mut on_a = true;
    let mut cursor = ex_a.open_cursor(algorithm, k).unwrap();
    let mut results = Vec::new();
    let mut done = false;
    for op in ops {
        if done {
            break;
        }
        match op {
            Op::Pull(n) => {
                let batch = cursor
                    .next_batch((*n).min(k - results.len()), &policy)
                    .unwrap();
                results.extend(batch.results);
                done = batch.done;
            }
            Op::Stop(n) => {
                let stop = StopPolicy {
                    cancel_after_batches: Some(*n),
                    ..StopPolicy::never()
                };
                let batch = cursor.next_batch(k - results.len(), &stop).unwrap();
                results.extend(batch.results);
                done = batch.done;
            }
            Op::Reopen => {
                let state = cursor.pause();
                let ex = if on_a { ex_a } else { ex_b };
                cursor = ex.resume_cursor(state).unwrap();
            }
            Op::Refork => {
                let state = cursor.pause();
                on_a = !on_a;
                let ex = if on_a { ex_a } else { ex_b };
                cursor = ex.resume_cursor(state).unwrap();
            }
        }
    }
    while !done {
        let batch = cursor.next_batch(k - results.len(), &policy).unwrap();
        results.extend(batch.results);
        done = batch.done;
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The PR's core invariant, on arbitrary data and arbitrary split
    /// schedules: splitting an execution across `next_batch` pulls,
    /// pause/resume round-trips, executor-fork hops and pulls stopped at
    /// a step boundary (then resumed unstopped) changes neither
    /// the answer (rank-equivalent to the one-shot run and the oracle)
    /// nor the metered cost (identical total `kv_reads` on the cluster
    /// ledgers).
    #[test]
    fn interleaved_schedules_match_one_shot_in_results_and_reads(s in scenario()) {
        let (cluster, query) = load_pair(&s.left, &s.right, s.k);
        let proto = prepared(&cluster, &query, s.batch);
        let want = oracle::topk(&cluster, &query).unwrap();
        let all = oracle::full_join(&cluster, &query).unwrap();

        for algorithm in [Algorithm::Isl, Algorithm::Bfhm, Algorithm::Drjn, Algorithm::Auto] {
            // One-shot reference on its own metrics fork.
            let fork_ref = cluster.fork_metrics();
            let ex_ref = proto.fork_onto(&fork_ref).unwrap();
            let before = fork_ref.metrics().snapshot();
            let oneshot = ex_ref.execute_with_k(algorithm, s.k).unwrap();
            let ref_reads = fork_ref.metrics().snapshot().delta_since(&before).kv_reads;
            assert_rank_equivalent(
                &format!("{algorithm:?} one-shot"), &oneshot.results, &want, &all,
            );

            // The same query through the scheduled cursor, hopping
            // between two further forks.
            let fork_a = cluster.fork_metrics();
            let fork_b = cluster.fork_metrics();
            let ex_a = proto.fork_onto(&fork_a).unwrap();
            let ex_b = proto.fork_onto(&fork_b).unwrap();
            let before_a = fork_a.metrics().snapshot();
            let before_b = fork_b.metrics().snapshot();
            let paged = run_schedule(&ex_a, &ex_b, algorithm, s.k, &s.ops);
            let paged_reads = fork_a.metrics().snapshot().delta_since(&before_a).kv_reads
                + fork_b.metrics().snapshot().delta_since(&before_b).kv_reads;

            assert_rank_equivalent(
                &format!("{algorithm:?} scheduled"), &paged, &want, &all,
            );
            prop_assert_eq!(
                paged_reads, ref_reads,
                "{:?}: scheduled run must charge exactly the one-shot reads", algorithm
            );
        }
    }
}

#[test]
fn maintained_write_invalidates_paused_cursor_with_typed_error() {
    let rows: Vec<(u8, f64)> = (0..30u32)
        .map(|i| ((i % 5) as u8, f64::from(i) / 31.0))
        .collect();
    let (cluster, query) = load_pair(&rows, &rows, 10);
    let ex = prepared(&cluster, &query, 3);
    let mut cursor = ex.open_cursor(Algorithm::Isl, 10).unwrap();
    let batch = cursor.next_batch(3, &StopPolicy::never()).unwrap();
    assert_eq!(batch.results.len(), 3, "3 ranks certified before the pause");
    let state = cursor.pause();
    assert_eq!(
        state.pinned_version(),
        ex.stats_handle().version(),
        "executor cursors pin the version current at opening"
    );

    // A §6 maintained write lands between pause and resume…
    let side = MaintainedSide::new(&cluster, query.left.clone())
        .with_isl(&rankjoin::core::isl::index_table_name(&query))
        .with_stats(ex.stats_handle());
    side.insert(b"fresh", &[2], 0.97, vec![]).unwrap();

    // …so the parked scan positions describe a dead epoch: typed refusal.
    match ex.resume_cursor(state) {
        Err(RankJoinError::StaleCursor { expected, found }) => {
            assert!(
                found > expected,
                "version moved forward: {expected} -> {found}"
            );
        }
        Ok(_) => panic!("stale cursor must not resume"),
        Err(e) => panic!("expected StaleCursor, got {e}"),
    }
}

/// The warm-start donor sweep over an ISL-prepared executor with `batch`:
/// the cold reads of a depth-`k` run, then, per donor depth, the reads a
/// completed donor cursor's paused state pays once re-targeted to `k` to
/// finish the answer. Every continuation must answer the oracle, pay less
/// than the cold run, and pay no more than a shallower donor's.
fn warm_sweep(
    cluster: &Cluster,
    query: &RankJoinQuery,
    batch: usize,
    k: usize,
    donors: &[usize],
) -> (u64, Vec<u64>) {
    let policy = StopPolicy::never();
    let proto = prepared(cluster, query, batch);
    let want = oracle::topk(cluster, &query.with_k(k)).unwrap();
    let all = oracle::full_join(cluster, query).unwrap();

    let fork_cold = cluster.fork_metrics();
    let ex_cold = proto.fork_onto(&fork_cold).unwrap();
    let before = fork_cold.metrics().snapshot();
    ex_cold.execute_with_k(Algorithm::Isl, k).unwrap();
    let cold = fork_cold.metrics().snapshot().delta_since(&before).kv_reads;

    let warm: Vec<u64> = donors
        .iter()
        .map(|&depth| {
            let fork = cluster.fork_metrics();
            let ex = proto.fork_onto(&fork).unwrap();
            let mut donor = ex.open_cursor(Algorithm::Isl, depth).unwrap();
            while !donor.next_batch(depth, &policy).unwrap().done {}
            let state = donor.pause();
            assert!(state.supports_retarget());

            let before = fork.metrics().snapshot();
            let mut cursor = state.resume_retargeted(&fork, k).unwrap();
            let mut results = Vec::new();
            loop {
                let batch = cursor.next_batch(k - results.len(), &policy).unwrap();
                results.extend(batch.results);
                if batch.done {
                    break;
                }
            }
            assert_rank_equivalent(
                &format!("donor {depth} retargeted to k={k}"),
                &results,
                &want,
                &all,
            );
            let reads = fork.metrics().snapshot().delta_since(&before).kv_reads;
            assert!(
                reads < cold,
                "donor {depth}: warm k={k} read {reads} kv entries, cold read {cold}"
            );
            reads
        })
        .collect();
    assert!(
        warm.windows(2).all(|w| w[1] <= w[0]),
        "deeper donors must not leave more to pay: {warm:?} over donors {donors:?}"
    );
    (cold, warm)
}

/// A completed donor cursor's state, re-targeted to a deeper `k`, pays
/// only the reads beyond the donor's consumed prefix.
#[test]
fn retargeted_resume_replays_the_consumed_prefix_for_free() {
    let rows: Vec<(u8, f64)> = (0..40u32)
        .map(|i| ((i % 4) as u8, f64::from(i * 7 % 41) / 41.0))
        .collect();
    let (cluster, query) = load_pair(&rows, &rows, 12);
    warm_sweep(&cluster, &query, 3, 12, &[1, 2, 4, 6, 8, 10]);

    // 96 × 100 LCG-scored rows over eight join values: reads pinned.
    let mut seed = 0xc01d_5eed_u64;
    let mut lcg_rows = |n: usize| -> Vec<(u8, f64)> {
        (0..n)
            .map(|i| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let score = ((seed >> 33) + 1) as f64 / (1u64 << 31) as f64;
                (b'a' + (i % 8) as u8, score)
            })
            .collect()
    };
    let left = lcg_rows(96);
    let right = lcg_rows(100);
    let (cluster, query) = load_pair(&left, &right, 50);
    assert_eq!(
        warm_sweep(&cluster, &query, 8, 50, &[10, 20, 30, 40]),
        (77, vec![46, 37, 26, 13])
    );
}

/// `Algorithm::Auto` chooses once, at open: its cursor is the chosen
/// algorithm's cursor. It reports that algorithm, parks as its state and
/// resumes through `CursorState::resume_on` like any cursor of it, paging
/// to the one-shot answer for the one-shot reads.
#[test]
fn an_auto_cursor_is_the_cursor_of_its_choice() {
    let rows: Vec<(u8, f64)> = (0..40u32)
        .map(|i| ((i % 4) as u8, f64::from(i * 7 % 41) / 41.0))
        .collect();
    let k = 6;
    for choice in [Algorithm::Isl, Algorithm::Bfhm] {
        // EC2 constants with only `choice` prepared: a MapReduce job's
        // startup prices the baselines out, so the plan picks `choice`.
        let (cluster, query) = load_pair_with(CostModel::ec2(3), &rows, &rows, k);
        let mut ex = RankJoinExecutor::new(&cluster, query);
        ex.isl_config = IslConfig::uniform(3);
        if choice == Algorithm::Isl {
            ex.prepare_isl().unwrap();
        } else {
            ex.prepare_bfhm(BfhmConfig {
                num_buckets: 10,
                ..Default::default()
            })
            .unwrap();
        }
        let plan = ex.plan_with_k(k).unwrap();
        assert_eq!(
            plan.best(),
            Some(choice),
            "precondition:\n{}",
            plan.explain()
        );

        let before = cluster.metrics().snapshot();
        let one_shot = ex.execute_with_k(choice, k).unwrap();
        let one_shot_reads = cluster.metrics().snapshot().delta_since(&before).kv_reads;

        let before = cluster.metrics().snapshot();
        let mut cursor = ex.open_cursor(Algorithm::Auto, k).unwrap();
        assert_eq!(cursor.algorithm(), choice.name());
        let mut results = Vec::new();
        loop {
            let batch = cursor.next_batch(1, &StopPolicy::never()).unwrap();
            results.extend(batch.results);
            if batch.done {
                break;
            }
            let state = cursor.pause();
            assert_eq!(state.algorithm(), choice.name());
            assert_eq!(state.supports_retarget(), choice == Algorithm::Isl);
            cursor = state.resume_on(&cluster).unwrap();
        }
        let paged_reads = cluster.metrics().snapshot().delta_since(&before).kv_reads;
        assert_eq!(results, one_shot.results, "{choice:?}");
        assert_eq!(paged_reads, one_shot_reads, "{choice:?}");
    }
}

/// A cursor of any algorithm that has emitted all `k` results reports
/// `done` on the page that emitted the last one — a BFHM or DRJN cursor
/// used to wait for its guarantee loop to end, so a loop draining on
/// `done` alone spun on empty pages. Pulled one result a page, `k + 1`
/// pages always suffice. And a one-shot run is that cursor drained: it
/// bills exactly what the cursor charged over its life (`charged()`), and
/// both equal the ledger's delta. BFHM's index-metadata read at opening
/// is in no page's `CursorBatch::metrics`, but it is in the charge and
/// the bill; a MapReduce baseline charges its jobs to its first page.
#[test]
fn every_cursor_is_done_once_all_k_results_are_out() {
    let rows: Vec<(u8, f64)> = (0..40u32)
        .map(|i| ((i % 4) as u8, f64::from(i * 7 % 41) / 41.0))
        .collect();
    let (cluster, query) = load_pair(&rows, &rows, 5);
    let mut ex = prepared(&cluster, &query, 3);
    ex.prepare_ijlmr().unwrap();
    let all = oracle::full_join(&cluster, &query).unwrap();
    for algorithm in Algorithm::ALL {
        for k in [1, 5, 12] {
            let label = format!("{algorithm:?} k={k}");
            let want = oracle::topk(&cluster, &query.with_k(k)).unwrap();
            let before = cluster.metrics().snapshot();
            let one_shot = ex.execute_with_k(algorithm, k).unwrap();
            let one_shot_delta = cluster.metrics().snapshot().delta_since(&before);

            let before = cluster.metrics().snapshot();
            let mut cursor = ex.open_cursor(algorithm, k).unwrap();
            let mut results = Vec::new();
            let (mut pages, mut paged) = (0, MetricsSnapshot::default());
            loop {
                let batch = cursor.next_batch(1, &StopPolicy::never()).unwrap();
                results.extend(batch.results);
                paged += batch.metrics;
                pages += 1;
                if batch.done {
                    break;
                }
                assert!(pages <= k, "{label}: no `done` after {pages} pages");
            }
            let cursor_delta = cluster.metrics().snapshot().delta_since(&before);
            assert_eq!(results.len(), k, "{label}");
            assert_rank_equivalent(&label, &results, &want, &all);
            assert_eq!(results, one_shot.results, "{label}");

            let bill = one_shot.metrics;
            assert_eq!(bill, one_shot_delta, "{label}");
            assert_eq!(bill, cursor.charged(), "{label}");
            assert_eq!(bill, cursor_delta, "{label}");
            let opening = cursor.charged().kv_reads - paged.kv_reads;
            let reads_at_open = algorithm == Algorithm::Bfhm;
            assert_eq!(
                opening > 0,
                reads_at_open,
                "{label}: {opening} reads in no page"
            );
        }
    }
}

/// A `k = 0` cursor is empty and free for every algorithm, as the
/// one-shot `execute_with_k(_, 0)` is: its drained ledger delta equals the
/// one-shot's, which is zero. Opening the algorithm's own cursor would
/// not be: BFHM's reads the index metadata row, and `Auto`'s plans (here
/// over statistics that IJLMR's preparation made stale).
#[test]
fn a_k_zero_cursor_is_empty_and_free_for_every_algorithm() {
    let rows: Vec<(u8, f64)> = (0..40u32)
        .map(|i| ((i % 4) as u8, f64::from(i * 7 % 41) / 41.0))
        .collect();
    let (cluster, query) = load_pair(&rows, &rows, 5);
    let mut proto = prepared(&cluster, &query, 3);
    proto.prepare_ijlmr().unwrap();
    for algorithm in [
        Algorithm::Isl,
        Algorithm::Bfhm,
        Algorithm::Drjn,
        Algorithm::Hive,
        Algorithm::Pig,
        Algorithm::Ijlmr,
        Algorithm::Auto,
    ] {
        let fork = cluster.fork_metrics();
        let ex = proto.fork_onto(&fork).unwrap();
        let before = fork.metrics().snapshot();
        let one_shot = ex.execute_with_k(algorithm, 0).unwrap();
        let one_shot_delta = fork.metrics().snapshot().delta_since(&before);
        assert!(one_shot.results.is_empty(), "{algorithm:?}");

        let before = fork.metrics().snapshot();
        let cursor = ex.open_cursor(algorithm, 0).unwrap();
        assert_eq!(cursor.algorithm(), one_shot.algorithm);
        let mut cursor = ex.resume_cursor(cursor.pause()).unwrap();
        let batch = cursor.next_batch(5, &StopPolicy::never()).unwrap();
        let cursor_delta = fork.metrics().snapshot().delta_since(&before);
        assert!(batch.results.is_empty(), "{algorithm:?}");
        assert!(batch.done, "{algorithm:?}");
        assert_eq!(cursor_delta, one_shot_delta, "{algorithm:?}");
        assert_eq!(cursor_delta, MetricsSnapshot::default(), "{algorithm:?}");
        assert_eq!(
            cursor.charged(),
            MetricsSnapshot::default(),
            "{algorithm:?}"
        );
    }
}

/// Loads a 3-way path `t0 ⋈ t1 ⋈ t2` (join value + score per row) and
/// returns its top-k sum spec.
fn load_path3(sides: [&[(u8, f64)]; 3], k: usize) -> (Cluster, JoinSpec) {
    let cluster = Cluster::new(3, CostModel::test());
    let client = cluster.client();
    let mut spec_sides = Vec::new();
    for (i, rows) in sides.iter().enumerate() {
        let (table, label) = (format!("t{i}"), format!("S{i}"));
        cluster.create_table(&table, &["d"]).unwrap();
        for (r, (j, score)) in rows.iter().enumerate() {
            client
                .mutate_row(
                    &table,
                    format!("{table}_{r:04}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*j]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
        spec_sides.push(JoinSide::new(&table, &label, ("d", b"jk"), ("d", b"score")));
    }
    (
        cluster,
        JoinSpec::path(spec_sides, k, ScoreFn::Sum).unwrap(),
    )
}

/// Pulls pages of 3 from `open()`'s cursor: two under `stop`, then under
/// `never()` until done. One line per page: results, `done`, `stopped`,
/// and the page's `kv_reads` / `rpc_calls` / `network_bytes` /
/// `sim_seconds` bits.
fn stop_pages(fork: &Cluster, mut cursor: Box<dyn RankedCursor>, stop: &StopPolicy) -> Vec<String> {
    let mut pages = Vec::new();
    loop {
        let before = fork.metrics().snapshot();
        let policy = if pages.len() < 2 {
            stop.clone()
        } else {
            StopPolicy::never()
        };
        let batch = cursor.next_batch(3, &policy).unwrap();
        let d = fork.metrics().snapshot().delta_since(&before);
        assert_eq!(d, batch.metrics, "a page reports exactly its own charge");
        pages.push(format!(
            "{} {} {:?} {} {} {} {:x}",
            batch.results.len(),
            batch.done,
            batch.stopped,
            d.kv_reads,
            d.rpc_calls,
            d.network_bytes,
            d.sim_seconds.to_bits()
        ));
        if batch.done {
            return pages;
        }
        assert!(pages.len() < 64, "no `done` after 64 pages");
    }
}

/// The golden of where a stop fires: ISL (batches), BFHM (steps), DRJN
/// (rounds), a 3-way path (every side descended), an ISL pair it
/// exhausts, and the Hive and IJLMR baselines (whose one
/// boundary is before their jobs launch), under `cancel_after_batches` 1
/// and 2, a deadline at half the one-shot's simulated seconds, and a
/// token cancelled before the first pull. Every page's result count, `done`, `stopped` and
/// charge is pinned: a change to how a run is paged, metered or stopped
/// moves it.
#[test]
fn stop_boundaries_fire_exactly_where_recorded() {
    let rows: Vec<(u8, f64)> = (0..40u32)
        .map(|i| ((i % 4) as u8, f64::from(i * 7 % 41) / 41.0))
        .collect();
    let k = 8;
    let (cluster, query) = load_pair(&rows, &rows, k);
    let mut proto = prepared(&cluster, &query, 3);
    proto.prepare_ijlmr().unwrap();
    // Two rows a side at batch 3: ISL exhausts both sides in its second
    // batch, and no policy is evaluated after that batch.
    let (tiny_cluster, tiny_query) = load_pair(&rows[..2], &rows[..2], k);
    let tiny = prepared(&tiny_cluster, &tiny_query, 3);
    let (path_cluster, spec) = load_path3([&rows[..12], &rows[5..25], &rows[20..]], k);
    let mut path = SpecExecutor::new(&path_cluster, spec);
    path.isl_config = IslConfig::uniform(3);
    path.prepare().unwrap();

    let mut got = Vec::new();
    let runs = [
        "ISL",
        "BFHM",
        "DRJN",
        "PATH3 DESCEND",
        "ISL TINY",
        "HIVE",
        "IJLMR",
    ];
    for run in runs {
        let algorithm = match run {
            "BFHM" => Algorithm::Bfhm,
            "DRJN" => Algorithm::Drjn,
            "HIVE" => Algorithm::Hive,
            "IJLMR" => Algorithm::Ijlmr,
            _ => Algorithm::Isl,
        };
        let fresh = || match run {
            "PATH3 DESCEND" => {
                let fork = path_cluster.fork_metrics();
                let ex = path.fork_onto(&fork).unwrap();
                (fork, RankJoinExecutor::from(ex))
            }
            "ISL TINY" => {
                let fork = tiny_cluster.fork_metrics();
                let ex = tiny.fork_onto(&fork).unwrap();
                (fork, ex)
            }
            _ => {
                let fork = cluster.fork_metrics();
                let ex = proto.fork_onto(&fork).unwrap();
                (fork, ex)
            }
        };
        let (fork, ex) = fresh();
        let before = fork.metrics().snapshot();
        ex.execute_with_k(algorithm, k).unwrap();
        let one_shot_sim = fork.metrics().snapshot().delta_since(&before).sim_seconds;
        let stops = [
            StopPolicy {
                cancel_after_batches: Some(1),
                ..StopPolicy::never()
            },
            StopPolicy {
                cancel_after_batches: Some(2),
                ..StopPolicy::never()
            },
            StopPolicy::with_deadline(one_shot_sim / 2.0),
            StopPolicy::default(),
        ];
        stops[3].token.cancel();
        let names = ["after 1", "after 2", "deadline", "cancelled"];
        for (name, stop) in names.iter().zip(stops) {
            let (fork, ex) = fresh();
            let cursor = ex.open_cursor(algorithm, k).unwrap();
            got.push(format!("{run} {name}"));
            got.extend(stop_pages(&fork, cursor, &stop));
        }
    }
    // Recorded before the three cursors became one; the PATH3 DESCEND
    // lines when every side became the default descent at every arity;
    // the HIVE, IJLMR and `cancelled` lines before the MapReduce
    // baselines joined the one pump. The `sim_seconds` column was
    // re-recorded when deltas became exact in whole nanoseconds: one
    // charge now has one bit pattern (1 µs is `3eb0c6f7a0b5ed8d`).
    let golden = [
        "ISL after 1",
        "0 false Some(Cancelled) 3 1 105 3eb0c6f7a0b5ed8d",
        "1 false Some(Cancelled) 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 6 2 210 3ec0c6f7a0b5ed8d",
        "3 false None 0 0 0 0",
        "1 true None 0 0 0 0",
        "ISL after 2",
        "1 false Some(Cancelled) 6 2 210 3ec0c6f7a0b5ed8d",
        "0 false Some(Cancelled) 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 0 0 0 0",
        "1 true None 0 0 0 0",
        "ISL deadline",
        "1 false Some(DeadlineExpired) 6 2 210 3ec0c6f7a0b5ed8d",
        "0 false Some(DeadlineExpired) 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 0 0 0 0",
        "1 true None 0 0 0 0",
        "ISL cancelled",
        "0 false Some(Cancelled) 3 1 105 3eb0c6f7a0b5ed8d",
        "1 false Some(Cancelled) 3 1 105 3eb0c6f7a0b5ed8d",
        "3 false None 6 2 210 3ec0c6f7a0b5ed8d",
        "3 false None 0 0 0 0",
        "1 true None 0 0 0 0",
        "BFHM after 1",
        "0 false Some(Cancelled) 0 0 0 0",
        "0 false Some(Cancelled) 1 1 63 3eb0c6f7a0b5ed8d",
        "3 false None 15 11 623 3ee711947cfa26a2",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "BFHM after 2",
        "0 false Some(Cancelled) 1 1 63 3eb0c6f7a0b5ed8d",
        "0 false Some(Cancelled) 1 1 63 3eb0c6f7a0b5ed8d",
        "3 false None 14 10 560 3ee4f8b588e368f1",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "BFHM deadline",
        "3 false Some(DeadlineExpired) 16 12 686 3ee92a737110e454",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "BFHM cancelled",
        "0 false Some(Cancelled) 0 0 0 0",
        "0 false Some(Cancelled) 1 1 63 3eb0c6f7a0b5ed8d",
        "3 false None 15 11 623 3ee711947cfa26a2",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "DRJN after 1",
        "3 false Some(Cancelled) 172 18 372 3ee1098a0ed9840d",
        "3 false None 172 16 354 3ee0fca785eb66ec",
        "2 true None 0 0 0 0",
        "DRJN after 2",
        "3 false None 172 18 372 3ee1098a0ed9840d",
        "3 false None 172 16 354 3ee0fca785eb66ec",
        "2 true None 0 0 0 0",
        "DRJN deadline",
        "3 false Some(DeadlineExpired) 172 18 372 3ee1098a0ed9840d",
        "3 false None 172 16 354 3ee0fca785eb66ec",
        "2 true None 0 0 0 0",
        "DRJN cancelled",
        "3 false Some(Cancelled) 172 18 372 3ee1098a0ed9840d",
        "3 false None 172 16 354 3ee0fca785eb66ec",
        "2 true None 0 0 0 0",
        "PATH3 DESCEND after 1",
        "0 false Some(Cancelled) 4 4 152 3ed0c6f7a0b5ed8d",
        "0 false Some(Cancelled) 4 2 172 3ec0c6f7a0b5ed8d",
        "3 false None 9 5 357 3ed4f8b588e368f1",
        "3 false None 0 0 0 0",
        "2 true None 8 7 319 3edd5c31593e5fb7",
        "PATH3 DESCEND after 2",
        "0 false Some(Cancelled) 8 6 324 3ed92a737110e454",
        "1 false Some(Cancelled) 3 1 114 3eb0c6f7a0b5ed8d",
        "3 false None 6 4 243 3ed0c6f7a0b5ed8d",
        "3 false None 8 7 319 3edd5c31593e5fb7",
        "1 true None 0 0 0 0",
        "PATH3 DESCEND deadline",
        "2 false Some(DeadlineExpired) 14 9 552 3ee2dfd694ccab3f",
        "3 false Some(DeadlineExpired) 3 2 129 3ec0c6f7a0b5ed8d",
        "3 true None 8 7 319 3edd5c31593e5fb7",
        "PATH3 DESCEND cancelled",
        "0 false Some(Cancelled) 4 4 152 3ed0c6f7a0b5ed8d",
        "0 false Some(Cancelled) 4 2 172 3ec0c6f7a0b5ed8d",
        "3 false None 9 5 357 3ed4f8b588e368f1",
        "3 false None 0 0 0 0",
        "2 true None 8 7 319 3edd5c31593e5fb7",
        "ISL TINY after 1",
        "0 false Some(Cancelled) 2 6 70 3ed92a737110e454",
        "2 true None 2 6 70 3ed92a737110e454",
        "ISL TINY after 2",
        "2 true None 4 12 140 3ee92a737110e454",
        "ISL TINY deadline",
        "0 false Some(DeadlineExpired) 2 6 70 3ed92a737110e454",
        "2 true None 2 6 70 3ed92a737110e454",
        "ISL TINY cancelled",
        "0 false Some(Cancelled) 2 6 70 3ed92a737110e454",
        "2 true None 2 6 70 3ed92a737110e454",
        "HIVE after 1",
        "3 false None 160 2 181108 3eb5f1d135899c18",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "HIVE after 2",
        "3 false None 160 2 181108 3eb5f1d135899c18",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "HIVE deadline",
        "3 false None 160 2 181108 3eb5f1d135899c18",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "HIVE cancelled",
        "0 false Some(Cancelled) 0 0 0 0",
        "0 false Some(Cancelled) 0 0 0 0",
        "3 false None 160 2 181108 3eb5f1d135899c18",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "IJLMR after 1",
        "3 false None 80 5 1904 3e5cfdb417c18a1b",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "IJLMR after 2",
        "3 false None 80 5 1904 3e5cfdb417c18a1b",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "IJLMR deadline",
        "3 false None 80 5 1904 3e5cfdb417c18a1b",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
        "IJLMR cancelled",
        "0 false Some(Cancelled) 0 0 0 0",
        "0 false Some(Cancelled) 0 0 0 0",
        "3 false None 80 5 1904 3e5cfdb417c18a1b",
        "3 false None 0 0 0 0",
        "2 true None 0 0 0 0",
    ];
    assert_eq!(got, golden);
}
