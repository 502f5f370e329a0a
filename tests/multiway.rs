//! Multi-way rank-join integration suite (`rj_core::multiway`).
//!
//! * Proptest: 3- and 4-way **path** and **star** specs over arbitrary
//!   data, at batches of 1–3 rows over sides of up to 39 rows (so the
//!   descent's pull order decides which side is read when), are
//!   rank-equivalent to the exhaustive N-ary oracle under every access
//!   plan — the default (every side descends), the same descent forced
//!   through the override, and a forced materialization — and an *arbitrary* interleaving of `next_batch`
//!   pulls, pause/resume round-trips, and resumes on a different
//!   executor fork charges exactly the one-shot run's ledger (`kv_reads`,
//!   `rpc_calls`, `network_bytes`).
//! * Proptest: the **binary compatibility pin** — a two-side
//!   [`rankjoin::JoinSpec`] through [`rankjoin::SpecExecutor`] is
//!   byte-for-byte the binary ISL execution: identical results,
//!   identical metered `kv_reads`/`rpc_calls`/bytes.

use proptest::prelude::*;

use rankjoin::core::oracle;
use rankjoin::store::metrics::MetricsSnapshot;
use rankjoin::{
    Algorithm, Cluster, CostModel, IslConfig, JoinSide, JoinSpec, JoinTuple, Mutation,
    RankJoinExecutor, ScoreFn, SideAccess, SpecExecutor, StopPolicy,
};

type SideRows = Vec<(u8, f64)>;

#[derive(Clone, Copy, Debug)]
enum Shape {
    Path,
    Star,
}

/// Loads one table per side (join value + score per row) and builds the
/// path or star spec over them.
fn load_spec(sides: &[SideRows], shape: Shape, k: usize) -> (Cluster, JoinSpec) {
    let cluster = Cluster::new(3, CostModel::test());
    let names = ["t0", "t1", "t2", "t3"];
    let labels = ["S0", "S1", "S2", "S3"];
    let client = cluster.client();
    let mut spec_sides = Vec::with_capacity(sides.len());
    for (i, rows) in sides.iter().enumerate() {
        cluster.create_table(names[i], &["d"]).unwrap();
        for (r, (j, score)) in rows.iter().enumerate() {
            client
                .mutate_row(
                    names[i],
                    format!("{}_{r:04}", names[i]).as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", vec![*j]),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
        spec_sides.push(JoinSide::new(
            names[i],
            labels[i],
            ("d", b"jk"),
            ("d", b"score"),
        ));
    }
    let spec = match shape {
        Shape::Path => JoinSpec::path(spec_sides, k, ScoreFn::Sum).unwrap(),
        Shape::Star => JoinSpec::star(spec_sides, k, ScoreFn::Sum).unwrap(),
    };
    (cluster, spec)
}

/// Rank-equivalence under score ties (the repo's cross-algorithm
/// contract), over N-ary tuples: identical score sequences, exact
/// matches strictly above the boundary score, genuine join tuples at it.
fn assert_rank_equivalent(label: &str, got: &[JoinTuple], want: &[JoinTuple], all: &[JoinTuple]) {
    let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
    let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
    assert_eq!(got_scores, want_scores, "{label}: score sequences differ");
    let boundary = want.last().map(|t| t.score);
    for (g, w) in got.iter().zip(want) {
        if Some(g.score) != boundary {
            assert_eq!(g, w, "{label}: above-boundary tuple differs");
        } else {
            assert!(
                all.iter().any(|t| t == g),
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
    /// Pause and resume on a *different* executor fork.
    Refork,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..5).prop_map(|v| match v {
        0..=2 => Op::Pull(v + 1),
        3 => Op::Reopen,
        _ => Op::Refork,
    })
}

#[derive(Clone, Debug)]
struct Scenario {
    sides: Vec<SideRows>,
    k: usize,
    batch: usize,
    ops: Vec<Op>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let tuple = (0u8..5, 0u32..=1000).prop_map(|(j, s)| (j, f64::from(s) / 1000.0));
    (
        prop::collection::vec(prop::collection::vec(tuple, 1..40), 3..=4),
        1usize..8,
        1usize..=3,
        prop::collection::vec(op_strategy(), 1..10),
    )
        .prop_map(|(sides, k, batch, ops)| Scenario {
            sides,
            k,
            batch,
            ops,
        })
}

/// `(kv_reads, rpc_calls, network_bytes)` charged to `fork` since `before`.
fn ledger(fork: &Cluster, before: &MetricsSnapshot) -> (u64, u64, u64) {
    let d = fork.metrics().snapshot().delta_since(before);
    (d.kv_reads, d.rpc_calls, d.network_bytes)
}

/// Drives one cursor through the schedule across two executor forks,
/// then drains it; returns the emitted prefix.
fn run_schedule(ex_a: &SpecExecutor, ex_b: &SpecExecutor, k: usize, ops: &[Op]) -> Vec<JoinTuple> {
    let policy = StopPolicy::never();
    let mut on_a = true;
    let mut cursor = ex_a.open_cursor(k).unwrap();
    let mut results = Vec::new();
    let mut done = false;
    for op in ops {
        if done || results.len() >= k {
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
    while !done && results.len() < k {
        let batch = cursor
            .next_batch(k - results.len(), &StopPolicy::never())
            .unwrap();
        results.extend(batch.results);
        done = batch.done;
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// 3- and 4-way path and star specs on arbitrary data: every access
    /// plan (the default all-descend, the same forced, a forced
    /// materialization) is rank-equivalent to the exhaustive oracle, and
    /// an arbitrary pull/pause/resume/refork schedule charges exactly the
    /// one-shot run's ledger.
    #[test]
    fn three_way_specs_match_oracle_across_plans_and_schedules(s in scenario()) {
        for shape in [Shape::Path, Shape::Star] {
            let (cluster, spec) = load_spec(&s.sides, shape, s.k);
            let mut proto = SpecExecutor::new(&cluster, spec.clone());
            proto.isl_config = IslConfig::uniform(s.batch);
            proto.prepare().unwrap();

            let want = oracle::topk_spec(&cluster, &spec).unwrap();
            let all = oracle::full_join_spec(&cluster, &spec).unwrap();

            let n = spec.n();
            let mut materialize_one = vec![SideAccess::Descend; n];
            materialize_one[1] = SideAccess::Materialize;
            let overrides: [Option<Vec<SideAccess>>; 3] = [
                None,
                Some(vec![SideAccess::Descend; n]),
                Some(materialize_one),
            ];
            for access in overrides {
                let fork = cluster.fork_metrics();
                let mut ex = proto.fork_onto(&fork).unwrap();
                ex.access_override = access.clone();
                let out = ex.execute_with_k(s.k).unwrap();
                assert_rank_equivalent(
                    &format!("{shape:?} {access:?}"), &out.results, &want, &all,
                );
            }

            // One-shot reference on its own metrics fork.
            let fork_ref = cluster.fork_metrics();
            let ex_ref = proto.fork_onto(&fork_ref).unwrap();
            let before = fork_ref.metrics().snapshot();
            ex_ref.execute_with_k(s.k).unwrap();
            let one_shot = ledger(&fork_ref, &before);

            // The same query through the scheduled cursor, hopping
            // between two further forks.
            let fork_a = cluster.fork_metrics();
            let fork_b = cluster.fork_metrics();
            let ex_a = proto.fork_onto(&fork_a).unwrap();
            let ex_b = proto.fork_onto(&fork_b).unwrap();
            let before_a = fork_a.metrics().snapshot();
            let before_b = fork_b.metrics().snapshot();
            let paged = run_schedule(&ex_a, &ex_b, s.k, &s.ops);
            let (a, b) = (ledger(&fork_a, &before_a), ledger(&fork_b, &before_b));
            let scheduled = (a.0 + b.0, a.1 + b.1, a.2 + b.2);

            assert_rank_equivalent(&format!("{shape:?} scheduled"), &paged, &want, &all);
            prop_assert_eq!(
                scheduled, one_shot,
                "{:?}: scheduled run must charge exactly the one-shot ledger", shape
            );
        }
    }

    /// The binary compatibility pin: a two-side spec through
    /// `SpecExecutor` produces identical results AND an identical full
    /// metrics delta (kv_reads, rpc_calls, bytes, time) to the binary
    /// ISL executor on the same data.
    #[test]
    fn two_side_spec_is_byte_for_byte_the_binary_execution(
        left in prop::collection::vec((0u8..6, 0u32..=1000), 1..20),
        right in prop::collection::vec((0u8..6, 0u32..=1000), 1..20),
        k in 1usize..8,
    ) {
        let sides: Vec<SideRows> = [&left, &right]
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|(j, s)| (*j, f64::from(*s) / 1000.0))
                    .collect()
            })
            .collect();

        let (c1, spec1) = load_spec(&sides, Shape::Path, k);
        let q = spec1.as_binary().expect("two-side path spec maps to binary");
        let mut binary = RankJoinExecutor::new(&c1, q.clone());
        binary.prepare_isl().unwrap();
        let before1 = c1.metrics().snapshot();
        let direct = binary.execute_with_k(Algorithm::Isl, k).unwrap();
        let charge1 = c1.metrics().snapshot().delta_since(&before1);

        let (c2, spec2) = load_spec(&sides, Shape::Path, k);
        let mut spec_exec = SpecExecutor::new(&c2, spec2);
        spec_exec.prepare().unwrap();
        let before2 = c2.metrics().snapshot();
        let via_spec = spec_exec.execute_with_k(k).unwrap();
        let charge2 = c2.metrics().snapshot().delta_since(&before2);

        prop_assert_eq!(direct.results, via_spec.results);
        prop_assert_eq!(direct.algorithm, via_spec.algorithm);
        prop_assert_eq!(
            charge1, charge2,
            "the spec path must charge byte-for-byte the binary metrics"
        );
    }
}
