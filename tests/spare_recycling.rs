//! A run that starts from the buffers an earlier run of its executor gave
//! back answers and bills exactly as one that starts from nothing, and
//! executors do not share those buffers (an executor's forks do).
//!
//! An executor keeps the seen sides, the id top-k, the row batches of an
//! ISL cursor's index scans and the buffers of a BFHM run that its runs
//! drop (`rj_core`'s spare lists), cleared, and hands them to its next
//! run. A kept batch that still held rows, or a BFHM cache that still held
//! a tuple, would show up here as a wrong answer or a different bill. So
//! every test runs each `k` once on a fresh executor of its own (no
//! spares), then runs the `k`s again on one executor in an order that
//! grows and shrinks the buffers — with paged cursors parked in between,
//! some finished and some abandoned, in another order than they were
//! opened — and checks that every one-shot run's results, `kv_reads`,
//! `rpc_calls` and `network_bytes`, and every finished cursor's results,
//! equal the fresh executor's. Everything runs on the test's one thread.
//!
//! And what a run allocates depends on its executor and its forks alone:
//! another executor's runs and parked cursors in between do not change it
//! (counted by this binary's counting allocator).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{counted, CountingAlloc};

use rankjoin::core::bfhm;
use rankjoin::core::cursor::{CursorState, RankedCursor};
use rankjoin::tpch::{loader, TpchConfig};
use rankjoin::{
    Algorithm, BfhmConfig, Cluster, CostModel, IslConfig, JoinEdge, JoinSide, JoinSpec, JoinTuple,
    QueryOutcome, RankJoinExecutor, RankJoinQuery, ScoreFn, SideAccess, SpecExecutor, StopPolicy,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `k`s every test runs.
const KS: [usize; 3] = [1, 10, 50];
/// The order they run in on the recycling executors: every `k` follows
/// every other one at least once.
const SCHEDULE: [usize; 7] = [1, 10, 50, 1, 50, 10, 1];

/// What a run answers and bills.
#[derive(Debug, PartialEq)]
struct Bill {
    results: Vec<JoinTuple>,
    kv_reads: u64,
    rpc_calls: u64,
    network_bytes: u64,
}

impl Bill {
    fn of(outcome: QueryOutcome) -> Self {
        Bill {
            kv_reads: outcome.metrics.kv_reads,
            rpc_calls: outcome.metrics.rpc_calls,
            network_bytes: outcome.metrics.network_bytes,
            results: outcome.results,
        }
    }
}

/// One executor and algorithm under test.
trait Subject {
    /// A new executor like this one, with no spares (a fork would share
    /// this one's).
    fn fresh(&self) -> Box<dyn Subject>;
    fn one_shot(&self, k: usize) -> QueryOutcome;
    fn open(&self, k: usize) -> Box<dyn RankedCursor>;
    fn resume(&self, state: CursorState) -> Box<dyn RankedCursor>;
}

/// A two-side executor running one named algorithm.
struct Binary(RankJoinExecutor, Algorithm);

impl Subject for Binary {
    fn fresh(&self) -> Box<dyn Subject> {
        let mut fresh = new_like(&self.0);
        let table = bfhm::index_table_name(self.0.query());
        fresh.attach_bfhm(&table, bfhm_config()).unwrap();
        Box::new(Binary(fresh, self.1))
    }
    fn one_shot(&self, k: usize) -> QueryOutcome {
        self.0.execute_with_k(self.1, k).unwrap()
    }
    fn open(&self, k: usize) -> Box<dyn RankedCursor> {
        self.0.open_cursor(self.1, k).unwrap()
    }
    fn resume(&self, state: CursorState) -> Box<dyn RankedCursor> {
        self.0.resume_cursor(state).unwrap()
    }
}

impl Subject for SpecExecutor {
    fn fresh(&self) -> Box<dyn Subject> {
        let mut fresh = SpecExecutor::new(self.engine().cluster(), self.spec().clone());
        fresh.isl_config = self.isl_config;
        fresh.access_override = self.access_override.clone();
        fresh.attach(self.isl_table().unwrap()).unwrap();
        Box::new(fresh)
    }
    fn one_shot(&self, k: usize) -> QueryOutcome {
        self.execute_with_k(k).unwrap()
    }
    fn open(&self, k: usize) -> Box<dyn RankedCursor> {
        self.open_cursor(k).unwrap()
    }
    fn resume(&self, state: CursorState) -> Box<dyn RankedCursor> {
        self.resume_cursor(state).unwrap()
    }
}

/// A parked cursor: its subject, `k`, state and the results it emitted.
type Parked = (usize, usize, CursorState, Vec<JoinTuple>);

/// Resumes a parked cursor and drains it, a page of 7 at a time.
fn finish(
    subject: &dyn Subject,
    state: CursorState,
    mut results: Vec<JoinTuple>,
) -> Vec<JoinTuple> {
    let mut cursor = subject.resume(state);
    loop {
        let page = cursor.next_batch(7, &StopPolicy::default()).unwrap();
        results.extend(page.results);
        if page.done {
            return results;
        }
    }
}

/// Runs [`SCHEDULE`], step `i` on subject `i % n`, and checks every run
/// against a fresh executor's run of the same subject and `k`.
fn recycled_runs_match_fresh_ones(subjects: &[&dyn Subject]) {
    let fresh: Vec<Vec<Bill>> = subjects
        .iter()
        .map(|subject| {
            KS.iter()
                .map(|&k| Bill::of(subject.fresh().one_shot(k)))
                .collect()
        })
        .collect();
    let want = |at: usize, k: usize| &fresh[at][KS.iter().position(|&x| x == k).unwrap()];
    for (at, bills) in fresh.iter().enumerate() {
        for (bill, k) in bills.iter().zip(KS) {
            assert_eq!(bill.results.len(), k, "subject {at}: k = {k}");
        }
    }

    let mut parked: Vec<Parked> = Vec::new();
    for (step, &k) in SCHEDULE.iter().enumerate() {
        let at = step % subjects.len();
        let subject = subjects[at];
        // A paged cursor, parked after its first page.
        let mut cursor = subject.open(k);
        let page = cursor.next_batch(k.div_ceil(3), &StopPolicy::default());
        parked.push((at, k, cursor.pause(), page.unwrap().results));

        let bill = Bill::of(subject.one_shot(k));
        assert_eq!(&bill, want(at, k), "step {step}: subject {at}, k = {k}");

        // Past two parked cursors, let one go, never the newest: finish
        // the middle one on odd steps, abandon the oldest on even ones.
        if parked.len() > 2 {
            if step % 2 == 1 {
                let (at, k, state, emitted) = parked.remove(1);
                let results = finish(subjects[at], state, emitted);
                assert_eq!(results, want(at, k).results, "step {step}: parked k = {k}");
            } else {
                drop(parked.remove(0));
            }
        }
    }
    // Newest first.
    while let Some((at, k, state, emitted)) = parked.pop() {
        let results = finish(subjects[at], state, emitted);
        assert_eq!(results, want(at, k).results, "parked k = {k}");
    }
}

fn side(table: &str, label: &str, join: &'static [u8]) -> JoinSide {
    JoinSide::new(
        table,
        label,
        (loader::FAMILY, join),
        (loader::FAMILY, loader::cols::SCORE),
    )
}

/// A tiny TPC-H cluster under the lab cost profile.
fn loaded() -> Cluster {
    let cluster = Cluster::with_profile(CostModel::lab());
    loader::load_all(&cluster, &TpchConfig::new(0.002)).unwrap();
    cluster
}

/// The BFHM index every executor here builds.
fn bfhm_config() -> BfhmConfig {
    BfhmConfig::with_buckets(20)
}

/// A new executor over `ex`'s query, cluster and ISL index, with its ISL
/// tuning: a list of its own, empty.
fn new_like(ex: &RankJoinExecutor) -> RankJoinExecutor {
    let mut fresh = RankJoinExecutor::new(ex.engine().cluster(), ex.query().clone());
    fresh.isl_config = ex.isl_config;
    fresh.attach_isl(ex.isl_table().unwrap()).unwrap();
    fresh
}

/// The paper's Q1 (`Part ⋈ Lineitem`, product) and Q2 (`Orders ⋈
/// Lineitem`, sum) over `cluster`, each with its ISL and BFHM indices.
fn executors(cluster: &Cluster) -> [RankJoinExecutor; 2] {
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
    .map(|query| {
        let mut ex = RankJoinExecutor::new(cluster, query);
        ex.isl_config = IslConfig::uniform(64);
        ex.prepare_isl().unwrap();
        ex.prepare_bfhm(bfhm_config()).unwrap();
        ex
    })
}

#[test]
fn a_recycled_bfhm_run_answers_and_bills_as_a_fresh_one() {
    let [q1, q2] = executors(&loaded());
    let (q1, q2) = (Binary(q1, Algorithm::Bfhm), Binary(q2, Algorithm::Bfhm));
    recycled_runs_match_fresh_ones(&[&q2]);
    recycled_runs_match_fresh_ones(&[&q1, &q2]);
}

#[test]
fn a_recycled_isl_scan_batch_answers_and_bills_as_a_fresh_one() {
    let [q1, q2] = executors(&loaded());
    let (q1, q2) = (Binary(q1, Algorithm::Isl), Binary(q2, Algorithm::Isl));
    recycled_runs_match_fresh_ones(&[&q1]);
    recycled_runs_match_fresh_ones(&[&q1, &q2]);
}

/// The 3-way path `Part ⋈ Lineitem ⋈ Orders`, sum of the three scores,
/// every side descended 64 rows a turn — and, interleaved with it, binary
/// ISL on Q2, whose executor keeps its own spares.
#[test]
fn a_recycled_three_way_scan_batch_answers_and_bills_as_a_fresh_one() {
    let cluster = loaded();
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
    let mut three = SpecExecutor::new(&cluster, spec);
    three.isl_config = IslConfig::uniform(64);
    three.access_override = Some(vec![SideAccess::Descend; 3]);
    three.prepare().unwrap();
    let [_, q2] = executors(&cluster);
    let q2 = Binary(q2, Algorithm::Isl);
    recycled_runs_match_fresh_ones(&[&three]);
    recycled_runs_match_fresh_ones(&[&three, &q2]);
}

/// One-shot ISL at k = 50 on `ex`: the allocations it made, after
/// checking its answer against `answer` (when given).
fn isl_run(ex: &RankJoinExecutor, answer: Option<&[JoinTuple]>) -> u64 {
    let (outcome, allocs) = counted(|| ex.execute_with_k(Algorithm::Isl, 50).unwrap());
    assert_eq!(outcome.results.len(), 50);
    assert!(answer.is_none_or(|answer| outcome.results == answer));
    allocs
}

/// What a run allocates depends on its executor's runs alone. A warm run
/// on executor B allocates the same whether or not executor A, over the
/// other query, ran and parked a cursor in between, and a new executor
/// over B's query and index starts from nothing. A fork of B is B over
/// another ledger: its first run recycles what B's runs gave back, and
/// B's next warm run is what it was before the fork ran.
#[test]
fn executors_do_not_share_spares() {
    let cluster = loaded();
    let [a, b] = executors(&cluster);
    let results = b.execute_with_k(Algorithm::Isl, 50).unwrap().results;
    let answer = Some(&results[..]);
    let warm = isl_run(&b, answer);
    let first = isl_run(&new_like(&b), answer);
    assert!(first > warm, "first run {first}, warm run {warm}");

    isl_run(&a, None);
    let mut cursor = a.open_cursor(Algorithm::Isl, 50).unwrap();
    cursor.next_batch(10, &StopPolicy::default()).unwrap();
    let parked = cursor.pause();
    assert_eq!(isl_run(&b, answer), warm, "after A's runs");

    let fork = b.fork_onto(&cluster.fork_metrics()).unwrap();
    assert_eq!(isl_run(&fork, answer), warm, "a fork's first run");
    assert_eq!(isl_run(&b, answer), warm, "after the fork's run");
    drop(fork);
    assert_eq!(isl_run(&b, answer), warm, "after the fork dropped");
    drop(parked);
}
