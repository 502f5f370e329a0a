//! Set-up and the five trial runners.
//!
//! Every runner is a closed loop on the one driver thread: it issues an
//! op, checks the answer against the reference, records the latency
//! (call → checked answer in hand) and only then issues the next. With a
//! [`Tracer`] the same ops run as plan → open → pull, one span per call
//! into a layer; the engine underneath is the same, and the run checks
//! that both forms charge identical KV reads.

use std::collections::HashSet;
use std::time::Instant;

use crate::alloc::{self, AllocSnapshot};
use crate::ops::{DataShape, QueryOp, StreamOp, Trial, Wave, Workload, PAGE, TENANTS, WAVE};
use crate::reference::{Expected, LiveExpected};
use crate::seam::{
    ledger_sum, rowkey, Algo, Binary, Cursor, JoinTuple, MetricsSnapshot, Multiway, Res, Service,
    Session, Status, Store, Writer, Q, SF_BINARY, SF_MULTIWAY,
};
use crate::trace::{names, Ledger, Tracer};

/// Which parts of the fixture a run builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Needs {
    /// ISL indices of Q1 and Q2.
    pub isl: bool,
    /// BFHM indices of Q1 and Q2.
    pub bfhm: bool,
    /// The SF 0.002 cluster and its 3-way index.
    pub multiway: bool,
}

impl Needs {
    /// What `workload` itself touches.
    pub fn of(workload: Workload) -> Needs {
        let (isl, bfhm, multiway) = match workload {
            Workload::IslDeep | Workload::ServeShared => (true, false, false),
            Workload::BfhmAuto => (false, true, false),
            Workload::MultiwayPath => (false, false, true),
            Workload::UpdateStream => (true, true, false),
        };
        Needs {
            isl,
            bfhm,
            multiway,
        }
    }

    /// Everything (the traced pass tours every layer).
    pub const ALL: Needs = Needs {
        isl: true,
        bfhm: true,
        multiway: true,
    };

    fn binary(self) -> bool {
        self.isl || self.bfhm
    }
}

/// Host seconds of each set-up phase (summed over Q1 and Q2).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// TPC-H generation and load (both clusters when both are built).
    pub load_s: f64,
    /// `prepare_isl`.
    pub prepare_isl_s: f64,
    /// `prepare_bfhm`.
    pub prepare_bfhm_s: f64,
    /// Multiway `prepare`.
    pub prepare_multiway_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.load_s + self.prepare_isl_s + self.prepare_bfhm_s + self.prepare_multiway_s
    }
}

/// The SF 0.01 cluster with the Q1 and Q2 executors.
pub struct BinaryFixture {
    /// The loaded cluster.
    pub store: Store,
    /// Q1 and Q2, with whichever indices the run needs.
    pub ex: [Binary; 2],
}

/// The SF 0.002 cluster with the 3-way executor.
pub struct MultiwayFixture {
    /// The loaded cluster.
    pub store: Store,
    /// The prepared 3-way path executor.
    pub ex: Multiway,
}

/// Loaded data and built indices.
pub struct Fixture {
    /// Present when the run needs ISL or BFHM.
    pub binary: Option<BinaryFixture>,
    /// Present when the run needs the 3-way path.
    pub multiway: Option<MultiwayFixture>,
    /// Which indices exist.
    pub needs: Needs,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> Res<T>) -> Res<T> {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Loads the data and builds the indices `needs` names, timing each
/// phase from outside.
pub fn setup(needs: Needs) -> Res<(Fixture, SetupTimes)> {
    let mut t = SetupTimes::default();
    let binary = if needs.binary() {
        let store = timed(&mut t.load_s, || Store::load(SF_BINARY))?;
        let mut ex = Q::BOTH.map(|q| store.binary(q));
        for e in &mut ex {
            if needs.isl {
                timed(&mut t.prepare_isl_s, || e.prepare_isl())?;
            }
            if needs.bfhm {
                timed(&mut t.prepare_bfhm_s, || e.prepare_bfhm())?;
            }
        }
        Some(BinaryFixture { store, ex })
    } else {
        None
    };
    let multiway = if needs.multiway {
        let store = timed(&mut t.load_s, || Store::load(SF_MULTIWAY))?;
        let mut ex = store.multiway()?;
        timed(&mut t.prepare_multiway_s, || ex.prepare())?;
        Some(MultiwayFixture { store, ex })
    } else {
        None
    };
    Ok((
        Fixture {
            binary,
            multiway,
            needs,
        },
        t,
    ))
}

/// What one trial produced.
#[derive(Clone, Debug, Default)]
pub struct TrialOut {
    /// Per-op host latency, ns, in op order.
    pub lat_ns: Vec<u64>,
    /// Host ns inside timed regions (ops never overlap except within a
    /// serving wave, which is timed as a whole).
    pub busy_ns: u64,
    /// Heap allocations inside timed regions (the harness's own
    /// bookkeeping between ops is left out).
    pub allocs: u64,
    /// Bytes requested inside timed regions.
    pub alloc_bytes: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Result tuples handed back to the client.
    pub results: u64,
    /// Simulated cost charged on ledgers other than the cluster's own
    /// (the serving layer's tenant forks).
    pub fork_usage: MetricsSnapshot,
    /// Serving counters at the end of the trial.
    pub serve: Option<ServeShape>,
    /// Full statistics passes that ran during the trial.
    pub recollects: u64,
}

/// The serving layer's work-sharing shape over one trial.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeShape {
    /// Sessions completed.
    pub completed: u64,
    /// Executions run.
    pub executions: u64,
    /// Sessions coalesced onto another's execution.
    pub coalesced: u64,
    /// Sessions answered from the prefix cache.
    pub cache_hits: u64,
    /// Executions started from a donated cursor state.
    pub warm_starts: u64,
    /// Scheduling rounds.
    pub rounds: u64,
}

/// What a workload's trials check against and write through.
enum Kind {
    /// `isl_deep` and `bfhm_auto`: reference answers of Q1 and Q2.
    Queries { algo: Algo, expected: [Expected; 2] },
    /// `multiway_path`.
    Multiway { expected: Expected },
    /// `serve_shared`: reference answers plus the write path that bumps
    /// each backend's statistics version.
    Serve {
        expected: [Expected; 2],
        writers: [Writer; 2],
    },
    /// `update_stream`: reads go through a clone with eager write-back;
    /// the expectation follows the writes.
    Stream {
        ex: Binary,
        writer: Writer,
        live: LiveExpected,
    },
}

/// Everything a workload's trials run against. Built once per run, after
/// set-up, outside every timed region.
pub struct Bench<'f> {
    workload: Workload,
    fixture: &'f Fixture,
    kind: Kind,
    /// `(executor, k)` pairs already planned — decides whether a traced
    /// planner call is a cold or a cached one.
    planned: HashSet<(usize, usize)>,
}

fn binary_of(fixture: &Fixture) -> Res<&BinaryFixture> {
    fixture
        .binary
        .as_ref()
        .ok_or_else(|| "fixture has no binary cluster".to_owned())
}

fn multiway_of(fixture: &Fixture) -> Res<&MultiwayFixture> {
    fixture
        .multiway
        .as_ref()
        .ok_or_else(|| "fixture has no multiway cluster".to_owned())
}

fn both_expected(store: &Store, max_k: usize) -> Res<[Expected; 2]> {
    Ok([
        Expected::binary(store, Q::Q1, max_k)?,
        Expected::binary(store, Q::Q2, max_k)?,
    ])
}

impl<'f> Bench<'f> {
    /// Builds the reference answers and write paths `workload` needs.
    pub fn new(workload: Workload, fixture: &'f Fixture, max_k: usize) -> Res<Bench<'f>> {
        let binary = || binary_of(fixture);
        let bfhm = fixture.needs.bfhm;
        let kind = match workload {
            Workload::IslDeep | Workload::BfhmAuto => Kind::Queries {
                algo: if workload == Workload::IslDeep {
                    Algo::Isl
                } else {
                    Algo::Auto
                },
                expected: both_expected(&binary()?.store, max_k)?,
            },
            Workload::ServeShared => {
                let bin = binary()?;
                Kind::Serve {
                    expected: both_expected(&bin.store, max_k)?,
                    writers: [
                        bin.store.writer(&bin.ex[0], bfhm)?,
                        bin.store.writer(&bin.ex[1], bfhm)?,
                    ],
                }
            }
            Workload::MultiwayPath => {
                let mw = multiway_of(fixture)?;
                Kind::Multiway {
                    expected: Expected::multiway(&mw.store, max_k)?,
                }
            }
            Workload::UpdateStream => {
                let bin = binary()?;
                let ex = bin.ex[Q::Q2.index()].with_eager_write_back(&bin.store)?;
                Kind::Stream {
                    writer: bin.store.writer(&ex, bfhm)?,
                    ex,
                    live: LiveExpected::q2(&bin.store)?,
                }
            }
        };
        Ok(Bench {
            workload,
            fixture,
            kind,
            planned: HashSet::new(),
        })
    }

    /// Key ranges the op generator draws from.
    pub fn shape(&self) -> DataShape {
        match (&self.fixture.binary, &self.fixture.multiway) {
            (Some(b), _) => DataShape {
                parts: b.store.part_count(),
                orders: b.store.order_count(),
            },
            (None, Some(m)) => DataShape {
                parts: m.store.part_count(),
                orders: m.store.order_count(),
            },
            (None, None) => DataShape {
                parts: 1,
                orders: 1,
            },
        }
    }

    /// The cluster ledger this workload charges.
    pub fn ledger(&self) -> MetricsSnapshot {
        let store = match self.workload {
            Workload::MultiwayPath => self.fixture.multiway.as_ref().map(|m| &m.store),
            _ => self.fixture.binary.as_ref().map(|b| &b.store),
        };
        store.map(Store::ledger).unwrap_or_default()
    }

    /// Runs one trial, untraced (`tracer` = `None`) or traced.
    pub fn run(&mut self, trial: &Trial, tracer: Option<&mut Tracer>) -> Res<TrialOut> {
        let mut out = TrialOut {
            lat_ns: Vec::with_capacity(trial.ops()),
            ..TrialOut::default()
        };
        let planned = &mut self.planned;
        match (&mut self.kind, trial) {
            (Kind::Queries { algo, expected }, Trial::Queries(ops)) => {
                let bin = binary_of(self.fixture)?;
                run_queries(bin, *algo, expected, planned, ops, tracer, &mut out)
            }
            (Kind::Multiway { expected }, Trial::Multiway(ks)) => {
                let mw = multiway_of(self.fixture)?;
                run_multiway(mw, expected, planned, ks, tracer, &mut out)
            }
            (Kind::Serve { expected, writers }, Trial::Waves(waves)) => {
                let bin = binary_of(self.fixture)?;
                run_waves(bin, expected, writers, waves, tracer, &mut out)?
            }
            (Kind::Stream { ex, writer, live }, Trial::Stream(ops)) => {
                let bin = binary_of(self.fixture)?;
                run_stream(bin, ex, writer, live, ops, tracer, &mut out)
            }
            _ => return Err("trial does not belong to this workload".into()),
        }
        Ok(out)
    }
}

fn run_queries(
    bin: &BinaryFixture,
    algo: Algo,
    expected: &[Expected; 2],
    planned: &mut HashSet<(usize, usize)>,
    ops: &[QueryOp],
    mut tracer: Option<&mut Tracer>,
    out: &mut TrialOut,
) {
    let ledger = || bin.store.ledger();
    for (i, op) in ops.iter().enumerate() {
        let ex = &bin.ex[op.q.index()];
        if tracer.is_none() && algo == Algo::Auto {
            // A one-shot `Auto` plans too, and leaves the plan cached.
            planned.insert((op.q.index(), op.k));
        }
        let region = Timed::begin();
        let answer = match tracer.as_deref_mut() {
            None if op.paged => paged(ex, algo, op.k),
            None => ex.execute(algo, op.k).map(|(r, _)| r),
            Some(t) => {
                t.set_op(i as u32);
                let plan = plan_span(planned, op.q.index(), op.k);
                traced_query(t, &ledger, names::OP, plan, op.k, op.paged, ex, algo)
            }
        };
        let ok = answer
            .as_ref()
            .is_ok_and(|r| expected[op.q.index()].check(r, op.k));
        out.record(region, ok, answer.map_or(0, |r| r.len()));
    }
}

fn run_multiway(
    mw: &MultiwayFixture,
    expected: &Expected,
    planned: &mut HashSet<(usize, usize)>,
    ks: &[usize],
    mut tracer: Option<&mut Tracer>,
    out: &mut TrialOut,
) {
    let ledger = || mw.store.ledger();
    for (i, &k) in ks.iter().enumerate() {
        let region = Timed::begin();
        let answer = match tracer.as_deref_mut() {
            None => mw.ex.execute(k),
            Some(t) => {
                t.set_op(i as u32);
                // Executor slot 2: after Q1 and Q2.
                let plan = plan_span(planned, 2, k);
                let op = t.enter(names::OP, &ledger);
                let answer = t
                    .leaf(plan, &ledger, || mw.ex.plan(k))
                    .and_then(|()| t.leaf(names::CURSOR_OPEN, &ledger, || mw.ex.open(k)))
                    .and_then(|c| drain(t, &ledger, c, k));
                t.exit(op, &ledger);
                answer
            }
        };
        let ok = answer.as_ref().is_ok_and(|r| expected.check(r, k));
        out.record(region, ok, answer.map_or(0, |r| r.len()));
    }
}

fn run_waves(
    bin: &BinaryFixture,
    expected: &[Expected; 2],
    writers: &[Writer; 2],
    waves: &[Wave],
    mut tracer: Option<&mut Tracer>,
    out: &mut TrialOut,
) -> Res<()> {
    // A fresh service per trial: its session table is never reaped, so a
    // trial always starts from the same (empty) table.
    let service = Service::new(&bin.store, &bin.ex[0], &bin.ex[1], TENANTS)?;
    let ledger = || ledger_sum(bin.store.ledger(), service.usage());
    // Lineitems of orders and parts that do not exist — they join
    // nothing, so answers stay put while the statistics version (and with
    // it both of the backend's caches) moves. Lineitem is the largest
    // table: these few writes never reach the staleness bound, so no
    // index rebuild lands inside a trial. Keys lie past everything loaded
    // and past `update_stream`'s range.
    let (first_part, first_order) = (
        bin.store.part_count() + 1_000_001,
        bin.store.order_count() + 1_000_001,
    );
    let mut inserted: Vec<(Q, u64)> = Vec::new();
    let mut starts = [Instant::now(); WAVE];
    let mut ids = Vec::with_capacity(WAVE);
    for (w, wave) in waves.iter().enumerate() {
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(w as u32);
        }
        if let Some(q) = wave.write_before {
            let n = inserted.len() as u64;
            let writer = &writers[q.index()];
            let write = || writer.insert_lineitem(first_order + n, 1, first_part + n, 0.5);
            match tracer.as_deref_mut() {
                None => write(),
                Some(t) => t.leaf(names::MAINTAINED_INSERT, &ledger, write),
            }?;
            inserted.push((q, first_order + n));
        }
        let region = Timed::begin();
        let wave_span = tracer.as_deref_mut().map(|t| t.enter(names::OP, &ledger));
        ids.clear();
        for (i, s) in wave.sessions.iter().enumerate() {
            starts[i] = Instant::now();
            let page = s.paged.then_some(PAGE);
            let submit = || service.submit(s.tenant, s.q, s.k, page);
            ids.push(match tracer.as_deref_mut() {
                None => submit(),
                Some(t) => t.leaf(names::SUBMIT, &ledger, submit),
            });
        }
        match tracer.as_deref_mut() {
            None => drop(service.run_until_idle()?),
            // Same rounds as `run_until_idle`, one span each, named by
            // whether the round had to execute.
            Some(t) => loop {
                let before = service.counters().executions;
                let span = t.enter(names::ROUND_IDLE, &ledger);
                let round = service.run_round();
                let name = if service.counters().executions > before {
                    names::ROUND_EXEC
                } else {
                    names::ROUND_IDLE
                };
                t.exit_as(span, name, &ledger);
                if round?.activity == 0 || wave_settled(&service, &ids) {
                    break;
                }
            },
        }
        for (i, s) in wave.sessions.iter().enumerate() {
            let answer = match &ids[i] {
                Ok(id) => collect(&service, *id, tracer.as_deref_mut(), &ledger),
                Err(e) => Err(e.clone()),
            };
            let ok = answer
                .as_ref()
                .is_ok_and(|r| expected[s.q.index()].check(r, s.k));
            out.lat_ns.push(starts[i].elapsed().as_nanos() as u64);
            out.failed += u64::from(!ok);
            out.results += answer.map_or(0, |r| r.len()) as u64;
        }
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), wave_span) {
            t.exit(span, &ledger);
        }
        out.close(&region);
    }
    // Metering conservation, checked once the trial's sessions are all
    // terminal: billed == ledger for every tenant.
    if !service.billed_equals_ledger()? {
        out.failed += 1;
    }
    let c = service.counters();
    out.serve = Some(ServeShape {
        completed: c.completed,
        executions: c.executions,
        coalesced: c.coalesced,
        cache_hits: c.cache_hits,
        warm_starts: c.warm_starts,
        rounds: c.rounds,
    });
    out.fork_usage = service.usage();
    // Leave the tables as the trial found them.
    for (q, order) in inserted {
        writers[q.index()].delete_lineitem(order, 1)?;
    }
    Ok(())
}

fn run_stream(
    bin: &BinaryFixture,
    ex: &Binary,
    writer: &Writer,
    live: &mut LiveExpected,
    ops: &[StreamOp],
    mut tracer: Option<&mut Tracer>,
    out: &mut TrialOut,
) {
    let ledger = || bin.store.ledger();
    let collections_before = ex.stats_collections();
    for (i, op) in ops.iter().enumerate() {
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(i as u32);
        }
        let region = Timed::begin();
        let (ok, results) = match *op {
            StreamOp::Read { k } => {
                let answer = match tracer.as_deref_mut() {
                    None => ex.execute(Algo::Auto, k).map(|(r, _)| r),
                    // Writes since the last read moved the statistics
                    // version: every plan is cold.
                    Some(t) => traced_query(
                        t,
                        &ledger,
                        names::READ_AFTER_WRITE,
                        names::PLAN_COLD,
                        k,
                        false,
                        ex,
                        Algo::Auto,
                    ),
                };
                let ok = answer.as_ref().is_ok_and(|r| live.check(r, k));
                (ok, answer.map_or(0, |r| r.len()))
            }
            write => {
                let name = match write {
                    StreamOp::InsertOrder { .. } | StreamOp::InsertLineitem { .. } => {
                        names::MAINTAINED_INSERT
                    }
                    _ => names::MAINTAINED_DELETE,
                };
                let wrote = match tracer.as_deref_mut() {
                    None => apply_write(writer, write),
                    Some(t) => t.leaf(name, &ledger, || apply_write(writer, write)),
                };
                (wrote.is_ok(), 0)
            }
        };
        out.record(region, ok, results);
        // Refresh the expectation from the write just applied — outside
        // the op's timed region.
        match *op {
            StreamOp::InsertOrder { key, score_bits } => {
                live.insert_order(rowkey::order(key), f64::from_bits(score_bits))
            }
            StreamOp::InsertLineitem {
                order,
                line,
                score_bits,
                ..
            } => live.insert_lineitem(
                rowkey::lineitem(order, line),
                rowkey::order(order),
                f64::from_bits(score_bits),
            ),
            StreamOp::DeleteOrder { key } => live.delete_order(&rowkey::order(key)),
            StreamOp::DeleteLineitem { order, line } => {
                live.delete_lineitem(&rowkey::lineitem(order, line), &rowkey::order(order))
            }
            StreamOp::Read { .. } => {}
        }
    }
    out.recollects = ex.stats_collections() - collections_before;
}

/// Whether every session of the wave has left the queue.
fn wave_settled(service: &Service, ids: &[Res<Session>]) -> bool {
    ids.iter().all(|id| match id {
        Ok(id) => !matches!(service.poll(*id), Ok(Status::Pending)),
        Err(_) => true,
    })
}

/// Polls a session to its answer, following `next_page` to the end.
fn collect(
    service: &Service,
    id: Session,
    mut tracer: Option<&mut Tracer>,
    ledger: Ledger,
) -> Res<std::sync::Arc<Vec<JoinTuple>>> {
    let mut status = match tracer.as_deref_mut() {
        None => service.poll(id),
        Some(t) => t.leaf(names::POLL, ledger, || service.poll(id)),
    }?;
    loop {
        match status {
            Status::Done {
                results,
                complete: true,
            } => return Ok(results),
            Status::Done { .. } => return Err("session did not complete".into()),
            Status::Pending => return Err("session still pending after its wave".into()),
            Status::Paged { token } => {
                status = match tracer.as_deref_mut() {
                    None => service.next_page(token),
                    Some(t) => t.leaf(names::NEXT_PAGE, ledger, || service.next_page(token)),
                }?;
            }
        }
    }
}

/// Names a planner span: cold the first time `(executor, k)` is planned
/// (no statistics change follows in the workloads that use this), cached
/// afterwards.
fn plan_span(planned: &mut HashSet<(usize, usize)>, executor: usize, k: usize) -> &'static str {
    if planned.insert((executor, k)) {
        names::PLAN_COLD
    } else {
        names::PLAN_CACHED
    }
}

/// Applies one write op of the update stream.
fn apply_write(writer: &Writer, op: StreamOp) -> Res<()> {
    match op {
        StreamOp::InsertOrder { key, score_bits } => {
            writer.insert_left(key, f64::from_bits(score_bits))
        }
        StreamOp::InsertLineitem {
            order,
            line,
            part,
            score_bits,
        } => writer.insert_lineitem(order, line, part, f64::from_bits(score_bits)),
        StreamOp::DeleteOrder { key } => writer.delete_left(key),
        StreamOp::DeleteLineitem { order, line } => writer.delete_lineitem(order, line),
        StreamOp::Read { .. } => Err("a read is not a write".into()),
    }
}

/// The start of a timed region.
struct Timed {
    start: Instant,
    alloc: AllocSnapshot,
}

impl Timed {
    fn begin() -> Timed {
        Timed {
            alloc: alloc::snapshot(),
            start: Instant::now(),
        }
    }
}

impl TrialOut {
    /// Closes a timed region without recording a latency.
    fn close(&mut self, region: &Timed) -> u64 {
        let ns = region.start.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot().since(&region.alloc);
        self.busy_ns += ns;
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        ns
    }

    /// Closes the timed region of one op and records its outcome.
    fn record(&mut self, region: Timed, ok: bool, results: usize) {
        let ns = self.close(&region);
        self.lat_ns.push(ns);
        self.failed += u64::from(!ok);
        self.results += results as u64;
    }
}

/// Pages a query through a cursor: `next_batch(PAGE)` → `pause` →
/// `resume_cursor`, until `k` results or the cursor drains.
fn paged(ex: &Binary, algo: Algo, k: usize) -> Res<Vec<JoinTuple>> {
    let mut cursor = ex.open(algo, k)?;
    let mut got = Vec::with_capacity(k);
    loop {
        let page = cursor.pull(PAGE.min(k - got.len()))?;
        got.extend(page.results);
        if page.done || got.len() >= k {
            return Ok(got);
        }
        cursor = ex.resume(cursor.pause())?;
    }
}

/// Pulls an open cursor to `k` results (or until it drains), one span
/// per pull.
fn drain(t: &mut Tracer, ledger: Ledger, mut cursor: Cursor, k: usize) -> Res<Vec<JoinTuple>> {
    let mut got = Vec::with_capacity(k);
    loop {
        let page = t.leaf(names::CURSOR_PULL, ledger, || cursor.pull(k - got.len()))?;
        got.extend(page.results);
        if page.done || got.len() >= k {
            return Ok(got);
        }
    }
}

/// One binary query as plan → open → pull (→ pause → resume → pull …),
/// every call its own span under an `op_name` parent.
#[allow(clippy::too_many_arguments)]
fn traced_query(
    t: &mut Tracer,
    ledger: Ledger,
    op_name: &'static str,
    plan_name: &'static str,
    k: usize,
    paged: bool,
    ex: &Binary,
    algo: Algo,
) -> Res<Vec<JoinTuple>> {
    let op = t.enter(op_name, ledger);
    let answer = (|| {
        t.leaf(plan_name, ledger, || ex.plan(k))?;
        let mut cursor = t.leaf(names::CURSOR_OPEN, ledger, || ex.open(algo, k))?;
        if !paged {
            return drain(t, ledger, cursor, k);
        }
        let mut got = Vec::with_capacity(k);
        loop {
            let n = PAGE.min(k - got.len());
            let page = t.leaf(names::CURSOR_PULL, ledger, || cursor.pull(n))?;
            got.extend(page.results);
            if page.done || got.len() >= k {
                return Ok(got);
            }
            let paused = t.leaf(names::CURSOR_PAUSE, ledger, || cursor.pause());
            cursor = t.leaf(names::CURSOR_RESUME, ledger, || ex.resume(paused))?;
        }
    })();
    t.exit(op, ledger);
    answer
}
