//! One benchmark run: set-up, warm-up, measured trials, and — with
//! `--trace 1` — the traced trials, the layer tour and the probes.
//!
//! Protocol (README.md has the reasoning): the trial is a fixed,
//! seed-generated op sequence; one warm-up trial is discarded; measured
//! trials repeat until `--seconds` is up; a host-time metric is the
//! median over trials of the per-trial statistic, with the trial spread
//! `(max − min) / median` beside it; counters come from a fixed window
//! of the first measured trials, so they repeat exactly for a seed no
//! matter how many trials the clock allowed.

use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::json::Value;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::ops::{self, Trial, Workload};
use crate::probes;
use crate::seam::{self, ledger_sum, MetricsSnapshot, Res};
use crate::stats;
use crate::trace::{self, names, Span, Tracer};
use crate::workloads::{self, Bench, Needs, SetupTimes, TrialOut};

/// Set-up passes of an untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Measured trials the counters (allocations, ledger, peak heap) are
/// taken from. Every run measures at least this many.
const COUNT_TRIALS: usize = 3;
/// Untraced/traced trial pairs the traced pass's counters are taken from.
const COUNT_PAIRS: usize = 2;
/// Seconds of a traced run's `--seconds` reserved for the layer tour and
/// the probes.
const TOUR_AND_PROBE_SECONDS: f64 = 4.0;
/// Ops of each *other* workload the layer tour runs, so every span-derived
/// metric is a real measurement on every traced run.
const TOUR_OPS: [(Workload, usize); 5] = [
    (Workload::IslDeep, 12),
    (Workload::BfhmAuto, 60),
    (Workload::MultiwayPath, 9),
    (Workload::ServeShared, 480),
    (Workload::UpdateStream, 260),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Result file to merge this run into.
    pub out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from `metrics::END_TO_END` / `metrics::PER_LAYER`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// The per-trial values a host-time metric is the median of (empty
    /// for counters).
    pub per_trial: Vec<f64>,
}

impl Metric {
    /// `(max − min) / median` over trials, for host-time metrics.
    pub fn spread(&self) -> Option<f64> {
        (!self.per_trial.is_empty()).then(|| stats::spread(&self.per_trial))
    }
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// The arguments.
    pub args: RunArgs,
    /// Fingerprint of the trial's op sequence.
    pub fingerprint: u64,
    /// Ops per trial.
    pub ops_per_trial: usize,
    /// Measured trials.
    pub trials: usize,
    /// Ops attempted, warm-up and traced trials included.
    pub attempted: u64,
    /// Ops that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The metrics the driver asked for.
    pub metrics: Vec<Metric>,
    /// Printed beside them; not part of the contract.
    pub diagnostics: Vec<(String, f64)>,
}

impl Report {
    /// No op failed and every cross-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: the metrics `BENCHMARK.json` lists.
    pub fn driver_line(&self) -> String {
        let listed = |m: &&Metric| metrics::end_to_end(m.name).is_none_or(|e| e.gated);
        let metrics = self.metrics.iter().filter(listed).map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.to_owned())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    /// The result-file entry.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.to_owned())),
            ];
            if let Some(s) = m.spread() {
                fields.push(("trial_spread", Value::Num(s)));
                let trials = m.per_trial.iter().map(|v| Value::Num(*v)).collect();
                fields.push(("trials", Value::Arr(trials)));
            }
            (m.name, Value::obj(fields))
        });
        Value::obj([
            ("workload", Value::Str(self.args.workload.name().into())),
            ("trace", Value::Bool(self.args.trace)),
            ("seed", Value::Num(self.args.seed as f64)),
            ("seconds", Value::Num(self.args.seconds)),
            (
                "op_sequence_fingerprint",
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("ops_per_trial", Value::Num(self.ops_per_trial as f64)),
            ("trials", Value::Num(self.trials as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("error_rate", Value::Num(self.error_rate())),
            ("nproc", Value::Num(nproc() as f64)),
            ("pool_threads", Value::Num(seam::pool_threads() as f64)),
            ("metrics", Value::obj(metrics)),
            (
                "diagnostics",
                Value::obj(
                    self.diagnostics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                ),
            ),
        ])
    }

    /// Every metric by name, with its unit — for people.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} seed={} trace={} | {} trials x {} ops | nproc={} pool_threads={} | ops {:016x}",
            self.args.workload.name(),
            self.args.seed,
            u8::from(self.args.trace),
            self.trials,
            self.ops_per_trial,
            nproc(),
            seam::pool_threads(),
            self.fingerprint,
        );
        for m in &self.metrics {
            let spread = m
                .spread()
                .map(|s| format!("   trial spread {:.1}%", s * 100.0))
                .unwrap_or_default();
            let note = match metrics::end_to_end(m.name) {
                Some(e) if !e.gated => "   (diagnostic: not gated)",
                _ => "",
            };
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {}{spread}{note}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} ratio   ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (k, v) in &self.diagnostics {
            let _ = writeln!(out, "  ~ {k:<30} {v:>16.4}");
        }
        out
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured trial with the simulated cost it charged.
struct Measured {
    out: TrialOut,
    ledger: MetricsSnapshot,
    ops: usize,
}

impl Measured {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.out.busy_ns as f64 / 1e9)
    }

    fn percentile_us(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.out.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::sort(&mut lat);
        stats::percentile(&lat, p)
    }
}

fn measure(bench: &mut Bench, trial: &Trial, tracer: Option<&mut Tracer>) -> Res<Measured> {
    let before = bench.ledger();
    let out = bench.run(trial, tracer)?;
    let ledger = ledger_sum(bench.ledger().delta_since(&before), out.fork_usage);
    Ok(Measured {
        out,
        ledger,
        ops: trial.ops(),
    })
}

/// Stops the trial loop once another trial would overrun the time box.
struct TimeBox {
    start: Instant,
    seconds: f64,
    done: usize,
}

impl TimeBox {
    fn new(seconds: f64) -> TimeBox {
        TimeBox {
            start: Instant::now(),
            seconds,
            done: 0,
        }
    }

    fn another(&mut self, at_least: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let mean = elapsed / self.done.max(1) as f64;
        let go = self.done < at_least || elapsed + mean <= self.seconds;
        self.done += 1;
        go
    }
}

/// Sums over the counting window.
struct Window {
    ops: f64,
    allocs: f64,
    alloc_bytes: f64,
    results: f64,
    ledger: MetricsSnapshot,
}

fn window(trials: &[Measured]) -> Window {
    let mut w = Window {
        ops: 0.0,
        allocs: 0.0,
        alloc_bytes: 0.0,
        results: 0.0,
        ledger: MetricsSnapshot::default(),
    };
    for t in trials {
        w.ops += t.ops as f64;
        w.allocs += t.out.allocs as f64;
        w.alloc_bytes += t.out.alloc_bytes as f64;
        w.results += t.out.results as f64;
        w.ledger = ledger_sum(w.ledger, t.ledger);
    }
    w
}

/// Runs one workload as `args` says.
pub fn run(args: &RunArgs) -> Res<Report> {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &RunArgs) -> Res<Report> {
    let needs = Needs::of(args.workload);
    let mut passes = Vec::with_capacity(SETUP_PASSES);
    let mut fixture = None;
    for _ in 0..SETUP_PASSES {
        // One fixture alive at a time.
        drop(fixture.take());
        let (f, times) = workloads::setup(needs)?;
        fixture = Some(f);
        passes.push(times);
    }
    let fixture = fixture.ok_or("no set-up pass ran")?;
    let reference_start = Instant::now();
    let mut bench = Bench::new(args.workload, &fixture, ops::max_k(args.workload))?;
    let reference_s = reference_start.elapsed().as_secs_f64();
    let trial = ops::generate(args.workload, args.seed, bench.shape());

    let warm = measure(&mut bench, &trial, None)?;
    let (mut attempted, mut failed) = (warm.ops as u64, warm.out.failed);

    let mut trials: Vec<Measured> = Vec::new();
    let mut peak_live = 0;
    let mut time_box = TimeBox::new(args.seconds);
    alloc::reset_peak();
    while time_box.another(COUNT_TRIALS) {
        let m = measure(&mut bench, &trial, None)?;
        attempted += m.ops as u64;
        failed += m.out.failed;
        trials.push(m);
        if trials.len() == COUNT_TRIALS {
            peak_live = alloc::peak_live();
        }
    }

    let per_trial = |f: &dyn Fn(&Measured) -> f64| -> Vec<f64> { trials.iter().map(f).collect() };
    let ops_per_s = per_trial(&Measured::ops_per_s);
    let p50 = per_trial(&|m| m.percentile_us(50.0));
    let p99 = per_trial(&|m| m.percentile_us(99.0));
    let w = window(&trials[..COUNT_TRIALS]);
    let setup: Vec<f64> = passes.iter().map(SetupTimes::total).collect();

    let value_of = |name: &str| -> (f64, Vec<f64>) {
        let timed = |v: &[f64]| (stats::median(v), v.to_vec());
        match name {
            "ops_per_s" => timed(&ops_per_s),
            "lat_p50_us" => timed(&p50),
            "lat_p99_us" => timed(&p99),
            "allocs_per_op" => (w.allocs / w.ops, Vec::new()),
            "alloc_bytes_per_op" => (w.alloc_bytes / w.ops, Vec::new()),
            "peak_live_mb" => (peak_live as f64 / 1e6, Vec::new()),
            "sim_ms_per_op" => (w.ledger.sim_seconds * 1e3 / w.ops, Vec::new()),
            "kv_reads_per_op" => (w.ledger.kv_reads as f64 / w.ops, Vec::new()),
            "net_bytes_per_op" => (w.ledger.network_bytes as f64 / w.ops, Vec::new()),
            "setup_s" => timed(&setup),
            other => unreachable!("no such end-to-end metric: {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, per_trial) = value_of(m.name);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                per_trial,
            }
        })
        .collect();
    let pass_median =
        |f: &dyn Fn(&SetupTimes) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let diagnostics = vec![
        (
            "measured_ops".to_owned(),
            (trials.len() * trial.ops()) as f64,
        ),
        ("reference_build_s".to_owned(), reference_s),
        ("setup.load_s".to_owned(), pass_median(&|t| t.load_s)),
        (
            "setup.prepare_isl_s".to_owned(),
            pass_median(&|t| t.prepare_isl_s),
        ),
        (
            "setup.prepare_bfhm_s".to_owned(),
            pass_median(&|t| t.prepare_bfhm_s),
        ),
        (
            "setup.prepare_multiway_s".to_owned(),
            pass_median(&|t| t.prepare_multiway_s),
        ),
        (
            "kv_writes_per_op".to_owned(),
            w.ledger.kv_writes as f64 / w.ops,
        ),
        ("results_per_op".to_owned(), w.results / w.ops),
    ];
    Ok(Report {
        args: args.clone(),
        fingerprint: trial.fingerprint(),
        ops_per_trial: trial.ops(),
        trials: trials.len(),
        attempted,
        failed,
        metrics,
        diagnostics,
    })
}

/// Median duration and median allocation count of the spans named `name`.
fn span_medians(tracers: &[Tracer], name: &str) -> Option<(f64, f64)> {
    let picked: Vec<&Span> = tracers
        .iter()
        .flat_map(Tracer::spans)
        .filter(|s| s.name == name)
        .collect();
    if picked.is_empty() {
        return None;
    }
    let ns: Vec<f64> = picked.iter().map(|s| s.nanos() as f64).collect();
    let allocs: Vec<f64> = picked.iter().map(|s| s.allocs() as f64).collect();
    Some((stats::median(&ns), stats::median(&allocs)))
}

/// Median round time in the last tenth of a serving trial over the first
/// tenth: how much the never-reaped session table slows a round down.
fn round_growth(spans: &[Span]) -> Option<f64> {
    let rounds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == names::ROUND_IDLE)
        .map(|s| s.nanos() as f64)
        .collect();
    let tenth = rounds.len() / 10;
    if tenth == 0 {
        return None;
    }
    let first = stats::median(&rounds[..tenth]);
    let last = stats::median(&rounds[rounds.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

fn run_traced(args: &RunArgs) -> Res<Report> {
    let (fixture, setup) = workloads::setup(Needs::ALL)?;
    let mut bench = Bench::new(args.workload, &fixture, ops::max_k(args.workload))?;
    let trial = ops::generate(args.workload, args.seed, bench.shape());

    let warm = measure(&mut bench, &trial, None)?;
    let (mut attempted, mut failed) = (warm.ops as u64, warm.out.failed);

    // Untraced and traced trials alternate, so both see the same machine.
    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    let mut own: Vec<Tracer> = Vec::new();
    let mut time_box = TimeBox::new((args.seconds - TOUR_AND_PROBE_SECONDS).max(1.0));
    while time_box.another(COUNT_PAIRS) {
        let u = measure(&mut bench, &trial, None)?;
        let mut tracer = Tracer::new();
        let t = measure(&mut bench, &trial, Some(&mut tracer))?;
        attempted += (u.ops + t.ops) as u64;
        failed += u.out.failed + t.out.failed;
        own.push(tracer);
        plain.push(u);
        traced.push(t);
    }
    // Plan → open → pull is the same engine as the one-shot call, so a
    // traced trial must charge the reads an untraced one would have in
    // its place. Where trials leave nothing behind that is the reads of
    // its untraced neighbours. `update_stream` does leave something — the
    // store never drops a tombstoned qualifier, so every BFHM update
    // record ever written is re-scanned (and billed) by each later read
    // of its bucket, and a trial costs a fixed number of reads more than
    // the one before it — hence: exactly midway between its neighbours.
    let closing = measure(&mut bench, &trial, None)?;
    attempted += closing.ops as u64;
    failed += closing.out.failed;
    for (i, t) in traced.iter().enumerate() {
        let before = plain[i].ledger.kv_reads;
        let after = plain.get(i + 1).unwrap_or(&closing).ledger.kv_reads;
        if 2 * t.ledger.kv_reads != before + after {
            eprintln!(
                "traced trial {i} charged {} kv_reads, its untraced neighbours {before} and {after}",
                t.ledger.kv_reads
            );
            failed += 1;
        }
    }
    drop(bench);

    // The layer tour: a few traced ops of every other workload on the
    // same fixture, so that spans this workload never produces are still
    // measured rather than reported as nothing.
    let mut tour: Vec<Tracer> = Vec::new();
    let mut tour_serve = None;
    for (w, n) in TOUR_OPS {
        if w == args.workload {
            continue;
        }
        let mut other = Bench::new(w, &fixture, ops::max_k(w))?;
        let prefix = ops::generate(w, args.seed, other.shape()).prefix(n);
        let warm = measure(&mut other, &prefix, None)?;
        let mut tracer = Tracer::new();
        let t = measure(&mut other, &prefix, Some(&mut tracer))?;
        attempted += (warm.ops + t.ops) as u64;
        failed += warm.out.failed + t.out.failed;
        tour.push(tracer);
        tour_serve = tour_serve.or(t.out.serve);
    }

    let bin = fixture
        .binary
        .as_ref()
        .ok_or("no binary fixture to probe")?;
    let costs = probes::run(bin)?;

    // The first traced trial is the one written out.
    write_trace(args, own[0].spans())?;

    let w = window(&plain[..COUNT_PAIRS]);
    let median_of = |v: &[Measured], f: &dyn Fn(&Measured) -> f64| {
        stats::median(&v.iter().map(f).collect::<Vec<_>>())
    };
    let plain_ops_per_s = median_of(&plain, &Measured::ops_per_s);
    let traced_ops_per_s = median_of(&traced, &Measured::ops_per_s);
    let op_ms = 1e3 / plain_ops_per_s;
    // Reads × the matching unit cost: which access path the workload's
    // reads take decides which probe prices them.
    let read_ns_per_kv = match args.workload {
        Workload::BfhmAuto | Workload::UpdateStream => costs.get_ns_per_kv,
        _ => costs.scan_ns_per_kv,
    };
    let kv_reads_per_op = w.ledger.kv_reads as f64 / w.ops;
    let kv_writes_per_op = w.ledger.kv_writes as f64 / w.ops;
    let est_ms = (kv_reads_per_op * read_ns_per_kv + kv_writes_per_op * costs.put_ns_per_kv) / 1e6;
    // Not a serving workload: the tour's serving trial stands in.
    let serve = plain[0].out.serve.or(tour_serve).unwrap_or_default();
    let per_session = |n: u64| n as f64 / serve.completed.max(1) as f64;
    let all_plain_ops: f64 = plain.iter().map(|m| m.ops as f64).sum();
    let recollects: f64 = plain.iter().map(|m| m.out.recollects as f64).sum();

    // A span metric comes from this workload's own traced trials when it
    // produces such spans, from the tour otherwise.
    let span = |name: &str| -> (f64, f64) {
        span_medians(&own, name)
            .or_else(|| span_medians(&tour, name))
            .unwrap_or((0.0, 0.0))
    };
    let value_of = |name: &str| -> f64 {
        let (stem, allocs) = match name.strip_suffix(".allocs") {
            Some(stem) => (stem, true),
            None => (name, false),
        };
        let spanned = |span_name: &str, per: f64| {
            let (ns, n) = span(span_name);
            if allocs {
                n
            } else {
                ns / per
            }
        };
        match stem {
            "store.scan_ns_per_row" => costs.scan_ns_per_row,
            "store.get_ns" => costs.get_ns,
            "store.put_ns" => costs.put_ns,
            "store.pool_batch_us" => costs.pool_batch_us,
            "store.kv_reads_per_op" => kv_reads_per_op,
            "store.rpc_calls_per_op" => w.ledger.rpc_calls as f64 / w.ops,
            "store.kv_writes_per_op" => kv_writes_per_op,
            "store.est_ms_per_op" => est_ms,
            "sketch.blob_decode_us" => costs.blob_decode_us,
            "sketch.filter_intersect_us" => costs.filter_intersect_us,
            "sketch.flatmap_push_ns" => costs.flatmap_push_ns,
            "sketch.flatmap_get_ns" => costs.flatmap_get_ns,
            "core.plan_cold_us" => spanned(names::PLAN_COLD, 1e3),
            "core.plan_cached_ns" => spanned(names::PLAN_CACHED, 1.0),
            "core.cursor_open_us" => spanned(names::CURSOR_OPEN, 1e3),
            "core.cursor_pull_ms" => spanned(names::CURSOR_PULL, 1e6),
            "core.cursor_pause_us" => spanned(names::CURSOR_PAUSE, 1e3),
            "core.cursor_resume_us" => spanned(names::CURSOR_RESUME, 1e3),
            "core.maintained_insert_us" => spanned(names::MAINTAINED_INSERT, 1e3),
            "core.maintained_delete_us" => spanned(names::MAINTAINED_DELETE, 1e3),
            "core.read_after_write_ms" => spanned(names::READ_AFTER_WRITE, 1e6),
            "core.self_ms_per_op" => op_ms - est_ms,
            "core.rows_per_result" => w.ledger.kv_reads as f64 / w.results.max(1.0),
            "core.topk_offer_ns" => costs.topk_offer_ns,
            "core.recollects_per_kop" => recollects * 1e3 / all_plain_ops,
            "serve.submit_us" => spanned(names::SUBMIT, 1e3),
            "serve.poll_us" => spanned(names::POLL, 1e3),
            "serve.next_page_us" => spanned(names::NEXT_PAGE, 1e3),
            "serve.round_idle_us" => spanned(names::ROUND_IDLE, 1e3),
            "serve.round_exec_us" => spanned(names::ROUND_EXEC, 1e3),
            "serve.round_growth" => {
                let of = |t: &[Tracer]| -> Vec<f64> {
                    t.iter().filter_map(|t| round_growth(t.spans())).collect()
                };
                let mut growth = of(&own);
                if growth.is_empty() {
                    growth = of(&tour);
                }
                stats::median(&growth)
            }
            "serve.share_hit_ratio" => per_session(serve.cache_hits + serve.coalesced),
            "serve.executions_per_session" => per_session(serve.executions),
            "serve.warm_start_ratio" => serve.warm_starts as f64 / serve.executions.max(1) as f64,
            "serve.rounds_per_session" => per_session(serve.rounds),
            "setup.load_s" => setup.load_s,
            "setup.prepare_isl_s" => setup.prepare_isl_s,
            "setup.prepare_bfhm_s" => setup.prepare_bfhm_s,
            "setup.prepare_multiway_s" => setup.prepare_multiway_s,
            "trace.overhead_ratio" => traced_ops_per_s / plain_ops_per_s,
            other => unreachable!("no such per-layer metric: {other}"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value_of(m.name),
            per_trial: Vec::new(),
        })
        .collect();

    // Where the op time went: self time of every span name over this
    // workload's traced trials, per op, plus what no span covers.
    let mut diagnostics = vec![
        ("op_ms.untraced".to_owned(), op_ms),
        ("op_ms.traced".to_owned(), 1e3 / traced_ops_per_s),
    ];
    let traced_ops: f64 = traced.iter().map(|m| m.ops as f64).sum();
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for tracer in &own {
        // Parent indices are per tracer, so are self times.
        let self_ns = trace::self_nanos(tracer.spans());
        for (s, ns) in tracer.spans().iter().zip(self_ns) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += ns as f64,
                None => by_name.push((s.name, ns as f64)),
            }
        }
    }
    let mut covered = 0.0;
    for (name, total) in &by_name {
        let ms = total / traced_ops / 1e6;
        covered += ms;
        diagnostics.push((format!("self_ms_per_op.{name}"), ms));
    }
    let traced_busy_ms: f64 = traced.iter().map(|m| m.out.busy_ns as f64 / 1e6).sum();
    diagnostics.push((
        "self_ms_per_op.residual".to_owned(),
        traced_busy_ms / traced_ops - covered,
    ));
    let spans: usize = own.iter().map(|t| t.spans().len()).sum();
    diagnostics.push(("spans_recorded".to_owned(), spans as f64));

    Ok(Report {
        args: args.clone(),
        fingerprint: trial.fingerprint(),
        ops_per_trial: trial.ops(),
        trials: plain.len(),
        attempted,
        failed,
        metrics,
        diagnostics,
    })
}

fn write_trace(args: &RunArgs, spans: &[Span]) -> Res<()> {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    let text = trace::to_json(args.workload.name(), args.seed, spans).render();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
