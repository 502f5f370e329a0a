//! The rankjoin benchmark.
//!
//! ```text
//! rj_benchmark run [--workload NAME] --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! rj_benchmark compare BASE.json NEW.json
//! ```
//!
//! `run` builds the data, runs one workload (all five, one after the
//! other, when `--workload` is left out) from one driver thread, checks
//! every answer, prints every metric by name with its unit, and ends
//! with one JSON line. `compare` applies the bounds to two `--out` files
//! and exits non-zero on any regression. README.md has the tables.

mod alloc;
mod compare;
mod json;
mod metrics;
mod ops;
mod probes;
mod reference;
mod rng;
mod run;
mod seam;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use ops::Workload;
use run::{Report, RunArgs};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  rj_benchmark run [--workload NAME] --seed N [--seconds S] [--trace 0|1] [--out FILE]
  rj_benchmark compare BASE.json NEW.json
workloads: isl_deep bfhm_auto multiway_path serve_shared update_stream";

/// `--seconds` when the caller names none (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 18.0;

fn parse_run(args: &[String]) -> Result<(Option<Workload>, RunArgs), String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: Workload::IslDeep,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, parsed))
}

/// Replaces this (workload, trace) entry in the result file, keeping the
/// others, so five runs build one comparable file.
fn merge_into(path: &Path, report: &Report) -> Result<(), String> {
    let mut runs: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .map(|r| r.elements().to_vec())
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let entry = report.to_json();
    let same = |v: &Value| {
        v.get("workload") == entry.get("workload") && v.get("trace") == entry.get("trace")
    };
    match runs.iter_mut().find(|v| same(v)) {
        Some(slot) => *slot = entry,
        None => runs.push(entry),
    }
    let text = Value::obj([("runs", Value::Arr(runs))]).render_pretty();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs and reports. A run that completes exits 0 whatever it found:
/// wrong answers are reported through `correct` and `failed` in the
/// result line, which is where the driver looks.
fn run_command(args: &[String]) -> Result<bool, String> {
    let (workload, parsed) = parse_run(args)?;
    let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for workload in workloads {
        let args = RunArgs {
            workload,
            ..parsed.clone()
        };
        let report = run::run(&args).map_err(|e| format!("{}: {e}", workload.name()))?;
        print!("{}", report.render_table());
        // The driver reads the last line of standard output.
        println!("{}", report.driver_line());
        if let Some(path) = &args.out {
            merge_into(path, &report)?;
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, [base, new])) if cmd == "compare" => compare::load(base).and_then(|a| {
            let b = compare::load(new)?;
            let (text, pass) = compare::compare(&a, &b);
            print!("{text}");
            Ok(pass)
        }),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::run::Metric;

    fn report(trace: bool) -> Report {
        let metrics = if trace {
            PER_LAYER
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 1.5,
                    per_trial: Vec::new(),
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 1203.4,
                    per_trial: vec![1200.0, 1203.4, 1210.0],
                })
                .collect()
        };
        Report {
            args: RunArgs {
                workload: Workload::BfhmAuto,
                seed: 7,
                seconds: 1.0,
                trace,
                out: None,
            },
            fingerprint: 0xfeed,
            ops_per_trial: 10,
            trials: 3,
            attempted: 40,
            failed: 0,
            metrics,
            diagnostics: vec![("measured_ops".into(), 30.0)],
        }
    }

    #[test]
    fn driver_line_parses_and_carries_every_metric() {
        for trace in [false, true] {
            let line = report(trace).driver_line();
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap();
            let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            let names: Vec<&str> = v
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                let gated = END_TO_END.iter().filter(|m| m.gated);
                gated.map(|m| m.name).collect()
            };
            assert_eq!(names, want);
            for (_, m) in v.get("metrics").unwrap().members() {
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert!(m.get("unit").unwrap().as_str().is_some());
            }
        }
    }

    #[test]
    fn result_file_merges_by_workload_and_trace() {
        // Inside the package's ignored `out/`, never outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        merge_into(&path, &report(false)).unwrap();
        merge_into(&path, &report(true)).unwrap();
        merge_into(&path, &report(false)).unwrap();
        let v = compare::load(path.to_str().unwrap()).unwrap();
        assert_eq!(v.get("runs").unwrap().elements().len(), 2);
        let (text, pass) = compare::compare(&v, &v);
        assert!(pass, "{text}");
        for w in ["error_rate", "ops_per_s", "setup_s"] {
            assert!(text.contains(w), "{text}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn argument_errors_are_reported() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        let (w, a) = parse_run(&args(
            "--workload serve_shared --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, Some(Workload::ServeShared));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
    }
}
