//! `compare A.json B.json`: the value gate. Applies the end-to-end bounds
//! per (workload, metric) to two result files written by `run --out`.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// What a (workload, metric) pair shows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Within,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either side's own trial spread exceeds the bound: the runs cannot
    /// resolve a change of that size, so none is claimed or denied.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Its spread over the run's trials, when it is a host-time metric.
    pub trial_spread: Option<f64>,
}

/// By what share of the base `new` is *worse* (negative: better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let change = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if change == 0.0 {
        0.0
    } else if base == 0.0 {
        change.signum() * f64::INFINITY
    } else {
        change / base.abs()
    }
}

/// Judges `new` against `base`. Counts the program makes repeat exactly
/// for a seed, so between two same-seed runs any difference in them is a
/// change; everything else gets the metric's bound.
pub fn judge(metric: &EndToEnd, base: Reading, new: Reading, same_seed: bool) -> Verdict {
    let spread = base
        .trial_spread
        .unwrap_or(0.0)
        .max(new.trial_spread.unwrap_or(0.0));
    if spread > metric.bound {
        return Verdict::Unresolved;
    }
    let bound = if same_seed && metric.exact_for_seed {
        0.0
    } else {
        metric.bound
    };
    let worse = worse_by(metric.better, base.value, new.value);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn runs(file: &Value) -> Vec<&Value> {
    file.get("runs")
        .map(|r| r.elements().iter().collect())
        .unwrap_or_default()
}

fn reading(run: &Value, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        trial_spread: m.get("trial_spread").and_then(Value::as_f64),
    })
}

/// The comparison as text, and whether it passes (no regression, no
/// `error_rate` increase, at least one workload in common).
pub fn compare(base: &Value, new: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let mut compared = 0;
    let end_to_end = |v: &&Value| v.get("trace") == Some(&Value::Bool(false));
    for a in runs(base).into_iter().filter(end_to_end) {
        let name = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(b) = runs(new)
            .into_iter()
            .filter(end_to_end)
            .find(|b| b.get("workload") == a.get("workload"))
        else {
            let _ = writeln!(out, "{name}: only in the base file");
            continue;
        };
        compared += 1;
        let same_seed = a.get("seed") == b.get("seed")
            && a.get("op_sequence_fingerprint") == b.get("op_sequence_fingerprint");
        let _ = writeln!(
            out,
            "{name} ({})",
            if same_seed {
                "same seed and op sequence: counts must repeat exactly"
            } else {
                "different seeds: every metric gets its bound"
            }
        );
        for metric in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(a, metric.name), reading(b, metric.name)) else {
                let _ = writeln!(out, "  {:<20} missing on one side", metric.name);
                pass = false;
                continue;
            };
            let verdict = judge(metric, ra, rb, same_seed);
            pass &= verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<20} {:>14.4} / {:>14.4} {:<7} = {:>7.4}x of base  {:<10} (bound {}%, {} is better)",
                metric.name,
                rb.value,
                ra.value,
                metric.unit,
                rb.value / ra.value,
                verdict.name(),
                metric.bound * 100.0,
                metric.better.name(),
            );
        }
        let rate = |v: &Value| v.get("error_rate").and_then(Value::as_f64).unwrap_or(1.0);
        let (ea, eb) = (rate(a), rate(b));
        let verdict = if eb > ea { "regressed" } else { "within" };
        pass &= eb <= ea;
        let _ = writeln!(
            out,
            "  {:<20} {eb:>14.6} / {ea:>14.6} ratio              {verdict:<10} (any increase regresses)",
            "error_rate"
        );
    }
    if compared == 0 {
        let _ = writeln!(out, "no workload with end-to-end results in both files");
        pass = false;
    }
    (out, pass)
}

/// Loads a result file.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn r(value: f64, spread: Option<f64>) -> Reading {
        Reading {
            value,
            trial_spread: spread,
        }
    }

    #[test]
    fn verdicts_on_hand_made_readings() {
        let ops = end_to_end("ops_per_s").unwrap(); // higher is better, 10 %
        let calm = Some(0.02);
        assert_eq!(
            judge(ops, r(100.0, calm), r(105.0, calm), false),
            Verdict::Within
        );
        assert_eq!(
            judge(ops, r(100.0, calm), r(89.0, calm), false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(ops, r(100.0, calm), r(111.0, calm), false),
            Verdict::Improved
        );
        assert_eq!(
            judge(ops, r(100.0, Some(0.3)), r(50.0, calm), false),
            Verdict::Unresolved,
            "a run noisier than the bound resolves nothing"
        );
        let p50 = end_to_end("lat_p50_us").unwrap(); // lower is better, 10 %
        assert_eq!(
            judge(p50, r(10.0, calm), r(11.5, calm), true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, r(10.0, calm), r(8.0, calm), true),
            Verdict::Improved
        );
        let reads = end_to_end("kv_reads_per_op").unwrap(); // a count
        assert_eq!(
            judge(reads, r(500.0, None), r(500.0, None), true),
            Verdict::Within
        );
        assert_eq!(
            judge(reads, r(500.0, None), r(500.5, None), true),
            Verdict::Regressed,
            "same seed: counts repeat exactly, any increase is real"
        );
        assert_eq!(
            judge(reads, r(500.0, None), r(499.0, None), true),
            Verdict::Improved
        );
        assert_eq!(
            judge(reads, r(500.0, None), r(500.5, None), false),
            Verdict::Within,
            "different seeds: the bound applies"
        );
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    fn file(seed: u64, ops_per_s: f64, reads: f64, error_rate: f64) -> Value {
        let metric = |v: f64, spread: Option<f64>| {
            let mut f = vec![("value", Value::Num(v))];
            f.extend(spread.map(|s| ("trial_spread", Value::Num(s))));
            Value::obj(f)
        };
        let metrics = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "ops_per_s" => metric(ops_per_s, Some(0.01)),
                "kv_reads_per_op" => metric(reads, None),
                _ => metric(1.0, None),
            };
            (m.name, v)
        });
        Value::obj([(
            "runs",
            Value::Arr(vec![Value::obj([
                ("workload", Value::Str("isl_deep".into())),
                ("trace", Value::Bool(false)),
                ("seed", Value::Num(seed as f64)),
                ("op_sequence_fingerprint", Value::Str("ab".into())),
                ("error_rate", Value::Num(error_rate)),
                ("metrics", Value::obj(metrics)),
            ])]),
        )])
    }

    #[test]
    fn whole_files() {
        let base = file(1, 100.0, 500.0, 0.0);
        let (text, pass) = compare(&base, &file(1, 101.0, 500.0, 0.0));
        assert!(pass, "{text}");
        assert!(!text.contains("regressed"), "{text}");
        let (text, pass) = compare(&base, &file(1, 80.0, 500.0, 0.0));
        assert!(!pass && text.contains("regressed"), "{text}");
        let (_, pass) = compare(&base, &file(1, 100.0, 501.0, 0.0));
        assert!(!pass, "same seed, more reads");
        let (_, pass) = compare(&base, &file(2, 100.0, 501.0, 0.0));
        assert!(pass, "another seed, reads within the bound");
        let (text, pass) = compare(&base, &file(1, 100.0, 500.0, 0.001));
        assert!(!pass && text.contains("error_rate"), "{text}");
        let (_, pass) = compare(&base, &Value::obj([("runs", Value::Arr(vec![]))]));
        assert!(!pass, "nothing in common is not a pass");
    }
}
