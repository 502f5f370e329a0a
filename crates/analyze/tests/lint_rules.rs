//! Fixture tests for every rjlint rule: each rule fires on a minimal
//! violating fixture and stays quiet on the idiomatic fix, suppressions
//! follow the audited contract, and the workspace itself lints clean
//! (the same invariant the CI `analyze` job gates on).

use rj_analyze::lint::{self, Report};

fn scan(path: &str, src: &str) -> Report {
    lint::scan_sources(&[(path.to_string(), src.to_string())])
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- safety

#[test]
fn unsafe_without_safety_comment_fires() {
    let r = scan(
        "crates/store/src/x.rs",
        "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    assert_eq!(rules_of(&r), ["safety-comment"]);
    assert_eq!(r.findings[0].line, 2);
}

#[test]
fn safety_comment_same_line_or_block_above_is_accepted() {
    let same_line = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p } // SAFETY: caller guarantees validity\n}\n";
    assert!(scan("crates/store/src/x.rs", same_line).clean());
    let block_above = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: `p` is valid for reads because the caller\n    // keeps the arena alive for 'a.\n    unsafe { *p }\n}\n";
    assert!(scan("crates/store/src/x.rs", block_above).clean());
}

#[test]
fn interrupted_comment_block_does_not_carry_safety() {
    // A SAFETY comment above unrelated *code* must not cover a later
    // `unsafe` — the contiguous block ends at the first code line.
    let src = "// SAFETY: for something else\nlet a = 1;\nlet b = unsafe { read(p) };\n";
    let r = scan("crates/store/src/x.rs", src);
    assert_eq!(rules_of(&r), ["safety-comment"]);
}

// -------------------------------------------------------------- total-cmp

#[test]
fn partial_cmp_unwrap_fires_even_in_tests() {
    let src = "fn s(a: f64, b: f64) -> std::cmp::Ordering {\n    a.partial_cmp(&b).unwrap()\n}\n";
    let r = scan("crates/store/tests/proptests.rs", src);
    assert_eq!(rules_of(&r), ["total-cmp"]);
    let with_expect = "fn s(a: f64, b: f64) -> std::cmp::Ordering {\n    a.partial_cmp(&b).expect(\"not NaN\")\n}\n";
    assert_eq!(
        rules_of(&scan("crates/bench/src/x.rs", with_expect)),
        ["total-cmp"]
    );
}

#[test]
fn total_cmp_and_unchained_partial_cmp_are_accepted() {
    assert!(scan(
        "crates/store/src/x.rs",
        "fn s(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }\n"
    )
    .clean());
    // partial_cmp without the unwrap chain (e.g. matched) is fine.
    assert!(scan(
        "crates/bench/src/x.rs",
        "fn s(a: f64, b: f64) -> bool { a.partial_cmp(&b) == Some(std::cmp::Ordering::Less) }\n"
    )
    .clean());
}

// -------------------------------------------------------------- no-unwrap

#[test]
fn unwrap_in_library_path_fires() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    for path in [
        "crates/core/src/x.rs",
        "crates/serve/src/x.rs",
        "crates/store/src/x.rs",
    ] {
        assert_eq!(rules_of(&scan(path, src)), ["no-unwrap"], "{path}");
    }
}

#[test]
fn unwrap_out_of_scope_is_accepted() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    for path in [
        "crates/bench/src/x.rs",           // not a no-unwrap crate
        "crates/store/tests/x.rs",         // tests dir
        "crates/store/src/testsupport.rs", // explicit exemption
        "examples/x.rs",
        "shims/rand/src/lib.rs",
    ] {
        assert!(scan(path, src).clean(), "{path}");
    }
}

#[test]
fn unwrap_inside_cfg_test_module_is_accepted() {
    let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1u32).unwrap();\n    }\n}\n";
    assert!(scan("crates/core/src/x.rs", src).clean());
}

#[test]
fn exempt_expect_idioms_are_accepted() {
    // Lock-poison propagation and checked narrowing carry invariants in
    // the expect message; they are the sanctioned idioms.
    let src = "pub fn f(m: &std::sync::Mutex<u32>, cv: &std::sync::Condvar, n: usize) -> u32 {\n    let g = m.lock().expect(\"rank-join state lock\");\n    let g = cv.wait(g).expect(\"state lock poisoned\");\n    let (g, _t) = cv.wait_timeout(g, std::time::Duration::from_millis(1)).expect(\"state lock poisoned\");\n    let v = *g;\n    let k = u32::try_from(n).expect(\"checked by admission\");\n    let j: u32 = n.try_into().expect(\"checked by admission\");\n    v + k + j\n}\n";
    assert!(scan("crates/store/src/x.rs", src).clean());
    // …but a plain expect on anything else still fires.
    let bad = "pub fn f(v: Option<u32>) -> u32 { v.expect(\"present\") }\n";
    assert_eq!(rules_of(&scan("crates/store/src/x.rs", bad)), ["no-unwrap"]);
}

#[test]
fn unwrap_like_identifiers_do_not_fire() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) }\npub fn g(v: Option<u32>) -> u32 { v.unwrap_or_default() }\n";
    assert!(scan("crates/core/src/x.rs", src).clean());
}

// ------------------------------------------------------ thread-discipline

#[test]
fn raw_thread_spawn_outside_the_core_fires() {
    let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
    let r = scan("crates/serve/src/x.rs", src);
    assert_eq!(rules_of(&r), ["thread-discipline"]);
    let scoped = "pub fn f() { std::thread::scope(|_| {}); }\n";
    assert_eq!(
        rules_of(&scan("crates/bench/src/x.rs", scoped)),
        ["thread-discipline"]
    );
}

#[test]
fn thread_allowlist_and_tests_are_accepted() {
    let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
    for path in [
        "crates/store/src/pool.rs",
        "shims/parking_lot/src/lib.rs",
        "crates/serve/tests/x.rs",
    ] {
        assert!(scan(path, src).clean(), "{path}");
    }
    // The pool is the only spawner: its callers are not exempt.
    for path in [
        "crates/store/src/parallel.rs",
        "crates/mapreduce/src/lib.rs",
    ] {
        assert_eq!(rules_of(&scan(path, src)), ["thread-discipline"], "{path}");
    }
    let in_test =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
    assert!(scan("crates/serve/src/x.rs", in_test).clean());
}

// ----------------------------------------------------------- thread-local

#[test]
fn thread_local_outside_the_recycler_fires() {
    let src = "thread_local! {\n    static N: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };\n}\n";
    for path in [
        "crates/core/src/x.rs",
        "crates/core/src/spare.rs", // spares are the executor's
        "crates/serve/src/x.rs",
        "crates/store/src/x.rs",
        "crates/sketch/src/x.rs",
    ] {
        let r = scan(path, src);
        assert_eq!(rules_of(&r), ["thread-local"], "{path}");
        assert_eq!(r.findings[0].line, 1);
    }
    // The path form of the macro too.
    let pathed = "std::thread_local! { static N: u32 = 0; }\n";
    assert_eq!(
        rules_of(&scan("crates/core/src/x.rs", pathed)),
        ["thread-local"]
    );
}

#[test]
fn the_recycler_tests_and_other_crates_may_hold_thread_locals() {
    let src = "thread_local! {\n    static N: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };\n}\n";
    for path in [
        "crates/analyze/src/chk/mod.rs", // the model checker's scheduler
        "crates/core/tests/x.rs",
        "tests/common/counting_alloc.rs",
        "crates/bench/src/x.rs",
    ] {
        assert!(scan(path, src).clean(), "{path}");
    }
    let in_test = "#[cfg(test)]\nmod tests {\n    thread_local! { static N: u32 = 0; }\n}\n";
    assert!(scan("crates/store/src/x.rs", in_test).clean());
    // A mention that is not the macro is not a finding.
    let mention = "pub fn thread_local() {}\n";
    assert!(scan("crates/core/src/x.rs", mention).clean());
}

// ---------------------------------------------------------------- env-knob

#[test]
fn env_var_in_a_library_path_fires() {
    let src = "pub fn f() -> bool {\n    std::env::var(\"RJ_PULL_ORDER\").is_ok()\n}\n";
    for path in [
        "crates/core/src/x.rs",
        "crates/serve/src/x.rs",
        "crates/store/src/x.rs",
        "crates/sketch/src/x.rs",
    ] {
        let r = scan(path, src);
        assert_eq!(rules_of(&r), ["env-knob"], "{path}");
        assert_eq!(r.findings[0].line, 2);
    }
    // `var_os`, and the `use std::env;` form.
    let var_os = "use std::env;\npub fn f() -> bool { env::var_os(\"X\").is_some() }\n";
    assert_eq!(
        rules_of(&scan("crates/core/src/x.rs", var_os)),
        ["env-knob"]
    );
}

#[test]
fn the_pool_width_tests_and_other_crates_may_read_the_environment() {
    let src = "pub fn f() -> bool { std::env::var(\"RJ_POOL_THREADS\").is_ok() }\n";
    for path in [
        "crates/store/src/pool.rs", // the one knob
        "crates/store/tests/x.rs",
        "crates/bench/src/x.rs",
        "crates/analyze/src/x.rs",
        "benchmark/src/x.rs",
        "shims/proptest/src/lib.rs",
    ] {
        assert!(scan(path, src).clean(), "{path}");
    }
    let in_test =
        "#[cfg(test)]\nmod tests {\n    fn t() -> bool { std::env::var(\"X\").is_ok() }\n}\n";
    assert!(scan("crates/core/src/x.rs", in_test).clean());
    // A variable named `var`, or `env::vars`, is not a knob read.
    let other =
        "pub fn f(var: u32) -> u32 { var }\npub fn g() -> usize { std::env::vars().count() }\n";
    assert!(scan("crates/core/src/x.rs", other).clean());
}

// ------------------------------------------------------------ ledger-delta

#[test]
fn a_hand_taken_ledger_delta_in_a_library_path_fires() {
    let src = "pub fn f(c: &Cluster, before: &MetricsSnapshot) -> u64 {\n    c.metrics().snapshot().delta_since(before).kv_reads\n}\n";
    for path in ["crates/core/src/x.rs", "crates/serve/src/x.rs"] {
        let r = scan(path, src);
        assert_eq!(rules_of(&r), ["ledger-delta"], "{path}");
        assert_eq!(r.findings[0].line, 2);
    }
}

#[test]
fn the_meter_tests_and_other_crates_may_take_ledger_deltas() {
    let src = "pub fn f(c: &Cluster, before: &MetricsSnapshot) -> u64 {\n    c.metrics().snapshot().delta_since(before).kv_reads\n}\n";
    for path in [
        "crates/store/src/metrics.rs", // where the meter takes it
        "crates/bench/src/x.rs",
        "crates/core/tests/x.rs",
        "tests/cursor.rs",
    ] {
        assert!(scan(path, src).clean(), "{path}");
    }
    let in_test = "#[cfg(test)]\nmod tests {\n    fn t(a: &MetricsSnapshot, b: &MetricsSnapshot) -> u64 { a.delta_since(b).kv_reads }\n}\n";
    assert!(scan("crates/core/src/x.rs", in_test).clean());
    // The idiomatic form: one meter, read mid-run and finished.
    let metered = "pub fn f(c: &Cluster) -> u64 {\n    let meter = QueryMeter::start(c.metrics());\n    let _ = meter.so_far();\n    meter.finish().kv_reads\n}\n";
    assert!(scan("crates/serve/src/x.rs", metered).clean());
}

// --------------------------------------------------------------- sim-time

#[test]
fn host_clock_in_simulated_metrics_path_fires() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let r = scan("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&r), ["sim-time"]);
    let st = "pub fn f() -> u64 { let _t = std::time::SystemTime::now(); 0 }\n";
    assert_eq!(rules_of(&scan("crates/store/src/x.rs", st)), ["sim-time"]);
    // rj_bench reproduces the paper's simulated figures; host time is
    // measured by the standalone `benchmark/` package only.
    assert_eq!(rules_of(&scan("crates/bench/src/x.rs", src)), ["sim-time"]);
}

#[test]
fn host_clock_outside_sim_scope_is_accepted() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    for path in ["crates/core/tests/x.rs", "crates/analyze/src/x.rs"] {
        assert!(scan(path, src).clean(), "{path}");
    }
}

// ----------------------------------------------------------- suppressions

#[test]
fn trailing_suppression_with_justification_is_honoured() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // rjlint: allow(no-unwrap) — prototype path, removed in PR 11\n}\n";
    let r = scan("crates/core/src/x.rs", src);
    assert!(r.clean(), "{:?}", r.findings);
    assert_eq!(r.suppressions_used.len(), 1);
    assert_eq!(r.suppressions_used[0].rule, "no-unwrap");
    assert!(r.suppressions_used[0].justification.contains("prototype"));
}

#[test]
fn full_line_suppression_covers_the_next_code_line() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    // rjlint: allow(no-unwrap) — invariant: admission already validated v\n    v.unwrap()\n}\n";
    let r = scan("crates/core/src/x.rs", src);
    assert!(r.clean(), "{:?}", r.findings);
    assert_eq!(r.suppressions_used[0].target_line, 3);
}

#[test]
fn bare_suppression_is_a_contract_violation_and_does_not_suppress() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // rjlint: allow(no-unwrap)\n}\n";
    let report = scan("crates/core/src/x.rs", src);
    let mut rules = rules_of(&report);
    rules.sort_unstable();
    assert_eq!(rules, ["no-unwrap", "suppression-contract"]);
}

#[test]
fn unknown_rule_suppression_is_a_contract_violation() {
    let src = "pub fn f() {}\n// rjlint: allow(made-up-rule) — because reasons, clearly\n";
    let r = scan("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&r), ["suppression-contract"]);
    assert!(r.findings[0].message.contains("unknown rule"));
}

#[test]
fn doc_comments_describing_the_syntax_are_not_suppressions() {
    let src = "//! Suppress with `rjlint: allow(<rule>)` on the line.\n/// See `rjlint: allow(...)` for details.\npub fn f() {}\n";
    assert!(scan("crates/core/src/x.rs", src).clean());
}

#[test]
fn suppression_for_a_different_rule_does_not_suppress() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // rjlint: allow(sim-time) — wrong rule on purpose here\n}\n";
    let r = scan("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&r), ["no-unwrap"]);
}

// ----------------------------------------------------------------- report

#[test]
fn json_report_round_trips_the_fields() {
    let r = scan(
        "crates/core/src/x.rs",
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let json = r.to_json();
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"rule\": \"no-unwrap\""));
    assert!(json.contains("\"path\": \"crates/core/src/x.rs\""));
    assert!(json.contains("\"clean\": false"));
    let clean = scan("crates/core/src/x.rs", "pub fn f() {}\n").to_json();
    assert!(clean.contains("\"clean\": true"));
    assert!(clean.contains("\"files_scanned\": 1"));
    assert!(clean.contains("\"suppressions\": 0"));
    let suppressed = scan(
        "crates/core/src/x.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    // rjlint: allow(no-unwrap) — fixture: the count below must read 1.\n    x.unwrap()\n}\n",
    );
    assert!(suppressed.to_json().contains("\"suppressions\": 1"));
}

#[test]
fn json_escapes_quotes_and_newlines() {
    let r = scan(
        "crates/core/src/x.rs",
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    let mut r = r;
    r.findings[0].message = "a \"quoted\"\nmessage".to_string();
    let json = r.to_json();
    assert!(json.contains("a \\\"quoted\\\"\\nmessage"));
}

// ------------------------------------------------------ the real workspace

/// The invariant the CI `analyze` job gates on: the workspace's own
/// sources lint clean (with every suppression justified inline).
#[test]
fn rjlint_workspace_is_clean() {
    let root = lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/analyze");
    let report = lint::scan_workspace(&root).expect("scan workspace");
    assert!(report.files_scanned > 50, "walked the real workspace");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.clean(),
        "rjlint found {} issue(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}
