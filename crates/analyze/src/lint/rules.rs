//! The repo-specific lint rules.
//!
//! Every rule matches over a [`StrippedFile`] (comments and string
//! contents already blanked — see [`super::strip`]), so rules reason about
//! *code tokens* only. Each has a stable kebab-case id used in reports and
//! in `// rjlint: allow(<id>) — justification` suppressions.

use super::strip::StrippedFile;

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

/// Static description of one rule, for `--list-rules` and the README
/// table.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// Every rule rjlint enforces, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "safety-comment",
        summary: "every `unsafe` carries a `// SAFETY:` rationale in the comment block directly above (or on the same line)",
        scope: "all workspace sources",
    },
    RuleInfo {
        id: "total-cmp",
        summary: "no `partial_cmp(..).unwrap()/.expect(..)` on floats — score ordering must use `f64::total_cmp` (NaN-safe, PR 3 contract)",
        scope: "all workspace sources, tests included",
    },
    RuleInfo {
        id: "no-unwrap",
        summary: "no `.unwrap()`/`.expect(..)` in library paths — return typed `RankJoinError`/`ServeError` instead; `.lock()/.wait()/.wait_timeout(..).expect(..)` (poison propagation) and `try_from/try_into(..).expect(..)` (checked-narrowing invariants) are exempt idioms",
        scope: "non-test code in crates/{core,serve,store}/src (testsupport.rs exempt)",
    },
    RuleInfo {
        id: "thread-discipline",
        summary: "no `thread::spawn`/`thread::scope`/`thread::Builder` outside the execution core — all concurrency is a `WorkStealingPool::run_batch` fan-out, so the pool width bounds every batch and the 1-vs-N width matrix stays meaningful",
        scope: "library sources except crates/store/src/pool.rs and shims",
    },
    RuleInfo {
        id: "sim-time",
        summary: "no `Instant::now`/`SystemTime` in simulated-metrics paths — modelled time must be derived from the cost model only, never the host clock",
        scope: "crates/{store,core,serve,sketch,tpch,mapreduce,bench}/src and src/",
    },
    RuleInfo {
        id: "thread-local",
        summary: "no `thread_local!` in library code — what a run leaves behind belongs to the executor that ran it (the spare buffers included), so nothing depends on which thread ran it",
        scope: "non-test code in crates/{core,serve,store,sketch}/src",
    },
    RuleInfo {
        id: "env-knob",
        summary: "no `std::env::var`/`var_os` in library code — behaviour is chosen by typed config, never by an environment variable; the pool width (`RJ_POOL_THREADS`, read in `crates/store/src/pool.rs`) is the one exception",
        scope: "non-test code in crates/{core,serve,store,sketch}/src except crates/store/src/pool.rs",
    },
    RuleInfo {
        id: "ledger-delta",
        summary: "no `delta_since(` in library code — a run measures its charge with one `rj_store::QueryMeter` (`so_far` mid-run, `finish` at the end), never by hand-taken ledger snapshots",
        scope: "non-test code in crates/{core,serve}/src",
    },
    RuleInfo {
        id: "suppression-contract",
        summary: "every `// rjlint: allow(<rule>)` names a known rule and carries a non-empty justification",
        scope: "all workspace sources",
    },
];

/// True if `id` names a rule in [`RULES`].
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of word-boundary occurrences of `word` in `hay`.
fn word_occurrences(hay: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        let after = at + word.len();
        let after_ok =
            after >= hay.len() || !is_ident_char(hay[after..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Skips a balanced `( … )` group starting at `open` (which must index a
/// `(`); returns the offset just past the matching `)`.
fn skip_parens(hay: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, c) in hay[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

fn skip_ws(hay: &str, mut at: usize) -> usize {
    while at < hay.len() {
        let c = hay[at..].chars().next().unwrap_or('x');
        if c.is_whitespace() {
            at += c.len_utf8();
        } else {
            break;
        }
    }
    at
}

/// If `hay[at..]` starts (after whitespace) with `.word`, returns the
/// offset just past `word`.
fn match_dot_word(hay: &str, at: usize, word: &str) -> Option<usize> {
    let at = skip_ws(hay, at);
    if !hay[at..].starts_with('.') {
        return None;
    }
    let at = skip_ws(hay, at + 1);
    if hay[at..].starts_with(word)
        && !is_ident_char(hay[at + word.len()..].chars().next().unwrap_or(' '))
    {
        Some(at + word.len())
    } else {
        None
    }
}

/// The identifier of the call whose `( … )` closes just before `at`
/// (scanning backward over `ident ( … )` with `at` right after the `)`),
/// e.g. `lock` for `….lock() @`.
fn call_ident_before(hay: &str, at: usize) -> Option<String> {
    let trimmed_end = hay[..at].trim_end();
    if !trimmed_end.ends_with(')') {
        return None;
    }
    let close = trimmed_end.len() - 1;
    let mut depth = 0i64;
    let mut open = None;
    for (i, c) in hay[..=close].char_indices().rev() {
        match c {
            ')' => depth += 1,
            '(' => {
                depth -= 1;
                if depth == 0 {
                    open = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let open = open?;
    let ident_end = hay[..open].trim_end().len();
    let ident_start = hay[..ident_end]
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)?;
    if ident_start == ident_end {
        return None;
    }
    Some(hay[ident_start..ident_end].to_string())
}

/// Scope classification of one file, derived from its path.
pub struct FileScope {
    /// Under some crate's (or the root's) `src/`.
    pub is_library_src: bool,
    /// Subject to `no-unwrap` (crates/{core,serve,store}/src, minus
    /// testsupport).
    pub no_unwrap_scope: bool,
    /// Subject to `sim-time` (simulated-metrics crates).
    pub sim_time_scope: bool,
    /// Exempt from `thread-discipline` (the pool itself and the vendored
    /// shims).
    pub thread_allowlisted: bool,
    /// Subject to `thread-local` (the library crates).
    pub thread_local_scope: bool,
    /// Subject to `env-knob` (the library crates, minus the pool).
    pub env_knob_scope: bool,
    /// Subject to `ledger-delta` (the crates that run and serve queries).
    pub ledger_delta_scope: bool,
    /// Vendored stand-in for an external crate.
    pub is_shim: bool,
}

impl FileScope {
    pub fn of(rel_path: &str) -> FileScope {
        let p = rel_path;
        let is_shim = p.starts_with("shims/");
        let is_library_src = (p.contains("/src/") || p.starts_with("src/"))
            && !p.contains("/tests/")
            && !p.contains("/benches/")
            && !p.contains("/examples/");
        let no_unwrap_scope = is_library_src
            && (p.starts_with("crates/core/src/")
                || p.starts_with("crates/serve/src/")
                || p.starts_with("crates/store/src/"))
            && !p.ends_with("testsupport.rs");
        let sim_time_scope = is_library_src
            && (p.starts_with("crates/core/")
                || p.starts_with("crates/serve/")
                || p.starts_with("crates/store/")
                || p.starts_with("crates/sketch/")
                || p.starts_with("crates/tpch/")
                || p.starts_with("crates/mapreduce/")
                || p.starts_with("crates/bench/")
                || p.starts_with("src/"));
        let thread_allowlisted = is_shim || p == "crates/store/src/pool.rs";
        let library_crate = is_library_src
            && (p.starts_with("crates/core/src/")
                || p.starts_with("crates/serve/src/")
                || p.starts_with("crates/store/src/")
                || p.starts_with("crates/sketch/src/"));
        let env_knob_scope = library_crate && p != "crates/store/src/pool.rs";
        FileScope {
            is_library_src,
            no_unwrap_scope,
            sim_time_scope,
            thread_allowlisted,
            thread_local_scope: library_crate,
            env_knob_scope,
            ledger_delta_scope: is_library_src
                && (p.starts_with("crates/core/src/") || p.starts_with("crates/serve/src/")),
            is_shim,
        }
    }
}

/// Runs every rule over one preprocessed file. Suppressions are applied by
/// the caller ([`super::scan_sources`]), not here.
pub fn check_file(file: &StrippedFile) -> Vec<Finding> {
    let scope = FileScope::of(&file.rel_path);
    let flat = file.flat_code();
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        findings.push(Finding {
            rule,
            path: file.rel_path.clone(),
            line,
            message,
        });
    };
    let is_test_line = |line: usize| file.lines[line - 1].in_test;

    // safety-comment: every `unsafe` keyword needs a SAFETY rationale in
    // the contiguous comment block directly above (or on its own line).
    for at in word_occurrences(&flat, "unsafe") {
        let line = file.line_of_offset(at);
        let mut ok = file.lines[line - 1].comment.contains("SAFETY:");
        if !ok {
            let mut l = line - 1; // 0-based index of the line above
            while l > 0 {
                let view = &file.lines[l - 1];
                let has_comment = !view.comment.trim().is_empty();
                let has_code = !view.code.trim().is_empty();
                if view.comment.contains("SAFETY:") {
                    ok = true;
                    break;
                }
                if has_code || !has_comment {
                    break; // the comment block above ended
                }
                l -= 1;
            }
        }
        if !ok {
            push(
                "safety-comment",
                line,
                "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold"
                    .to_string(),
            );
        }
    }

    // total-cmp: partial_cmp(..) chained into unwrap/expect.
    for at in word_occurrences(&flat, "partial_cmp") {
        let after = skip_ws(&flat, at + "partial_cmp".len());
        if !flat[after..].starts_with('(') {
            continue; // a definition or a bare path, not a call
        }
        let Some(close) = skip_parens(&flat, after) else {
            continue;
        };
        let chained_unwrap = match_dot_word(&flat, close, "unwrap").is_some()
            || match_dot_word(&flat, close, "expect").is_some();
        if chained_unwrap {
            push(
                "total-cmp",
                file.line_of_offset(at),
                "`partial_cmp(..).unwrap()` is NaN-unsafe — use `f64::total_cmp` for score ordering".to_string(),
            );
        }
    }

    // no-unwrap: .unwrap()/.expect( in library paths, with the two exempt
    // idioms (lock-poison propagation, checked narrowing).
    if scope.no_unwrap_scope {
        for word in ["unwrap", "expect"] {
            for at in word_occurrences(&flat, word) {
                let line = file.line_of_offset(at);
                if is_test_line(line) {
                    continue;
                }
                // Must be a method call `.word(`; skip definitions and
                // free fns like `unwrap_or`.
                let before = flat[..at].trim_end();
                if !before.ends_with('.') {
                    continue;
                }
                let after = skip_ws(&flat, at + word.len());
                if !flat[after..].starts_with('(') {
                    continue;
                }
                if word == "expect" {
                    if let Some(recv) = call_ident_before(&flat, before.len() - 1) {
                        // Poison propagation (lock/wait) and checked
                        // narrowing (try_from/try_into) — see RULES.
                        if matches!(
                            recv.as_str(),
                            "lock" | "wait" | "wait_timeout" | "try_from" | "try_into"
                        ) {
                            continue;
                        }
                    }
                }
                push(
                    "no-unwrap",
                    line,
                    format!(
                        "`.{word}()` in a library path — return a typed error (RankJoinError/ServeError) or justify with `rjlint: allow(no-unwrap)`"
                    ),
                );
            }
        }
    }

    // thread-discipline: raw thread creation outside the execution core.
    if scope.is_library_src && !scope.thread_allowlisted {
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            let tail = pat.split("::").nth(1).unwrap_or(pat);
            for at in word_occurrences(&flat, tail) {
                if !flat[..at].ends_with("thread::") {
                    continue;
                }
                let line = file.line_of_offset(at);
                if is_test_line(line) {
                    continue;
                }
                push(
                    "thread-discipline",
                    line,
                    format!(
                        "`{pat}` outside `crates/store/src/pool.rs` — fan out with `rj_store::pool::WorkStealingPool::run_batch` instead"
                    ),
                );
            }
        }
    }

    // thread-local: per-thread state in library code.
    if scope.thread_local_scope {
        for at in word_occurrences(&flat, "thread_local") {
            let line = file.line_of_offset(at);
            let is_macro = flat[skip_ws(&flat, at + "thread_local".len())..].starts_with('!');
            if !is_macro || is_test_line(line) {
                continue;
            }
            push(
                "thread-local",
                line,
                "`thread_local!` in library code — keep state on the executor or the value that owns it".to_string(),
            );
        }
    }

    // env-knob: environment variables read by library code.
    if scope.env_knob_scope {
        for word in ["var", "var_os"] {
            for at in word_occurrences(&flat, word) {
                let line = file.line_of_offset(at);
                if !flat[..at].ends_with("env::") || is_test_line(line) {
                    continue;
                }
                push(
                    "env-knob",
                    line,
                    format!("`env::{word}` in a library path — add a typed config field instead; only the pool width is read from the environment"),
                );
            }
        }
    }

    // ledger-delta: a charge measured by hand instead of by a meter.
    if scope.ledger_delta_scope {
        for at in word_occurrences(&flat, "delta_since") {
            let line = file.line_of_offset(at);
            let after = skip_ws(&flat, at + "delta_since".len());
            if !flat[after..].starts_with('(') || is_test_line(line) {
                continue;
            }
            push(
                "ledger-delta",
                line,
                "`delta_since(` in a library path — measure the charge with `rj_store::QueryMeter` (`so_far` / `finish`)".to_string(),
            );
        }
    }

    // sim-time: host clocks in simulated-metrics crates.
    if scope.sim_time_scope {
        for pat in ["Instant::now", "SystemTime"] {
            let head = pat.split("::").next().unwrap_or(pat);
            for at in word_occurrences(&flat, head) {
                if pat.contains("::") && !flat[at..].starts_with(pat) {
                    continue;
                }
                let line = file.line_of_offset(at);
                if is_test_line(line) {
                    continue;
                }
                push(
                    "sim-time",
                    line,
                    format!(
                        "`{pat}` in a simulated-metrics path — modelled time comes from the cost model, never the host clock"
                    ),
                );
            }
        }
    }

    findings
}
