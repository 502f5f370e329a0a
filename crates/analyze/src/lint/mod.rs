//! rjlint — the repo-specific source lint pass.
//!
//! Dependency-free (no `syn`, no registry): a lexical scanner
//! ([`strip`]) feeds token-level rules ([`rules`]) over every `.rs` file
//! in the workspace. Violations can be suppressed inline with
//!
//! ```text
//! // rjlint: allow(<rule-id>) — <justification>
//! ```
//!
//! on the offending line or as a full-line comment directly above it. A
//! suppression **must** carry a justification (at least
//! [`MIN_JUSTIFICATION`] characters after the closing paren); a bare
//! `allow(...)` or one naming an unknown rule is itself a finding
//! (`suppression-contract`), so the escape hatch stays auditable.
//!
//! Entry points: [`scan_workspace`] (walk + scan + suppress), the
//! [`Report`] it returns, and [`Report::to_json`] for the CI artifact.

pub mod rules;
pub mod strip;

use rules::{check_file, known_rule, Finding, RULES};
use std::path::{Path, PathBuf};

/// Minimum justification length (chars, after trimming separators) for a
/// suppression to count as justified.
pub const MIN_JUSTIFICATION: usize = 8;

/// One parsed `rjlint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub path: String,
    /// Line the comment sits on (1-based).
    pub line: usize,
    /// Line(s) it applies to: its own line plus, for a full-line comment,
    /// the next line carrying code.
    pub target_line: usize,
    pub justification: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings (suppressed ones removed), sorted by path/line.
    pub findings: Vec<Finding>,
    /// Suppressions that matched a finding, for the audit trail.
    pub suppressions_used: Vec<Suppression>,
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable report for the CI artifact. `suppressions` is the
    /// count of `suppressions_used`, so the trend reads off one number.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"suppressions_used\": [");
        for (i, sup) in self.suppressions_used.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"justification\": {}}}",
                json_str(&sup.rule),
                json_str(&sup.path),
                sup.line,
                json_str(&sup.justification)
            ));
        }
        s.push_str(&format!(
            "\n  ],\n  \"suppressions\": {},\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.suppressions_used.len(),
            self.files_scanned,
            self.clean()
        ));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Directories never scanned.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "artifacts",
    "bench-artifacts",
    ".claude",
    ".github",
];

/// Recursively collects every `.rs` file under `root`, sorted for
/// deterministic reports.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans a set of (relative path, source) pairs and applies suppressions.
pub fn scan_sources(sources: &[(String, String)]) -> Report {
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    for (rel, src) in sources {
        let stripped = strip::strip(rel, src);
        let mut findings = check_file(&stripped);
        let suppressions = parse_suppressions(&stripped, &mut findings);
        findings.retain(|f| {
            let matched = suppressions
                .iter()
                .find(|s| s.rule == f.rule && (s.target_line == f.line || s.line == f.line));
            if let Some(s) = matched {
                report.suppressions_used.push(s.clone());
                false
            } else {
                true
            }
        });
        report.findings.extend(findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Walks the workspace at `root` and lints every `.rs` file.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = collect_rs_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources))
}

/// Extracts every `rjlint: allow(...)` comment; malformed ones (unknown
/// rule, missing justification) are appended to `findings` as
/// `suppression-contract` violations and do not suppress anything.
fn parse_suppressions(file: &strip::StrippedFile, findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, view) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        let comment = &view.comment;
        let Some(at) = comment.find("rjlint:") else {
            continue;
        };
        // Doc comments (`///`, `//!`) document the suppression syntax;
        // only plain `//` comments act as suppressions. The first `//` on
        // the line is the comment opener (later ones are comment text).
        if let Some(o) = comment[..at].find("//") {
            let opener_tail = &comment[o + 2..];
            if opener_tail.starts_with('/') || opener_tail.starts_with('!') {
                continue;
            }
        }
        let rest = comment[at + "rjlint:".len()..].trim_start();
        let mut bad = |msg: String| {
            findings.push(Finding {
                rule: "suppression-contract",
                path: file.rel_path.clone(),
                line: line_no,
                message: msg,
            });
        };
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad(
                "malformed rjlint comment — expected `rjlint: allow(<rule>) — justification`"
                    .into(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(
                "unclosed `rjlint: allow(` — expected `rjlint: allow(<rule>) — justification`"
                    .into(),
            );
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !known_rule(&rule) {
            bad(format!(
                "`rjlint: allow({rule})` names an unknown rule — known rules: {}",
                RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
            ));
            continue;
        }
        let justification = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '.'])
            .trim()
            .to_string();
        if justification.chars().count() < MIN_JUSTIFICATION {
            bad(format!(
                "`rjlint: allow({rule})` without a justification — say *why* the rule does not apply here"
            ));
            continue;
        }
        // A full-line comment applies to the next line carrying code;
        // a trailing comment applies to its own line.
        let own_line_has_code = !view.code.trim().is_empty();
        let target_line = if own_line_has_code {
            line_no
        } else {
            file.lines[idx + 1..]
                .iter()
                .position(|l| !l.code.trim().is_empty())
                .map(|off| line_no + 1 + off)
                .unwrap_or(line_no)
        };
        out.push(Suppression {
            rule,
            path: file.rel_path.clone(),
            line: line_no,
            target_line,
            justification,
        });
    }
    out
}

/// Finds the workspace root by walking up from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
