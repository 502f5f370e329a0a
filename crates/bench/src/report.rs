//! Experiment output: aligned-column tables for the terminal and the one
//! JSON writer behind every `BENCH_*.json` artifact.

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table as a JSON object (`title`, `header`, `rows`) — the
    /// building block of the tables-shaped `BENCH_*.json` artifacts.
    pub fn to_json(&self) -> Json {
        let strings =
            |cells: &[String]| Json::Arr(cells.iter().map(|c| c.as_str().into()).collect());
        Json::Obj(vec![
            ("title", self.title.as_str().into()),
            ("header", strings(&self.header)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A JSON value. Every artifact is built as one of these and rendered by
/// [`Json::render`], so output is well-formed by construction: strings
/// are escaped and non-finite numbers become `null` here and nowhere else.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A float printed with a fixed number of decimals (`None`: every
    /// digit Rust's `Display` prints).
    Num(f64, Option<usize>),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A float printed with exactly `decimals` decimals.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(x, Some(decimals))
    }

    /// Renders a document: the root container and its direct children put
    /// one member per line, anything nested deeper stays on its line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Num(x, Some(decimals)) => out.push_str(&format!("{x:.decimals$}")),
            Json::Num(x, None) => out.push_str(&x.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items, |out, item| {
                item.write(out, depth + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, depth, ['{', '}'], members, |out, (key, value)| {
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                })
            }
        }
    }
}

/// Writes one bracketed, comma-separated sequence, broken one item per
/// line at the top two nesting levels.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    let broken = depth < 2 && !items.is_empty();
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        write_item(out, item);
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Writes `s` as an escaped JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

/// Human-readable seconds.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Human-readable byte counts.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

/// Scientific-ish formatting for dollar costs.
pub fn fmt_dollars(d: f64) -> String {
    if d == 0.0 {
        "$0".to_owned()
    } else if d >= 0.01 {
        format!("${d:.2}")
    } else {
        format!("${d:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["algo", "time"]);
        t.row(vec!["BFHM".into(), "1.2s".into()]);
        t.row(vec!["ISL".into(), "12.0s".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("BFHM"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len(), "aligned rows");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_serialization_escapes() {
        let mut t = Table::new("demo \"x\"", &["a", "b"]);
        t.row(vec!["1\n2".into(), "back\\slash".into()]);
        let j = t.to_json().render();
        assert!(j.contains("demo \\\"x\\\""));
        assert!(j.contains("1\\n2"));
        assert!(j.contains("back\\\\slash"));
        assert!(j.starts_with('{') && j.ends_with("}\n"));
    }

    #[test]
    fn json_numbers_and_layout() {
        let doc = Json::Obj(vec![
            ("experiment", "demo".into()),
            ("count", 3usize.into()),
            ("ratio", Json::fixed(2.0 / 3.0, 4)),
            ("scale", Json::Num(0.0005, None)),
            ("nan", Json::fixed(f64::NAN, 2)),
            ("inf", Json::Num(f64::INFINITY, None)),
            ("empty", Json::Arr(vec![])),
            (
                "cells",
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("ok", true.into()),
                        ("xs", Json::Arr(vec![1u64.into(), 2u64.into()])),
                    ]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"experiment\": \"demo\",\n  \"count\": 3,\n  \"ratio\": 0.6667,\n  \
             \"scale\": 0.0005,\n  \"nan\": null,\n  \"inf\": null,\n  \"empty\": [],\n  \
             \"cells\": [\n    {\"ok\": true, \"xs\": [1, 2]},\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_seconds(0.0123), "12.3ms");
        assert_eq!(fmt_seconds(3.21), "3.21s");
        assert_eq!(fmt_seconds(250.0), "250s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
        assert_eq!(fmt_dollars(0.0), "$0");
        assert_eq!(fmt_dollars(1.5), "$1.50");
        assert!(fmt_dollars(1e-7).contains("e-"));
    }
}
