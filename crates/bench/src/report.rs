//! Report helpers: text tables for experiment output, the median/min/max
//! [`Spread`] every timed row carries, and the one JSON document shape
//! every `bench_*` binary writes — [`BenchArgs`] parses the command line,
//! [`BenchArgs::write_report`] leads the report with its `execution` block
//! and [`Json`] prints it.

use hdc_runtime::available_workers;
use std::fmt::{self, Write};

/// A plain-text table builder with right-aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with blanks).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>width$}", cell, width = widths[i]);
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given precision, rendering NaN as `-`.
pub fn num(v: f64, prec: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.prec$}")
    }
}

/// Median, min and max over the repeats of one per-repeat value: a
/// stage's ns/frame, a rate, or a ratio of two values measured in the same
/// repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The middle value (the upper one of an even count).
    pub median: f64,
    /// The smallest value.
    pub min: f64,
    /// The largest value.
    pub max: f64,
}

impl Spread {
    /// The spread of `per_repeat`.
    ///
    /// # Panics
    /// Panics when `per_repeat` is empty.
    pub fn of(mut per_repeat: Vec<f64>) -> Spread {
        per_repeat.sort_by(f64::total_cmp);
        Spread {
            median: per_repeat[per_repeat.len() / 2],
            min: per_repeat[0],
            max: per_repeat[per_repeat.len() - 1],
        }
    }

    /// `median [min, max]` with `decimals` places, for a table cell.
    pub fn cell(&self, decimals: usize) -> String {
        let [median, min, max] = [self.median, self.min, self.max].map(|v| num(v, decimals));
        format!("{median} [{min}, {max}]")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// One JSON value of a bench report.
///
/// Its printer escapes every string and puts each array element, and each
/// member of the document and of its top-level objects, on a line of its
/// own; a deeper object prints on one line. So a report's rows read one to
/// a line, which is what the line-based checks of the committed reports
/// rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A float printed with the given number of decimals (`null` when not
    /// finite, which JSON cannot hold).
    Num(f64, usize),
    /// A string, escaped when printed.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, its members in the order given.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// `{"median": .., "min": .., "max": ..}` of `spread` with `decimals`
    /// places.
    pub fn spread(spread: &Spread, decimals: usize) -> Json {
        Json::Object(vec![
            ("median", Json::Num(spread.median, decimals)),
            ("min", Json::Num(spread.min, decimals)),
            ("max", Json::Num(spread.max, decimals)),
        ])
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            Json::Num(..) => f.write_str("null"),
            Json::Str(text) => write_string(f, text),
            Json::Array(items) => {
                let items = items.iter().map(|v| (None, v));
                write_members(f, depth, ['[', ']'], true, items)
            }
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_members(f, depth, ['{', '}'], depth <= 1, members)
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
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
    fn from(text: &str) -> Json {
        Json::Str(text.to_owned())
    }
}

/// The members of an array or object between `brackets`, each on a line of
/// its own (indented one level deeper) when `multiline`.
fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    [open, close]: [char; 2],
    multiline: bool,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    write!(f, "{open}")?;
    let mut empty = true;
    for (i, (key, value)) in members.enumerate() {
        empty = false;
        let separator = if i > 0 { "," } else { "" };
        if multiline {
            write!(f, "{separator}\n{:indent$}", "", indent = 2 * depth + 2)?;
        } else if i > 0 {
            f.write_str(", ")?;
        }
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(": ")?;
        }
        value.write(f, depth + 1)?;
    }
    if multiline && !empty {
        write!(f, "\n{:indent$}", "", indent = 2 * depth)?;
    }
    write!(f, "{close}")
}

/// `text` as a JSON string: quoted, with quotes, backslashes and control
/// characters escaped.
fn write_string(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A bench binary's command line: `[--smoke] [--threads N] [out.json]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// CI-sized workload and repeats: proves the binary runs, its numbers
    /// are not meant to be committed.
    pub smoke: bool,
    /// `--threads N`: the work-pool size (`None`: the machine's).
    pub threads: Option<usize>,
    /// Where the report is written.
    pub out: String,
}

impl BenchArgs {
    /// Parses `args` (without the program name). `--threads N` is accepted
    /// only when `pooled`, that is for a bench whose measurement runs on a
    /// work pool it sizes; the output path defaults to `default_out`.
    ///
    /// # Errors
    /// A message naming the argument that is unknown, repeated or lacks
    /// its positive thread count.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
        pooled: bool,
    ) -> Result<BenchArgs, String> {
        let (mut smoke, mut threads, mut out) = (false, None, None);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--threads" if pooled && threads.is_none() => {
                    let n = args.next().and_then(|n| n.parse::<usize>().ok());
                    threads = Some(
                        n.filter(|&n| n > 0)
                            .ok_or("--threads needs a positive integer")?,
                    );
                }
                path if !path.starts_with("--") && out.is_none() => out = Some(arg),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(BenchArgs {
            smoke,
            threads,
            out: out.unwrap_or_else(|| default_out.to_owned()),
        })
    }

    /// [`BenchArgs::parse`] of the process's arguments; on an error prints
    /// the usage and exits with status 2.
    pub fn from_env(default_out: &str, pooled: bool) -> BenchArgs {
        BenchArgs::parse(std::env::args().skip(1), default_out, pooled).unwrap_or_else(|e| {
            let threads = if pooled { " [--threads N]" } else { "" };
            eprintln!("{e}\nusage: [--smoke]{threads} [out.json]  (default {default_out})");
            std::process::exit(2)
        })
    }

    /// Writes the report: one JSON object whose first member is the
    /// `execution` block — the `threads` the measurement ran on, the host's
    /// `available_parallelism`, the `repeats` of each timed row and whether
    /// this was a `smoke` run — followed by `members`.
    ///
    /// # Panics
    /// Panics when the output file cannot be written.
    pub fn write_report(&self, threads: usize, repeats: usize, members: Vec<(&'static str, Json)>) {
        let execution = Json::Object(vec![
            ("threads", threads.into()),
            ("available_parallelism", available_workers().into()),
            ("repeats", repeats.into()),
            ("smoke", Json::Bool(self.smoke)),
        ]);
        let mut report = vec![("execution", execution)];
        report.extend(members);
        let text = format!("{}\n", Json::Object(report));
        std::fs::write(&self.out, text).expect("write benchmark report");
        println!("wrote {}", self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_the_repeats() {
        let s = Spread::of(vec![3.0, 1.0, 2.0, 5.0]);
        assert_eq!((s.median, s.min, s.max), (3.0, 1.0, 5.0));
        assert_eq!(
            Json::spread(&s, 1),
            Json::Object(vec![
                ("median", Json::Num(3.0, 1)),
                ("min", Json::Num(1.0, 1)),
                ("max", Json::Num(5.0, 1)),
            ])
        );
    }

    /// A recursive-descent JSON validator: consumes one value from
    /// `text[*at..]`, returning every string it decodes, in order.
    fn value(text: &[u8], at: &mut usize, strings: &mut Vec<String>) -> Result<(), String> {
        let ws = |at: &mut usize| {
            while text.get(*at).is_some_and(u8::is_ascii_whitespace) {
                *at += 1;
            }
        };
        ws(at);
        let err = |what: &str, at: usize| Err(format!("{what} at byte {at}"));
        match text.get(*at) {
            Some(b'{') | Some(b'[') => {
                let (object, close) = if text[*at] == b'{' {
                    (true, b'}')
                } else {
                    (false, b']')
                };
                *at += 1;
                ws(at);
                if text.get(*at) == Some(&close) {
                    *at += 1;
                    return Ok(());
                }
                loop {
                    if object {
                        ws(at);
                        if text.get(*at) != Some(&b'"') {
                            return err("expected a key", *at);
                        }
                        value(text, at, strings)?;
                        ws(at);
                        if text.get(*at) != Some(&b':') {
                            return err("expected ':'", *at);
                        }
                        *at += 1;
                    }
                    value(text, at, strings)?;
                    ws(at);
                    match text.get(*at) {
                        Some(b',') => *at += 1,
                        Some(&c) if c == close => {
                            *at += 1;
                            return Ok(());
                        }
                        _ => return err("expected ',' or a close", *at),
                    }
                }
            }
            Some(b'"') => {
                *at += 1;
                let mut decoded = String::new();
                loop {
                    match text.get(*at) {
                        Some(b'"') => break,
                        Some(b'\\') => {
                            *at += 1;
                            decoded.push(match text.get(*at) {
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                Some(b'n') => '\n',
                                Some(b'r') => '\r',
                                Some(b't') => '\t',
                                _ => return err("unknown escape", *at),
                            });
                        }
                        Some(c) if *c < 0x20 => return err("raw control character", *at),
                        Some(_) => {
                            let rest = std::str::from_utf8(&text[*at..]).expect("utf-8");
                            let c = rest.chars().next().expect("a character");
                            decoded.push(c);
                            *at += c.len_utf8() - 1;
                        }
                        None => return err("unterminated string", *at),
                    }
                    *at += 1;
                }
                *at += 1;
                strings.push(decoded);
                Ok(())
            }
            _ => {
                let start = *at;
                while text
                    .get(*at)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    *at += 1;
                }
                let token = std::str::from_utf8(&text[start..*at]).expect("ascii");
                match token {
                    "null" | "true" | "false" => Ok(()),
                    n if n.parse::<f64>().is_ok()
                        && n.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                        && n.bytes()
                            .all(|c| c.is_ascii_digit() || b"+-.eE".contains(&c)) =>
                    {
                        Ok(())
                    }
                    _ => err("expected a value", start),
                }
            }
        }
    }

    #[test]
    fn the_printer_writes_valid_json_of_every_kind() {
        let tricky = "say \"hi\" \\ then\nbreak";
        let report = Json::Object(vec![
            ("name", tricky.into()),
            (
                "rows",
                Json::Array(vec![
                    Json::Object(vec![
                        ("count", 3usize.into()),
                        ("share", Json::Num(0.123_456, 3)),
                        ("wall_ms", Json::spread(&Spread::of(vec![2.0, 1.0, 4.0]), 2)),
                    ]),
                    Json::Object(vec![
                        ("missing", Json::Null),
                        ("nan", Json::Num(f64::NAN, 1)),
                    ]),
                ]),
            ),
            (
                "nested",
                Json::Object(vec![
                    ("ok", Json::Bool(true)),
                    ("inner", Json::Object(vec![("list", Json::Array(vec![]))])),
                ]),
            ),
            ("empty", Json::Object(vec![])),
        ]);
        let text = report.to_string();
        let (mut at, mut strings) = (0, Vec::new());
        value(text.as_bytes(), &mut at, &mut strings).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(at, text.len(), "one value, nothing after it:\n{text}");
        assert_eq!(strings[1], tricky, "the string decodes to itself");
        assert!(text.contains("\"share\": 0.123,"));
        assert!(text.contains("\"wall_ms\": {\"median\": 2.00, \"min\": 1.00, \"max\": 4.00}"));
        assert!(text.contains("{\"missing\": null, \"nan\": null}"));
        // each array element and each top-level member on a line of its own
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        assert!(lines.contains(&"{\"missing\": null, \"nan\": null}"));
        assert!(lines.contains(&"\"empty\": {}"));
        assert!(lines.contains(&"\"inner\": {\"list\": []}"));
        // the validator rejects what the printer must never write
        for bad in ["{\"a\": 1,}", "[\"raw\nline\"]", "{\"a\" 1}", "[nan]"] {
            assert!(
                value(bad.as_bytes(), &mut 0, &mut Vec::new()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn bench_args_take_one_grammar() {
        let parse = |args: &[&str], pooled| {
            BenchArgs::parse(args.iter().map(|a| a.to_string()), "BENCH_x.json", pooled)
        };
        assert_eq!(
            parse(&[], false),
            Ok(BenchArgs {
                smoke: false,
                threads: None,
                out: "BENCH_x.json".into()
            })
        );
        assert_eq!(
            parse(&["--smoke", "--threads", "2", "/tmp/x.json"], true),
            Ok(BenchArgs {
                smoke: true,
                threads: Some(2),
                out: "/tmp/x.json".into()
            })
        );
        for bad in [
            &["--threads", "2"][..],
            &["--kernels"],
            &["a.json", "b.json"],
        ] {
            assert!(parse(bad, false).is_err(), "{bad:?}");
        }
        for bad in [&["--threads"][..], &["--threads", "0"], &["--threads", "x"]] {
            assert!(parse(bad, true).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]).row(["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[2].ends_with("2"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn number_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "-");
        assert_eq!(pct(0.5), "50%");
    }
}
