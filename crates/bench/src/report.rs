//! Small text-table helpers for experiment reports.

use std::fmt::Write;

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

    /// `{"median": .., "min": .., "max": ..}` with `decimals` places.
    pub fn json(&self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.*}, \"min\": {:.*}, \"max\": {:.*}}}",
            decimals, self.median, decimals, self.min, decimals, self.max
        )
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_the_repeats() {
        let s = Spread::of(vec![3.0, 1.0, 2.0, 5.0]);
        assert_eq!((s.median, s.min, s.max), (3.0, 1.0, 5.0));
        assert_eq!(s.json(1), "{\"median\": 3.0, \"min\": 1.0, \"max\": 5.0}");
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
