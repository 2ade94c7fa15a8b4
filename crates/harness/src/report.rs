//! Plain-text report rendering: aligned tables and `(time, value)`
//! series charts, matching the rows/figures the paper reports.

use simcore::time::TimeDelta;
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                let pad = widths[i];
                let _ = write!(line, "{:<pad$}  ", cells[i], pad = pad);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a completion time as milliseconds with three decimals.
pub fn fmt_ms(td: Option<TimeDelta>) -> String {
    match td {
        Some(t) => format!("{:.3}", t.as_nanos() as f64 / 1e6),
        None => "DNF".to_string(),
    }
}

/// Render a `(time µs, value)` series as a fixed-height ASCII chart —
/// enough to eyeball the Fig 1b/1c shapes in a terminal.
///
/// `height` rows of `width` columns; samples are bucketed into columns by
/// time and averaged, then scaled between the series min and max.
pub fn render_ascii_chart(
    title: &str,
    series: &[(f64, f64)],
    width: usize,
    height: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- {title} --");
    if series.is_empty() || width == 0 || height == 0 {
        let _ = writeln!(out, "(empty)");
        return out;
    }
    let t0 = series.first().map(|p| p.0).unwrap_or(0.0);
    let t1 = series.last().map(|p| p.0).unwrap_or(1.0);
    let span = (t1 - t0).max(f64::MIN_POSITIVE);
    // Bucket samples by column.
    let mut sums = vec![0.0f64; width];
    let mut counts = vec![0usize; width];
    for &(t, v) in series {
        let col = (((t - t0) / span) * (width as f64 - 1.0)).round() as usize;
        let col = col.min(width - 1);
        sums[col] += v;
        counts[col] += 1;
    }
    let cols: Vec<Option<f64>> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { Some(s / c as f64) } else { None })
        .collect();
    let lo = cols.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
    let hi = cols
        .iter()
        .flatten()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    // Draw top to bottom.
    for row in (0..height).rev() {
        let threshold = lo + range * (row as f64 + 0.5) / height as f64;
        let label = if row == height - 1 {
            format!("{hi:>9.1} |")
        } else if row == 0 {
            format!("{lo:>9.1} |")
        } else {
            format!("{:>9} |", "")
        };
        let mut line = label;
        for c in &cols {
            line.push(match c {
                Some(v) if *v >= threshold => '#',
                Some(_) => ' ',
                None => ' ',
            });
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(width));
    let _ = writeln!(out, "{:>11}{:<.1}us .. {:.1}us", "", t0, t1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["scheme", "ct(ms)"]);
        t.row(&["ECMP".into(), "42.000".into()]);
        t.row(&["Themis".into(), "7.5".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("scheme"));
        assert!(r.contains("Themis"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(Some(TimeDelta::from_micros(1500))), "1.500");
        assert_eq!(fmt_ms(None), "DNF");
    }

    #[test]
    fn ascii_chart_renders_shape() {
        // A rising ramp: the '#' count per column must not decrease.
        let series: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        let chart = render_ascii_chart("ramp", &series, 25, 6);
        assert!(chart.contains("-- ramp --"));
        let rows: Vec<&str> = chart.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 6);
        // Bottom row has the most marks; top row the fewest.
        let marks = |s: &str| s.chars().filter(|&c| c == '#').count();
        assert!(marks(rows[5]) >= marks(rows[0]));
        // Empty input degrades gracefully.
        assert!(render_ascii_chart("e", &[], 10, 4).contains("(empty)"));
    }

    #[test]
    fn ascii_chart_constant_series() {
        let series: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 5.0)).collect();
        let chart = render_ascii_chart("flat", &series, 10, 3);
        // Must not panic on zero range and must render something.
        assert!(chart.contains("flat"));
    }
}
