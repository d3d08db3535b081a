//! Plain-text table formatting for experiment output.

use hstencil_testkit::outln;
use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned text table with a title.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn header(mut self, cols: &[&str]) -> Self {
        self.header = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if !self.header.is_empty() {
            let cells: Vec<String> = self
                .header
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Prints the table to stdout and archives it as `results/<id>.txt`.
    /// Write failures go to stderr and make the experiment binary exit
    /// non-zero (see [`crate::runner::exit_code`]).
    pub fn emit(&self, id: &str) {
        let text = self.render();
        outln!("{text}");
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(Path::new("results").join(format!("{id}.txt")), &text))
        {
            eprintln!("error: failed to write results/{id}.txt: {e}");
            crate::runner::record_io_failure();
        }
    }
}

/// A horizontal bar chart for speedup-style figures (the plotting step of
/// the paper's artifact, rendered as text).
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    title: String,
    bars: Vec<(String, f64)>,
    /// Reference line (e.g. the 1.0× auto baseline).
    reference: Option<f64>,
}

impl BarChart {
    /// New chart with a title.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            bars: Vec::new(),
            reference: None,
        }
    }

    /// Adds a labelled bar.
    pub fn bar(&mut self, label: impl Into<String>, value: f64) {
        self.bars.push((label.into(), value));
    }

    /// Draws a reference marker at `value` (e.g. the baseline's 1.0×).
    pub fn reference(mut self, value: f64) -> Self {
        self.reference = Some(value);
        self
    }

    /// Renders the chart with bars scaled to `width` characters.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if self.bars.is_empty() {
            return out;
        }
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self
            .bars
            .iter()
            .map(|&(_, v)| v)
            .chain(self.reference)
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let scale = width as f64 / max;
        let ref_col = self
            .reference
            .map(|r| ((r * scale).round() as usize).min(width));
        for (label, value) in &self.bars {
            let mut cells: Vec<char> = vec![' '; width + 1];
            let len = ((value * scale).round() as usize).min(width);
            for c in cells.iter_mut().take(len) {
                *c = '#';
            }
            if let Some(rc) = ref_col {
                if cells[rc] == ' ' {
                    cells[rc] = '|';
                }
            }
            let bar: String = cells.into_iter().collect();
            let _ = writeln!(out, "{label:>label_w$} {bar} {value:.2}");
        }
        out
    }

    /// Prints the chart and archives it as `results/<id>.chart.txt`.
    /// Write failures go to stderr and make the experiment binary exit
    /// non-zero (see [`crate::runner::exit_code`]).
    pub fn emit(&self, id: &str) {
        let text = self.render(48);
        outln!("{text}");
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(format!("results/{id}.chart.txt"), &text))
        {
            eprintln!("error: failed to write results/{id}.chart.txt: {e}");
            crate::runner::record_io_failure();
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a count in engineering notation (like the paper's hit times).
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let exp = x.abs().log10().floor() as i32;
    let mant = x / 10f64.powi(exp);
    format!("{mant:.1}e{exp}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo").header(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn bar_chart_scales_and_marks_reference() {
        let mut c = BarChart::new("speedups").reference(1.0);
        c.bar("auto", 1.0);
        c.bar("hstencil", 4.0);
        let s = c.render(40);
        assert!(s.contains("== speedups =="));
        let hs_line = s.lines().find(|l| l.contains("hstencil")).unwrap();
        let auto_line = s.lines().find(|l| l.contains("auto")).unwrap();
        let count = |l: &str| l.matches('#').count();
        assert_eq!(count(hs_line), 40);
        assert_eq!(count(auto_line), 10);
        assert!(auto_line.contains('|') || count(auto_line) == 10);
        assert!(hs_line.contains("4.00"));
    }

    #[test]
    fn empty_chart_renders_title_only() {
        let c = BarChart::new("empty");
        assert_eq!(c.render(20).lines().count(), 1);
    }

    #[test]
    fn eng_notation() {
        assert_eq!(eng(2.5e5), "2.5e5");
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1.7e7), "1.7e7");
    }
}
