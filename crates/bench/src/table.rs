//! Aligned-table emission for the experiment binaries.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// ```
/// use fred_bench::table::Table;
/// let mut t = Table::new(vec!["config", "speedup"]);
/// t.row(vec!["Baseline".into(), "1.00".into()]);
/// t.row(vec!["Fred-D".into(), "1.76".into()]);
/// let s = t.render();
/// assert!(s.contains("Fred-D"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Table {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w) + "  ")
            .collect::<Vec<_>>()
            .join("");
        out.push_str(rule.trim_end());
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Prints the table, preceded by a title banner.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Formats seconds with engineering units.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Formats bytes/s with engineering units.
pub fn fmt_bw(b: f64) -> String {
    if b >= 1e12 {
        format!("{:.2} TB/s", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.1} GB/s", b / 1e9)
    } else {
        format!("{:.1} MB/s", b / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a      bbbb"));
        assert!(lines[2].starts_with("xxxxx  1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(0.0025), "2.500 ms");
        assert_eq!(fmt_bw(3e12), "3.00 TB/s");
        assert_eq!(fmt_bw(750e9), "750.0 GB/s");
    }
}
