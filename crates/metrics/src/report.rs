//! Plain-text table formatting shared by the benchmark harnesses.

use std::fmt;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use specee_metrics::Table;
///
/// let mut t = Table::new(vec!["dataset", "tokens/s", "speedup"]);
/// t.row(vec!["MT-Bench".into(), "56.2".into(), "2.32x".into()]);
/// let text = t.to_string();
/// assert!(text.contains("MT-Bench"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
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

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > w[i] {
                    w[i] = cell.len();
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = w[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows equal width after padding
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.to_string().contains("only"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.251), "2.25x");
        assert_eq!(fmt_pct(0.9312), "93.1%");
    }
}
