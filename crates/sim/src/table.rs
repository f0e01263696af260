//! Fixed-width text tables and CSV output for the experiment binaries.
//!
//! Hand-rolled (no external table/serialization-format crates — see
//! "Vendored dependencies" in the README): the binaries print the same rows
//! and series the paper's tables and figures report, plus optional CSV for
//! downstream plotting.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded / truncated to the header width).
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows (each padded to the header width).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, &w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..w {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas, quotes,
    /// or CR/LF line breaks).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats an optional statistic for table cells (`-` when absent).
pub fn fmt_stat(stat: &Option<crate::metrics::Stats>) -> String {
    match stat {
        Some(s) => format!("{:.3e}", s.mean),
        None => "-".to_string(),
    }
}

/// Formats a required statistic.
pub fn fmt_mean(stat: &crate::metrics::Stats) -> String {
    format!("{:.3e}", stat.mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Stats;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["attack", "MSE"]);
        t.push_row(["MGA-GRR", "1.2e-3"]);
        t.push_row(["AA-OLH-long-name", "9.9e-4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("attack"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Both data rows align the second column at the same offset.
        let off2 = lines[2].find("1.2e-3").unwrap();
        let off3 = lines[3].find("9.9e-4").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn short_rows_padded_and_len_tracked() {
        let mut t = Table::new(["a", "b", "c"]);
        t.push_row(["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('x'));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(["name", "value"]);
        t.push_row(["with,comma", "with\"quote"]);
        let csv = t.render_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn stat_formatting() {
        let s = Stats {
            mean: 0.00123,
            std: 0.0001,
            count: 10,
        };
        assert_eq!(fmt_mean(&s), "1.230e-3");
        assert_eq!(fmt_stat(&Some(s)), "1.230e-3");
        assert_eq!(fmt_stat(&None), "-");
    }
}
