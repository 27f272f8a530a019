//! Plain-text result tables.

use std::fmt;

/// A titled table of string cells — the output form of every figure
/// regeneration (printable, CSV-exportable, assertable in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Title shown above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// A cell value, if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row).and_then(|r| r.get(col)).map(String::as_str)
    }

    /// Finds the first row whose `col`-th cell equals `value`.
    pub fn find_row(&self, col: usize, value: &str) -> Option<&Vec<String>> {
        self.rows.iter().find(|r| r.get(col).map(String::as_str) == Some(value))
    }

    /// Renders CSV (headers + rows, comma-separated, quotes around cells
    /// containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths from headers and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["cdn", "ips"]);
        t.push(vec!["Akamai".into(), "55".into()]);
        t.push(vec!["Limelight, Inc".into(), "45".into()]);
        t
    }

    #[test]
    fn display_is_aligned() {
        let text = sample().to_string();
        assert!(text.starts_with("== Demo =="));
        assert!(text.contains("cdn"));
        assert!(text.contains("Akamai"));
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.contains("\"Limelight, Inc\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn lookup_helpers() {
        let t = sample();
        assert_eq!(t.cell(0, 1), Some("55"));
        assert!(t.find_row(0, "Akamai").is_some());
        assert!(t.find_row(0, "Level3").is_none());
    }
}
