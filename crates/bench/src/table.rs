//! Minimal aligned-table and TSV output helpers for the bench binaries.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A simple column-aligned text table that can also be dumped as TSV into
/// `bench_results/` for EXPERIMENTS.md.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render aligned to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as TSV under `bench_results/<name>.tsv` (relative to the
    /// workspace root when run via cargo).
    pub fn write_tsv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(path)
    }

    /// [`Table::write_tsv`], reporting the written path (or why it could
    /// not be written) on stderr.
    pub fn save(&self, name: &str) {
        match self.write_tsv(name) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {name}.tsv: {e}"),
        }
    }

    /// What every artifact ends with: print `heading` and the aligned
    /// table to stdout, then [`Table::save`] it as `<tsv>.tsv`.
    pub fn publish(&self, heading: &str, tsv: &str) {
        println!("\n=== {heading} ===");
        self.print();
        self.save(tsv);
    }
}

/// Format a float with 2 decimals (the paper's RF precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a duration in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_align() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["x".into(), "y".into()]);
        t.print(); // smoke: must not panic
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
