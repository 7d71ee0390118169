//! Minimal CSV emission for experiment results.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A rectangular result table destined for stdout and a CSV file.
pub struct ResultTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged result row");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Write as CSV under `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut text = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            text,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                text,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        fs::write(dir.join(format!("{name}.csv")), text)
    }
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Format a per-second rate with an adaptive suffix.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Format bytes with an adaptive unit.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = ResultTable::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes() {
        let dir = std::env::temp_dir().join("ggrid_csv_test");
        let mut t = ResultTable::new("demo", &["a,b", "c"]);
        t.row(vec!["x\"y".into(), "z".into()]);
        t.write_csv(&dir, "t").unwrap();
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(text.contains("\"a,b\""));
        assert!(text.contains("\"x\"\"y\""));
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(2_500), "2.50us");
        assert_eq!(fmt_ns(3_000_000), "3.00ms");
        assert_eq!(fmt_ns(4_200_000_000), "4.20s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_rate(950.4), "950");
        assert_eq!(fmt_rate(2_500.0), "2.5k");
        assert_eq!(fmt_rate(3_200_000.0), "3.2M");
    }
}
