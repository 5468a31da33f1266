//! Result rendering: CSV, JSON manifests, and ASCII previews.

use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A directory experiments write their artifacts into.
#[derive(Debug, Clone)]
pub struct OutputDir {
    root: PathBuf,
}

impl OutputDir {
    /// Creates (if needed) and wraps an output directory.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(OutputDir { root })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Writes raw text under the directory.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write_text(&self, name: &str, contents: &str) -> io::Result<PathBuf> {
        let path = self.root.join(name);
        fs::write(&path, contents)?;
        Ok(path)
    }

    /// Serializes `value` as pretty JSON under the directory.
    ///
    /// # Errors
    /// I/O errors, or a serialization failure surfaced as one.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
        self.write_text(name, &json)
    }
}

/// Renders rows as CSV. Every row must have `headers.len()` fields.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), headers.len(), "ragged CSV row");
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Writes `rows` under `name` as CSV and returns them as an ASCII
/// table, so a terminal preview shows exactly the file's columns.
///
/// # Errors
/// I/O errors.
pub fn write_table(
    out: &OutputDir,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<String> {
    out.write_text(name, &to_csv(headers, rows))?;
    Ok(ascii_table(headers, rows))
}

/// Renders a fixed-width ASCII table (for terminal summaries).
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    // Widths in chars, the unit `{:width$}` pads by: a byte count
    // would pad a column holding `±` one space too wide.
    let width = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| width(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(width(cell));
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:width$} ", h, width = widths[i]);
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// Renders an ASCII heatmap of `z[y][x]` values in `[0, 1]` (rows print
/// top-to-bottom in the given order). Used for quick-look previews of
/// the waste/risk surfaces; the CSV output feeds real plotting.
pub fn ascii_heatmap(z: &[Vec<f64>]) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    for row in z {
        for &v in row {
            let v = v.clamp(0.0, 1.0);
            let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Formats a float compactly for CSV (enough digits to round-trip the
/// shapes we plot, without 17-digit noise).
pub fn fmt_f64(x: f64) -> String {
    if matches!(x.classify(), std::num::FpCategory::Zero) {
        "0".to_string()
    } else if x.abs() >= 1e-3 && x.abs() < 1e7 {
        let s = format!("{x:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{x:.6e}")
    }
}

/// [`fmt_f64`] of a value that may be missing (`n/a`).
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "n/a".to_string(), fmt_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let csv = to_csv(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn ascii_table_aligns() {
        let t = ascii_table(
            &["name", "v"],
            &[
                vec!["x".into(), "1.5".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name   | v   |"));
        assert!(t.contains("| longer | 2   |"));
    }

    #[test]
    fn ascii_table_measures_multibyte_cells_in_chars() {
        let t = ascii_table(&["sim (mean ± se)"], &[vec!["0.28 ± 0.01".into()]]);
        assert_eq!(
            t,
            "+-----------------+\n\
             | sim (mean ± se) |\n\
             +-----------------+\n\
             | 0.28 ± 0.01     |\n\
             +-----------------+\n"
        );
    }

    #[test]
    fn heatmap_shades_extremes() {
        let m = ascii_heatmap(&[vec![0.0, 1.0]]);
        assert_eq!(m, " @\n");
    }

    #[test]
    fn fmt_f64_compact() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(3600.0), "3600");
        assert!(fmt_f64(1.23e-9).contains('e'));
    }

    #[test]
    fn output_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dck-test-{}", std::process::id()));
        let out = OutputDir::create(&dir).unwrap();
        let p = out.write_text("x.txt", "hello").unwrap();
        assert_eq!(fs::read_to_string(p).unwrap(), "hello");
        out.write_json("x.json", &vec![1, 2, 3]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
