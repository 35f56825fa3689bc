//! Plain-text tables, CSV output and timing statistics for the benchmark
//! binaries.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row length must match header");
        self.rows.push(row);
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// The directory benchmark CSV files are written to (`results/` at the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// Locates the workspace root by walking up from the crate manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Writes CSV lines (with a header) to `results/<name>.csv` and returns the
/// path.
pub fn write_csv(name: &str, header: &str, lines: &[String]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).expect("CSV file is creatable");
    writeln!(file, "{header}").expect("CSV header writes");
    for line in lines {
        writeln!(file, "{line}").expect("CSV line writes");
    }
    path
}

/// Formats a float ratio the way the paper's tables do (`3.6x`), printing
/// `-` for negligible (non-positive or non-finite) reference overheads.
pub fn format_ratio(ratio: f64) -> String {
    if !ratio.is_finite() {
        "-".into()
    } else {
        format!("{ratio:.1}x")
    }
}

/// Nearest-rank percentile `p` (0–100) of a sample set, sorted in place.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_fixed_width_rows() {
        let mut t = Table::new("demo", &["a", "bbbb", "c"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["10".into(), "200000".into(), "3".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("200000"));
        assert_eq!(t.rows.len(), 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_files_are_written_to_results() {
        let path = write_csv("unit_test_output", "x,y", &["1,2".into(), "3,4".into()]);
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,y\n1,2\n3,4"));
        assert!(path.ends_with("results/unit_test_output.csv"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let mut samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 50.0), 5.0);
        assert_eq!(percentile(&mut samples, 99.0), 10.0);
        assert_eq!(percentile(&mut samples, 0.0), 1.0);
    }

    #[test]
    fn ratio_formatting_matches_paper_style() {
        assert_eq!(format_ratio(3.64), "3.6x");
        assert_eq!(format_ratio(f64::INFINITY), "-");
    }
}
