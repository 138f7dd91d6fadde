//! Data series and tables: the output format of every experiment.
//!
//! Each figure of the paper is regenerated as a [`DataTable`] — an x-axis
//! column plus one y column per system — which renders as an aligned
//! plain-text table (for the console) and as CSV (for plotting).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One named curve: `(x, y)` points in x order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSeries {
    /// Legend label (e.g. "CAM-Chord").
    pub name: String,
    /// Points in ascending x.
    pub points: Vec<(f64, f64)>,
}

impl DataSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        DataSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure's worth of series sharing one x-axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataTable {
    /// Table title (e.g. "Figure 6: throughput vs average children").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The curves.
    pub series: Vec<DataSeries>,
}

impl DataTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        DataTable {
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: DataSeries) {
        self.series.push(series);
    }

    /// All distinct x values across series, ascending.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders an aligned plain-text table (rows = x values, columns =
    /// series; missing cells show `-`).
    pub fn to_text(&self) -> String {
        let xs = self.x_values();
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        let mut rows: Vec<Vec<String>> = vec![header];
        for &x in &xs {
            let mut row = vec![format!("{x:.2}")];
            for s in &self.series {
                let cell = s
                    .points
                    .iter()
                    .find(|&&(px, _)| (px - x).abs() < 1e-9)
                    .map(|&(_, y)| format!("{y:.3}"))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            rows.push(row);
        }
        let cols = rows[0].len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for row in &rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (header row, then one row per x).
    pub fn to_csv(&self) -> String {
        let xs = self.x_values();
        let mut out = String::new();
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        let _ = writeln!(out, "{}", header.join(","));
        for &x in &xs {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                let cell = s
                    .points
                    .iter()
                    .find(|&&(px, _)| (px - x).abs() < 1e-9)
                    .map(|&(_, y)| format!("{y}"))
                    .unwrap_or_default();
                row.push(cell);
            }
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lookups the figures' shape tests read their tables with.
    impl DataSeries {
        /// The y value at the x closest to `x` (`None` when empty).
        pub(crate) fn y_near(&self, x: f64) -> Option<f64> {
            self.points
                .iter()
                .min_by(|a, b| {
                    (a.0 - x)
                        .abs()
                        .partial_cmp(&(b.0 - x).abs())
                        .expect("non-NaN x")
                })
                .map(|&(_, y)| y)
        }
    }

    impl DataTable {
        /// The series named `name`, if present.
        pub(crate) fn series_named(&self, name: &str) -> Option<&DataSeries> {
            self.series.iter().find(|s| s.name == name)
        }
    }

    fn sample() -> DataTable {
        let mut t = DataTable::new("Figure X", "x");
        let mut a = DataSeries::new("A");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = DataSeries::new("B");
        b.push(2.0, 200.0);
        b.push(3.0, 300.0);
        t.push(a);
        t.push(b);
        t
    }

    #[test]
    fn x_values_union() {
        assert_eq!(sample().x_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let text = sample().to_text();
        assert!(text.contains("# Figure X"));
        assert!(text.contains("10.000"));
        assert!(text.contains("300.000"));
        assert!(text.contains('-'), "missing cells rendered as -");
    }

    #[test]
    fn csv_round_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,A,B");
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1], "1,10,");
        assert_eq!(lines[2], "2,20,200");
    }

    #[test]
    fn y_near_picks_closest() {
        let t = sample();
        assert_eq!(t.series_named("A").unwrap().y_near(1.2), Some(10.0));
        assert_eq!(t.series_named("A").unwrap().y_near(1.8), Some(20.0));
        assert_eq!(DataSeries::new("empty").y_near(0.0), None);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("cam_experiments_series_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        sample().write_csv(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
