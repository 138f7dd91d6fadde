//! Terminal (ASCII) rendering of data tables — a quick visual check of
//! every regenerated figure without leaving the console.

use crate::DataTable;

/// Marker characters assigned to series in order.
const MARKERS: &[char] = &['*', '+', 'o', 'x', '#', '@', '%', '&', '~'];

/// Renders the table as an ASCII scatter/line chart.
///
/// Each series gets a marker from a fixed palette; the legend maps markers
/// to series names. Points that collide on the grid keep the
/// first-plotted marker. Returns an empty chart note for tables without
/// finite points.
///
/// # Panics
///
/// Panics if `width < 16` or `height < 4` (too small to draw anything).
///
/// # Example
///
/// ```
/// use cam_experiments::{ascii_plot, DataSeries, DataTable};
///
/// let mut t = DataTable::new("demo", "x");
/// let mut s = DataSeries::new("line");
/// for i in 0..10 {
///     s.push(i as f64, (i * i) as f64);
/// }
/// t.push(s);
/// let chart = ascii_plot(&t, 40, 10);
/// assert!(chart.contains('*'));
/// assert!(chart.contains("line"));
/// ```
pub fn ascii_plot(table: &DataTable, width: usize, height: usize) -> String {
    assert!(width >= 16, "plot width too small");
    assert!(height >= 4, "plot height too small");

    let pts: Vec<(f64, f64)> = table
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.is_empty() {
        return format!("# {} — (no finite data)\n", table.title);
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    // Degenerate ranges get a unit pad so everything lands mid-grid.
    if (x_max - x_min).abs() < f64::EPSILON {
        x_min -= 0.5;
        x_max += 0.5;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_min -= 0.5;
        y_max += 0.5;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, series) in table.series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for &(x, y) in &series.points {
            if !(x.is_finite() && y.is_finite()) {
                continue;
            }
            let col = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let row = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row; // y grows upward
            if grid[row][col] == ' ' {
                grid[row][col] = marker;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!("# {}\n", table.title));
    let y_label_width = 10;
    for (r, row) in grid.iter().enumerate() {
        let y_here = y_max - (y_max - y_min) * r as f64 / (height - 1) as f64;
        let label = if r == 0 || r == height - 1 || r == height / 2 {
            format!("{y_here:>9.2} ")
        } else {
            " ".repeat(y_label_width)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(y_label_width));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}{:<w$.2}{:>r$.2}  ({})\n",
        " ".repeat(y_label_width + 1),
        x_min,
        x_max,
        table.x_label,
        w = width / 2,
        r = width - width / 2 - 2,
    ));
    for (si, series) in table.series.iter().enumerate() {
        out.push_str(&format!(
            "{}{} {}\n",
            " ".repeat(y_label_width + 1),
            MARKERS[si % MARKERS.len()],
            series.name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataSeries;

    fn sample() -> DataTable {
        let mut t = DataTable::new("throughput", "children");
        let mut a = DataSeries::new("CAM");
        let mut b = DataSeries::new("base");
        for i in 1..=10 {
            a.push(i as f64, 100.0 / i as f64);
            b.push(i as f64, 57.0 / i as f64);
        }
        t.push(a);
        t.push(b);
        t
    }

    #[test]
    fn renders_markers_and_legend() {
        let chart = ascii_plot(&sample(), 48, 12);
        assert!(chart.contains('*'), "first series marker");
        assert!(chart.contains('+'), "second series marker");
        assert!(chart.contains("CAM"));
        assert!(chart.contains("base"));
        assert!(chart.contains("children"));
        // Every grid row is present.
        assert_eq!(chart.lines().filter(|l| l.contains('|')).count(), 12);
    }

    #[test]
    fn empty_table_is_graceful() {
        let t = DataTable::new("empty", "x");
        let chart = ascii_plot(&t, 32, 8);
        assert!(chart.contains("no finite data"));
    }

    #[test]
    fn single_point_centers() {
        let mut t = DataTable::new("dot", "x");
        let mut s = DataSeries::new("p");
        s.push(5.0, 5.0);
        t.push(s);
        let chart = ascii_plot(&t, 20, 6);
        assert!(chart.contains('*'));
    }

    #[test]
    #[should_panic(expected = "width too small")]
    fn tiny_plot_rejected() {
        ascii_plot(&sample(), 4, 10);
    }
}
