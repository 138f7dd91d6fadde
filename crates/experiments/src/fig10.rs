//! Figure 10: path-length distribution in CAM-Koorde for widening capacity
//! ranges (the paper's legend omits `[4..60]`).

use cam_core::CamKoorde;

use crate::runner::Options;
use crate::DataTable;

/// The paper's capacity ranges for Figure 10 (upper bounds; lower fixed 4).
pub const RANGES: [u32; 8] = [4, 6, 8, 10, 20, 40, 100, 200];

/// Runs Figure 10: one distribution per capacity range.
pub fn run(opts: &Options) -> DataTable {
    crate::fig9::run_with(opts, &RANGES, CamKoorde::new, "CAM-Koorde")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_cover_all_members() {
        let mut opts = Options::quick();
        opts.n = 2_000;
        opts.sources = 2;
        let table = run(&opts);
        assert_eq!(table.series.len(), RANGES.len());
        for s in &table.series {
            let total: f64 = s.points.iter().map(|&(_, y)| y).sum();
            assert!(
                (total - (opts.n as f64 - 1.0)).abs() < 1.0,
                "series {} total {total}",
                s.name
            );
        }
    }
}
