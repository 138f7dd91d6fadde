//! Figure 9: path-length distribution in CAM-Chord for widening capacity
//! ranges.
//!
//! One series per capacity range `[4..y]` (the paper's legend); each point
//! is (path length in hops, number of nodes reached at that depth), pooled
//! over the sampled sources and normalized to a single tree of `n` nodes.

use cam_core::CamChord;
use cam_workload::{CapacityAssignment, Scenario};

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// The paper's capacity ranges for Figure 9 (upper bounds; lower fixed 4).
pub const RANGES: [u32; 9] = [4, 6, 8, 10, 20, 40, 60, 100, 200];

/// Runs Figure 9: one distribution per capacity range.
pub fn run(opts: &Options) -> DataTable {
    run_with(opts, &RANGES, CamChord::new, "CAM-Chord")
}

/// Shared engine for Figures 9 and 10.
pub(crate) fn run_with<O, F>(opts: &Options, ranges: &[u32], make: F, system: &str) -> DataTable
where
    O: cam_overlay::StaticOverlay,
    F: Fn(cam_overlay::MemberSet) -> O + Sync,
{
    let mut table = DataTable::new(
        format!("Path-length distribution in {system} (per capacity range)"),
        "path_length_hops",
    );
    let series = parallel_sweep(ranges.to_vec(), |&hi| {
        let group = Scenario::paper_default(opts.sub_seed(u64::from(hi)))
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::Uniform { lo: 4, hi })
            .members();
        let overlay = make(group);
        let agg = sample_trees(&overlay, opts.sources, opts.sub_seed(u64::from(hi) + 1));
        let name = if hi == 4 {
            "4".to_string()
        } else {
            format!("[4..{hi}]")
        };
        let mut s = DataSeries::new(name);
        let trees = agg.trees() as f64;
        for (hops, &count) in agg.path_lengths.buckets().iter().enumerate() {
            if hops > 0 {
                s.push(hops as f64, count as f64 / trees);
            }
        }
        s
    });
    for s in series {
        table.push(s);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_ranges_shift_distribution_left() {
        let mut opts = Options::quick();
        opts.n = 3_000;
        opts.sources = 2;
        let table = run_with(&opts, &[4, 40], CamChord::new, "CAM-Chord");
        let narrow = table.series_named("4").unwrap();
        let wide = table.series_named("[4..40]").unwrap();
        let mean = |s: &DataSeries| {
            let total: f64 = s.points.iter().map(|&(_, y)| y).sum();
            s.points.iter().map(|&(x, y)| x * y).sum::<f64>() / total
        };
        assert!(
            mean(wide) < mean(narrow),
            "higher capacities must shorten paths: {} vs {}",
            mean(wide),
            mean(narrow)
        );
        // Every member is accounted for in each distribution.
        let total: f64 = narrow.points.iter().map(|&(_, y)| y).sum();
        assert!((total - (opts.n as f64 - 1.0)).abs() < 1.0, "total {total}");
    }
}
