//! Figure 11: average multicast path length vs. average node capacity,
//! with the paper's `1.5·ln(n)/ln(c)` reference bound.
//!
//! The paper observes CAM-Chord's paths are shorter below capacity ≈ 10
//! and CAM-Koorde's shorter above ≈ 12, both staying under the analytic
//! curve (Theorems 4 and 6).

use cam_core::theory::fig11_bound;
use cam_core::{CamChord, CamKoorde};
use cam_workload::{CapacityAssignment, Scenario};

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// Average capacities swept (range `[4 .. 2c̄−4]` gives mean `c̄`; the
/// first entry uses the constant range `[4..4]`).
pub const MEAN_CAPACITIES: [u32; 10] = [4, 6, 8, 10, 12, 16, 24, 40, 70, 110];

/// Runs the Figure 11 sweep.
pub fn run(opts: &Options) -> DataTable {
    let mut table = DataTable::new(
        "Figure 11: average path length vs average node capacity",
        "avg_capacity",
    );
    let points = parallel_sweep(MEAN_CAPACITIES.to_vec(), |&mean_c| {
        let hi = if mean_c <= 4 { 4 } else { 2 * mean_c - 4 };
        let group = Scenario::paper_default(opts.sub_seed(u64::from(mean_c)))
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::Uniform { lo: 4, hi })
            .members();
        let measured_mean = group.mean_capacity();
        let chord = sample_trees(
            &CamChord::new(group.clone()),
            opts.sources,
            opts.sub_seed(1),
        );
        let koorde = sample_trees(&CamKoorde::new(group), opts.sources, opts.sub_seed(2));
        (
            measured_mean,
            chord.avg_path_len.mean(),
            koorde.avg_path_len.mean(),
        )
    });

    let mut cam_chord = DataSeries::new("CAM-Chord");
    let mut cam_koorde = DataSeries::new("CAM-Koorde");
    let mut reference = DataSeries::new("1.5*ln(n)/ln(c)");
    for (c, lc, lk) in points {
        cam_chord.push(c, lc);
        cam_koorde.push(c, lk);
        reference.push(c, fig11_bound(opts.n, c));
    }
    table.push(cam_chord);
    table.push(cam_koorde);
    table.push(reference);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_curve_upper_bounds_measurements() {
        let mut opts = Options::quick();
        opts.n = 3_000;
        opts.sources = 2;
        let table = run(&opts);
        let reference = table.series_named("1.5*ln(n)/ln(c)").unwrap();
        for name in ["CAM-Chord", "CAM-Koorde"] {
            let s = table.series_named(name).unwrap();
            for (&(c, measured), &(_, bound)) in s.points.iter().zip(&reference.points) {
                assert!(
                    measured <= bound + 0.5,
                    "{name} at c={c}: {measured:.2} exceeds 1.5 ln n/ln c = {bound:.2}"
                );
            }
        }
    }

    #[test]
    fn path_length_decreases_with_capacity() {
        let mut opts = Options::quick();
        opts.n = 2_000;
        opts.sources = 2;
        let table = run(&opts);
        let s = table.series_named("CAM-Chord").unwrap();
        assert!(s.points.first().unwrap().1 > s.points.last().unwrap().1);
    }
}
