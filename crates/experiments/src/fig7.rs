//! Figure 7: throughput improvement ratio (CAM over capacity-oblivious
//! baseline) as the upload-bandwidth range `[a, b]` widens.
//!
//! The lower bound is fixed at `a = 400` kbps; the upper bound `b` sweeps
//! 800–1600 kbps. CAMs set `c_x = ⌊B_x/p⌋` with `p` chosen so the mean
//! capacity matches the baselines' uniform degree, isolating capacity
//! *awareness* as the only difference. The paper reports the ratio growing
//! roughly like `(a+b)/2a` — the mean-to-minimum bandwidth ratio — which is
//! emitted as a reference series.

use cam_core::{CamChord, CamKoorde};
use cam_workload::{BandwidthDist, CapacityAssignment, Scenario};

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// Upper bounds of the bandwidth range swept (kbps); `a` fixed at 400.
pub const UPPER_BOUNDS: [f64; 9] = [
    800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0, 1600.0,
];

/// Baseline uniform degree (and CAM mean capacity) used for every point.
/// Chosen so the per-link target `p = mean/10` never pushes the slowest
/// host (400 kbps) below the CAM-Koorde minimum capacity of 4, which would
/// clamp the sweep.
const DEGREE: u32 = 10;

/// Runs the Figure 7 sweep.
pub fn run(opts: &Options) -> DataTable {
    let mut table = DataTable::new(
        "Figure 7: throughput improvement ratio vs upload-bandwidth range [400, b]",
        "upper_bound_kbps",
    );
    let points = parallel_sweep(UPPER_BOUNDS.to_vec(), |&b| {
        let bandwidth = BandwidthDist::Uniform { lo: 400.0, hi: b };
        let p = bandwidth.mean() / f64::from(DEGREE);
        let seed = opts.sub_seed(b as u64);

        let cam_group = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_bandwidth(bandwidth)
            .with_capacity(CapacityAssignment::PerLink {
                p,
                min: 4,
                max: 4096,
            })
            .members();
        let base_group = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_bandwidth(bandwidth)
            .with_capacity(CapacityAssignment::Constant(DEGREE))
            .members();

        let cam_chord = sample_trees(
            &CamChord::new(cam_group.clone()),
            opts.sources,
            opts.sub_seed(1),
        )
        .throughput_kbps
        .mean();
        // Baselines are the uniform-degree capacity-oblivious variants
        // (see the fig6 module docs for why).
        let chord = sample_trees(
            &CamChord::new(base_group.clone()),
            opts.sources,
            opts.sub_seed(2),
        )
        .throughput_kbps
        .mean();
        let cam_koorde =
            sample_trees(&CamKoorde::new(cam_group), opts.sources, opts.sub_seed(3))
                .throughput_kbps
                .mean();
        // The Koorde baseline is uniform-degree flooding (see fig6 docs).
        let koorde = sample_trees(&CamKoorde::new(base_group), opts.sources, opts.sub_seed(4))
            .throughput_kbps
            .mean();
        (cam_chord / chord, cam_koorde / koorde)
    });

    let mut chord_ratio = DataSeries::new("CAM-Chord over Chord");
    let mut koorde_ratio = DataSeries::new("CAM-Koorde over Koorde");
    let mut reference = DataSeries::new("(a+b)/2a reference");
    for (&b, (rc, rk)) in UPPER_BOUNDS.iter().zip(points) {
        chord_ratio.push(b, rc);
        koorde_ratio.push(b, rk);
        reference.push(b, (400.0 + b) / 800.0);
    }
    table.push(chord_ratio);
    table.push(koorde_ratio);
    table.push(reference);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_exceeds_one_and_grows() {
        let mut opts = Options::quick();
        opts.n = 1_500;
        opts.sources = 2;
        let table = run(&opts);
        let chord = table.series_named("CAM-Chord over Chord").unwrap();
        for &(b, ratio) in &chord.points {
            assert!(ratio > 1.0, "CAM should win at b={b}: ratio {ratio}");
        }
        let first = chord.points.first().unwrap().1;
        let last = chord.points.last().unwrap().1;
        assert!(
            last > first,
            "wider heterogeneity should widen the gap: {first} → {last}"
        );
    }
}
