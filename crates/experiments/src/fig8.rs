//! Figure 8: the throughput ↔ latency trade-off.
//!
//! Sweeping the per-link target `p` moves both multicast throughput
//! (≈ `p`) and tree depth (≈ `log n / log c̄` with `c̄ ≈ B̄/p`) at once.
//! The paper plots average path length against achieved throughput for
//! CAM-Chord and CAM-Koorde and observes a crossover: CAM-Chord is better
//! (shorter paths) at high throughput / small capacities, CAM-Koorde at
//! low throughput / large capacities.

use cam_core::{CamChord, CamKoorde};
use cam_workload::{BandwidthDist, CapacityAssignment, Scenario};

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// Per-link bandwidth targets swept (kbps).
pub const P_VALUES: [f64; 9] = [10.0, 15.0, 20.0, 28.0, 38.0, 46.0, 60.0, 80.0, 100.0];

/// Runs the Figure 8 sweep.
pub fn run(opts: &Options) -> DataTable {
    let mut table = DataTable::new(
        "Figure 8: throughput vs average path length (sweeping p)",
        "throughput_kbps",
    );
    let points = parallel_sweep(P_VALUES.to_vec(), |&p| {
        let group = Scenario::paper_default(opts.sub_seed(p as u64))
            .with_n(opts.n)
            .with_bandwidth(BandwidthDist::PAPER)
            .with_capacity(CapacityAssignment::PerLink {
                p,
                min: 4,
                max: 4096,
            })
            .members();
        let chord = sample_trees(
            &CamChord::new(group.clone()),
            opts.sources,
            opts.sub_seed(1),
        );
        let koorde = sample_trees(&CamKoorde::new(group), opts.sources, opts.sub_seed(2));
        (
            (chord.throughput_kbps.mean(), chord.avg_path_len.mean()),
            (koorde.throughput_kbps.mean(), koorde.avg_path_len.mean()),
        )
    });
    let mut cam_chord = DataSeries::new("CAM-Chord");
    let mut cam_koorde = DataSeries::new("CAM-Koorde");
    for ((tc, lc), (tk, lk)) in points {
        cam_chord.push(tc, lc);
        cam_koorde.push(tk, lk);
    }
    table.push(cam_chord);
    table.push(cam_koorde);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rises_with_throughput() {
        let mut opts = Options::quick();
        opts.n = 2_000;
        opts.sources = 2;
        let table = run(&opts);
        for name in ["CAM-Chord", "CAM-Koorde"] {
            let s = table.series_named(name).unwrap();
            // Points were pushed in increasing p (increasing throughput);
            // the path length must grow along the sweep.
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(last.0 > first.0, "{name}: throughput should grow with p");
            assert!(
                last.1 > first.1,
                "{name}: higher throughput must cost longer paths"
            );
        }
    }
}
