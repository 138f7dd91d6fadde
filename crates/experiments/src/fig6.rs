//! Figure 6: multicast throughput vs. average number of children per
//! non-leaf node, for CAM-Chord, Chord, CAM-Koorde, and Koorde.
//!
//! The x-axis is the *configured* mean degree — mean capacity `c̄ = B̄/p`
//! for the CAMs, the uniform degree `k` for the capacity-oblivious
//! baselines — matching the paper's sweep (a tree-measured "children per
//! non-leaf" would be dragged down by the 1-child chain nodes at the
//! bottom of every region tree when `n ≪ N`).
//!
//! Baselines:
//!
//! * **Chord** — uniform degree `k` for every node, same region-splitting
//!   dissemination as CAM-Chord but capacity-*oblivious* (`k` independent
//!   of bandwidth). This isolates exactly the paper's point: the
//!   bottleneck node is a slow host with a full family, so throughput is
//!   `min B / k ≈ 400/k` versus the CAMs' `≈ p = B̄/c̄` — the reported
//!   70–80% gap at `B ∈ U[400, 1000]`.
//! * **Chord (El-Ansary)** — classic Chord broadcast over base-`k`
//!   fingers, where tree degree additionally varies with position (root ≈
//!   `(k−1)·log_k n`), degrading throughput further.
//! * **Koorde** — uniform-degree flooding: the same spread-neighbor
//!   topology as CAM-Koorde but with every node's degree fixed at `k`
//!   regardless of bandwidth. (Literal left-shift Koorde cannot even reach
//!   the paper's 10–70 children per node at `n = 10^5, N = 2^19`: its `k`
//!   consecutive neighbor identifiers collapse onto ~`k·n/N` distinct
//!   nodes. It is included as the extra series "Koorde (left-shift)" to
//!   quantify exactly that clustering.)

use cam_core::{CamChord, CamKoorde};
use cam_workload::{BandwidthDist, CapacityAssignment, Scenario};
use chord_overlay::Chord;
use koorde_overlay::Koorde;

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// Mean degrees swept (CAMs: mean capacity; baselines: uniform degree).
pub const DEGREE_TARGETS: [u32; 8] = [5, 7, 10, 14, 20, 28, 45, 70];
/// Uniform degrees swept by the literal left-shift Koorde (powers of two).
pub const KOORDE_DEGREES: [u32; 5] = [4, 8, 16, 32, 64];

/// Runs the Figure 6 sweep.
pub fn run(opts: &Options) -> DataTable {
    let mut table = DataTable::new(
        "Figure 6: multicast throughput vs average children per non-leaf",
        "avg_children",
    );
    let mean_b = BandwidthDist::PAPER.mean();

    let points = parallel_sweep(DEGREE_TARGETS.to_vec(), |&target| {
        let seed = opts.sub_seed(u64::from(target));
        // Capacity-aware group: c = floor(B/p) with p = B̄/target.
        let cam_group = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::PerLink {
                p: mean_b / f64::from(target),
                min: 4,
                max: 4096,
            })
            .members();
        // Capacity-oblivious group: same hosts' bandwidths, uniform degree.
        let base_group = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::Constant(target))
            .members();

        let cam_x = cam_group.mean_capacity();
        let cam_chord = sample_trees(&CamChord::new(cam_group.clone()), opts.sources, seed ^ 1)
            .throughput_kbps
            .mean();
        let cam_koorde = sample_trees(&CamKoorde::new(cam_group), opts.sources, seed ^ 2)
            .throughput_kbps
            .mean();
        let chord_uniform =
            sample_trees(&CamChord::new(base_group.clone()), opts.sources, seed ^ 3)
                .throughput_kbps
                .mean();
        let chord_elansary = sample_trees(
            &Chord::new(base_group.clone(), target),
            opts.sources,
            seed ^ 4,
        )
        .throughput_kbps
        .mean();
        let koorde_uniform = sample_trees(&CamKoorde::new(base_group), opts.sources, seed ^ 5)
            .throughput_kbps
            .mean();
        (
            cam_x,
            cam_chord,
            cam_koorde,
            chord_uniform,
            chord_elansary,
            koorde_uniform,
        )
    });

    let mut cam_chord = DataSeries::new("CAM-Chord");
    let mut cam_koorde = DataSeries::new("CAM-Koorde");
    let mut chord_uniform = DataSeries::new("Chord");
    let mut chord_elansary = DataSeries::new("Chord (El-Ansary)");
    let mut koorde_uniform = DataSeries::new("Koorde");
    for (&target, (cam_x, cc, ck, cu, ce, ku)) in DEGREE_TARGETS.iter().zip(points) {
        cam_chord.push(cam_x, cc);
        cam_koorde.push(cam_x, ck);
        chord_uniform.push(f64::from(target), cu);
        chord_elansary.push(f64::from(target), ce);
        koorde_uniform.push(f64::from(target), ku);
    }

    let koorde_points = parallel_sweep(KOORDE_DEGREES.to_vec(), |&k| {
        let group = Scenario::paper_default(opts.sub_seed(2000 + u64::from(k)))
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::Constant(k + 2))
            .members();
        sample_trees(&Koorde::new(group, k), opts.sources, opts.sub_seed(5))
            .throughput_kbps
            .mean()
    });
    let mut koorde_ls = DataSeries::new("Koorde (left-shift)");
    for (&k, y) in KOORDE_DEGREES.iter().zip(koorde_points) {
        koorde_ls.push(f64::from(k), y);
    }

    table.push(cam_chord);
    table.push(chord_uniform);
    table.push(chord_elansary);
    table.push(cam_koorde);
    table.push(koorde_uniform);
    table.push(koorde_ls);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cams_beat_baselines_at_comparable_fanout() {
        let mut opts = Options::quick();
        opts.n = 2_000;
        opts.sources = 2;
        let table = run(&opts);
        assert_eq!(table.series.len(), 6);
        // Compare near degree 10 (CAM x is the measured mean capacity,
        // which lands close to the configured 10).
        let cam = table
            .series_named("CAM-Chord")
            .unwrap()
            .y_near(10.0)
            .unwrap();
        let chord = table.series_named("Chord").unwrap().y_near(10.0).unwrap();
        assert!(
            cam > chord * 1.3,
            "CAM-Chord ({cam:.1}) should clearly beat uniform-degree Chord ({chord:.1})"
        );
        let elansary = table
            .series_named("Chord (El-Ansary)")
            .unwrap()
            .y_near(10.0)
            .unwrap();
        assert!(
            chord >= elansary,
            "uniform-degree Chord ({chord:.1}) should be no worse than El-Ansary ({elansary:.1})"
        );
        let camk = table
            .series_named("CAM-Koorde")
            .unwrap()
            .y_near(10.0)
            .unwrap();
        let koorde = table.series_named("Koorde").unwrap().y_near(10.0).unwrap();
        assert!(
            camk > koorde,
            "CAM-Koorde ({camk:.1}) should beat Koorde ({koorde:.1})"
        );
    }

    #[test]
    fn throughput_decreases_with_fanout() {
        let mut opts = Options::quick();
        opts.n = 1_500;
        opts.sources = 2;
        let table = run(&opts);
        let cam = table.series_named("CAM-Chord").unwrap();
        let first = cam.points.first().unwrap().1;
        let last = cam.points.last().unwrap().1;
        assert!(first > last, "more children → lower per-link bandwidth");
    }

    /// The paper's headline: ~70–80% improvement at the default workload
    /// (B ∈ U[400, 1000], mean degree ≈ 7): ratio ≈ (a+b)/2a = 1.75.
    #[test]
    fn improvement_matches_mean_over_min_bandwidth() {
        let mut opts = Options::quick();
        opts.n = 3_000;
        opts.sources = 3;
        let table = run(&opts);
        let cam = table
            .series_named("CAM-Chord")
            .unwrap()
            .y_near(7.0)
            .unwrap();
        let chord = table.series_named("Chord").unwrap().y_near(7.0).unwrap();
        let ratio = cam / chord;
        assert!(
            (1.4..2.2).contains(&ratio),
            "improvement ratio {ratio:.2} should be near 1.75"
        );
    }
}
