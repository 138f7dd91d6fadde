//! Pooled parallelism must be invisible in the results.
//!
//! The overhaul's contract: [`sample_trees`] produces output
//! *bit-identical* to its serial equivalent, regardless of worker count or
//! scheduling (the pool itself is tested beside it, in `runner.rs`).
//! `TreeAggregator`'s `PartialEq` compares every accumulated float exactly,
//! so these tests catch any reordering of floating-point folds, not just
//! gross divergence.

use cam_core::{CamChord, CamKoorde};
use cam_experiments::runner::{sample_distinct_sources, sample_trees};
use cam_experiments::TreeAggregator;
use cam_overlay::StaticOverlay;
use cam_workload::Scenario;

const N: usize = 2_500;

/// The reference [`sample_trees`] is held to: the same sources, one after
/// another on this thread, each tree materialized and then summarized.
fn serial_fold(overlay: &dyn StaticOverlay, sources: usize, seed: u64) -> TreeAggregator {
    let mut agg = TreeAggregator::new();
    for src in sample_distinct_sources(overlay.members().len(), sources, seed) {
        let tree = overlay.multicast_tree(src);
        agg.record_stats(
            &tree.stats(),
            tree.bottleneck_throughput_kbps(overlay.members()),
        );
    }
    agg
}

#[test]
fn sample_trees_pooled_matches_serial_cam_chord() {
    let overlay = CamChord::new(Scenario::paper_default(21).with_n(N).members());
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let pooled = sample_trees(&overlay, 4, seed);
        let serial = serial_fold(&overlay, 4, seed);
        assert_eq!(pooled, serial, "seed {seed}");
        assert_eq!(pooled.trees(), 4);
    }
}

#[test]
fn sample_trees_pooled_matches_serial_cam_koorde() {
    let overlay = CamKoorde::new(Scenario::paper_default(22).with_n(N).members());
    let pooled = sample_trees(&overlay, 3, 99);
    let serial = serial_fold(&overlay, 3, 99);
    assert_eq!(pooled, serial);
}

#[test]
fn distinct_sources_are_distinct_and_stable() {
    for (n, k) in [(10usize, 10usize), (100, 5), (2_500, 5), (3, 7)] {
        let a = sample_distinct_sources(n, k, 42);
        let b = sample_distinct_sources(n, k, 42);
        assert_eq!(a, b, "same seed must reproduce the same draw");
        assert_eq!(a.len(), k.min(n));
        let uniq: std::collections::BTreeSet<usize> = a.iter().copied().collect();
        assert_eq!(
            uniq.len(),
            a.len(),
            "sources must be distinct (n={n}, k={k})"
        );
        assert!(a.iter().all(|&s| s < n));
    }
    assert_ne!(
        sample_distinct_sources(1_000, 5, 1),
        sample_distinct_sources(1_000, 5, 2),
        "different seeds should (overwhelmingly) differ"
    );
}

/// Exhaustive distinctness on a small space: even k == n is a permutation.
#[test]
fn distinct_sources_full_permutation() {
    for seed in 0..20u64 {
        let mut s = sample_distinct_sources(8, 8, seed);
        s.sort_unstable();
        assert_eq!(s, (0..8).collect::<Vec<_>>(), "seed {seed}");
    }
}
