//! Aggregation of multicast-tree statistics across many sources.
//!
//! The paper's figures average over multicast sessions from many sources.
//! [`TreeAggregator`] folds per-tree [`TreeStats`]
//! (plus the bottleneck throughput computed against the member set) into
//! the quantities each figure plots.

use cam_overlay::TreeStats;
use cam_trace::{Histogram, Summary};

/// Accumulates tree metrics over multicast sources.
///
/// `PartialEq` compares every accumulated field exactly (bit-level for the
/// floating-point summaries) — the determinism tests use it to check that
/// parallel and serial sampling produce identical aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TreeAggregator {
    /// Hop-count distribution pooled over all trees (Figures 9–10).
    pub path_lengths: Histogram,
    /// Per-tree average path length (Figures 8, 11).
    pub avg_path_len: Summary,
    /// Per-tree average children per non-leaf (Figure 6 x-axis).
    pub avg_children: Summary,
    /// Per-tree bottleneck throughput in kbps (Figures 6–8 y-axis).
    pub throughput_kbps: Summary,
    /// Per-tree depth.
    pub depth: Summary,
    /// Trees that failed to reach every member (should stay 0 in static
    /// experiments).
    pub incomplete: u64,
}

impl TreeAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        TreeAggregator::default()
    }

    /// Folds one multicast's statistics and bottleneck throughput into the
    /// aggregate.
    pub fn record_stats(&mut self, stats: &TreeStats, throughput_kbps: f64) {
        for (hops, &n) in stats.path_len_histogram.iter().enumerate() {
            if hops > 0 {
                // hop 0 is the source itself; the paper plots receivers.
                self.path_lengths.record_n(hops as u64, n);
            }
        }
        self.avg_path_len.record(stats.avg_path_len);
        self.avg_children.record(stats.avg_children_per_internal);
        self.depth.record(f64::from(stats.depth));
        if throughput_kbps.is_finite() {
            self.throughput_kbps.record(throughput_kbps);
        }
        if stats.delivered < stats.group_size {
            self.incomplete += 1;
        }
    }

    /// Number of trees folded in.
    pub fn trees(&self) -> u64 {
        self.avg_path_len.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::{Member, MemberSet, MulticastTree};
    use cam_ring::{Id, IdSpace};

    fn group() -> MemberSet {
        MemberSet::new(
            IdSpace::new(8),
            (0..4u64)
                .map(|i| Member {
                    id: Id(i * 50 + 1),
                    capacity: 3,
                    upload_kbps: 600.0,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn aggregates_two_trees() {
        let g = group();
        // Tree 1: star from 0.
        let mut t1 = MulticastTree::new(4, 0);
        t1.deliver(0, 1);
        t1.deliver(0, 2);
        t1.deliver(0, 3);
        // Tree 2: chain from 1.
        let mut t2 = MulticastTree::new(4, 1);
        t2.deliver(1, 2);
        t2.deliver(2, 3);
        t2.deliver(3, 0);

        let mut agg = TreeAggregator::new();
        for t in [&t1, &t2] {
            agg.record_stats(&t.stats(), t.bottleneck_throughput_kbps(&g));
        }
        assert_eq!(agg.trees(), 2);
        assert_eq!(agg.incomplete, 0);
        // Pooled path lengths: t1 has three 1-hop receivers; t2 has 1,2,3.
        assert_eq!(agg.path_lengths.count(), 6);
        assert_eq!(agg.path_lengths.bucket(1), 4);
        // Throughput: star 600/3 = 200; chain 600/1 = 600.
        assert_eq!(agg.throughput_kbps.min(), 200.0);
        assert_eq!(agg.throughput_kbps.max(), 600.0);
        // Depth: 1 and 3.
        assert_eq!(agg.depth.mean(), 2.0);
    }

    #[test]
    fn incomplete_tree_counted() {
        let g = group();
        let t = MulticastTree::new(4, 0);
        let mut agg = TreeAggregator::new();
        agg.record_stats(&t.stats(), t.bottleneck_throughput_kbps(&g));
        assert_eq!(agg.incomplete, 1);
    }
}
