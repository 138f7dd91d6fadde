//! Dissemination, written once: the two walks every static overlay runs
//! and the sinks they report to. No other crate walks a [`MemberSet`]
//! breadth-first.
//!
//! * [`region_walk`] — CAM-Chord's `MULTICAST(msg, k)` (§3.4) and every
//!   scheme shaped like it (El-Ansary broadcast over Chord fingers,
//!   proximity-chosen cut points): a node responsible for the region
//!   `(x, k]` hands disjoint sub-regions to children. The protocol supplies
//!   only the child rule, as a `select` closure.
//! * [`flood_walk`] — CAM-Koorde's duplicate-suppressed flood (§4.3), also
//!   run by the Koorde baseline. The protocol supplies only the adjacency,
//!   as a `neighbors` closure.
//!
//! Both report each delivery to a [`DeliverySink`], so one pass produces
//! whatever the caller asked for: the materialized [`MulticastTree`], or
//! [`StreamingTreeStats`] — the same [`TreeStats`] and bottleneck
//! throughput in `O(depth)` memory, which is what the sweep harness samples
//! (at a million members a tree's flat arrays cost ~20 MB each).
//!
//! # Sink contract
//!
//! A walk calls `deliver(parent, child, hops)` **at most once per child,
//! never for the source, and grouped by parent** (each node is expanded
//! once, its children reported back to back). A sink may therefore count
//! without remembering — [`StreamingTreeStats`] recovers fan-out by
//! run-length — and return `true` unconditionally; `false` tells the walk
//! not to forward through `child`. The region walk gets "at most once"
//! from the partition: sibling regions are disjoint, so a repeat is a
//! protocol bug (debug-asserted). The flood has no such structure, so
//! [`flood_walk`] owns the visited set and filters before the sink.
//!
//! # Exactness
//!
//! Streaming results are **bit-identical** to `tree.stats()` +
//! `tree.bottleneck_throughput_kbps(group)` on the same walk: counts, hop
//! totals and the histogram are integer accumulators, the two `f64`
//! averages are single divisions of those integers, and the bottleneck is a
//! running `min` over finite positive ratios — all order-independent.
//! `tests/small_rings.rs` holds both sinks to exact equality for all five
//! overlays on every small ring, `tests/property_invariants.rs` on random
//! ones.

use std::cell::RefCell;
use std::collections::VecDeque;

use cam_ring::Id;

use crate::tree::TreeStats;
use crate::{MemberSet, MulticastTree};

/// A consumer of multicast delivery events, fed by the two walks.
///
/// See the [module docs](self) for what a walk guarantees its sink.
pub trait DeliverySink {
    /// Records that `parent` forwarded the message to `child`, which is
    /// `hops` from the source (parent's distance + 1). Returns `false` iff
    /// `child` already had the message; the walk then does not forward
    /// through it.
    fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool;
}

/// One child of a region split: the member index and the inclusive end of
/// the region it becomes responsible for.
pub type RegionChild = (usize, Id);

/// Runs a region-splitting multicast from `source` over the whole ring.
///
/// The initial region is `(source, source − 1]` — everyone but the source,
/// the paper's `x.MULTICAST(x − 1, msg)`. For each node taken off the work
/// queue, `select(node, k, picks)` fills the (cleared) `picks` with the
/// children of `node` for the region `(node, k]`; each is delivered one hop
/// further out and queued with its own region end.
///
/// # Panics
///
/// Panics if `source` is out of range, or (via `debug_assert`) if `select`
/// leaks a region and a child is reported twice.
pub fn region_walk<S, F>(group: &MemberSet, source: usize, sink: &mut S, mut select: F)
where
    S: DeliverySink + ?Sized,
    F: FnMut(usize, Id, &mut Vec<RegionChild>),
{
    // Work queue of (member, region end, hop distance) — the recursion of
    // the paper, iteratively — plus the child-selection buffer.
    // Thread-local so the capacity learned on one tree is reused by every
    // later tree built on this thread (the experiment harness builds
    // thousands per sweep).
    type Scratch = (VecDeque<(usize, Id, u32)>, Vec<RegionChild>);
    thread_local! {
        static SCRATCH: RefCell<Scratch> =
            const { RefCell::new((VecDeque::new(), Vec::new())) };
    }
    SCRATCH.with(|scratch| {
        let (queue, picks) = &mut *scratch.borrow_mut();
        queue.clear();
        queue.push_back((source, group.space().sub(group.id_at(source), 1), 0));
        while let Some((node, k, hops)) = queue.pop_front() {
            picks.clear();
            select(node, k, picks);
            for &(child, region_end) in picks.iter() {
                let fresh = sink.deliver(node, child, hops + 1);
                debug_assert!(fresh, "duplicate delivery to member {child} — region leak");
                if fresh {
                    queue.push_back((child, region_end, hops + 1));
                }
            }
        }
    });
}

/// The step every region split is made of (`MULTICAST` lines 9 and 14,
/// and El-Ansary's finger walk): adopt `owner(target)` as the child for the
/// tail `(child, k′]` if it lies inside `(x, k′]`, then retreat `k′` to
/// `target − 1` either way.
///
/// A skipped owner sits beyond `k′`, so the gap `(target − 1, k′]` it
/// leaves holds no member: retreating past it strands nobody, while *not*
/// checking would let the message escape its region and arrive twice.
#[inline]
pub fn adopt_owner(
    group: &MemberSet,
    x: Id,
    target: Id,
    k_prime: &mut Id,
    out: &mut Vec<RegionChild>,
) {
    let space = group.space();
    let child = group.owner_idx(target);
    if space.in_segment(group.id_at(child), x, *k_prime) {
        out.push((child, *k_prime));
    }
    *k_prime = space.sub(target, 1);
}

/// Floods from `source` over an `n`-member adjacency, embedding the flood
/// into its implicit BFS tree: each member's parent is the neighbor whose
/// copy arrived first.
///
/// # Panics
///
/// Panics if `source` or a neighbor index is `>= n`.
pub fn flood_walk<'a, S, F>(n: usize, source: usize, sink: &mut S, neighbors: F)
where
    S: DeliverySink + ?Sized,
    F: Fn(usize) -> &'a [usize],
{
    // Work queue of (member, hop distance) and the visited set, reused
    // across sources like the region walk's scratch.
    type Scratch = (VecDeque<(usize, u32)>, Vec<bool>);
    thread_local! {
        static SCRATCH: RefCell<Scratch> =
            const { RefCell::new((VecDeque::new(), Vec::new())) };
    }
    SCRATCH.with(|scratch| {
        let (queue, visited) = &mut *scratch.borrow_mut();
        visited.clear();
        visited.resize(n, false);
        visited[source] = true;
        queue.clear();
        queue.push_back((source, 0));
        while let Some((node, hops)) = queue.pop_front() {
            for &nb in neighbors(node) {
                if !std::mem::replace(&mut visited[nb], true)
                    && sink.deliver(node, nb, hops + 1)
                {
                    queue.push_back((nb, hops + 1));
                }
            }
        }
    });
}

impl DeliverySink for MulticastTree {
    fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool {
        let fresh = MulticastTree::deliver(self, parent, child);
        debug_assert!(
            !fresh || self.hops_to(child) == Some(hops),
            "driver hop count diverged from tree bookkeeping"
        );
        fresh
    }
}

/// Sentinel parent index for "no run open yet".
const NO_RUN: usize = usize::MAX;

/// A [`DeliverySink`] that computes [`TreeStats`] and the bottleneck
/// throughput on the fly, holding only the hop histogram and the current
/// parent run — `O(depth)` memory instead of the tree's `O(n)`.
///
/// See the [module docs](self) for the exactness argument and the
/// grouped-by-parent contract it relies on.
#[derive(Debug, Clone)]
pub struct StreamingTreeStats<'a> {
    group: &'a MemberSet,
    delivered: usize,
    total_hops: u64,
    depth: u32,
    /// `hist[h]` = members at hop distance `h`; starts as `[1]` (the source).
    hist: Vec<u64>,
    /// Parent of the delivery run currently being counted, or [`NO_RUN`].
    run_parent: usize,
    run_len: u32,
    internal_nodes: usize,
    total_children: u64,
    max_fanout: usize,
    /// Running `min(upload_kbps / fanout)` over closed runs.
    min_ratio: f64,
}

impl<'a> StreamingTreeStats<'a> {
    /// Starts a streaming accumulation for one multicast over `group`.
    pub fn new(group: &'a MemberSet) -> Self {
        StreamingTreeStats {
            group,
            delivered: 1,
            total_hops: 0,
            depth: 0,
            hist: vec![1],
            run_parent: NO_RUN,
            run_len: 0,
            internal_nodes: 0,
            total_children: 0,
            max_fanout: 0,
            min_ratio: f64::INFINITY,
        }
    }

    /// Folds the finished run of `run_parent` into the internal-node
    /// aggregates — mirrors one `fanout > 0` member of the materialized
    /// `stats()` / `bottleneck_throughput_kbps` loops.
    fn close_run(&mut self) {
        if self.run_parent != NO_RUN && self.run_len > 0 {
            self.internal_nodes += 1;
            self.total_children += u64::from(self.run_len);
            self.max_fanout = self.max_fanout.max(self.run_len as usize);
            let ratio = self.group.upload_kbps_at(self.run_parent) / f64::from(self.run_len);
            self.min_ratio = self.min_ratio.min(ratio);
        }
        self.run_len = 0;
    }

    /// Finishes the accumulation, returning the summary statistics and the
    /// bottleneck throughput in kbps (`f64::INFINITY` for a leaf-only run,
    /// exactly like `bottleneck_throughput_kbps` on a single-member tree).
    pub fn finish(mut self) -> (TreeStats, f64) {
        self.close_run();
        let stats = TreeStats {
            delivered: self.delivered,
            group_size: self.group.len(),
            depth: self.depth,
            avg_path_len: if self.delivered > 1 {
                self.total_hops as f64 / (self.delivered - 1) as f64
            } else {
                0.0
            },
            path_len_histogram: self.hist,
            internal_nodes: self.internal_nodes,
            avg_children_per_internal: if self.internal_nodes == 0 {
                0.0
            } else {
                self.total_children as f64 / self.internal_nodes as f64
            },
            max_fanout: self.max_fanout,
        };
        (stats, self.min_ratio)
    }
}

impl DeliverySink for StreamingTreeStats<'_> {
    fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool {
        debug_assert!(parent < self.group.len() && child < self.group.len());
        if parent != self.run_parent {
            self.close_run();
            self.run_parent = parent;
        }
        self.run_len += 1;
        if self.hist.len() <= hops as usize {
            self.hist.resize(hops as usize + 1, 0);
        }
        self.hist[hops as usize] += 1;
        self.total_hops += u64::from(hops);
        self.depth = self.depth.max(hops);
        self.delivered += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Member;
    use cam_ring::{Id, IdSpace};

    fn group(n: usize) -> MemberSet {
        MemberSet::new(
            IdSpace::new(10),
            (0..n)
                .map(|i| Member {
                    id: Id(i as u64 * 7 + 1),
                    capacity: 3,
                    upload_kbps: 400.0 + i as f64 * 50.0,
                })
                .collect(),
        )
        .unwrap()
    }

    /// Replays the same delivery sequence into both sinks and demands exact
    /// equality of every statistic, f64 bits included.
    #[test]
    fn streaming_matches_materialized_exactly() {
        let g = group(6);
        // 0 → {1, 2, 3}; 1 → {4}; 4 → {5}: depth 3, mixed fanouts.
        let edges: [(usize, usize, u32); 5] =
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 2), (4, 5, 3)];
        let mut tree = MulticastTree::new(6, 0);
        let mut streaming = StreamingTreeStats::new(&g);
        for &(p, c, h) in &edges {
            assert!(DeliverySink::deliver(&mut tree, p, c, h));
            assert!(streaming.deliver(p, c, h));
        }
        let (stats, tput) = streaming.finish();
        assert_eq!(stats, tree.stats());
        assert_eq!(
            tput.to_bits(),
            tree.bottleneck_throughput_kbps(&g).to_bits()
        );
    }

    #[test]
    fn leaf_only_run_reports_infinite_throughput() {
        let g = group(3);
        let (stats, tput) = StreamingTreeStats::new(&g).finish();
        assert_eq!(stats, MulticastTree::new(3, 0).stats());
        assert_eq!(tput, f64::INFINITY);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.path_len_histogram, vec![1]);
    }

    #[test]
    fn tree_sink_suppresses_duplicates() {
        let mut tree = MulticastTree::new(3, 0);
        assert!(DeliverySink::deliver(&mut tree, 0, 1, 1));
        assert!(!DeliverySink::deliver(&mut tree, 0, 1, 1));
        assert_eq!(tree.delivered(), 2);
    }
}
