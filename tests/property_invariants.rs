//! Property-based cross-crate invariants: for arbitrary group sizes,
//! capacity distributions, seeds, and sources, the CAM guarantees hold.

use cam::overlay::StaticOverlay;
use cam::prelude::*;
use proptest::prelude::*;

#[path = "../crates/overlay/tests/support/ring_oracle.rs"]
mod ring_oracle;

/// Strategy: a random scenario small enough to exercise per-case in a
/// property test, heterogeneous capacities included.
fn scenario() -> impl Strategy<Value = (MemberSet, usize)> {
    (2usize..250, 4u32..40, 0u64..1_000).prop_flat_map(|(n, hi_cap, seed)| {
        let group = Scenario::paper_default(seed)
            .with_n(n)
            .with_capacity(CapacityAssignment::Uniform {
                lo: 4,
                hi: hi_cap.max(4),
            })
            .members();
        let len = group.len();
        (Just(group), 0..len)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CAM-Chord multicast: exactly-once, complete, capacity-bounded — for
    /// any group and any source.
    #[test]
    fn cam_chord_multicast_invariants((group, src) in scenario()) {
        let overlay = CamChord::new(group.clone());
        let tree = overlay.multicast_tree(src);
        prop_assert!(tree.is_complete());
        prop_assert!(tree.check_invariants(&group).is_ok());
        // Throughput is at least B_min / c_max by construction.
        let tput = tree.bottleneck_throughput_kbps(&group);
        prop_assert!(tput > 0.0);
    }

    /// CAM-Koorde flooding: same guarantees.
    #[test]
    fn cam_koorde_multicast_invariants((group, src) in scenario()) {
        let overlay = CamKoorde::new(group.clone());
        let tree = overlay.multicast_tree(src);
        prop_assert!(tree.is_complete());
        prop_assert!(tree.check_invariants(&group).is_ok());
    }

    /// Lookups from any origin for any key find the oracle owner, in both
    /// CAM systems.
    #[test]
    fn lookups_always_find_owner(
        (group, origin) in scenario(),
        key_raw in 0u64..(1 << 19),
    ) {
        let key = Id(key_raw);
        let expected = group.owner_idx(key);
        let chord = CamChord::new(group.clone());
        prop_assert_eq!(chord.lookup(origin, key).owner, expected);
        let koorde = CamKoorde::new(group);
        prop_assert_eq!(koorde.lookup(origin, key).owner, expected);
    }

    /// The multicast tree's per-hop histogram always sums to the delivered
    /// count, and depth bounds the histogram's support.
    #[test]
    fn tree_stats_internally_consistent((group, src) in scenario()) {
        let tree = CamChord::new(group.clone()).multicast_tree(src);
        let stats = tree.stats();
        let total: u64 = stats.path_len_histogram.iter().sum();
        prop_assert_eq!(total as usize, stats.delivered);
        prop_assert_eq!(
            stats.path_len_histogram.len() as u32,
            stats.depth + 1,
            "histogram support must end at the depth"
        );
    }

    /// CAM-Chord's neighbor count stays within the paper's
    /// O(c · log N / log c) bound (with constant 1, counting identifiers).
    #[test]
    fn neighbor_count_bounded((group, member) in scenario()) {
        let overlay = CamChord::new(group.clone());
        let c = group.member(member).capacity as f64;
        let bound = c * (19.0 / c.log2()).ceil();
        prop_assert!(
            (overlay.neighbor_count(member) as f64) <= bound,
            "{} neighbors with capacity {c}",
            overlay.neighbor_count(member)
        );
    }

    /// The struct-of-arrays bucket index, the binary-search reference, and
    /// a linear ring scan all resolve every key to the same owner (and the
    /// successor/predecessor pair agrees with its binsearch oracle).
    #[test]
    fn owner_resolution_paths_agree(
        (group, _member) in scenario(),
        key_raw in 0u64..(1 << 19),
    ) {
        let k = Id(key_raw);
        let linear = group
            .iter()
            .position(|m| m.id.value() >= key_raw)
            .unwrap_or(0);
        let oracle = ring_oracle::RingOracle::new(&group);
        prop_assert_eq!(group.owner_idx(k), linear);
        prop_assert_eq!(oracle.owner_idx(k), linear);
        prop_assert_eq!(group.successor_idx(k), oracle.successor_idx(k));
        prop_assert_eq!(group.predecessor_idx(k), oracle.predecessor_idx(k));
    }

    /// Streaming tree statistics equal the materialized-tree path exactly
    /// — integer fields by equality, throughput bit-for-bit — for any
    /// group and source, on all five overlays (the random-ring complement
    /// of `tests/small_rings.rs`).
    #[test]
    fn streaming_stats_match_materialized_tree((group, src) in scenario()) {
        let delay = |a: usize, b: usize| 1.0 + ((a * 7 + b * 13) % 11) as f64;
        let overlays: [Box<dyn StaticOverlay + '_>; 5] = [
            Box::new(CamChord::new(group.clone())),
            Box::new(CamKoorde::new(group.clone())),
            Box::new(cam::chord::Chord::new(group.clone(), 2)),
            Box::new(cam::koorde::Koorde::new(group.clone(), 8)),
            Box::new(cam::core::cam_chord::ProximityCamChord::new(group.clone(), &delay)),
        ];
        for overlay in &overlays {
            let tree = overlay.multicast_tree(src);
            let (stats, tput) = overlay.multicast_stats(src);
            prop_assert_eq!(stats, tree.stats(), "{}", overlay.name());
            prop_assert_eq!(
                tput.to_bits(),
                tree.bottleneck_throughput_kbps(&group).to_bits(),
                "{}",
                overlay.name()
            );
        }
    }

    /// The simulator's radix event queue pops in exactly the order of a
    /// `BinaryHeap<Reverse<(at, seq)>>` for any push/pop interleaving that
    /// respects its monotone rule (no push below the last popped instant):
    /// zero delays landing on the floor, bursts of one instant, pushes at
    /// the floor after its bucket drained, times up to `u64::MAX`, pops
    /// with deadlines that must leave later events (and the floor) alone,
    /// and the queue running empty and refilling.
    #[test]
    fn event_queue_pops_in_heap_oracle_order(
        ops in prop::collection::vec((0u8..12, 0u8..8, 0u64..u64::MAX), 1..300),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use cam::sim::queue::EventQueue;
        use cam::sim::time::SimTime;

        type Oracle = BinaryHeap<Reverse<(u64, u64)>>;
        /// Pops from both if the oracle's head is due; returns its instant.
        fn pop(queue: &mut EventQueue<u64>, oracle: &mut Oracle, deadline: u64) -> Option<u64> {
            let due = oracle.peek().is_some_and(|r| r.0 .0 <= deadline);
            let want = if due { oracle.pop().map(|r| r.0) } else { None };
            let got = queue.pop_due(SimTime(deadline)).map(|(at, s)| (at.0, s));
            assert_eq!(got, want, "deadline {deadline}");
            got.map(|(at, _)| at)
        }

        let mut queue = EventQueue::new();
        let mut oracle = Oracle::new();
        let mut seq = 0u64;
        let mut floor = 0u64;
        for &(kind, class, raw) in &ops {
            let delay = match class {
                0 => 0,
                1 | 2 => raw % 8,
                3..=5 => raw % 5_000,
                6 => raw % (1 << 40),
                _ => raw,
            };
            let at = floor.saturating_add(delay);
            match kind {
                // One push, or (kind 5) a burst at one instant.
                0..=5 => {
                    let burst = if kind == 5 { 1 + raw % 7 } else { 1 };
                    for _ in 0..burst {
                        queue.push(SimTime(at), seq);
                        oracle.push(Reverse((at, seq)));
                        seq += 1;
                    }
                }
                6..=8 => floor = pop(&mut queue, &mut oracle, u64::MAX).unwrap_or(floor),
                _ => floor = pop(&mut queue, &mut oracle, at).unwrap_or(floor),
            }
            prop_assert_eq!(queue.peek().map(|t| t.0), oracle.peek().map(|r| r.0 .0));
        }
        while pop(&mut queue, &mut oracle, u64::MAX).is_some() {}
        prop_assert_eq!(queue.peek(), None);
    }
}
