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

    /// The sharded event queue pops in the exact single-heap order for
    /// any shard count: `seq` uniqueness makes `(at, seq)` a strict total
    /// order that the shard layout cannot perturb.
    #[test]
    fn sharded_queue_pop_order_independent_of_shard_count(
        shards in 1usize..32,
        events in prop::collection::vec((0usize..64, 0u64..50), 1..200),
    ) {
        use cam::sim::shard::{EventKey, ShardedEventQueue};
        use cam::sim::time::{Duration, SimTime};

        let keyed: Vec<(usize, EventKey)> = events
            .iter()
            .enumerate()
            .map(|(seq, &(actor, micros))| {
                (
                    actor,
                    EventKey {
                        at: SimTime::ZERO + Duration::from_micros(micros),
                        seq: seq as u64,
                        slot: seq,
                    },
                )
            })
            .collect();
        let drain = |mut q: ShardedEventQueue| -> Vec<EventKey> {
            std::iter::from_fn(move || q.pop()).collect()
        };
        let mut reference = ShardedEventQueue::new(1);
        for &(actor, key) in &keyed {
            reference.push(actor, key);
        }
        let mut sharded = ShardedEventQueue::new(shards);
        for &(actor, key) in &keyed {
            sharded.push(actor, key);
        }
        prop_assert_eq!(sharded.len(), keyed.len());
        prop_assert_eq!(drain(sharded), drain(reference));
    }
}
