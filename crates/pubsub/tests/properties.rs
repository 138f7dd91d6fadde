//! Property tests for the pub/sub service layer.
//!
//! Three laws under random universes, ledgers and subscription schedules:
//!
//! 1. **Residual-capacity partition exactness** — every group the
//!    registry holds a tree for covers each of its subscribers exactly
//!    once (no duplicate delivery, no one missed), its committed charges
//!    equal the tree's edge count exactly, and the global ledger never
//!    overcommits any node — after every operation, not just at the end.
//! 2. **Zipf determinism** — replaying a [`MultiGroupScenario`] sequence
//!    from the same seed produces a bit-identical per-group census.
//! 3. **One merge prices like the single lookups** — a whole subscriber
//!    list's `residuals_excluding` equals `residual_excluding` node by node.

use cam_overlay::{DeliverySink, Member, MemberSet};
use cam_pubsub::{CapacityLedger, GroupRegistry};
use cam_ring::{Id, IdSpace};
use cam_trace::GroupDeliveryCensus;
use cam_workload::{GroupOp, MultiGroupScenario};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Counts deliveries per universe index so a duplicate would be visible
/// even if the driver's own debug assertions were compiled out.
struct CountingSink {
    deliveries: Vec<u32>,
}

impl DeliverySink for CountingSink {
    fn deliver(&mut self, _parent: usize, child: usize, _hops: u32) -> bool {
        self.deliveries[child] += 1;
        self.deliveries[child] == 1
    }
}

/// A random universe: `n` members with distinct ids and capacities in
/// `[2, 8)`, all derived from `seed`.
fn arb_universe() -> impl Strategy<Value = MemberSet> {
    (2usize..28, 0u64..1_000_000).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = IdSpace::new(16);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let members = ids
            .iter()
            .map(|&v| Member::with_capacity(Id(v), rng.gen_range(2..8)))
            .collect();
        MemberSet::new(space, members).expect("distinct ids, capacities >= 2")
    })
}

/// Full coverage audit of one registry state: every held tree partitions
/// its subscriber set exactly, stalled groups charge nothing, and the
/// ledger's global bound holds.
fn audit(reg: &GroupRegistry) {
    assert!(reg.ledger().verify().is_ok(), "ledger overcommitted");
    for g in reg.group_ids() {
        let subs = reg.subscriber_count(g);
        let charges: u32 = reg.ledger().group_charges(g).iter().map(|&(_, c)| c).sum();
        if reg.is_stalled(g) {
            assert_eq!(charges, 0, "stalled group {g} still charged");
            continue;
        }
        let mut sink = CountingSink {
            deliveries: vec![0; reg.universe().len()],
        };
        let stats = reg.publish_into(g, &mut sink).expect("group exists");
        assert_eq!(stats.subscribers, subs);
        if subs == 0 {
            continue;
        }
        // Exactness: everyone reached, nobody twice, and the committed
        // charge is exactly the tree's edge count (subscribers − 1).
        assert_eq!(
            stats.reached, subs,
            "group {g} reached {} of {subs} subscribers",
            stats.reached
        );
        assert!(
            sink.deliveries.iter().all(|&d| d <= 1),
            "group {g} delivered a payload twice"
        );
        let delivered = sink.deliveries.iter().filter(|&&d| d == 1).count();
        assert_eq!(delivered, subs - 1, "edges != subscribers - 1");
        assert_eq!(
            charges as usize,
            subs - 1,
            "ledger charge drifted from tree"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random universes and subscribe/unsubscribe/destroy schedules over
    /// four groups: after every operation the registry's trees exactly
    /// partition their subscriber sets and the ledger stays within every
    /// node's global capacity.
    #[test]
    fn admitted_groups_partition_their_subscribers_exactly(
        universe in arb_universe(),
        script in prop::collection::vec((0u8..10, 1u64..5, 0usize..1000), 0..80),
    ) {
        let n = universe.len();
        let mut reg = GroupRegistry::new(universe);
        for g in 1..=4u64 {
            reg.create_group(g).expect("fresh group id");
        }
        for (action, group, node) in script {
            let node = node % n;
            match action {
                // 60% subscribe, 30% unsubscribe, 10% destroy+recreate.
                0..=5 => {
                    let _ = reg.subscribe(group, node);
                }
                6..=8 => {
                    let _ = reg.unsubscribe(group, node);
                }
                _ => {
                    let _ = reg.destroy_group(group);
                    reg.create_group(group).expect("just destroyed");
                }
            }
            audit(&reg);
        }
    }

    /// Same seed, same workload, same universe ⇒ bit-identical per-group
    /// delivery census — the determinism contract the sim/wire parity
    /// tests build on.
    #[test]
    fn zipf_replay_produces_bit_identical_census(
        seed in 0u64..(1u64 << 48),
        n_groups in 1usize..8,
    ) {
        let replay = || {
            let scenario = MultiGroupScenario::new(24, n_groups, seed);
            let ops = scenario.subscription_churn(40, 80);
            let space = IdSpace::new(16);
            let members: Vec<Member> = (0..24u64)
                .map(|i| Member::with_capacity(Id(i * (space.size() / 24)), 4))
                .collect();
            let mut reg =
                GroupRegistry::new(MemberSet::new(space, members).expect("valid universe"));
            let mut census = GroupDeliveryCensus::new();
            for op in ops {
                match op {
                    GroupOp::Create { group } => {
                        let _ = reg.create_group(group);
                    }
                    GroupOp::Subscribe { group, node } => {
                        let _ = reg.subscribe(group, node);
                    }
                    GroupOp::Unsubscribe { group, node } => {
                        let _ = reg.unsubscribe(group, node);
                    }
                    GroupOp::Publish { group } => {
                        let _ = reg.publish_census(group, &mut census);
                    }
                }
            }
            census
        };
        let a = replay();
        let b = replay();
        prop_assert!(!a.is_empty(), "workload always publishes");
        prop_assert_eq!(a, b);
    }

    /// Random ledgers — commits with repeated nodes and zero entries,
    /// recommits, releases — price any ascending node list in one merge
    /// exactly as node-by-node lookups do, for every group and for one
    /// that never committed.
    #[test]
    fn merged_residuals_equal_single_lookups(
        capacities in prop::collection::vec(2u32..12, 1..40),
        commits in prop::collection::vec(
            (0u64..6, prop::collection::vec((0usize..1000, 0u32..4), 0..12)),
            0..16,
        ),
        picks in prop::collection::vec(0u8..2, 40..41),
    ) {
        let n = capacities.len();
        let mut ledger = CapacityLedger::new(capacities);
        for (group, charges) in commits {
            if charges.is_empty() {
                ledger.release(group);
            } else {
                ledger.commit(group, charges.into_iter().map(|(node, c)| (node % n, c)).collect());
            }
        }
        let nodes: Vec<usize> = (0..n).filter(|&i| picks[i] == 1).collect();
        for group in 0..7u64 {
            let merged = ledger.residuals_excluding(&nodes, group);
            let single: Vec<u32> =
                nodes.iter().map(|&node| ledger.residual_excluding(node, group)).collect();
            prop_assert_eq!(merged, single, "group {}", group);
        }
    }
}
