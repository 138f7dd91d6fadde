//! Property tests for the precomputed bucket index behind
//! [`MemberSet::owner_idx`] / `successor_idx` / `predecessor_idx`.
//!
//! The binary-search [`RingOracle`] is the reference: the indexed
//! resolvers must agree with it on **every key of the identifier space**
//! for arbitrary member sets — including the wrap-around region past the
//! last member and single-member groups. A subset of a group, built from
//! its columns, must equal a fresh build over the same members.

use std::collections::BTreeSet;

use cam_overlay::{Member, MemberSet};
use cam_ring::{Id, IdSpace};
use proptest::prelude::*;

#[path = "support/ring_oracle.rs"]
mod ring_oracle;
use ring_oracle::RingOracle;

fn build(bits: u32, raw_ids: Vec<u64>) -> MemberSet {
    let ids: BTreeSet<u64> = raw_ids.into_iter().collect();
    MemberSet::new(
        IdSpace::new(bits),
        ids.iter()
            .map(|&v| Member::with_capacity(Id(v), 2 + (v % 7) as u32))
            .collect(),
    )
    .expect("deduplicated ids build a valid member set")
}

fn assert_resolvers_agree(group: &MemberSet) {
    let oracle = RingOracle::new(group);
    for k in 0..group.space().size() {
        let k = Id(k);
        assert_eq!(group.owner_idx(k), oracle.owner_idx(k), "owner of {k:?}");
        assert_eq!(
            group.successor_idx(k),
            oracle.successor_idx(k),
            "successor of {k:?}"
        );
        assert_eq!(
            group.predecessor_idx(k),
            oracle.predecessor_idx(k),
            "predecessor of {k:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exhaustive agreement over the whole key space of random groups.
    #[test]
    fn indexed_resolution_matches_binsearch(
        (bits, raw_ids) in (3u32..=11).prop_flat_map(|bits| {
            (Just(bits), prop::collection::vec(0u64..(1u64 << bits), 1..200))
        })
    ) {
        let group = build(bits, raw_ids);
        assert_resolvers_agree(&group);
    }

    /// A subset of a universe is `MemberSet::new` over the same members:
    /// column for column, and in every resolver over the whole key space.
    #[test]
    fn subset_equals_a_fresh_build(
        (bits, raw_ids, picks) in (3u32..=11).prop_flat_map(|bits| {
            (
                Just(bits),
                prop::collection::vec(0u64..(1u64 << bits), 1..200),
                prop::collection::vec(0u8..2, 200..201),
            )
        })
    ) {
        let universe = build(bits, raw_ids);
        let mut idx: Vec<usize> = (0..universe.len()).filter(|&i| picks[i] == 1).collect();
        if idx.is_empty() {
            idx.push(universe.len() / 2);
        }
        let subset = universe.subset(&idx);
        let fresh = MemberSet::new(
            universe.space(),
            idx.iter().map(|&i| universe.member(i)).collect(),
        )
        .expect("a universe's members stay valid");
        prop_assert_eq!(subset.len(), fresh.len());
        for i in 0..fresh.len() {
            prop_assert_eq!(subset.id_at(i), fresh.id_at(i));
            prop_assert_eq!(subset.capacity_at(i), fresh.capacity_at(i));
            prop_assert_eq!(subset.upload_kbps_at(i).to_bits(), fresh.upload_kbps_at(i).to_bits());
        }
        for k in 0..universe.space().size() {
            let k = Id(k);
            prop_assert_eq!(subset.owner_idx(k), fresh.owner_idx(k));
            prop_assert_eq!(subset.successor_idx(k), fresh.successor_idx(k));
            prop_assert_eq!(subset.predecessor_idx(k), fresh.predecessor_idx(k));
        }
    }

    /// Dense groups stress buckets holding several members each.
    #[test]
    fn dense_groups_agree(raw_ids in prop::collection::vec(0u64..64, 40..64)) {
        let group = build(6, raw_ids);
        assert_resolvers_agree(&group);
    }
}

/// A single member owns every key, from both resolvers, wherever it sits.
#[test]
fn single_member_owns_everything() {
    for id in [0u64, 1, 100, 255] {
        let group = build(8, vec![id]);
        assert_resolvers_agree(&group);
        for k in [Id(0), Id(id), Id(255)] {
            assert_eq!(group.owner_idx(k), 0);
        }
    }
}

/// Keys past the last member wrap to the first member (the ring seam).
#[test]
fn wrap_around_keys_resolve_to_first_member() {
    let group = build(8, vec![10, 50, 200]);
    assert_resolvers_agree(&group);
    for k in [201u64, 230, 255] {
        assert_eq!(group.owner_idx(Id(k)), 0, "key {k} wraps to id 10");
        assert_eq!(group.successor_idx(Id(k)), 0);
    }
    assert_eq!(
        group.predecessor_idx(Id(5)),
        2,
        "below the first id wraps back"
    );
}
