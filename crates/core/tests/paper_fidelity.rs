//! The paper's worked examples and the structural theorems, as one
//! consolidated fidelity suite, plus property tests on the internals of
//! the child-selection and neighbor-derivation procedures.

use cam_core::cam_chord::multicast::{select_children, ChildSelection};
use cam_core::cam_chord::neighbors::neighbor_targets as chord_targets;
use cam_core::cam_koorde::multicast::FloodEdges;
use cam_core::cam_koorde::neighbors::derive_groups;
use cam_core::{CamChord, CamKoorde};
use cam_overlay::{Member, MemberSet, StaticOverlay};
use cam_ring::{Id, IdSpace};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Paper fidelity (Sections 3 and 4)
// ---------------------------------------------------------------------

/// §3.1 / Figure 2: the complete neighbor structure of node x (c = 3) on
/// the 32-identifier ring.
#[test]
fn figure2_complete_neighbor_structure() {
    let space = IdSpace::new(5);
    // Neighbor identifiers: (c−1) per level, truncated at N.
    let offsets: Vec<u64> = chord_targets(space, Id(0), 3)
        .iter()
        .map(|t| t.value())
        .collect();
    assert_eq!(offsets, vec![1, 2, 3, 6, 9, 18, 27]);

    // Resolution against the Figure 2 membership.
    let group = fig2_group();
    let resolve = |v: u64| group.member(group.owner_idx(Id(v))).id.value();
    assert_eq!(resolve(1), 4, "x̂_{{0,1}}");
    assert_eq!(resolve(2), 4, "x̂_{{0,2}}");
    assert_eq!(resolve(3), 4, "x̂_{{1,1}}");
    assert_eq!(resolve(6), 8, "x̂_{{1,2}}");
    assert_eq!(resolve(9), 13, "x̂_{{2,1}}");
    assert_eq!(resolve(18), 18, "x̂_{{2,2}}");
    assert_eq!(resolve(27), 29, "x̂_{{3,1}}");
}

/// §3.2's lookup example: x.LOOKUP(x+25) forwards to x+18, which answers
/// x+26.
#[test]
fn section32_lookup_trace() {
    let group = fig2_group();
    let overlay = CamChord::new(group.clone());
    let r = overlay.lookup(0, Id(25));
    let ids: Vec<u64> = r.path.iter().map(|&i| group.member(i).id.value()).collect();
    assert_eq!(ids, vec![0, 18]);
    assert_eq!(group.member(r.owner).id, Id(26));
}

/// §3.4 / Figure 3: the full multicast tree rooted at x.
#[test]
fn figure3_exact_tree() {
    let group = fig2_group();
    let tree = CamChord::new(group.clone()).multicast_tree(0);
    let expect: &[(u64, &[u64])] = &[
        (0, &[29, 18, 4]),
        (18, &[26, 21]),
        (4, &[13, 8]),
        (29, &[]),
        (26, &[]),
        (21, &[]),
        (13, &[]),
        (8, &[]),
    ];
    for &(node, children) in expect {
        let idx = group.index_of(Id(node)).unwrap();
        let got: std::collections::BTreeSet<u64> = tree
            .children_of(idx)
            .iter()
            .map(|&c| group.member(c).id.value())
            .collect();
        let want: std::collections::BTreeSet<u64> = children.iter().copied().collect();
        assert_eq!(got, want, "children of {node}");
    }
}

/// §4.1's example: node 36, capacity 10, all three neighbor groups.
#[test]
fn section41_node36_groups() {
    let g = derive_groups(IdSpace::new(6), Id(36), 10);
    assert_eq!(g.basic, vec![Id(18), Id(50)]);
    assert_eq!(g.second, vec![Id(9), Id(25), Id(41), Id(57)]);
    assert_eq!(g.third, vec![Id(4), Id(12)]);
}

/// §4.3 / Figure 5: node 36 forwards to all ten neighbors; the flood
/// reaches the remaining 15 nodes in two levels.
#[test]
fn figure5_flood_levels() {
    let group = fig4_group();
    let i36 = group.index_of(Id(36)).unwrap();
    let tree = CamKoorde::new(group.clone()).multicast_tree(i36);
    assert_eq!(tree.fanout(i36), 10);
    assert!(tree.is_complete());
    let first_level: std::collections::BTreeSet<u64> = tree
        .children_of(i36)
        .iter()
        .map(|&c| group.member(c).id.value())
        .collect();
    assert_eq!(
        first_level,
        [4u64, 9, 12, 18, 25, 35, 37, 41, 50, 57]
            .into_iter()
            .collect()
    );
    assert_eq!(tree.stats().depth, 2);
}

/// Theorem 4's shape: CAM-Chord multicast depth ≈ O(ln n / ln c) — the
/// measured average stays below 1.5·ln n/ln c for uniform capacities
/// (the bound the paper plots in Figure 11).
#[test]
fn theorem4_depth_bound() {
    for (n, c) in [(2_000usize, 5u32), (2_000, 10), (5_000, 8)] {
        let group = uniform_group(n, c, n as u64);
        let tree = CamChord::new(group).multicast_tree(0);
        let bound = 1.5 * (n as f64).ln() / f64::from(c).ln();
        let measured = tree.stats().avg_path_len;
        assert!(
            measured <= bound,
            "n={n} c={c}: {measured:.2} > 1.5 ln n/ln c = {bound:.2}"
        );
    }
}

/// Theorem 6's shape for CAM-Koorde.
#[test]
fn theorem6_depth_bound() {
    for (n, c) in [(2_000usize, 8u32), (5_000, 12)] {
        let group = uniform_group(n, c, n as u64 + 7);
        let tree = CamKoorde::new(group).multicast_tree(0);
        let bound = 1.5 * (n as f64).ln() / f64::from(c).ln();
        let measured = tree.stats().avg_path_len;
        assert!(
            measured <= bound + 1.0,
            "n={n} c={c}: {measured:.2} ≫ bound {bound:.2}"
        );
    }
}

// ---------------------------------------------------------------------
// Structural properties of the selection procedures
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// select_children partitions (x, k]: child regions are disjoint, lie
    /// inside the parent region, and jointly cover every *member* of it.
    #[test]
    fn child_regions_partition_members(
        n in 3usize..120,
        seed in 0u64..500,
        c in 2u32..12,
        k_off in 1u64..4095,
    ) {
        let space = IdSpace::new(12);
        let group = random_group(space, n, c, seed);
        let x_idx = 0;
        let x = group.member(x_idx).id;
        let k = space.add(x, k_off);
        let picks = select_children(&group, x_idx, k, ChildSelection::Ceil);

        // Regions are (child, end] with strictly decreasing offsets.
        let mut last_start = u64::MAX;
        for &(child, end) in &picks {
            let child_id = group.member(child).id;
            let start_off = space.seg_len(x, child_id);
            let end_off = space.seg_len(x, end);
            prop_assert!(start_off >= 1 && start_off <= end_off);
            prop_assert!(end_off <= k_off);
            prop_assert!(start_off < last_start, "regions must not overlap");
            last_start = start_off;
        }
        // Every member in (x, k] is either a child or inside exactly one
        // child's region.
        for m in 0..group.len() {
            if m == x_idx {
                continue;
            }
            let id = group.member(m).id;
            if !space.in_segment(id, x, k) {
                continue;
            }
            let holders = picks
                .iter()
                .filter(|&&(child, end)| {
                    m == child
                        || space.in_segment(id, group.member(child).id, end)
                })
                .count();
            prop_assert_eq!(holders, 1, "member {} covered {} times", id, holders);
        }
        prop_assert!(picks.len() <= group.member(x_idx).capacity as usize);
    }

    /// CAM-Koorde neighbor budget: derived targets + pred + succ == c for
    /// every capacity and identifier.
    #[test]
    fn koorde_budget_exact(bits in 5u32..20, x in 0u64..1_000_000, c in 4u32..64) {
        let space = IdSpace::new(bits);
        let x = space.reduce(x);
        let g = derive_groups(space, x, c);
        prop_assert_eq!(g.len() as u32 + 2, c);
        for t in g.all() {
            prop_assert!(space.contains(t));
        }
    }

    /// Both flood-edge policies reach the whole group; out-edges respect
    /// capacity while bidirectional may not (but never misses anyone).
    #[test]
    fn flooding_always_complete(n in 2usize..150, seed in 0u64..300, c in 4u32..12) {
        let space = IdSpace::new(12);
        let group = random_group(space, n, c, seed);
        for edges in [FloodEdges::Out, FloodEdges::Bidirectional] {
            let tree = CamKoorde::with_edges(group.clone(), edges).multicast_tree(0);
            prop_assert!(tree.is_complete(), "{edges:?}");
        }
        let out_tree = CamKoorde::new(group.clone()).multicast_tree(0);
        prop_assert!(out_tree.check_invariants(&group).is_ok());
    }
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn fig2_group() -> MemberSet {
    MemberSet::new(
        IdSpace::new(5),
        [0u64, 4, 8, 13, 18, 21, 26, 29]
            .iter()
            .map(|&v| Member::with_capacity(Id(v), 3))
            .collect(),
    )
    .unwrap()
}

fn fig4_group() -> MemberSet {
    MemberSet::new(
        IdSpace::new(6),
        [
            1u64, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61,
        ]
        .iter()
        .map(|&v| Member::with_capacity(Id(v), 10))
        .collect(),
    )
    .unwrap()
}

fn uniform_group(n: usize, c: u32, seed: u64) -> MemberSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let space = IdSpace::new(19);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n {
        ids.insert(rng.gen_range(0..space.size()));
    }
    MemberSet::new(
        space,
        ids.iter()
            .map(|&v| Member::with_capacity(Id(v), c))
            .collect(),
    )
    .unwrap()
}

fn random_group(space: IdSpace, n: usize, max_c: u32, seed: u64) -> MemberSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n {
        ids.insert(rng.gen_range(0..space.size()));
    }
    MemberSet::new(
        space,
        ids.iter()
            .map(|&v| Member::with_capacity(Id(v), rng.gen_range(4..=max_c.max(4))))
            .collect(),
    )
    .unwrap()
}
