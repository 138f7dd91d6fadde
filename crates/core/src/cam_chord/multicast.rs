//! The CAM-Chord `MULTICAST` routine (paper, Section 3.4).
//!
//! `x.MULTICAST(msg, k)` delivers `msg` to every node in the region
//! `(x, k]` by picking up to `c_x` children that split the region as evenly
//! as possible:
//!
//! 1. the level-`i` neighbors `x̂_{i,m}` for `m = j..1` (where `(i, j)` are
//!    the level/sequence of `k` w.r.t. `x`) — lines 6–9;
//! 2. `c_x − j − 1` evenly spaced level-`(i−1)` neighbors — lines 10–14;
//! 3. the successor `x̂_{0,1}` — line 15.
//!
//! Each selected child is handed the shrinking tail region `(child, k']`,
//! and `k'` moves just below the child's neighbor identifier after every
//! selection, so regions are disjoint and every node receives the message
//! exactly once.
//!
//! ## Interpretation notes (documented in DESIGN.md)
//!
//! * Line 12 updates `l ← l − c_x/(c_x−j)` and line 13 indexes neighbor
//!   `x̂_{i−1,⌊l⌋}`. Taken literally (`floor`) this *contradicts the
//!   paper's own worked example* (Figure 3 selects `x̂_{2,2}`, node `x+18`,
//!   which requires rounding 1.5 *up*). [`ChildSelection::Ceil`]
//!   reproduces the example exactly and is the default;
//!   [`ChildSelection::Floor`] implements the literal pseudo-code for the
//!   ablation benchmark. The sequence numbers are computed exactly as
//!   `⌈c(c−j−t)/(c−j)⌉` (resp. `⌊·⌋`) in integer arithmetic.
//! * A selected neighbor identifier may resolve (via `owner`) to a node
//!   *outside* the remaining region `(x, k']`; such a child is skipped but
//!   `k'` still shrinks past its identifier — the shared step
//!   [`adopt_owner`], which says why both halves are needed.

use cam_overlay::stream::{adopt_owner, region_walk, RegionChild};
use cam_overlay::{DeliverySink, MemberSet};
use cam_ring::{Id, IdSpace};

use super::neighbors::level_of;

/// How line 13's fractional neighbor index is rounded.
///
/// See the module docs: `Ceil` matches the paper's worked example (Figures
/// 2–3) and is the default everywhere; `Floor` is the literal pseudo-code,
/// kept for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildSelection {
    /// Round the even-separation index up (reproduces the paper's example).
    #[default]
    Ceil,
    /// Round down (the literal pseudo-code text).
    Floor,
}

/// Selects the children (and their sub-regions) that member `x_idx` uses to
/// cover the region `(x, k]` — the decision procedure of `MULTICAST`
/// lines 4–15.
///
/// Children are returned in selection order (clockwise-farthest first).
/// The number of children never exceeds the member's capacity.
///
/// # Panics
///
/// Panics if `x_idx` is out of range.
pub fn select_children(
    group: &MemberSet,
    x_idx: usize,
    k: Id,
    selection: ChildSelection,
) -> Vec<RegionChild> {
    let mut out = Vec::new();
    select_children_capped_into(
        group,
        x_idx,
        k,
        group.capacity_at(x_idx),
        selection,
        &mut out,
    );
    out
}

/// [`select_children`] into a caller-owned buffer (cleared first; the walk
/// reuses one across every node of a tree), with an explicit capacity cap
/// instead of the member's full `c_x` — the primitive behind cross-group
/// *residual* capacity (cam-pubsub's `CapacityLedger`).
///
/// * `cap >= 2` runs the paper's level/sequence selection with `c = cap`.
/// * `cap <= 1` degrades to **chain mode**: the entire region is handed to
///   the successor `x̂_{0,1}` as a single child. This is still an exact
///   partition — `(x, k] = {owner(x+1)} ∪ (owner(x+1), k]` — so the
///   exactly-once delivery guarantee survives even when a node's global
///   capacity budget is exhausted down to one child. A cap of `0` also
///   selects the one chain child; *refusing* to forward at zero residual
///   capacity is an admission-control decision that belongs to the caller
///   (the service layer rejects the subscribe), not to the region math,
///   which must never strand a region undelivered.
///
/// A region is empty (lines 1–2) when no member is left in `(x, k′]`,
/// that is when it does not reach `x`'s ring successor: the selection
/// returns nothing for such a region and stops as soon as the shrinking
/// `k′` makes it one, since every later step would adopt nobody.
///
/// # Panics
///
/// Panics if `x_idx` is out of range.
pub fn select_children_capped_into(
    group: &MemberSet,
    x_idx: usize,
    k: Id,
    cap: u32,
    selection: ChildSelection,
    out: &mut Vec<RegionChild>,
) {
    out.clear();
    let space = group.space();
    let x = group.id_at(x_idx);
    let succ = group.next_idx(x_idx);
    let succ_dist = if succ == x_idx {
        u64::MAX // alone on the ring: no region holds a member
    } else {
        space.seg_len(x, group.id_at(succ))
    };
    let holds_member = |k_prime: Id| space.seg_len(x, k_prime) >= succ_dist;
    if !holds_member(k) {
        return; // Lines 1–2: empty region.
    }

    // Every selection below is one `adopt_owner` step: owner(target) takes
    // the tail (target, k'] and k' moves to target − 1 (lines 9 and 14).
    let mut k_prime = k;
    if cap < 2 {
        // Chain mode: line 15 alone — the successor covers everything.
        adopt_owner(group, x, space.add(x, 1), &mut k_prime, out);
        return;
    }
    let c = u64::from(cap);
    let level = level_of(space, x, cap, k);

    // Lines 6–9: level-i neighbors m = j down to 1.
    let level_i = (1..=level.j).rev().map(|m| m * level.pow);

    // Lines 10–14: c − j − 1 evenly spaced level-(i−1) neighbors.
    let slots = if level.i == 0 { 0 } else { c - level.j - 1 };
    let b = c - level.j;
    let level_below = (1..=slots).filter_map(|t| {
        // l after t updates is c·(c−j−t)/(c−j); round per `selection`.
        let a = c * (c - level.j - t);
        let seq = match selection {
            ChildSelection::Ceil => a.div_ceil(b),
            ChildSelection::Floor => a / b,
        };
        // Floor rounding can hit 0 only in degenerate cases.
        (seq != 0).then_some(seq * level.pow_below)
    });

    // Line 15: the successor x̂_{0,1}. Offsets never grow, so k' only
    // shrinks and a region left with no member stays so.
    for offset in level_i.chain(level_below).chain([1]) {
        adopt_owner(group, x, space.add(x, offset), &mut k_prime, out);
        if !holds_member(k_prime) {
            break;
        }
    }

    debug_assert!(
        out.len() <= c as usize,
        "selected {} children with capacity {c}",
        out.len()
    );
}

/// Splits the region `(x, k]` across candidate cut points — the child rule
/// of the two *table-driven* CAM-Chord variants
/// ([`CamChordProtocol`](super::CamChordProtocol) over a live neighbor
/// table, [`ProximityCamChord`](super::ProximityCamChord) over a
/// delay-chosen one), where children are whatever the table holds rather
/// than recomputed `x_{i,j}` identifiers.
///
/// `cuts` are the candidates inside `(x, k]`, in any order. They are sorted
/// by clockwise offset from `x`, deduplicated and thinned in place to at
/// most `c`, spread evenly over the candidate list; the nearest candidate
/// is always kept so the region's head is covered. Each kept cut is then
/// emitted with the end of its sub-region — just below the next kept cut,
/// the last one running to `k` — the same disjoint-partition shape as the
/// paper's lines 6–15.
pub(crate) fn split_at_cuts<T: Copy + PartialEq>(
    space: IdSpace,
    x: Id,
    k: Id,
    c: usize,
    cuts: &mut Vec<T>,
    id_of: impl Fn(T) -> Id,
    mut emit: impl FnMut(T, Id),
) {
    cuts.sort_by_key(|&cut| space.seg_len(x, id_of(cut)));
    cuts.dedup();
    let len = cuts.len();
    if len > c {
        // Even positions over [0, len), index 0 included. Reads run ahead
        // of writes (t·len/c ≥ t), so thinning in place loses nothing.
        for t in 0..c {
            cuts[t] = cuts[t * len / c];
        }
        cuts.truncate(c);
        cuts.dedup();
    }
    for (pos, &cut) in cuts.iter().enumerate() {
        let end = cuts
            .get(pos + 1)
            .map_or(k, |&next| space.sub(id_of(next), 1));
        emit(cut, end);
    }
}

/// Runs the full distributed `MULTICAST` from `source`, reporting every
/// delivery to `sink`, with a per-node capacity cap supplied by `cap_of`.
///
/// [`CamChord`](super::CamChord) passes each member's full `c_x`;
/// cam-pubsub builds per-group trees against *residual* capacity, where
/// `cap_of(i)` is what member `i` has left after its child commitments to
/// every other group. Caps below 2 degrade that node to chain mode (see
/// [`select_children_capped_into`]); the region partition — and therefore
/// exactly-once delivery — holds for any cap assignment.
///
/// # Panics
///
/// Panics if `source` is out of range, or (via `debug_assert`) if region
/// bookkeeping ever attempts a duplicate delivery.
pub fn multicast_into_capped<S: DeliverySink + ?Sized, F: Fn(usize) -> u32>(
    group: &MemberSet,
    source: usize,
    selection: ChildSelection,
    cap_of: F,
    sink: &mut S,
) {
    region_walk(group, source, sink, |node, k, picks| {
        select_children_capped_into(group, node, k, cap_of(node), selection, picks)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CamChord;
    use cam_overlay::{Member, MulticastTree, StaticOverlay};
    use cam_ring::IdSpace;

    fn multicast_tree(
        g: &MemberSet,
        source: usize,
        selection: ChildSelection,
    ) -> MulticastTree {
        CamChord::new(g.clone())
            .with_selection(selection)
            .multicast_tree(source)
    }

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

    fn ids(group: &MemberSet, children: &[usize]) -> Vec<u64> {
        children
            .iter()
            .map(|&c| group.member(c).id.value())
            .collect()
    }

    /// The paper's Figure 3, reproduced edge for edge.
    #[test]
    fn fig3_multicast_tree() {
        let g = fig2_group();
        let t = multicast_tree(&g, 0, ChildSelection::Ceil);
        assert!(t.is_complete());
        t.check_invariants(&g).unwrap();

        // Root x → {x+29, x+18, x+4}.
        let root_children = ids(&g, t.children_of(0));
        assert_eq!(
            root_children
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>(),
            [4u64, 18, 29].into_iter().collect()
        );
        // x+18 → {x+21, x+26}.
        let i18 = g.index_of(Id(18)).unwrap();
        assert_eq!(
            ids(&g, t.children_of(i18))
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            [21u64, 26].into_iter().collect()
        );
        // x+4 → {x+8, x+13}.
        let i4 = g.index_of(Id(4)).unwrap();
        assert_eq!(
            ids(&g, t.children_of(i4))
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            [8u64, 13].into_iter().collect()
        );
        // x+29, x+21, x+26, x+8, x+13 are leaves; depth 2.
        for leaf in [29u64, 21, 26, 8, 13] {
            let idx = g.index_of(Id(leaf)).unwrap();
            assert_eq!(t.fanout(idx), 0, "node {leaf} should be a leaf");
        }
        assert_eq!(t.stats().depth, 2);
    }

    /// The worked example's region assignments (§3.4): x̂_{3,1} gets
    /// (x+29, x+31], x̂_{2,2} gets (x+18, x+26], successor gets (x+4, x+17].
    #[test]
    fn fig3_region_assignments() {
        let g = fig2_group();
        let picks = select_children(&g, 0, Id(31), ChildSelection::Ceil);
        let described: Vec<(u64, u64)> = picks
            .iter()
            .map(|&(c, end)| (g.member(c).id.value(), end.value()))
            .collect();
        assert_eq!(described, vec![(29, 31), (18, 26), (4, 17)]);
    }

    /// The literal floor rounding picks x̂_{2,1} (node x+13) instead of
    /// x̂_{2,2} — the divergence that motivates the `Ceil` default.
    #[test]
    fn floor_selection_contradicts_paper_example() {
        let g = fig2_group();
        let picks = select_children(&g, 0, Id(31), ChildSelection::Floor);
        let children: Vec<u64> = picks.iter().map(|&(c, _)| g.member(c).id.value()).collect();
        assert!(children.contains(&13), "floor picks x̂_2,1 → node 13");
        assert!(!children.contains(&18));
        // Even so, the tree remains a correct exactly-once partition.
        let t = multicast_tree(&g, 0, ChildSelection::Floor);
        assert!(t.is_complete());
        t.check_invariants(&g).unwrap();
    }

    #[test]
    fn every_source_covers_everyone_exactly_once() {
        let g = fig2_group();
        for src in 0..g.len() {
            let t = multicast_tree(&g, src, ChildSelection::Ceil);
            assert!(t.is_complete(), "source {src} missed members");
            t.check_invariants(&g).unwrap();
        }
    }

    #[test]
    fn empty_region_selects_nothing() {
        let g = fig2_group();
        assert!(select_children(&g, 0, Id(0), ChildSelection::Ceil).is_empty());
    }

    #[test]
    fn capacity_bound_respected_under_heterogeneity() {
        let g = MemberSet::new(
            IdSpace::new(10),
            (0..120u64)
                .map(|i| Member::with_capacity(Id(i * 8 + 3), 2 + (i % 9) as u32))
                .collect(),
        )
        .unwrap();
        for src in [0usize, 17, 63, 119] {
            let t = multicast_tree(&g, src, ChildSelection::Ceil);
            assert!(t.is_complete());
            t.check_invariants(&g).unwrap();
        }
    }

    #[test]
    fn internal_nodes_saturate_capacity() {
        // Paper §3.4: "the number of children for an internal node is always
        // equal to the node's capacity as long as the node is not at the
        // bottom levels of the tree". With a big uniform group, the source
        // must have exactly c children.
        let g = MemberSet::new(
            IdSpace::new(12),
            (0..500u64)
                .map(|i| Member::with_capacity(Id(i * 8 + 1), 5))
                .collect(),
        )
        .unwrap();
        let t = multicast_tree(&g, 0, ChildSelection::Ceil);
        assert!(t.is_complete());
        assert_eq!(t.fanout(0), 5, "source should use its full capacity");
        // Depth near log_c n: log_5 500 ≈ 3.9 → depth ≤ 8 (2× slack).
        assert!(t.stats().depth <= 8, "depth {}", t.stats().depth);
    }

    /// Cap 1 (and 0) degrade every node to chain mode: the tree becomes the
    /// ring walk, still delivering to everyone exactly once.
    #[test]
    fn chain_mode_is_an_exact_partition() {
        let g = fig2_group();
        for cap in [0u32, 1] {
            for src in 0..g.len() {
                let mut tree = MulticastTree::new(g.len(), src);
                multicast_into_capped(&g, src, ChildSelection::Ceil, |_| cap, &mut tree);
                assert!(tree.is_complete(), "cap {cap} source {src} missed members");
                tree.check_invariants(&g).unwrap();
                assert_eq!(
                    tree.stats().depth as usize,
                    g.len() - 1,
                    "chain depth must be n-1"
                );
            }
        }
    }

    /// Heterogeneous residual caps (including exhausted nodes) keep the
    /// exactly-once guarantee — the invariant cam-pubsub's ledger builds on.
    #[test]
    fn mixed_residual_caps_deliver_exactly_once() {
        let g = MemberSet::new(
            IdSpace::new(10),
            (0..90u64)
                .map(|i| Member::with_capacity(Id(i * 11 + 2), 6))
                .collect(),
        )
        .unwrap();
        for src in [0usize, 13, 89] {
            let mut tree = MulticastTree::new(g.len(), src);
            multicast_into_capped(&g, src, ChildSelection::Ceil, |i| (i % 5) as u32, &mut tree);
            assert!(tree.is_complete(), "source {src} missed members");
            tree.check_invariants(&g).unwrap();
        }
    }
}
