//! CAM-Chord as a live, dynamic-membership protocol.
//!
//! [`CamChordProtocol`] plugs CAM-Chord into
//! [`cam_overlay::dynamic::DhtActor`]: it supplies the capacity-dependent
//! finger targets, Chord-style greedy next-hop routing over whatever
//! fingers are currently resolved, and region-splitting multicast over the
//! live neighbor table.
//!
//! The multicast child selection differs from the static routine in one
//! deliberate way: instead of recomputing `x_{i,j}` identifiers (which may
//! be stale under churn), it splits the region across the *resolved* finger
//! members that fall inside it, choosing up to `c_x` cut points spaced as
//! evenly as the current table allows. Under a converged table this picks
//! the same kind of balanced partition as the paper's lines 6–15; under
//! churn it degrades gracefully instead of forwarding into stale gaps.

use cam_overlay::dynamic::DhtProtocol;
use cam_overlay::Member;
use cam_ring::{Id, IdSpace, Segment};

use super::multicast::split_at_cuts;
use super::neighbors::neighbor_targets;

/// The CAM-Chord plug-in for dynamic simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CamChordProtocol;

impl DhtProtocol for CamChordProtocol {
    fn neighbor_targets(&self, space: IdSpace, me: &Member) -> Vec<Id> {
        neighbor_targets(space, me.id, me.capacity)
    }

    fn next_hop(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        _predecessor: Option<&Member>,
        key: Id,
        _state: &mut u64,
    ) -> Option<Id> {
        if space.in_segment(key, me.id, successor.id) {
            return None; // successor owns it
        }
        // Greedy: the neighbor counter-clockwise closest to the key.
        neighbors
            .iter()
            .filter(|m| space.in_segment(m.id, me.id, key))
            .max_by_key(|m| space.seg_len(me.id, m.id))
            .map(|m| m.id)
    }

    fn multicast_children(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        region: Option<Segment>,
    ) -> Vec<(Id, Option<Segment>)> {
        let region = region.unwrap_or_else(|| Segment::all_but(space, me.id));
        if region.is_empty() {
            return Vec::new();
        }
        // Candidate cut points: resolved neighbors inside the region, plus
        // the successor (the paper's line 15).
        let mut cuts: Vec<Id> = neighbors
            .iter()
            .map(|m| m.id)
            .chain(std::iter::once(successor.id))
            .filter(|&id| region.contains(space, id))
            .collect();
        let c = me.capacity as usize;
        let mut out = Vec::with_capacity(cuts.len().min(c));
        split_at_cuts(
            space,
            me.id,
            region.to,
            c,
            &mut cuts,
            |id| id,
            |child, end| out.push((child, Some(Segment::new(child, end)))),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: IdSpace = IdSpace::new(5);

    fn member(id: u64, c: u32) -> Member {
        Member::with_capacity(Id(id), c)
    }

    #[test]
    fn next_hop_greedy_preceding() {
        let p = CamChordProtocol;
        let me = member(0, 3);
        let nbs = vec![member(4, 3), member(13, 3), member(18, 3), member(29, 3)];
        // Key 25: the closest preceding neighbor is 18.
        let mut st = 0u64;
        assert_eq!(
            p.next_hop(S, &me, &nbs, &member(4, 3), None, Id(25), &mut st),
            Some(Id(18))
        );
        // Key 2 is owned by the successor.
        assert_eq!(
            p.next_hop(S, &me, &nbs, &member(4, 3), None, Id(2), &mut st),
            None
        );
        // Key 31: closest preceding is 29.
        assert_eq!(
            p.next_hop(S, &me, &nbs, &member(4, 3), None, Id(31), &mut st),
            Some(Id(29))
        );
    }

    #[test]
    fn multicast_children_partition_region() {
        let p = CamChordProtocol;
        let me = member(0, 3);
        let nbs = vec![
            member(4, 3),
            member(8, 3),
            member(13, 3),
            member(18, 3),
            member(29, 3),
        ];
        let succ = member(4, 3);
        let children =
            p.multicast_children(S, &me, &nbs, &succ, Some(Segment::all_but(S, Id(0))));
        assert!(!children.is_empty());
        assert!(children.len() <= 3, "capacity bound: {children:?}");
        // Regions must be disjoint and jointly cover every identifier from
        // the first child through the region end (identifiers before the
        // successor hold no nodes and need no coverage).
        let mut covered = 0u64;
        for (child, seg) in &children {
            let seg = seg.expect("region-splitting protocol");
            assert_eq!(seg.from, *child);
            covered += seg.len(S) + 1; // +1 for the child itself
        }
        let expected = S.seg_len(children[0].0, Id(31)) + 1;
        assert_eq!(covered, expected, "every identifier accounted once");
        // First chosen cut is the nearest (successor), so the region's head
        // is owned correctly.
        assert_eq!(children[0].0, Id(4));
    }

    #[test]
    fn empty_region_no_children() {
        let p = CamChordProtocol;
        let me = member(0, 3);
        assert!(p
            .multicast_children(S, &me, &[], &member(4, 3), Some(Segment::empty(Id(0))))
            .is_empty());
    }

    #[test]
    fn no_candidates_inside_region() {
        let p = CamChordProtocol;
        let me = member(0, 3);
        // Region (0, 2] but all neighbors beyond it.
        let nbs = vec![member(13, 3), member(29, 3)];
        let out = p.multicast_children(
            S,
            &me,
            &nbs,
            &member(13, 3),
            Some(Segment::new(Id(0), Id(2))),
        );
        assert!(out.is_empty());
    }
}
