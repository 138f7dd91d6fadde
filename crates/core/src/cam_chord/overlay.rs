//! [`CamChord`]: the resolved CAM-Chord overlay.

use cam_overlay::{DeliverySink, LookupResult, MemberSet, StaticOverlay};
use cam_ring::Id;

use super::multicast::{multicast_into_capped, ChildSelection};
use super::neighbors::distinct_neighbor_count;

/// A CAM-Chord overlay resolved against full membership — the converged
/// state of the maintenance protocol, used for large-scale experiments.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct CamChord {
    group: MemberSet,
    selection: ChildSelection,
}

impl CamChord {
    /// Wraps a resolved group as a CAM-Chord overlay with the default
    /// (paper-example-faithful) child selection.
    pub fn new(group: MemberSet) -> Self {
        CamChord {
            group,
            selection: ChildSelection::Ceil,
        }
    }

    /// Overrides the multicast child-selection rounding (ablation).
    pub fn with_selection(mut self, selection: ChildSelection) -> Self {
        self.selection = selection;
        self
    }

    /// The child-selection rounding in use.
    pub fn selection(&self) -> ChildSelection {
        self.selection
    }
}

impl StaticOverlay for CamChord {
    fn members(&self) -> &MemberSet {
        &self.group
    }

    fn lookup(&self, origin: usize, key: Id) -> LookupResult {
        super::lookup::lookup(&self.group, origin, key, |i| self.group.capacity_at(i))
    }

    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink) {
        let full = |i| self.group.capacity_at(i);
        multicast_into_capped(&self.group, source, self.selection, full, sink);
    }

    fn neighbor_count(&self, member: usize) -> usize {
        distinct_neighbor_count(&self.group, member, self.group.capacity_at(member))
    }

    fn name(&self) -> &'static str {
        "CAM-Chord"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cam_chord::neighbors::neighbor_targets;
    use cam_overlay::Member;
    use cam_ring::IdSpace;

    fn fig2_overlay() -> CamChord {
        CamChord::new(
            MemberSet::new(
                IdSpace::new(5),
                [0u64, 4, 8, 13, 18, 21, 26, 29]
                    .iter()
                    .map(|&v| Member::with_capacity(Id(v), 3))
                    .collect(),
            )
            .unwrap(),
        )
    }

    /// Figure 2: node 0's distinct neighbors are {4, 8, 13, 18, 29}.
    #[test]
    fn fig2_neighbor_set() {
        let o = fig2_overlay();
        assert_eq!(o.neighbor_count(0), 5);
        let g = o.members();
        let owners: std::collections::BTreeSet<u64> = neighbor_targets(g.space(), Id(0), 3)
            .into_iter()
            .map(|t| g.member(g.owner_idx(t)).id.value())
            .collect();
        assert_eq!(owners, [4u64, 8, 13, 18, 29].into_iter().collect());
    }

    #[test]
    fn trait_object_usable() {
        let o = fig2_overlay();
        let dyn_overlay: &dyn StaticOverlay = &o;
        assert_eq!(dyn_overlay.name(), "CAM-Chord");
        let t = dyn_overlay.multicast_tree(0);
        assert!(t.is_complete());
        let r = dyn_overlay.lookup(0, Id(25));
        assert_eq!(dyn_overlay.members().member(r.owner).id, Id(26));
    }

    /// CAM-Chord with capacity c has more neighbors than CAM-Koorde's c —
    /// the maintenance-overhead comparison of Section 2.
    #[test]
    fn neighbor_count_grows_with_log_n() {
        let big = CamChord::new(
            MemberSet::new(
                IdSpace::new(16),
                (0..2000u64)
                    .map(|i| Member::with_capacity(Id(i * 32 + 1), 4))
                    .collect(),
            )
            .unwrap(),
        );
        // c · log_c(n) ≈ 4 · log_4 2000 ≈ 22; distinct owners somewhat less.
        let count = big.neighbor_count(0);
        assert!(count > 8, "too few neighbors: {count}");
        assert!(count < 40, "too many neighbors: {count}");
    }
}
