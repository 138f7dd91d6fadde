//! [`CamKoorde`]: the resolved CAM-Koorde overlay.

use cam_overlay::stream::flood_walk;
use cam_overlay::{DeliverySink, LookupResult, MemberSet, StaticOverlay};
use cam_ring::Id;

use super::multicast::{out_neighbors_into, FloodAdjacency, FloodEdges};

/// A CAM-Koorde overlay resolved against full membership.
///
/// The flooding adjacency is computed once at construction (the converged
/// neighbor tables) and reused across multicast sources.
///
/// # Example
///
/// ```
/// use cam_core::CamKoorde;
/// use cam_overlay::{Member, MemberSet, StaticOverlay};
/// use cam_ring::{Id, IdSpace};
///
/// let members: Vec<Member> = [1u64, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61]
///     .iter()
///     .map(|&v| Member::with_capacity(Id(v), 10))
///     .collect();
/// let overlay = CamKoorde::new(MemberSet::new(IdSpace::new(6), members)?);
/// let tree = overlay.multicast_tree(overlay.members().index_of(Id(36)).unwrap());
/// assert!(tree.is_complete());
/// # Ok::<(), cam_overlay::peer::BuildMemberSetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamKoorde {
    group: MemberSet,
    edges: FloodEdges,
    adj: FloodAdjacency,
}

impl CamKoorde {
    /// Resolves the overlay with capacity-respecting (out-edge) flooding.
    pub fn new(group: MemberSet) -> Self {
        Self::with_edges(group, FloodEdges::Out)
    }

    /// Resolves the overlay with the given flooding-edge policy.
    pub fn with_edges(group: MemberSet, edges: FloodEdges) -> Self {
        let adj = FloodAdjacency::new(&group, edges);
        CamKoorde { group, edges, adj }
    }

    /// The flooding-edge policy in use.
    pub fn edges(&self) -> FloodEdges {
        self.edges
    }
}

impl StaticOverlay for CamKoorde {
    fn members(&self) -> &MemberSet {
        &self.group
    }

    fn lookup(&self, origin: usize, key: Id) -> LookupResult {
        super::lookup::lookup(&self.group, origin, key)
    }

    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink) {
        flood_walk(self.group.len(), source, sink, |m| self.adj.neighbors_of(m));
    }

    fn neighbor_count(&self, member: usize) -> usize {
        // Out-neighbors only: reverse flood edges cost no table entry.
        let mut out = Vec::new();
        out_neighbors_into(&self.group, member, &mut out);
        out.len()
    }

    fn name(&self) -> &'static str {
        "CAM-Koorde"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::IdSpace;

    fn overlay() -> CamKoorde {
        CamKoorde::new(
            MemberSet::new(
                IdSpace::new(6),
                [
                    1u64, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61,
                ]
                .iter()
                .map(|&v| Member::with_capacity(Id(v), 10))
                .collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn neighbor_count_at_most_capacity() {
        let o = overlay();
        for i in 0..o.members().len() {
            assert!(o.neighbor_count(i) <= 10);
            assert!(o.neighbor_count(i) >= 2, "at least pred+succ");
        }
    }

    #[test]
    fn lookup_and_multicast_through_trait() {
        let o = overlay();
        let dyn_o: &dyn StaticOverlay = &o;
        assert_eq!(dyn_o.name(), "CAM-Koorde");
        for k in 0..64u64 {
            let r = dyn_o.lookup(3, Id(k));
            assert_eq!(r.owner, o.members().owner_idx(Id(k)));
        }
        let t = dyn_o.multicast_tree(0);
        assert!(t.is_complete());
        t.check_invariants(o.members()).unwrap();
    }

    impl CamKoorde {
        /// The flooding adjacency list of a member.
        fn flood_neighbors(&self, member: usize) -> &[usize] {
            self.adj.neighbors_of(member)
        }
    }

    #[test]
    fn bidirectional_adjacency_is_superset() {
        let group = overlay().group;
        let out = CamKoorde::with_edges(group.clone(), FloodEdges::Out);
        let bi = CamKoorde::with_edges(group, FloodEdges::Bidirectional);
        for i in 0..out.members().len() {
            for nb in out.flood_neighbors(i) {
                assert!(bi.flood_neighbors(i).contains(nb));
            }
        }
    }
}
