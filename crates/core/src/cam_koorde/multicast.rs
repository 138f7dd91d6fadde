//! CAM-Koorde multicast: constrained flooding (paper, Section 4.3).
//!
//! A node forwards a received message to all of its neighbors except those
//! that already received (or are receiving) it; the neighbor connections
//! are bidirectional, so the check costs one short control packet. The
//! collective effect embeds an implicit BFS tree per source.
//!
//! Two adjacency flavours are provided:
//!
//! * **out-neighbors only** (default): a node forwards along its own
//!   `c_x`-bounded neighbor list, so the capacity constraint holds exactly;
//! * **bidirectional**: reverse edges are flooded too (the literal reading
//!   of "all neighbors" over bidirectional connections). This can push a
//!   node's fan-out past `c_x` — quantified in the ablation experiment.

use cam_overlay::MemberSet;

/// Which edges a node floods on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FloodEdges {
    /// Only the node's own (out-)neighbors — respects `c_x` exactly.
    #[default]
    Out,
    /// Out-neighbors plus reverse edges.
    Bidirectional,
}

/// Writes the resolved out-neighbor member indices of `idx` into `out`
/// (cleared first): predecessor, successor, and the owners of all derived
/// targets, sorted, deduplicated, self excluded. Never more than the
/// member's capacity.
pub fn out_neighbors_into(group: &MemberSet, idx: usize, out: &mut Vec<usize>) {
    out.clear();
    let m = group.member(idx);
    out.push(group.prev_idx(idx));
    out.push(group.next_idx(idx));
    super::neighbors::for_each_neighbor_target(group.space(), m.id, m.capacity, |t| {
        out.push(group.owner_idx(t))
    });
    out.sort_unstable();
    out.dedup();
    out.retain(|&n| n != idx);
    debug_assert!(out.len() <= m.capacity as usize);
}

/// The flooding adjacency in compressed-sparse-row form: member `m`'s
/// neighbors are one contiguous slice of a single backing vector, so a
/// whole-group BFS touches two allocations total instead of one `Vec` per
/// member.
#[derive(Debug, Clone)]
pub struct FloodAdjacency {
    offsets: Vec<u32>,
    neighbors: Vec<usize>,
}

impl FloodAdjacency {
    /// Builds the adjacency for the group under the given edge policy.
    pub fn new(group: &MemberSet, edges: FloodEdges) -> Self {
        // Members are emitted in index order, so the CSR is appended
        // directly without a counting pass.
        let mut adj = FloodAdjacency::empty();
        let mut buf = Vec::new();
        for i in 0..group.len() {
            out_neighbors_into(group, i, &mut buf);
            adj.push_list(&buf);
        }
        if edges == FloodEdges::Bidirectional {
            // Every out-edge `from → to` is also flooded as `to → from`.
            let mut lists: Vec<Vec<usize>> = (0..adj.len())
                .map(|m| adj.neighbors_of(m).to_vec())
                .collect();
            for from in 0..adj.len() {
                for &to in adj.neighbors_of(from) {
                    lists[to].push(from);
                }
            }
            adj = FloodAdjacency::empty();
            for list in &mut lists {
                list.sort_unstable();
                list.dedup();
                adj.push_list(list);
            }
        }
        adj
    }

    fn empty() -> Self {
        FloodAdjacency {
            offsets: vec![0],
            neighbors: Vec::new(),
        }
    }

    fn push_list(&mut self, list: &[usize]) {
        self.neighbors.extend_from_slice(list);
        self.offsets.push(self.neighbors.len() as u32);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the adjacency covers no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbors of member `m`, sorted ascending.
    #[inline]
    pub fn neighbors_of(&self, m: usize) -> &[usize] {
        &self.neighbors[self.offsets[m] as usize..self.offsets[m + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CamKoorde;
    use cam_overlay::{Member, MulticastTree, StaticOverlay};
    use cam_ring::{Id, IdSpace};

    fn multicast_tree(g: &MemberSet, source: usize, edges: FloodEdges) -> MulticastTree {
        CamKoorde::with_edges(g.clone(), edges).multicast_tree(source)
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

    /// The paper's Figure 5: node 36 forwards to all ten of its neighbors
    /// (9, 12, 18, 25, 35, 37, 41, 50, 57 and 4).
    #[test]
    fn fig5_first_level() {
        let g = fig4_group();
        let i36 = g.index_of(Id(36)).unwrap();
        let nbrs: std::collections::BTreeSet<u64> = FloodAdjacency::new(&g, FloodEdges::Out)
            .neighbors_of(i36)
            .iter()
            .map(|&i| g.member(i).id.value())
            .collect();
        assert_eq!(
            nbrs,
            [9u64, 12, 18, 25, 35, 37, 41, 50, 57, 4]
                .into_iter()
                .collect()
        );
        let t = multicast_tree(&g, i36, FloodEdges::Out);
        assert_eq!(t.fanout(i36), 10);
        assert!(t.is_complete());
        // Every other node is within 2 hops in this small topology
        // (Figure 5 shows a depth-2 tree).
        assert_eq!(t.stats().depth, 2);
    }

    #[test]
    fn out_flooding_respects_capacity() {
        let g = fig4_group();
        for src in 0..g.len() {
            let t = multicast_tree(&g, src, FloodEdges::Out);
            assert!(t.is_complete(), "source {src}");
            t.check_invariants(&g).unwrap();
        }
    }

    #[test]
    fn bidirectional_can_exceed_capacity_but_reaches_all() {
        let g = fig4_group();
        let t = multicast_tree(&g, 0, FloodEdges::Bidirectional);
        assert!(t.is_complete());
        // Invariant check intentionally not applied: fan-out may exceed c.
    }

    #[test]
    fn heterogeneous_capacities() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let space = IdSpace::new(12);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < 300 {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let g = MemberSet::new(
            space,
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 4 + (v % 7) as u32))
                .collect(),
        )
        .unwrap();
        for src in [0usize, 100, 299] {
            let t = multicast_tree(&g, src, FloodEdges::Out);
            assert!(t.is_complete(), "flooding must reach everyone");
            t.check_invariants(&g).unwrap();
        }
    }

    #[test]
    fn depth_scales_logarithmically() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let space = IdSpace::new(19);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < 5000 {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let g = MemberSet::new(
            space,
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 10))
                .collect(),
        )
        .unwrap();
        let t = multicast_tree(&g, 0, FloodEdges::Out);
        assert!(t.is_complete());
        let depth = t.stats().depth;
        // log_10(5000) ≈ 3.7; allow constant-factor slack but far below a
        // ring walk.
        assert!(depth <= 12, "depth {depth} too large");
    }
}
