//! The *tree-building* multicast approach (paper, Section 5.1) — the
//! alternative the CAMs are contrasted with, and the direction the paper
//! names as ongoing work ("We are currently investigating the
//! capacity-aware multicast problem following the tree-building
//! approach").
//!
//! One **shared tree per group** is built on top of a global overlay by
//! reverse-path joining (Scribe/Bayeux style): each member routes a join
//! toward the group's rendezvous identifier and grafts onto the first
//! on-tree node its join passes through. Multicast messages "travel to the
//! root first and then disseminate to all other nodes".
//!
//! The capacity mismatch the paper points out — "the multicast tree is
//! constrained by the node capacities but the global overlay is not" — is
//! resolved here with *push-down*: a node whose `c_x` child slots are full
//! redirects further joiners to its least-loaded child, so the shared tree
//! is degree-bounded like the CAMs' implicit trees.
//!
//! Section 5.1's load analysis is what the Ext-E experiment quantifies:
//! with one shared tree, an internal node forwards `O(k·M)` of the
//! session's `M` messages and leaves forward nothing; with the CAMs'
//! per-source implicit trees every member carries `O(M)`.

use cam_overlay::{MemberSet, StaticOverlay};
use cam_ring::Id;

use crate::CamChord;

/// A capacity-bounded shared multicast tree over a global overlay.
#[derive(Debug, Clone)]
pub struct SharedTree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl SharedTree {
    /// Builds the shared tree for the group identified by `group_key` on
    /// top of `overlay` (the global overlay). Members graft in ring order
    /// of their identifiers; each join walks the overlay's lookup path
    /// toward the rendezvous node and attaches to the first on-tree node
    /// encountered, with capacity push-down.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is empty.
    pub fn build(overlay: &CamChord, group_key: Id) -> Self {
        let group = overlay.members();
        let n = group.len();
        assert!(n > 0, "empty overlay");
        let root = group.owner_idx(group_key);

        let mut tree = SharedTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
        };
        let mut on_tree = vec![false; n];
        on_tree[root] = true;

        for m in 0..n {
            if on_tree[m] {
                continue;
            }
            // The join path toward the rendezvous: every node it crosses
            // becomes a forwarder (grafts too), exactly like Scribe.
            let path = overlay.lookup(m, group_key).path;
            // path starts at m; append the root in case the last hop
            // answered without being the owner itself.
            let mut full = path;
            if *full.last().expect("non-empty path") != root {
                full.push(root);
            }
            // Graft from the far end backwards so parents exist first.
            for w in (0..full.len() - 1).rev() {
                let (child, anchor) = (full[w], full[w + 1]);
                if on_tree[child] {
                    continue;
                }
                let parent = tree.find_slot(group, anchor);
                tree.attach(child, parent);
                on_tree[child] = true;
            }
        }
        tree
    }

    /// Walks down from `anchor` to a node with a free child slot
    /// (push-down): a full node delegates to its least-loaded child.
    fn find_slot(&self, group: &MemberSet, anchor: usize) -> usize {
        let mut cur = anchor;
        loop {
            let capacity = group.member(cur).capacity as usize;
            if self.children[cur].len() < capacity {
                return cur;
            }
            let next = *self.children[cur]
                .iter()
                .min_by_key(|&&c| self.children[c].len())
                .expect("full node has children");
            cur = next;
        }
    }

    fn attach(&mut self, child: usize, parent: usize) {
        debug_assert_ne!(child, parent);
        debug_assert!(self.parent[child].is_none());
        self.parent[child] = Some(parent);
        self.children[parent].push(child);
    }

    /// The rendezvous (root) member index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `member` in the shared tree (`None` for the root).
    pub fn parent_of(&self, member: usize) -> Option<usize> {
        self.parent[member]
    }

    /// Direct children of `member`.
    pub fn children_of(&self, member: usize) -> &[usize] {
        &self.children[member]
    }

    /// Number of members attached (always the full group by construction).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never: construction requires members).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds this session's forwarding load for one message from `source`
    /// into `load` (copies sent per member): each node on the upward path
    /// forwards one copy; during dissemination every internal node sends
    /// one copy per child.
    ///
    /// # Panics
    ///
    /// Panics if `load` is shorter than the group.
    pub fn accumulate_load(&self, source: usize, load: &mut [u64]) {
        // Upward: source → root (the root does not forward upward).
        let mut cur = source;
        while let Some(p) = self.parent[cur] {
            load[cur] += 1;
            cur = p;
        }
        // Downward: every internal node forwards to each child.
        for (m, children) in self.children.iter().enumerate() {
            load[m] += children.len() as u64;
        }
    }

    /// Sustainable session throughput under the paper's model:
    /// `min` over internal nodes of `B_x / d_x` (every message crosses the
    /// same tree regardless of source).
    pub fn bottleneck_throughput_kbps(&self, group: &MemberSet) -> f64 {
        let mut min = f64::INFINITY;
        for m in 0..self.len() {
            let d = self.children[m].len();
            if d > 0 {
                min = min.min(group.member(m).upload_kbps / d as f64);
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::IdSpace;
    use rand::{Rng, SeedableRng};

    fn overlay(n: usize, seed: u64) -> CamChord {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = IdSpace::new(14);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        CamChord::new(
            MemberSet::new(
                space,
                ids.iter()
                    .map(|&v| Member::with_capacity(Id(v), 4 + (v % 5) as u32))
                    .collect(),
            )
            .unwrap(),
        )
    }

    impl SharedTree {
        /// Tree depth of `member` (root = 0).
        fn depth_of(&self, member: usize) -> u32 {
            let mut depth = 0;
            let mut cur = member;
            while let Some(p) = self.parent[cur] {
                depth += 1;
                cur = p;
            }
            depth
        }

        /// Whether every member is connected to the root.
        fn is_spanning(&self) -> bool {
            (0..self.len()).all(|m| m == self.root || self.parent[m].is_some())
        }

        /// Hop count from `source` to `member` under the paper's model: the
        /// message climbs to the root, then disseminates down the tree.
        fn path_hops(&self, source: usize, member: usize) -> u32 {
            self.depth_of(source) + self.depth_of(member)
        }
    }

    #[test]
    fn spanning_and_degree_bounded() {
        let o = overlay(500, 1);
        let t = SharedTree::build(&o, Id(9999));
        assert!(t.is_spanning());
        assert!(!t.is_empty());
        for m in 0..t.len() {
            assert!(
                t.children_of(m).len() <= o.members().member(m).capacity as usize,
                "member {m} over capacity"
            );
            if let Some(p) = t.parent_of(m) {
                assert!(t.children_of(p).contains(&m));
                assert_eq!(t.depth_of(m), t.depth_of(p) + 1);
            }
        }
        assert_eq!(t.depth_of(t.root()), 0);
    }

    #[test]
    fn root_is_rendezvous_owner() {
        let o = overlay(100, 2);
        let key = Id(1234);
        let t = SharedTree::build(&o, key);
        assert_eq!(t.root(), o.members().owner_idx(key));
    }

    #[test]
    fn load_concentrates_on_internal_nodes() {
        let o = overlay(400, 3);
        let t = SharedTree::build(&o, Id(0));
        let mut load = vec![0u64; t.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let messages = 50;
        for _ in 0..messages {
            t.accumulate_load(rng.gen_range(0..t.len()), &mut load);
        }
        // Section 5.1: leaves never forward downward; with k > 2 the
        // majority of members are leaves and carry (almost) no load.
        let idle = load.iter().filter(|&&l| l < messages / 10).count();
        assert!(
            idle > t.len() / 3,
            "expected a large idle population, got {idle}/{}",
            t.len()
        );
        // Total downward copies per message = n − 1.
        let internal_total: u64 = (0..t.len()).map(|m| t.children_of(m).len() as u64).sum();
        assert_eq!(internal_total as usize, t.len() - 1);
    }

    #[test]
    fn path_hops_via_root() {
        let o = overlay(50, 5);
        let t = SharedTree::build(&o, Id(77));
        let r = t.root();
        assert_eq!(t.path_hops(r, r), 0);
        for m in 0..t.len() {
            assert_eq!(t.path_hops(r, m), t.depth_of(m), "root sends downhill only");
            assert_eq!(t.path_hops(m, r), t.depth_of(m), "member climbs to root");
        }
    }

    #[test]
    fn throughput_bounded_by_fullest_slow_node() {
        let o = overlay(300, 6);
        let t = SharedTree::build(&o, Id(5));
        let tput = t.bottleneck_throughput_kbps(o.members());
        assert!(tput.is_finite() && tput > 0.0);
        // d ≤ c and B = 100·c (test members) ⇒ throughput ≥ 100.
        assert!(tput >= 100.0, "capacity push-down keeps B/d ≥ p: {tput}");
    }

    #[test]
    fn push_down_handles_hotspots() {
        // All capacities minimal: the rendezvous fills instantly and joins
        // must cascade down several levels without panicking.
        let space = IdSpace::new(12);
        let members: Vec<Member> = (0..200u64)
            .map(|i| Member::with_capacity(Id(i * 20 + 1), 2))
            .collect();
        let o = CamChord::new(MemberSet::new(space, members).unwrap());
        let t = SharedTree::build(&o, Id(0));
        assert!(t.is_spanning());
        for m in 0..t.len() {
            assert!(t.children_of(m).len() <= 2);
        }
    }
}
