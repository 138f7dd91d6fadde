//! Reference ring resolution by `O(log n)` binary search over the sorted
//! identifiers, independent of [`MemberSet`]'s bucket index. Shared (via
//! `#[path]`) by `crates/overlay/tests/bucket_index.rs` and the root
//! `tests/property_invariants.rs`, which hold the indexed resolvers to it.

use cam_overlay::MemberSet;
use cam_ring::Id;

/// The sorted identifiers of one [`MemberSet`].
pub struct RingOracle {
    ids: Vec<u64>,
}

impl RingOracle {
    pub fn new(group: &MemberSet) -> Self {
        RingOracle {
            ids: group.iter().map(|m| m.id.value()).collect(),
        }
    }

    /// Reference for [`MemberSet::owner_idx`].
    pub fn owner_idx(&self, k: Id) -> usize {
        let i = self.ids.partition_point(|&id| id < k.value());
        if i == self.ids.len() {
            0
        } else {
            i
        }
    }

    /// Reference for [`MemberSet::successor_idx`].
    pub fn successor_idx(&self, k: Id) -> usize {
        let i = self.ids.partition_point(|&id| id <= k.value());
        if i == self.ids.len() {
            0
        } else {
            i
        }
    }

    /// Reference for [`MemberSet::predecessor_idx`].
    pub fn predecessor_idx(&self, k: Id) -> usize {
        let i = self.ids.partition_point(|&id| id < k.value());
        if i == 0 {
            self.ids.len() - 1
        } else {
            i - 1
        }
    }
}
