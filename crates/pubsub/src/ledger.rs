//! Global capacity accounting across concurrent multicast groups.
//!
//! The paper bounds each node's multicast children by its capacity `c_x`
//! — but per *group*. When one overlay hosts many groups, the bound that
//! actually protects a node's uplink is the **aggregate**: the sum of its
//! child counts over every group it forwards for must stay within `c_x`.
//! [`CapacityLedger`] tracks exactly that sum, so the region-partition
//! math for a new group sees only the *residual* capacity left over by
//! the groups already charged.

use std::collections::BTreeMap;

/// A node whose aggregate charge exceeds its declared capacity.
///
/// Produced by [`CapacityLedger::verify`]; the chaos oracle treats any
/// occurrence at a quiescent point as an invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overcommit {
    /// Universe index of the overcommitted node.
    pub node: usize,
    /// The node's declared capacity `c_x`.
    pub capacity: u32,
    /// Total children charged across all groups.
    pub charged: u32,
}

impl std::fmt::Display for Overcommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} charged {} children across groups but has capacity {}",
            self.node, self.charged, self.capacity
        )
    }
}

/// Per-node child-count accounting across all live groups.
///
/// Nodes are addressed by their index in the shared *universe*
/// [`MemberSet`](cam_overlay::MemberSet); each group's tree build commits
/// the per-parent fanouts it actually used, and later builds subtract
/// those commitments from the capacities they may spend.
///
/// # Example
///
/// ```
/// use cam_pubsub::CapacityLedger;
///
/// let mut ledger = CapacityLedger::new(vec![4, 6, 8]);
/// ledger.commit(7, vec![(0, 3), (2, 2)]);
/// assert_eq!(ledger.residual(0), 1);
/// assert_eq!(ledger.residual(1), 6);
/// // A rebuild of group 7 itself may respend group 7's own charge:
/// assert_eq!(ledger.residual_excluding(0, 7), 4);
/// assert!(ledger.verify().is_ok());
/// ledger.release(7);
/// assert_eq!(ledger.residual(0), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityLedger {
    /// Declared capacity `c_x` per universe index.
    capacities: Vec<u32>,
    /// Aggregate children charged per universe index, over all groups.
    charged: Vec<u32>,
    /// Per-group charges `(node, children)`, sorted by node index.
    per_group: BTreeMap<u64, Vec<(usize, u32)>>,
}

impl CapacityLedger {
    /// A ledger over `capacities.len()` nodes, nothing charged yet.
    pub fn new(capacities: Vec<u32>) -> Self {
        let n = capacities.len();
        CapacityLedger {
            capacities,
            charged: vec![0; n],
            per_group: BTreeMap::new(),
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// True iff the ledger tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// Declared capacity `c_x` of `node`.
    pub fn capacity(&self, node: usize) -> u32 {
        self.capacities[node]
    }

    /// Aggregate children charged to `node` across all groups.
    pub fn charged(&self, node: usize) -> u32 {
        self.charged[node]
    }

    /// Capacity `node` still has after all committed charges
    /// (saturating at zero, so a transiently overcommitted node reads as
    /// having nothing left rather than wrapping).
    pub fn residual(&self, node: usize) -> u32 {
        self.capacities[node].saturating_sub(self.charged[node])
    }

    /// Residual capacity of `node` ignoring whatever `group` itself has
    /// charged — the budget a *rebuild* of `group` is allowed to spend.
    pub fn residual_excluding(&self, node: usize, group: u64) -> u32 {
        let charges = self.group_charges(group);
        let own = charges
            .binary_search_by_key(&node, |&(n, _)| n)
            .map_or(0, |at| charges[at].1);
        self.residual_with_own(node, own)
    }

    /// [`residual_excluding`](Self::residual_excluding) of every node in
    /// `nodes`, which must strictly ascend: one merge of `nodes` with the
    /// group's charges (sorted by node too), so a rebuild prices all its
    /// members in `O(nodes + charges)`.
    pub fn residuals_excluding(&self, nodes: &[usize], group: u64) -> Vec<u32> {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes must strictly ascend"
        );
        let mut charges = self.group_charges(group).iter().peekable();
        nodes
            .iter()
            .map(|&node| {
                while charges.next_if(|&&(n, _)| n < node).is_some() {}
                let own = charges.next_if(|&&(n, _)| n == node).map_or(0, |&(_, c)| c);
                self.residual_with_own(node, own)
            })
            .collect()
    }

    /// The one residual formula: `node`'s capacity less every charge but
    /// `own`, saturating at zero.
    pub(crate) fn residual_with_own(&self, node: usize, own: u32) -> u32 {
        self.capacities[node].saturating_sub(self.charged[node].saturating_sub(own))
    }

    /// The charges committed for `group`, `(node, children)` sorted by
    /// node index; empty if the group has committed nothing.
    pub fn group_charges(&self, group: u64) -> &[(usize, u32)] {
        self.per_group.get(&group).map_or(&[], Vec::as_slice)
    }

    /// Groups with committed charges, ascending.
    pub fn groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.per_group.keys().copied()
    }

    /// Replaces `group`'s charges with `charges` (any previous commitment
    /// for the group is released first). Entries for the same node are
    /// summed into one; zero-child entries are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn commit(&mut self, group: u64, mut charges: Vec<(usize, u32)>) {
        self.release(group);
        charges.retain(|&(_, c)| c > 0);
        charges.sort_unstable_by_key(|&(n, _)| n);
        charges.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        for &(node, children) in &charges {
            self.charged[node] += children;
        }
        if !charges.is_empty() {
            self.per_group.insert(group, charges);
        }
    }

    /// Removes `group`'s charges (no-op if it committed nothing).
    pub fn release(&mut self, group: u64) {
        if let Some(charges) = self.per_group.remove(&group) {
            for (node, children) in charges {
                self.charged[node] -= children;
            }
        }
    }

    /// Checks the global invariant: every node's aggregate charge stays
    /// within its declared capacity.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed violating node.
    pub fn verify(&self) -> Result<(), Overcommit> {
        for (node, (&capacity, &charged)) in
            self.capacities.iter().zip(&self.charged).enumerate()
        {
            if charged > capacity {
                return Err(Overcommit {
                    node,
                    capacity,
                    charged,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_release_roundtrip_restores_residuals() {
        let mut ledger = CapacityLedger::new(vec![4, 4, 4]);
        ledger.commit(1, vec![(0, 2), (1, 1)]);
        ledger.commit(2, vec![(0, 2), (2, 4)]);
        assert_eq!(ledger.residual(0), 0);
        assert_eq!(ledger.residual(1), 3);
        assert_eq!(ledger.residual(2), 0);
        assert!(ledger.verify().is_ok());
        ledger.release(2);
        ledger.release(1);
        let fresh = CapacityLedger::new(vec![4, 4, 4]);
        assert_eq!(ledger, fresh);
    }

    #[test]
    fn recommit_replaces_rather_than_accumulates() {
        let mut ledger = CapacityLedger::new(vec![10]);
        ledger.commit(5, vec![(0, 9)]);
        ledger.commit(5, vec![(0, 2)]);
        assert_eq!(ledger.charged(0), 2);
        assert_eq!(ledger.group_charges(5), &[(0, 2)]);
    }

    #[test]
    fn residual_excluding_adds_back_only_the_groups_own_charge() {
        let mut ledger = CapacityLedger::new(vec![6]);
        ledger.commit(1, vec![(0, 2)]);
        ledger.commit(2, vec![(0, 3)]);
        assert_eq!(ledger.residual(0), 1);
        assert_eq!(ledger.residual_excluding(0, 1), 3);
        assert_eq!(ledger.residual_excluding(0, 2), 4);
        assert_eq!(ledger.residual_excluding(0, 99), 1);
    }

    #[test]
    fn duplicate_entries_are_summed_into_one_charge() {
        let mut ledger = CapacityLedger::new(vec![10]);
        ledger.commit(7, vec![(0, 3), (0, 2)]);
        assert_eq!(ledger.charged(0), 5);
        assert_eq!(ledger.group_charges(7), &[(0, 5)]);
        assert_eq!(ledger.residual_excluding(0, 7), 10);
        assert_eq!(ledger.residuals_excluding(&[0], 7), vec![10]);
        ledger.release(7);
        assert_eq!(ledger.charged(0), 0);
    }

    #[test]
    fn verify_reports_the_lowest_overcommitted_node() {
        let mut ledger = CapacityLedger::new(vec![2, 2]);
        ledger.commit(1, vec![(0, 2), (1, 2)]);
        ledger.commit(2, vec![(0, 1), (1, 1)]);
        let err = ledger.verify().unwrap_err();
        assert_eq!(
            err,
            Overcommit {
                node: 0,
                capacity: 2,
                charged: 3
            }
        );
        assert!(err.to_string().contains("node 0"));
    }

    #[test]
    fn zero_child_entries_are_dropped() {
        let mut ledger = CapacityLedger::new(vec![4]);
        ledger.commit(1, vec![(0, 0)]);
        assert_eq!(ledger.group_charges(1), &[]);
        assert_eq!(ledger.groups().count(), 0);
    }
}
