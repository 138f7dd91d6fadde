//! The multi-group registry: create/subscribe/unsubscribe/publish with
//! admission control against the global [`CapacityLedger`].

use std::collections::BTreeMap;
use std::mem;

use cam_core::cam_chord::multicast::{multicast_into_capped, select_children_capped_into};
use cam_core::cam_chord::ChildSelection;
use cam_overlay::dynamic::group_root_id;
use cam_overlay::stream::region_walk;
use cam_overlay::{DeliverySink, MemberSet};
use cam_trace::GroupDeliveryCensus;

use crate::ledger::CapacityLedger;

/// Outcome of a subscription attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; every internal node of the group's tree ran with its
    /// full capacity available.
    Admitted,
    /// Admitted, but at least one internal node had to run the region
    /// split with *residual* capacity below its declared `c_x` (other
    /// groups hold the rest), so the tree is deeper than a dedicated
    /// overlay would build.
    AdmittedDegraded,
    /// Rejected: the rebuilt tree needs `node` (universe index) to
    /// forward, and `node` has no capacity left. The registry is
    /// unchanged.
    Rejected {
        /// Universe index of the first forwarder, in walk order, whose
        /// residual capacity is zero.
        node: usize,
    },
}

impl Admission {
    /// True for both admitted variants.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, Admission::Rejected { .. })
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PubSubError {
    /// The group id is not registered.
    UnknownGroup(u64),
    /// [`GroupRegistry::create_group`] on an id that already exists.
    DuplicateGroup(u64),
    /// A node index at or past the universe size.
    UnknownNode(usize),
}

impl std::fmt::Display for PubSubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PubSubError::UnknownGroup(g) => write!(f, "group {g} does not exist"),
            PubSubError::DuplicateGroup(g) => write!(f, "group {g} already exists"),
            PubSubError::UnknownNode(n) => write!(f, "node index {n} out of range"),
        }
    }
}

impl std::error::Error for PubSubError {}

/// Summary of one publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// Current subscriber count of the group.
    pub subscribers: usize,
    /// Subscribers the publish reached (the source included). Equals
    /// `subscribers` whenever the group has a live tree; zero when it is
    /// empty or stalled.
    pub reached: usize,
}

/// One group's live multicast state: the residual caps frozen at build
/// time, so later ledger churn never silently reroutes an existing tree.
#[derive(Debug, Clone)]
struct GroupTree {
    /// Residual capacity granted to sub-member `i` at build time.
    caps: Vec<u32>,
    /// Canonical source: sub-index owning `group_root_id`.
    root: usize,
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    /// Subscribers by universe index, strictly ascending.
    subscribers: Vec<usize>,
    /// Subscribers as a member set (full declared capacities; residual
    /// limits are applied through the tree's `caps`, not the set), so
    /// sub-member `i` is `subscribers[i]`; `None` iff the group is empty.
    /// Kept while the group is stalled: a rebalance builds over it.
    members: Option<MemberSet>,
    /// Built tree; `None` while the group is empty or stalled.
    tree: Option<GroupTree>,
    /// True iff some internal node built with residual < full capacity.
    degraded: bool,
    /// `Some` iff the last rebuild was refused by admission control (a
    /// mandatory forwarder had residual zero) — publishes reach nobody
    /// until a rebalance frees capacity. Holds `(node, residual)` for every
    /// forwarder the refused walk ran, the refuser included, ascending by
    /// node: the only residuals that walk read.
    stalled: Option<Vec<(usize, u32)>>,
}

impl GroupState {
    /// The live tree over its member set, whose sub-member `i` is
    /// `subscribers[i]`.
    fn tree(&self, universe: &MemberSet) -> Option<(&MemberSet, &GroupTree)> {
        let tree = self.tree.as_ref()?;
        let members = self.members.as_ref().expect("a live tree has members");
        debug_assert!(
            members.len() == self.subscribers.len()
                && (self.subscribers.iter().enumerate())
                    .all(|(i, &u)| members.id_at(i) == universe.id_at(u)),
            "a group's tree spans exactly its subscribers"
        );
        Some((members, tree))
    }

    fn admission(&self) -> Admission {
        if self.degraded {
            Admission::AdmittedDegraded
        } else {
            Admission::Admitted
        }
    }
}

/// Result of one tree build, before it is committed anywhere.
struct Built {
    tree: Option<GroupTree>,
    charges: Vec<(usize, u32)>,
    degraded: bool,
}

/// A build refused by admission control, with what its walk read.
struct Refused {
    /// Universe index of the first zero-residual forwarder.
    node: usize,
    /// Residual capacity of each sub-member, as the build priced it.
    caps: Vec<u32>,
    /// Children each sub-member forwarded to before the walk stopped.
    fanout: Vec<u32>,
}

/// Counts each parent's fanout while a tree build walks the partition.
struct FanoutCounter {
    fanout: Vec<u32>,
}

impl DeliverySink for FanoutCounter {
    fn deliver(&mut self, parent: usize, _child: usize, _hops: u32) -> bool {
        self.fanout[parent] += 1;
        true
    }
}

/// Forwards deliveries to a caller sink with indices remapped from the
/// group's sub-member space to the shared universe, while counting the
/// distinct subscribers reached.
struct Remap<'a, S> {
    inner: &'a mut S,
    to_universe: &'a [usize],
    seen: Vec<bool>,
    reached: usize,
}

impl<S: DeliverySink> DeliverySink for Remap<'_, S> {
    fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool {
        if !self.seen[child] {
            self.seen[child] = true;
            self.reached += 1;
        }
        self.inner
            .deliver(self.to_universe[parent], self.to_universe[child], hops)
    }
}

/// Multi-group publish/subscribe over one shared overlay.
///
/// All groups draw children from the same *universe* of nodes and the
/// same global capacity pool: a node serving 3 children in one group has
/// 3 fewer to offer every other group. Subscriptions pass **admission
/// control** — the group's implicit tree is rebuilt over its subscribers
/// with each node capped at its ledger residual, and the subscription is
/// rejected (registry unchanged) if the tree needs a node with no
/// residual capacity to forward.
///
/// # Example
///
/// ```
/// use cam_overlay::{Member, MemberSet};
/// use cam_pubsub::{Admission, GroupRegistry};
/// use cam_ring::{Id, IdSpace};
///
/// let space = IdSpace::new(8);
/// let members: Vec<Member> = (0..16)
///     .map(|i| Member::with_capacity(Id(i * 16), 4))
///     .collect();
/// let mut reg = GroupRegistry::new(MemberSet::new(space, members)?);
///
/// reg.create_group(7)?;
/// for node in 0..16 {
///     assert!(reg.subscribe(7, node)?.is_admitted());
/// }
/// let stats = reg.publish_counting(7)?;
/// assert_eq!(stats.reached, 16); // every subscriber, exactly once
/// assert!(reg.ledger().verify().is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GroupRegistry {
    universe: MemberSet,
    ledger: CapacityLedger,
    groups: BTreeMap<u64, GroupState>,
}

impl GroupRegistry {
    /// A registry over `universe`.
    pub fn new(universe: MemberSet) -> Self {
        let capacities = (0..universe.len())
            .map(|i| universe.capacity_at(i))
            .collect();
        GroupRegistry {
            universe,
            ledger: CapacityLedger::new(capacities),
            groups: BTreeMap::new(),
        }
    }

    /// The shared node universe.
    pub fn universe(&self) -> &MemberSet {
        &self.universe
    }

    /// The global capacity ledger (the chaos `cross_group_capacity`
    /// oracle checks [`CapacityLedger::verify`] on this at quiescence).
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// Registered group ids, ascending.
    pub fn group_ids(&self) -> Vec<u64> {
        self.groups.keys().copied().collect()
    }

    /// Number of registered groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True iff no groups are registered.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// True iff `node` currently subscribes to `group`.
    pub fn is_subscribed(&self, group: u64, node: usize) -> bool {
        self.groups
            .get(&group)
            .is_some_and(|s| s.subscribers.binary_search(&node).is_ok())
    }

    /// Subscriber count of `group` (zero if unknown).
    pub fn subscriber_count(&self, group: u64) -> usize {
        self.groups.get(&group).map_or(0, |s| s.subscribers.len())
    }

    /// True iff `group` is admitted but running on residual capacity.
    pub fn is_degraded(&self, group: u64) -> bool {
        self.groups.get(&group).is_some_and(|s| s.degraded)
    }

    /// True iff `group` currently has no buildable tree (capacity
    /// exhausted by other groups) and publishes reach nobody.
    pub fn is_stalled(&self, group: u64) -> bool {
        self.groups.get(&group).is_some_and(|s| s.stalled.is_some())
    }

    /// Registers an empty group.
    ///
    /// # Errors
    ///
    /// [`PubSubError::DuplicateGroup`] if the id is taken.
    pub fn create_group(&mut self, group: u64) -> Result<(), PubSubError> {
        if self.groups.contains_key(&group) {
            return Err(PubSubError::DuplicateGroup(group));
        }
        self.groups.insert(group, GroupState::default());
        Ok(())
    }

    /// Removes `group`, releases its capacity charges, and rebalances:
    /// the freed capacity lets degraded or stalled groups rebuild closer
    /// to their full-capacity trees.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] if the id is not registered.
    pub fn destroy_group(&mut self, group: u64) -> Result<(), PubSubError> {
        if self.groups.remove(&group).is_none() {
            return Err(PubSubError::UnknownGroup(group));
        }
        self.ledger.release(group);
        self.rebalance();
        Ok(())
    }

    /// Adds `node` to `group` under admission control. Idempotent: a
    /// repeat subscription reports the group's current admission state
    /// without rebuilding.
    ///
    /// On [`Admission::Rejected`] nothing changes — the candidate tree
    /// was built against the ledger, reached a forwarder with no residual
    /// capacity, and was discarded.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] / [`PubSubError::UnknownNode`].
    pub fn subscribe(&mut self, group: u64, node: usize) -> Result<Admission, PubSubError> {
        if node >= self.universe.len() {
            return Err(PubSubError::UnknownNode(node));
        }
        let state = self
            .groups
            .get_mut(&group)
            .ok_or(PubSubError::UnknownGroup(group))?;
        let Err(at) = state.subscribers.binary_search(&node) else {
            return Ok(state.admission());
        };
        let mut subscribers = mem::take(&mut state.subscribers);
        subscribers.insert(at, node);
        let members = self.universe.subset(&subscribers);
        let built = self.build(group, &subscribers, Some(&members));
        let state = self.state_mut(group);
        match built {
            Ok(built) => {
                state.subscribers = subscribers;
                state.members = Some(members);
                self.commit(group, built);
                Ok(self.state_mut(group).admission())
            }
            Err(refused) => {
                subscribers.remove(at);
                state.subscribers = subscribers;
                Ok(Admission::Rejected { node: refused.node })
            }
        }
    }

    /// Removes `node` from `group` (no-op if it was not subscribed) and
    /// rebuilds the group's tree over the remaining subscribers.
    ///
    /// Departure cannot be refused, so if the shrunken tree happens to
    /// need capacity other groups now hold (owner regions shift when a
    /// member leaves), the group stalls rather than overcommit, and a
    /// rebalance pass immediately tries to revive it and any other
    /// stalled or degraded group.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] if the id is not registered.
    pub fn unsubscribe(&mut self, group: u64, node: usize) -> Result<(), PubSubError> {
        let state = self
            .groups
            .get_mut(&group)
            .ok_or(PubSubError::UnknownGroup(group))?;
        let Ok(at) = state.subscribers.binary_search(&node) else {
            return Ok(());
        };
        state.subscribers.remove(at);
        state.members =
            (!state.subscribers.is_empty()).then(|| self.universe.subset(&state.subscribers));
        if self.rebuild(group) {
            self.rebalance();
        }
        Ok(())
    }

    /// Re-examines every degraded or stalled group, ascending group id,
    /// against the current ledger, and rebuilds each one whose last build
    /// read a residual that has since changed. A group whose residuals all
    /// still hold is skipped: its rebuild would commit the same charges,
    /// or be refused again (DESIGN.md §3g). Deterministic: the order and
    /// each build are pure functions of registry state.
    pub fn rebalance(&mut self) {
        for group in self.rebalance_targets() {
            if !self.unchanged(group) {
                self.rebuild(group);
            }
        }
    }

    /// Every degraded or stalled group, ascending.
    fn rebalance_targets(&self) -> Vec<u64> {
        (self.groups.iter())
            .filter(|(_, s)| s.degraded || s.stalled.is_some())
            .map(|(&g, _)| g)
            .collect()
    }

    /// Publishes in `group` from its canonical root, replaying the caps
    /// frozen at build time into `sink` with **universe** indices.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] if the id is not registered.
    pub fn publish_into<S: DeliverySink>(
        &self,
        group: u64,
        sink: &mut S,
    ) -> Result<PublishStats, PubSubError> {
        let state = self
            .groups
            .get(&group)
            .ok_or(PubSubError::UnknownGroup(group))?;
        let subscribers = state.subscribers.len();
        let Some((members, tree)) = state.tree(&self.universe) else {
            return Ok(PublishStats {
                subscribers,
                reached: 0,
            });
        };
        let mut remap = Remap {
            inner: sink,
            to_universe: &state.subscribers,
            seen: vec![false; members.len()],
            reached: 1, // the source holds the payload from the start
        };
        remap.seen[tree.root] = true;
        multicast_into_capped(
            members,
            tree.root,
            ChildSelection::Ceil,
            |i| tree.caps[i],
            &mut remap,
        );
        Ok(PublishStats {
            subscribers,
            reached: remap.reached,
        })
    }

    /// [`publish_into`](Self::publish_into) with a throwaway sink — just
    /// the stats.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] if the id is not registered.
    pub fn publish_counting(&self, group: u64) -> Result<PublishStats, PubSubError> {
        struct Null;
        impl DeliverySink for Null {
            fn deliver(&mut self, _p: usize, _c: usize, _h: u32) -> bool {
                true
            }
        }
        self.publish_into(group, &mut Null)
    }

    /// Publishes in `group` and folds the outcome into `census`: one
    /// observation per subscriber, delivered iff the tree reached it
    /// (a stalled group contributes all-undelivered observations, so its
    /// ratio honestly reads 0).
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownGroup`] if the id is not registered.
    pub fn publish_census(
        &self,
        group: u64,
        census: &mut GroupDeliveryCensus,
    ) -> Result<PublishStats, PubSubError> {
        let stats = self.publish_counting(group)?;
        for i in 0..stats.subscribers {
            census.observe(group, true, i < stats.reached);
        }
        Ok(stats)
    }

    /// Builds `group`'s tree over `subscribers` (strictly ascending),
    /// whose member set is `members` (`None` iff there are none), against
    /// the current ledger (the group's own existing charge does not count
    /// against it).
    ///
    /// The build is refused at the first forwarder, in walk order, whose
    /// residual is zero: chain mode still hands it one child, past its
    /// cap. The walk stops selecting there and the queue drains. No other
    /// node can be over its cap (DESIGN.md §3g).
    fn build(
        &self,
        group: u64,
        subscribers: &[usize],
        members: Option<&MemberSet>,
    ) -> Result<Built, Refused> {
        let Some(members) = members else {
            return Ok(Built {
                tree: None,
                charges: Vec::new(),
                degraded: false,
            });
        };
        let caps = self.ledger.residuals_excluding(subscribers, group);
        let root = members.owner_idx(group_root_id(members.space(), group));
        let mut counter = FanoutCounter {
            fanout: vec![0; members.len()],
        };
        let mut refuser = None;
        region_walk(members, root, &mut counter, |node, k, picks| {
            if refuser.is_none() {
                let cap = caps[node];
                select_children_capped_into(members, node, k, cap, ChildSelection::Ceil, picks);
                if cap == 0 && !picks.is_empty() {
                    refuser = Some(node);
                }
            }
        });
        if let Some(i) = refuser {
            return Err(Refused {
                node: subscribers[i],
                caps,
                fanout: counter.fanout,
            });
        }
        let mut charges = Vec::new();
        let mut degraded = false;
        for (i, (&fanout, &cap)) in counter.fanout.iter().zip(&caps).enumerate() {
            debug_assert!(
                fanout <= cap,
                "only a zero-residual forwarder exceeds its cap"
            );
            if fanout > 0 {
                charges.push((subscribers[i], fanout));
                degraded |= cap < members.capacity_at(i);
            }
        }
        Ok(Built {
            tree: Some(GroupTree { caps, root }),
            charges,
            degraded,
        })
    }

    /// True iff every residual `group`'s last build read still holds, so
    /// that rebuilding it would repeat the build exactly. A walk reads the
    /// residual of its forwarders only: a live group's are its ledger
    /// charges, priced in its frozen caps, and a stalled group keeps its
    /// own (DESIGN.md §3g).
    fn unchanged(&self, group: u64) -> bool {
        let state = &self.groups[&group];
        if let Some(read) = &state.stalled {
            // A stalled group charges nothing: its residuals are the plain ones.
            return read
                .iter()
                .all(|&(node, residual)| self.ledger.residual(node) == residual);
        }
        let tree = state.tree.as_ref().expect("a degraded group is live");
        self.ledger.group_charges(group).iter().all(|&(node, own)| {
            let at = (state.subscribers.binary_search(&node))
                .expect("a group charges only its subscribers");
            tree.caps[at] == self.ledger.residual_with_own(node, own)
        })
    }

    /// Rebuilds `group` over its current members, then commits the tree
    /// or stalls the group. Returns true iff it stalled.
    fn rebuild(&mut self, group: u64) -> bool {
        let state = &self.groups[&group];
        match self.build(group, &state.subscribers, state.members.as_ref()) {
            Ok(built) => {
                self.commit(group, built);
                false
            }
            Err(refused) => {
                self.stall(group, &refused);
                true
            }
        }
    }

    /// The state of `group`, which must be registered.
    fn state_mut(&mut self, group: u64) -> &mut GroupState {
        self.groups.get_mut(&group).expect("group exists")
    }

    /// Installs a successful build over the group's current subscribers:
    /// ledger charges plus group state.
    fn commit(&mut self, group: u64, built: Built) {
        self.ledger.commit(group, built.charges);
        let state = self.state_mut(group);
        state.tree = built.tree;
        state.degraded = built.degraded;
        state.stalled = None;
    }

    /// Parks `group` with no tree and no charges, keeping the residual of
    /// every forwarder its refused walk ran.
    fn stall(&mut self, group: u64, refused: &Refused) {
        self.ledger.release(group);
        let state = self.state_mut(group);
        let read = (0..refused.fanout.len())
            .filter(|&i| refused.fanout[i] > 0)
            .map(|i| (state.subscribers[i], refused.caps[i]))
            .collect();
        state.tree = None;
        state.degraded = false;
        state.stalled = Some(read);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::{Id, IdSpace};
    use cam_workload::{GroupOp, MultiGroupScenario, Scenario};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl GroupRegistry {
        /// Universe index of `group`'s canonical source (the subscriber
        /// owning the group's rendezvous identifier), if the tree is live.
        fn group_root(&self, group: u64) -> Option<usize> {
            let state = self.groups.get(&group)?;
            Some(state.subscribers[state.tree(&self.universe)?.1.root])
        }
    }

    /// `n` nodes spread over an 8-bit ring, all with capacity `c`.
    fn uniform_universe(n: u64, c: u32) -> MemberSet {
        let space = IdSpace::new(8);
        let members = (0..n)
            .map(|i| Member::with_capacity(Id(i * (space.size() / n)), c))
            .collect();
        MemberSet::new(space, members).unwrap()
    }

    #[test]
    fn publish_reaches_every_subscriber_exactly_once() {
        let mut reg = GroupRegistry::new(uniform_universe(24, 4));
        reg.create_group(1).unwrap();
        for node in (0..24).step_by(2) {
            assert!(reg.subscribe(1, node).unwrap().is_admitted());
        }
        struct Count(Vec<u32>);
        impl DeliverySink for Count {
            fn deliver(&mut self, _p: usize, c: usize, _h: u32) -> bool {
                self.0[c] += 1;
                true
            }
        }
        let mut count = Count(vec![0; 24]);
        let stats = reg.publish_into(1, &mut count).unwrap();
        assert_eq!(stats.subscribers, 12);
        assert_eq!(stats.reached, 12);
        let root = reg.group_root(1).unwrap();
        for node in 0..24 {
            let expect = u32::from(node % 2 == 0 && node != root);
            assert_eq!(count.0[node], expect, "node {node}");
        }
    }

    #[test]
    fn capacity_spent_in_one_group_degrades_the_next() {
        // Two nodes, capacity 2 each. Pick two group ids sharing the same
        // rendezvous root: the first group charges that root one child,
        // so the second group's single edge must build on residual
        // capacity — a guaranteed AdmittedDegraded.
        let universe = uniform_universe(2, 2);
        let space = universe.space();
        let owner = |g: u64| universe.owner_idx(group_root_id(space, g));
        let g1 = 1u64;
        let g2 = (2u64..).find(|&g| owner(g) == owner(g1)).unwrap();
        let mut reg = GroupRegistry::new(universe);
        reg.create_group(g1).unwrap();
        reg.create_group(g2).unwrap();
        for node in 0..2 {
            assert_eq!(reg.subscribe(g1, node).unwrap(), Admission::Admitted);
        }
        let mut last = Admission::Admitted;
        for node in 0..2 {
            last = reg.subscribe(g2, node).unwrap();
        }
        assert_eq!(last, Admission::AdmittedDegraded);
        assert!(reg.is_degraded(g2));
        assert!(!reg.is_degraded(g1));
        assert!(reg.ledger().verify().is_ok());
        // Both groups still deliver exactly-once.
        assert_eq!(reg.publish_counting(g1).unwrap().reached, 2);
        assert_eq!(reg.publish_counting(g2).unwrap().reached, 2);
    }

    #[test]
    fn piling_on_groups_eventually_degrades_or_rejects() {
        // Capacity 3 × 16 nodes: keep adding full-universe groups. The
        // shared pool must visibly constrain later groups, the ledger
        // invariant must hold throughout, and every *admitted* group must
        // keep delivering exactly-once.
        let mut reg = GroupRegistry::new(uniform_universe(16, 3));
        let mut constrained = false;
        let mut full = Vec::new();
        'outer: for g in 1u64..=8 {
            reg.create_group(g).unwrap();
            for node in 0..16 {
                match reg.subscribe(g, node).unwrap() {
                    Admission::Admitted => {}
                    Admission::AdmittedDegraded => constrained = true,
                    Admission::Rejected { .. } => {
                        constrained = true;
                        break 'outer;
                    }
                }
            }
            full.push(g);
            assert!(reg.ledger().verify().is_ok(), "after group {g}");
        }
        assert!(constrained, "8 full-universe groups must strain the pool");
        assert!(reg.ledger().verify().is_ok());
        for g in full {
            assert_eq!(reg.publish_counting(g).unwrap().reached, 16, "group {g}");
        }
    }

    #[test]
    fn exhausted_capacity_rejects_and_leaves_registry_unchanged() {
        // Universe of 4 nodes, capacity 2 each: total pool 8 slots. Load
        // groups until a subscription is refused, then check nothing
        // about the refused group changed.
        let mut reg = GroupRegistry::new(uniform_universe(4, 2));
        let mut g = 0u64;
        let rejected = 'outer: loop {
            g += 1;
            reg.create_group(g).unwrap();
            for node in 0..4 {
                if let Admission::Rejected { node: n } = reg.subscribe(g, node).unwrap() {
                    break 'outer n;
                }
            }
            assert!(g < 64, "pool must exhaust eventually");
        };
        assert!(rejected < 4);
        assert!(reg.ledger().verify().is_ok());
        let before = reg.ledger().clone();
        // Retrying the same subscription keeps rejecting, ledger stable.
        let state = reg.subscribe(g, 3);
        assert!(matches!(state, Ok(Admission::Rejected { .. })));
        assert_eq!(*reg.ledger(), before);
    }

    #[test]
    fn destroy_rebalances_degraded_groups_back_to_full_capacity() {
        let mut reg = GroupRegistry::new(uniform_universe(16, 3));
        reg.create_group(1).unwrap();
        reg.create_group(2).unwrap();
        for node in 0..16 {
            reg.subscribe(1, node).unwrap();
            reg.subscribe(2, node).unwrap();
        }
        assert!(reg.is_degraded(2));
        reg.destroy_group(1).unwrap();
        assert!(!reg.is_degraded(2), "freed capacity un-degrades group 2");
        assert_eq!(reg.publish_counting(2).unwrap().reached, 16);
        assert!(reg.ledger().verify().is_ok());
    }

    #[test]
    fn destroy_revives_a_group_stalled_on_a_zero_residual_forwarder() {
        // 16 nodes of capacity 2, ids 16 apart. Group `s` roots at node
        // `r`; `d` roots at `r`'s successor `r1` and takes both of its
        // slots. When `r` leaves `s`, `r1` becomes the root, a forwarder
        // with residual 0, so `s` stalls on it; freeing `r1` must revive
        // `s` even though no other residual its walk read has changed.
        let universe = uniform_universe(16, 2);
        let space = universe.space();
        let owner = |g: u64| universe.owner_idx(group_root_id(space, g));
        let s = 1u64;
        let r = owner(s);
        let r1 = (r + 1) % 16;
        let d = (2u64..).find(|&g| owner(g) == r1).unwrap();
        let mut reg = GroupRegistry::new(universe);
        reg.create_group(s).unwrap();
        reg.create_group(d).unwrap();
        // r's children in `s` are r1 and the owner of r + 128, so r1 is a
        // leaf there and keeps both slots for `d`.
        for node in [r, r1, (r + 8) % 16] {
            assert_eq!(reg.subscribe(s, node).unwrap(), Admission::Admitted);
        }
        for node in 0..16 {
            assert!(reg.subscribe(d, node).unwrap().is_admitted());
        }
        assert_eq!(reg.ledger().residual(r1), 0);
        reg.unsubscribe(s, r).unwrap();
        assert!(reg.is_stalled(s), "s roots at r1, which has no slot left");
        reg.rebalance();
        assert!(reg.is_stalled(s), "nothing freed, nothing revives");
        reg.destroy_group(d).unwrap();
        assert!(!reg.is_stalled(s), "freeing r1 revives s");
        assert_eq!(reg.publish_counting(s).unwrap().reached, 2);
        assert!(reg.ledger().verify().is_ok());
    }

    #[test]
    fn unsubscribe_shrinks_the_tree_and_releases_charges() {
        let mut reg = GroupRegistry::new(uniform_universe(12, 4));
        reg.create_group(9).unwrap();
        for node in 0..12 {
            reg.subscribe(9, node).unwrap();
        }
        for node in 4..12 {
            reg.unsubscribe(9, node).unwrap();
        }
        assert_eq!(reg.subscriber_count(9), 4);
        assert_eq!(reg.publish_counting(9).unwrap().reached, 4);
        // Unsubscribe below the tree: releasing everyone releases all
        // charges.
        for node in 0..4 {
            reg.unsubscribe(9, node).unwrap();
        }
        assert_eq!(reg.ledger().groups().count(), 0);
        assert_eq!(reg.publish_counting(9).unwrap().reached, 0);
    }

    #[test]
    fn census_of_live_groups_reads_ratio_one() {
        let mut reg = GroupRegistry::new(uniform_universe(20, 4));
        for g in 1..=3 {
            reg.create_group(g).unwrap();
            for node in 0..20 {
                if !(node as u64 + g).is_multiple_of(3) {
                    reg.subscribe(g, node).unwrap();
                }
            }
        }
        let mut census = GroupDeliveryCensus::new();
        for g in 1..=3 {
            reg.publish_census(g, &mut census).unwrap();
        }
        assert_eq!(census.len(), 3);
        for (g, per_group) in census.iter() {
            assert_eq!(per_group.ratio(), 1.0, "group {g}");
        }
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let mut reg = GroupRegistry::new(uniform_universe(4, 2));
        assert_eq!(reg.subscribe(5, 0), Err(PubSubError::UnknownGroup(5)));
        assert_eq!(reg.unsubscribe(5, 0), Err(PubSubError::UnknownGroup(5)));
        assert_eq!(reg.destroy_group(5), Err(PubSubError::UnknownGroup(5)));
        assert_eq!(reg.publish_counting(5), Err(PubSubError::UnknownGroup(5)));
        reg.create_group(5).unwrap();
        assert_eq!(reg.create_group(5), Err(PubSubError::DuplicateGroup(5)));
        assert_eq!(reg.subscribe(5, 99), Err(PubSubError::UnknownNode(99)));
    }

    #[test]
    fn single_subscriber_group_is_a_trivial_tree() {
        let mut reg = GroupRegistry::new(uniform_universe(8, 2));
        reg.create_group(1).unwrap();
        assert!(reg.subscribe(1, 3).unwrap().is_admitted());
        let stats = reg.publish_counting(1).unwrap();
        assert_eq!(stats.reached, 1);
        assert_eq!(reg.ledger().groups().count(), 0, "no forwarding charges");
        assert_eq!(reg.group_root(1), Some(3));
    }

    /// `rebalance` as it was before it skipped anything: every degraded
    /// or stalled group rebuilt, from a fresh subset.
    fn rebalance_every_target(reg: &mut GroupRegistry) {
        for group in reg.rebalance_targets() {
            let subscribers = reg.groups[&group].subscribers.clone();
            let members = reg.universe.subset(&subscribers);
            match reg.build(group, &subscribers, Some(&members)) {
                Ok(built) => {
                    reg.state_mut(group).members = Some(members);
                    reg.commit(group, built);
                }
                Err(refused) => reg.stall(group, &refused),
            }
        }
    }

    /// Records every delivery of a publish.
    struct Record(Vec<(usize, usize, u32)>);

    impl DeliverySink for Record {
        fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool {
            self.0.push((parent, child, hops));
            true
        }
    }

    /// Rebalances `reg` and, on a clone, [`rebalance_every_target`], and
    /// asserts the two agree on every subscriber, flag, ledger charge and
    /// publish delivery. Returns how many targets the pass skipped and
    /// how many it rebuilt, counted on a second clone stepped through
    /// the pass.
    fn rebalance_matches_every_target(
        reg: &mut GroupRegistry,
        context: &str,
    ) -> (usize, usize) {
        let mut reference = reg.clone();
        rebalance_every_target(&mut reference);
        let (mut skipped, mut rebuilt) = (0, 0);
        let mut stepped = reg.clone();
        for group in stepped.rebalance_targets() {
            if stepped.unchanged(group) {
                skipped += 1;
            } else {
                stepped.rebuild(group);
                rebuilt += 1;
            }
        }
        reg.rebalance();
        assert_same_decisions(reg, &reference, context);
        (skipped, rebuilt)
    }

    /// Asserts `reg` and `reference` agree on every subscriber, flag,
    /// ledger charge and publish delivery.
    fn assert_same_decisions(reg: &GroupRegistry, reference: &GroupRegistry, context: &str) {
        assert_eq!(reg.ledger(), reference.ledger(), "{context}: ledger");
        assert_eq!(reg.group_ids(), reference.group_ids(), "{context}: groups");
        for g in reg.group_ids() {
            let (a, b) = (&reg.groups[&g], &reference.groups[&g]);
            assert_eq!(
                a.subscribers, b.subscribers,
                "{context}: group {g} subscribers"
            );
            assert_eq!(
                (a.degraded, a.stalled.is_some()),
                (b.degraded, b.stalled.is_some()),
                "{context}: group {g} degraded/stalled"
            );
            let (mut seen_a, mut seen_b) = (Record(Vec::new()), Record(Vec::new()));
            let stats_a = reg.publish_into(g, &mut seen_a).unwrap();
            let stats_b = reference.publish_into(g, &mut seen_b).unwrap();
            assert_eq!(stats_a, stats_b, "{context}: group {g} publish stats");
            assert_eq!(seen_a.0, seen_b.0, "{context}: group {g} deliveries");
        }
    }

    /// A random universe of 2–24 nodes with capacities 2–4 on a 10-bit
    /// ring: small enough that a handful of groups exhausts it.
    fn random_universe(rng: &mut StdRng) -> MemberSet {
        let space = IdSpace::new(10);
        let n = rng.gen_range(2..25);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let members = (ids.iter())
            .map(|&v| Member::with_capacity(Id(v), rng.gen_range(2..5)))
            .collect();
        MemberSet::new(space, members).unwrap()
    }

    /// The skip rule and the kept member set change no decision: after
    /// every op of random subscribe / unsubscribe / destroy streams,
    /// `rebalance` leaves exactly the registry the full rebuild of every
    /// target leaves.
    #[test]
    fn rebalance_matches_rebuilding_every_target() {
        let (mut skipped, mut rebuilt, mut stalls) = (0, 0, 0);
        for seed in 0..120 {
            let mut rng = StdRng::seed_from_u64(seed);
            let universe = random_universe(&mut rng);
            let n = universe.len();
            let mut reg = GroupRegistry::new(universe);
            for g in 1..=6 {
                reg.create_group(g).unwrap();
            }
            for op in 0..200 {
                let g = rng.gen_range(1..=6u64);
                let node = rng.gen_range(0..n);
                match rng.gen_range(0..100) {
                    0..60 => {
                        reg.subscribe(g, node).unwrap();
                    }
                    60..95 => {
                        reg.unsubscribe(g, node).unwrap();
                    }
                    _ => {
                        reg.destroy_group(g).unwrap();
                        reg.create_group(g).unwrap();
                    }
                }
                let context = format!("seed {seed} op {op}");
                let (s, r) = rebalance_matches_every_target(&mut reg, &context);
                skipped += s;
                rebuilt += r;
                stalls += (1..=6).filter(|&g| reg.is_stalled(g)).count();
            }
        }
        // The streams must reach every branch the skip rule has.
        assert!(
            skipped > 0 && rebuilt > 0 && stalls > 0,
            "{skipped} {rebuilt} {stalls}"
        );
    }

    /// The refusal rule without the latch: the sub-member index of the
    /// first forwarder, in the visit order of a capped walk that never
    /// stops selecting, whose residual is zero.
    fn first_saturated_forwarder(
        reg: &GroupRegistry,
        group: u64,
        subscribers: &[usize],
    ) -> Option<usize> {
        let members = reg.universe.subset(subscribers);
        let caps = reg.ledger.residuals_excluding(subscribers, group);
        let root = members.owner_idx(group_root_id(members.space(), group));
        let mut counter = FanoutCounter {
            fanout: vec![0; members.len()],
        };
        let mut first = None;
        region_walk(&members, root, &mut counter, |node, k, picks| {
            let cap = caps[node];
            select_children_capped_into(&members, node, k, cap, ChildSelection::Ceil, picks);
            if cap == 0 && !picks.is_empty() && first.is_none() {
                first = Some(node);
            }
        });
        first
    }

    /// Every refused subscribe names a candidate subscriber with residual
    /// zero, the first such forwarder of the full capped walk, and leaves
    /// the registry unchanged; every admitted one is a walk with no such
    /// forwarder. Random subscribe / unsubscribe / destroy streams.
    #[test]
    fn a_refusal_names_the_first_saturated_forwarder() {
        let mut refusals = 0;
        for seed in 0..120 {
            let mut rng = StdRng::seed_from_u64(seed);
            let universe = random_universe(&mut rng);
            let n = universe.len();
            let mut reg = GroupRegistry::new(universe);
            for g in 1..=6 {
                reg.create_group(g).unwrap();
            }
            for op in 0..200 {
                let g = rng.gen_range(1..=6u64);
                let node = rng.gen_range(0..n);
                let context = format!("seed {seed} op {op}");
                match rng.gen_range(0..100) {
                    0..60 => {
                        let mut candidate = reg.groups[&g].subscribers.clone();
                        let Err(at) = candidate.binary_search(&node) else {
                            continue; // a repeat subscribe builds nothing
                        };
                        candidate.insert(at, node);
                        let first = first_saturated_forwarder(&reg, g, &candidate);
                        let before = reg.clone();
                        let Admission::Rejected { node: refuser } =
                            reg.subscribe(g, node).unwrap()
                        else {
                            assert_eq!(first, None, "{context}: admitted past a refuser");
                            continue;
                        };
                        refusals += 1;
                        assert!(candidate.binary_search(&refuser).is_ok(), "{context}");
                        assert_eq!(
                            before.ledger.residual_excluding(refuser, g),
                            0,
                            "{context}"
                        );
                        assert_eq!(first.map(|i| candidate[i]), Some(refuser), "{context}");
                        assert_same_decisions(&reg, &before, &context);
                    }
                    60..95 => reg.unsubscribe(g, node).unwrap(),
                    _ => {
                        reg.destroy_group(g).unwrap();
                        reg.create_group(g).unwrap();
                    }
                }
            }
        }
        assert!(refusals > 0, "the streams must refuse");
    }

    /// [`rebalance_matches_rebuilding_every_target`] on the benchmark's
    /// registry: 16,000 nodes, 256 groups, seed 1, 16,000 Zipf set-up
    /// subscriptions and 20,000 churn ops, checked after every op that
    /// changes a subscriber set or adds a group.
    /// Minutes in release: `cargo test --release -p cam-pubsub --lib --
    /// --ignored rebalance_matches_at_benchmark_scale`.
    #[test]
    #[ignore = "minutes in release"]
    fn rebalance_matches_at_benchmark_scale() {
        const NODES: usize = 16_000;
        let universe = Scenario::paper_default(1).with_n(NODES).members();
        let ops = MultiGroupScenario::new(NODES, 256, 1)
            .with_zipf(0.5)
            .subscription_churn(16_000, 20_000);
        let mut reg = GroupRegistry::new(universe);
        let (mut skipped, mut rebuilt) = (0, 0);
        for (at, &op) in ops.iter().enumerate() {
            let changed = match op {
                GroupOp::Create { group } => reg.create_group(group).is_ok(),
                GroupOp::Subscribe { group, node } => {
                    let fresh = !reg.is_subscribed(group, node);
                    reg.subscribe(group, node).unwrap().is_admitted() && fresh
                }
                GroupOp::Unsubscribe { group, node } => {
                    let member = reg.is_subscribed(group, node);
                    reg.unsubscribe(group, node).unwrap();
                    member
                }
                GroupOp::Publish { .. } => false,
            };
            if changed {
                let (s, r) = rebalance_matches_every_target(&mut reg, &format!("op {at}"));
                skipped += s;
                rebuilt += r;
            }
        }
        assert!(skipped > 0 && rebuilt > 0, "{skipped} {rebuilt}");
        assert!(reg.ledger().verify().is_ok());
    }
}
