//! The simulator host: a [`Simulation`] of [`DhtActor`]s plus the member
//! table, applying the shared [`host`] rules to it.

use std::sync::Arc;

use cam_ring::{Id, IdMap, IdSpace};
use cam_sim::engine::ActorId;
use cam_sim::{LatencyModel, Simulation};
use cam_trace::{EventKind, GroupDeliveryCensus};

use super::{converged_actors, host, DhtActor, DhtProtocol};
use crate::Member;

/// A harness owning a simulation of [`DhtActor`]s plus the id → actor
/// directory, with convenience operations for the churn experiments.
pub struct DynamicNetwork<P: DhtProtocol> {
    /// The underlying event simulation.
    pub sim: Simulation<DhtActor<P>>,
    space: IdSpace,
    actors: Vec<(Member, ActorId)>,
    /// Member id → its slot in `actors`.
    slot_of: IdMap<u64, usize>,
    next_payload: u64,
}

impl<P: DhtProtocol> DynamicNetwork<P> {
    /// Builds a *converged* network of the given members: every node starts
    /// with correct successors, predecessor, and fingers (what
    /// stabilization would eventually produce), and maintenance timers
    /// running. Use [`DynamicNetwork::kill_random`] /
    /// [`DynamicNetwork::inject_join`] to perturb it.
    pub fn converged(
        space: IdSpace,
        members: &[Member],
        protocol: P,
        seed: u64,
        latency: LatencyModel,
    ) -> Self {
        let mut sim = Simulation::new(seed, latency);
        let actors: Vec<(Member, ActorId)> = converged_actors(space, members, &protocol)
            .map(|actor| (*actor.member(), sim.add_actor(actor)))
            .collect();
        for (slot, &(_, actor)) in actors.iter().enumerate() {
            for (delay, tag) in host::maintenance_schedule(slot) {
                sim.post_timer(actor, delay, tag);
            }
        }
        let slot_of: IdMap<u64, usize> = actors
            .iter()
            .enumerate()
            .map(|(slot, (m, _))| (m.id.value(), slot))
            .collect();
        debug_assert_eq!(slot_of.len(), actors.len(), "member ids must be unique");
        DynamicNetwork {
            sim,
            space,
            actors,
            slot_of,
            next_payload: 1,
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Live members, in slot order: ring order for the converged
    /// bootstrap, then each later join appended.
    pub fn live_members(&self) -> Vec<Member> {
        self.actors
            .iter()
            .filter(|(_, a)| self.sim.is_alive(*a))
            .map(|(m, _)| *m)
            .collect()
    }

    /// All `(member, actor)` pairs ever added.
    pub fn actors(&self) -> &[(Member, ActorId)] {
        &self.actors
    }

    /// Kills `count` distinct random live nodes (crash failures), never the
    /// node at `spare` (usually the multicast source), and returns how many
    /// were killed.
    pub fn kill_random(&mut self, count: usize, spare: ActorId, rng_seed: u64) -> usize {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut candidates: Vec<ActorId> = self
            .actors
            .iter()
            .map(|(_, a)| *a)
            .filter(|a| *a != spare && self.sim.is_alive(*a))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        candidates.shuffle(&mut rng);
        let victims = candidates.into_iter().take(count).collect::<Vec<_>>();
        for v in &victims {
            self.retire(*v, EventKind::Crash);
        }
        victims.len()
    }

    /// Adds a fresh member as a live actor and starts its join through the
    /// first live node. The harness updates every node's
    /// address book (directory) — the deployment equivalent is carrying
    /// addresses on the wire.
    ///
    /// Returns the new actor id, or `None` if the member's identifier is
    /// already present or no live bootstrap exists.
    pub fn inject_join(&mut self, member: Member, protocol: P) -> Option<ActorId> {
        if self.slot_of.contains_key(&member.id.value()) {
            return None;
        }
        let bootstrap = host::join_bootstrap(self.slots())?;
        let actor = DhtActor::new(self.space, member, protocol);
        let new_id = self.sim.add_actor(actor);
        self.slot_of.insert(member.id.value(), self.actors.len());
        self.actors.push((member, new_id));
        // Rebuild the authoritative address book once and re-share it with
        // every actor (newcomer included): one O(n) allocation instead of
        // n private copies.
        self.reshare_directory();
        self.send_join_request(self.actors.len() - 1, bootstrap);
        Some(new_id)
    }

    /// Restarts the crashed member `id` with *fresh* state — the sim-host
    /// counterpart of a host rebooting: same ring identity, empty routing
    /// tables and payload store, rejoining through a live peer. The dead
    /// actor's slot stays dead (the simulator drops traffic to it, exactly
    /// like frames addressed to the pre-crash incarnation); the member's
    /// directory entry is re-pointed at the new incarnation everywhere.
    ///
    /// Returns the new actor id, or `None` if `id` is unknown or still
    /// alive (a running node cannot be restarted).
    pub fn revive(&mut self, id: Id, protocol: P) -> Option<ActorId> {
        let pos = *self.slot_of.get(&id.value())?;
        let (member, old) = self.actors[pos];
        if self.sim.is_alive(old) {
            return None;
        }
        let actor = DhtActor::new(self.space, member, protocol);
        let new_id = self.sim.add_actor(actor);
        self.actors[pos].1 = new_id;
        // Repoint the member's entry at the new incarnation everywhere by
        // rebuilding the shared book from the (updated) authoritative list.
        self.reshare_directory();
        let at = self.sim.now().micros();
        self.sim
            .tracer_mut()
            .record(at, new_id.0 as u64, EventKind::Restart);
        if let Some(bootstrap) = host::rejoin_bootstrap(self.slots(), id) {
            self.send_join_request(pos, bootstrap);
        }
        Some(new_id)
    }

    /// Rebuilds the id → actor directory from `self.actors` and installs
    /// the single shared allocation on every live actor.
    fn reshare_directory(&mut self) {
        let directory = host::shared_directory(self.actors.iter().map(|&(m, a)| (m.id, a)));
        for &(_, a) in &self.actors {
            if let Some(actor) = self.sim.actor_mut(a) {
                actor.set_directory(Arc::clone(&directory));
            }
        }
    }

    /// The actor table as [`host`] sees it: one slot per member ever
    /// added, in `self.actors` order, `None` where the actor is dead.
    fn slots(&self) -> impl Iterator<Item = Option<&DhtActor<P>>> + Clone {
        self.actors.iter().map(|&(_, a)| self.sim.actor(a))
    }

    /// Posts slot `joiner`'s join request to the actor at slot `bootstrap`.
    fn send_join_request(&mut self, joiner: usize, bootstrap: usize) {
        let (member, actor) = self.actors[joiner];
        let bootstrap = self.actors[bootstrap].1;
        self.sim
            .post(actor, bootstrap, host::join_request(&member, actor));
    }

    /// Kills actor `a` if it is alive, recording `kind` (crash or leave).
    fn retire(&mut self, a: ActorId, kind: EventKind) -> bool {
        if !self.sim.is_alive(a) {
            return false;
        }
        self.sim.kill(a);
        let at = self.sim.now().micros();
        self.sim.tracer_mut().record(at, a.0 as u64, kind);
        true
    }

    /// Re-sends a join request for every live actor whose join has not
    /// completed — e.g. a joiner whose bootstrap crashed before answering.
    /// Join traffic is best-effort, so without retries such a node would
    /// stay stranded forever. Returns how many requests were re-sent.
    pub fn retry_stalled_joins(&mut self) -> usize {
        let stalled = host::stalled_joins(self.slots());
        for &(joiner, bootstrap) in &stalled {
            self.send_join_request(joiner, bootstrap);
        }
        stalled.len()
    }

    /// Removes the member with identifier `id` (crash semantics: peers
    /// discover the departure through failure detection). Returns whether
    /// a live actor was removed.
    pub fn remove_member(&mut self, id: Id) -> bool {
        self.actor_of(id)
            .is_some_and(|a| self.retire(a, EventKind::Leave))
    }

    /// Crash-kills `actor`. Returns whether it was alive.
    pub fn crash(&mut self, actor: ActorId) -> bool {
        self.retire(actor, EventKind::Crash)
    }

    /// Enables anti-entropy payload repair on every live node (see
    /// [`DhtActor::set_anti_entropy`]).
    pub fn enable_anti_entropy(&mut self) {
        for &(_, a) in &self.actors {
            if let Some(actor) = self.sim.actor_mut(a) {
                actor.set_anti_entropy(true);
            }
        }
    }

    /// The actor id of the member with identifier `id`, if it ever joined.
    pub fn actor_of(&self, id: Id) -> Option<ActorId> {
        self.slot_of
            .get(&id.value())
            .map(|&slot| self.actors[slot].1)
    }

    /// Initiates a multicast at `source` and returns the payload id. The
    /// payload is injected as a self-addressed message.
    ///
    /// `region_split` only decides whether that origin frame carries the
    /// region `all_but(source)`; the protocol decides how to forward.
    /// CAM-Koorde floods either way, and CAM-Chord splits either way,
    /// because its `multicast_children` reads a missing region as
    /// `all_but(me)`. All `false` changes is the source's own payload
    /// record: its first copy carried no region, so a region-carrying
    /// duplicate reaching the source is not flagged as a replay.
    pub fn start_multicast(&mut self, source: ActorId, region_split: bool) -> u64 {
        self.start_multicast_with_data(source, region_split, bytes::Bytes::new())
    }

    /// Like [`DynamicNetwork::start_multicast`], carrying application
    /// bytes that every member receives along with the header.
    pub fn start_multicast_with_data(
        &mut self,
        source: ActorId,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        self.originate(source, None, region_split, data)
    }

    /// Posts the origin message of a multicast (`group == None`) or a
    /// group publish to `source` itself and returns the fresh payload id.
    fn originate(
        &mut self,
        source: ActorId,
        group: Option<u64>,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let member = self
            .sim
            .actor(source)
            .expect("source must be alive")
            .member();
        let msg = host::origin_message(self.space, member, payload, group, region_split, data);
        self.sim.post(source, source, msg);
        payload
    }

    /// Initiates a publish in `group` at `source` and returns the payload
    /// id. Forwarding covers the whole ring (the per-group tree is
    /// implicit; non-subscribers relay without delivering), exactly like
    /// [`DynamicNetwork::start_multicast`]. A node subscribes through its
    /// own actor: `net.sim.actor_mut(a)` then [`DhtActor::subscribe`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is dead.
    pub fn start_group_publish(
        &mut self,
        source: ActorId,
        group: u64,
        region_split: bool,
    ) -> u64 {
        self.originate(source, Some(group), region_split, bytes::Bytes::new())
    }

    /// Folds the given `(group, payload)` publishes into a per-group
    /// [`GroupDeliveryCensus`] over the *subscribers* of each group: a live
    /// subscriber counts as delivered iff the publish reached it. Dead
    /// actors are excluded, as in [`DynamicNetwork::delivery_ratio`].
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        host::group_delivery_census(self.slots(), publishes)
    }

    /// Fraction of live nodes that received `payload`
    /// ([`host::delivery_census`]; the net `Cluster` folds through the same
    /// code).
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        host::delivery_census(self.slots(), payload).ratio()
    }

    /// Mean hop count of `payload` over live nodes that received it.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        host::hop_stats(self.slots(), payload).0
    }
}
