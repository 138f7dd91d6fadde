//! The live node: the [`DhtProtocol`] plug-in point, the [`DhtActor`]
//! state with its accessors, lookup routing, and the [`Actor`] impl that
//! dispatches messages and timers to the handlers in the sibling modules.
//! Every host drives it the same way: it lends a [`Context`] over its own
//! send and timer buffers and calls [`Actor::on_message`] or
//! [`Actor::on_timer`].

use cam_ring::{Id, IdMap, IdSpace, Segment};
use cam_sim::engine::{Actor, ActorId, Context};
use cam_sim::time::Duration;
use cam_trace::EventKind;

use super::maintenance::{TIMER_ANTI_ENTROPY, TIMER_FIX_FINGERS, TIMER_STABILIZE};
use super::msg::PayloadFrame;
use super::DhtMsg;
use crate::adversary::{AdversaryState, ByzantineBehavior, DetectionCounters};
use crate::Member;

/// Protocol-specific logic plugged into [`DhtActor`].
pub trait DhtProtocol: Clone {
    /// Identifier targets this node should resolve and keep resolved as
    /// neighbors (fingers). Excludes the successor list, which the actor
    /// maintains unconditionally.
    fn neighbor_targets(&self, space: IdSpace, me: &Member) -> Vec<Id>;

    /// Routing state carried inside a lookup request (opaque to the
    /// actor): CAM-Koorde packs the number of key bits its de Bruijn chain
    /// has absorbed; CAM-Chord needs none. Called by the request initiator.
    fn initial_state(&self, space: IdSpace, me: &Member, key: Id) -> u64 {
        let _ = (space, me, key);
        0
    }

    /// Given the resolved neighbor table, the next hop for a lookup of
    /// `key`, or `None` if this node believes its immediate successor owns
    /// `key`. `state` is the request's routing state (see
    /// [`DhtProtocol::initial_state`]); implementations may update it.
    ///
    /// `neighbors` is [`DhtActor::neighbor_members`]: deduplicated by id,
    /// never `me`, in ascending finger-target order.
    #[expect(
        clippy::too_many_arguments,
        reason = "the inputs of one routing decision; the actor is the only caller"
    )]
    fn next_hop(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        predecessor: Option<&Member>,
        key: Id,
        state: &mut u64,
    ) -> Option<Id>;

    /// Members this node forwards a multicast covering `region` to, paired
    /// with the sub-region each child becomes responsible for (`None` for
    /// flooding protocols, which rely on duplicate suppression instead of
    /// region splitting).
    ///
    /// `neighbors` is [`DhtActor::neighbor_members`]: deduplicated by id,
    /// never `me`, in ascending finger-target order.
    fn multicast_children(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        region: Option<Segment>,
    ) -> Vec<(Id, Option<Segment>)>;
}

/// Per-node state and behaviour of a live DHT participant.
#[derive(Debug, Clone)]
pub struct DhtActor<P: DhtProtocol> {
    pub(super) space: IdSpace,
    pub(super) me: Member,
    pub(super) protocol: P,
    /// Resolved routing entries `(target identifier, member currently
    /// believed responsible for it)`: a map of at most ~60 slots kept
    /// sorted by target. Private to this file, like `neighbors`: only
    /// `put_finger`, `drop_finger_member` and `seed_state` write it, each
    /// re-deriving `neighbors`.
    fingers: Vec<(u64, Member)>,
    /// The neighbor table every reader borrows (see
    /// [`DhtActor::neighbor_members`]).
    neighbors: Vec<Member>,
    /// Identifier targets (cached from the protocol).
    pub(super) targets: Vec<Id>,
    pub(super) successors: Vec<Member>,
    pub(super) predecessor: Option<Member>,
    /// Every payload this node has seen, with what its first copy left
    /// behind: one probe settles duplicate suppression, replay evidence
    /// and an anti-entropy push.
    pub(super) payloads: IdMap<u64, PayloadRecord>,
    /// Directory mapping member ids to actor ids (set by the harness; in a
    /// deployment this is the address book piggybacked on every message).
    /// Shared (`Arc`) across all actors of a network: at colossal scale a
    /// per-actor copy would be `O(n²)` memory, which is exactly what the
    /// 100k-node chaos preset must avoid. Never mutated per actor: the
    /// harness rebuilds it once and re-shares it.
    pub(super) directory: std::sync::Arc<IdMap<u64, ActorId>>,
    /// Outstanding finger-refresh lookups this node initiated: req_id →
    /// the target identifier being re-resolved.
    pub(super) pending: IdMap<u64, Id>,
    /// Liveness probes in flight: req_id → (finger target, probed member).
    pub(super) pending_pings: IdMap<u64, (u64, Id)>,
    /// Consecutive failed probes per member id — pruning requires two
    /// strikes so a single lost Ping/Pong (message loss, not death) does
    /// not evict a live finger.
    pub(super) ping_strikes: IdMap<u64, u8>,
    /// Outstanding predecessor liveness probe (Chord's check_predecessor):
    /// `(req_id, probed predecessor)`.
    pub(super) pending_pred_ping: Option<(u64, Id)>,
    /// Consecutive unanswered predecessor probes.
    pub(super) pred_strikes: u8,
    /// Round-robin cursor over `targets` for probing/refreshing fingers
    /// (advances by exactly the number of slots visited per round, so
    /// every slot is reached regardless of request-id arithmetic).
    pub(super) fix_cursor: usize,
    /// True while a StabilizeQuery to the current successor is unanswered;
    /// still set at the next stabilize tick ⇒ one strike (two consecutive
    /// strikes, not a single lost message, declare the successor dead).
    pub(super) awaiting_stabilize: bool,
    /// Consecutive unanswered stabilize queries to the current successor.
    pub(super) stabilize_strikes: u8,
    pub(super) next_req_id: u64,
    pub(super) joined: bool,
    pub(super) stabilize_every: Duration,
    /// Whether this node takes part in anti-entropy payload repair
    /// (pbcast-style pull gossip; see `set_anti_entropy`).
    pub(super) anti_entropy: bool,
    /// Pub/sub groups this node is subscribed to (ordered: iteration
    /// feeds deterministic censuses).
    pub(super) subscriptions: std::collections::BTreeSet<u64>,
    /// Rendezvous-root state: for each group whose root identifier this
    /// node owns, the ring identifiers of its subscribers.
    pub(super) group_members: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>,
    /// Which pub/sub group each seen payload belongs to (group publishes
    /// only) — keeps group traffic out of the ungrouped anti-entropy
    /// digests and attributes censuses.
    pub(super) group_of: IdMap<u64, u64>,
    /// Statistics: multicast payloads received (payload, hops).
    pub received_log: Vec<(u64, u32)>,
    /// Statistics: group publishes delivered to this subscriber
    /// `(group, payload, hops)`.
    pub group_received_log: Vec<(u64, u64, u32)>,
    /// Byzantine adversary state attached by the chaos harness; `None`
    /// on honest nodes. Boxed so honest actors stay small.
    pub(super) adversary: Option<Box<AdversaryState>>,
    /// Honest-defense detection counters (region violations, capacity
    /// forgeries, replay suspects, stale claims, repair recoveries).
    pub(super) detections: DetectionCounters,
    /// First-observed capacity per member id. Capacity is immutable in
    /// this protocol, so any later claim that disagrees is a forgery;
    /// the pinned value wins so forged `c_x` cannot steer region splits.
    pub(super) capacity_pins: IdMap<u64, u32>,
    /// Members this node has itself confirmed dead — evicted *and* then
    /// unresponsive through a full morgue investigation — mapped to the
    /// stabilize rounds the verdict has left to live. A stabilize reply
    /// re-advertising one is a stale incarnation claim; cleared when the
    /// member provably speaks again (Pong, Notify, or a fresh
    /// JoinRequest) — or when the verdict expires. Expiry bounds the
    /// damage of the rare *false* verdict: a genuinely dead member keeps
    /// failing probes and is re-confirmed, so the stale-claim detector
    /// keeps firing, while a falsely-accused live node becomes adoptable
    /// again instead of being blacklisted out of the ring forever.
    pub(super) confirmed_dead: std::collections::BTreeMap<u64, u8>,
    /// Outstanding deep successor-list probe `(req_id, probed id)`.
    pub(super) pending_succ_ping: Option<(u64, Id)>,
    /// Consecutive unanswered deep successor-list probes per member id.
    pub(super) succ_strikes: IdMap<u64, u8>,
    /// Round-robin cursor over non-head successor-list entries.
    pub(super) succ_probe_cursor: usize,
    /// Evicted members under post-mortem investigation, mapped to the
    /// consecutive unanswered investigation probes so far. Eviction alone
    /// is cheap, self-healing ring repair and must stay trigger-happy;
    /// the confirmed-dead *verdict* (which rejects re-advertisements) is
    /// issued only after [`DEAD_VERDICT_STRIKES`] consecutive unanswered
    /// probes here — strong enough evidence that a lossy-but-live member
    /// is very unlikely to be condemned.
    pub(super) morgue: std::collections::BTreeMap<u64, u8>,
    /// Morgue entries whose investigation probe from the previous
    /// stabilize round is still unanswered.
    pub(super) morgue_awaiting: std::collections::BTreeSet<u64>,
}

impl<P: DhtProtocol> DhtActor<P> {
    /// Creates a node that already knows its place on the ring (used to
    /// bootstrap an initial stable network).
    pub fn new(space: IdSpace, me: Member, protocol: P) -> Self {
        let targets = protocol.neighbor_targets(space, &me);
        DhtActor {
            space,
            me,
            protocol,
            fingers: Vec::new(),
            neighbors: Vec::new(),
            targets,
            successors: Vec::new(),
            predecessor: None,
            payloads: IdMap::default(),
            directory: std::sync::Arc::default(),
            pending: IdMap::default(),
            pending_pings: IdMap::default(),
            ping_strikes: IdMap::default(),
            pending_pred_ping: None,
            pred_strikes: 0,
            fix_cursor: 0,
            awaiting_stabilize: false,
            stabilize_strikes: 0,
            next_req_id: 1,
            joined: false,
            stabilize_every: Duration::from_millis(500),
            anti_entropy: false,
            subscriptions: std::collections::BTreeSet::new(),
            group_members: std::collections::BTreeMap::new(),
            group_of: IdMap::default(),
            received_log: Vec::new(),
            group_received_log: Vec::new(),
            adversary: None,
            detections: DetectionCounters::default(),
            capacity_pins: [(me.id.value(), me.capacity)].into_iter().collect(),
            confirmed_dead: std::collections::BTreeMap::new(),
            pending_succ_ping: None,
            succ_strikes: IdMap::default(),
            succ_probe_cursor: 0,
            morgue: std::collections::BTreeMap::new(),
            morgue_awaiting: std::collections::BTreeSet::new(),
        }
    }

    /// Attaches a Byzantine adversary (chaos harness only): from now on
    /// this node performs `behavior`, with every decision drawn from a
    /// private RNG stream seeded by `seed` — never from the host's
    /// ambient randomness — so replays are bit-identical.
    pub fn attach_adversary(&mut self, behavior: ByzantineBehavior, seed: u64) {
        self.adversary = Some(Box::new(AdversaryState::new(behavior, seed)));
    }

    /// This node's honest-defense detection counters.
    pub fn detections(&self) -> DetectionCounters {
        self.detections
    }

    /// The attached adversary state, if any (diagnostics / harness).
    pub fn adversary(&self) -> Option<&AdversaryState> {
        self.adversary.as_deref()
    }

    /// The member descriptor of this node.
    pub fn member(&self) -> &Member {
        &self.me
    }

    /// This node's current successor, if it has one.
    pub fn successor(&self) -> Option<&Member> {
        self.successors.first()
    }

    /// This node's current predecessor, if known.
    pub fn predecessor(&self) -> Option<&Member> {
        self.predecessor.as_ref()
    }

    /// Raw resolved finger entries `(target identifier, member)`, ascending
    /// by target (targets are unique) — for diagnostics and tests.
    pub fn finger_entries(&self) -> &[(u64, Member)] {
        &self.fingers
    }

    /// Current resolved neighbor members: deduplicated by id, never `me`,
    /// in ascending finger-target order (the first slot naming a member
    /// places it). Maintained on write, so every reader borrows it.
    pub fn neighbor_members(&self) -> &[Member] {
        debug_assert!(
            self.neighbors
                .iter()
                .copied()
                .eq(neighbor_rule(self.me.id, &self.fingers)),
            "neighbor table is stale"
        );
        &self.neighbors
    }

    /// The member resolved for finger slot `target`, if any.
    pub(super) fn finger(&self, target: u64) -> Option<&Member> {
        let i = self
            .fingers
            .binary_search_by_key(&target, |&(t, _)| t)
            .ok()?;
        Some(&self.fingers[i].1)
    }

    /// Points finger slot `target` at `member` and re-derives the neighbor
    /// table if the slot's member changed.
    pub(super) fn put_finger(&mut self, target: u64, member: Member) {
        if self.write_slot(target, member) {
            self.rebuild_neighbors();
        }
    }

    /// Empties every finger slot naming `member` and re-derives the
    /// neighbor table if one emptied.
    pub(super) fn drop_finger_member(&mut self, member: Id) {
        let slots = self.fingers.len();
        self.fingers.retain(|&(_, m)| m.id != member);
        if self.fingers.len() != slots {
            self.rebuild_neighbors();
        }
    }

    /// Points slot `target` at `member` (a repeated target keeps the last)
    /// and returns whether its member changed. Leaves `neighbors` be.
    fn write_slot(&mut self, target: u64, member: Member) -> bool {
        match self.fingers.binary_search_by_key(&target, |&(t, _)| t) {
            Ok(i) => std::mem::replace(&mut self.fingers[i].1, member) != member,
            Err(i) => {
                self.fingers.insert(i, (target, member));
                true
            }
        }
    }

    /// Re-derives the neighbor table from `fingers` in place, counted first
    /// so the buffer is exactly the largest table this node has held (an
    /// over-allocate-then-shrink leaves a heap hole per actor at 8k nodes).
    fn rebuild_neighbors(&mut self) {
        let me = self.me.id;
        let len = neighbor_rule(me, &self.fingers).count();
        self.neighbors.clear();
        self.neighbors.reserve_exact(len);
        self.neighbors.extend(neighbor_rule(me, &self.fingers));
    }

    /// Seeds ring pointers and fingers directly (harness bootstrap).
    pub fn seed_state(
        &mut self,
        successors: Vec<Member>,
        predecessor: Member,
        finger_seeds: Vec<(Id, Member)>,
    ) {
        // Bootstrap knowledge is ground truth: pin every neighbor's
        // capacity so later forged `c_x` claims are detectable.
        for m in &successors {
            self.capacity_pins.insert(m.id.value(), m.capacity);
        }
        self.capacity_pins
            .insert(predecessor.id.value(), predecessor.capacity);
        self.successors = successors;
        self.predecessor = Some(predecessor);
        self.fingers.reserve_exact(finger_seeds.len());
        for (t, m) in finger_seeds {
            self.capacity_pins.insert(m.id.value(), m.capacity);
            self.write_slot(t.value(), m);
        }
        self.rebuild_neighbors(); // once, not once per slot
        self.joined = true;
    }

    /// Installs the id → actor directory (harness responsibility).
    ///
    /// Accepts either an owned map or an [`Arc`](std::sync::Arc)-shared
    /// one; the harness shares a single allocation across the whole
    /// network so that directories cost `O(n)` total, not `O(n²)`.
    pub fn set_directory(&mut self, directory: impl Into<std::sync::Arc<IdMap<u64, ActorId>>>) {
        self.directory = directory.into();
    }

    /// How many multicast payloads this node has received.
    pub fn payloads_received(&self) -> usize {
        self.payloads.len()
    }

    /// Hop count at which `payload` arrived, if it did.
    pub fn payload_hops(&self, payload: u64) -> Option<u32> {
        self.payloads.get(&payload).map(|r| r.hops)
    }

    /// The application bytes delivered for `payload`, if it was delivered
    /// here (a relay that only forwarded a group publish has none).
    pub fn payload_data(&self, payload: u64) -> Option<&bytes::Bytes> {
        self.payloads.get(&payload)?.data.as_ref()
    }

    /// Whether this node is subscribed to pub/sub group `group`.
    pub fn is_subscribed(&self, group: u64) -> bool {
        self.subscriptions.contains(&group)
    }

    /// Whether the group publish `(group, payload)` was delivered here
    /// (i.e. this node was a subscriber when the payload arrived).
    pub fn has_group_payload(&self, group: u64, payload: u64) -> bool {
        self.group_received_log
            .iter()
            .any(|&(g, p, _)| g == group && p == payload)
    }

    /// Whether this node has completed its join.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Enables anti-entropy payload repair: the node periodically
    /// exchanges payload digests with its successor and one finger, and
    /// pulls anything it missed. This is the classic epidemic complement
    /// to best-effort multicast (pbcast): it converges delivery to 100%
    /// under message loss and tree breakage at the cost of periodic
    /// digest traffic.
    pub fn set_anti_entropy(&mut self, enabled: bool) {
        self.anti_entropy = enabled;
    }

    /// Sets the base maintenance period (stabilize interval; finger fixing
    /// and anti-entropy run at 2× this period). Real-transport hosts lower
    /// it so loopback clusters converge in wall-clock seconds; the sim
    /// default is 500 ms.
    pub fn set_stabilize_every(&mut self, every: Duration) {
        self.stabilize_every = every;
    }

    pub(super) fn actor_of(&self, id: Id) -> Option<ActorId> {
        self.directory.get(&id.value()).copied()
    }

    pub(super) fn send_to_member(&self, ctx: &mut Context<'_, DhtMsg>, id: Id, msg: DhtMsg) {
        if let Some(actor) = self.actor_of(id) {
            ctx.send(actor, msg);
        }
        // Unknown address: the message is lost, like a stale routing entry.
    }

    pub(super) fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    pub(super) fn handle_lookup(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        key: Id,
        req_id: u64,
        reply_to: ActorId,
        hops: u32,
        mut state: u64,
    ) {
        let answer = |ctx: &mut Context<'_, DhtMsg>, owner: Member, gave_up: bool| {
            ctx.send(
                reply_to,
                DhtMsg::LookupDone {
                    req_id,
                    owner,
                    hops,
                    gave_up,
                },
            );
        };
        // TTL: a lookup that has bounced this long is circling a damaged
        // overlay; answer best-effort so the requester can move on.
        if hops > 4 * self.space.bits() + 32 {
            let me = self.advertised_self(ctx);
            answer(ctx, me, true);
            return;
        }
        // Owner check: key in (me, successor] → successor owns it;
        // key in (predecessor, me] → I own it.
        if let Some(pred) = self.predecessor {
            if self.space.in_segment(key, pred.id, self.me.id) || key == self.me.id {
                let me = self.advertised_self(ctx);
                answer(ctx, me, false);
                return;
            }
        }
        let Some(succ) = self.successors.first().copied() else {
            // Isolated node: answer with self to terminate the request.
            let me = self.advertised_self(ctx);
            answer(ctx, me, true);
            return;
        };
        if self.space.in_segment(key, self.me.id, succ.id) {
            answer(ctx, succ, false);
            return;
        }
        let next = self
            .protocol
            .next_hop(
                self.space,
                &self.me,
                self.neighbor_members(),
                &succ,
                self.predecessor.as_ref(),
                key,
                &mut state,
            )
            .unwrap_or(succ.id);
        // A stalled route falls back to the successor to keep progress.
        let next = if next == self.me.id { succ.id } else { next };
        self.send_to_member(
            ctx,
            next,
            DhtMsg::Lookup {
                key,
                req_id,
                reply_to,
                hops: hops + 1,
                state,
            },
        );
    }

    /// One greedy clockwise hop toward `key`: the known member (neighbor
    /// table or `succ`) farthest from `me` inside `(me, key]` — `(me, key)`
    /// when `stop_short`, for a `key` that is itself a member id which must
    /// not be routed to — falling back to `succ`.
    ///
    /// Deliberately NOT `protocol.next_hop`: the protocol's routing may
    /// thread per-request state across hops (Koorde's absorbed-bit chain
    /// rides in `Lookup.state`), and neither a JoinRequest nor a group
    /// membership change has anywhere to carry it. Recomputing fresh state
    /// each hop makes de Bruijn hops jump without converging — the request
    /// can orbit the ring forever. Greedy clockwise progress is
    /// protocol-agnostic and terminates: callers handle `key ∈ (me, succ]`
    /// first, so the successor is always a candidate and every hop strictly
    /// shrinks the distance to `key`.
    pub(super) fn greedy_clockwise_toward(
        &self,
        key: Id,
        succ: &Member,
        stop_short: bool,
    ) -> Id {
        let next = self
            .neighbor_members()
            .iter()
            .chain(std::iter::once(succ))
            .filter(|m| {
                self.space.in_segment(m.id, self.me.id, key) && !(stop_short && m.id == key)
            })
            .max_by_key(|m| self.space.seg_len(self.me.id, m.id))
            .map_or(succ.id, |m| m.id);
        if next == self.me.id {
            succ.id
        } else {
            next
        }
    }
}

impl<P: DhtProtocol> Actor for DhtActor<P> {
    type Msg = DhtMsg;

    /// The one message entry point of every host: the simulator calls it
    /// per delivered event, `cam-net`'s reactor per decoded wire frame.
    fn on_message(&mut self, ctx: &mut Context<'_, DhtMsg>, from: ActorId, msg: DhtMsg) {
        // A node that has not completed its (re)join is not a ring member
        // yet. Answering liveness or stabilize traffic here would let a
        // restarted node masquerade as its pre-crash incarnation: its old
        // successor keeps it as predecessor (pings answered), and its old
        // predecessor adopts its *empty* successor list from a
        // StabilizeReply — which can collapse that list to just this
        // zombie and wedge the ring permanently. Until the join handshake
        // finishes, only the handshake itself is processed; everything
        // else sees this node as what it currently is — absent.
        if !self.joined && !matches!(msg, DhtMsg::JoinAnswer { .. }) {
            return;
        }
        match msg {
            DhtMsg::Lookup {
                key,
                req_id,
                reply_to,
                hops,
                state,
            } => self.handle_lookup(ctx, key, req_id, reply_to, hops, state),
            DhtMsg::LookupDone {
                req_id,
                owner,
                gave_up,
                ..
            } => {
                if let Some(target) = self.pending.remove(&req_id).filter(|_| !gave_up) {
                    let owner = self.vet(ctx, owner);
                    ctx.trace(EventKind::NeighborResolve {
                        target: target.value(),
                        neighbor: owner.id.value(),
                    });
                    self.put_finger(target.value(), owner);
                }
            }
            DhtMsg::StabilizeQuery => {
                let reply = self.answer_stabilize(ctx);
                ctx.send(from, reply);
            }
            DhtMsg::StabilizeReply {
                predecessor,
                successors,
            } => self.on_stabilize_reply(ctx, predecessor, successors),
            DhtMsg::Notify(candidate) => self.on_notify(ctx, candidate),
            DhtMsg::Ping { req_id } => {
                let member = self.advertised_self(ctx);
                ctx.send(from, DhtMsg::Pong { req_id, member });
            }
            DhtMsg::Pong { req_id, member } => self.on_pong(ctx, req_id, member),
            DhtMsg::Multicast {
                payload,
                region,
                hops,
                data,
            } => self.handle_multicast(
                ctx,
                from,
                None,
                PayloadFrame {
                    payload,
                    region,
                    hops,
                    data,
                },
            ),
            DhtMsg::AntiEntropyDigest { have } => self.on_digest(ctx, from, have),
            DhtMsg::PayloadPullReq { want } => self.on_pull_request(ctx, from, want),
            DhtMsg::PayloadPush {
                payload,
                hops,
                data,
            } => self.on_payload_push(ctx, from, payload, hops, data),
            DhtMsg::JoinRequest {
                joiner,
                joiner_actor,
            } => self.on_join_request(ctx, joiner, joiner_actor),
            DhtMsg::JoinAnswer { successors } => self.on_join_answer(ctx, successors),
            DhtMsg::GroupSubscribe { group, member } => {
                self.handle_group_membership(ctx, group, member, true)
            }
            DhtMsg::GroupUnsubscribe { group, member } => {
                self.handle_group_membership(ctx, group, member, false)
            }
            DhtMsg::GroupPublish {
                group,
                payload,
                region,
                hops,
                data,
            } => self.handle_multicast(
                ctx,
                from,
                Some(group),
                PayloadFrame {
                    payload,
                    region,
                    hops,
                    data,
                },
            ),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DhtMsg>, tag: u64) {
        match tag {
            TIMER_STABILIZE => self.handle_stabilize_timer(ctx),
            TIMER_FIX_FINGERS => self.handle_fix_fingers_timer(ctx),
            TIMER_ANTI_ENTROPY => self.handle_anti_entropy_timer(ctx),
            _ => {}
        }
    }
}

/// What a node keeps about one payload it has seen, from its first copy.
/// One record replaces three per-payload tables and is no bigger than
/// their entries together (32 bytes, asserted below).
#[derive(Debug, Clone)]
pub(super) struct PayloadRecord {
    /// The application bytes, kept where the payload was delivered; `None`
    /// on a node that only relayed a group publish.
    pub(super) data: Option<bytes::Bytes>,
    /// Who sent the first copy.
    pub(super) first_sender: ActorId,
    /// Hop count of the first copy.
    pub(super) hops: u32,
    /// Whether the first copy carried a region.
    pub(super) first_had_region: bool,
}

const _: () = assert!(std::mem::size_of::<PayloadRecord>() <= 32);

impl PayloadRecord {
    /// Whether a region-carrying duplicate from `from` is replay evidence:
    /// the first copy also carried a region but came from someone else.
    /// Retransmits and wire duplicates re-arrive from the original sender,
    /// and the region-split tree hands each payload to a child exactly
    /// once, so a second region-carrying sender replayed the frame.
    pub(super) fn replayed_by(&self, from: ActorId) -> bool {
        self.first_had_region && self.first_sender != from
    }
}

/// The neighbor rule, in one place: the members of `fingers` (ascending
/// target), each placed by the first slot naming it, `me` left out. Every
/// reactor row and chaos fingerprint pin rests on this order.
fn neighbor_rule(me: Id, fingers: &[(u64, Member)]) -> impl Iterator<Item = Member> + '_ {
    fingers.iter().enumerate().filter_map(move |(i, &(_, m))| {
        let first = !fingers[..i].iter().any(|&(_, o)| o.id == m.id);
        (m.id != me && first).then_some(m)
    })
}
