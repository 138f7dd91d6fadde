//! Dynamic-membership DHT nodes on the discrete-event simulator.
//!
//! The static overlays answer the paper's performance questions at
//! 100,000-node scale; this module answers the *resilience* questions: what
//! happens while members join, leave, and crash. A [`DhtActor`] is a live
//! node holding its own routing state, kept fresh by Chord-style periodic
//! stabilization (the paper reuses Chord's maintenance protocols for all
//! four systems, §3.3/§4.2). Protocols plug in through [`DhtProtocol`],
//! which supplies the two protocol-specific ingredients:
//!
//! * which *identifier targets* a node of a given capacity tracks as
//!   neighbors, and
//! * the greedy next-hop choice given the node's current neighbor table.
//!
//! Multicast over the live overlay is CAM-Koorde-style constrained flooding
//! (forward to all resolved neighbors, duplicate-suppressed) or CAM-Chord
//! region splitting, chosen by the protocol's
//! [`DhtProtocol::multicast_children`] implementation.

use std::collections::HashMap;

use cam_ring::{Id, IdSpace, Segment};
use cam_sim::engine::{Actor, ActorId, Context};
use cam_sim::rng::SimRng;
use cam_sim::time::Duration;
use cam_sim::{LatencyModel, Simulation};
use cam_trace::{DeliveryCensus, EventKind, GroupDeliveryCensus, Tracer};

use crate::adversary::{AdversaryState, ByzantineBehavior, DetectionCounters};
use crate::Member;

/// Number of successors each node tracks for ring resilience. Chord
/// recommends O(log n); 8 keeps the probability of a full-list wipeout
/// negligible up to ~30% simultaneous crashes (0.3^8 ≈ 7·10⁻⁵).
pub const SUCCESSOR_LIST_LEN: usize = 8;

/// Host-environment services a [`DhtActor`] needs to run.
///
/// The actor's protocol logic is host-agnostic: it reacts to messages and
/// timers and emits sends and timer requests through this trait. Two hosts
/// exist today — the discrete-event simulator ([`Context`] implements the
/// trait directly, so in-sim behaviour is unchanged) and `cam-net`'s
/// `NodeRuntime`, which carries the same actor over real transports
/// (loopback UDP, or an in-memory wire with injected loss). Anything that
/// can deliver [`DhtMsg`]s, fire timers, and supply a little randomness can
/// host a DHT node.
pub trait DhtDriver {
    /// The hosted actor's own address.
    fn me(&self) -> ActorId;

    /// Queues `msg` for delivery to `to`. Delivery is best-effort and
    /// asynchronous; the host decides latency and loss.
    fn send(&mut self, to: ActorId, msg: DhtMsg);

    /// Arms a one-shot timer that calls back into the actor with `tag`
    /// after `delay`.
    fn set_timer(&mut self, delay: Duration, tag: u64);

    /// Uniform random index in `[0, len)` for protocol decisions (e.g.
    /// picking an anti-entropy gossip partner). `len` must be non-zero.
    fn random_index(&mut self, len: usize) -> usize;

    /// True when the host's tracer is actually recording — lets the actor
    /// skip assembling events that would be thrown away. Default: `false`.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Records a structured trace event, stamped by the host with its own
    /// clock (virtual sim time, or the runtime's wire clock) and this
    /// actor's id. Default: no-op, so hosts without telemetry pay one
    /// predictable branch per hook site and nothing else.
    fn trace(&mut self, kind: EventKind) {
        let _ = kind;
    }
}

impl DhtDriver for Context<'_, DhtMsg> {
    fn me(&self) -> ActorId {
        Context::me(self)
    }

    fn send(&mut self, to: ActorId, msg: DhtMsg) {
        Context::send(self, to, msg)
    }

    fn set_timer(&mut self, delay: Duration, tag: u64) {
        Context::set_timer(self, delay, tag)
    }

    fn random_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "random_index over an empty range");
        self.rng().uniform_incl(0, len as u64 - 1) as usize
    }

    fn trace_enabled(&self) -> bool {
        Context::trace_enabled(self)
    }

    fn trace(&mut self, kind: EventKind) {
        Context::trace(self, kind)
    }
}

/// Buffered actor effects: the sends and timer requests one
/// [`DhtActor::deliver`] / [`DhtActor::deliver_timer`] call produced,
/// collected for a host that separates *running the actor* from
/// *performing the I/O*. This is the heart of the sans-I/O contract:
/// cam-net's reactor core drives actors through an [`EffectDriver`]
/// writing here, then turns the buffered effects into wire frames and
/// timer-heap entries afterwards, outside the actor borrow.
#[derive(Debug, Default)]
pub struct CollectedEffects {
    /// Outgoing `(destination, message)` pairs, in emission order. Hosts
    /// must preserve this order when shipping — deterministic transports
    /// assign delivery sequence numbers from it.
    pub sends: Vec<(ActorId, DhtMsg)>,
    /// One-shot timer requests as `(delay, tag)`, in emission order.
    pub timers: Vec<(Duration, u64)>,
}

impl CollectedEffects {
    /// An empty effect buffer.
    pub fn new() -> Self {
        CollectedEffects::default()
    }

    /// Whether no effects are buffered.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty()
    }

    /// Drops all buffered effects (capacity is kept for reuse).
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
    }
}

/// A [`DhtDriver`] that buffers effects into [`CollectedEffects`] instead
/// of performing them — the bridge between the pure actor and a poll-style
/// host. The host lends the actor's RNG stream and its tracer for the
/// duration of one delivery; trace events are stamped with `now_micros`
/// (the host's clock, pre-read so the driver itself never touches a
/// clock).
pub struct EffectDriver<'a> {
    /// The hosted actor's own address.
    pub me: ActorId,
    /// Where emitted sends and timers land.
    pub effects: &'a mut CollectedEffects,
    /// The actor's private RNG stream.
    pub rng: &'a mut SimRng,
    /// The host's tracer (protocol events carry the host clock).
    pub tracer: &'a mut dyn Tracer,
    /// Host clock at delivery, in microseconds.
    pub now_micros: u64,
}

impl DhtDriver for EffectDriver<'_> {
    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, to: ActorId, msg: DhtMsg) {
        self.effects.sends.push((to, msg));
    }

    fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.effects.timers.push((delay, tag));
    }

    fn random_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "random_index over an empty range");
        self.rng.uniform_incl(0, len as u64 - 1) as usize
    }

    fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn trace(&mut self, kind: EventKind) {
        self.tracer
            .record(self.now_micros, self.me.index() as u64, kind);
    }
}

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
    #[allow(clippy::too_many_arguments)]
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
    fn multicast_children(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        region: Option<Segment>,
    ) -> Vec<(Id, Option<Segment>)>;
}

/// Wire messages exchanged by [`DhtActor`]s.
///
/// `PartialEq` exists so `cam-net`'s codec can assert
/// `decode(encode(m)) == m` in its round-trip tests.
#[derive(Debug, Clone, PartialEq)]
pub enum DhtMsg {
    /// Route a lookup for `key`; reply to `reply_to` with `LookupDone`.
    Lookup {
        /// Key being resolved.
        key: Id,
        /// Request correlation id.
        req_id: u64,
        /// Actor that receives the answer.
        reply_to: ActorId,
        /// Hops taken so far.
        hops: u32,
        /// Protocol routing state (see [`DhtProtocol::initial_state`]).
        state: u64,
    },
    /// Answer to `Lookup`.
    LookupDone {
        /// Request correlation id.
        req_id: u64,
        /// The member believed responsible for the key.
        owner: Member,
        /// Total overlay hops the request traveled.
        hops: u32,
        /// The request hit its TTL and this answer is a best-effort guess;
        /// it must not be installed into routing tables.
        gave_up: bool,
    },
    /// "Who is your predecessor and successor list?" (stabilization).
    StabilizeQuery,
    /// Answer to `StabilizeQuery`.
    StabilizeReply {
        /// The replier's current predecessor, if known.
        predecessor: Option<Member>,
        /// The replier's successor list.
        successors: Vec<Member>,
    },
    /// "I believe I am your predecessor" (Chord's `notify`).
    Notify(Member),
    /// Liveness probe for a finger/neighbor.
    Ping {
        /// Correlation id.
        req_id: u64,
    },
    /// Liveness answer.
    Pong {
        /// Correlation id.
        req_id: u64,
        /// The responder's descriptor (refreshes stale capacity info).
        member: Member,
    },
    /// A multicast message: `(payload id, region this node must cover,
    /// application bytes)`. As in the paper (§4.3), duplicate suppression
    /// keys on the message header (the payload id) — the body rides along
    /// untouched and is handed to the application on first receipt.
    Multicast {
        /// Identifies the multicast session (for duplicate suppression).
        payload: u64,
        /// Region to cover (region-splitting protocols) or `None`
        /// (flooding).
        region: Option<Segment>,
        /// Hop count from the source.
        hops: u32,
        /// Application payload (cheaply reference-counted).
        data: bytes::Bytes,
    },
    /// Anti-entropy: "these are the multicast payloads I have" (sent
    /// periodically to the successor and a random finger when enabled).
    AntiEntropyDigest {
        /// Payload ids the sender has received.
        have: Vec<u64>,
    },
    /// Anti-entropy: "send me these payloads I am missing".
    PayloadPullReq {
        /// Payload ids requested.
        want: Vec<u64>,
    },
    /// Anti-entropy: one recovered payload (recorded locally, not
    /// re-flooded — the epidemic spreads through subsequent digests).
    PayloadPush {
        /// Payload id.
        payload: u64,
        /// Hop count to attribute (the recoverer's + 1).
        hops: u32,
        /// Application bytes.
        data: bytes::Bytes,
    },
    /// Ask a bootstrap node to find the joiner's successor.
    JoinRequest {
        /// The joining member.
        joiner: Member,
        /// Actor id of the joiner.
        joiner_actor: ActorId,
    },
    /// Tell the joiner its successor list (head = immediate successor;
    /// the rest seeds resilience so the joiner survives its successor
    /// crashing before the first stabilization round).
    JoinAnswer {
        /// The joiner's future successor list.
        successors: Vec<Member>,
    },
    /// Subscribe `member` to pub/sub group `group`. Injected self-addressed
    /// at the subscriber (which flips its local subscription flag), then
    /// routed greedily clockwise to the group's rendezvous root — the owner
    /// of `group_root_id(group)` — which records the membership.
    GroupSubscribe {
        /// Group being subscribed to.
        group: u64,
        /// Ring identifier of the subscribing member.
        member: u64,
    },
    /// Remove `member` from group `group`; routed like
    /// [`DhtMsg::GroupSubscribe`].
    GroupUnsubscribe {
        /// Group being left.
        group: u64,
        /// Ring identifier of the departing member.
        member: u64,
    },
    /// A pub/sub publish for one group. Forwarded exactly like
    /// [`DhtMsg::Multicast`] — the per-group tree is *implicit*, sharing the
    /// one ring and neighbor table — but only subscribers of `group` deliver
    /// the payload to the application.
    GroupPublish {
        /// The group this payload belongs to.
        group: u64,
        /// Identifies the publish (for duplicate suppression).
        payload: u64,
        /// Region to cover (region-splitting protocols) or `None`
        /// (flooding).
        region: Option<Segment>,
        /// Hop count from the source.
        hops: u32,
        /// Application payload.
        data: bytes::Bytes,
    },
}

/// The fields [`DhtMsg::Multicast`] and [`DhtMsg::GroupPublish`] share.
struct PayloadFrame {
    payload: u64,
    region: Option<Segment>,
    hops: u32,
    data: bytes::Bytes,
}

/// The rendezvous-root identifier for pub/sub group `group`: a
/// deterministic hash of the group id mapped into the ring's identifier
/// space. The owner of this identifier is the group's root — the node that
/// tracks the group's membership.
///
/// The mix is SplitMix64's finalizer, so consecutive group ids scatter
/// uniformly instead of clustering on one arc of the ring.
pub fn group_root_id(space: IdSpace, group: u64) -> Id {
    let mut z = group.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Id(z & space.mask())
}

/// Per-node state and behaviour of a live DHT participant.
#[derive(Debug, Clone)]
pub struct DhtActor<P: DhtProtocol> {
    space: IdSpace,
    me: Member,
    protocol: P,
    /// Resolved routing entries: target identifier → member currently
    /// believed responsible for it.
    fingers: HashMap<u64, Member>,
    /// Identifier targets (cached from the protocol).
    targets: Vec<Id>,
    successors: Vec<Member>,
    predecessor: Option<Member>,
    /// Multicast payloads already seen (duplicate suppression).
    seen_payloads: HashMap<u64, u32>,
    /// Application bytes delivered per payload (first copy wins).
    delivered_data: HashMap<u64, bytes::Bytes>,
    /// Directory mapping member ids to actor ids (set by the harness; in a
    /// deployment this is the address book piggybacked on every message).
    /// Shared (`Arc`) across all actors of a network: at colossal scale a
    /// per-actor copy would be `O(n²)` memory, which is exactly what the
    /// 100k-node chaos preset must avoid. Copy-on-write on the rare
    /// per-actor mutation.
    directory: std::sync::Arc<HashMap<u64, ActorId>>,
    /// Outstanding lookup requests this node initiated: req_id → purpose.
    pending: HashMap<u64, PendingLookup>,
    /// Liveness probes in flight: req_id → (finger target, probed member).
    pending_pings: HashMap<u64, (u64, Id)>,
    /// Consecutive failed probes per member id — pruning requires two
    /// strikes so a single lost Ping/Pong (message loss, not death) does
    /// not evict a live finger.
    ping_strikes: HashMap<u64, u8>,
    /// Outstanding predecessor liveness probe (Chord's check_predecessor):
    /// `(req_id, probed predecessor)`.
    pending_pred_ping: Option<(u64, Id)>,
    /// Consecutive unanswered predecessor probes.
    pred_strikes: u8,
    /// Round-robin cursor over `targets` for probing/refreshing fingers
    /// (advances by exactly the number of slots visited per round, so
    /// every slot is reached regardless of request-id arithmetic).
    fix_cursor: usize,
    /// True while a StabilizeQuery to the current successor is unanswered;
    /// still set at the next stabilize tick ⇒ one strike (two consecutive
    /// strikes, not a single lost message, declare the successor dead).
    awaiting_stabilize: bool,
    /// Consecutive unanswered stabilize queries to the current successor.
    stabilize_strikes: u8,
    next_req_id: u64,
    joined: bool,
    stabilize_every: Duration,
    /// Whether this node takes part in anti-entropy payload repair
    /// (pbcast-style pull gossip; see `set_anti_entropy`).
    anti_entropy: bool,
    /// Pub/sub groups this node is subscribed to (ordered: iteration
    /// feeds deterministic censuses).
    subscriptions: std::collections::BTreeSet<u64>,
    /// Rendezvous-root state: for each group whose root identifier this
    /// node owns, the ring identifiers of its subscribers.
    group_members: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>,
    /// Which pub/sub group each seen payload belongs to (group publishes
    /// only) — keeps group traffic out of the ungrouped anti-entropy
    /// digests and attributes censuses.
    group_of: HashMap<u64, u64>,
    /// Statistics: multicast payloads received (payload, hops).
    pub received_log: Vec<(u64, u32)>,
    /// Statistics: group publishes delivered to this subscriber
    /// `(group, payload, hops)`.
    pub group_received_log: Vec<(u64, u64, u32)>,
    /// Byzantine adversary state attached by the chaos harness; `None`
    /// on honest nodes. Boxed so honest actors stay small.
    adversary: Option<Box<AdversaryState>>,
    /// Honest-defense detection counters (region violations, capacity
    /// forgeries, replay suspects, stale claims, repair recoveries).
    detections: DetectionCounters,
    /// First-observed capacity per member id. Capacity is immutable in
    /// this protocol, so any later claim that disagrees is a forgery;
    /// the pinned value wins so forged `c_x` cannot steer region splits.
    capacity_pins: HashMap<u64, u32>,
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
    confirmed_dead: std::collections::BTreeMap<u64, u8>,
    /// First sender observed per region-carrying payload: a duplicate
    /// arriving later from a *different* sender is replay evidence
    /// (retransmits and wire duplicates re-arrive from the original).
    first_sender: HashMap<u64, ActorId>,
    /// Outstanding deep successor-list probe `(req_id, probed id)`.
    pending_succ_ping: Option<(u64, Id)>,
    /// Consecutive unanswered deep successor-list probes per member id.
    succ_strikes: HashMap<u64, u8>,
    /// Round-robin cursor over non-head successor-list entries.
    succ_probe_cursor: usize,
    /// Evicted members under post-mortem investigation, mapped to the
    /// consecutive unanswered investigation probes so far. Eviction alone
    /// is cheap, self-healing ring repair and must stay trigger-happy;
    /// the confirmed-dead *verdict* (which rejects re-advertisements) is
    /// issued only after [`DEAD_VERDICT_STRIKES`] consecutive unanswered
    /// probes here — strong enough evidence that a lossy-but-live member
    /// is very unlikely to be condemned.
    morgue: std::collections::BTreeMap<u64, u8>,
    /// Morgue entries whose investigation probe from the previous
    /// stabilize round is still unanswered.
    morgue_awaiting: std::collections::BTreeSet<u64>,
}

#[derive(Debug, Clone)]
enum PendingLookup {
    /// Refreshing the finger for this target identifier.
    FixFinger(Id),
}

/// Timer tags.
const TIMER_STABILIZE: u64 = 1;
const TIMER_FIX_FINGERS: u64 = 2;
const TIMER_ANTI_ENTROPY: u64 = 3;

/// Stabilize rounds a confirmed-dead verdict stays in force before it
/// lapses. Deliberately a round count, not wall time (determinism), and
/// long enough that a genuinely dead node is re-probed and re-confirmed
/// well before expiry, short enough that a live node falsely condemned by
/// a run of dropped probes becomes adoptable again within a few seconds.
const DEAD_VERDICT_ROUNDS: u8 = 8;

/// Consecutive unanswered investigation probes (one per stabilize round)
/// required to turn an eviction into a confirmed-dead verdict. Eviction
/// itself stays at the cheap two-strike threshold — it is self-healing —
/// but the verdict gates the stale-claim defense, so it demands evidence
/// a lossy wire almost never fabricates: at 12% frame loss a live member
/// fails four consecutive round-trips with probability ~0.3%.
const DEAD_VERDICT_STRIKES: u8 = 4;

/// Upper bound on simultaneous morgue investigations (deterministic cap;
/// overflow evictions simply go uninvestigated until a slot frees up).
const MORGUE_CAP: usize = 16;

impl<P: DhtProtocol> DhtActor<P> {
    /// Creates a node that already knows its place on the ring (used to
    /// bootstrap an initial stable network).
    pub fn new(space: IdSpace, me: Member, protocol: P) -> Self {
        let targets = protocol.neighbor_targets(space, &me);
        DhtActor {
            space,
            me,
            protocol,
            fingers: HashMap::new(),
            targets,
            successors: Vec::new(),
            predecessor: None,
            seen_payloads: HashMap::new(),
            delivered_data: HashMap::new(),
            directory: std::sync::Arc::new(HashMap::new()),
            pending: HashMap::new(),
            pending_pings: HashMap::new(),
            ping_strikes: HashMap::new(),
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
            group_of: HashMap::new(),
            received_log: Vec::new(),
            group_received_log: Vec::new(),
            adversary: None,
            detections: DetectionCounters::default(),
            capacity_pins: HashMap::from([(me.id.value(), me.capacity)]),
            confirmed_dead: std::collections::BTreeMap::new(),
            first_sender: HashMap::new(),
            pending_succ_ping: None,
            succ_strikes: HashMap::new(),
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

    /// Raw resolved finger entries `(target identifier, member)` — for
    /// diagnostics and tests.
    pub fn finger_entries(&self) -> Vec<(u64, Member)> {
        let mut v: Vec<(u64, Member)> = self.fingers.iter().map(|(&t, &m)| (t, m)).collect();
        v.sort_by_key(|&(t, _)| t);
        v
    }

    /// Current resolved neighbor members (deduplicated), in finger-target
    /// order. The order is deterministic — hash-map iteration order must
    /// not leak into protocol behavior, or equal seeds stop producing
    /// equal runs.
    pub fn neighbor_members(&self) -> Vec<Member> {
        let entries = self.finger_entries();
        let mut out: Vec<Member> = Vec::with_capacity(entries.len());
        for (_, m) in entries {
            if m.id != self.me.id && !out.iter().any(|o| o.id == m.id) {
                out.push(m);
            }
        }
        out
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
        for (t, m) in finger_seeds {
            self.capacity_pins.insert(m.id.value(), m.capacity);
            self.fingers.insert(t.value(), m);
        }
        self.joined = true;
    }

    /// Installs the id → actor directory (harness responsibility).
    ///
    /// Accepts either an owned map or an [`Arc`](std::sync::Arc)-shared
    /// one; the harness shares a single allocation across the whole
    /// network so that directories cost `O(n)` total, not `O(n²)`.
    pub fn set_directory(
        &mut self,
        directory: impl Into<std::sync::Arc<HashMap<u64, ActorId>>>,
    ) {
        self.directory = directory.into();
    }

    /// Adds one directory entry (e.g. for a recently joined node).
    ///
    /// Copy-on-write: if the directory is currently shared with other
    /// actors, this actor gets a private copy first. Harness-wide updates
    /// should instead rebuild once and re-share via
    /// [`set_directory`](Self::set_directory).
    pub fn add_directory_entry(&mut self, id: Id, actor: ActorId) {
        std::sync::Arc::make_mut(&mut self.directory).insert(id.value(), actor);
    }

    /// How many multicast payloads this node has received.
    pub fn payloads_received(&self) -> usize {
        self.seen_payloads.len()
    }

    /// Hop count at which `payload` arrived, if it did.
    pub fn payload_hops(&self, payload: u64) -> Option<u32> {
        self.seen_payloads.get(&payload).copied()
    }

    /// The application bytes delivered for `payload`, if it arrived.
    pub fn payload_data(&self, payload: u64) -> Option<&bytes::Bytes> {
        self.delivered_data.get(&payload)
    }

    /// Whether this node is subscribed to pub/sub group `group`.
    pub fn is_subscribed(&self, group: u64) -> bool {
        self.subscriptions.contains(&group)
    }

    /// Groups this node subscribes to, ascending.
    pub fn subscribed_groups(&self) -> Vec<u64> {
        self.subscriptions.iter().copied().collect()
    }

    /// Whether the group publish `(group, payload)` was delivered here
    /// (i.e. this node was a subscriber when the payload arrived).
    pub fn has_group_payload(&self, group: u64, payload: u64) -> bool {
        self.group_received_log
            .iter()
            .any(|&(g, p, _)| g == group && p == payload)
    }

    /// Rendezvous-root view: the subscriber identifiers recorded for
    /// `group` *at this node*. Non-empty only on the group's root.
    pub fn group_members_of(&self, group: u64) -> Vec<u64> {
        self.group_members
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
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

    fn actor_of(&self, id: Id) -> Option<ActorId> {
        self.directory.get(&id.value()).copied()
    }

    fn send_to_member<D: DhtDriver>(&self, drv: &mut D, id: Id, msg: DhtMsg) {
        if let Some(actor) = self.actor_of(id) {
            drv.send(actor, msg);
        }
        // Unknown address: the message is lost, like a stale routing entry.
    }

    /// Arms the periodic maintenance timers; call once after inserting the
    /// actor into the simulation.
    pub fn start_maintenance(ctx_sim: &mut Simulation<Self>, actor: ActorId, jitter: u64) {
        let base = Duration::from_millis(500);
        ctx_sim.post_timer(
            actor,
            base + Duration::from_millis(jitter % 250),
            TIMER_STABILIZE,
        );
        ctx_sim.post_timer(
            actor,
            base.saturating_mul(2) + Duration::from_millis(jitter % 333),
            TIMER_FIX_FINGERS,
        );
        ctx_sim.post_timer(
            actor,
            base.saturating_mul(3) + Duration::from_millis(jitter % 451),
            TIMER_ANTI_ENTROPY,
        );
    }

    fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    /// Vets a member claim against the pinned capacity for its
    /// identifier. The first observation pins; a later claim that
    /// disagrees bumps `capacity_forgeries` and is *corrected* to the
    /// pinned value, so a forged `c_x` cannot steer this node's region
    /// partitioning. Capacity is immutable per member in this protocol
    /// (it survives crash/restart unchanged), so honest claims never
    /// conflict.
    fn vet<D: DhtDriver>(&mut self, ctx: &mut D, mut m: Member) -> Member {
        match self.capacity_pins.entry(m.id.value()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m.capacity);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != m.capacity {
                    self.detections.capacity_forgeries += 1;
                    ctx.trace(EventKind::AdversaryDetect {
                        detector: "capacity_forgery",
                        suspect: m.id.value(),
                        payload: 0,
                    });
                    m.capacity = *e.get();
                }
            }
        }
        m
    }

    /// The member descriptor this node advertises about itself. Honest
    /// nodes advertise the truth; a [`ByzantineBehavior::ForgeCapacity`]
    /// adversary inflates its capacity so peers' region partitions
    /// over-split around it.
    fn advertised_self<D: DhtDriver>(&mut self, ctx: &mut D) -> Member {
        if let Some(adv) = self.adversary.as_deref_mut() {
            if adv.behavior == ByzantineBehavior::ForgeCapacity {
                let mut m = self.me;
                m.capacity = m.capacity.saturating_mul(4).max(m.capacity + 4);
                adv.acts += 1;
                ctx.trace(EventKind::AdversaryAct {
                    behavior: "forge_capacity",
                    payload: 0,
                });
                return m;
            }
        }
        self.me
    }

    /// Builds this node's [`DhtMsg::StabilizeReply`] — the adversary
    /// hook point. A stale-incarnation adversary answers with a snapshot
    /// frozen at its first query; a replay adversary piggybacks one
    /// remembered multicast frame to an RNG-chosen peer (piggybacked on
    /// the stabilize cadence so no extra timers are armed — the cleanup
    /// oracle audits the timer census); a capacity forger inflates the
    /// advertised head entry.
    fn answer_stabilize<D: DhtDriver>(&mut self, ctx: &mut D) -> DhtMsg {
        let my_advert = self.advertised_self(ctx);
        let mut successors = Vec::with_capacity(SUCCESSOR_LIST_LEN);
        successors.push(my_advert);
        successors.extend(self.successors.iter().copied().take(SUCCESSOR_LIST_LEN - 1));
        let mut reply = (self.predecessor, successors);
        // Replay targets must be computed before borrowing the adversary
        // (`neighbor_members` re-borrows `self`).
        let replay_targets: Vec<Id> = if self
            .adversary
            .as_deref()
            .is_some_and(|a| a.behavior == ByzantineBehavior::Replay)
        {
            let mut t: Vec<Id> = self.successors.iter().map(|m| m.id).collect();
            for m in self.neighbor_members() {
                if !t.contains(&m.id) {
                    t.push(m.id);
                }
            }
            t
        } else {
            Vec::new()
        };
        let mut replayed: Option<(Id, u64, Option<Segment>, u32, bytes::Bytes)> = None;
        if let Some(adv) = self.adversary.as_deref_mut() {
            match adv.behavior {
                ByzantineBehavior::StaleIncarnation => {
                    let frozen = adv.frozen.get_or_insert_with(|| (reply.0, reply.1.clone()));
                    if *frozen != reply {
                        adv.acts += 1;
                        ctx.trace(EventKind::AdversaryAct {
                            behavior: "stale_incarnation",
                            payload: 0,
                        });
                    }
                    reply = frozen.clone();
                }
                ByzantineBehavior::Replay
                    if !adv.remembered.is_empty() && !replay_targets.is_empty() =>
                {
                    let f = adv.rng.uniform_incl(0, adv.remembered.len() as u64 - 1) as usize;
                    let t = adv.rng.uniform_incl(0, replay_targets.len() as u64 - 1) as usize;
                    let (payload, region, hops, data) = adv.remembered[f].clone();
                    replayed = Some((replay_targets[t], payload, region, hops, data));
                    adv.acts += 1;
                }
                _ => {}
            }
        }
        if let Some((to, payload, region, hops, data)) = replayed {
            // Deliberately NOT traced as a MulticastForward: the
            // forward-cycle oracle counts (actor, payload, child) edges,
            // and the adversary's re-send is an attack, not tree traffic.
            ctx.trace(EventKind::AdversaryAct {
                behavior: "replay",
                payload,
            });
            self.send_to_member(
                ctx,
                to,
                DhtMsg::Multicast {
                    payload,
                    region,
                    hops,
                    data,
                },
            );
        }
        DhtMsg::StabilizeReply {
            predecessor: reply.0,
            successors: reply.1,
        }
    }

    /// Marks `member` as provably alive: it just sent us something that
    /// only a live node originates. Closes any investigation and voids
    /// any standing verdict.
    fn mark_alive(&mut self, member: Id) {
        self.confirmed_dead.remove(&member.value());
        self.succ_strikes.remove(&member.value());
        self.morgue.remove(&member.value());
        self.morgue_awaiting.remove(&member.value());
    }

    /// Opens (or continues) a post-eviction investigation of `member`.
    /// The stabilize timer pings every morgue entry once per round; only
    /// [`DEAD_VERDICT_STRIKES`] consecutive unanswered probes produce the
    /// confirmed-dead verdict, which in turn carries a round budget
    /// ([`DEAD_VERDICT_ROUNDS`]) and lapses unless re-earned.
    fn open_investigation(&mut self, member: Id) {
        let id = member.value();
        if id == self.me.id.value() || self.confirmed_dead.contains_key(&id) {
            return;
        }
        if self.morgue.len() < MORGUE_CAP || self.morgue.contains_key(&id) {
            self.morgue.entry(id).or_insert(0);
        }
        self.succ_strikes.remove(&id);
    }

    fn handle_lookup<D: DhtDriver>(
        &mut self,
        ctx: &mut D,
        key: Id,
        req_id: u64,
        reply_to: ActorId,
        hops: u32,
        mut state: u64,
    ) {
        let answer = |ctx: &mut D, owner: Member, gave_up: bool| {
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
        let neighbors = self.neighbor_members();
        let next = self
            .protocol
            .next_hop(
                self.space,
                &self.me,
                &neighbors,
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

    /// Handles [`DhtMsg::Multicast`] (`group == None`) and
    /// [`DhtMsg::GroupPublish`] (`group == Some(g)`) — one forwarding
    /// path: duplicate suppression, replay and region-violation detection,
    /// the region split over the shared neighbor table (a per-group tree
    /// is implicit) and the child fan-out. A grouped payload differs only
    /// in that non-subscribers relay it without delivering it to the
    /// application, every trace event carries the group, and the
    /// adversary hooks leave it alone.
    fn handle_multicast<D: DhtDriver>(
        &mut self,
        ctx: &mut D,
        from: ActorId,
        group: Option<u64>,
        frame: PayloadFrame,
    ) {
        let PayloadFrame {
            payload,
            region,
            hops,
            data,
        } = frame;
        let trace_group = group.map(cam_trace::GroupId);
        if self.seen_payloads.contains_key(&payload) {
            // Replay evidence: a region-carrying copy arriving again from
            // a *different* sender than the first. Retransmits and wire
            // duplicates re-arrive from the original sender, and the
            // region-split tree hands each payload to a child exactly
            // once, so a second region-carrying sender replayed the frame.
            if region.is_some()
                && self
                    .first_sender
                    .get(&payload)
                    .is_some_and(|&first| first != from)
            {
                self.detections.replay_suspects += 1;
                ctx.trace(EventKind::AdversaryDetect {
                    detector: "replay_suspect",
                    suspect: from.0 as u64,
                    payload,
                });
            }
            ctx.trace(EventKind::DuplicateSuppress {
                payload,
                hops,
                group: trace_group,
            });
            return; // duplicate
        }
        if region.is_some() {
            self.first_sender.insert(payload, from);
        }
        self.seen_payloads.insert(payload, hops);
        let delivers = match group {
            None => {
                self.received_log.push((payload, hops));
                true
            }
            Some(g) => {
                self.group_of.insert(payload, g);
                let subscribed = self.subscriptions.contains(&g);
                if subscribed {
                    self.group_received_log.push((g, payload, hops));
                }
                subscribed
            }
        };
        if delivers {
            ctx.trace(EventKind::MulticastReceive {
                payload,
                hops,
                group: trace_group,
            });
            self.delivered_data.insert(payload, data.clone());
        }
        // Region honesty: CAM-Chord's split always delegates to child `c`
        // a segment beginning (exclusively) at `c` itself, and a source's
        // self-addressed frame carries `all_but(me)`, which also begins
        // at `me` — so on every honest region-carrying frame,
        // `region.from == me`. A frame violating that was misrouted:
        // deliver locally (the bytes are real) but do NOT forward, since
        // splitting someone else's segment would spray the wrong subtree.
        // Anti-entropy repairs the starved region.
        if let Some(r) = region {
            if r.from != self.me.id {
                self.detections.region_violations += 1;
                ctx.trace(EventKind::AdversaryDetect {
                    detector: "region_violation",
                    suspect: from.0 as u64,
                    payload,
                });
                return;
            }
        }
        let Some(succ) = self.successors.first().copied() else {
            return;
        };
        let neighbors = self.neighbor_members();
        let mut children = self
            .protocol
            .multicast_children(self.space, &self.me, &neighbors, &succ, region);
        // Adversary hooks (ungrouped payloads only): all decisions draw
        // from the adversary's own plan-seeded RNG, never from
        // `ctx.random_index`, so chaos replays stay bit-identical.
        if let (None, Some(adv)) = (group, self.adversary.as_deref_mut()) {
            match adv.behavior {
                ByzantineBehavior::Replay => {
                    adv.remember(payload, region, hops, data.clone());
                }
                ByzantineBehavior::Misroute => {
                    let regions: Vec<Option<Segment>> =
                        children.iter().map(|&(_, r)| r).collect();
                    let n = children.len();
                    if n > 1 && regions.iter().any(Option::is_some) {
                        // Rotate the delegated sub-segments one child
                        // over: every child now gets a region starting at
                        // a *different* child's identifier.
                        for (i, (_, r)) in children.iter_mut().enumerate() {
                            *r = regions[(i + 1) % n];
                        }
                        adv.acts += 1;
                        ctx.trace(EventKind::AdversaryAct {
                            behavior: "misroute",
                            payload,
                        });
                    } else if n == 1 && region.is_some() {
                        // Single child: hand it the parent's whole region,
                        // which starts at *me*, not at the child.
                        children[0].1 = region;
                        adv.acts += 1;
                        ctx.trace(EventKind::AdversaryAct {
                            behavior: "misroute",
                            payload,
                        });
                    }
                }
                ByzantineBehavior::SelectiveDrop => {
                    let mut kept = Vec::with_capacity(children.len());
                    for c in children.drain(..) {
                        if adv.rng.uniform_incl(0, 99) < 45 {
                            adv.acts += 1;
                            ctx.trace(EventKind::AdversaryAct {
                                behavior: "selective_drop",
                                payload,
                            });
                        } else {
                            kept.push(c);
                        }
                    }
                    children = kept;
                }
                ByzantineBehavior::ForgeCapacity | ByzantineBehavior::StaleIncarnation => {}
            }
        }
        if ctx.trace_enabled() {
            let split = children.iter().filter(|(_, r)| r.is_some()).count();
            if split > 0 {
                ctx.trace(EventKind::RegionSplit {
                    payload,
                    children: split as u32,
                });
            }
        }
        for (child, child_region) in children {
            if ctx.trace_enabled() {
                ctx.trace(EventKind::MulticastForward {
                    payload,
                    to: child.value(),
                    hops: hops + 1,
                    segment: child_region.map(|s| (s.from.value(), s.to.value())),
                    group: trace_group,
                });
            }
            let msg = match group {
                None => DhtMsg::Multicast {
                    payload,
                    region: child_region,
                    hops: hops + 1,
                    data: data.clone(),
                },
                Some(group) => DhtMsg::GroupPublish {
                    group,
                    payload,
                    region: child_region,
                    hops: hops + 1,
                    data: data.clone(),
                },
            };
            self.send_to_member(ctx, child, msg);
        }
    }

    /// Handles a pub/sub membership change ([`DhtMsg::GroupSubscribe`] /
    /// [`DhtMsg::GroupUnsubscribe`]).
    ///
    /// Three roles, all served by one message as it travels:
    /// * at the subscriber itself (`member == me`) the local subscription
    ///   flag flips — delivery filtering needs no root round-trip;
    /// * at the group's rendezvous root the membership set is updated;
    /// * anywhere else the message takes one greedy clockwise hop toward
    ///   the root (the same protocol-agnostic walk JoinRequest uses, for
    ///   the same reason: there is nowhere to carry per-protocol routing
    ///   state).
    fn handle_group_membership<D: DhtDriver>(
        &mut self,
        ctx: &mut D,
        group: u64,
        member: u64,
        subscribe: bool,
    ) {
        if member == self.me.id.value() {
            if subscribe {
                self.subscriptions.insert(group);
            } else {
                self.subscriptions.remove(&group);
            }
        }
        let key = group_root_id(self.space, group);
        let is_root = key == self.me.id
            || self
                .predecessor
                .as_ref()
                .is_some_and(|p| self.space.in_segment(key, p.id, self.me.id));
        if is_root {
            if subscribe {
                self.group_members.entry(group).or_default().insert(member);
            } else if let Some(set) = self.group_members.get_mut(&group) {
                set.remove(&member);
                if set.is_empty() {
                    self.group_members.remove(&group);
                }
            }
            return;
        }
        let forward = if subscribe {
            DhtMsg::GroupSubscribe { group, member }
        } else {
            DhtMsg::GroupUnsubscribe { group, member }
        };
        let Some(succ) = self.successors.first().copied() else {
            return; // isolated: membership is lost, like any best-effort send
        };
        if self.space.in_segment(key, self.me.id, succ.id) {
            self.send_to_member(ctx, succ.id, forward);
            return;
        }
        let next = self.greedy_clockwise_toward(key, &succ, false);
        self.send_to_member(ctx, next, forward);
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
    fn greedy_clockwise_toward(&self, key: Id, succ: &Member, stop_short: bool) -> Id {
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

    fn handle_anti_entropy_timer<D: DhtDriver>(&mut self, ctx: &mut D) {
        if self.anti_entropy {
            // Sorted so the digest is identical across runs (hash order
            // would otherwise perturb downstream message ordering). Group
            // publishes are excluded: epidemic repair through non-subscriber
            // relays would deliver them without their group attribution.
            let mut have: Vec<u64> = self
                .seen_payloads
                .keys()
                .filter(|p| !self.group_of.contains_key(p))
                .copied()
                .collect();
            have.sort_unstable();
            let mut targets: Vec<Id> = Vec::new();
            if let Some(succ) = self.successors.first() {
                targets.push(succ.id);
            }
            let neighbors = self.neighbor_members();
            if !neighbors.is_empty() {
                let pick = ctx.random_index(neighbors.len());
                targets.push(neighbors[pick].id);
            }
            for t in targets {
                self.send_to_member(ctx, t, DhtMsg::AntiEntropyDigest { have: have.clone() });
            }
        }
        // Always re-arm so enabling anti-entropy later takes effect.
        ctx.set_timer(self.stabilize_every.saturating_mul(2), TIMER_ANTI_ENTROPY);
    }

    fn handle_stabilize_timer<D: DhtDriver>(&mut self, ctx: &mut D) {
        // Age out confirmed-dead verdicts: each round spends one unit of
        // a verdict's budget, and a verdict that is never re-earned (the
        // "dead" node was a false positive from probe loss) expires
        // instead of blacklisting a live node out of the ring forever.
        self.confirmed_dead.retain(|_, rounds| {
            *rounds -= 1;
            *rounds > 0
        });
        // Morgue investigations: probes launched last round that are
        // still unanswered count one strike; enough consecutive strikes
        // (see `DEAD_VERDICT_STRIKES`) convert the eviction into a
        // confirmed-dead verdict. A Pong in between closed the case via
        // `mark_alive`.
        for id in std::mem::take(&mut self.morgue_awaiting) {
            if let Some(strikes) = self.morgue.get_mut(&id) {
                *strikes += 1;
                if *strikes >= DEAD_VERDICT_STRIKES {
                    self.morgue.remove(&id);
                    self.confirmed_dead.insert(id, DEAD_VERDICT_ROUNDS);
                }
            }
        }
        // Every open case gets one probe per round (BTreeMap order keeps
        // the probe sequence deterministic).
        let open: Vec<u64> = self.morgue.keys().copied().collect();
        for id in open {
            let req_id = self.fresh_req_id();
            self.morgue_awaiting.insert(id);
            self.send_to_member(ctx, Id(id), DhtMsg::Ping { req_id });
        }
        // Failure detection: the query sent at the previous tick went
        // unanswered — strike; two consecutive strikes declare the
        // successor dead and promote the next one (a single strike may be
        // plain message loss).
        if self.awaiting_stabilize {
            self.stabilize_strikes += 1;
            if self.stabilize_strikes >= 2 && self.successors.len() > 1 {
                let dead = self.successors.remove(0);
                self.fingers.retain(|_, m| m.id != dead.id);
                self.open_investigation(dead.id);
                ctx.trace(EventKind::NeighborMiss {
                    neighbor: dead.id.value(),
                    strikes: u32::from(self.stabilize_strikes),
                });
                self.stabilize_strikes = 0;
            } else if self.stabilize_strikes >= 4 && self.successors.len() == 1 {
                // Last-resort escape: the only remaining successor is
                // dead, and the list can only be replenished by its
                // replies — which will never come. Reseed from the
                // nearest clockwise finger (extra strikes first, since
                // this jump may overshoot live nodes and stabilization
                // must walk it back).
                let dead = self.successors[0];
                let replacement = self
                    .fingers
                    .values()
                    .filter(|m| m.id != dead.id && m.id != self.me.id)
                    .min_by_key(|m| self.space.seg_len(self.me.id, m.id))
                    .copied();
                if let Some(next) = replacement {
                    self.successors[0] = next;
                    self.fingers.retain(|_, m| m.id != dead.id);
                    self.open_investigation(dead.id);
                    ctx.trace(EventKind::NeighborMiss {
                        neighbor: dead.id.value(),
                        strikes: u32::from(self.stabilize_strikes),
                    });
                    self.stabilize_strikes = 0;
                }
            }
        } else {
            self.stabilize_strikes = 0;
        }
        ctx.trace(EventKind::StabilizeRound {
            successors: self.successors.len() as u32,
        });
        if let Some(succ) = self.successors.first().copied() {
            self.awaiting_stabilize = true;
            self.send_to_member(ctx, succ.id, DhtMsg::StabilizeQuery);
        }
        // Chord's check_predecessor: the probe from the previous tick went
        // unanswered — strike; two strikes clear the predecessor so a live
        // claimant's Notify can take the slot.
        if let Some((_, probed)) = self.pending_pred_ping.take() {
            if self.predecessor.map(|p| p.id) == Some(probed) {
                self.pred_strikes += 1;
                if self.pred_strikes >= 2 {
                    self.predecessor = None;
                    self.pred_strikes = 0;
                }
            } else {
                self.pred_strikes = 0;
            }
        }
        if let Some(pred) = self.predecessor {
            let req_id = self.fresh_req_id();
            self.pending_pred_ping = Some((req_id, pred.id));
            self.send_to_member(ctx, pred.id, DhtMsg::Ping { req_id });
        }
        // Deep successor-list liveness sweep. The head is vetted by the
        // stabilize query itself, but deeper entries are only ever
        // replaced wholesale by adopted lists — a dead deep entry could
        // survive indefinitely and be re-advertised to peers (exactly
        // what a stale-incarnation adversary exploits). Probe one
        // non-head entry per round, round-robin; two consecutive
        // unanswered probes evict it everywhere and record it as
        // confirmed dead, which is what lets the stale-claim detector
        // recognize its re-advertisement.
        if let Some((_, probed)) = self.pending_succ_ping.take() {
            if self.successors.iter().skip(1).any(|m| m.id == probed) {
                let strikes = self.succ_strikes.entry(probed.value()).or_insert(0);
                *strikes += 1;
                let strikes = *strikes;
                if strikes >= 2 {
                    if let Some(pos) = self.successors.iter().position(|m| m.id == probed) {
                        if pos > 0 {
                            self.successors.remove(pos);
                        }
                    }
                    self.fingers.retain(|_, m| m.id != probed);
                    self.open_investigation(probed);
                    ctx.trace(EventKind::NeighborMiss {
                        neighbor: probed.value(),
                        strikes: u32::from(strikes),
                    });
                }
            } else {
                self.succ_strikes.remove(&probed.value());
            }
        }
        if self.successors.len() > 1 {
            let idx = 1 + self.succ_probe_cursor % (self.successors.len() - 1);
            self.succ_probe_cursor = self.succ_probe_cursor.wrapping_add(1);
            let target = self.successors[idx];
            let req_id = self.fresh_req_id();
            self.pending_succ_ping = Some((req_id, target.id));
            self.send_to_member(ctx, target.id, DhtMsg::Ping { req_id });
        }
        ctx.set_timer(self.stabilize_every, TIMER_STABILIZE);
    }

    fn handle_fix_fingers_timer<D: DhtDriver>(&mut self, ctx: &mut D) {
        // 1. Probes from the previous round that never came back: give the
        //    probed member a strike; two consecutive strikes (distinguishing
        //    death from a single lost Ping/Pong) evict every finger pointing
        //    at it, so neither routing nor multicast forwards into the void.
        let mut timed_out: Vec<(u64, Id)> =
            self.pending_pings.drain().map(|(_, v)| v).collect();
        timed_out.sort_unstable(); // hash order must not steer evictions
        for (_, suspect) in timed_out {
            let strikes = self.ping_strikes.entry(suspect.value()).or_insert(0);
            *strikes += 1;
            let strikes = *strikes;
            if strikes >= 2 {
                self.fingers.retain(|_, m| m.id != suspect);
                self.ping_strikes.remove(&suspect.value());
                self.open_investigation(suspect);
                ctx.trace(EventKind::NeighborMiss {
                    neighbor: suspect.value(),
                    strikes: u32::from(strikes),
                });
            }
        }
        // 2. Probe and refresh a window of finger slots, round-robin via a
        //    dedicated cursor (the cursor advances by exactly the window
        //    size, so every slot is visited every ⌈len/3⌉ rounds — indexing
        //    by request-id arithmetic would skip slots whenever the id
        //    stride shared a factor with the table length).
        let me_actor = ctx.me();
        if !self.targets.is_empty() {
            let len = self.targets.len();
            let window = 3.min(len);
            let mut probe_victims: Vec<(u64, Id)> = Vec::new();
            for i in 0..window {
                let idx = (self.fix_cursor + i) % len;
                let target = self.targets[idx];
                // Probe the current resident of the slot…
                if let Some(m) = self.fingers.get(&target.value()) {
                    probe_victims.push((target.value(), m.id));
                }
                // …and re-resolve the slot.
                let req_id = self.fresh_req_id();
                self.pending
                    .insert(req_id, PendingLookup::FixFinger(target));
                let state = self.protocol.initial_state(self.space, &self.me, target);
                self.handle_lookup(ctx, target, req_id, me_actor, 0, state);
            }
            self.fix_cursor = (self.fix_cursor + window) % len;
            for (target, member_id) in probe_victims {
                let req_id = self.fresh_req_id();
                self.pending_pings.insert(req_id, (target, member_id));
                self.send_to_member(ctx, member_id, DhtMsg::Ping { req_id });
            }
        }
        ctx.set_timer(self.stabilize_every.saturating_mul(2), TIMER_FIX_FINGERS);
    }
}

impl<P: DhtProtocol> DhtActor<P> {
    /// Feeds one message into the actor through any [`DhtDriver`].
    ///
    /// This is the host-agnostic message entry point: the simulator's
    /// [`Actor::on_message`] forwards here, and `cam-net`'s runtime calls
    /// it directly with decoded wire frames.
    pub fn deliver<D: DhtDriver>(&mut self, ctx: &mut D, from: ActorId, msg: DhtMsg) {
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
            } => match self.pending.remove(&req_id) {
                Some(PendingLookup::FixFinger(target)) if !gave_up => {
                    let owner = self.vet(ctx, owner);
                    ctx.trace(EventKind::NeighborResolve {
                        target: target.value(),
                        neighbor: owner.id.value(),
                    });
                    self.fingers.insert(target.value(), owner);
                }
                _ => {}
            },
            DhtMsg::StabilizeQuery => {
                let reply = self.answer_stabilize(ctx);
                ctx.send(from, reply);
            }
            DhtMsg::StabilizeReply {
                predecessor,
                successors,
            } => {
                self.awaiting_stabilize = false;
                // Incarnation-regression guard: drop advertised members
                // this node has itself confirmed dead — adopting them
                // would resurrect a stale incarnation into the ring. Every
                // flagged claim re-probes the member: if the local
                // eviction was wrong (probe losses, or the member crashed
                // and has since rejoined), its Pong clears the blacklist
                // and the next advertisement is adopted normally. A node
                // mid-rejoin swallows pings until its join completes, so
                // the probe must repeat, not fire once — and if even the
                // probes keep getting lost, the verdict's round budget
                // (see `DEAD_VERDICT_ROUNDS`) lapses as a backstop.
                let mut vetted: Vec<Member> = Vec::with_capacity(successors.len());
                for m in successors {
                    if self.confirmed_dead.contains_key(&m.id.value()) {
                        self.detections.stale_claims += 1;
                        ctx.trace(EventKind::AdversaryDetect {
                            detector: "stale_claim",
                            suspect: m.id.value(),
                            payload: 0,
                        });
                        let req_id = self.fresh_req_id();
                        self.send_to_member(ctx, m.id, DhtMsg::Ping { req_id });
                        continue;
                    }
                    let m = self.vet(ctx, m);
                    vetted.push(m);
                }
                let successors = vetted;
                let predecessor = match predecessor {
                    Some(p) if self.confirmed_dead.contains_key(&p.id.value()) => {
                        self.detections.stale_claims += 1;
                        ctx.trace(EventKind::AdversaryDetect {
                            detector: "stale_claim",
                            suspect: p.id.value(),
                            payload: 0,
                        });
                        let req_id = self.fresh_req_id();
                        self.send_to_member(ctx, p.id, DhtMsg::Ping { req_id });
                        None
                    }
                    Some(p) => Some(self.vet(ctx, p)),
                    None => None,
                };
                // Chord stabilize: if succ's predecessor is between me and
                // succ, adopt it as my successor.
                if let (Some(p), Some(succ)) = (predecessor, self.successors.first().copied()) {
                    if p.id != self.me.id && self.space.in_segment(p.id, self.me.id, succ.id) {
                        let mut list = vec![p];
                        list.extend(self.successors.iter().copied());
                        list.truncate(SUCCESSOR_LIST_LEN);
                        self.successors = list;
                    } else {
                        // Adopt succ's list shifted behind succ.
                        let mut list = vec![succ];
                        list.extend(successors.into_iter().filter(|m| m.id != succ.id));
                        list.truncate(SUCCESSOR_LIST_LEN);
                        self.successors = list;
                    }
                }
                if let Some(succ) = self.successors.first().copied() {
                    let me = self.advertised_self(ctx);
                    self.send_to_member(ctx, succ.id, DhtMsg::Notify(me));
                }
            }
            DhtMsg::Notify(candidate) => {
                // The candidate itself sent this — it is provably alive.
                self.mark_alive(candidate.id);
                let candidate = self.vet(ctx, candidate);
                let adopt = match &self.predecessor {
                    None => true,
                    Some(p) => self.space.in_segment(candidate.id, p.id, self.me.id),
                };
                if adopt && candidate.id != self.me.id {
                    self.predecessor = Some(candidate);
                }
            }
            DhtMsg::Ping { req_id } => {
                let member = self.advertised_self(ctx);
                ctx.send(from, DhtMsg::Pong { req_id, member });
            }
            DhtMsg::Pong { req_id, member } => {
                // Any Pong proves the member is alive right now.
                self.mark_alive(member.id);
                let member = self.vet(ctx, member);
                if self.pending_succ_ping.map(|(id, _)| id) == Some(req_id) {
                    self.pending_succ_ping = None;
                } else if self.pending_pred_ping.map(|(id, _)| id) == Some(req_id) {
                    self.pending_pred_ping = None;
                    self.pred_strikes = 0;
                } else if let Some((target, probed)) = self.pending_pings.remove(&req_id) {
                    if probed == member.id {
                        // The member answered: clear any strike from a
                        // previously lost probe. Refresh the entry only if
                        // the slot still points at it — a concurrent
                        // fix-finger lookup may have re-resolved the slot
                        // to a newer owner, and a late Pong from the old
                        // (alive but no longer responsible) resident must
                        // not clobber that resolution back to stale.
                        self.ping_strikes.remove(&member.id.value());
                        if self.fingers.get(&target).is_some_and(|m| m.id == probed) {
                            self.fingers.insert(target, member);
                        }
                    }
                }
            }
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
            DhtMsg::AntiEntropyDigest { have } => {
                let their: std::collections::HashSet<u64> = have.iter().copied().collect();
                // Push what they're missing… (sorted: deterministic order)
                let mut missing: Vec<(u64, u32)> = self
                    .seen_payloads
                    .iter()
                    .filter(|(p, _)| !their.contains(p))
                    .map(|(&p, &hops)| (p, hops))
                    .collect();
                missing.sort_unstable();
                for (p, hops) in missing {
                    let data = self.delivered_data.get(&p).cloned().unwrap_or_default();
                    ctx.send(
                        from,
                        DhtMsg::PayloadPush {
                            payload: p,
                            hops: hops + 1,
                            data,
                        },
                    );
                }
                // …and pull what we're missing.
                let want: Vec<u64> = have
                    .into_iter()
                    .filter(|p| !self.seen_payloads.contains_key(p))
                    .collect();
                if !want.is_empty() {
                    ctx.send(from, DhtMsg::PayloadPullReq { want });
                }
            }
            DhtMsg::PayloadPullReq { want } => {
                for p in want {
                    if let Some(&hops) = self.seen_payloads.get(&p) {
                        let data = self.delivered_data.get(&p).cloned().unwrap_or_default();
                        ctx.send(
                            from,
                            DhtMsg::PayloadPush {
                                payload: p,
                                hops: hops + 1,
                                data,
                            },
                        );
                    }
                }
            }
            DhtMsg::PayloadPush {
                payload,
                hops,
                data,
            } => {
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.seen_payloads.entry(payload)
                {
                    e.insert(hops);
                    self.received_log.push((payload, hops));
                    self.delivered_data.insert(payload, data);
                    // Tree delivery failed for this payload and epidemic
                    // repair recovered it — the observable footprint of
                    // dropped/misrouted forwards upstream. Unattributable
                    // to a specific peer, hence suspect 0.
                    self.detections.repair_recoveries += 1;
                    ctx.trace(EventKind::AdversaryDetect {
                        detector: "repair_recovery",
                        suspect: 0,
                        payload,
                    });
                }
            }
            DhtMsg::JoinRequest {
                joiner,
                joiner_actor,
            } => {
                // A rejoining member originated this request moments ago:
                // clear any confirmed-dead verdict so its fresh
                // incarnation can be re-adopted.
                self.mark_alive(joiner.id);
                let joiner = self.vet(ctx, joiner);
                // Route a lookup for the joiner's id; when it completes we
                // cannot intercept here without more state, so answer
                // directly if we already know: simplest correct behaviour is
                // to forward the request greedily toward the owner.
                if let Some(pred) = self.predecessor {
                    // `pred.id == joiner.id` is a *rejoin*: a node that
                    // crashed and restarted while we still list it as
                    // predecessor (it keeps answering pings, so failure
                    // detection never evicts it). The segment check alone
                    // excludes that case — (pred, me] does not contain
                    // pred — and the request would orbit forever.
                    if pred.id == joiner.id
                        || self.space.in_segment(joiner.id, pred.id, self.me.id)
                    {
                        ctx.trace(EventKind::JoinRequest {
                            joiner: joiner.id.value(),
                        });
                        let mut successors = vec![self.advertised_self(ctx)];
                        successors.extend(self.successors.iter().copied());
                        successors.truncate(SUCCESSOR_LIST_LEN);
                        ctx.send(joiner_actor, DhtMsg::JoinAnswer { successors });
                        return;
                    }
                }
                if let Some(succ) = self.successors.first().copied() {
                    if self.space.in_segment(joiner.id, self.me.id, succ.id) {
                        ctx.trace(EventKind::JoinRequest {
                            joiner: joiner.id.value(),
                        });
                        // My own successor list *is* the joiner's future
                        // list (it starts at succ).
                        ctx.send(
                            joiner_actor,
                            DhtMsg::JoinAnswer {
                                successors: self.successors.clone(),
                            },
                        );
                        return;
                    }
                    // Stop short of the joiner's own id: a table entry for
                    // its pre-crash incarnation is not a forwarding target.
                    let next = self.greedy_clockwise_toward(joiner.id, &succ, true);
                    self.send_to_member(
                        ctx,
                        next,
                        DhtMsg::JoinRequest {
                            joiner,
                            joiner_actor,
                        },
                    );
                }
            }
            DhtMsg::JoinAnswer { successors } => {
                // A rejoining node can be offered a list that still
                // contains its own pre-crash incarnation (its old
                // successor answers with a list starting at the joiner).
                // Adopting ourselves as successor would wedge the ring.
                let mut successors: Vec<Member> = successors
                    .into_iter()
                    .filter(|m| m.id != self.me.id)
                    .collect();
                for m in &mut successors {
                    *m = self.vet(ctx, *m);
                }
                if !self.joined && !successors.is_empty() {
                    ctx.trace(EventKind::JoinComplete {
                        joiner: self.me.id.value(),
                    });
                    let head = successors[0];
                    self.successors = successors;
                    self.successors.truncate(SUCCESSOR_LIST_LEN);
                    self.joined = true;
                    let me = self.advertised_self(ctx);
                    self.send_to_member(ctx, head.id, DhtMsg::Notify(me));
                    ctx.set_timer(Duration::from_millis(50), TIMER_STABILIZE);
                    ctx.set_timer(Duration::from_millis(100), TIMER_FIX_FINGERS);
                    ctx.set_timer(Duration::from_millis(150), TIMER_ANTI_ENTROPY);
                }
            }
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

    /// Feeds one timer expiry into the actor through any [`DhtDriver`]
    /// (host-agnostic counterpart of [`Actor::on_timer`]).
    pub fn deliver_timer<D: DhtDriver>(&mut self, ctx: &mut D, tag: u64) {
        match tag {
            TIMER_STABILIZE => self.handle_stabilize_timer(ctx),
            TIMER_FIX_FINGERS => self.handle_fix_fingers_timer(ctx),
            TIMER_ANTI_ENTROPY => self.handle_anti_entropy_timer(ctx),
            _ => {}
        }
    }

    /// Arms the periodic maintenance timers through a [`DhtDriver`] —
    /// what [`DhtActor::start_maintenance`] does for the simulator, for
    /// hosts that are not a [`Simulation`]. `jitter` desynchronizes the
    /// nodes' maintenance phases.
    pub fn arm_maintenance<D: DhtDriver>(&mut self, drv: &mut D, jitter: u64) {
        let base = Duration::from_millis(500);
        drv.set_timer(base + Duration::from_millis(jitter % 250), TIMER_STABILIZE);
        drv.set_timer(
            base.saturating_mul(2) + Duration::from_millis(jitter % 333),
            TIMER_FIX_FINGERS,
        );
        drv.set_timer(
            base.saturating_mul(3) + Duration::from_millis(jitter % 451),
            TIMER_ANTI_ENTROPY,
        );
    }
}

impl<P: DhtProtocol> Actor for DhtActor<P> {
    type Msg = DhtMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, DhtMsg>, from: ActorId, msg: DhtMsg) {
        self.deliver(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DhtMsg>, tag: u64) {
        self.deliver_timer(ctx, tag);
    }
}

/// Yields the actors of a *converged* overlay over `members`, in ring
/// order: every actor starts with the successors, predecessor and fingers
/// that stabilization would eventually produce (resolved by an oracle over
/// the sorted membership), and all of them share one id → actor directory
/// in which the `i`-th actor yielded is `ActorId(i)` — one allocation, so
/// address books cost `O(n)` in total rather than `O(n²)`. Both hosts
/// ([`DynamicNetwork::converged`] and cam-net's `ReactorCore::converged`)
/// bootstrap from this; actors are built lazily so a host can move each
/// straight into its own table.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn converged_actors<'a, P: DhtProtocol>(
    space: IdSpace,
    members: &[Member],
    protocol: &'a P,
) -> impl Iterator<Item = DhtActor<P>> + 'a {
    let mut sorted = members.to_vec();
    sorted.sort_by_key(|m| m.id);
    let n = sorted.len();
    assert!(n > 0, "empty network");

    let directory: std::sync::Arc<HashMap<u64, ActorId>> = std::sync::Arc::new(
        sorted
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id.value(), ActorId(i)))
            .collect(),
    );
    // A dense id column: the oracle's binary searches touch 8 bytes per
    // probe instead of a whole `Member`.
    let ids: Vec<Id> = sorted.iter().map(|m| m.id).collect();
    (0..n).map(move |i| {
        let owner_of = |k: Id| -> Member {
            let j = ids.partition_point(|&x| x < k);
            sorted[if j == n { 0 } else { j }]
        };
        let me = sorted[i];
        let succs: Vec<Member> = (1..=SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)).max(1))
            .map(|d| sorted[(i + d) % n])
            .collect();
        let pred = sorted[(i + n - 1) % n];
        let fingers: Vec<(Id, Member)> = protocol
            .neighbor_targets(space, &me)
            .into_iter()
            .map(|t| (t, owner_of(t)))
            .collect();
        let mut actor = DhtActor::new(space, me, protocol.clone());
        actor.seed_state(succs, pred, fingers);
        actor.set_directory(std::sync::Arc::clone(&directory));
        actor
    })
}

/// A harness owning a simulation of [`DhtActor`]s plus the id → actor
/// directory, with convenience operations for the churn experiments.
pub struct DynamicNetwork<P: DhtProtocol> {
    /// The underlying event simulation.
    pub sim: Simulation<DhtActor<P>>,
    space: IdSpace,
    actors: Vec<(Member, ActorId)>,
    next_payload: u64,
}

impl<P: DhtProtocol> DynamicNetwork<P> {
    /// Builds a *converged* network of the given members: every node starts
    /// with correct successors, predecessor, and fingers (what
    /// stabilization would eventually produce), and maintenance timers
    /// running. Use [`DynamicNetwork::kill_random`] / [`DynamicNetwork::inject_join`] to perturb it.
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
        for (i, (_, actor_id)) in actors.iter().enumerate() {
            DhtActor::start_maintenance(&mut sim, *actor_id, i as u64 * 37);
        }
        DynamicNetwork {
            sim,
            space,
            actors,
            next_payload: 1,
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Live members, in ring order.
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
            self.sim.kill(*v);
            let at = self.sim.now().micros();
            self.sim
                .tracer_mut()
                .record(at, v.0 as u64, EventKind::Crash);
        }
        victims.len()
    }

    /// Adds a fresh member as a live actor and starts its join through a
    /// random live bootstrap node. The harness updates every node's
    /// address book (directory) — the deployment equivalent is carrying
    /// addresses on the wire.
    ///
    /// Returns the new actor id, or `None` if the member's identifier is
    /// already present or no live bootstrap exists.
    pub fn inject_join(&mut self, member: Member, protocol: P) -> Option<ActorId> {
        if self.actors.iter().any(|(m, _)| m.id == member.id) {
            return None;
        }
        let bootstrap = self
            .actors
            .iter()
            .map(|(_, a)| *a)
            .find(|a| self.sim.is_alive(*a))?;
        let actor = DhtActor::new(self.space, member, protocol);
        let new_id = self.sim.add_actor(actor);
        self.actors.push((member, new_id));
        // Rebuild the authoritative address book once and re-share it with
        // every actor (newcomer included): one O(n) allocation instead of
        // n copy-on-write clones.
        self.reshare_directory();
        self.sim.post(
            new_id,
            bootstrap,
            DhtMsg::JoinRequest {
                joiner: member,
                joiner_actor: new_id,
            },
        );
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
        let pos = self.actors.iter().position(|(m, _)| m.id == id)?;
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
        if let Some(bootstrap) = self.bootstrap_for(new_id) {
            self.sim.post(
                new_id,
                bootstrap,
                DhtMsg::JoinRequest {
                    joiner: member,
                    joiner_actor: new_id,
                },
            );
        }
        Some(new_id)
    }

    /// Rebuilds the id → actor directory from `self.actors` and installs
    /// the single shared allocation on every live actor.
    fn reshare_directory(&mut self) {
        let directory: std::sync::Arc<HashMap<u64, ActorId>> = std::sync::Arc::new(
            self.actors
                .iter()
                .map(|(m, a)| (m.id.value(), *a))
                .collect(),
        );
        for &(_, a) in &self.actors {
            if let Some(actor) = self.sim.actor_mut(a) {
                actor.set_directory(std::sync::Arc::clone(&directory));
            }
        }
    }

    /// The first live, joined actor other than `exclude` — the bootstrap
    /// peer for joins, restarts, and join retries.
    fn bootstrap_for(&self, exclude: ActorId) -> Option<ActorId> {
        self.actors
            .iter()
            .map(|(_, a)| *a)
            .find(|a| *a != exclude && self.sim.actor(*a).is_some_and(DhtActor::is_joined))
    }

    /// Re-sends a join request for every live actor whose join has not
    /// completed — e.g. a joiner whose bootstrap crashed before answering.
    /// Join traffic is best-effort, so without retries such a node would
    /// stay stranded forever. Returns how many requests were re-sent.
    pub fn retry_stalled_joins(&mut self) -> usize {
        let stalled: Vec<(Member, ActorId)> = self
            .actors
            .iter()
            .copied()
            .filter(|(_, a)| self.sim.actor(*a).is_some_and(|x| !x.is_joined()))
            .collect();
        let mut retried = 0;
        for (member, a) in stalled {
            let Some(bootstrap) = self.bootstrap_for(a) else {
                continue;
            };
            self.sim.post(
                a,
                bootstrap,
                DhtMsg::JoinRequest {
                    joiner: member,
                    joiner_actor: a,
                },
            );
            retried += 1;
        }
        retried
    }

    /// Removes the member with identifier `id` (crash semantics: peers
    /// discover the departure through failure detection). Returns whether
    /// a live actor was removed.
    pub fn remove_member(&mut self, id: Id) -> bool {
        match self.actor_of(id) {
            Some(a) if self.sim.is_alive(a) => {
                self.sim.kill(a);
                let at = self.sim.now().micros();
                self.sim
                    .tracer_mut()
                    .record(at, a.0 as u64, EventKind::Leave);
                true
            }
            _ => false,
        }
    }

    /// Enables anti-entropy payload repair on every live node (see
    /// [`DhtActor::set_anti_entropy`]).
    pub fn enable_anti_entropy(&mut self) {
        let pairs: Vec<ActorId> = self.actors.iter().map(|(_, a)| *a).collect();
        for a in pairs {
            if let Some(actor) = self.sim.actor_mut(a) {
                actor.set_anti_entropy(true);
            }
        }
    }

    /// The actor id of the member with identifier `id`, if it ever joined.
    pub fn actor_of(&self, id: Id) -> Option<ActorId> {
        self.actors
            .iter()
            .find(|(m, _)| m.id == id)
            .map(|(_, a)| *a)
    }

    /// Initiates a multicast at `source` and returns the payload id.
    ///
    /// `region_split`: `true` for CAM-Chord-style region multicast, `false`
    /// for flooding. The payload is injected as a self-addressed message.
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
        let payload = self.next_payload;
        self.next_payload += 1;
        let member = self
            .sim
            .actor(source)
            .expect("source must be alive")
            .member()
            .id;
        let region = if region_split {
            Some(Segment::all_but(self.space, member))
        } else {
            None
        };
        self.sim.post(
            source,
            source,
            DhtMsg::Multicast {
                payload,
                region,
                hops: 0,
                data,
            },
        );
        payload
    }

    /// Subscribes the node behind `actor` to pub/sub group `group`: its
    /// local delivery filter flips immediately (self-addressed message) and
    /// the membership routes to the group's rendezvous root over the
    /// overlay.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is dead.
    pub fn subscribe(&mut self, actor: ActorId, group: u64) {
        let member = self
            .sim
            .actor(actor)
            .expect("subscriber must be alive")
            .member()
            .id
            .value();
        self.sim
            .post(actor, actor, DhtMsg::GroupSubscribe { group, member });
    }

    /// Removes `actor`'s subscription to `group` (routed like
    /// [`DynamicNetwork::subscribe`]).
    ///
    /// # Panics
    ///
    /// Panics if `actor` is dead.
    pub fn unsubscribe(&mut self, actor: ActorId, group: u64) {
        let member = self
            .sim
            .actor(actor)
            .expect("unsubscriber must be alive")
            .member()
            .id
            .value();
        self.sim
            .post(actor, actor, DhtMsg::GroupUnsubscribe { group, member });
    }

    /// Initiates a publish in `group` at `source` and returns the payload
    /// id. Forwarding covers the whole ring (the per-group tree is
    /// implicit; non-subscribers relay without delivering), exactly like
    /// [`DynamicNetwork::start_multicast`].
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
        let payload = self.next_payload;
        self.next_payload += 1;
        let member = self
            .sim
            .actor(source)
            .expect("source must be alive")
            .member()
            .id;
        let region = if region_split {
            Some(Segment::all_but(self.space, member))
        } else {
            None
        };
        self.sim.post(
            source,
            source,
            DhtMsg::GroupPublish {
                group,
                payload,
                region,
                hops: 0,
                data: bytes::Bytes::new(),
            },
        );
        payload
    }

    /// Folds the given `(group, payload)` publishes into a per-group
    /// [`GroupDeliveryCensus`] over the *subscribers* of each group: a live
    /// subscriber counts as delivered iff the publish reached it. Dead
    /// actors are excluded, mirroring [`DeliveryCensus`].
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        let mut census = GroupDeliveryCensus::new();
        for (_, a) in &self.actors {
            if let Some(actor) = self.sim.actor(*a) {
                for &(group, payload) in publishes {
                    if actor.is_subscribed(group) {
                        census.observe(group, true, actor.has_group_payload(group, payload));
                    }
                }
            }
        }
        census
    }

    /// Fraction of live nodes that received `payload`, via the shared
    /// [`DeliveryCensus`] (the net `Cluster` folds through the same code).
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        let mut census = DeliveryCensus::new();
        for (_, a) in &self.actors {
            let actor = self.sim.actor(*a);
            census.observe(
                actor.is_some(),
                actor.is_some_and(|x| x.payload_hops(payload).is_some()),
            );
        }
        census.ratio()
    }

    /// Mean hop count of `payload` over nodes that received it.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for (_, a) in &self.actors {
            if let Some(actor) = self.sim.actor(*a) {
                if let Some(h) = actor.payload_hops(payload) {
                    total += u64::from(h);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}
