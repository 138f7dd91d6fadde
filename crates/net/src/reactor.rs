//! The sans-I/O protocol core: every effect of the node runtime —
//! timers, retransmissions, frame encode/decode, actor deliveries — as a
//! pure poll-style state machine with **no sockets, no clocks, and no
//! sleeps** anywhere inside.
//!
//! [`ReactorCore`] owns N [`NodeRuntime`]s (actor + timer heap +
//! retransmit buffer + private RNG stream) and exposes exactly three
//! temporal entry points, all taking `now` as an argument:
//!
//! * [`ReactorCore::handle_frame`] — one received datagram in, decoded,
//!   acked if required, delivered to the addressed actor; any frames the
//!   actor produced come back out through the [`FrameSink`];
//! * [`ReactorCore::poll`] — fire every timer and retransmission due at
//!   or before `now`, pushing the resulting frames into the sink;
//! * [`ReactorCore::next_wake`] — the earliest instant at which `poll`
//!   would have work: `min(next timer, next RTO)` over all live nodes.
//!
//! That contract — `poll(now) → frames out` plus `next_wake() → wake-at`
//! — is what lets one protocol core serve every host with zero
//! divergence: the virtual-time [`Cluster`](crate::runtime::Cluster) over
//! the deterministic in-memory wire (sim and chaos parity) and the same
//! `Cluster` over real UDP where the wire loop sleeps *exactly* until
//! `min(next_wake, socket readable, run deadline)` instead of spinning.
//! The `atm0s-sdn` exemplar's SAN-I/O architecture is the model: protocol
//! logic is written once, transports are pluggable shells.
//!
//! Hosts call `next_wake` and `poll` once per delivered frame, so neither
//! may cost a walk over all N nodes: the paper bounds a member's work per
//! message by its own capacity, whatever the group size, and the host
//! must not undo that on the way in. Each node keeps its own timer heap
//! and (sequence-ordered) retransmit buffer; above them sits one exact
//! cluster-level index of every node's next deadline, a min tournament
//! tree over node index. `next_wake` reads its root (O(1)); `poll` reads
//! off the nodes due at `now` in ascending index order (O(due · log n))
//! and pumps only those; and every place a node's deadline can move
//! re-reads that node into the index (O(log n)) through one helper,
//! `ReactorCore::refresh_deadline`, whose docs list the sites. A scan of
//! all nodes survives only inside `debug_assert!`s that hold the index
//! to it at every `next_wake` and `poll`.
//!
//! Outgoing frames are encoded into buffers drawn from the sink's pool
//! ([`FrameSink::alloc`]) and recycled after the transport ships them, so
//! the steady-state hot path allocates nothing per frame.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use cam_overlay::dynamic::{
    converged_actors, host, CollectedEffects, DhtActor, DhtDriver, DhtMsg, DhtProtocol,
    EffectDriver,
};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::rng::SimRng;
use cam_sim::{ActorId, Duration, SimTime};
use cam_trace::{EventKind, GroupDeliveryCensus, NopTracer, Tracer};

use crate::codec::{decode_frame, encode_frame_into, Frame};
use crate::transport::{OutFrame, WireCounters};

/// Retransmission schedule for acknowledged (payload) frames.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitPolicy {
    /// Delay before the first retransmission.
    pub initial_rto: Duration,
    /// Backoff ceiling: the retransmission interval doubles per attempt
    /// but never exceeds this.
    pub max_rto: Duration,
    /// Total transmission attempts (first send included) before the frame
    /// is abandoned.
    pub max_attempts: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            initial_rto: Duration::from_millis(150),
            max_rto: Duration::from_millis(2400),
            max_attempts: 10,
        }
    }
}

/// A payload frame awaiting acknowledgement.
#[derive(Debug)]
struct PendingAck {
    to: usize,
    frame: Vec<u8>,
    attempts: u32,
    rto: Duration,
    next_at: SimTime,
}

/// Encoded frames the core wants on the wire, with a buffer pool so the
/// steady state allocates nothing per frame.
///
/// The core pushes in emission order and the host must ship in that same
/// order — deterministic transports assign delivery sequence numbers from
/// it, so emission order *is* delivery order between equal-latency
/// frames. After shipping, [`FrameSink::recycle_all`] returns every
/// buffer to the pool.
#[derive(Debug, Default)]
pub struct FrameSink {
    frames: Vec<OutFrame>,
    pool: Vec<Vec<u8>>,
}

/// Pool bound: beyond this, recycled buffers are dropped rather than
/// hoarded (a burst should not pin its high-water mark forever).
const SINK_POOL_CAP: usize = 256;

impl FrameSink {
    /// An empty sink.
    pub fn new() -> Self {
        FrameSink::default()
    }

    /// A cleared buffer from the pool (or a fresh one when the pool is
    /// dry).
    pub fn alloc(&mut self) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Queues an encoded frame for the host to ship.
    pub fn push(&mut self, from: usize, to: usize, buf: Vec<u8>) {
        self.frames.push(OutFrame { from, to, buf });
    }

    /// Whether any frames await shipping.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queued frames, in emission order.
    pub fn frames(&self) -> &[OutFrame] {
        &self.frames
    }

    /// Returns an unused buffer (e.g. from an encode failure) to the
    /// pool.
    pub fn give_back(&mut self, buf: Vec<u8>) {
        if self.pool.len() < SINK_POOL_CAP {
            self.pool.push(buf);
        }
    }

    /// Clears the queue after the host shipped every frame, recycling the
    /// buffers into the pool.
    pub fn recycle_all(&mut self) {
        for f in self.frames.drain(..) {
            if self.pool.len() < SINK_POOL_CAP {
                self.pool.push(f.buf);
            }
        }
    }
}

/// One live node: a [`DhtActor`] plus the runtime state that hosts it —
/// its timer heap, its retransmit buffer, and its private RNG stream.
#[derive(Debug)]
pub struct NodeRuntime<P: DhtProtocol> {
    actor: DhtActor<P>,
    alive: bool,
    /// Armed timers as `(fire_at, arm_order, tag)`; `arm_order` keeps
    /// equal-instant timers FIFO.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timer_seq: u64,
    /// Unacknowledged payload frames by sequence number — ordered, so due
    /// retransmissions leave in `seq` order (part of the parity contract).
    awaiting_ack: BTreeMap<u64, PendingAck>,
    next_seq: u64,
    rng: SimRng,
}

impl<P: DhtProtocol> NodeRuntime<P> {
    fn new(index: usize, actor: DhtActor<P>, seed: u64) -> Self {
        NodeRuntime {
            actor,
            alive: true,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            awaiting_ack: BTreeMap::new(),
            next_seq: 1,
            rng: SimRng::new(seed).split(0x0DE ^ index as u64),
        }
    }

    /// The hosted actor (routing tables, received payloads, join state).
    pub fn actor(&self) -> &DhtActor<P> {
        &self.actor
    }

    /// Exclusive access to the hosted actor (e.g. for a harness to toggle
    /// anti-entropy on a running node).
    pub fn actor_mut(&mut self) -> &mut DhtActor<P> {
        &mut self.actor
    }

    /// Whether the node is alive (not crash-killed by the harness).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Payload frames currently awaiting acknowledgement.
    pub fn unacked_frames(&self) -> usize {
        self.awaiting_ack.len()
    }

    /// Timers currently armed in this node's heap. A joined node at rest
    /// holds exactly its three maintenance timers; anything more is leaked
    /// runtime state (the chaos harness's cleanup oracle checks this).
    pub fn armed_timers(&self) -> usize {
        self.timers.len()
    }

    fn push_timer(&mut self, at: SimTime, tag: u64) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, tag)));
    }

    /// Earliest instant this node needs the reactor's attention.
    fn next_deadline(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        let timer = self.timers.peek().map(|Reverse((at, _, _))| *at);
        let rto = self.awaiting_ack.values().map(|p| p.next_at).min();
        match (timer, rto) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// "No deadline" in a [`DeadlineIndex`] slot.
const NO_DEADLINE: u64 = u64::MAX;

/// The cluster-level index of every node's next deadline
/// ([`NodeRuntime::next_deadline`]): a min tournament tree over node
/// index. It answers "earliest deadline" in O(1), takes a node's new
/// deadline in O(log n), and lists the nodes due at an instant in
/// ascending index order while descending only into subtrees that hold
/// one.
///
/// The index is **exact** — no lazy or stale entries. The virtual-time
/// host hops its clock to [`DeadlineIndex::min`] and the real-time host
/// sleeps until it, so a stale early entry is a wake-up with nothing to
/// do and a stale late one is a timer fired late.
#[derive(Debug)]
struct DeadlineIndex {
    /// Leaf count: a power of two, at least the number of nodes.
    leaves: usize,
    /// `2 * leaves` slots of deadline micros. Slot 1 is the root, slot
    /// `k` holds the min of slots `2k` and `2k + 1`, and node `i`'s
    /// deadline is slot `leaves + i`. Slot 0 is unused.
    tree: Vec<u64>,
}

impl DeadlineIndex {
    fn new(nodes: usize) -> Self {
        let leaves = nodes.max(1).next_power_of_two();
        DeadlineIndex {
            leaves,
            tree: vec![NO_DEADLINE; 2 * leaves],
        }
    }

    /// Slot `k`; a slot outside the tree holds no deadline.
    fn slot(&self, k: usize) -> u64 {
        self.tree.get(k).copied().unwrap_or(NO_DEADLINE)
    }

    /// The earliest deadline of any node.
    fn min(&self) -> Option<SimTime> {
        let at = self.slot(1);
        (at != NO_DEADLINE).then_some(SimTime(at))
    }

    /// Records node `i`'s next deadline, stopping at the first ancestor
    /// whose min does not move. Grows the tree when `i` is past its last
    /// leaf (a node added by `join`).
    fn set(&mut self, i: usize, at: Option<SimTime>) {
        if i >= self.leaves {
            let mut grown = DeadlineIndex::new(i + 1);
            for (node, &at) in self.tree.iter().skip(self.leaves).enumerate() {
                if at != NO_DEADLINE {
                    grown.set(node, Some(SimTime(at)));
                }
            }
            *self = grown;
        }
        let mut k = self.leaves + i;
        let mut min = at.map_or(NO_DEADLINE, SimTime::micros);
        loop {
            match self.tree.get_mut(k) {
                Some(slot) if *slot != min => *slot = min,
                _ => return,
            }
            if k == 1 {
                return;
            }
            min = min.min(self.slot(k ^ 1));
            k /= 2;
        }
    }

    /// Appends every node whose deadline is at or before `now` to `out`,
    /// in ascending node order.
    fn due_into(&self, now: SimTime, out: &mut Vec<usize>) {
        // Clamped so that an empty slot is not due even at the end of time.
        self.due_below(1, now.micros().min(NO_DEADLINE - 1), out);
    }

    fn due_below(&self, k: usize, now: u64, out: &mut Vec<usize>) {
        if self.slot(k) > now {
            return;
        }
        if k >= self.leaves {
            out.push(k - self.leaves);
        } else {
            self.due_below(2 * k, now, out);
            self.due_below(2 * k + 1, now, out);
        }
    }
}

/// The sans-I/O reactor core: N nodes' protocol state driven purely by
/// `handle_frame` / `poll` / `next_wake`, with every outgoing frame
/// pushed through a [`FrameSink`] and every counter delta written into a
/// caller-supplied [`WireCounters`]. See the module docs for the
/// contract.
pub struct ReactorCore<P: DhtProtocol> {
    space: IdSpace,
    protocol: P,
    nodes: Vec<NodeRuntime<P>>,
    /// Every node's next deadline, kept exact by
    /// [`ReactorCore::refresh_deadline`].
    deadlines: DeadlineIndex,
    /// Reusable list of the nodes one [`ReactorCore::poll`] pumps.
    due: Vec<usize>,
    policy: RetransmitPolicy,
    /// Wire endpoints available to the hosting transport; bounds `join`
    /// and silently drops sends to endpoints that were never attached
    /// (stale addresses), exactly like the sim's unknown actor.
    endpoints: usize,
    seed: u64,
    next_payload: u64,
    /// Reusable effect buffer for actor deliveries.
    effects: CollectedEffects,
    /// Event/telemetry sink; [`NopTracer`] (free) unless installed via
    /// [`ReactorCore::set_tracer`]. Events are stamped with the `now`
    /// the host passes in, so virtual-time runs trace deterministically.
    tracer: Box<dyn Tracer>,
}

impl<P: DhtProtocol> ReactorCore<P> {
    /// Builds a *converged* core of `members` on endpoints
    /// `0..members.len()`: every node starts with correct successors,
    /// predecessor, and fingers (what stabilization would eventually
    /// produce) and its maintenance timers armed — the same bootstrap the
    /// sim harness uses. Endpoints up to `endpoints` stay free for
    /// [`ReactorCore::join`]. Maintenance-arming may emit frames; they
    /// land in `sink` for the host to ship at its time zero.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `endpoints < members.len()`.
    #[expect(
        clippy::too_many_arguments,
        reason = "`Cluster::converged`'s inputs plus the caller-owned sink and counters"
    )]
    pub fn converged(
        space: IdSpace,
        members: &[Member],
        protocol: P,
        seed: u64,
        endpoints: usize,
        policy: RetransmitPolicy,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> Self {
        let n = members.len();
        assert!(
            endpoints >= n,
            "transport has {endpoints} endpoints for {n} members"
        );
        let nodes = converged_actors(space, members, &protocol)
            .enumerate()
            .map(|(i, actor)| NodeRuntime::new(i, actor, seed))
            .collect();
        let mut core = ReactorCore {
            space,
            protocol,
            nodes,
            deadlines: DeadlineIndex::new(n),
            due: Vec::new(),
            policy,
            endpoints,
            seed,
            next_payload: 1,
            effects: CollectedEffects::new(),
            tracer: Box::new(NopTracer),
        };
        for i in 0..n {
            core.with_actor(SimTime::ZERO, i, sink, counters, |_, drv| {
                for (delay, tag) in host::maintenance_schedule(i) {
                    drv.set_timer(delay, tag);
                }
            });
        }
        core
    }

    /// Runs `f` on node `i`'s actor through an [`EffectDriver`] stamped
    /// with `now`, then turns the effects it buffered into timer-heap
    /// entries and frames in `sink`. The one place an actor is called; an
    /// out-of-range `i` is counted in `internal_errors` and `f` never
    /// runs.
    fn with_actor(
        &mut self,
        now: SimTime,
        i: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
        f: impl FnOnce(&mut DhtActor<P>, &mut EffectDriver<'_>),
    ) {
        let mut fx = std::mem::take(&mut self.effects);
        match self.nodes.get_mut(i) {
            Some(nd) => {
                let mut drv = EffectDriver {
                    me: ActorId(i),
                    effects: &mut fx,
                    rng: &mut nd.rng,
                    tracer: self.tracer.as_mut(),
                    now_micros: now.micros(),
                };
                f(&mut nd.actor, &mut drv);
                self.flush_effects(now, i, &mut fx, sink, counters);
                fx.clear();
                self.refresh_deadline(i);
            }
            None => counters.internal_errors += 1,
        }
        self.effects = fx;
    }

    /// Re-reads node `i`'s next deadline into the cluster index. Must
    /// follow every change to a node's timers, retransmit buffer or
    /// liveness: the end of [`ReactorCore::with_actor`] (timers armed,
    /// payload frames sent) and of [`ReactorCore::pump_node`] (timers
    /// popped, RTOs backed off or abandoned), ack removal in
    /// [`ReactorCore::handle_frame`], [`ReactorCore::kill`],
    /// [`ReactorCore::restart`], [`ReactorCore::join`] (a new leaf) and
    /// the direct send in [`ReactorCore::send_join_request`]. (The last
    /// three re-read a deadline that is `None` before and after today — a
    /// restarted or fresh node has nothing armed and join requests are
    /// not acked — rather than lean on that.) Debug builds check the
    /// index against a scan of all nodes at every `next_wake` and `poll`,
    /// so a forgotten site fails the first test that steps a cluster
    /// past it.
    fn refresh_deadline(&mut self, i: usize) {
        if let Some(nd) = self.nodes.get(i) {
            self.deadlines.set(i, nd.next_deadline());
        }
    }

    /// The node table as [`host`] sees it: one slot per node in index
    /// order, `None` where the node is crash-killed.
    fn slots(&self) -> impl Iterator<Item = Option<&DhtActor<P>>> + Clone {
        self.nodes.iter().map(|nd| nd.alive.then_some(&nd.actor))
    }

    /// Sets the base maintenance period on every node (see
    /// [`DhtActor::set_stabilize_every`]).
    pub fn set_maintenance_period(&mut self, every: Duration) {
        for nd in &mut self.nodes {
            nd.actor.set_stabilize_every(every);
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the core has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The runtime hosting node `i` (in ring order for seeded nodes, then
    /// join order). With [`ReactorCore::node_mut`], the only raw
    /// `nodes[…]` index in the reactor: internal callers pass an index from
    /// a `0..self.nodes.len()` loop or an iterator position, and
    /// wire-derived indices are bounds-checked before reaching here
    /// ([`ReactorCore::handle_frame`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` — node indices are part of the caller's
    /// contract, exactly like slice indexing.
    #[expect(
        clippy::indexing_slicing,
        reason = "single audited index; callers pass loop-bounded or pre-checked indices, \
                  never raw wire input"
    )]
    pub fn node(&self, i: usize) -> &NodeRuntime<P> {
        &self.nodes[i]
    }

    /// Exclusive access to node `i`; same contract as
    /// [`ReactorCore::node`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "single audited index; same contract as `node`"
    )]
    pub fn node_mut(&mut self, i: usize) -> &mut NodeRuntime<P> {
        &mut self.nodes[i]
    }

    /// Installs an event tracer (e.g. a `RecordingTracer`). Protocol
    /// events from every node's actor and runtime-level events
    /// (retransmits, crashes) flow into it, stamped with the host clock.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &dyn Tracer {
        self.tracer.as_ref()
    }

    /// Exclusive access to the installed tracer.
    pub fn tracer_mut(&mut self) -> &mut dyn Tracer {
        self.tracer.as_mut()
    }

    /// Removes and returns the installed tracer, leaving a [`NopTracer`]
    /// behind.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NopTracer))
    }

    /// Live (not crash-killed) nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|nd| nd.alive).count()
    }

    /// Crash-kills node `i`: its timers and retransmissions stop and
    /// frames addressed to it are ignored, like a dead UDP host. Peers
    /// discover the crash through failure detection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn kill(&mut self, now: SimTime, i: usize) {
        let nd = self.node_mut(i);
        nd.alive = false;
        nd.timers.clear();
        nd.awaiting_ack.clear();
        self.refresh_deadline(i);
        self.tracer.record(now.micros(), i as u64, EventKind::Crash);
    }

    /// Restarts a crashed node `i` with *fresh* state — the deployment
    /// model of a host rebooting: same identity and endpoint, empty
    /// routing tables and payload store, rejoining through a live peer.
    /// The node's RNG stream and wire sequence numbers continue where they
    /// left off, so restarts stay deterministic and old in-flight frames
    /// cannot collide with new ones. Returns `false` if `i` is alive (a
    /// running node cannot be restarted).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn restart(
        &mut self,
        now: SimTime,
        i: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        if self.node(i).alive {
            return false;
        }
        let member = *self.node(i).actor.member();
        let actor = DhtActor::new(self.space, member, self.protocol.clone());
        let nd = self.node_mut(i);
        nd.actor = actor;
        nd.alive = true;
        nd.timers.clear();
        nd.awaiting_ack.clear();
        self.refresh_deadline(i);
        self.reshare_directory();
        self.tracer
            .record(now.micros(), i as u64, EventKind::Restart);
        self.resend_join_request(now, i, sink, counters);
        true
    }

    /// Rebuilds the id → endpoint directory from `self.nodes` and installs
    /// the single shared allocation on every node (one `O(n)` book, not a
    /// private copy per node).
    fn reshare_directory(&mut self) {
        let directory = host::shared_directory(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, nd)| (nd.actor.member().id, ActorId(i))),
        );
        for nd in &mut self.nodes {
            nd.actor.set_directory(Arc::clone(&directory));
        }
    }

    /// Re-sends a join request for every live node whose join has not
    /// completed (join traffic is unacknowledged, so a lost request would
    /// otherwise strand the joiner forever). Returns how many requests
    /// were re-sent.
    pub fn retry_stalled_joins(
        &mut self,
        now: SimTime,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> usize {
        let stalled = host::stalled_joins(self.slots());
        for &(joiner, bootstrap) in &stalled {
            self.send_join_request(now, joiner, bootstrap, sink, counters);
        }
        stalled.len()
    }

    /// Adds `member` as a fresh node on the next free endpoint and starts
    /// its join through the lowest-numbered live node. Returns the new
    /// node's index, or `None` if the id is taken, no live bootstrap
    /// exists, or the core is out of endpoints.
    pub fn join(
        &mut self,
        now: SimTime,
        member: Member,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> Option<usize> {
        if self
            .nodes
            .iter()
            .any(|nd| nd.actor.member().id == member.id)
        {
            return None;
        }
        let idx = self.nodes.len();
        if idx >= self.endpoints {
            return None;
        }
        let bootstrap = host::join_bootstrap(self.slots())?;
        let actor = DhtActor::new(self.space, member, self.protocol.clone());
        self.nodes.push(NodeRuntime::new(idx, actor, self.seed));
        self.refresh_deadline(idx);
        self.reshare_directory();
        self.send_join_request(now, idx, bootstrap, sink, counters);
        Some(idx)
    }

    /// Re-sends node `joiner`'s join request through the first live,
    /// joined node (used by the host's join-retry loop). Returns whether
    /// a bootstrap existed.
    pub fn resend_join_request(
        &mut self,
        now: SimTime,
        joiner: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        let joiner_id = self.node(joiner).actor.member().id;
        let Some(bootstrap) = host::rejoin_bootstrap(self.slots(), joiner_id) else {
            return false;
        };
        self.send_join_request(now, joiner, bootstrap, sink, counters);
        true
    }

    fn send_join_request(
        &mut self,
        now: SimTime,
        joiner: usize,
        bootstrap: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let msg = host::join_request(self.node(joiner).actor.member(), ActorId(joiner));
        self.send_msg(now, joiner, ActorId(bootstrap), msg, sink, counters);
        self.refresh_deadline(joiner);
    }

    /// Initiates a multicast at node `source` carrying `data`, returning
    /// the payload id. `region_split` chooses CAM-Chord region multicast
    /// over constrained flooding, as in the sim harness.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()`.
    pub fn start_multicast(
        &mut self,
        now: SimTime,
        source: usize,
        region_split: bool,
        data: bytes::Bytes,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> u64 {
        self.originate(now, source, None, region_split, data, sink, counters)
    }

    /// Feeds the origin message of a multicast (`group == None`) or a
    /// group publish to node `source` itself and returns the fresh payload
    /// id.
    #[expect(
        clippy::too_many_arguments,
        reason = "one multicast plus the caller-owned sink and counters"
    )]
    fn originate(
        &mut self,
        now: SimTime,
        source: usize,
        group: Option<u64>,
        region_split: bool,
        data: bytes::Bytes,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let member = self.node(source).actor.member();
        let msg = host::origin_message(self.space, member, payload, group, region_split, data);
        self.dispatch(now, source, ActorId(source), msg, sink, counters);
        payload
    }

    /// Subscribes node `subscriber` to pub/sub group `group`: its local
    /// delivery filter flips immediately and the membership routes over
    /// the wire to the group's rendezvous root — the same message flow as
    /// the sim harness, so censuses from both hosts are comparable.
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()`.
    pub fn subscribe(
        &mut self,
        now: SimTime,
        subscriber: usize,
        group: u64,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let msg = host::membership_message(self.node(subscriber).actor.member(), group, true);
        self.dispatch(now, subscriber, ActorId(subscriber), msg, sink, counters);
    }

    /// Removes node `subscriber`'s subscription to `group` (routed like
    /// [`ReactorCore::subscribe`]).
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()`.
    pub fn unsubscribe(
        &mut self,
        now: SimTime,
        subscriber: usize,
        group: u64,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let msg = host::membership_message(self.node(subscriber).actor.member(), group, false);
        self.dispatch(now, subscriber, ActorId(subscriber), msg, sink, counters);
    }

    /// Initiates a publish in `group` at node `source`, returning the
    /// payload id. Forwarded like a multicast (acked, retransmitted), but
    /// only subscribers deliver it.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one publish plus the caller-owned sink and counters"
    )]
    pub fn start_group_publish(
        &mut self,
        now: SimTime,
        source: usize,
        group: u64,
        region_split: bool,
        data: bytes::Bytes,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> u64 {
        self.originate(now, source, Some(group), region_split, data, sink, counters)
    }

    /// Folds the given `(group, payload)` publishes into a per-group
    /// [`GroupDeliveryCensus`] over each group's live subscribers — the
    /// same fold as the sim harness's `group_delivery_census`, so equal
    /// seeds produce bit-identical censuses across hosts.
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        host::group_delivery_census(self.slots(), publishes)
    }

    /// Fraction of live nodes that have received `payload`
    /// ([`host::delivery_census`], the fold the sim harness uses, so ratios
    /// from both hosts are directly comparable).
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        host::delivery_census(self.slots(), payload).ratio()
    }

    /// Mean overlay hop count of `payload` over live nodes that received
    /// it.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        host::hop_stats(self.slots(), payload).0
    }

    /// Maximum overlay hop count of `payload` over live nodes that
    /// received it.
    pub fn max_hops(&self, payload: u64) -> u32 {
        host::hop_stats(self.slots(), payload).1
    }

    /// The earliest instant [`ReactorCore::poll`] has work — the minimum
    /// over every live node's next timer and next retransmission. `None`
    /// when the core is fully quiescent.
    ///
    /// O(1): the root of the deadline index, whatever the cluster size.
    /// The answer is exact — hosts hop or sleep to it — and debug builds
    /// assert it equals the minimum found by scanning every node.
    pub fn next_wake(&self) -> Option<SimTime> {
        let next = self.deadlines.min();
        debug_assert_eq!(
            next,
            self.nodes
                .iter()
                .filter_map(NodeRuntime::next_deadline)
                .min(),
            "deadline index out of step with the nodes: a refresh site is missing"
        );
        next
    }

    /// One received datagram: decode, acknowledge if required, deliver to
    /// the addressed actor. Frames the actor produced land in `sink`;
    /// decode/encode outcomes are counted into `counters`.
    pub fn handle_frame(
        &mut self,
        now: SimTime,
        to: usize,
        bytes: &[u8],
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        if to >= self.nodes.len() {
            // The transport may own more endpoints than attached nodes
            // (spare sockets held for `join`); a datagram arriving on a
            // spare endpoint has no node to deliver to. Real sockets can
            // see this from any stray sender — count it, never index.
            counters.internal_errors += 1;
            return;
        }
        match decode_frame(bytes) {
            Err(_) => counters.frames_rejected += 1,
            Ok(Frame::Ack { seq, .. }) => {
                counters.frames_decoded += 1;
                self.node_mut(to).awaiting_ack.remove(&seq);
                self.refresh_deadline(to); // the acked frame may have held the node's earliest RTO
            }
            Ok(Frame::Data {
                from,
                seq,
                ack_required,
                msg,
            }) => {
                counters.frames_decoded += 1;
                let from = from as usize;
                if from >= self.nodes.len() {
                    // Envelope names an endpoint we never attached — a
                    // stale or corrupt-but-parseable frame. Ignore it.
                    counters.frames_rejected += 1;
                    return;
                }
                if ack_required {
                    let mut buf = sink.alloc();
                    match encode_frame_into(
                        &Frame::Ack {
                            from: to as u64,
                            seq,
                        },
                        &mut buf,
                    ) {
                        Ok(()) => {
                            counters.frames_encoded += 1;
                            sink.push(to, from, buf);
                        }
                        // An ack is a few bytes; failing to encode one is
                        // an internal bug — counted, not fatal.
                        Err(_) => {
                            counters.internal_errors += 1;
                            sink.give_back(buf);
                        }
                    }
                }
                if self.node(to).alive {
                    self.dispatch(now, to, ActorId(from), msg, sink, counters);
                }
            }
        }
    }

    /// Feeds `msg` to node `i`'s actor and flushes the effects.
    fn dispatch(
        &mut self,
        now: SimTime,
        i: usize,
        from: ActorId,
        msg: DhtMsg,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        self.with_actor(now, i, sink, counters, |actor, drv| {
            actor.deliver(drv, from, msg)
        });
    }

    /// Turns collected effects into frames in the sink and timer-heap
    /// entries.
    fn flush_effects(
        &mut self,
        now: SimTime,
        i: usize,
        fx: &mut CollectedEffects,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        for (delay, tag) in fx.timers.drain(..) {
            let at = now + delay;
            self.node_mut(i).push_timer(at, tag);
        }
        for (to, msg) in fx.sends.drain(..) {
            self.send_msg(now, i, to, msg, sink, counters);
        }
    }

    /// Encodes `msg` as a DATA frame from node `i` and pushes it into the
    /// sink; payload frames additionally enter the retransmit buffer.
    fn send_msg(
        &mut self,
        now: SimTime,
        i: usize,
        to: ActorId,
        msg: DhtMsg,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let to = to.index();
        if to >= self.endpoints {
            return; // stale address: lost, like the sim's unknown actor
        }
        let needs_ack = matches!(
            msg,
            DhtMsg::Multicast { .. } | DhtMsg::PayloadPush { .. } | DhtMsg::GroupPublish { .. }
        );
        let nd = self.node_mut(i);
        let seq = nd.next_seq;
        nd.next_seq += 1;
        let frame = Frame::Data {
            from: i as u64,
            seq,
            ack_required: needs_ack,
            msg,
        };
        let mut buf = sink.alloc();
        match encode_frame_into(&frame, &mut buf) {
            Err(_) => {
                // Too large for one frame (e.g. an oversized payload or
                // digest): counted, not sent. Anti-entropy will not help
                // here either — the payload itself must fit.
                counters.encode_oversize += 1;
                sink.give_back(buf);
            }
            Ok(()) => {
                counters.frames_encoded += 1;
                if needs_ack {
                    let pending = PendingAck {
                        to,
                        frame: buf.clone(),
                        attempts: 1,
                        rto: self.policy.initial_rto,
                        next_at: now + self.policy.initial_rto,
                    };
                    self.node_mut(i).awaiting_ack.insert(seq, pending);
                }
                sink.push(i, to, buf);
            }
        }
    }

    /// Fires every timer and retransmission due at or before `now`,
    /// across all nodes in index order — a fixed order, so what nodes
    /// emit at the same instant reaches the sink (and hence the wire)
    /// identically on every run. Returns whether anything fired.
    ///
    /// O(due · log n): the nodes with a deadline at or before `now` are
    /// read off the deadline index first, in ascending index order, and
    /// only those are pumped. Collecting before pumping yields the same
    /// frames in the same order as pumping every node in turn, because
    /// pumping node `i` touches only node `i`'s timers and retransmit
    /// buffer — everything else it causes leaves through `sink` — so it
    /// can neither make another node due nor un-due one already listed.
    /// Debug builds assert the list equals what a scan of all nodes finds.
    pub fn poll(
        &mut self,
        now: SimTime,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.deadlines.due_into(now, &mut due);
        debug_assert!(
            due.iter().copied().eq(self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| nd.next_deadline().is_some_and(|at| at <= now))
                .map(|(i, _)| i)),
            "deadline index out of step with the nodes: a refresh site is missing"
        );
        let mut did = false;
        for &i in &due {
            did |= self.pump_node(now, i, sink, counters);
        }
        self.due = due;
        did
    }

    /// Fires node `i`'s due timers in `(fire_at, arm_order)` order, then
    /// its due retransmissions in `seq` order. Returns whether anything
    /// fired. Only [`ReactorCore::poll`] calls this, with a node the
    /// deadline index lists — a live one, since dead nodes have no entry.
    fn pump_node(
        &mut self,
        now: SimTime,
        i: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        let mut did = false;
        while let Some(&Reverse((at, _, tag))) = self.node(i).timers.peek() {
            if at > now {
                break;
            }
            self.node_mut(i).timers.pop();
            did = true;
            self.with_actor(now, i, sink, counters, |actor, drv| {
                actor.deliver_timer(drv, tag)
            });
        }
        let policy = self.policy;
        let tracer = self.tracer.as_mut();
        let Some(nd) = self.nodes.get_mut(i) else {
            return did;
        };
        nd.awaiting_ack.retain(|&seq, p| {
            if p.next_at > now {
                return true;
            }
            did = true;
            if p.attempts >= policy.max_attempts {
                return false;
            }
            p.attempts += 1;
            p.rto = p.rto.saturating_mul(2).min(policy.max_rto);
            p.next_at = now + p.rto;
            let mut buf = sink.alloc();
            buf.extend_from_slice(&p.frame);
            counters.frames_retransmitted += 1;
            tracer.record(
                now.micros(),
                i as u64,
                EventKind::Retransmit {
                    to: p.to as u64,
                    wire_seq: seq,
                    attempt: p.attempts - 1,
                    rto_micros: p.rto.micros(),
                },
            );
            sink.push(i, p.to, buf);
            true
        });
        self.refresh_deadline(i);
        did
    }
}

impl<P: DhtProtocol> std::fmt::Debug for ReactorCore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorCore")
            .field("nodes", &self.nodes.len())
            .field("endpoints", &self.endpoints)
            .field("next_payload", &self.next_payload)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index against the obvious model — one optional deadline per
    /// node — under random sets, clears and growth.
    #[test]
    fn deadline_index_matches_a_vec_model() {
        let mut rng = SimRng::new(0x1DE).split(17);
        for start in [0usize, 1, 3, 8] {
            let mut index = DeadlineIndex::new(start);
            let mut model: Vec<Option<SimTime>> = vec![None; start];
            for _ in 0..4000 {
                // Mostly inside the table; now and then past its end.
                let i = rng.uniform_incl(0, model.len() as u64 + 2) as usize;
                let at = (rng.uniform_incl(0, 3) > 0).then(|| SimTime(rng.uniform_incl(0, 60)));
                if i >= model.len() {
                    model.resize(i + 1, None);
                }
                model[i] = at;
                index.set(i, at);

                assert_eq!(index.min(), model.iter().flatten().copied().min());
                let now = SimTime(rng.uniform_incl(0, 64));
                let mut due = Vec::new();
                index.due_into(now, &mut due);
                let want: Vec<usize> = (0..model.len())
                    .filter(|&i| model[i].is_some_and(|at| at <= now))
                    .collect();
                assert_eq!(due, want, "due nodes: ascending and complete");
            }
            // Nothing is due at the end of time unless it has a deadline.
            let mut due = Vec::new();
            index.due_into(SimTime(u64::MAX), &mut due);
            let armed: Vec<usize> = (0..model.len()).filter(|&i| model[i].is_some()).collect();
            assert_eq!(due, armed);
        }
    }
}
