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
//! That contract lets one core serve every host, as in the `atm0s-sdn`
//! exemplar's sans-I/O architecture: the virtual-time
//! [`Cluster`](crate::runtime::Cluster) over the in-memory wire, and the
//! same `Cluster` over real UDP, sleeping exactly until
//! `min(next_wake, socket readable, run deadline)`.
//!
//! Hosts call `next_wake` and `poll` once per delivered frame, so neither
//! walks all N nodes (the paper bounds a member's work per message by its
//! capacity, whatever the group size). Above each node's timer heap and
//! retransmit buffer sits one exact index of every node's next deadline,
//! a min tournament tree: `next_wake` reads its root (O(1)) and `poll`
//! pumps only the nodes it lists as due (O(due · log n)). A node changes
//! only through `NodeTable::update`, which re-reads its deadline right
//! after; a scan of all nodes survives only in the `debug_assert!`s of
//! `next_wake` and `poll`.
//!
//! Outgoing frames are encoded into buffers drawn from the sink's pool
//! ([`FrameSink::alloc`]) and recycled after the transport ships them, so
//! the steady-state hot path allocates nothing per frame.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use cam_overlay::dynamic::{converged_actors, host, DhtActor, DhtMsg, DhtProtocol};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::engine::{Actor, Context};
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

mod table {
    use super::{DeadlineIndex, DhtActor, DhtProtocol, NodeRuntime};

    /// The nodes and the [`DeadlineIndex`] of their deadlines, in a module
    /// of their own so that a node changes only through
    /// [`NodeTable::update`], which re-reads its deadline right after.
    /// Reads go through `Deref` to the node slice.
    #[derive(Debug)]
    pub(super) struct NodeTable<P: DhtProtocol> {
        nodes: Vec<NodeRuntime<P>>,
        deadlines: DeadlineIndex,
    }

    impl<P: DhtProtocol> NodeTable<P> {
        pub(super) fn new() -> Self {
            NodeTable {
                nodes: Vec::new(),
                deadlines: DeadlineIndex::new(0),
            }
        }

        /// Adds a node as the last index.
        pub(super) fn push(&mut self, nd: NodeRuntime<P>) {
            self.deadlines.set(self.nodes.len(), nd.next_deadline());
            self.nodes.push(nd);
        }

        /// Runs `f` on node `i`, then re-reads its deadline into the
        /// index. `None` (and `f` never runs) for an unknown `i`.
        pub(super) fn update<R>(
            &mut self,
            i: usize,
            f: impl FnOnce(&mut NodeRuntime<P>) -> R,
        ) -> Option<R> {
            let nd = self.nodes.get_mut(i)?;
            let out = f(nd);
            self.deadlines.set(i, nd.next_deadline());
            Some(out)
        }

        /// Node `i`'s actor, if `i` is a live node. The actor holds no
        /// deadline: its timers and sends leave as effects.
        pub(super) fn actor_mut(&mut self, i: usize) -> Option<&mut DhtActor<P>> {
            let nd = self.nodes.get_mut(i).filter(|nd| nd.alive)?;
            Some(&mut nd.actor)
        }

        /// The deadline index, to read.
        pub(super) fn deadlines(&self) -> &DeadlineIndex {
            &self.deadlines
        }
    }

    impl<P: DhtProtocol> std::ops::Deref for NodeTable<P> {
        type Target = [NodeRuntime<P>];

        fn deref(&self) -> &[NodeRuntime<P>] {
            &self.nodes
        }
    }
}

use table::NodeTable;

/// The sans-I/O reactor core: N nodes' protocol state driven purely by
/// `handle_frame` / `poll` / `next_wake`, with every outgoing frame
/// pushed through a [`FrameSink`] and every counter delta written into a
/// caller-supplied [`WireCounters`]. See the module docs for the
/// contract.
pub struct ReactorCore<P: DhtProtocol> {
    space: IdSpace,
    protocol: P,
    nodes: NodeTable<P>,
    /// Reusable list of the nodes one [`ReactorCore::poll`] pumps.
    due: Vec<usize>,
    policy: RetransmitPolicy,
    /// Wire endpoints available to the hosting transport; bounds `join`
    /// and silently drops sends to endpoints that were never attached
    /// (stale addresses), exactly like the sim's unknown actor.
    endpoints: usize,
    seed: u64,
    next_payload: u64,
    /// Reusable buffers an actor's [`Context`] writes its sends and timer
    /// requests into, in emission order.
    outbox: Vec<(ActorId, DhtMsg)>,
    timers: Vec<(Duration, u64)>,
    /// Event/telemetry sink; [`NopTracer`] (free) unless installed via
    /// [`ReactorCore::set_tracer`]. Events are stamped with the `now`
    /// the host passes in, so virtual-time runs trace deterministically.
    tracer: Box<dyn Tracer>,
}

impl<P: DhtProtocol> ReactorCore<P> {
    /// Builds a *converged* core of `members` on endpoints
    /// `0..members.len()`: correct successors, predecessor and fingers, and
    /// maintenance timers armed — the sim harness's bootstrap. Endpoints up
    /// to `endpoints` stay free for [`ReactorCore::join`]; frames the
    /// arming emits land in `sink`, for the host to ship at time zero.
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
        let mut nodes = NodeTable::new();
        for (i, actor) in converged_actors(space, members, &protocol).enumerate() {
            nodes.push(NodeRuntime::new(i, actor, seed));
        }
        let mut core = ReactorCore {
            space,
            protocol,
            nodes,
            due: Vec::new(),
            policy,
            endpoints,
            seed,
            next_payload: 1,
            outbox: Vec::new(),
            timers: Vec::new(),
            tracer: Box::new(NopTracer),
        };
        for i in 0..n {
            core.with_actor(SimTime::ZERO, i, sink, counters, |_, ctx| {
                for (delay, tag) in host::maintenance_schedule(i) {
                    ctx.set_timer(delay, tag);
                }
            });
        }
        core
    }

    /// Runs `f` on node `i`'s actor through a [`Context`] stamped with
    /// `now`, then turns its effects into timer-heap entries and
    /// frames in `sink`, all inside one `update`. The one place an actor is
    /// called; an unknown `i` counts in `internal_errors`.
    fn with_actor(
        &mut self,
        now: SimTime,
        i: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
        f: impl FnOnce(&mut DhtActor<P>, &mut Context<'_, DhtMsg>),
    ) {
        let ran = self.nodes.update(i, |nd| {
            let mut ctx = Context::new(
                now,
                ActorId(i),
                &mut self.outbox,
                &mut self.timers,
                &mut nd.rng,
                self.tracer.as_mut(),
            );
            f(&mut nd.actor, &mut ctx);
            for (delay, tag) in self.timers.drain(..) {
                nd.push_timer(now + delay, tag);
            }
            // Each send becomes a DATA frame in the sink; payload frames
            // also enter the retransmit buffer.
            for (to, msg) in self.outbox.drain(..) {
                let to = to.index();
                if to >= self.endpoints {
                    continue; // stale address: lost, like the sim's unknown actor
                }
                let needs_ack = matches!(
                    msg,
                    DhtMsg::Multicast { .. }
                        | DhtMsg::PayloadPush { .. }
                        | DhtMsg::GroupPublish { .. }
                );
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
                        // Too large for one frame (e.g. an oversized payload
                        // or digest): counted, not sent. Anti-entropy will
                        // not help here either — the payload itself must fit.
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
                            nd.awaiting_ack.insert(seq, pending);
                        }
                        sink.push(i, to, buf);
                    }
                }
            }
        });
        if ran.is_none() {
            counters.internal_errors += 1;
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
        for i in 0..self.nodes.len() {
            self.nodes
                .update(i, |nd| nd.actor.set_stabilize_every(every));
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

    /// The runtime hosting node `i` (ring order for seeded nodes, then join
    /// order): the reactor's one raw `nodes[…]` index. Internal callers pass
    /// loop-bounded indices; wire-derived ones are checked first
    /// ([`ReactorCore::handle_frame`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`, exactly like slice indexing.
    #[expect(
        clippy::indexing_slicing,
        reason = "single audited index; callers pass loop-bounded or pre-checked indices"
    )]
    pub fn node(&self, i: usize) -> &NodeRuntime<P> {
        &self.nodes[i]
    }

    /// Exclusive access to node `i`'s actor (e.g. to attach an adversary),
    /// or `None` if `i` is crash-killed or unknown.
    pub fn actor_mut(&mut self, i: usize) -> Option<&mut DhtActor<P>> {
        self.nodes.actor_mut(i)
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
    /// discover the crash through failure detection. Returns `false`, and
    /// does nothing, if `i` is already dead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn kill(&mut self, now: SimTime, i: usize) -> bool {
        if !self.node(i).alive {
            return false;
        }
        self.nodes.update(i, |nd| {
            nd.alive = false;
            nd.timers.clear();
            nd.awaiting_ack.clear();
        });
        self.tracer.record(now.micros(), i as u64, EventKind::Crash);
        true
    }

    /// Restarts a crashed node `i` with *fresh* state, like a host
    /// rebooting: same identity and endpoint, empty tables, rejoining
    /// through a live peer. Its RNG stream and wire sequence numbers
    /// continue, so old in-flight frames cannot collide with new ones.
    /// Returns `false` if `i` is alive.
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
        self.nodes.update(i, |nd| {
            nd.actor = actor;
            nd.alive = true;
            nd.timers.clear();
            nd.awaiting_ack.clear();
        });
        self.reshare_directory();
        self.tracer
            .record(now.micros(), i as u64, EventKind::Restart);
        self.resend_join_request(now, i, sink, counters);
        true
    }

    /// Rebuilds the id → endpoint directory and installs one shared
    /// allocation on every node (one `O(n)` book, not a copy per node).
    fn reshare_directory(&mut self) {
        let directory = host::shared_directory(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, nd)| (nd.actor.member().id, ActorId(i))),
        );
        for i in 0..self.nodes.len() {
            self.nodes
                .update(i, |nd| nd.actor.set_directory(Arc::clone(&directory)));
        }
    }

    /// Re-sends the join request of every live node not yet joined (join
    /// traffic is unacknowledged, so a lost request would strand it).
    /// Returns how many were re-sent.
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
        self.reshare_directory();
        self.send_join_request(now, idx, bootstrap, sink, counters);
        Some(idx)
    }

    /// Re-sends node `joiner`'s join request through the first live,
    /// joined node (the host's join-retry loop). Returns whether it was
    /// sent: not from a dead `joiner`, nor without a bootstrap.
    pub fn resend_join_request(
        &mut self,
        now: SimTime,
        joiner: usize,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        let joiner_id = self.node(joiner).actor.member().id;
        let bootstrap = host::rejoin_bootstrap(self.slots(), joiner_id);
        let Some(bootstrap) = bootstrap.filter(|_| self.node(joiner).alive) else {
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
        self.with_actor(now, joiner, sink, counters, |actor, ctx| {
            ctx.send(
                ActorId(bootstrap),
                host::join_request(actor.member(), ActorId(joiner)),
            );
        });
    }

    /// Initiates a multicast at node `source` carrying `data`, returning
    /// the payload id. `region_split` chooses CAM-Chord region multicast
    /// over constrained flooding, as in the sim harness.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()` or node `source` is dead.
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

    /// Feeds the origin message of a multicast (`group == None`) or group
    /// publish to node `source` itself; returns the fresh payload id.
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
        let (nd, space) = (self.node(source), self.space);
        assert!(nd.alive, "source must be alive");
        let msg =
            host::origin_message(space, nd.actor.member(), payload, group, region_split, data);
        self.dispatch(now, source, ActorId(source), msg, sink, counters);
        payload
    }

    /// Subscribes node `subscriber` to pub/sub group `group`: its delivery
    /// filter flips at once and the membership routes to the group's
    /// rendezvous root, the sim harness's message flow.
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()` or node `subscriber` is dead.
    pub fn subscribe(
        &mut self,
        now: SimTime,
        subscriber: usize,
        group: u64,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let nd = self.node(subscriber);
        assert!(nd.alive, "subscriber must be alive");
        let msg = host::membership_message(nd.actor.member(), group, true);
        self.dispatch(now, subscriber, ActorId(subscriber), msg, sink, counters);
    }

    /// Removes node `subscriber`'s subscription to `group` (routed like
    /// [`ReactorCore::subscribe`]).
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()` or node `subscriber` is dead.
    pub fn unsubscribe(
        &mut self,
        now: SimTime,
        subscriber: usize,
        group: u64,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) {
        let nd = self.node(subscriber);
        assert!(nd.alive, "subscriber must be alive");
        let msg = host::membership_message(nd.actor.member(), group, false);
        self.dispatch(now, subscriber, ActorId(subscriber), msg, sink, counters);
    }

    /// Initiates a publish in `group` at node `source`, returning the
    /// payload id. Forwarded like a multicast (acked, retransmitted), but
    /// only subscribers deliver it.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()` or node `source` is dead.
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

    /// Folds `(group, payload)` publishes into a per-group
    /// [`GroupDeliveryCensus`] over live subscribers, the sim harness's
    /// fold, so equal seeds give bit-identical censuses on both hosts.
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        host::group_delivery_census(self.slots(), publishes)
    }

    /// Fraction of live nodes that have received `payload`
    /// ([`host::delivery_census`], the sim harness's fold).
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        host::delivery_census(self.slots(), payload).ratio()
    }

    /// Mean overlay hop count of `payload` over its live receivers.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        host::hop_stats(self.slots(), payload).0
    }

    /// Maximum overlay hop count of `payload` over its live receivers.
    pub fn max_hops(&self, payload: u64) -> u32 {
        host::hop_stats(self.slots(), payload).1
    }

    /// The earliest instant [`ReactorCore::poll`] has work — the minimum
    /// over every live node's next timer and next retransmission, `None`
    /// when quiescent. O(1) and exact: hosts hop or sleep to it.
    pub fn next_wake(&self) -> Option<SimTime> {
        let next = self.nodes.deadlines().min();
        debug_assert_eq!(
            next,
            self.nodes
                .iter()
                .filter_map(NodeRuntime::next_deadline)
                .min(),
            "deadline index out of step with the nodes"
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
                self.nodes.update(to, |nd| nd.awaiting_ack.remove(&seq));
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
                if !self.node(to).alive {
                    return; // a crashed host neither acks nor dispatches
                }
                if ack_required {
                    push_ack(to, from, seq, sink, counters);
                }
                self.dispatch(now, to, ActorId(from), msg, sink, counters);
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
        self.with_actor(now, i, sink, counters, |actor, ctx| {
            actor.on_message(ctx, from, msg)
        });
    }

    /// Fires every timer and retransmission due at or before `now`, node
    /// by node in index order, so same-instant emissions reach the sink
    /// identically on every run. Returns whether anything fired.
    ///
    /// O(due · log n): the due nodes are read off the index first. That
    /// equals pumping every node in turn, because pumping node `i` touches
    /// only node `i`'s timers and retransmit buffer, so it can neither
    /// make another node due nor un-due one already listed.
    pub fn poll(
        &mut self,
        now: SimTime,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> bool {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.nodes.deadlines().due_into(now, &mut due);
        debug_assert!(
            due.iter().copied().eq(self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| nd.next_deadline().is_some_and(|at| at <= now))
                .map(|(i, _)| i)),
            "deadline index out of step with the nodes"
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
            self.nodes.update(i, |nd| nd.timers.pop());
            did = true;
            self.with_actor(now, i, sink, counters, |actor, ctx| {
                actor.on_timer(ctx, tag)
            });
        }
        self.nodes.update(i, |nd| {
            nd.awaiting_ack.retain(|&seq, p| {
                if p.next_at > now {
                    return true;
                }
                did = true;
                if p.attempts >= self.policy.max_attempts {
                    return false;
                }
                p.attempts += 1;
                p.rto = p.rto.saturating_mul(2).min(self.policy.max_rto);
                p.next_at = now + p.rto;
                let mut buf = sink.alloc();
                buf.extend_from_slice(&p.frame);
                counters.frames_retransmitted += 1;
                self.tracer.record(
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
        });
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

/// Queues node `to`'s ack of frame `seq` from `from`.
fn push_ack(
    to: usize,
    from: usize,
    seq: u64,
    sink: &mut FrameSink,
    counters: &mut WireCounters,
) {
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
        // An ack is a few bytes; failing to encode one is an internal
        // bug — counted, not fatal.
        Err(_) => {
            counters.internal_errors += 1;
            sink.give_back(buf);
        }
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

    /// Holds the index to a scan of every node: its earliest deadline,
    /// and the nodes due at `now` and at that deadline.
    fn assert_index_exact<P: DhtProtocol>(core: &ReactorCore<P>, now: SimTime) {
        let scan: Vec<_> = core.nodes.iter().map(NodeRuntime::next_deadline).collect();
        let wake = core.next_wake();
        assert_eq!(
            wake,
            scan.iter().flatten().min().copied(),
            "deadline index out of step"
        );
        for at in [now, wake.unwrap_or(now)] {
            let mut due = Vec::new();
            core.nodes.deadlines().due_into(at, &mut due);
            let want = (0..scan.len()).filter(|&i| scan[i].is_some_and(|d| d <= at));
            assert_eq!(
                due,
                want.collect::<Vec<_>>(),
                "deadline index out of step at {at:?}"
            );
        }
    }

    /// A converged four-node CAM-Chord core with one spare endpoint.
    fn four_nodes(
        policy: RetransmitPolicy,
        sink: &mut FrameSink,
        counters: &mut WireCounters,
    ) -> ReactorCore<cam_core::cam_chord::CamChordProtocol> {
        let members = [1_000, 140_000, 270_000, 400_000]
            .map(|id| Member::with_capacity(cam_ring::Id(id), 3));
        ReactorCore::converged(
            IdSpace::PAPER,
            &members,
            cam_core::cam_chord::CamChordProtocol,
            7,
            members.len() + 1,
            policy,
            sink,
            counters,
        )
    }

    /// Each kind of change to a node's deadline once, the index checked
    /// after each, in release builds too (where the `debug_assert!`s are
    /// compiled out): the counterpart of the actor's
    /// `neighbor_table_equals_the_rule_after_every_kind_of_write`.
    #[test]
    fn deadline_index_is_exact_after_every_kind_of_change() {
        use cam_ring::Id;

        let policy = RetransmitPolicy {
            max_attempts: 2,
            ..RetransmitPolicy::default()
        };
        let rto = policy.initial_rto;
        let (mut sink, mut counters) = (FrameSink::new(), WireCounters::default());
        let mut core = four_nodes(policy, &mut sink, &mut counters);
        assert_index_exact(&core, SimTime::ZERO);

        // A handler arming a timer: the first maintenance timer re-arms.
        let t = core.next_wake().unwrap();
        assert!(core.poll(t, &mut sink, &mut counters));
        assert_index_exact(&core, t);
        sink.recycle_all();

        // A payload send enters node 0's retransmit buffer.
        let data = bytes::Bytes::from_static(b"x");
        core.start_multicast(t, 0, true, data, &mut sink, &mut counters);
        let sent = core.node(0).unacked_frames();
        assert!(sent > 1);
        assert_index_exact(&core, t);

        // An ack: the first payload frame's receiver acks it first thing.
        let OutFrame { to, buf, .. } = sink.frames.swap_remove(0);
        sink.recycle_all();
        core.handle_frame(t, to, &buf, &mut sink, &mut counters);
        let ack = sink.frames.swap_remove(0);
        core.handle_frame(t, 0, &ack.buf, &mut sink, &mut counters);
        assert_eq!(core.node(0).unacked_frames(), sent - 1);
        assert_index_exact(&core, t);

        // An RTO backoff, then those frames abandoned at their last attempt.
        for (at, left) in [(t + rto, sent - 1), (t + rto.saturating_mul(3), 0)] {
            core.poll(at, &mut sink, &mut counters);
            assert_eq!(core.node(0).unacked_frames(), left);
            assert_index_exact(&core, at);
        }
        assert!(counters.frames_retransmitted > 0);
        let t = t + rto.saturating_mul(3);

        // A crash empties node 1's deadline; a second kill changes nothing.
        assert!(core.kill(t, 1));
        assert!(!core.kill(t, 1));
        assert_index_exact(&core, t);

        // A restart and a join past the table each send one join request.
        sink.recycle_all();
        assert!(core.restart(t, 1, &mut sink, &mut counters));
        assert_index_exact(&core, t);
        let newcomer = Member::with_capacity(Id(200_000), 3);
        assert_eq!(core.join(t, newcomer, &mut sink, &mut counters), Some(4));
        assert_index_exact(&core, t);
        let senders: Vec<usize> = sink.frames().iter().map(|f| f.from).collect();
        assert_eq!(senders, [1, 4]);
    }

    /// A crash-killed node is silent: a payload frame that asks for an
    /// ack gets neither an ack nor a forward from it, while a live
    /// receiver acks the same kind of frame first thing.
    #[test]
    fn a_killed_node_neither_acks_nor_dispatches() {
        let (mut sink, mut counters) = (FrameSink::new(), WireCounters::default());
        let mut core = four_nodes(RetransmitPolicy::default(), &mut sink, &mut counters);
        sink.recycle_all();
        let t = SimTime::ZERO;
        core.start_multicast(
            t,
            0,
            true,
            bytes::Bytes::from_static(b"x"),
            &mut sink,
            &mut counters,
        );
        let mut sent = std::mem::take(&mut sink.frames);
        assert!(sent.len() >= 2, "the source forwards to two children");
        let (dead, live) = (sent.swap_remove(0), sent.swap_remove(0));
        assert!(matches!(
            decode_frame(&dead.buf),
            Ok(Frame::Data {
                ack_required: true,
                ..
            })
        ));

        assert!(core.kill(t, dead.to));
        core.handle_frame(t, dead.to, &dead.buf, &mut sink, &mut counters);
        assert!(sink.is_empty(), "a killed node acked or forwarded");

        core.handle_frame(t, live.to, &live.buf, &mut sink, &mut counters);
        let ack = sink.frames().first().expect("a live receiver acks");
        assert_eq!((ack.from, ack.to), (live.to, 0));
        assert!(matches!(decode_frame(&ack.buf), Ok(Frame::Ack { .. })));
    }
}
