//! The discrete-event actor engine.
//!
//! Actors exchange messages through a virtual network: each send is stamped
//! with a latency drawn from the simulation's [`LatencyModel`] and delivered
//! when the virtual clock reaches that instant. Actors can also set timers
//! (e.g. Chord-style periodic stabilization). Killing an actor models a
//! crash: in-flight and future traffic to it is silently dropped, exactly
//! like UDP datagrams to a dead host.
//!
//! The engine is single-threaded and deterministic: events with equal
//! timestamps are delivered in the order they were scheduled.

use std::collections::BTreeSet;

use cam_trace::{EventKind, NopTracer, Tracer};

use crate::latency::LatencyModel;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};

/// Identifies an actor within a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl ActorId {
    /// Index into the simulation's actor table.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A simulated protocol participant.
///
/// Implementations hold per-node protocol state (routing tables, pending
/// requests) and react to messages and timers via the [`Context`], which is
/// their only channel back into the simulated world.
pub trait Actor {
    /// The protocol's wire-message type.
    type Msg;

    /// Called when a message addressed to this actor arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ActorId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires. `tag` is
    /// the value passed when the timer was armed. The default implementation
    /// ignores timers.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called once when the actor is killed (crash injection); allows tests
    /// to observe teardown. Must not send messages. Default: nothing.
    fn on_killed(&mut self) {}
}

/// Counters describing a finished (or in-progress) simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to `Context::send` / `Simulation::post`.
    pub sent: u64,
    /// Messages delivered to a live actor.
    pub delivered: u64,
    /// Messages dropped (dead destination or random loss).
    pub dropped: u64,
    /// Timer firings delivered.
    pub timers: u64,
    /// Total events processed.
    pub events: u64,
    /// Wire bytes attributed to sent messages (including ones later lost),
    /// per the cost function installed with [`Simulation::set_wire_cost`];
    /// 0 if none is installed. Comparable to a real transport's
    /// `bytes_sent` counter, so sim and deployment runs report traffic
    /// volume in the same unit.
    pub bytes_sent: u64,
    /// Wire bytes attributed to messages actually delivered to a live
    /// actor (the counterpart of a real transport's `bytes_received`).
    pub bytes_received: u64,
}

enum Payload<M> {
    Message { from: ActorId, msg: M },
    Timer { tag: u64 },
}

/// The world handle an actor receives while handling an event.
///
/// All interaction with the simulated network — sending, timers, the clock,
/// randomness — goes through the context.
pub struct Context<'a, M> {
    now: SimTime,
    me: ActorId,
    outbox: &'a mut Vec<(ActorId, ActorId, M, Option<Duration>)>,
    timers: &'a mut Vec<(ActorId, Duration, u64)>,
    rng: &'a mut SimRng,
    tracer: &'a mut dyn Tracer,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor handling this event.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to `to`; latency is drawn from the simulation's model.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.outbox.push((self.me, to, msg, None));
    }

    /// Sends `msg` to `to` with an explicit one-way delay, bypassing the
    /// latency model (useful for local/loopback work).
    pub fn send_after(&mut self, to: ActorId, msg: M, delay: Duration) {
        self.outbox.push((self.me, to, msg, Some(delay)));
    }

    /// Arms a one-shot timer that fires on this actor after `delay`,
    /// delivering `tag` to [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.timers.push((self.me, delay, tag));
    }

    /// Deterministic randomness for protocol decisions.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// True when the simulation's tracer is actually recording; lets
    /// handlers skip building events that would be thrown away.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records a trace event stamped with the *virtual* clock and this
    /// actor's id. A no-op under the default [`NopTracer`].
    #[inline]
    pub fn trace(&mut self, kind: EventKind) {
        self.tracer
            .record(self.now.micros(), self.me.0 as u64, kind);
    }
}

/// A deterministic discrete-event simulation of message-passing actors.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Simulation<A: Actor> {
    actors: Vec<Option<A>>,
    /// Pending events with their destinations, popped in `(at,
    /// scheduling order)` order (see [`crate::queue`]).
    queue: EventQueue<(ActorId, Payload<A::Msg>)>,
    /// How many of the queued events are messages rather than timers.
    pending_messages: usize,
    now: SimTime,
    latency: LatencyModel,
    rng: SimRng,
    stats: SimStats,
    /// Probability in `[0, 1]` that any message is lost in transit.
    loss_probability: f64,
    /// Directed actor pairs `(from, to)` whose traffic is silently dropped
    /// (asymmetric partition injection; see
    /// [`Simulation::set_link_blocked`]). Ordered so fault state never
    /// perturbs determinism.
    blocked: BTreeSet<(usize, usize)>,
    /// Optional per-message wire-size function feeding the byte counters
    /// in [`SimStats`] (e.g. `cam-net`'s encoded frame length).
    wire_cost: Option<fn(&A::Msg) -> usize>,
    /// Event/telemetry sink handed to every [`Context`]; [`NopTracer`]
    /// (free) unless a recording tracer is installed.
    tracer: Box<dyn Tracer>,
}

impl<A: Actor> Simulation<A> {
    /// Creates an empty simulation with the given seed and latency model.
    pub fn new(seed: u64, latency: LatencyModel) -> Self {
        Simulation {
            actors: Vec::new(),
            queue: EventQueue::new(),
            pending_messages: 0,
            now: SimTime::ZERO,
            latency,
            rng: SimRng::new(seed).split(0xEC0),
            stats: SimStats::default(),
            loss_probability: 0.0,
            blocked: BTreeSet::new(),
            wire_cost: None,
            tracer: Box::new(NopTracer),
        }
    }

    /// Installs a tracer; every subsequent event handler sees it through
    /// [`Context::trace`]. Replaces (and drops) the previous tracer.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The installed tracer (shared, e.g. for export at end of run).
    pub fn tracer(&self) -> &dyn Tracer {
        self.tracer.as_ref()
    }

    /// The installed tracer, mutably (e.g. for host-level events that
    /// happen outside any actor's handler, like crash injection).
    pub fn tracer_mut(&mut self) -> &mut dyn Tracer {
        self.tracer.as_mut()
    }

    /// Removes and returns the installed tracer, leaving [`NopTracer`].
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NopTracer))
    }

    /// Sets the independent per-message loss probability. `p = 1.0` is a
    /// fully lossy network: every actor-originated message is dropped
    /// (externally injected [`Simulation::post`] messages still arrive).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        self.loss_probability = p;
    }

    /// Blocks (or unblocks) the directed link `from → to`: actor-originated
    /// messages along it are dropped, counted in [`SimStats::dropped`].
    /// Blocking one direction only models an *asymmetric* partition —
    /// exactly the failure mode that traps naive failure detectors.
    /// Externally injected [`Simulation::post`] messages bypass blocks,
    /// like they bypass loss.
    pub fn set_link_blocked(&mut self, from: ActorId, to: ActorId, blocked: bool) {
        if blocked {
            self.blocked.insert((from.0, to.0));
        } else {
            self.blocked.remove(&(from.0, to.0));
        }
    }

    /// Removes every link block installed via
    /// [`Simulation::set_link_blocked`] (heals all partitions).
    pub fn clear_blocked_links(&mut self) {
        self.blocked.clear();
    }

    /// Number of in-flight *messages* (not timers) currently scheduled.
    /// Zero means the network is quiescent: nothing is on the wire, and
    /// only periodic timers remain — the instant at which the chaos
    /// harness's invariant oracles run.
    pub fn pending_message_count(&self) -> usize {
        self.pending_messages
    }

    /// Installs a per-message wire-size function: every sent message adds
    /// its cost to [`SimStats::bytes_sent`] and every delivered message to
    /// [`SimStats::bytes_received`], making sim traffic volume comparable
    /// to a real transport's byte counters. Typically set to `cam-net`'s
    /// encoded-frame length for `DhtMsg`-shaped protocols.
    pub fn set_wire_cost(&mut self, cost: fn(&A::Msg) -> usize) {
        self.wire_cost = Some(cost);
    }

    /// Registers an actor and returns its id.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        self.actors.push(Some(actor));
        ActorId(self.actors.len() - 1)
    }

    /// Number of registered actors (live or dead).
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Whether `id` refers to a live actor.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.actors.get(id.0).is_some_and(Option::is_some)
    }

    /// Crash-kills `id`: pending and future messages to it are dropped.
    /// Killing a dead or unknown actor is a no-op.
    pub fn kill(&mut self, id: ActorId) {
        if let Some(slot) = self.actors.get_mut(id.0) {
            if let Some(actor) = slot.as_mut() {
                actor.on_killed();
            }
            *slot = None;
        }
    }

    /// Shared access to a live actor's state (for assertions and metrics).
    pub fn actor(&self, id: ActorId) -> Option<&A> {
        self.actors.get(id.0).and_then(Option::as_ref)
    }

    /// Exclusive access to a live actor's state (e.g. to seed routing
    /// tables before the run starts).
    pub fn actor_mut(&mut self, id: ActorId) -> Option<&mut A> {
        self.actors.get_mut(id.0).and_then(Option::as_mut)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Injects a message from `from` to `to` at the current virtual time
    /// (plus model latency), as if `from` had sent it.
    pub fn post(&mut self, from: ActorId, to: ActorId, msg: A::Msg) {
        self.stats.sent += 1;
        if let Some(cost) = self.wire_cost {
            self.stats.bytes_sent += cost(&msg) as u64;
        }
        let delay = self.latency.sample(from.0, to.0, &mut self.rng);
        self.schedule(self.now + delay, to, Payload::Message { from, msg });
    }

    /// Arms a timer on `to` that fires after `delay` with `tag`.
    pub fn post_timer(&mut self, to: ActorId, delay: Duration, tag: u64) {
        self.schedule(self.now + delay, to, Payload::Timer { tag });
    }

    /// Queues an event; `at` is always `now + delay`, so the queue's
    /// monotone precondition holds (and is checked there).
    fn schedule(&mut self, at: SimTime, to: ActorId, payload: Payload<A::Msg>) {
        if matches!(payload, Payload::Message { .. }) {
            self.pending_messages += 1;
        }
        self.queue.push(at, (to, payload));
    }

    /// Processes events until the queue is empty or `deadline` is passed.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_inner(deadline, u64::MAX)
    }

    /// Processes every event until the simulation goes quiet.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway-protocol backstop.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_inner(SimTime(u64::MAX), 100_000_000)
    }

    fn run_inner(&mut self, deadline: SimTime, max_events: u64) -> u64 {
        let mut processed = 0u64;
        let mut outbox: Vec<(ActorId, ActorId, A::Msg, Option<Duration>)> = Vec::new();
        let mut timers: Vec<(ActorId, Duration, u64)> = Vec::new();

        while let Some((at, (to, payload))) = self.queue.pop_due(deadline) {
            self.now = at;
            processed += 1;
            self.stats.events += 1;
            assert!(
                processed <= max_events,
                "simulation exceeded {max_events} events — runaway protocol?"
            );
            let is_message = matches!(payload, Payload::Message { .. });
            if is_message {
                self.pending_messages -= 1;
            }

            let Some(actor) = self.actors.get_mut(to.0).and_then(Option::as_mut) else {
                // Dead destination: message lost, timer inert.
                if is_message {
                    self.stats.dropped += 1;
                }
                continue;
            };

            let mut ctx = Context {
                now: self.now,
                me: to,
                outbox: &mut outbox,
                timers: &mut timers,
                rng: &mut self.rng,
                tracer: self.tracer.as_mut(),
            };
            match payload {
                Payload::Message { from, msg } => {
                    self.stats.delivered += 1;
                    if let Some(cost) = self.wire_cost {
                        self.stats.bytes_received += cost(&msg) as u64;
                    }
                    actor.on_message(&mut ctx, from, msg);
                }
                Payload::Timer { tag } => {
                    self.stats.timers += 1;
                    actor.on_timer(&mut ctx, tag);
                }
            }

            // Flush actions produced by the handler.
            for (from, to, msg, explicit) in outbox.drain(..) {
                self.stats.sent += 1;
                if let Some(cost) = self.wire_cost {
                    self.stats.bytes_sent += cost(&msg) as u64;
                }
                if !self.blocked.is_empty() && self.blocked.contains(&(from.0, to.0)) {
                    self.stats.dropped += 1;
                    continue;
                }
                if self.loss_probability > 0.0 && self.rng.unit() < self.loss_probability {
                    self.stats.dropped += 1;
                    continue;
                }
                let delay = match explicit {
                    Some(d) => d,
                    None => self.latency.sample(from.0, to.0, &mut self.rng),
                };
                self.schedule(self.now + delay, to, Payload::Message { from, msg });
            }
            for (to, delay, tag) in timers.drain(..) {
                self.schedule(self.now + delay, to, Payload::Timer { tag });
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages and echoes decremented values back.
    struct PingPong {
        received: u64,
    }

    impl Actor for PingPong {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
            self.received += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn sim(seed: u64) -> Simulation<PingPong> {
        Simulation::new(seed, LatencyModel::Constant(Duration::from_millis(10)))
    }

    #[test]
    fn ping_pong_terminates() {
        let mut s = sim(1);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 9);
        s.run_to_completion();
        let total = s.actor(a).unwrap().received + s.actor(b).unwrap().received;
        assert_eq!(total, 10);
        assert_eq!(s.stats().delivered, 10);
        assert_eq!(s.now(), SimTime::ZERO + Duration::from_millis(100));
    }

    #[test]
    fn deadline_respected() {
        let mut s = sim(2);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 100);
        // Deliveries at 10ms, 20ms, ... — a 35ms deadline admits 3.
        let n = s.run_until(SimTime::ZERO + Duration::from_millis(35));
        assert_eq!(n, 3);
        assert!(s.now() <= SimTime::ZERO + Duration::from_millis(35));
        // The rest still runs afterwards.
        s.run_to_completion();
        assert_eq!(s.stats().delivered, 101);
    }

    #[test]
    fn killed_actor_drops_messages() {
        let mut s = sim(3);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 5);
        s.kill(b);
        s.run_to_completion();
        assert_eq!(s.stats().delivered, 0);
        assert_eq!(s.stats().dropped, 1);
        assert!(!s.is_alive(b));
        assert!(s.is_alive(a));
        assert!(s.actor(b).is_none());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerBox {
            fired: Vec<u64>,
        }
        impl Actor for TimerBox {
            type Msg = ();
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ActorId, _: ()) {}
            fn on_timer(&mut self, _: &mut Context<'_, ()>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut s: Simulation<TimerBox> =
            Simulation::new(4, LatencyModel::Constant(Duration::ZERO));
        let a = s.add_actor(TimerBox { fired: Vec::new() });
        s.post_timer(a, Duration::from_millis(30), 3);
        s.post_timer(a, Duration::from_millis(10), 1);
        s.post_timer(a, Duration::from_millis(20), 2);
        s.run_to_completion();
        assert_eq!(s.actor(a).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(s.stats().timers, 3);
    }

    #[test]
    fn equal_time_events_fifo() {
        struct Recorder {
            got: Vec<u32>,
        }
        impl Actor for Recorder {
            type Msg = u32;
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, m: u32) {
                self.got.push(m);
            }
        }
        let mut s: Simulation<Recorder> =
            Simulation::new(5, LatencyModel::Constant(Duration::from_millis(1)));
        let a = s.add_actor(Recorder { got: Vec::new() });
        let b = s.add_actor(Recorder { got: Vec::new() });
        for m in 0..10 {
            s.post(b, a, m);
        }
        s.run_to_completion();
        assert_eq!(s.actor(a).unwrap().got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let mut s = Simulation::new(
                seed,
                LatencyModel::Uniform {
                    min: Duration::from_millis(5),
                    max: Duration::from_millis(50),
                },
            );
            let a = s.add_actor(PingPong { received: 0 });
            let b = s.add_actor(PingPong { received: 0 });
            s.post(a, b, 50);
            s.run_to_completion();
            (s.now(), s.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different delays");
    }

    #[test]
    fn message_loss() {
        let mut s = sim(6);
        s.set_loss_probability(0.5);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        // post() bypasses loss (external injection); context sends do not.
        s.post(a, b, 1000);
        s.run_to_completion();
        let st = s.stats();
        assert!(st.dropped > 0, "some messages should drop");
        assert!(st.delivered < 1001, "chain should be cut short");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_probability() {
        sim(7).set_loss_probability(1.5);
    }

    #[test]
    fn total_loss_delivers_nothing() {
        // p = 1.0 is legal (total loss): the injected message arrives
        // (post() models an external event, not a lossy link), but every
        // actor-originated reply is dropped, so the ping-pong dies after
        // the first delivery.
        let mut s = sim(8);
        s.set_loss_probability(1.0);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 1000);
        s.run_to_completion();
        let st = s.stats();
        assert_eq!(st.delivered, 1, "only the injected message arrives");
        assert_eq!(st.dropped, 1, "the first reply is lost");
        assert_eq!(s.actor(a).unwrap().received, 0);
    }

    #[test]
    fn tracer_stamps_virtual_time_and_actor() {
        use cam_trace::RecordingTracer;

        struct Echo;
        impl Actor for Echo {
            type Msg = u32;
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
                ctx.trace(EventKind::MulticastReceive {
                    payload: u64::from(msg),
                    hops: 0,
                    group: None,
                });
                if msg > 0 {
                    ctx.send(from, msg - 1);
                }
            }
        }

        let mut s: Simulation<Echo> =
            Simulation::new(11, LatencyModel::Constant(Duration::from_millis(10)));
        assert!(!s.tracer().enabled(), "NopTracer by default");
        s.set_tracer(Box::new(RecordingTracer::with_capacity(16)));
        let a = s.add_actor(Echo);
        let b = s.add_actor(Echo);
        s.post(a, b, 2);
        s.run_to_completion();

        let boxed = s.take_tracer();
        let rec = boxed.as_recording().expect("recording tracer installed");
        assert_eq!(rec.count("multicast_receive"), 3);
        let stamps: Vec<(u64, u64)> = rec.events().map(|e| (e.at_micros, e.actor)).collect();
        // Deliveries land at 10ms/20ms/30ms virtual, alternating b, a, b.
        assert_eq!(
            stamps,
            vec![
                (10_000, b.0 as u64),
                (20_000, a.0 as u64),
                (30_000, b.0 as u64)
            ]
        );
        assert!(!s.tracer().enabled(), "take_tracer leaves NopTracer");
    }

    #[test]
    fn pending_message_count_is_posted_minus_popped() {
        /// Every timer sends one message to each peer and re-arms itself
        /// `rounds` times; every message is echoed once.
        struct Chatter {
            peers: Vec<ActorId>,
            rounds: u64,
        }
        impl Actor for Chatter {
            type Msg = bool;
            fn on_message(&mut self, ctx: &mut Context<'_, bool>, from: ActorId, echo: bool) {
                if !echo {
                    ctx.send(from, true);
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, bool>, tag: u64) {
                for &p in &self.peers {
                    ctx.send(p, false);
                }
                if tag < self.rounds {
                    ctx.set_timer(Duration::from_millis(3), tag + 1);
                }
            }
        }

        let mut s: Simulation<Chatter> = Simulation::new(
            12,
            LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(9),
            },
        );
        let ids: Vec<ActorId> = (0..4)
            .map(|_| {
                s.add_actor(Chatter {
                    peers: Vec::new(),
                    rounds: 20,
                })
            })
            .collect();
        for &id in &ids {
            s.actor_mut(id).unwrap().peers = ids.iter().copied().filter(|&p| p != id).collect();
            s.post_timer(id, Duration::ZERO, 0);
        }
        s.post(ids[0], ids[1], false);
        // Nothing is popped yet: one message, four timers.
        assert_eq!(s.pending_message_count(), 1);

        let popped = |st: SimStats| st.delivered + st.dropped;
        let mut peak = 0;
        for step in 1..=40u64 {
            if step == 10 {
                s.kill(ids[2]);
            }
            s.run_until(SimTime::ZERO + Duration::from_millis(2 * step));
            let st = s.stats();
            assert_eq!(s.pending_message_count() as u64, st.sent - popped(st));
            peak = peak.max(s.pending_message_count());
        }
        s.run_to_completion();
        let st = s.stats();
        assert!(peak > 10, "messages were in flight (peak {peak})");
        assert!(st.dropped > 0, "the killed actor's traffic was popped");
        assert!(st.timers > 20, "timers ran alongside the messages");
        assert_eq!(st.sent, popped(st));
        assert_eq!(s.pending_message_count(), 0);
    }

    #[test]
    fn wire_cost_feeds_byte_counters() {
        // Each message costs its value in bytes; a 3-2-1-0 ping-pong moves
        // 3+2+1+0 bytes, all of which are both sent and delivered.
        let mut s = sim(9);
        s.set_wire_cost(|m| *m as usize);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 3);
        s.run_to_completion();
        let st = s.stats();
        assert_eq!(st.bytes_sent, 6);
        assert_eq!(st.bytes_received, 6);

        // Under loss, bytes_sent counts the attempt, bytes_received the
        // arrivals, so sent ≥ received.
        let mut s = sim(10);
        s.set_wire_cost(|m| *m as usize);
        s.set_loss_probability(0.5);
        let a = s.add_actor(PingPong { received: 0 });
        let b = s.add_actor(PingPong { received: 0 });
        s.post(a, b, 100);
        s.run_to_completion();
        let st = s.stats();
        assert!(st.bytes_sent >= st.bytes_received);
    }
}
