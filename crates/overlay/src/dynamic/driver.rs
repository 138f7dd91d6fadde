//! What a [`DhtActor`](super::DhtActor) asks of its host: [`DhtDriver`],
//! its simulator implementation, and the buffering [`EffectDriver`] that
//! poll-style hosts (cam-net's reactor) use.

use cam_sim::engine::{ActorId, Context};
use cam_sim::rng::SimRng;
use cam_sim::time::Duration;
use cam_trace::{EventKind, Tracer};

use super::DhtMsg;

/// Host-environment services a [`DhtActor`](super::DhtActor) needs to run.
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
/// [`deliver`](super::DhtActor::deliver) or
/// [`deliver_timer`](super::DhtActor::deliver_timer) call produced,
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
