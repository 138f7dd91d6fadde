//! What the two simulator workloads share: stepping a `DynamicNetwork` in
//! virtual slices, a cheap completion predicate, draining the installed
//! `RecordingTracer`, and the null-actor engine calibration.

use std::time::Instant;

use cam_overlay::dynamic::{DhtProtocol, DynamicNetwork};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::engine::{Actor, ActorId, Context, Simulation};
use cam_sim::{Duration, LatencyModel, SimTime};
use cam_trace::RecordingTracer;

use crate::events::{fresh_tracer, EventTally, RING_CAPACITY};
use crate::harness::{Checks, Pass};
use crate::spans::{span, Log, Name};

/// Virtual step between completion checks: delivery times are resolved to
/// this granularity.
pub const SLICE: Duration = Duration(5_000);

/// What a pass over a simulated network carries for tracing; `off()` in
/// the untraced passes, where it costs one branch per hook.
pub struct Tracing {
    log: Option<Log>,
    pub tally: EventTally,
    /// Largest in-flight message count seen at a sampled slice boundary.
    pub pending_peak: usize,
    slices: u64,
}

impl Tracing {
    pub fn off() -> Self {
        Tracing {
            log: None,
            tally: EventTally::default(),
            pending_peak: 0,
            slices: 0,
        }
    }

    pub fn on(log: &Log) -> Self {
        Tracing {
            log: Some(log.clone()),
            ..Tracing::off()
        }
    }

    pub fn log(&self) -> Option<&Log> {
        self.log.as_ref()
    }
}

/// Builds a converged network; with tracing on, the build is a span and a
/// `RecordingTracer` is installed.
pub fn build_net<P: DhtProtocol>(
    members: &[Member],
    protocol: P,
    seed: u64,
    tracing: &Tracing,
) -> DynamicNetwork<P> {
    let mut net = span(tracing.log(), Name::SimConvergedBuild, || {
        DynamicNetwork::converged(
            IdSpace::PAPER,
            members,
            protocol,
            seed,
            LatencyModel::default_wan(),
        )
    });
    if tracing.log().is_some() {
        net.sim.set_tracer(fresh_tracer());
    }
    net
}

/// Advances the network to `*clock + by`. `Simulation::now` only moves with
/// events, so the caller owns the virtual clock.
pub fn advance<P: DhtProtocol>(
    net: &mut DynamicNetwork<P>,
    clock: &mut SimTime,
    by: Duration,
    tracing: &mut Tracing,
) {
    *clock += by;
    let deadline = *clock;
    span(tracing.log(), Name::SimRunUntil, || {
        net.sim.run_until(deadline)
    });
    if tracing.log().is_some() {
        let t = tracing;
        t.slices += 1;
        let held = net
            .sim
            .tracer()
            .as_recording()
            .map_or(0, RecordingTracer::len);
        if held >= RING_CAPACITY / 2 {
            drain(net, t);
        }
        // O(event slots) per call, so sampled.
        if t.slices.is_multiple_of(4) {
            t.pending_peak = t.pending_peak.max(net.sim.pending_message_count());
        }
    }
}

/// Counts what the installed tracer holds and installs an empty one (a
/// no-op when tracing is off).
pub fn drain<P: DhtProtocol>(net: &mut DynamicNetwork<P>, tracing: &mut Tracing) {
    if tracing.log().is_none() {
        return;
    }
    let full = net.sim.take_tracer();
    tracing.tally.absorb(full.as_ref());
    net.sim.set_tracer(fresh_tracer());
}

/// Tracks one payload until every live member holds it.
///
/// `delivery_ratio` walks every actor on every call; polled each slice for
/// each in-flight payload that alone cost a third of the pass. Receipt is
/// monotone, so a cursor that only ever moves past actors that hold the
/// payload (or are dead) does the whole job in one walk per payload.
pub struct Completion {
    pub payload: u64,
    pub sent_virt: SimTime,
    pub sent_wall: Instant,
    cursor: usize,
    pub hops_sum: u64,
    pub receivers: u64,
}

impl Completion {
    pub fn new(payload: u64, sent_virt: SimTime) -> Self {
        Completion {
            payload,
            sent_virt,
            sent_wall: Instant::now(),
            cursor: 0,
            hops_sum: 0,
            receivers: 0,
        }
    }

    /// Moves the cursor as far as it goes; true once it passed every actor.
    pub fn advance<P: DhtProtocol>(&mut self, net: &DynamicNetwork<P>) -> bool {
        let actors = net.actors();
        while let Some((_, id)) = actors.get(self.cursor) {
            match net.sim.actor(*id) {
                None => {}
                Some(actor) => match actor.payload_hops(self.payload) {
                    Some(h) => {
                        self.hops_sum += u64::from(h);
                        self.receivers += 1;
                    }
                    None => return false,
                },
            }
            self.cursor += 1;
        }
        true
    }
}

/// Forwards every message to a fixed next actor until its hop budget runs
/// out: the event engine's cost with no protocol logic on top.
struct NullActor {
    next: ActorId,
}

impl Actor for NullActor {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, hops: u32) {
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        }
    }
}

/// Pushes about `events` events through `n` forwarding-only actors under
/// the workloads' latency model and returns nanoseconds per event.
pub fn engine_ns_per_event(n: usize, events: u64, seed: u64, log: &Log) -> f64 {
    let tokens = 4096.min(n) as u64;
    let hops = (events / tokens).clamp(1, u64::from(u32::MAX)) as u32;
    let mut sim: Simulation<NullActor> = Simulation::new(seed, LatencyModel::default_wan());
    // A stride co-prime with n spreads successive events over the shards.
    let stride = 7919 % n.max(2);
    for i in 0..n {
        sim.add_actor(NullActor {
            next: ActorId((i + stride.max(1)) % n),
        });
    }
    for t in 0..tokens as usize {
        let start = ActorId((t * 997) % n);
        sim.post(start, start, hops);
    }
    let t0 = Instant::now();
    let processed = span(Some(log), Name::SimNullActorRun, || sim.run_to_completion());
    t0.elapsed().as_nanos() as f64 / processed.max(1) as f64
}

/// Events pushed through the null-actor engine calibration at most.
const CALIBRATION_EVENTS: u64 = 3_000_000;

/// The per-layer metrics both simulator workloads derive from a traced
/// pass: set-up spans, the engine calibration, and the actor-level ratios
/// counted from the `RecordingTracer`.
pub fn layer_metrics(
    traced: &mut Pass,
    reference: &Pass,
    tracing: &Tracing,
    log: &Log,
    n: usize,
    seed: u64,
    checks: &mut Checks,
) {
    let ops = traced.ops().max(1) as f64;
    let events = traced.msgs().max(1) as f64;
    let tally = tracing.tally;
    let per_call_ms = |name: Name| log.borrow().aggregate(name).mean_ns() / 1e6;
    let engine = engine_ns_per_event(n, traced.msgs().min(CALIBRATION_EVENTS), seed, log);
    let l = &mut traced.layer;
    l.insert(
        "workload.scenario_members_ms",
        per_call_ms(Name::WorkloadScenarioMembers),
    );
    l.insert(
        "sim.converged_build_ms",
        per_call_ms(Name::SimConvergedBuild),
    );
    l.insert("sim.events_total", events);
    l.insert("sim.pending_peak", tracing.pending_peak as f64);
    l.insert("sim.engine_ns_per_event", engine);
    l.insert(
        "actor.ns_per_event",
        reference.wall_ns() as f64 / reference.msgs().max(1) as f64 - engine,
    );
    l.insert("actor.forward_events_per_op", tally.forward as f64 / ops);
    l.insert("actor.useful_delivery_ratio", tally.useful_delivery_ratio());
    l.insert(
        "actor.maintenance_event_share",
        1.0 - (tally.receive + tally.duplicate) as f64 / events,
    );
    l.insert(
        "actor.neighbor_miss_per_op",
        tally.neighbor_miss as f64 / ops,
    );
    l.insert("actor.stabilize_rounds", tally.stabilize as f64);
    l.insert("trace.events_recorded", tally.recorded as f64);
    l.insert("trace.events_dropped", tally.dropped as f64);
    checks.require(tally.dropped == 0, || {
        format!("the RecordingTracer ring dropped {} events", tally.dropped)
    });
}
