//! The wire loop: an I/O shell around the sans-I/O [`ReactorCore`].
//!
//! [`Cluster`] owns one [`ReactorCore`] (all protocol state: actors,
//! timers, retransmit buffers) and one [`Transport`] (all I/O: sockets or
//! the deterministic in-memory wire) and moves frames between them. The
//! *same actor code* runs here, in the simulator, and under the chaos
//! harness — the paper's protocol logic is written once, and the reactor
//! split means the *runtime* logic (acks, RTOs, timers) is now written
//! once too.
//!
//! On top of the transport's best-effort datagram service the reactor
//! adds **acknowledged delivery for payload frames**: `Multicast`,
//! `PayloadPush`, and `GroupPublish` frames (the ones whose loss costs
//! application data; see the paper's resilience experiments) are sent
//! `ack_required`, kept in a per-node retransmit buffer, and re-sent with
//! exponential backoff — `rto ← min(2·rto, max_rto)` — until acked or
//! `max_attempts` is exhausted. Duplicates created by a lost ack are
//! harmless: the actor's payload-id duplicate suppression makes
//! redelivery idempotent. Control traffic (lookups, stabilization,
//! pings) is *not* acknowledged — the maintenance protocol already
//! tolerates loss by design, exactly as in the sim.
//!
//! Time: with a virtual-time transport ([`Transport::is_virtual`]) the
//! clock hops from event to event like the simulator, so runs are
//! deterministic under a fixed seed. With a real transport the loop is
//! **deadline-driven**: it drains ready frames in batches, fires due
//! timers, and only when nothing was ready parks until
//! `min(next timer, next RTO, run deadline)` or transport readiness
//! ([`Transport::wait`]) — never a fixed cadence ([`LoopStats`]).

use cam_overlay::dynamic::{DhtActor, DhtProtocol};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::{Duration, SimTime};
use cam_trace::{GroupDeliveryCensus, Tracer};

use crate::reactor::{FrameSink, ReactorCore};
use crate::transport::{Transport, WireCounters};

pub use crate::reactor::{NodeRuntime, RetransmitPolicy};

/// Frames pulled off the transport per [`Transport::poll_batch`] call
/// before timers get a chance to fire — bounds incoming-burst latency on
/// timer service without giving up batching.
const RECV_BATCH: usize = 64;

/// While sends sit in a transport's backpressure queue, the loop parks at
/// most this long so writability is re-probed promptly (std sockets have
/// no writable-readiness signal).
const BACKPRESSURE_RETRY: Duration = Duration(500);

/// Scheduler accounting for the real-time wire loop: over an idle
/// stretch `wakeups` is one per timer, not thousands per second. Read by
/// `tests/deadline.rs` and the repo benchmark's `runtime.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Loop iterations in real-time mode (each one drains + polls).
    pub wakeups: u64,
    /// Times the loop parked because nothing was ready.
    pub sleeps: u64,
    /// Total park time requested, in microseconds.
    pub slept_micros: u64,
    /// Parks ended early by transport readiness (frame arrived).
    pub io_wakes: u64,
}

/// An N-node overlay cluster over one [`Transport`] — the deployment
/// counterpart of the sim harness's `DynamicNetwork`. All protocol state
/// lives in the embedded [`ReactorCore`]; this type only moves frames,
/// tracks time, and schedules sleeps.
pub struct Cluster<P: DhtProtocol, T: Transport> {
    core: ReactorCore<P>,
    transport: T,
    now: SimTime,
    /// Wall-clock epoch; `Some` iff the transport runs in real time.
    epoch: Option<std::time::Instant>,
    sink: FrameSink,
    rx_batch: Vec<(usize, Vec<u8>)>,
    stats: LoopStats,
}

impl<P: DhtProtocol, T: Transport> Cluster<P, T> {
    /// Builds a *converged* cluster of `members` on endpoints
    /// `0..members.len()` of `transport`: every node starts with correct
    /// successors, predecessor, and fingers (what stabilization would
    /// eventually produce) and its maintenance timers armed — the same
    /// bootstrap the sim harness uses. Additional transport endpoints
    /// stay free for [`Cluster::join`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the transport has too few
    /// endpoints.
    pub fn converged(
        space: IdSpace,
        members: &[Member],
        protocol: P,
        seed: u64,
        mut transport: T,
        policy: RetransmitPolicy,
    ) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock epoch taken only for real (non-virtual) transports; seeded \
                      virtual-time runs keep it `None` and stay replayable"
        )]
        let epoch = (!transport.is_virtual()).then(std::time::Instant::now);
        let mut sink = FrameSink::new();
        let core = ReactorCore::converged(
            space,
            members,
            protocol,
            seed,
            transport.endpoints(),
            policy,
            &mut sink,
            transport.counters_mut(),
        );
        let mut cluster = Cluster {
            core,
            transport,
            now: SimTime::ZERO,
            epoch,
            sink,
            rx_batch: Vec::with_capacity(RECV_BATCH),
            stats: LoopStats::default(),
        };
        cluster.flush_sink();
        cluster
    }

    /// Runs `f` on the core at the current instant, then ships whatever
    /// it queued — the shape of every pass-through below.
    fn with_core<R>(
        &mut self,
        f: impl FnOnce(&mut ReactorCore<P>, SimTime, &mut FrameSink, &mut WireCounters) -> R,
    ) -> R {
        let result = f(
            &mut self.core,
            self.now,
            &mut self.sink,
            self.transport.counters_mut(),
        );
        self.flush_sink();
        result
    }

    /// Ships every queued frame from the sink in emission order and
    /// recycles the buffers.
    fn flush_sink(&mut self) {
        if self.sink.is_empty() {
            return;
        }
        self.transport.send_batch(self.now, self.sink.frames());
        self.sink.recycle_all();
    }

    /// [`ReactorCore::set_maintenance_period`]; real clusters lower it to
    /// converge in wall-clock seconds, not minutes.
    pub fn set_maintenance_period(&mut self, every: Duration) {
        self.core.set_maintenance_period(every);
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.core.space()
    }

    /// Current cluster time (virtual, or elapsed wall clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The runtime hosting node `i`; panics like [`ReactorCore::node`].
    pub fn node(&self, i: usize) -> &NodeRuntime<P> {
        self.core.node(i)
    }

    /// Exclusive access to node `i`'s actor (e.g. to toggle anti-entropy),
    /// or `None` if `i` is crash-killed or unknown.
    pub fn actor_mut(&mut self, i: usize) -> Option<&mut DhtActor<P>> {
        self.core.actor_mut(i)
    }

    /// The embedded protocol core.
    pub fn core(&self) -> &ReactorCore<P> {
        &self.core
    }

    /// The underlying transport (for counters and addresses).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Exclusive access to the transport — fault injection (partitions,
    /// loss bursts, duplication) happens here.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Snapshot of the transport's wire counters.
    pub fn counters(&self) -> WireCounters {
        self.transport.counters()
    }

    /// Snapshot of the wire loop's scheduler accounting (real-time mode
    /// only; stays zero under virtual time).
    pub fn loop_stats(&self) -> LoopStats {
        self.stats
    }

    /// Resets the scheduler accounting (e.g. between bench phases).
    pub fn reset_loop_stats(&mut self) {
        self.stats = LoopStats::default();
    }

    /// [`ReactorCore::set_tracer`]: events are stamped with the wire clock.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.core.set_tracer(tracer);
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &dyn Tracer {
        self.core.tracer()
    }

    /// Exclusive access to the installed tracer.
    pub fn tracer_mut(&mut self) -> &mut dyn Tracer {
        self.core.tracer_mut()
    }

    /// [`ReactorCore::take_tracer`], once at the end of a run to export.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        self.core.take_tracer()
    }

    /// Copies the wire counters and cluster gauges into the tracer's
    /// telemetry registry as absolute snapshots: call once, at the end of
    /// a run, before exporting.
    pub fn export_telemetry(&mut self) {
        let c = self.transport.counters();
        let nodes = self.core.len() as i64;
        let live = self.core.live_nodes() as i64;
        let stats = self.stats;
        let t = self.core.tracer_mut();
        t.counter_add("wire.bytes_sent", c.bytes_sent);
        t.counter_add("wire.bytes_received", c.bytes_received);
        t.counter_add("wire.frames_encoded", c.frames_encoded);
        t.counter_add("wire.frames_decoded", c.frames_decoded);
        t.counter_add("wire.frames_rejected", c.frames_rejected);
        t.counter_add("wire.encode_oversize", c.encode_oversize);
        t.counter_add("wire.frames_dropped", c.frames_dropped);
        t.counter_add("wire.send_backpressure", c.send_backpressure);
        t.counter_add("wire.frames_retransmitted", c.frames_retransmitted);
        t.counter_add("wire.internal_errors", c.internal_errors);
        t.gauge_set("cluster.nodes", nodes);
        t.gauge_set("cluster.live_nodes", live);
        t.gauge_set("loop.wakeups", stats.wakeups as i64);
        t.gauge_set("loop.sleeps", stats.sleeps as i64);
        t.gauge_set("loop.io_wakes", stats.io_wakes as i64);
    }

    /// [`ReactorCore::kill`] at the cluster clock: same result and panics.
    pub fn kill(&mut self, i: usize) -> bool {
        self.core.kill(self.now, i)
    }

    /// [`ReactorCore::restart`] at the cluster clock: same result and
    /// panics.
    pub fn restart(&mut self, i: usize) -> bool {
        self.with_core(|core, now, sink, counters| core.restart(now, i, sink, counters))
    }

    /// [`ReactorCore::retry_stalled_joins`] at the cluster clock. Called
    /// periodically, it makes joins self-healing, the same way
    /// [`Cluster::join_and_wait`] retries inline.
    pub fn retry_stalled_joins(&mut self) -> usize {
        self.with_core(|core, now, sink, counters| {
            core.retry_stalled_joins(now, sink, counters)
        })
    }

    /// [`ReactorCore::join`] at the cluster clock: the address book is
    /// updated out of band, as in the sim harness, but ring membership is
    /// negotiated by the join protocol itself.
    pub fn join(&mut self, member: Member) -> Option<usize> {
        self.with_core(|core, now, sink, counters| core.join(now, member, sink, counters))
    }

    /// Joins `member` and runs until its join completes, re-sending the
    /// (unacknowledged) join request every `retry_every`. Returns whether
    /// it completed within `timeout`, measured on the cluster clock: under
    /// real time the loop may wake late, and summing requested slices
    /// would extend the timeout by that drift.
    pub fn join_and_wait(
        &mut self,
        member: Member,
        retry_every: Duration,
        timeout: Duration,
    ) -> bool {
        let Some(idx) = self.join(member) else {
            return false;
        };
        let start = self.now;
        while self.now.since(start) < timeout {
            let remaining = timeout - self.now.since(start);
            self.run_for(retry_every.min(remaining));
            if self.node(idx).actor().is_joined() {
                return true;
            }
            self.with_core(|core, now, sink, counters| {
                core.resend_join_request(now, idx, sink, counters)
            });
        }
        self.node(idx).actor().is_joined()
    }

    /// [`ReactorCore::start_multicast`] at the cluster clock: same result
    /// and panics.
    pub fn start_multicast(
        &mut self,
        source: usize,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        self.with_core(|core, now, sink, counters| {
            core.start_multicast(now, source, region_split, data, sink, counters)
        })
    }

    /// [`ReactorCore::start_group_publish`] at the cluster clock: same
    /// result and panics.
    pub fn start_group_publish(
        &mut self,
        source: usize,
        group: u64,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        self.with_core(|core, now, sink, counters| {
            core.start_group_publish(now, source, group, region_split, data, sink, counters)
        })
    }

    /// See [`ReactorCore::group_delivery_census`].
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        self.core.group_delivery_census(publishes)
    }

    /// See [`ReactorCore::delivery_ratio`].
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        self.core.delivery_ratio(payload)
    }

    /// Mean overlay hop count of `payload` over nodes that received it.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        self.core.mean_hops(payload)
    }

    /// Maximum overlay hop count of `payload` over nodes that received it.
    pub fn max_hops(&self, payload: u64) -> u32 {
        self.core.max_hops(payload)
    }

    /// Runs the cluster for `span` (virtual or wall-clock, per the
    /// transport).
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.horizon(span);
        while self.step(deadline) {}
    }

    /// Runs until `done(self)` holds or `timeout` elapses; returns the
    /// final verdict of `done`. The predicate is evaluated between event
    /// batches, so it sees a consistent cluster.
    pub fn run_until<F: FnMut(&Self) -> bool>(
        &mut self,
        timeout: Duration,
        mut done: F,
    ) -> bool {
        let deadline = self.horizon(timeout);
        loop {
            if done(self) {
                return true;
            }
            if !self.step(deadline) {
                return done(self);
            }
        }
    }

    /// Hands one received frame to the core and recycles its buffer. What
    /// the core queued stays in the sink until the caller flushes it:
    /// after every frame in virtual time, once per drained batch in real
    /// time.
    fn deliver_frame(&mut self, to: usize, bytes: Vec<u8>) {
        self.core.handle_frame(
            self.now,
            to,
            &bytes,
            &mut self.sink,
            self.transport.counters_mut(),
        );
        self.transport.recycle(bytes);
    }

    fn horizon(&mut self, span: Duration) -> SimTime {
        if let Some(epoch) = self.epoch {
            SimTime(epoch.elapsed().as_micros() as u64) + span
        } else {
            self.now + span
        }
    }

    /// Advances the cluster by one event batch. Returns `false` once
    /// `deadline` is reached (virtual: no event remains at or before it;
    /// real: the wall clock passed it).
    fn step(&mut self, deadline: SimTime) -> bool {
        match self.epoch {
            Some(epoch) => self.step_real(epoch, deadline),
            None => self.step_virtual(deadline),
        }
    }

    /// Virtual time: hop the clock to the next event instant (frame
    /// delivery, timer, or RTO) and process everything due there: frames
    /// first, in delivery-sequence order, then timers and retransmissions.
    /// The reactor pin (`tests/pins/reactor.txt`) holds this event order.
    ///
    /// Each frame's response ships before the next frame is polled: a
    /// response scheduled with zero latency must be pollable at this same
    /// instant, inside the drain loop, and the in-memory wire draws
    /// latency and assigns delivery sequence at send time — so batching
    /// the flush here would reorder events and move that pin.
    fn step_virtual(&mut self, deadline: SimTime) -> bool {
        let mut next = self.transport.next_ready();
        next = match (next, self.core.next_wake()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match next {
            Some(t) if t <= deadline => {
                self.now = self.now.max(t);
                while let Some((to, bytes)) = self.transport.poll(self.now) {
                    self.deliver_frame(to, bytes);
                    self.flush_sink();
                }
                self.with_core(|core, now, sink, counters| core.poll(now, sink, counters));
                true
            }
            _ => {
                self.now = deadline;
                false
            }
        }
    }

    /// Real time: drain ready frames in batches, fire due timers from the
    /// corrected clock, then park exactly until the next deadline.
    ///
    /// The core handles a whole `poll_batch` before anything ships, and
    /// the sink is flushed once per batch: a datagram transport packs what
    /// the batch produced into one datagram per route instead of one per
    /// frame. Nothing here needs a response inside the batch — the socket
    /// is drained again right after the flush.
    fn step_real(&mut self, epoch: std::time::Instant, deadline: SimTime) -> bool {
        self.now = SimTime(epoch.elapsed().as_micros() as u64);
        if self.now >= deadline {
            return false;
        }
        self.stats.wakeups += 1;
        let mut busy = false;
        let mut batch = std::mem::take(&mut self.rx_batch);
        loop {
            batch.clear();
            if self.transport.poll_batch(self.now, RECV_BATCH, &mut batch) == 0 {
                break;
            }
            busy = true;
            for (to, bytes) in batch.drain(..) {
                self.deliver_frame(to, bytes);
            }
            self.flush_sink();
        }
        self.rx_batch = batch;
        // Correct the clock before firing timers: draining a large batch
        // takes real time, and events fired below must be stamped with
        // the instant they actually run at, not the iteration start.
        self.now = self.now.max(SimTime(epoch.elapsed().as_micros() as u64));
        busy |= self.with_core(|core, now, sink, counters| core.poll(now, sink, counters));
        busy |= self.transport.flush_backpressure(self.now);
        if !busy {
            // Nothing ready: park until the earliest instant work exists.
            // The sleep is computed from deadlines, never a fixed cadence,
            // and is clamped so the loop cannot oversleep the run horizon.
            let mut until = self
                .core
                .next_wake()
                .map_or(deadline, |w| w.min(deadline))
                .max(self.now);
            if self.transport.has_backpressure() {
                until = until.min(self.now + BACKPRESSURE_RETRY);
            }
            if until > self.now {
                let dur = std::time::Duration::from_micros(until.since(self.now).micros());
                self.stats.sleeps += 1;
                self.stats.slept_micros += dur.as_micros() as u64;
                if self.transport.wait(dur) {
                    self.stats.io_wakes += 1;
                }
            }
        }
        true
    }
}
